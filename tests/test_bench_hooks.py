"""The benchmark's tracer wraps twistcalc functions by name; each must exist.

perfbench/tracing.py lists the traced functions per module in ``LAYERS``.
Its ``COUNTERS`` read call arguments by position.  A renamed or deleted
function, or a reordered parameter, would otherwise surface only when the
benchmark itself runs, or not at all: a counter would silently read the
wrong argument.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_twistcalc_modules(names):
    """Import twistcalc anew, then put the modules the other tests use back."""
    saved = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "twistcalc"}
    for name in saved:
        del sys.modules[name]
    try:
        return {name: importlib.import_module("twistcalc." + name) for name in names}
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "twistcalc"]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_traced_layer_resolves():
    layers = load_tracing().LAYERS
    modules = fresh_twistcalc_modules(layers)
    missing = []
    for modname, funcs in layers.items():
        for qual in funcs:
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(modules[modname], cls_name, None)
                found = owner is not None and callable(vars(owner).get(attr))
            else:
                found = callable(getattr(modules[modname], qual, None))
            if not found:
                missing.append("%s.%s" % (modname, qual))
    assert missing == []


def positional(fn):
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in kinds]


def test_counters_read_the_arguments_they_name():
    counters = load_tracing().COUNTERS
    modules = fresh_twistcalc_modules(["tensor", "expansion", "johnson", "diagrams"])
    # args[2] of L_k labels calls_k4/calls_k5.
    assert positional(modules["johnson"].L_k)[2] == "k"
    # args[1] of theta is the barcode whose letters are counted.
    assert positional(modules["expansion"].theta)[1] == "bc"
    # product is unpacked as x, y = args.
    assert len(positional(modules["tensor"].product)) == 2
    # args[0] of eta is the DiagramSum whose nodes are counted.
    assert positional(modules["diagrams"].eta)[0] == "d"
    assert set(counters) == {
        "tensor.product",
        "tensor.log_series",
        "expansion.theta",
        "johnson.L_k",
        "diagrams.eta",
    }


WORKLOADS = TRACING.parent / "workloads.py"


def test_tiny_workloads_pass_their_checks(tmp_path):
    # The workloads build DiagramSums, call eta and read Tensor.terms; an API
    # change there would otherwise show only when the benchmark runs.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    tc = fresh_twistcalc_modules(
        ["tensor", "surface", "expansion", "johnson", "diagrams", "casson", "psi_data", "cli"]
    )
    for name, workload in workloads.WORKLOADS.items():
        exp = tc["expansion"].default_expansion(workload.genus, workloads.TRUNC)
        state = workload.setup(tc, 1, tmp_path, True)
        checks = [
            ok
            for item in state.items
            for ok in workload.check(tc, state, item, workload.run(tc, exp, state, item))
        ]
        assert checks and all(checks), name
