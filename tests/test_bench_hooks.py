"""The benchmark's tracer wraps twistcalc functions by name; each must exist.

perfbench/tracing.py lists the traced functions per module in ``LAYERS``.
A renamed or deleted function would otherwise surface only when the
benchmark itself runs.
"""

import importlib
import importlib.util
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
