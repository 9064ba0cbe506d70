"""twistcalc has no runtime dependencies: its modules import only the stdlib,
and start-up loads neither ``dataclasses`` nor what that module pulls in, nor
``__future__``, which the package, having no annotations, does not need.
What src defines, src uses: each public definition, and each exception class
in an except clause.  And what src defines, a command or a benchmark workload
runs: the execution census finds each def in src that neither the golden CLI
runs nor a tiny pass of each perfbench workload reaches, and fails unless a
tracer layer or a reason in ``CLAIMS`` claims it.

Run as a script, it prints the census:

    PYTHONPATH=src python -B tests/test_dependencies.py
"""

import ast
import importlib
import importlib.util
import pathlib
import re
import subprocess
import sys
import tempfile

from test_cli import golden_runs

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twistcalc"
BENCH = ROOT / "perfbench"
SLOW_IMPORTS = ("dataclasses", "__future__")


def test_modules_import_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        module = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names or top in SLOW_IMPORTS:
                    foreign.append("%s:%d imports %s" % (path.name, node.lineno, name))
    assert foreign == []


def test_cli_start_up_leaves_out_dataclasses_and_inspect():
    # -I -S: no site hooks or environment paths, so only twistcalc's own
    # imports can load a module; -B: no bytecode written under src/.
    code = (
        "import sys; sys.path.insert(0, %r); import twistcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(SRC.parent)
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def _names(tree):
    """The identifiers of a module and the words of its strings."""
    idents, words = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            idents.add(node.id)
        elif isinstance(node, ast.Attribute):
            idents.add(node.attr)
        elif isinstance(node, ast.alias):
            idents.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return idents, words


def test_every_public_definition_is_used_by_the_product():
    # Product code is what a command or the benchmark runs: each public
    # top-level def or class in src is named by src (not the package's
    # __init__) or by perfbench, as an identifier, or as a word in a string
    # of another module (perfbench's tracer names its layers in strings).
    # A module's own prose about a definition is not a use.
    src = sorted(SRC.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in src + sorted(BENCH.glob("*.py"))}
    names = {p: _names(tree) for p, tree in trees.items() if p.name != "__init__.py"}
    unused = []
    for path in src:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if not any(
                node.name in idents or (p != path and node.name in words)
                for p, (idents, words) in names.items()
            ):
                unused.append("%s:%d %s" % (path.name, node.lineno, node.name))
    assert unused == []


def test_every_exception_class_is_caught_by_the_product():
    # A precondition fails with DomainError; another exception class earns its
    # place only when some caller in src handles it apart, in an except clause.
    src = sorted(SRC.glob("*.py"))
    caught = set()
    for path in src:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        caught.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        caught.add(name.attr)
    uncaught = []
    for path in src:
        module = importlib.import_module(("twistcalc." + path.stem).replace(".__init__", ""))
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
                and name not in caught
            ):
                uncaught.append("%s %s" % (path.name, name))
    assert uncaught == []


# Defs in src that no golden CLI run and no workload reaches, keyed by the
# reason that keeps them: the value-type contract, or an open ROADMAP item
# ("ROADMAP item N") that needs them.  A name claims every def it names.  An
# entry goes when its reason does: one that a run reaches, or that names no
# def, fails the census.
CLAIMS = {
    "value-type contract, pinned by tests/test_value_types.py": (
        "surface.HVector.__repr__",
        "tensor.Tensor.__hash__",
        "tensor.Tensor.__reduce__",
        "tensor.Tensor.__repr__",
        "tensor.Value.__init_subclass__.__hash__",
        "tensor.Value.__init_subclass__.key",
        "tensor.Value.__reduce__",
        "tensor.Value.__repr__",
        "tensor.Value.__setattr__",
    ),
}


def _perfbench(name):
    """The module perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defs():
    """{(path, first line): "module.qualname"} of every def in src.  A
    decorated def starts at its first decorator, as its code object does;
    lambdas and comprehensions are not defs."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    defs[(path, line)] = name
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return defs


def _product_runs(tmp):
    """The golden CLI runs, then a tiny pass of each perfbench workload as the
    benchmark makes one: a fresh import of twistcalc, the set-up, each item's
    run, and its checks, which must pass.  The modules imported before are
    put back in sys.modules afterwards."""
    golden_runs(tmp)
    workloads = _perfbench("workloads")
    before = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "twistcalc"}
    for name in before:
        del sys.modules[name]
    try:
        tc = {
            p.stem: importlib.import_module("twistcalc." + p.stem)
            for p in SRC.glob("*.py")
            if p.stem != "__init__"
        }
        for workload in workloads.WORKLOADS.values():
            exp = tc["expansion"].default_expansion(workload.genus, workloads.TRUNC)
            state = workload.setup(tc, 1, pathlib.Path(tmp), True)
            for item in state.items:
                output = workload.run(tc, exp, state, item)
                assert all(workload.check(tc, state, item, output)), (workload.name, item)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "twistcalc"]:
            del sys.modules[name]
        sys.modules.update(before)


def census(tmp):
    """(reached, claimed, unclaimed): the defs in src that _product_runs
    reaches, {def: reason} of the others that a tracer layer or CLAIMS
    claims, and the rest, each a sorted list of "module.qualname"."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        _product_runs(tmp)
    finally:
        sys.setprofile(outer)
    seen = {(str(pathlib.Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    reasons = {
        "%s.%s" % (module, qual): "perfbench/tracing.py LAYERS"
        for module, quals in _perfbench("tracing").LAYERS.items()
        for qual in quals
    }
    for reason, names in CLAIMS.items():
        reasons.update(dict.fromkeys(names, reason))
    reached, claimed, unclaimed = [], {}, []
    for key, name in _defs().items():
        if key in seen:
            reached.append(name)
        elif name in reasons:
            claimed[name] = reasons[name]
        else:
            unclaimed.append(name)
    return sorted(reached), dict(sorted(claimed.items())), sorted(unclaimed)


def test_every_def_in_src_is_run_by_a_command_or_a_workload(tmp_path):
    _, claimed, unclaimed = census(str(tmp_path))
    assert unclaimed == []
    stale = [n for names in CLAIMS.values() for n in names if n not in claimed]
    assert stale == []


if __name__ == "__main__":
    # Print the census: PYTHONPATH=src python -B tests/test_dependencies.py
    with tempfile.TemporaryDirectory() as tmp:
        reached, claimed, unclaimed = census(tmp)
    print("reached (%d):" % len(reached))
    for name in reached:
        print("  " + name)
    print("claimed (%d):" % len(claimed))
    for name, reason in claimed.items():
        print("  %s  [%s]" % (name, reason))
    print("unclaimed (%d):" % len(unclaimed))
    for name in unclaimed:
        print("  " + name)
