"""twistcalc has no runtime dependencies: its modules import only the stdlib,
and start-up loads neither ``dataclasses`` nor what that module pulls in, nor
``__future__``, which the package, having no annotations, does not need.
What src defines, src uses: each public definition, and each exception class
in an except clause."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "twistcalc"
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
    bench = SRC.parent.parent / "perfbench"
    src = sorted(SRC.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in src + sorted(bench.glob("*.py"))}
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
