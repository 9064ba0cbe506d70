"""twistcalc has no runtime dependencies: its modules import only the stdlib,
and start-up loads neither ``dataclasses`` nor what that module pulls in, nor
``__future__``, which the package, having no annotations, does not need."""

import ast
import pathlib
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
