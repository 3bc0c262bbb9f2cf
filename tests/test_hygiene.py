"""Source hygiene: every exported name exists and no module imports what it
never reads."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import choicelab

PACKAGE_DIR = Path(choicelab.__file__).resolve().parent
# __main__ runs the CLI when imported, and defines no __all__
MODULES = sorted(
    info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]) if info.name != "__main__"
)
SOURCES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_all_names_resolve(name):
    module = choicelab if name == "__init__" else importlib.import_module(f"choicelab.{name}")
    exported = getattr(module, "__all__", ())
    missing = [x for x in exported if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_scanner_flags_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n")
    assert _unused_imports(tree) == ["os (line 1)", "pi (line 3)"]
