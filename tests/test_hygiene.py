"""Source hygiene: every exported name exists, no module imports what it
never reads, every private module-level name is read somewhere else, only
the report writer and the CLI import json, and only the CLI reads the
environment."""

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


def _imports_json(tree: ast.Module) -> bool:
    """Whether any import statement of the module, at any depth, names json."""
    return any(
        isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"
        for node in ast.walk(tree)
    )


def test_only_the_report_writer_and_cli_import_json():
    importers = {
        path.stem for path in PACKAGE_DIR.glob("*.py")
        if _imports_json(ast.parse(path.read_text(), filename=str(path)))
    }
    assert importers <= {"cli", "harness"}, f"modules importing json: {sorted(importers)}"


def _reads_environ(tree: ast.Module) -> bool:
    """Whether the module names environ or getenv at any depth: as an
    attribute (os.environ), a bare name or an imported name."""
    return any(
        isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
        or isinstance(node, ast.Name) and node.id in ("environ", "getenv")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv")
        for node in ast.walk(tree)
    )


def test_only_the_cli_reads_the_environment():
    # a tuning constant read from the environment would be a knob no
    # config or report records
    readers = {
        path.stem for path in PACKAGE_DIR.glob("*.py")
        if _reads_environ(ast.parse(path.read_text(), filename=str(path)))
    }
    assert readers <= {"cli"}, f"modules reading the environment: {sorted(readers)}"


def test_scanner_flags_an_environment_read():
    assert _reads_environ(ast.parse("import os\nSLACK = float(os.environ['SLACK'])\n"))
    assert _reads_environ(ast.parse("def f():\n    return os.getenv('X')\n"))
    assert _reads_environ(ast.parse("from os import environ\n"))
    assert not _reads_environ(ast.parse("import os\npath = os.path.join('a', 'b')\n"))


def test_scanner_flags_a_json_import_inside_a_function():
    assert _imports_json(ast.parse("def f():\n    import json\n"))
    assert _imports_json(ast.parse("from json import dumps\n"))
    assert not _imports_json(ast.parse("import jsonschema, math\n"))


def test_scanner_flags_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n")
    assert _unused_imports(tree) == ["os (line 1)", "pi (line 3)"]


def _unreferenced_helpers(trees: dict) -> list:
    """Module-level private names (one leading underscore) that no other
    top-level statement of any of the modules reads, imports or assigns
    from. A helper that only calls itself counts as unreferenced."""
    defined, used = {}, []
    for module, tree in trees.items():
        for stmt in tree.body:
            names = []
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            reads = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
                elif isinstance(node, ast.alias):
                    reads.add(node.name)
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[(module, name)] = stmt
            used.append((stmt, reads))
    return sorted(
        f"{module}.{name}"
        for (module, name), own in defined.items()
        if not any(name in reads for stmt, reads in used if stmt is not own)
    )


def test_no_unreferenced_private_helpers():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in PACKAGE_DIR.glob("*.py")}
    unreferenced = _unreferenced_helpers(trees)
    assert not unreferenced, f"private helpers nothing in src/ refers to: {unreferenced}"


def test_scanner_flags_an_unreferenced_helper():
    trees = {
        "a": ast.parse("def _used():\n    pass\n\ndef _dead(x):\n    return _dead(x - 1)\n"
                       "_LIMIT = 3\n_UNREAD = 4\n"),
        "b": ast.parse("from .a import _used\n\ndef f():\n    return _used() + a._LIMIT\n"),
    }
    assert _unreferenced_helpers(trees) == ["a._UNREAD", "a._dead"]
