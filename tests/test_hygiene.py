"""Source hygiene: every exported name exists, no module imports what it
never reads, every private module-level name is read somewhere else, every
public function, class and method is run by the program or listed as API,
only the report writer and the CLI import json, only the CLI reads the
environment, and the integer rule is written once."""

import ast
import importlib
import pkgutil
from collections import Counter
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


# Public names that nothing in src/, demos/ or bench/ runs, kept for
# callers: the scalar and batch twins of an API the program runs.
API = {
    "active.predict_many",  # predict over an (m, k) array
    "passive.answer_query",  # answer_many on one k-set
    "core.LatentOrder.rank_of",  # ranks for one id
    "core.LatentOrder.id_at",  # ascending for one rank
}
REPO = Path(__file__).resolve().parents[1]
# the program outside the package; tests do not count as running a name
PROGRAM = sorted(
    path for folder in ("demos", "bench") for path in (REPO / folder).glob("*.py")
    if not path.name.startswith("test_")
)


def _loads(node) -> Counter:
    """How often each name is read under node: a loaded bare name, or an
    attribute of that name on anything. An import, an __all__ string or a
    docstring mention reads nothing."""
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        or isinstance(child, ast.Attribute)
    )


def _unreached_public(package: dict, program: dict) -> list:
    """module.name for each public (no leading underscore) module-level
    function or class of the package's modules, and module.Class.name for
    each public method of such a class, that no code of the package or the
    program reads outside the definition itself. Reads are matched by name
    alone, so a read of a name reaches every definition of it: a method
    name read once is reached in every class."""
    loads = sum((_loads(tree) for tree in [*package.values(), *program.values()]), Counter())
    unreached = []
    for module, tree in package.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(f"{module}.{stmt.name}", stmt)]
            if isinstance(stmt, ast.ClassDef):
                found += [(f"{module}.{stmt.name}.{item.name}", item) for item in stmt.body
                          if isinstance(item, ast.FunctionDef)]
            for qualified, node in found:
                if not node.name.startswith("_") and loads[node.name] == _loads(node)[node.name]:
                    unreached.append(qualified)
    return sorted(unreached)


def test_every_public_name_runs_or_is_listed_api():
    package = {path.stem: ast.parse(path.read_text(), filename=str(path))
               for path in PACKAGE_DIR.glob("*.py")}
    program = {f"{path.parent.name}/{path.stem}": ast.parse(path.read_text(), filename=str(path))
               for path in PROGRAM}
    assert {"demos/07_query_curves", "bench/tracer"} <= set(program)
    unreached = set(_unreached_public(package, program))
    assert not unreached - API, f"public names only tests reach: {sorted(unreached - API)}"
    assert not API - unreached, f"API names the program runs, or gone: {sorted(API - unreached)}"


def test_scanner_flags_an_unreached_public_function_and_method():
    package = {
        "a": ast.parse(
            '__all__ = ["run", "judge", "Order"]\n'
            "def run(m):\n    return 0 if m < 1 else run(m - 1)\n"
            "def judge(m):\n    return judge(m - 1)\n"
            "class Order:\n"
            '    """A judge() in a docstring reads nothing."""\n'
            "    def rank(self):\n        return self.rank()\n"
            "    def size(self):\n        return 1\n"
            "    def _cache(self):\n        return self.size()\n"
        ),
        "b": ast.parse("from .a import judge, run\ndef main():\n    return run(3)\n"),
    }
    program = {"demo": ast.parse("import a\nprint(a.Order()._cache(), a.main())\n")}
    assert _unreached_public(package, program) == ["a.Order.rank", "a.judge"]
    # what only the program reads is reached, and is not without it
    assert _unreached_public(package, {}) == ["a.Order", "a.Order.rank", "a.judge", "b.main"]


def _sites(trees: dict, flagged) -> set:
    """module.function for the innermost function around every node that
    flagged(node) is true of, across the modules' trees; a node outside
    any function counts as module.<module>."""
    sites = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if flagged(node):
            sites.add(f"{module}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for module, tree in trees.items():
        visit(tree, module, "<module>")
    return sites


def _reads_dtype_kind(node) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "kind"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
    )


def _names_integral(node) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "Integral"
        or isinstance(node, ast.Name) and node.id == "Integral"
        or isinstance(node, ast.alias) and node.name.split(".")[-1] == "Integral"
    )


def test_the_integer_rule_is_written_once():
    # core._is_integer judges a scalar and core._check_ids an array; a
    # second dtype test or Integral test would be a second rule
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in PACKAGE_DIR.glob("*.py")}
    assert _sites(trees, _reads_dtype_kind) == {"core._check_ids"}
    assert _sites(trees, _names_integral) == {"core._is_integer", "core._is_real"}


def test_scanner_finds_each_integer_test():
    trees = {
        "a": ast.parse("import numbers\ndef f(x):\n    return x.dtype.kind\n"
                       "class C:\n    def g(self, y):\n"
                       "        return isinstance(y, numbers.Integral)\n"
                       "KIND = z.dtype.kind\n"),
        "b": ast.parse("from numbers import Integral\nkind = x.kind\n"),
    }
    assert _sites(trees, _reads_dtype_kind) == {"a.f", "a.<module>"}
    assert _sites(trees, _names_integral) == {"a.g", "b.<module>"}
