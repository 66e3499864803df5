"""Source hygiene of the package, checked with the standard library's ast."""

import ast
from collections import Counter
from pathlib import Path

import clevercatch

PACKAGE = Path(clevercatch.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression in the module reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


def test_unused_import_detector_on_examples():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from typing import Sequence\n"
        "from .errors import ParseError as PE\n"
        "import numpy as np\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return np.sum(x)\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 3: os", "line 5: PE"]


def test_package_has_no_unused_module_level_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if (unused := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _public_definitions(tree: ast.Module):
    """(name, statement) for each top-level def, class or assignment of a public name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def _names_read(node: ast.AST) -> Counter:
    """How often a subtree reads each identifier, as a bare name or an attribute."""
    read = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            read[sub.attr] += 1
    return read


def _unreached(modules: dict[str, str], callers: list[str], target_strings=()) -> list[str]:
    """Public names of the modules that nothing reads outside their own definition.

    A name counts as reached when it is read by another statement of any module,
    by a caller's source, or names the last part of a "module.name" target string.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = Counter()
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        read.update(_names_read(tree))
    read.update(target.rsplit(".", 1)[-1] for target in target_strings)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, statement in _public_definitions(tree)
        if read[name] - _names_read(statement)[name] == 0
    ]


def test_unreached_name_detector_on_examples():
    modules = {
        "a": (
            "LIMIT = 3\n"
            "SCALE: float = 2.0\n"
            "_private = 1\n"
            "def used(): return LIMIT\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Shape:\n"
            "    def grow(self): return Shape()\n"
            "def by_target(): pass\n"
        ),
        "b": "from .a import used\nclass Other: pass\nvalue = used()\n",
    }
    callers = ["import a\nprint(a.SCALE, b.value)\n"]
    assert _unreached(modules, callers, ["a.by_target"]) == [
        "a.recursive", "a.Shape", "b.Other",
    ]


def test_every_public_name_is_reached_outside_tests(library_use_block):
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    (targets,) = [
        node.value for node in ast.parse(tracer).body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS"
    ]
    callers = [tracer, library_use_block]
    modules = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    unreached = _unreached(modules, callers, [key.value for key in targets.keys])
    assert not unreached, f"nothing outside tests/ reads {', '.join(unreached)}"


def _csv_readers(source: str) -> int:
    """How many times a module constructs a csv.reader, as csv.reader(...) or an imported reader(...)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "csv"
        for alias in node.names
        if alias.name == "reader"
    }
    return sum(
        isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Attribute) and node.func.attr == "reader"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "csv"
            or isinstance(node.func, ast.Name) and node.func.id in imported
        )
        for node in ast.walk(tree)
    )


def test_csv_reader_detector_on_examples():
    source = (
        "import csv\n"
        "from csv import reader as r\n"
        "rows = csv.reader(open('a'))\n"
        "more = r(open('b'))\n"
        "w = csv.writer(open('c'))\n"
        "other.reader(x)\n"
    )
    assert _csv_readers(source) == 2


def test_only_io_utils_reads_csv_records():
    # ingest takes the claims header with its own csv.reader because numpy's
    # fast path goes on to read the records from that same file handle
    found = {
        path.stem: count
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "io_utils" and (count := _csv_readers(path.read_text(encoding="utf-8")))
    }
    assert found == {"ingest": 1}
