"""Source hygiene of the package, checked with the standard library's ast."""

import ast
from pathlib import Path

import clevercatch

PACKAGE = Path(clevercatch.__file__).parent


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
