"""No module in `src/`, `demos/` or `tests/` imports a name it never uses.

An AST scan of each Python file lists every name an `import` binds (`import
a.b` binds `a`, `from m import x as y` binds `y`) and fails on one that the
module never names again, as a variable or as the root of an attribute
chain. `from __future__` imports are skipped, and so is a name whose line is
marked `# noqa: F401`, the mark for an import kept on purpose. `perfbench/`
is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "demos", "tests")
KEEP_MARK = "# noqa: F401"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name `source` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if KEEP_MARK not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def _python_files():
    for directory in SCANNED_DIRS:
        yield from sorted((ROOT / directory).rglob("*.py"))


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.getcwd()\n", []),
    ("from a import b as c\nb\n", [(1, "c")]),
    ("from __future__ import annotations\n", []),
    ("from a import (b,\n               c)  # noqa: F401\nb()\n", []),
    ("from a import (b,  # noqa: F401\n               c)\n", [(2, "c")]),
    ("import numpy as np\ndef f(x: np.ndarray): pass\n", []),
    ("def f():\n    import json\n    return 1\n", [(2, "json")]),
])
def test_scanner(source, unused):
    assert unused_imports(source) == unused


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _python_files()
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
