"""Every name the package's modules import is read.

An import that no code reads is a leftover: the code that used it is gone,
yet the module still loads it and a reader still looks for its use. This
walks the syntax tree of each module under src/qicd and asserts that every
name an import binds is loaded somewhere in the module. `from __future__`
imports are exempt, and so is `__init__.py`, whose imports re-export the
package's public names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "qicd").glob("*.py") if path.name != "__init__.py"
)


def unread_imports(source: str, filename: str = "<source>") -> list[str]:
    """`file:line name` for each name an import binds that the module never
    reads."""
    tree = ast.parse(source, filename)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `import a.b as c` and `from a import b as c` bind `c`.
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            found += [f"{filename}:{node.lineno} {name}" for name in names if name not in read]
    return found


def test_the_walk_finds_an_unread_import():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport json as j\nfrom sys import argv, exit as leave\n"
        "def f():\n    return j.dumps(argv)\n"
    )
    assert unread_imports(source) == ["<source>:2 os", "<source>:3 os", "<source>:5 leave"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8"), path.name) == []
