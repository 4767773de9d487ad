"""Every module reads every name it imports.

An AST scan of each module under src/, tests/ and demos/: the names an
``import`` binds, against the names the module reads anywhere (a ``Name``
in load context; a dotted read ``a.b`` reads ``a``). Package
``__init__.py`` files re-export what they import and are skipped, as are
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(a.asname or a.name for a in node.names if a.name != "*")
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau as turn\n"
        "import json as j\n"
        "print(os.path.sep, turn)\n"
    )
    assert unused_imports(source) == ["pi", "j"]


def test_the_scan_sees_every_module():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/edanav/control.py", "tests/oracles.py", "demos/05_full_pipeline.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
