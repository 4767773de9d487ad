"""Every module reads every name it imports, and every src definition has a caller.

An AST scan of each module under src/, tests/ and demos/: the names an
``import`` binds, against the names the module reads anywhere (a ``Name``
in load context; a dotted read ``a.b`` reads ``a``). Package
``__init__.py`` files re-export what they import and are skipped, as are
``from __future__`` imports.

A second scan takes each top-level function and class of src/, each
non-dunder method and each non-dunder name a top-level assignment binds,
and looks for its name in src/, demos/ and perfbench/: as a ``Name`` that
is read, an ``Attribute``, an import alias or a string that is an
identifier. A name found only in the tests is code that nothing runs, or
a constant that nothing reads. Each field of a src dataclass must likewise
be read there, as an ``Attribute`` or as an identifier string (the strings
of ``GAIN_KEYS`` read the `PidGains` fields): a field only the tests read is
state that nothing uses.

A last check runs the package in a fresh interpreter where any scipy
import raises: it imports the package and its CLI and runs every command.
"""

import ast
import os
import subprocess
import sys
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


# ---------------------------------------------------------------------------
# Every src definition has a caller outside the tests
# ---------------------------------------------------------------------------

CALLER_FOLDERS = ("src", "demos", "perfbench")


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned names, and ``Class.method`` for each method.

    Dunder methods and dunder names are left out.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and not _dunder(name.id)
            )
        if isinstance(node, ast.ClassDef):
            found.extend(
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, functions) and not _dunder(item.name)
            )
    return found


def named(tree: ast.Module) -> set[str]:
    """Every name ``tree`` mentions: a Name read, an Attribute, an import alias or an identifier string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def unreferenced(defining: list[str], callers: list[str]) -> list[str]:
    """The definitions in the ``defining`` sources that no ``callers`` source names, sorted."""
    used = set().union(*(named(ast.parse(source)) for source in callers))
    return sorted(
        name
        for source in defining
        for name in definitions(ast.parse(source))
        if name.rpartition(".")[2] not in used
    )


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def dataclass_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for each annotated field of each top-level ``@dataclass`` class."""
    return [
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(_decorator_name(d) == "dataclass" for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def unread_fields(defining: list[str], callers: list[str]) -> list[str]:
    """The dataclass fields in ``defining`` that no ``callers`` source reads, sorted."""
    read = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    read.add(node.value)
    return sorted(
        field
        for source in defining
        for field in dataclass_fields(ast.parse(source))
        if field.rpartition(".")[2] not in read
    )


def test_the_unreferenced_scan_finds_a_dead_name():
    defining = (
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: float\n"
        "    y: float\n"
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def open(self): pass\n"
        "    def shut(self): pass\n"
        "def used(): pass\n"
        "def by_string(): pass\n"
        "def dead(): pass\n"
        "__all__ = []\n"
        "LIMIT: int = 3\n"
        "WIDTH, STALE = 4, 5\n"
        "def clip(x): return min(x, LIMIT)\n"
    )
    caller = (
        "from pkg import used as u, clip\nb = Box()\nb.open()\ngetattr(b, 'by_string')\n"
        "print(clip(1), pkg.WIDTH, Point(1.0, y=2.0).x)\n"
    )
    assert unreferenced([defining], [defining, caller]) == ["Box.shut", "STALE", "dead"]
    assert unread_fields([defining], [defining, caller]) == ["Point.y"]


def _src_and_callers() -> tuple[list[str], list[str]]:
    callers = sorted(p for folder in CALLER_FOLDERS for p in (ROOT / folder).rglob("*.py"))
    return ([p.read_text(encoding="utf-8") for p in (ROOT / "src").rglob("*.py")],
            [p.read_text(encoding="utf-8") for p in callers])


def test_every_src_definition_is_named_outside_the_tests():
    # a function, class or method only the tests reach is dead code in src,
    # and a constant only the tests read is left over from such code
    assert unreferenced(*_src_and_callers()) == []


def test_every_src_dataclass_field_is_read_outside_the_tests():
    # a field only the tests read is a result the program carries for nothing
    assert unread_fields(*_src_and_callers()) == []


def test_the_package_runs_without_scipy(tmp_path):
    # scipy.ndimage alone took a fresh `import edanav, edanav.cli` from 29 to
    # 56 MB peak RSS (and 0.07 to 0.21 s), and scipy.signal to 103 MB; with
    # sys.modules["scipy"] = None any scipy import raises, so the package must
    # import and run synth through report without one
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import edanav, edanav.cli\n"
        "flags = ['--output-dir', sys.argv[1], '--set', 'dataset.n_sessions=4',\n"
        "         '--set', 'dataset.duration_s=60', '--set', 'optimizer.budget=4']\n"
        "for command in ('synth', 'train', 'optimize', 'evaluate', 'report'):\n"
        "    if edanav.cli.main([command, *flags]) != 0:\n"
        "        sys.exit(f'{command} failed')\n"
    )
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "report.csv").is_file()
