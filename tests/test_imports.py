"""Every module-level import in the package is used: a leftover import, say
of `time` after the code that timed something moved, fails here. A name the
module lists in `__all__` counts as used, since it is imported to be
re-exported; `from __future__` imports are compiler directives."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skelhar"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import time\nimport os\nos.getpid()\n", ["line 1: time"]),
    ("import os.path\nos.sep\n", []),
    ("from __future__ import annotations\nfrom a import b as c\n", ["line 2: c"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import B\ndef f(x: B) -> None: ...\n", []),
    ("def f():\n    import time\n    return time\n", []),
])
def test_the_scan_finds_only_unused_module_level_imports(source, unused):
    assert _unused_imports(source) == unused
