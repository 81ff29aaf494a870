"""Every name a module of the package imports is used in that module.

A stdlib ``ast`` check, in the spirit of pyflakes' F401: ``__init__.py``
(whose imports are the package's exports) and ``__future__`` imports are
skipped, and an import line marked ``# noqa: F401`` is kept on purpose."""

import ast
from pathlib import Path

import pytest

import requ_gap

MODULES = sorted(
    p for p in Path(requ_gap.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names imported in source and never read, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Iterator\n"
        "from json import dumps  # noqa: F401\n"
        "def f() -> Iterator[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["3: Callable"]
