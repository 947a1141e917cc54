"""Every name a ``camline`` module imports is used in that module, and every
private name a module defines is read somewhere in the package.

No linter ships with the project, so this stands in for two rules of one:
deleting code tends to leave behind imports and helpers that nothing reads
any more.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "camline").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in ``source`` that no identifier in it reads.

    Star imports and ``from __future__`` bind nothing to check.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants that no source reads.

    ``sources`` maps a file name to its text.  A name counts as read where it
    is loaded as a name or accessed as an attribute in any of the sources.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }
    unread = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{file} line {node.lineno}: {name}"
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unread


def test_checker_finds_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n_D = 3\n",
        "b.py": "import a\nfrom a import _B\nprint(_B, a._C)\n__version__ = '1'\n",
    }
    assert unread_private_names(sources) == ["a.py line 3: _f", "a.py line 7: _D"]


def test_every_private_name_is_read():
    assert unread_private_names({path.name: path.read_text() for path in SOURCES}) == []
