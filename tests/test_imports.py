"""Every name a `symlab` module imports is used in that module.

Skipped: `from __future__` imports, the package's `__init__.py` (its imports
are the public re-exports) and lines marked `# noqa: F401`, which keep a
name importable from a second module on purpose.  A name counts as used
when the module reads it, in code or in a string annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "symlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree, lines):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def used_names(tree):
    """Every name the module reads, with string annotations parsed."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= used_names(ast.parse(sub.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree, text.splitlines())
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    text = "from .families import PoleAt, RootFamily\nRootFamily()\n"
    tree = ast.parse(text)
    names = [n for n, _ in imported_names(tree, text.splitlines()) if n not in used_names(tree)]
    assert names == ["PoleAt"]
    marked = "from .quotient import vandermonde_pair  # noqa: F401\n"
    assert list(imported_names(ast.parse(marked), marked.splitlines())) == []
