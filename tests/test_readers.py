"""Every name a `symlab` module defines has a reader.

Scanned: each module-level function and class of every module except the
package's `__init__.py`, and each of their methods whose name is not a
dunder.  A definition has a reader when a `Name` or an `Attribute` of its
name occurs anywhere in `src/symlab` (`__init__.py` included, though its
re-exports are imports and do not count), when the benchmark's tracer wraps
it (perfbench/tracing.py, read and never edited), or when ALLOWED names it
with the reason it stays.  A name that only tests call is a second way to
do what the engine does some other way, so it should go.
"""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symlab"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

ALLOWED = {
    ("chi", "all_chis"): "test oracle: enumerates the group of k[X]/(X^3)",
    ("structure", "compose_pair"): "test oracle: the paper's (b, b') composition law",
    ("linalg", "Matrix.mul_vec"): "test oracle for the matrix kernels",
    ("quotient", "AlgebraHom.is_homomorphism"): "the verdict for a map between two algebras",
    ("structure", "algebra_from_json"): "ROADMAP item 16 gives it a CLI reader",
    ("structure", "limit_map_at_zero"): "ROADMAP item 4 gives it a CLI reader",
    ("cli", "_ArgumentParser.error"): "argparse calls it",
}


def definitions(module: str, tree):
    """(module, qualified name) of each module-level function or class and
    each of their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield module, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield module, f"{node.name}.{sub.name}"


def read_names(trees) -> set:
    """Every name read as a `Name` or an `Attribute` in the given trees."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def traced_targets() -> set:
    spec = importlib.util.spec_from_file_location("symlab_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(module, qualname) for table in (mod.SPANS, mod.COUNTERS) for _, module, qualname in table}


def readerless(sources: dict, exempt) -> list:
    """The definitions in sources (module name -> text) with no reader."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = read_names(trees.values())
    return [
        f"{module}.{qualname}"
        for name, tree in trees.items() if name != "__init__"
        for module, qualname in definitions(name, tree)
        if qualname.split(".")[-1] not in reads and (module, qualname) not in exempt
    ]


def test_every_definition_has_a_reader():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    missing = readerless(sources, traced_targets() | set(ALLOWED))
    assert not missing, f"defined but read nowhere in src/symlab: {', '.join(missing)}"


def test_every_allowed_name_is_still_defined():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    defined = {d for name, text in sources.items() for d in definitions(name, ast.parse(text))}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def test_the_check_sees_a_readerless_definition():
    sources = {
        "__init__": "from .lab import used, unused_fn, Box\n",
        "lab": (
            "def used():\n    return Box().shown()\n"
            "RESULT = used()\n"
            "def unused_fn():\n    pass\n"
            "class Box:\n"
            "    def __init__(self):\n        pass\n"
            "    def shown(self):\n        return 1\n"
            "    def hidden(self):\n        return 2\n"
            "    def exempt(self):\n        return 3\n"
        ),
    }
    assert readerless(sources, {("lab", "Box.exempt")}) == ["lab.unused_fn", "lab.Box.hidden"]
