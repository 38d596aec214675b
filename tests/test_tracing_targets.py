"""Every function and method that the benchmark's tracer
(perfbench/tracing.py) wraps by name must exist in symlab.  The tracer
resolves its targets only when a traced run starts, so a deleted or renamed
target would otherwise break traced runs without failing any test here.
The tracer file is read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("symlab_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _owner(module: str, qualname: str):
    owner = importlib.import_module(f"symlab.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("table", ["SPANS", "COUNTERS"])
def test_every_traced_target_resolves(table):
    targets = getattr(_load_tracing(), table)
    assert targets
    missing = []
    for name, module, qualname in targets:
        try:
            owner, attr = _owner(module, qualname)
        except (ImportError, AttributeError):
            missing.append(f"{name}: symlab.{module}.{qualname}")
            continue
        # counters replace the attribute found in the owner's own namespace
        found = vars(owner).get(attr) if table == "COUNTERS" else getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{name}: symlab.{module}.{qualname}")
    assert not missing, missing


def test_cli_registry_the_tracer_patches():
    # the tracer wraps every entry of cli._COMMANDS in place, so the
    # registry must stay one dict from subcommand name to command function
    import argparse

    from symlab import cli

    assert "cli._COMMANDS.items()" in TRACING.read_text()
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert type(cli._COMMANDS) is dict and set(cli._COMMANDS) == set(sub.choices)
    assert all(callable(fn) for fn in cli._COMMANDS.values())
