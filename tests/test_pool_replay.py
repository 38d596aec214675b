"""Replay every request of the benchmark pool (perfbench/refs/pool.json)
through symlab.cli.run in-process: each must give its recorded exit code
and the SHA-256 of its recorded output (the UTF-8 of the returned text).
The pool file is only read."""

import hashlib
import json
from pathlib import Path

from symlab.cli import run

POOL = Path(__file__).resolve().parent.parent / "perfbench" / "refs" / "pool.json"


def test_every_pool_request_replays_byte_identically():
    requests = json.loads(POOL.read_text())["requests"]
    assert len(requests) == 463
    mismatches = []
    for req in requests:
        code, text = run(req["argv"])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if (code, digest) != (req["exit"], req["sha256"]):
            mismatches.append((req["id"], req["argv"], code, req["exit"]))
    assert not mismatches, mismatches
