"""The report bytes of every benchmark workload's op stream match their pins
in ``tests/stream_hashes.py``, which also runs by hand."""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_workload_stream_hash_matches_its_pin(monkeypatch):
    # Importing the script points sys.path at benchmarks/ and turns bytecode
    # off; the monkeypatch restores both, so benchmarks/ gets no __pycache__.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    stream_hashes = importlib.import_module("stream_hashes")
    differ = {
        name: digest
        for name, pinned in stream_hashes.PINNED.items()
        if (digest := stream_hashes.stream_sha256(name)) != pinned
    }
    assert not differ, f"report bytes differ from the pin: {differ}"
