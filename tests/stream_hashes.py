"""sha256 of the reports of each benchmark workload's op stream.

For every workload in ``benchmarks/workloads.py`` this runs the first 300
timed ops of seed 1 and then of seed 2 through ``load_config``,
``run_protocol`` and ``emit_report`` (JSON, then CSV) and hashes the report
bytes in that order, one hash per workload.  Two trees that print the same
hashes emit the same bytes on those ops.  Run from the repository root:

    PYTHONPATH=src python tests/stream_hashes.py

It prints every hash and exits 1, naming each workload whose hash differs
from its pin in ``PINNED``.  Update a pin only when a change to report bytes
is intended.

pytest does not collect this file; ``tests/test_stream_pins.py`` checks the
pins in tier-1.  It only reads ``benchmarks/workloads.py``.
"""

import hashlib
import sys
from pathlib import Path

from biphoton.cli import emit_report, load_config
from biphoton.protocol import run_protocol

sys.dont_write_bytecode = True  # importing workloads leaves benchmarks/ untouched
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402

OPS = 300
SEEDS = (1, 2)
#: The hashes of the current report bytes, by workload.
PINNED = {
    "verify_shared": "919f0ec25b8c6587e6e15ba84c3ff10cb212c51cd8a88957fd56bda969f6c83f",
    "run_fresh": "bc88a25e83d067cf11a8eafade655171bdb0ef5973b08c7e4e5bd655a1184715",
    "cli_cold": "f9a9b949d9233f40c2744bcc2692558f30aa6af903275c0d5ea779c4ba77fb4b",
}


def stream_sha256(workload: str) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        source = workloads.stream(workload, seed, workloads.TIMED)
        for index in range(OPS):
            cfg = load_config(source.op(index).config)
            report = run_protocol(
                cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol
            )
            for fmt in ("json", "csv"):
                digest.update(emit_report(report, fmt).encode("utf-8"))
    return digest.hexdigest()


if __name__ == "__main__":
    differ = []
    for name, pinned in PINNED.items():
        digest = stream_sha256(name)
        print(name, digest)
        if digest != pinned:
            differ.append(name)
    if differ:
        print("bytes differ from the pin on: " + ", ".join(differ), file=sys.stderr)
        sys.exit(1)
