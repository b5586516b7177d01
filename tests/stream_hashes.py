"""sha256 of the reports of each benchmark workload's op stream.

For every workload in ``benchmarks/workloads.py`` this runs the first 300
timed ops of seed 1 and then of seed 2 through ``load_config``,
``run_protocol`` and ``emit_report`` (JSON, then CSV) and hashes the report
bytes in that order, one hash per workload.  Two trees that print the same
hashes emit the same bytes on those ops.  Run from the repository root:

    PYTHONPATH=src python tests/stream_hashes.py

pytest does not collect this file; it only reads ``benchmarks/workloads.py``.
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
WORKLOADS = ("verify_shared", "run_fresh", "cli_cold")


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
    for name in WORKLOADS:
        print(name, stream_sha256(name))
