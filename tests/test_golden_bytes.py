"""Byte-exact golden check: the JSON and CSV reports of the 10 golden configs,
and the ``families`` skeleton, must hash to the pinned sha256.

``test_golden_reports.py`` compares floats within 1e-14, which admits a
last-bit move; this file admits none.  Print the current hashes with
``PYTHONPATH=src python tests/test_golden_bytes.py`` and update the pins only
when a change to report bytes is intended.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from biphoton.cli import emit_report, load_config, main
from biphoton.protocol import run_protocol

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

#: sha256 of JSON then CSV of each golden config, in fixture order.
REPORTS_SHA256 = "9f5492626d225a402710881c01f206692447f8c74140f7b11a07291e42dbc8cb"
#: sha256 of ``biphoton families`` standard output.
FAMILIES_SHA256 = "91c0adf86d6d8043751b340a92bdbb1ac9cec42e331848b4d872f62670fe8f46"


def reports_sha256() -> str:
    digest = hashlib.sha256()
    for case in json.loads(GOLDEN.read_text(encoding="utf-8")):
        cfg = load_config(case["config"])
        report = run_protocol(
            cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol
        )
        for fmt in ("json", "csv"):
            digest.update(emit_report(report, fmt).encode("utf-8"))
    return digest.hexdigest()


def families_sha256() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["families"]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_golden_report_bytes_are_pinned():
    assert reports_sha256() == REPORTS_SHA256


def test_families_bytes_are_pinned():
    assert families_sha256() == FAMILIES_SHA256


if __name__ == "__main__":
    print("reports ", reports_sha256())
    print("families", families_sha256())
