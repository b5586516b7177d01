"""Per-op correctness checks that do not rely on ``compare_reports``.

Each check returns a list of problems; an op passes when the list is
empty.  The expected values come from the protocol's definition, not
from the program:

* branch probabilities sum to 1;
* the success probability is 1/16 in ``general``, 1/4 in ``parity5`` and
  half the input's even-parity weight in ``parity4``, under either
  analyzer;
* the report has 16 Bell pairs, the accepted ones split by register
  reading: 15 + 4 branches in ``general``, 12 + 4 x 2 in ``parity5`` and
  12 + 4 in ``parity4``;
* emitted JSON parses back to the report's exact floats and the CSV has
  one row per branch.

``Checker(fault=...)`` is the negative control: it corrupts what the
check reads (never the program) so a broken program is seen to fail.
"""

from __future__ import annotations

import csv
import io
import json

EXPECTED_BRANCHES = {"general": 19, "parity5": 20, "parity4": 16}
FAULTS = ("success_probability", "verdict")
_FAULT_SHIFT = 1e-3


def expected_success(mode: str, vec) -> float:
    if mode == "general":
        return 1.0 / 16.0
    if mode == "parity5":
        return 0.25
    return 0.5 * float(abs(vec[0]) ** 2 + abs(vec[3]) ** 2)


def _is_success(classification: str) -> bool:
    return classification.startswith(("success", "correctable"))


class Checker:
    def __init__(self, fault: str | None = None):
        if fault is not None and fault not in FAULTS:
            raise ValueError(f"unknown fault {fault!r}, expected one of {FAULTS}")
        self.fault = fault

    def _totals(self, op, n_branches, total, success, verdict_ok) -> list:
        mode, tol = op.config["mode"], op.config["tol"]
        problems = []
        if self.fault == "verdict":
            verdict_ok = False
        if self.fault == "success_probability":
            success += _FAULT_SHIFT
        if not verdict_ok:
            problems.append("oracle verdict failed")
        if n_branches != EXPECTED_BRANCHES[mode]:
            problems.append(f"{n_branches} branches, expected {EXPECTED_BRANCHES[mode]}")
        if abs(total - 1.0) > tol:
            problems.append(f"branch probabilities sum to {total!r}")
        expected = expected_success(mode, op.vector)
        if abs(success - expected) > tol:
            problems.append(f"success probability {success!r}, expected {expected!r}")
        return problems

    def report(self, op, report, verdict, texts: dict) -> list:
        """Check an in-process run: report, verdict and emitted texts."""
        problems = self._totals(
            op,
            len(report.branches),
            sum(b.probability for b in report.branches),
            report.success_probability,
            verdict.passed,
        )
        if "json" in texts:
            problems += _json_matches(report, texts["json"])
        if "csv" in texts:
            problems += _csv_matches(report, texts["csv"])
        return problems

    def cli(self, op, returncode: int, stdout: str, out_text: str | None) -> list:
        """Check one ``python -m biphoton.cli`` invocation by its outputs."""
        verdict_ok = returncode == 0
        if op.kind == "verify":
            if not stdout.startswith("PASS"):
                verdict_ok = False
            success = expected_success(op.config["mode"], op.vector)
            return self._totals(
                op, EXPECTED_BRANCHES[op.config["mode"]], 1.0, success, verdict_ok
            )
        try:
            if op.kind == "json":
                doc = json.loads(out_text)
                probs = [b["probability"] for b in doc["branches"]]
                success = doc["totals"]["success_probability"]
            else:
                rows = list(csv.DictReader(io.StringIO(out_text)))
                probs = [float(r["probability"]) for r in rows]
                success = sum(
                    float(r["probability"])
                    for r in rows
                    if _is_success(r["classification"])
                )
        except (TypeError, ValueError, KeyError) as exc:
            return [f"--out file does not parse: {exc!r}"]
        return self._totals(op, len(probs), sum(probs), success, verdict_ok)


def _json_matches(report, text: str) -> list:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"emitted JSON does not parse: {exc}"]
    problems = []
    totals = doc["totals"]
    if totals["success_probability"] != report.success_probability:
        problems.append("JSON success probability differs from the report")
    if totals["conditional_j"] != list(report.conditional_j):
        problems.append("JSON conditional_j differs from the report")
    if len(doc["branches"]) != len(report.branches):
        problems.append("JSON branch count differs from the report")
        return problems
    for k, (branch, obj) in enumerate(zip(report.branches, doc["branches"])):
        if obj["probability"] != branch.probability:
            problems.append(f"JSON branch {k} probability differs from the report")
        if branch.residual is not None:
            want = {lab: [amp.real, amp.imag] for lab, amp in branch.residual.items()}
            if obj.get("residual") != want:
                problems.append(f"JSON branch {k} residual differs from the report")
    return problems


def _csv_matches(report, text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(report.branches):
        return [f"CSV has {len(rows)} rows for {len(report.branches)} branches"]
    for k, (branch, row) in enumerate(zip(report.branches, rows)):
        if float(row["probability"]) != branch.probability:
            return [f"CSV row {k} probability differs from the report"]
    return []
