"""The protocol report is columnar: arrays carry the branch table, ``branches``
is built from them on first access, and the pipeline (run, oracle, compare,
emit) never builds a ``Branch``."""

import dataclasses
import json

import numpy as np
import pytest

import biphoton.protocol as protocol
from biphoton.cli import emit_report, main
from biphoton.measurement import family_from_assignment, parity_family
from biphoton.protocol import (
    IDEAL_ANALYZER,
    LINEAR_ANALYZER,
    MODES,
    ZERO_PROBABILITY,
    compare_reports,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import from_array

from support import random_assignment, random_orthonormal_basis, random_unit_vector

READINGS = {"general": 4, "parity5": 2, "parity4": 1}


def reports(seed=0):
    """One report per mode and analyzer, on random inputs and families."""
    rng = np.random.default_rng(seed)
    for mode in MODES:
        for analyzer in (LINEAR_ANALYZER, IDEAL_ANALYZER):
            family = parity_family()
            if mode == "general":
                family = family_from_assignment(
                    random_orthonormal_basis(rng), random_assignment(rng, 3)
                )
            beta = from_array((1, 2), random_unit_vector(rng))
            yield run_protocol(beta, family, mode, analyzer)


@pytest.mark.parametrize("report", list(reports()), ids=lambda r: r.mode)
def test_report_arrays_hold_the_branch_table(report):
    n = READINGS[report.mode]
    accepted = np.array([fix is not None for fix in report.corrections])
    assert len(report.corrections) == 16
    assert report.probabilities.shape == (16, n)
    assert report.residuals.shape == (16, n, 2, 2)
    assert len(report.j_register) == {4: 2, 2: 1, 1: 0}[n]
    for array in (report.probabilities, report.residuals):
        assert not array.flags.writeable
    # A pair that is not accepted is one branch, its probability in column 0.
    assert (report.probabilities[~accepted, 1:] == 0).all()
    assert report.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert report.success_probability == pytest.approx(
        report.probabilities[accepted].sum(), abs=1e-15
    )
    assert report.inconclusive_probability == pytest.approx(
        report.probabilities[~accepted, 0].sum(), abs=1e-15
    )


@pytest.mark.parametrize("report", list(reports(1)), ids=lambda r: r.mode)
def test_branches_are_built_once_from_the_arrays(report):
    assert "branches" not in vars(report)
    branches = report.branches
    assert report.branches is branches
    doc = json.loads(emit_report(report, "json"))
    assert len(doc["branches"]) == len(branches)
    for branch, parsed in zip(branches, doc["branches"]):
        assert parsed["probability"] == branch.probability
        assert parsed["classification"] == branch.classification
        if branch.residual is None:
            assert "residual" not in parsed
            continue
        assert not branch.residual.array.flags.writeable
        want = {lab: [a.real, a.imag] for lab, a in branch.residual.items()}
        assert parsed["residual"] == want


def test_pipeline_never_builds_branches():
    for report in reports(2):
        oracle = oracle_report(report.input_state, report.family)
        assert compare_reports(report, oracle).passed
        emit_report(report, "json")
        emit_report(report, "csv")
        assert "branches" not in vars(report)


def test_cli_runs_without_branch_records(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "input_state": [[0.5, 0.1], [0.3, -0.2], [0.0, 0.6], [0.4, 0.0]],
        "family": {
            "basis": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                      [[0, 0], [1, 0], [0, 0], [0, 0]],
                      [[0, 0], [0, 0], [0.6, 0], [0, 0.8]],
                      [[0, 0], [0, 0], [0.8, 0], [0, -0.6]]],
            "assignment": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 0]],
        },
        "mode": "general",
        "analyzer": "ideal",
    }))
    commands = [
        ["run", "--config", str(config)],
        ["run", "--config", str(config), "--format", "csv"],
        ["verify", "--config", str(config)],
    ]
    expected = []
    for argv in commands:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)

    def no_branches(*args, **kwargs):
        raise AssertionError("the pipeline built a Branch")

    monkeypatch.setattr(protocol, "Branch", no_branches)
    for argv, want in zip(commands, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == want


def test_emission_order_does_not_change_bytes():
    first, second = list(reports(3)), list(reports(3))
    for a, b in zip(first, second):
        json_first = emit_report(a, "json"), emit_report(a, "csv")
        csv_first = emit_report(b, "csv"), emit_report(b, "json")
        assert json_first == csv_first[::-1]
        # A second emission reuses the formatted numbers and matches too.
        assert emit_report(a, "json") == json_first[0]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "analyzer", [LINEAR_ANALYZER, IDEAL_ANALYZER], ids=lambda a: a.name
)
def test_rows_below_zero_probability_carry_no_state(mode, analyzer):
    # The odd weight is 9e-14: in parity5 the odd rows weigh 5.6e-15 and used
    # to hold a 0.075 amplitude, scaled by the probability floor.
    vec = np.array([1, 3e-7, 0, 0]) / np.hypot(1, 3e-7)
    beta = from_array((1, 2), vec)
    report = run_protocol(beta, parity_family(), mode, analyzer)
    zero = report.probabilities < ZERO_PROBABILITY
    for k, fix in enumerate(report.corrections):
        if fix is None:  # one branch, its probability in column 0
            zero[k] = zero[k, 0]
    assert zero.any()
    assert (report.residuals[zero] == 0).all()


def nan_at(report, k):
    """``report`` with a NaN probability in row ``k``'s column 0."""
    probabilities = report.probabilities.copy()
    probabilities[k, 0] = np.nan
    probabilities.flags.writeable = False
    return dataclasses.replace(report, probabilities=probabilities)


@pytest.mark.parametrize("accepted", [True, False], ids=["accepted", "not-accepted"])
@pytest.mark.parametrize(
    "report", list(reports(4)), ids=lambda r: f"{r.mode}-{r.analyzer.name}"
)
def test_the_view_and_the_writer_agree_on_a_nan_branch(report, accepted):
    # NaN fails every ordered comparison, so only p >= ZERO_PROBABILITY makes it
    # "zero" in both; an accepted row holds successes, any other one branch.
    k = [fix is not None for fix in report.corrections].index(accepted)
    report = nan_at(report, k)
    branches = report.branches
    doc = json.loads(emit_report(report, "json").replace(": nan,", ": NaN,"))
    rows = emit_report(report, "csv").splitlines()[1:]
    assert len(doc["branches"]) == len(rows) == len(branches)
    for branch, parsed, row in zip(branches, doc["branches"], rows):
        assert branch.classification == parsed["classification"]
        assert branch.classification == row.split(",")[4]
        assert (branch.residual is None) == ("residual" not in parsed)
    nans = [b.classification for b in branches if np.isnan(b.probability)]
    assert nans == ["zero"]
