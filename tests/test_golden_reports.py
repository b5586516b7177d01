"""Golden JSON reports: a fixed config set must keep producing the same
report structure (keys, order, labels, classifications, corrections) with
every float within 1e-14 of the stored value.

Regenerate the fixture with ``PYTHONPATH=src python tests/test_golden_reports.py``
only when a report change is intended.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from biphoton.cli import emit_report, load_config
from biphoton.protocol import run_protocol

from support import random_assignment, random_orthonormal_basis, random_unit_vector

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
FLOAT_TOL = 1e-14

ISQRT2 = 2.0 ** -0.5
BELL_BASIS = [
    [0, ISQRT2, ISQRT2, 0],
    [0, ISQRT2, -ISQRT2, 0],
    [ISQRT2, 0, 0, ISQRT2],
    [ISQRT2, 0, 0, -ISQRT2],
]


def _pairs(values):
    return [[float(np.real(v)), float(np.imag(v))] for v in values]


def golden_configs():
    """The config set: all modes, both analyzers, sparse and dense inputs,
    the Bell-basis family and Haar-random families with J = 1..4."""
    rng = np.random.default_rng(20261017)

    def dense():
        return _pairs(random_unit_vector(rng))

    configs = [
        {"input_state": "isqrt2*|HH> + isqrt2*|VV>", "family": "parity",
         "mode": "parity5", "analyzer": "linear"},
        {"input_state": dense(), "family": "parity", "mode": "parity5",
         "analyzer": "ideal"},
        {"input_state": dense(), "family": "parity", "mode": "parity4",
         "analyzer": "linear"},
        {"input_state": "|HV>", "family": "parity", "mode": "parity4",
         "analyzer": "ideal"},
        {"input_state": "|HH>", "family": "parity", "mode": "general",
         "analyzer": "linear"},
        {"input_state": dense(),
         "family": {"basis": [_pairs(r) for r in BELL_BASIS],
                    "assignment": [[1, 0], [0, 1], [0, 1], [0, 1]]},
         "mode": "general", "analyzer": "ideal"},
    ]
    for j, analyzer in zip(range(1, 5), ("linear", "ideal", "linear", "ideal")):
        basis = random_orthonormal_basis(rng)
        table = random_assignment(rng, j)
        state = "isqrt2*|HV> - isqrt2*|VH>" if j == 3 else dense()
        configs.append(
            {"input_state": state,
             "family": {"basis": [_pairs(r) for r in basis],
                        "assignment": table.tolist()},
             "mode": "general", "analyzer": analyzer}
        )
    return configs


def render(config):
    cfg = load_config(config)
    report = run_protocol(cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol)
    return json.loads(emit_report(report, "json"))


def assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for index, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{index}]")
    elif isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=FLOAT_TOL), (
            f"{path}: {got!r} vs {want!r}"
        )
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


# Absent only while the fixture is being generated for the first time.
CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_fixture_covers_modes_and_analyzers():
    assert len(CASES) <= 10
    combos = {(c["config"]["mode"], c["config"]["analyzer"]) for c in CASES}
    assert combos == {
        (m, a) for m in ("general", "parity5", "parity4") for a in ("linear", "ideal")
    }
    js = {len(c["config"]["family"]["assignment"][0])
          for c in CASES if isinstance(c["config"]["family"], dict)}
    assert js == {1, 2, 3, 4}


@pytest.mark.parametrize("index", range(len(CASES)))
def test_report_matches_golden(index):
    case = CASES[index]
    assert_matches(render(case["config"]), case["report"])


if __name__ == "__main__":
    cases = [{"config": c, "report": render(c)} for c in golden_configs()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} reports to {GOLDEN}")
