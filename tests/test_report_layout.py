"""The report writer lays out every report exactly as the reference renderer
in ``tests/support.py`` lays out the same JSON values.

Re-rendering the parsed JSON makes these checks independent of the float
values themselves: only the layout (indent, key order, inline-or-not lists,
number text) is compared.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton import cli
from biphoton.cli import emit_report, load_config, main
from biphoton.measurement import family_from_assignment, parity_family
from biphoton.protocol import IDEAL_ANALYZER, LINEAR_ANALYZER, run_protocol
from biphoton.statevec import from_array

import support
from support import random_assignment, random_orthonormal_basis, random_unit_vector

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
GOLDEN_CONFIGS = [
    case["config"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))
]


def assert_reference_layout(report):
    text = emit_report(report, "json")
    doc = json.loads(text)
    assert text == support._render(doc) + "\n"
    csv_rows = emit_report(report, "csv").splitlines()[1:]
    assert len(csv_rows) == len(doc["branches"])
    for row, branch in zip(csv_rows, doc["branches"]):
        fields = row.split(",")
        assert fields[3] == support._fmt(branch["probability"])
        residual = branch.get("residual", {})
        assert fields[6] == ";".join(
            f"{labels}:{support._fmt(re)}:{support._fmt(im)}"
            for labels, (re, im) in residual.items()
        )


def test_golden_configs_follow_the_reference_layout():
    assert len(GOLDEN_CONFIGS) == 10
    for config in GOLDEN_CONFIGS:
        cfg = load_config(config)
        report = run_protocol(
            cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol
        )
        assert_reference_layout(report)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(("general", "parity5", "parity4")),
    st.sampled_from((LINEAR_ANALYZER, IDEAL_ANALYZER)),
    st.integers(1, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_random_reports_follow_the_reference_layout(
    mode, analyzer, n_outcomes, sparse, seed
):
    rng = np.random.default_rng(seed)
    if mode == "general":
        basis = random_orthonormal_basis(rng)
        family = family_from_assignment(basis, random_assignment(rng, n_outcomes))
    else:
        family = parity_family()
    # A basis state as input leaves exact zeros and zero-probability rows.
    vec = np.eye(4)[rng.integers(4)] if sparse else random_unit_vector(rng)
    report = run_protocol(from_array((1, 2), vec), family, mode, analyzer)
    assert_reference_layout(report)


def test_families_skeleton_follows_the_reference_layout(capsys):
    assert main(["families"]) == 0
    text = capsys.readouterr().out
    assert text == support._render(json.loads(text)) + "\n"


@pytest.mark.parametrize(
    "last, width",
    [(1234567890123.0, 99), (12345678901234.0, 100), (123456789012345.0, 101)],
)
def test_lists_print_inline_up_to_100_characters(last, width):
    values = [0.1] * 4 + [last]  # 0.1 prints as 19 characters
    texts = [cli._number(v) for v in values]
    assert len("[" + ", ".join(texts) + "]") == width
    assert cli._listing(texts, "    ") == support._render(values, 2)
    assert ("\n" in cli._listing(texts, "    ")) == (width > 100)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1.7e308)
@example(-1.7e308)
def test_float_text_matches_the_reference(x):
    assert cli._number(x) == support._fmt(x)
