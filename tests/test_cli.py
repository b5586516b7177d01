"""Tests for config loading, the ket expression grammar, report emission
and the command-line entry points."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton.protocol as protocol
from biphoton.cli import (
    KetSyntaxError,
    ParseError,
    emit_report,
    load_config,
    main,
    parse_ket,
    read_config,
)
from biphoton.measurement import parity_family
from biphoton.protocol import (
    BellOutcome,
    compare_reports,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import (
    ZERO_PROBABILITY,
    ValidationError,
    basis_ket,
    from_array,
    to_array,
)

from support import random_unit_vector

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# ket expression grammar
# ---------------------------------------------------------------------------


def test_parse_single_ket():
    np.testing.assert_allclose(parse_ket("|HH>"), [1, 0, 0, 0])
    np.testing.assert_allclose(parse_ket("|VH>"), [0, 0, 1, 0])


def test_parse_weighted_superposition():
    got = parse_ket("isqrt2*|HV> + isqrt2*|VH>")
    np.testing.assert_allclose(got, [0, 1 / SQRT2, 1 / SQRT2, 0], atol=1e-15)
    got = parse_ket("0.5*|HH> - 0.5*|HV> + 0.5*|VH> - 0.5*|VV>")
    np.testing.assert_allclose(got, [0.5, -0.5, 0.5, -0.5], atol=1e-15)


def test_parse_complex_coefficients():
    np.testing.assert_allclose(
        parse_ket("(0.5,0.5)*|HH>"), [0.5 + 0.5j, 0, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        parse_ket("(0.5-0.5i)*|VV>"), [0, 0, 0, 0.5 - 0.5j], atol=1e-15
    )
    np.testing.assert_allclose(
        parse_ket("(0,1)*|HV>"), [0, 1j, 0, 0], atol=1e-15
    )


def test_parse_leading_minus_and_whitespace():
    np.testing.assert_allclose(
        parse_ket(" -0.6*|HH> + 0.8*|VV> "), [-0.6, 0, 0, 0.8], atol=1e-15
    )


def test_parse_sums_duplicate_kets():
    np.testing.assert_allclose(parse_ket("|HH> + |HH>"), [2, 0, 0, 0])


def test_parse_scientific_notation():
    np.testing.assert_allclose(
        parse_ket("1e-3*|HH> + 0.999*|VV>"), [1e-3, 0, 0, 0.999], atol=1e-18
    )


@pytest.mark.parametrize(
    "text,offset",
    [
        ("|HH> + |XH>", 8),  # bad polarization letter
        ("", 0),  # empty expression
        ("foo", 0),  # not a term
        ("|HH>junk", 4),  # trailing garbage
        ("1.5|HH>", 3),  # missing '*'
        ("|HV", 3),  # unterminated ket
        ("0.5*", 4),  # dangling coefficient
        ("|HH> +", 6),  # dangling operator
        ("(x,1)*|HH>", 1),  # bad real part
        ("(1 2)*|HH>", 3),  # neither ',' nor a signed imaginary part
        ("(1,2*|HH>", 4),  # unclosed complex coefficient
        ("-", 1),  # sign without a term
    ],
)
def test_parse_errors_carry_byte_offsets(text, offset):
    with pytest.raises(KetSyntaxError) as err:
        parse_ket(text)
    assert err.value.offset == offset


def test_ket_syntax_error_is_parse_error():
    assert issubclass(KetSyntaxError, ParseError)


@pytest.mark.parametrize(
    "text,components",
    [
        (
            "(0.062065228929842731,0.21425782938604368)*|HH> + "
            "(-0.36850425982067214,-0.38162720207680523)*|HV>",
            [0.062065228929842731 + 0.21425782938604368j,
             -0.36850425982067214 - 0.38162720207680523j, 0, 0],
        ),
        (
            "-0.16230704281015981*|HH> - 0.052292804816244522*|HV> + "
            "0.9479082821331769*|VV>",
            [-0.16230704281015981, -0.052292804816244522, 0, 0.9479082821331769],
        ),
        (
            "-1.0000000000000001e-05*|HH> + (0,0.5)*|VH> + (-0.25,-0.5)*|VV>",
            [-1.0000000000000001e-05, 0, 0.5j, -0.25 - 0.5j],
        ),
        ("0*|HH>", [0, 0, 0, 0]),
    ],
    ids=["signed-pairs", "signed-reals", "exponent-and-pairs", "zero"],
)
def test_parse_reads_17_digit_and_signed_pair_coefficients_exactly(text, components):
    assert parse_ket(text).tolist() == components


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty ket expression (offset 0)"),
        ("-", "expected a term (offset 1)"),
        ("foo", "expected a term like '|HV>' (offset 0)"),
        ("²*|HH>", "expected a decimal coefficient (offset 0)"),
        ("1.5|HH>", "expected '*' after the coefficient (offset 3)"),
        ("(x,1)*|HH>", "expected the real part (offset 1)"),
        ("(1,x)*|HH>", "expected the imaginary part (offset 3)"),
        ("(1 2)*|HH>", "expected ',' or a signed imaginary part (offset 3)"),
        ("(1,2*|HH>", "expected ')' (offset 4)"),
        ("|HH> + |XH>", "expected a polarization label 'H' or 'V' (offset 8)"),
        ("|HV", "expected '>' (offset 3)"),
        ("|HH>junk", "expected '+' or '-' between terms (offset 4)"),
        ("|HH> +", "expected a term after the operator (offset 6)"),
    ],
)
def test_each_ket_syntax_message_in_full(text, message):
    with pytest.raises(KetSyntaxError) as err:
        parse_ket(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("٣*|HH>", "expected a decimal coefficient (offset 0)"),  # Arabic-Indic 3
        ("１*|HH>", "expected a decimal coefficient (offset 0)"),  # fullwidth 1
        ("(1,٣)*|HH>", "expected the imaginary part (offset 3)"),
        ("1e٣*|HH>", "expected '*' after the coefficient (offset 1)"),
    ],
)
def test_a_decimal_is_read_in_ascii_digits_only(text, message):
    with pytest.raises(KetSyntaxError) as err:
        parse_ket(text)
    assert str(err.value) == message


def test_the_offset_counts_characters_not_bytes(tmp_path, capsys):
    text = "　|XH>"  # an ideographic space: 1 character, 3 bytes in UTF-8
    assert len(text[:2].encode("utf-8")) == 4
    with pytest.raises(KetSyntaxError) as err:
        parse_ket(text)
    assert err.value.offset == 2
    path = write_config(tmp_path, base_config(input_state=text))
    assert main(["verify", "--config", path]) == 2
    assert "(offset 2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "(1,2)*|HH>",
        " -isqrt2 * |VH> + ( -0.5 + 2.5e-1 i )*|HV>",
        "-1.5E+3*|HV> - (+.5,-2.)*|VV> + |HH> ",
        "(1-2i)*|VV>-7e-2*|HH>",
    ],
)
def test_every_prefix_parses_or_raises_a_ket_syntax_error(text):
    parse_ket(text)
    for end in range(len(text)):
        prefix = text[:end]
        try:
            parse_ket(prefix)
        except KetSyntaxError as err:
            assert 0 <= err.offset <= len(prefix), (prefix, err.offset)


@pytest.mark.parametrize(
    "text, offset",
    [
        ("1e999*|HH>", 0),
        ("-1e999*|HH>", 1),
        ("(1,1e999)*|HH>", 3),
        ("(1+1e999i)*|HH>", 3),
        ("( - 1e999,0)*|HH>", 4),
        ("|HH> + 1.7976931348623159E+308*|VV>", 7),
        ("1e999*|HH> - 1e999*|HH> + |VV>", 0),
    ],
)
def test_a_decimal_too_large_for_a_float_is_rejected_at_its_digits(text, offset):
    with pytest.raises(ValidationError) as err:
        parse_ket(text)
    assert str(err.value) == f"number too large for a float (offset {offset})"


def test_the_largest_float_is_still_a_decimal():
    top = "1.7976931348623157e308"  # sys.float_info.max; one ulp more is inf
    assert parse_ket(f"{top}*|HH> - ({top},-{top})*|VV>").tolist() == [
        sys.float_info.max, 0, 0, complex(-sys.float_info.max, sys.float_info.max)
    ]


def test_an_overflowing_ket_decimal_exits_1_with_one_error_line(tmp_path, capsys):
    path = write_config(tmp_path, base_config(input_state="(1,1e999)*|HH>"))
    assert main(["verify", "--config", path]) == 1
    assert capsys.readouterr().err == (
        "error: number too large for a float (offset 3)\n"
    )


def test_a_sum_past_the_largest_float_is_non_finite_without_a_warning(
    tmp_path, capsys
):
    # Each term is finite; their sum is not, and it reaches load_config's
    # check with no numpy overflow warning on the way.
    text = "1e308*|HH> + 1e308*|HH>"
    assert parse_ket(text).tolist() == [complex("inf"), 0, 0, 0]
    path = write_config(tmp_path, base_config(input_state=text))
    assert main(["verify", "--config", path]) == 1
    assert capsys.readouterr().err == (
        "error: input_state has non-finite components\n"
    )


def test_an_explicit_plus_inside_a_complex_coefficient():
    want = parse_ket("(1,2)*|HH>")
    assert parse_ket("(+1,+2)*|HH>").tobytes() == want.tobytes()
    assert parse_ket("(+1+2i)*|HH>").tobytes() == want.tobytes()


ASCII_DIGITS = st.text("0123456789", min_size=1, max_size=4)
#: Decimals in every shape the grammar reads: ``5``, ``5.``, ``5.25``, ``.25``,
#: each with or without an exponent.
DECIMALS = st.builds(
    "{}{}".format,
    st.one_of(
        ASCII_DIGITS,
        st.builds("{}.{}".format, ASCII_DIGITS, st.text("0123456789", max_size=3)),
        st.builds(".{}".format, ASCII_DIGITS),
    ),
    st.sampled_from(["", "e5", "E-2", "e+03", "e-0"]),
)
SPACES = st.text(" \t\n　", max_size=2)


@st.composite
def ket_terms(draw):
    """``(text, label, amplitude)`` of one unsigned term: no coefficient, a
    decimal, ``isqrt2``, ``(re,im)`` or ``(re±imi)``, spaced where the
    grammar allows it."""

    def ws():
        return draw(SPACES)

    label = draw(st.sampled_from(["HH", "HV", "VH", "VV"]))
    form = draw(st.sampled_from(["none", "decimal", "isqrt2", "pair", "sum"]))
    if form == "none":
        return f"|{label}>", label, complex(1.0)
    if form == "decimal":
        coeff = draw(DECIMALS)
        amplitude = complex(float(coeff))
    elif form == "isqrt2":
        coeff, amplitude = "isqrt2", complex(2.0 ** -0.5)
    else:
        re_sign = draw(st.sampled_from(["", "+", "-"]))
        im_sign = draw(st.sampled_from(["+", "-"] + ([""] if form == "pair" else [])))
        re, im = draw(DECIMALS), draw(DECIMALS)
        amplitude = complex(float(re_sign + re), float(im_sign + im))
        between = f"{ws()},{ws()}" if form == "pair" else ""
        i = draw(st.sampled_from(["", "i" + ws()]))
        coeff = (
            f"({ws()}{re_sign}{ws()}{re}{ws()}{between}{im_sign}{ws()}{im}{ws()}{i})"
        )
    return f"{coeff}{ws()}*{ws()}|{label}>", label, amplitude


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.tuples(st.sampled_from("+-"), ket_terms()), min_size=1, max_size=5),
    spaces=st.lists(SPACES, min_size=11, max_size=11),
)
def test_a_generated_expression_parses_to_its_terms_sum(terms, spaces):
    text, want = spaces[0], np.zeros(4, dtype=complex)
    for k, (op, (term, label, amplitude)) in enumerate(terms):
        sign = -1.0 if op == "-" else 1.0
        if k == 0 and op == "+":
            op = ""  # the grammar takes a leading '-' but no leading '+'
        text += f"{op}{spaces[2 * k + 1]}{term}{spaces[2 * k + 2]}"
        want[["HH", "HV", "VH", "VV"].index(label)] += sign * amplitude
    assert parse_ket(text).tobytes() == want.tobytes(), text


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


EYE4 = [[int(i == k) for k in range(4)] for i in range(4)]
PARITY_TABLE = [[1, 0], [1, 0], [0, 1], [0, 1]]


def base_config(**overrides):
    cfg = {
        "input_state": "|HH>",
        "family": "parity",
        "mode": "parity5",
    }
    cfg.update(overrides)
    return cfg


def test_load_config_defaults():
    cfg = load_config(base_config())
    assert cfg.mode == "parity5"
    assert cfg.analyzer.name == "linear"
    assert cfg.tol == pytest.approx(1e-10)
    assert cfg.input_state.register == (1, 2)
    assert cfg.input_state.amplitude("HH") == 1
    assert cfg.family.n_outcomes == 2
    assert cfg.warnings == ()


def test_load_config_component_list_forms():
    cfg = load_config(
        base_config(input_state=[[0, 0], 0.6, [0, 0.8], 0], mode="general")
    )
    assert cfg.input_state.amplitude("HV") == pytest.approx(0.6)
    assert cfg.input_state.amplitude("VH") == pytest.approx(0.8j)


def test_load_config_explicit_family():
    cfg = load_config(
        {
            "input_state": "|HV>",
            "family": {
                "basis": [
                    [1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 1, 0],
                    [0, 0, 0, 1],
                ],
                "assignment": [[1, 0], [1, 0], [0, 1], [0, 1]],
            },
            "mode": "general",
            "analyzer": "ideal",
            "tol": 1e-9,
        }
    )
    assert cfg.analyzer.name == "ideal"
    assert cfg.tol == pytest.approx(1e-9)
    np.testing.assert_allclose(cfg.family.projectors[0], np.diag([1, 1, 0, 0]))


def test_load_config_normalizes_with_warning():
    cfg = load_config(base_config(input_state="|HH> + |VV>"))
    assert len(cfg.warnings) == 1
    assert "normaliz" in cfg.warnings[0]
    assert cfg.input_state.amplitude("HH") == pytest.approx(1 / SQRT2)


@pytest.mark.parametrize(
    "overrides",
    [
        {"mode": "parity3"},
        {"analyzer": "perfect"},
        {"tol": -1.0},
        {"tol": "tight"},
        {"family": "paritty"},
        {"family": {"basis": [[1, 0, 0, 0]] * 4, "assignment": [[1]] * 4}},
        {"input_state": "0*|HH>"},
        {"input_state": 7},
        {"input_state": [float("nan"), 1, 0, 0]},
        {"input_state": [1e999, 1, 0, 0]},
        {"input_state": [1, 0, 0]},
        {"input_state": "1e999*|HH>"},
        {"unexpected": True},
        {"input_state": [True, 0, 0, 0]},
        {"input_state": ["1", 0, 0, 0]},
        {"family": {"basis": EYE4, "assignment": PARITY_TABLE, "labels": []}},
        {"family": {"basis": EYE4}},
        {"family": {"basis": EYE4[:3], "assignment": PARITY_TABLE}},
        {"family": {"basis": [row[:3] for row in EYE4], "assignment": PARITY_TABLE}},
        {"family": {"basis": EYE4, "assignment": [[1]] * 3}},
    ],
)
def test_load_config_rejects_bad_values(overrides):
    with pytest.raises(ValidationError):
        load_config(base_config(**overrides))


def basis_with(entry, i=1, k=2):
    """The unit basis as ``[re, im]`` pairs, ``entry`` at row ``i``, column ``k``."""
    rows = [[[1, 0] if c == r else [0, 0] for c in range(4)] for r in range(4)]
    rows[i][k] = entry
    return rows


def general_family(basis=EYE4, assignment=PARITY_TABLE):
    return {"mode": "general", "family": {"basis": basis, "assignment": assignment}}


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param(
            general_family(basis_with([True, 0])),
            "basis[1][2]: expected a number or a [re, im] pair",
            id="bool-in-basis-pair",
        ),
        pytest.param(
            general_family(basis_with(False)),
            "basis[1][2]: expected a number, got a boolean",
            id="bool-basis-entry",
        ),
        pytest.param(
            {"input_state": [True, 0, 0, 0]},
            "input_state[0]: expected a number, got a boolean",
            id="bool-input-entry",
        ),
        pytest.param(
            general_family(basis_with(np.bool_(True))),
            "basis[1][2]: expected a number or a [re, im] pair",
            id="numpy-bool-basis-entry",
        ),
        pytest.param(
            general_family(basis_with([0, np.bool_(True)])),
            "basis[1][2]: expected a number or a [re, im] pair",
            id="numpy-bool-in-basis-pair",
        ),
        pytest.param(
            {"input_state": [np.bool_(True), 0, 0, 0]},
            "input_state[0]: expected a number or a [re, im] pair",
            id="numpy-bool-input-entry",
        ),
        pytest.param(
            general_family(basis_with("0")),
            "basis[1][2]: expected a number or a [re, im] pair",
            id="string-basis-entry",
        ),
        pytest.param(
            {"input_state": [1, "0", 0, 0]},
            "input_state[1]: expected a number or a [re, im] pair",
            id="string-input-entry",
        ),
        pytest.param(
            general_family(basis_with(10**400)),
            "basis[1][2]: number too large for a float",
            id="huge-basis-entry",
        ),
        pytest.param(
            general_family(basis_with([0, 10**400])),
            "basis[1][2]: number too large for a float",
            id="huge-basis-pair",
        ),
        pytest.param(
            {"input_state": [1, 0, 0, 10**400]},
            "input_state[3]: number too large for a float",
            id="huge-input-entry",
        ),
        pytest.param(
            {"input_state": [1, 0, 0, Fraction(10**400, 3)]},
            "input_state[3]: number too large for a float",
            id="huge-fraction-entry",
        ),
        pytest.param(
            general_family(basis_with([Fraction(10**400, 3), 0])),
            "basis[1][2]: number too large for a float",
            id="huge-fraction-pair",
        ),
        pytest.param(
            {"tol": Fraction(10**400, 3)},
            "tol must lie in (0, 1), got a number too large for a float",
            id="huge-fraction-tol",
        ),
        pytest.param(
            general_family(basis_with([0, 0, 0])),
            "basis[1][2]: expected a number or a [re, im] pair",
            id="three-number-pair",
        ),
        pytest.param(
            general_family([[1, 0, 0, 0]] * 4),
            "basis rows are not orthonormal: <row0|row1> = 1+0j deviates by 1",
            id="non-orthonormal",
        ),
        pytest.param(
            general_family(assignment="1010"),
            "assignment must have one row per basis state (4), got shape ()",
            id="string-table",
        ),
        pytest.param(
            general_family(assignment=[[1], [1, 0], [1], [1]]),
            "assignment rows must all have the same length",
            id="ragged-table",
        ),
        pytest.param(
            general_family(assignment=[[[1], [0]], [[1], [0]], [[0], [1]], [[0], [1]]]),
            "assignment must have one row per basis state (4), got shape (4, 2, 1)",
            id="rows-of-lists",
        ),
        pytest.param(
            general_family(assignment=np.eye(4, 5, dtype=int).tolist()),
            "number of outcomes must be between 1 and 4, got 5",
            id="five-columns",
        ),
    ],
)
def test_load_config_rejects_bad_values_with_its_message(overrides, message):
    for _ in range(2):  # a failure is never cached: the same message again
        with pytest.raises(ValidationError) as excinfo:
            load_config(base_config(**overrides))
        assert str(excinfo.value) == message


def test_an_assignment_nested_past_numpys_dimensions_names_its_depth(
    tmp_path, capsys
):
    table = [[1]]
    for _ in range(68):  # 70 levels of lists, past numpy's 64 dimensions
        table = [table]
    path = write_config(tmp_path, base_config(**general_family(assignment=table)))
    assert main(["verify", "--config", path]) == 1
    assert capsys.readouterr().err == (
        "error: assignment must be a 4 x J table, got lists nested 70 deep\n"
    )


def test_load_config_accepts_number_subclasses_and_tuple_pairs():
    # Not JSON types, so they take the isinstance test after the exact one.
    cfg = load_config(
        base_config(input_state=[np.float64(0.6), (0, np.float64(0.8)), 0, 0])
    )
    assert cfg.input_state.amplitude("HH") == pytest.approx(0.6)
    assert cfg.input_state.amplitude("HV") == pytest.approx(0.8j)
    family = load_config(base_config(**general_family(basis_with((0.0, 0.0))))).family
    assert family == load_config(base_config(**general_family())).family


def test_a_basis_kept_at_a_loose_tol_still_fails_a_tight_one():
    basis = basis_with([1 + 1e-8, 0], i=0, k=0)
    config = base_config(**general_family(basis), tol=1e-6)
    assert load_config(config).family is load_config(config).family
    config["tol"] = 1e-10
    for _ in range(2):
        with pytest.raises(ValidationError, match="basis rows are not orthonormal"):
            load_config(config)


def test_load_config_rejects_a_non_object():
    with pytest.raises(ValidationError, match="config must be a JSON object"):
        load_config([base_config()])


def test_load_config_requires_keys():
    with pytest.raises(ValidationError):
        load_config({"input_state": "|HH>", "mode": "general"})


def test_load_config_bad_ket_is_parse_error():
    with pytest.raises(KetSyntaxError):
        load_config(base_config(input_state="|HX>"))


def test_read_config_rejects_corrupt_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"input_state": "|HH>",,}')
    with pytest.raises(ParseError):
        read_config(str(path))


def test_read_config_missing_file():
    with pytest.raises(ParseError):
        read_config("/nonexistent/config.json")


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def parity5_report():
    beta = basis_ket((1, 2), "HH")
    return run_protocol(beta, parity_family(), mode="parity5")


def test_emit_json_structure_and_totals():
    text = emit_report(parity5_report(), "json")
    doc = json.loads(text)
    assert doc["mode"] == "parity5"
    assert doc["analyzer"] == "linear"
    assert doc["totals"]["success_probability"] == pytest.approx(0.25)
    assert doc["totals"]["inconclusive_probability"] == pytest.approx(0.75)
    assert doc["totals"]["conditional_j"] == [1.0, 0.0]
    assert len(doc["branches"]) == 20
    first = doc["branches"][0]
    assert first["bell15"] == "PsiPlus"
    assert first["bell26"] == "PsiPlus"
    assert first["register_result"] == "H"
    assert first["classification"] == "success(0)"
    assert first["probability"] == pytest.approx(1 / 16)
    assert first["corrections"] == []
    assert set(first["residual"]) == {"HH"}
    assert first["residual"]["HH"] == [1.0, 0.0]
    assert doc["input"] == {"HH": [1.0, 0.0]}
    assert doc["family"]["assignment"] == [[1, 0], [1, 0], [0, 1], [0, 1]]


def test_emit_json_zero_rows_have_no_residual():
    doc = json.loads(emit_report(parity5_report(), "json"))
    zero_rows = [b for b in doc["branches"] if b["classification"] == "zero"]
    assert len(zero_rows) == 4
    for row in zero_rows:
        assert "residual" not in row
        assert row["register_result"] == "V"
        assert row["probability"] == 0.0


def test_emit_json_corrections_recorded():
    doc = json.loads(emit_report(parity5_report(), "json"))
    corrected = [
        b
        for b in doc["branches"]
        if b["classification"] == "correctable->success(0)"
    ]
    assert len(corrected) == 3
    tables = {tuple(tuple(c) for c in b["corrections"]) for b in corrected}
    assert tables == {((4, "Z"),), ((3, "Z"),), ((3, "Z"), (4, "Z"))}


@pytest.mark.parametrize("none", [(), []])
def test_a_patched_correction_reaches_the_emitted_text(monkeypatch, none):
    for fmt in ("json", "csv"):  # a writer that kept the corrections is now warm
        emit_report(parity5_report(), fmt)
    monkeypatch.setitem(
        protocol.CORRECTIONS, (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS), none
    )
    report = parity5_report()
    doc = json.loads(emit_report(report, "json"))
    assert [
        (b["corrections"], b["classification"])
        for b in doc["branches"]
        if (b["bell15"], b["bell26"]) == ("PsiPlus", "PsiMinus")
    ] == [([], "success(0)"), ([], "zero")]
    rows = [line.split(",") for line in emit_report(report, "csv").splitlines()]
    assert [
        (row[5], row[4]) for row in rows if row[:2] == ["PsiPlus", "PsiMinus"]
    ] == [("", "success(0)"), ("", "zero")]


def test_emit_report_is_deterministic():
    a = emit_report(parity5_report(), "json")
    b = emit_report(parity5_report(), "json")
    assert a == b
    assert a.endswith("\n")
    c = emit_report(parity5_report(), "csv")
    d = emit_report(parity5_report(), "csv")
    assert c == d


def test_emit_csv_shape():
    text = emit_report(parity5_report(), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == (
        "bell15,bell26,register_result,probability,classification,"
        "corrections,residual"
    )
    assert len(lines) == 21  # header + one row per branch
    first = lines[1].split(",")
    assert first[0] == "PsiPlus"
    assert first[1] == "PsiPlus"
    assert first[2] == "H"
    assert float(first[3]) == pytest.approx(0.0625, abs=1e-12)
    assert first[4] == "success(0)"
    assert first[5] == ""
    assert first[6] == "HH:1:0"
    corrected = [ln for ln in lines[1:] if "correctable" in ln]
    assert any("3:Z;4:Z" in ln for ln in corrected)


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValidationError):
        emit_report(parity5_report(), "yaml")


def test_emit_seventeen_digit_floats():
    rng = np.random.default_rng(5)
    beta = from_array((1, 2), random_unit_vector(rng))
    report = run_protocol(beta, parity_family(), mode="general")
    doc = json.loads(emit_report(report, "json"))
    # probabilities survive the round trip exactly at 17 significant digits
    for parsed, branch in zip(doc["branches"], report.branches):
        assert parsed["probability"] == float(f"{branch.probability:.17g}")
        assert parsed["probability"] == pytest.approx(
            branch.probability, abs=1e-16
        )


# ---------------------------------------------------------------------------
# command-line entry points
# ---------------------------------------------------------------------------


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_command_json_stdout(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", path]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["totals"]["success_probability"] == pytest.approx(0.25)


def test_run_command_writes_identical_bytes(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert capsys.readouterr().out == ""


def test_run_command_csv_format(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bell15,bell26,")
    assert len(out.strip().split("\n")) == 21


def test_run_command_normalization_warning_on_stderr(tmp_path, capsys):
    path = write_config(tmp_path, base_config(input_state="|HH> + |VV>"))
    assert main(["run", "--config", path]) == 0
    captured = capsys.readouterr()
    assert "normaliz" in captured.err
    json.loads(captured.out)  # stdout stays clean JSON


@pytest.mark.parametrize(
    "components, shown",
    [([1e308, 1e308, 0, 0], "1.41421356237e+308"), ([1.7e308] * 4, "inf")],
)
def test_verify_normalizes_input_whose_squared_norm_overflows(
    tmp_path, capsys, components, shown
):
    # Finite components whose squares overflow: no RuntimeWarning (tests
    # treat warnings as errors), one warning line, and a passing run.
    path = write_config(tmp_path, base_config(input_state=components))
    assert main(["verify", "--config", path]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"warning: input state norm {shown} differs from 1; normalizing"
    ]
    cfg = load_config(base_config(input_state=components))
    unit = np.asarray(components) / 1e308
    np.testing.assert_allclose(
        to_array(cfg.input_state), unit / np.linalg.norm(unit), rtol=1e-15
    )


def test_verify_command_passes(tmp_path, capsys):
    path = write_config(tmp_path, base_config(mode="general"))
    assert main(["verify", "--config", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_passes_near_zero_parity4_input_at_small_tol(tmp_path, capsys):
    # success probability 5e-13 lies below the probability-zero rule but
    # far above tol: the total must still count it.
    config = base_config(
        mode="parity4",
        tol=1e-13,
        input_state=[[1e-6, 0], [0.9999999999995, 0], [0, 0], [0, 0]],
    )
    path = write_config(tmp_path, config)
    assert main(["verify", "--config", path]) == 0
    assert "PASS" in capsys.readouterr().out


def test_load_config_near_zero_input_follows_probability_zero_rule():
    # norm**2 below ZERO_PROBABILITY (1e-12) is rejected, just above is kept
    with pytest.raises(ValidationError, match="near-"):
        load_config(base_config(input_state=[[9e-7, 0], 0, 0, 0]))
    cfg = load_config(base_config(input_state=[[1.1e-6, 0], 0, 0, 0]))
    assert cfg.input_state.amplitude("HH") == pytest.approx(1.0)


def test_an_input_at_exactly_the_probability_zero_line_loads():
    # Only norm**2 below ZERO_PROBABILITY is rejected: 1e-6 squares to exactly
    # 1e-12, so it loads, and one ulp less does not.
    assert 1e-6 * 1e-6 == ZERO_PROBABILITY
    cfg = load_config(base_config(input_state=[1e-6, 0, 0, 0]))
    assert cfg.input_state.amplitude("HH") == 1.0
    with pytest.raises(ValidationError, match="near-"):
        load_config(base_config(input_state=[math.nextafter(1e-6, 0), 0, 0, 0]))


def test_a_norm_off_by_exactly_tol_loads_without_a_warning():
    # The warning is for a norm off by more than tol: 1.5 is off by exactly 0.5.
    cfg = load_config(base_config(input_state=[1.5, 0, 0, 0], tol=0.5))
    assert cfg.warnings == ()
    assert cfg.input_state.amplitude("HH") == 1.0
    above = math.nextafter(1.5, 2.0)
    cfg = load_config(base_config(input_state=[above, 0, 0, 0], tol=0.5))
    assert cfg.warnings == ("input state norm 1.5 differs from 1; normalizing",)


def test_basis_orthonormality_is_checked_within_the_config_tol(tmp_path, capsys):
    # A basis row off by 1e-8 agrees at tol 1e-5 and not at tol 1e-10.
    basis = np.eye(4).tolist()
    basis[0][0] = 1 + 1e-8
    family = {"basis": basis, "assignment": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    config = base_config(family=family, mode="general", tol=1e-5)
    assert load_config(config).tol == 1e-5
    assert main(["verify", "--config", write_config(tmp_path, config)]) == 0
    assert "PASS" in capsys.readouterr().out

    config["tol"] = 1e-10
    with pytest.raises(ValidationError) as excinfo:
        load_config(config)
    assert str(excinfo.value) == (
        "basis rows are not orthonormal: <row0|row0> = 1+0j deviates by 2e-08"
    )
    assert main(["run", "--config", write_config(tmp_path, config)]) == 1
    assert "orthonormal" in capsys.readouterr().err


def test_exit_code_validation_failure(tmp_path, capsys):
    bad_basis = {
        "input_state": "|HH>",
        "family": {
            "basis": [[1, 0, 0, 0]] * 4,
            "assignment": [[1, 0], [1, 0], [0, 1], [0, 1]],
        },
        "mode": "general",
    }
    path = write_config(tmp_path, bad_basis)
    assert main(["run", "--config", path]) == 1
    assert "orthonormal" in capsys.readouterr().err


def test_exit_code_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err != ""


HUGE = 10**400  # an integer JSON literal no float can hold
UNIT_BASIS = [[[1, 0] if k == i else [0, 0] for k in range(4)] for i in range(4)]


def config_bytes(**overrides):
    return json.dumps(base_config(**overrides)).encode()


@pytest.mark.parametrize(
    "raw, code",
    [
        pytest.param(config_bytes(input_state=[HUGE, 0, 0, 0]), 1, id="huge-input"),
        pytest.param(
            config_bytes(
                mode="general",
                family={"basis": [[[HUGE, 0]] + UNIT_BASIS[0][1:]] + UNIT_BASIS[1:],
                        "assignment": [[1]] * 4},
            ),
            1,
            id="huge-basis-entry",
        ),
        pytest.param(config_bytes(tol=HUGE), 1, id="huge-tol"),
        pytest.param(config_bytes(analyzer=["x"]), 1, id="list-analyzer"),
        pytest.param(
            config_bytes(
                mode="general",
                family={"basis": UNIT_BASIS, "assignment": [[1], [1, 0], [1], [1]]},
            ),
            1,
            id="ragged-assignment",
        ),
        pytest.param(
            b'{"input_state": [' + b"1" * 4301 + b', 0, 0, 0], "family": "parity", '
            b'"mode": "parity5"}',
            2,
            id="integer-over-digit-limit",
        ),
        pytest.param(
            b'{"input_state": "|HH>", "family": "parity", "mode": "parity5", '
            b'"analyzer": "\xe9"}',
            2,
            id="not-utf8",
        ),
    ],
)
def test_malformed_config_exits_with_one_error_line(tmp_path, capsys, raw, code):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert main(["verify", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_config_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: config {str(path)!r} is not valid JSON: "
        "maximum recursion depth exceeded"
    )
    assert err.count("\n") == 1, err


def test_run_out_to_unwritable_path_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "missing" / "report.json"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write report {str(out)!r}: ")
    assert captured.err.count("\n") == 1


def test_exit_code_ket_syntax_failure(tmp_path, capsys):
    path = write_config(tmp_path, base_config(input_state="|HH> + |XH>"))
    assert main(["run", "--config", path]) == 2
    assert "offset 8" in capsys.readouterr().err


def test_exit_code_oracle_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        protocol.CORRECTIONS,
        (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS),
        (),
    )
    path = write_config(
        tmp_path, base_config(input_state="0.6*|HH> + 0.8*|VV>")
    )
    assert main(["run", "--config", path]) == 3
    captured = capsys.readouterr()
    json.loads(captured.out)  # the report is still written
    assert captured.err != ""

    assert main(["verify", "--config", path]) == 3


def test_families_command(capsys):
    assert main(["families"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"]["assignment"] == [[1, 0], [1, 0], [0, 1], [0, 1]]
    assert doc["mode"] in ("parity5", "general", "parity4")
    # the skeleton itself is a valid config
    cfg = load_config(doc)
    report = run_protocol(cfg.input_state, cfg.family, cfg.mode, cfg.analyzer)
    verdict = compare_reports(
        report, oracle_report(cfg.input_state, cfg.family)
    )
    assert verdict.passed


def test_console_entry_point_subprocess(tmp_path):
    path = write_config(tmp_path, base_config())
    result = subprocess.run(
        [sys.executable, "-m", "biphoton.cli", "run", "--config", path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["totals"]["success_probability"] == pytest.approx(0.25)
