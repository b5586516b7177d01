"""Tests for config loading, the ket expression grammar, report emission
and the command-line entry points."""

import json
import subprocess
import sys

import numpy as np
import pytest

import biphoton.protocol as protocol
from biphoton.cli import (
    KetSyntaxError,
    ParseError,
    emit_report,
    format_ket,
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
from biphoton.statevec import ValidationError, basis_ket

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
    ],
)
def test_parse_errors_carry_byte_offsets(text, offset):
    with pytest.raises(KetSyntaxError) as err:
        parse_ket(text)
    assert err.value.offset == offset


def test_ket_syntax_error_is_parse_error():
    assert issubclass(KetSyntaxError, ParseError)


@pytest.mark.parametrize("seed", range(10))
def test_format_parse_round_trip(seed):
    rng = np.random.default_rng(2000 + seed)
    vec = random_unit_vector(rng)
    if seed % 3 == 0:
        vec = vec.real / np.linalg.norm(vec.real)  # exercise the real form
    text = format_ket(vec)
    np.testing.assert_allclose(parse_ket(text), vec, atol=1e-12)


def test_format_ket_zero_vector():
    assert parse_ket(format_ket(np.zeros(4))).tolist() == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


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
        {"input_state": "1e999*|HH>"},
        {"unexpected": True},
    ],
)
def test_load_config_rejects_bad_values(overrides):
    with pytest.raises(ValidationError):
        load_config(base_config(**overrides))


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
    from biphoton.measurement import ket_from_vector

    beta = ket_from_vector((1, 2), random_unit_vector(rng))
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


def test_verify_command_passes(tmp_path, capsys):
    path = write_config(tmp_path, base_config(mode="general"))
    assert main(["verify", "--config", path]) == 0
    assert "PASS" in capsys.readouterr().out


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
