"""Command-line interface: JSON configs, ket expressions, report emission.

Subcommands:

``run --config <path> [--format json|csv] [--out <path>]``
    Execute the configured protocol, write the exhaustive branch report,
    and check it against the projector oracle.

``verify --config <path>``
    Run the same check without emitting a report.

``families``
    Print the parity preset as a config skeleton.

Exit codes: 0 = pass, 1 = validation failure, 2 = parse failure,
3 = the protocol run disagrees with the oracle.

Input states are given either as four components (numbers or
``[re, im]`` pairs, ordered HH, HV, VH, VV) or as a ket expression such
as ``"isqrt2*|HV> + isqrt2*|VH>"``.  Report emission is deterministic:
floats are printed with 17 significant digits and all ordering is fixed,
so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass

import numpy as np

from biphoton.measurement import (
    BASIS_LABELS,
    ProjectorFamily,
    family_from_assignment,
    ket_from_vector,
    parity_family,
)
from biphoton.protocol import (
    IDEAL_ANALYZER,
    INPUT_PAIR,
    LINEAR_ANALYZER,
    MODES,
    AnalyzerModel,
    ProtocolReport,
    _check_tol,
    compare_reports,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import (
    DEFAULT_TOL,
    Ket,
    DegenerateStateError,
    ValidationError,
    from_array,
)

__all__ = [
    "ParseError",
    "KetSyntaxError",
    "RunConfig",
    "parse_ket",
    "format_ket",
    "load_config",
    "read_config",
    "emit_report",
    "main",
]


class ParseError(ValueError):
    """Input that could not be parsed (JSON, ket expression, file)."""


class KetSyntaxError(ParseError):
    """Ket expression syntax error, carrying the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_DECIMAL = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_LABEL_INDEX = {label: i for i, label in enumerate(BASIS_LABELS)}
_ANALYZERS = {"linear": LINEAR_ANALYZER, "ideal": IDEAL_ANALYZER}


def parse_ket(text: str) -> np.ndarray:
    """Parse a ket expression into four components over (HH, HV, VH, VV).

    Grammar: signed sum of terms ``[coeff '*'] '|' pol pol '>'`` where a
    coefficient is a decimal, ``isqrt2`` (for 1/sqrt(2)), or a complex
    ``"(re,im)"`` / ``"(re+imi)"`` pair.  Duplicate kets are summed.
    Errors report the byte offset of the offending character.
    """
    comps = np.zeros(4, dtype=complex)
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def fail(message: str, p: int):
        raise KetSyntaxError(message, p)

    def parse_decimal(p: int, what: str):
        m = _DECIMAL.match(text, p)
        if m is None:
            fail(f"expected {what}", p)
        return float(m.group()), m.end()

    def parse_signed_decimal(p: int, what: str):
        sign = 1.0
        if p < n and text[p] in "+-":
            sign = -1.0 if text[p] == "-" else 1.0
            p = skip_ws(p + 1)
        value, p = parse_decimal(p, what)
        return sign * value, p

    def parse_complex(p: int):
        # at '('
        p = skip_ws(p + 1)
        re_part, p = parse_signed_decimal(p, "the real part")
        p = skip_ws(p)
        if p < n and text[p] == ",":
            p = skip_ws(p + 1)
            im_part, p = parse_signed_decimal(p, "the imaginary part")
        elif p < n and text[p] in "+-":
            im_part, p = parse_signed_decimal(p, "the imaginary part")
        else:
            fail("expected ',' or a signed imaginary part", p)
        p = skip_ws(p)
        if p < n and text[p] == "i":
            p = skip_ws(p + 1)
        if p >= n or text[p] != ")":
            fail("expected ')'", p)
        return complex(re_part, im_part), p + 1

    def parse_term(p: int, sign: float) -> int:
        coeff = complex(1.0)
        if p >= n:
            fail("expected a term", p)
        ch = text[p]
        has_coeff = False
        if ch == "(":
            coeff, p = parse_complex(p)
            has_coeff = True
        elif ch.isdigit() or ch == ".":
            value, p = parse_decimal(p, "a decimal coefficient")
            coeff = complex(value)
            has_coeff = True
        elif text.startswith("isqrt2", p):
            coeff = complex(2.0 ** -0.5)
            p += len("isqrt2")
            has_coeff = True
        if has_coeff:
            p = skip_ws(p)
            if p >= n or text[p] != "*":
                fail("expected '*' after the coefficient", p)
            p = skip_ws(p + 1)
        if p >= n or text[p] != "|":
            fail("expected a term like '|HV>'", p)
        p += 1
        labels = []
        for _ in range(2):
            if p >= n or text[p] not in "HV":
                fail("expected a polarization label 'H' or 'V'", p)
            labels.append(text[p])
            p += 1
        if p >= n or text[p] != ">":
            fail("expected '>'", p)
        comps[_LABEL_INDEX["".join(labels)]] += sign * coeff
        return p + 1

    pos = skip_ws(0)
    if pos >= n:
        fail("empty ket expression", pos)
    sign = 1.0
    if text[pos] == "-":
        sign = -1.0
        pos = skip_ws(pos + 1)
    while True:
        pos = parse_term(pos, sign)
        pos = skip_ws(pos)
        if pos >= n:
            return comps
        if text[pos] == "+":
            sign = 1.0
        elif text[pos] == "-":
            sign = -1.0
        else:
            fail("expected '+' or '-' between terms", pos)
        pos = skip_ws(pos + 1)
        if pos >= n:
            fail("expected a term after the operator", pos)


def _fmt(x: float) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0  # canonicalize -0.0
    return format(value, ".17g")


def format_ket(components) -> str:
    """Inverse of :func:`parse_ket` (up to float formatting)."""
    terms = []
    for label, amp in from_array(INPUT_PAIR, components).items():
        if amp.imag == 0.0:
            sign = "-" if amp.real < 0 else "+"
            terms.append((sign, f"{_fmt(abs(amp.real))}*|{label}>"))
        else:
            terms.append(("+", f"({_fmt(amp.real)},{_fmt(amp.imag)})*|{label}>"))
    if not terms:
        return "0*|HH>"
    first_sign, first_body = terms[0]
    pieces = [("-" if first_sign == "-" else "") + first_body]
    for sign, body in terms[1:]:
        pieces.append(f" {sign} {body}")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """A fully validated protocol configuration."""

    input_state: Ket
    family: ProjectorFamily
    mode: str
    analyzer: AnalyzerModel
    tol: float
    warnings: tuple = ()


_REQUIRED_KEYS = {"input_state", "family", "mode"}
_ALLOWED_KEYS = _REQUIRED_KEYS | {"analyzer", "tol"}


def _complex_entry(value, what: str) -> complex:
    if isinstance(value, bool):
        raise ValidationError(f"{what}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ValidationError(f"{what}: expected a number or a [re, im] pair")


def _input_components(value) -> np.ndarray:
    if isinstance(value, str):
        return parse_ket(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 4:
            raise ValidationError(
                f"input_state needs 4 components (HH, HV, VH, VV), got {len(value)}"
            )
        return np.array(
            [_complex_entry(v, f"input_state[{i}]") for i, v in enumerate(value)]
        )
    raise ValidationError(
        "input_state must be a ket expression string or a list of 4 components"
    )


def _family_from_value(value) -> ProjectorFamily:
    if value == "parity":
        return parity_family()
    if isinstance(value, dict):
        unknown = set(value) - {"basis", "assignment"}
        if unknown:
            raise ValidationError(
                f"unknown family keys: {', '.join(sorted(unknown))}"
            )
        if "basis" not in value or "assignment" not in value:
            raise ValidationError("family needs both 'basis' and 'assignment'")
        basis = value["basis"]
        if not (isinstance(basis, list) and len(basis) == 4):
            raise ValidationError("family basis must be a list of 4 rows")
        rows = []
        for i, row in enumerate(basis):
            if not (isinstance(row, list) and len(row) == 4):
                raise ValidationError(f"family basis row {i} must have 4 entries")
            rows.append(
                [_complex_entry(v, f"basis[{i}][{k}]") for k, v in enumerate(row)]
            )
        return family_from_assignment(np.array(rows), value["assignment"])
    raise ValidationError(
        "family must be \"parity\" or an object with 'basis' and 'assignment'"
    )


def load_config(data) -> RunConfig:
    """Validate a decoded JSON config and build the protocol inputs."""
    if not isinstance(data, dict):
        raise ValidationError("config must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ValidationError(f"missing config keys: {', '.join(sorted(missing))}")

    tol = _check_tol(data.get("tol", DEFAULT_TOL))

    mode = data["mode"]
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")

    analyzer_name = data.get("analyzer", "linear")
    if analyzer_name not in _ANALYZERS:
        raise ValidationError(
            f"unknown analyzer {analyzer_name!r}, expected 'linear' or 'ideal'"
        )

    family = _family_from_value(data["family"])
    vec = _input_components(data["input_state"])
    if not np.isfinite(vec).all():
        raise ValidationError("input_state has non-finite components")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-6:
        raise ValidationError("input_state has (near-)zero norm")
    warnings = []
    if abs(norm - 1.0) > tol:
        warnings.append(
            f"input state norm {norm:.12g} differs from 1; normalizing"
        )
    ket = ket_from_vector(INPUT_PAIR, vec / norm)
    return RunConfig(
        input_state=ket,
        family=family,
        mode=mode,
        analyzer=_ANALYZERS[analyzer_name],
        tol=tol,
        warnings=tuple(warnings),
    )


def read_config(path: str) -> RunConfig:
    """Load a config from a JSON file; unreadable or malformed -> ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path!r} is not valid JSON: {exc}") from exc
    return load_config(data)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _json_scalar(value) -> str | None:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _render(value, indent: int = 0) -> str:
    scalar = _json_scalar(value)
    if scalar is not None:
        return scalar
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(key))}: {_render(val, indent + 1)}"
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if not any(isinstance(item, dict) for item in items):
            inline = "[" + ", ".join(_render(item, 0) for item in items) + "]"
            if len(inline) <= 100:
                return inline
        rendered = [f"{pad}  {_render(item, indent + 1)}" for item in items]
        return "[\n" + ",\n".join(rendered) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _pair(amp: complex):
    return [float(amp.real), float(amp.imag)]


def _components_object(ket: Ket) -> dict:
    return {labels: _pair(amp) for labels, amp in ket.items()}


def _branch_object(branch) -> dict:
    obj = {
        "bell15": branch.bell15.value,
        "bell26": branch.bell26.value,
        "register_result": branch.register_result,
        "probability": float(branch.probability),
        "classification": branch.classification,
        "corrections": [[photon, gate] for photon, gate in branch.corrections],
    }
    if branch.residual is not None:
        obj["residual"] = _components_object(branch.residual)
    return obj


def report_document(report: ProtocolReport) -> dict:
    """The report as a JSON-ready document with fixed key order."""
    return {
        "mode": report.mode,
        "analyzer": report.analyzer.name,
        "input": _components_object(report.input_state),
        "family": {
            "basis": [
                [_pair(complex(c)) for c in row]
                for row in report.family.basis.states
            ],
            "assignment": [
                [int(x) for x in row] for row in report.family.assignment
            ],
        },
        "branches": [_branch_object(b) for b in report.branches],
        "totals": {
            "success_probability": float(report.success_probability),
            "conditional_j": [float(c) for c in report.conditional_j],
            "inconclusive_probability": float(report.inconclusive_probability),
        },
    }


_CSV_HEADER = (
    "bell15,bell26,register_result,probability,classification,"
    "corrections,residual"
)


def _csv_rows(report: ProtocolReport) -> str:
    lines = [_CSV_HEADER]
    for branch in report.branches:
        corrections = ";".join(f"{p}:{g}" for p, g in branch.corrections)
        if branch.residual is not None:
            residual = ";".join(
                f"{labels}:{_fmt(amp.real)}:{_fmt(amp.imag)}"
                for labels, amp in branch.residual.items()
            )
        else:
            residual = ""
        lines.append(
            ",".join(
                [
                    branch.bell15.value,
                    branch.bell26.value,
                    branch.register_result or "",
                    _fmt(branch.probability),
                    branch.classification,
                    corrections,
                    residual,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(report: ProtocolReport, fmt: str = "json") -> str:
    """Serialize a report deterministically as JSON or CSV."""
    if fmt == "json":
        return _render(report_document(report)) + "\n"
    if fmt == "csv":
        return _csv_rows(report)
    raise ValidationError(f"unknown report format {fmt!r}, expected json or csv")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _execute(cfg: RunConfig):
    for message in cfg.warnings:
        print(f"warning: {message}", file=sys.stderr)
    report = run_protocol(
        cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol
    )
    oracle = oracle_report(cfg.input_state, cfg.family, cfg.tol)
    verdict = compare_reports(report, oracle, cfg.tol)
    return report, verdict


def _cmd_run(args) -> int:
    cfg = read_config(args.config)
    report, verdict = _execute(cfg)
    text = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if not verdict.passed:
        for mismatch in verdict.mismatches:
            print(f"mismatch: {mismatch}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    cfg = read_config(args.config)
    _, verdict = _execute(cfg)
    if verdict.passed:
        print("PASS: protocol statistics match the projector oracle")
        return 0
    print("FAIL: protocol statistics do not match the projector oracle")
    for mismatch in verdict.mismatches:
        print(f"mismatch: {mismatch}", file=sys.stderr)
    return 3


def _cmd_families(args) -> int:
    fam = parity_family()
    doc = {
        "input_state": "isqrt2*|HH> + isqrt2*|VV>",
        "family": {
            "basis": [
                [_pair(complex(c)) for c in row] for row in fam.basis.states
            ],
            "assignment": [[int(x) for x in row] for row in fam.assignment],
        },
        "mode": "parity5",
        "analyzer": "linear",
        "tol": DEFAULT_TOL,
    }
    sys.stdout.write(_render(doc) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description=(
            "Simulate projective two-photon polarization measurements by "
            "exhaustive Bell-outcome enumeration and check every reported "
            "probability and state against a projector-algebra oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the protocol and emit a report")
    run_parser.add_argument("--config", required=True, help="JSON config path")
    run_parser.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default: json)",
    )
    run_parser.add_argument("--out", help="write the report here instead of stdout")
    run_parser.set_defaults(func=_cmd_run)

    verify_parser = sub.add_parser(
        "verify", help="run the oracle check without emitting a report"
    )
    verify_parser.add_argument("--config", required=True, help="JSON config path")
    verify_parser.set_defaults(func=_cmd_verify)

    families_parser = sub.add_parser(
        "families", help="print the parity preset as a config skeleton"
    )
    families_parser.set_defaults(func=_cmd_families)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DegenerateStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
