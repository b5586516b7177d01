"""Command-line interface: JSON configs, ket expressions, report emission.

Subcommands:

``run --config <path> [--format json|csv] [--out <path>]``
    Execute the configured protocol, write the exhaustive branch report,
    and check it against the projector oracle.

``verify --config <path>``
    Run the same check without emitting a report.

``families``
    Print the parity preset as a config skeleton.

Exit codes: 0 = pass, 1 = validation failure, 2 = parse failure (also a
config that cannot be read or a ``--out`` report that cannot be written),
3 = the protocol run disagrees with the oracle.

Input states are given either as four components (numbers or
``[re, im]`` pairs, ordered HH, HV, VH, VV) or as a ket expression such
as ``"isqrt2*|HV> + isqrt2*|VH>"``.  Report emission is deterministic:
one writer lays out the fixed report skeleton, floats are printed with 17
significant digits and all ordering is fixed, so identical configs produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from itertools import compress

import numpy as np

from biphoton.measurement import (
    BASIS_LABELS,
    ProjectorFamily,
    parity_family,
    shared_family,
)
from biphoton.protocol import (
    IDEAL_ANALYZER,
    INPUT_PAIR,
    LINEAR_ANALYZER,
    MODES,
    AnalyzerModel,
    ProtocolReport,
    _MODE_TABLE,
    _PAIRS,
    _branch_table,
    _classification,
    compare_reports,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import (
    DEFAULT_TOL,
    ZERO_PROBABILITY,
    Ket,
    DegenerateStateError,
    ValidationError,
    _check_tol,
    _is_real,
    _ket,
    _labels,
)

__all__ = [
    "ParseError",
    "KetSyntaxError",
    "RunConfig",
    "parse_ket",
    "load_config",
    "read_config",
    "emit_report",
    "main",
]


class ParseError(ValueError):
    """Input that could not be parsed (JSON, ket expression, file)."""


class KetSyntaxError(ParseError):
    """Ket expression syntax error, carrying the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_DECIMAL = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_LABEL_INDEX = {label: i for i, label in enumerate(BASIS_LABELS)}
_ANALYZERS = {"linear": LINEAR_ANALYZER, "ideal": IDEAL_ANALYZER}


def parse_ket(text: str) -> np.ndarray:
    """Parse a ket expression into four components over (HH, HV, VH, VV).

    Grammar: signed sum of terms ``[coeff '*'] '|' pol pol '>'`` where a
    coefficient is a decimal, ``isqrt2`` (for 1/sqrt(2)), or a complex
    ``"(re,im)"`` / ``"(re+imi)"`` pair.  Duplicate kets are summed.
    Errors report the character offset (an index into ``text``) of the fault.
    """
    comps = [0j] * 4  # Python complexes: a sum that overflows gives inf silently
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    def expect(p: int, chars: str, message: str) -> int:
        """The offset after ``text[p]``, which must be one of ``chars``."""
        if p >= n or text[p] not in chars:
            raise KetSyntaxError(message, p)
        return p + 1

    def parse_decimal(p: int, what: str):
        """A decimal after an optional sign, and the offset after it."""
        sign = -1.0 if text.startswith("-", p) else 1.0
        if text.startswith(("+", "-"), p):
            p = skip_ws(p + 1)
        m = _DECIMAL.match(text, p)
        if m is None:
            raise KetSyntaxError(f"expected {what}", p)
        if math.isinf(value := float(m.group())):
            raise ValidationError(f"number too large for a float (offset {p})")
        return sign * value, m.end()

    def parse_term(p: int, sign: float) -> int:
        """Add the term at ``p < n`` to ``comps``; return the offset after it."""
        start, coeff = p, 1.0
        if text[p] == "(":
            real, p = parse_decimal(skip_ws(p + 1), "the real part")
            p = skip_ws(p)
            if not text.startswith(("+", "-"), p):  # "(re,im)", not "(re+imi)"
                p = skip_ws(expect(p, ",", "expected ',' or a signed imaginary part"))
            imag, p = parse_decimal(p, "the imaginary part")
            p = skip_ws(p)
            if text.startswith("i", p):
                p = skip_ws(p + 1)
            coeff, p = complex(real, imag), expect(p, ")", "expected ')'")
        elif text[p].isdigit() or text[p] == ".":
            coeff, p = parse_decimal(p, "a decimal coefficient")
        elif text.startswith("isqrt2", p):
            coeff, p = 2.0 ** -0.5, p + len("isqrt2")
        if p > start:  # a coefficient was read
            p = skip_ws(expect(skip_ws(p), "*", "expected '*' after the coefficient"))
        p = expect(p, "|", "expected a term like '|HV>'")
        for _ in range(2):
            p = expect(p, "HV", "expected a polarization label 'H' or 'V'")
        comps[_LABEL_INDEX[text[p - 2 : p]]] += sign * complex(coeff)
        return expect(p, ">", "expected '>'")

    p, sign, message = skip_ws(0), 1.0, "empty ket expression"
    if text.startswith("-", p):
        p, sign, message = skip_ws(p + 1), -1.0, "expected a term"
    while p < n:
        p = skip_ws(parse_term(p, sign))
        if p >= n:
            return np.array(comps)
        sign = -1.0 if text[p] == "-" else 1.0
        p = skip_ws(expect(p, "+-", "expected '+' or '-' between terms"))
        message = "expected a term after the operator"
    raise KetSyntaxError(message, p)


def _number(x):
    """Floats as reports print them: 17 significant digits, ``-0`` as ``0``.
    A float gives one text; an array gives the texts of its values in C
    order, formatted in one call."""
    flat = np.ravel(x) + 0.0  # adding +0.0 turns -0.0 into 0.0, nothing else
    texts = ("%.17g " * flat.size % tuple(flat.tolist())).split()
    return texts if np.ndim(x) else texts[0]


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


def _complex_entry(value, what: str, *at) -> complex:
    """A number or a ``[re, im]`` pair as a complex.  The entry's name,
    ``what.format(*at)``, is made only for an error."""
    if isinstance(value, (list, tuple)):
        ok = len(value) == 2 and _is_real(value[0]) and _is_real(value[1])
        parts = value
    else:
        ok, parts = _is_real(value), (value,)
    if ok:
        try:
            return complex(*parts)
        except OverflowError:
            problem = "number too large for a float"
    elif type(value) is bool:
        problem = "expected a number, got a boolean"
    else:
        problem = "expected a number or a [re, im] pair"
    raise ValidationError(f"{what.format(*at)}: {problem}")


def _input_components(value) -> np.ndarray:
    if isinstance(value, str):
        return parse_ket(value)
    if isinstance(value, (list, tuple)):
        if len(value) != 4:
            raise ValidationError(
                f"input_state needs 4 components (HH, HV, VH, VV), got {len(value)}"
            )
        return np.array(
            [_complex_entry(v, "input_state[{}]", i) for i, v in enumerate(value)]
        )
    raise ValidationError(
        "input_state must be a ket expression string or a list of 4 components"
    )


def _family_from_value(value, tol: float) -> ProjectorFamily:
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
                [_complex_entry(v, "basis[{}][{}]", i, k) for k, v in enumerate(row)]
            )
        return shared_family(np.array(rows), value["assignment"], tol)
    raise ValidationError(
        "family must be \"parity\" or an object with 'basis' and 'assignment'"
    )


def _norm(vec) -> float:
    """The 2-norm of four complex numbers, added in one order on any BLAS."""
    r0, i0, r1, i1, r2, i2, r3, i3 = [x * x for x in vec.view(float).tolist()]
    return math.sqrt(((r0 + r2) + (r1 + r3)) + ((i0 + i2) + (i1 + i3)))


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
    try:
        analyzer = _ANALYZERS[analyzer_name]
    except (KeyError, TypeError):  # TypeError: a list or object is unhashable
        raise ValidationError(
            f"unknown analyzer {analyzer_name!r}, expected 'linear' or 'ideal'"
        ) from None

    family = _family_from_value(data["family"], tol)
    vec = _input_components(data["input_state"])
    if not np.isfinite(vec).all():
        raise ValidationError("input_state has non-finite components")
    norm, scale = _norm(vec), 1.0
    if math.isinf(norm):  # squares that overflow: Python floats give inf, no warning
        scale = float(max(np.abs(vec.real).max(), np.abs(vec.imag).max()))
        vec = vec / scale
        norm = _norm(vec)
    if norm * norm < ZERO_PROBABILITY:
        raise ValidationError("input_state has (near-)zero norm")
    warnings = []
    if abs(scale * norm - 1.0) > tol:
        warnings.append(
            f"input state norm {scale * norm:.12g} differs from 1; normalizing"
        )
    ket = _ket(INPUT_PAIR, vec / norm)
    return RunConfig(ket, family, mode, analyzer, tol, tuple(warnings))


def read_config(path: str) -> RunConfig:
    """Load a config from a JSON file; unreadable or malformed -> ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ParseError(f"config {path!r} is not valid JSON: {exc}") from exc
    return load_config(data)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _listing(items, pad: str) -> str:
    """A JSON list of one-line items: inline when that fits in 100
    characters, otherwise one item per line, closed at ``pad``."""
    inline = "[" + ", ".join(items) + "]"
    if len(inline) <= 100:
        return inline
    return "[\n" + ",\n".join(f"{pad}  {item}" for item in items) + f"\n{pad}]"


def _object(cells, pad: str) -> str:
    """``(labels, re, im)`` texts as a JSON object closed at ``pad``."""
    lines = ",\n".join(f'{pad}  "{labels}": [{re}, {im}]' for labels, re, im in cells)
    return f"{{\n{lines}\n{pad}}}"


def _family_json(texts, assignment: np.ndarray) -> str:
    """The ``family`` object as a report or config skeleton prints it, from the
    texts of the basis's (re, im) parts in row order."""
    entries = [f"[{re}, {im}]" for re, im in zip(texts[0::2], texts[1::2])]
    rows = [_listing(entries[i : i + 4], "      ") for i in range(0, 16, 4)]
    basis = ",\n".join(f"      {row}" for row in rows)
    # A 4 x J table of 0/1 always fits on one line.
    assignment = json.dumps(assignment.tolist())
    return f'{{\n    "basis": [\n{basis}\n    ],\n    "assignment": {assignment}\n  }}'


_CSV_HEADER = (
    "bell15,bell26,register_result,probability,classification,"
    "corrections,residual"
)


@functools.lru_cache(maxsize=32)
def _layout(mode: str, analyzer: AnalyzerModel, corrections, live, nonzero) -> tuple:
    """The print order of a report's floats (those of its probabilities, then
    of its residuals as (re, im)) and its branches as JSON and CSV with a ``%s``
    slot for each, by all that places them: ``live`` and ``nonzero`` are the bytes
    of ``probabilities >= ZERO_PROBABILITY`` and of ``residuals != 0``."""
    n = len(_MODE_TABLE[mode][2])
    live = np.frombuffer(live, bool).reshape(16, -1)
    re = live.size + 2 * np.arange(live.size * 4).reshape(16, -1, 4)  # (k, r, kept)
    nonzero = np.frombuffer(nonzero, bool).reshape(re.shape)
    order, json_rows, csv_rows = [], [], [_CSV_HEADER]
    for k, j in _branch_table(mode, analyzer)[2]:
        at, ok = (k,) if j is None else (k, j), live[k, j or 0]
        shown = nonzero[at].reshape(-1, 4).T.ravel() & ok  # a joint state: reading last
        order.append(k * live.shape[1] + (j or 0))
        order += [i + d for i in re[at].reshape(-1, 4).T.ravel()[shown] for d in (0, 1)]
        labels = list(compress(_labels(n + 2 if j is None else 2), shown.tolist()))
        b15, b26 = (bell.value for bell in _PAIRS[k])
        reading = None if j is None else _labels(n)[j] or None
        fixes = () if j is None else corrections[k]
        kind = "inconclusive" if j is None else "correctable" if fixes else "success"
        kind = _classification(kind if ok else "zero", j)
        # At most two corrections, so the list always fits on one line.
        json_fixes = ", ".join(f'[{photon}, "{gate}"]' for photon, gate in fixes)
        cells = _object([(label, "%s", "%s") for label in labels], "      ")
        residual = f',\n      "residual": {cells}' if ok else ""
        json_rows.append(
            "    {\n"
            f'      "bell15": "{b15}",\n'
            f'      "bell26": "{b26}",\n'
            f'      "register_result": {json.dumps(reading)},\n'
            '      "probability": %s,\n'
            f'      "classification": "{kind}",\n'
            f'      "corrections": [{json_fixes}]{residual}\n'
            "    }"
        )
        csv_fixes = ";".join(f"{photon}:{gate}" for photon, gate in fixes)
        csv_cells = ";".join(f"{label}:%s:%s" for label in labels)
        csv_rows.append(
            f"{b15},{b26},{reading or ''},%s,{kind},{csv_fixes},{csv_cells}"
        )
    order = np.array(order)
    order.flags.writeable = False
    return order, {"json": ",\n".join(json_rows), "csv": "\n".join(csv_rows) + "\n"}


@functools.lru_cache(maxsize=1)
def _report_texts(report: ProtocolReport) -> tuple:
    """The texts of every number ``report`` prints, from one ``_number`` call, by
    part (input, family, branches, totals), and its templates; the last
    report's are kept for its other format."""
    probabilities, residuals = report.probabilities, report.residuals
    order, templates = _layout(
        report.mode, report.analyzer, report.corrections,
        (probabilities >= ZERO_PROBABILITY).tobytes(), (residuals != 0).tobytes(),
    )
    floats = np.concatenate([probabilities.ravel(), residuals.ravel().view(float)])
    ket = report.input_state.array[report.input_state.array != 0]
    totals = [report.success_probability, *report.conditional_j]
    totals.append(report.inconclusive_probability)
    texts = _number(np.concatenate([
        ket.view(float), report.family.basis.states.ravel().view(float),
        floats[order], totals,
    ]))
    a, b, c = 2 * ket.size, 2 * ket.size + 32, len(texts) - len(totals)
    return texts[:a], texts[a:b], tuple(texts[b:c]), texts[c:], templates


def emit_report(report: ProtocolReport, fmt: str = "json") -> str:
    """Serialize a report deterministically as JSON or CSV.

    Every number is formatted in one call per report, into texts both use.
    """
    if fmt not in ("json", "csv"):
        raise ValidationError(f"unknown report format {fmt!r}, expected json or csv")
    ket, family, numbers, totals, templates = _report_texts(report)
    branches = templates[fmt] % numbers
    if fmt == "csv":
        return branches
    labels = compress(_labels(2), report.input_state.array.ravel().tolist())
    parts = iter(ket)
    return (
        "{\n"
        f'  "mode": {json.dumps(report.mode)},\n'
        f'  "analyzer": {json.dumps(report.analyzer.name)},\n'
        f'  "input": {_object(zip(labels, parts, parts), "  ")},\n'
        f'  "family": {_family_json(family, report.family.assignment)},\n'
        f'  "branches": [\n{branches}\n  ],\n'
        '  "totals": {\n'
        f'    "success_probability": {totals[0]},\n'
        f'    "conditional_j": {_listing(totals[1:-1], "    ")},\n'
        f'    "inconclusive_probability": {totals[-1]}\n'
        "  }\n"
        "}\n"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _stderr(kind: str, *messages, code: int = 0) -> int:
    """Write each message to stderr as ``kind: message``; return ``code``."""
    for message in messages:
        print(f"{kind}: {message}", file=sys.stderr)
    return code


def _execute(cfg: RunConfig):
    _stderr("warning", *cfg.warnings)
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
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _stderr("error", f"cannot write report {args.out!r}: {exc}", code=2)
    else:
        sys.stdout.write(text)
    if not verdict.passed:
        return _stderr("mismatch", *verdict.mismatches, code=3)
    return 0


def _cmd_verify(args) -> int:
    cfg = read_config(args.config)
    _, verdict = _execute(cfg)
    if verdict.passed:
        print("PASS: protocol statistics match the projector oracle")
        return 0
    print("FAIL: protocol statistics do not match the projector oracle")
    return _stderr("mismatch", *verdict.mismatches, code=3)


def _cmd_families(args) -> int:
    texts = _number(parity_family().basis.states.ravel().view(float))
    sys.stdout.write(
        "{\n"
        '  "input_state": "isqrt2*|HH> + isqrt2*|VV>",\n'
        f'  "family": {_family_json(texts, parity_family().assignment)},\n'
        '  "mode": "parity5",\n'
        '  "analyzer": "linear",\n'
        f'  "tol": {_number(DEFAULT_TOL)}\n'
        "}\n"
    )
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
        return _stderr("error", exc, code=2)
    except (ValidationError, DegenerateStateError) as exc:
        return _stderr("error", exc, code=1)


if __name__ == "__main__":
    sys.exit(main())
