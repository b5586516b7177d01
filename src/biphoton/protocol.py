"""Bell analysis, exhaustive branch enumeration and the measurement oracle.

The simulated protocol joins an input photon pair (photons 1, 2) with an
auxiliary resource and performs Bell measurements on the photon pairs
(1, 5) and (2, 6).  Projecting both pairs onto PsiPlus teleports the
projected input onto the kept photons (3, 4), entangled with the outcome
register.  Other Bell outcomes teleport a Pauli-rotated copy instead; for
the polarization-parity measurement the Z-type rotations commute with the
projectors, so PsiMinus outcomes are recovered by local phase flips on
the kept photons:

    (PsiPlus,  PsiMinus) -> Z on photon 4
    (PsiMinus, PsiPlus ) -> Z on photon 3
    (PsiMinus, PsiMinus) -> Z on photons 3 and 4

PhiPlus/PhiMinus outcomes would need polarization flips, which neither
the linear-optics analyzer can distinguish nor a phase correction can
undo, so they are reported as inconclusive.  ``run_protocol`` reads every
residual off one transfer tensor, ``T[b15, b26, r]`` contracted with
``beta`` by ``statevec.complex_product`` and corrected by sign masks, so
the reported probabilities are exhaustive and sum to one;
``oracle_report`` computes the target measurement statistics directly
from the projectors and ``compare_reports`` checks the two against each
other.

``T`` depends on the family and register alone, so its one compiler,
``_built_transfer``, an ``lru_cache`` of 32, builds every mode's on first use,
read-only, keyed by the family (a value; the parity modes always use
``parity_family()``), the register photons and the ``conjugate_partner`` found
at call time.  So a patched partner reaches the next run, and a patched
``_BELL_PAIR_BRAS`` every run once that cache is cleared.  ``_branch_table``
caches each (mode, analyzer)'s positions; ``CORRECTIONS`` is read every call.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from biphoton import auxprep
from biphoton.auxprep import KEPT_PAIR
from biphoton.measurement import ProjectorFamily, parity_family
from biphoton.statevec import (
    DEFAULT_TOL,
    ZERO_PROBABILITY,
    Ket,
    ValidationError,
    _check_tol,
    _labels,
    _phase_match,
    _prune,
    basis_ket,
    complex_product,
    norm,
    superpose,
    to_array,
)

__all__ = [
    "INPUT_PAIR",
    "ZERO_PROBABILITY",
    "BELL_ORDER",
    "MODES",
    "CORRECTIONS",
    "BellOutcome",
    "AnalyzerModel",
    "LINEAR_ANALYZER",
    "IDEAL_ANALYZER",
    "Branch",
    "ProtocolReport",
    "OracleStatistics",
    "Verdict",
    "bell_ket",
    "corrections_for",
    "run_protocol",
    "oracle_report",
    "compare_reports",
]

INPUT_PAIR = (1, 2)


class BellOutcome(enum.Enum):
    """The four Bell states of a photon pair."""

    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"
    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"


BELL_ORDER = tuple(BellOutcome)

_BELL_COMPONENTS = {
    BellOutcome.PSI_PLUS: (("HV", 1.0), ("VH", 1.0)),
    BellOutcome.PSI_MINUS: (("HV", 1.0), ("VH", -1.0)),
    BellOutcome.PHI_PLUS: (("HH", 1.0), ("VV", 1.0)),
    BellOutcome.PHI_MINUS: (("HH", 1.0), ("VV", -1.0)),
}


def bell_ket(kind: BellOutcome, pair) -> Ket:
    """The Bell state ``kind`` on two distinct photons."""
    amp = 2.0 ** -0.5
    return superpose(
        [
            (sign * amp, basis_ket(pair, labels))
            for labels, sign in _BELL_COMPONENTS[kind]
        ]
    )


#: ``<b15| (x) <b26|`` on the partner photons (5, 6), shape (64, 4): rows are
#: (photon 1, photon 2, b15, b26), so the input photons stay open.
_BELL_BRAS = np.stack([bell_ket(b, (1, 5)).array.conj() for b in BELL_ORDER], 1)
_BELL_PAIR_BRAS = complex_product(  # a sum of one term: (1, 2, b15, b26, 5, 6)
    _BELL_BRAS.reshape(2, 1, 4, 1, 2, 1, 1), _BELL_BRAS.reshape(1, 2, 1, 4, 1, 2, 1)
).reshape(64, 4)

#: Bell pairs (outcome on (1,5), outcome on (2,6)) in report order.
_PAIRS = tuple(itertools.product(BELL_ORDER, repeat=2))


@dataclass(frozen=True)
class AnalyzerModel:
    """Which Bell outcomes the analyzer resolves individually."""

    name: str
    distinguishable: frozenset

    def __post_init__(self):  # any iterable; frozen, so _branch_table can cache
        members = frozenset(self.distinguishable)
        bad = sorted(repr(m) for m in members if not isinstance(m, BellOutcome))
        if bad:
            raise ValidationError(
                f"analyzer {self.name!r} outcomes must be BellOutcome members, "
                f"got {', '.join(bad)}"
            )
        object.__setattr__(self, "distinguishable", members)


#: Linear-optics analyzer: only the two Psi states produce distinct
#: coincidence signatures.
LINEAR_ANALYZER = AnalyzerModel("linear", frozenset(BELL_ORDER[:2]))

#: Hypothetical analyzer resolving all four Bell states.
IDEAL_ANALYZER = AnalyzerModel("ideal", frozenset(BELL_ORDER))


#: Each mode's accepted Bell pairs, the weight ``w = c**2`` each carries per unit
#: of oracle probability (its block of ``T`` is a Pauli-rotated ``c * P_j``), its
#: register photons and the family its ``T`` is built from (None: the run's own).
_PSI_PAIRS = tuple(itertools.product(BELL_ORDER[:2], repeat=2))
_MODE_TABLE = {
    "general": (_PSI_PAIRS[:1], 1 / 16, auxprep.J_REGISTER_TWO, None),
    "parity5": (_PSI_PAIRS, 1 / 16, auxprep.J_REGISTER_ONE, parity_family()),
    "parity4": (_PSI_PAIRS, 1 / 8, (), parity_family()),
}
MODES = tuple(_MODE_TABLE)


@functools.cache
def _branch_table(mode: str, analyzer: AnalyzerModel) -> tuple:
    """Where a (mode, analyzer) report's branches sit, positions only: the
    ``_PAIRS`` rows of the mode's pairs the analyzer resolves and their (16, 1)
    mask, every branch in report order as ``(k, j)`` (``j`` None where pair
    ``k`` is one branch), and each branch of those rows as ``(index, k, j)``."""
    pairs, resolved = _MODE_TABLE[mode][0], analyzer.distinguishable
    rows = tuple(k for k, p in enumerate(_PAIRS) if p in pairs and set(p) <= resolved)
    mask = np.isin(np.arange(16), rows)[:, None]
    mask.flags.writeable = False
    js = range(2 ** len(_MODE_TABLE[mode][2]))  # one per register reading
    branches = tuple((k, j) for k in range(16) for j in (js if k in rows else [None]))
    cells = tuple((i, k, j) for i, (k, j) in enumerate(branches) if j is not None)
    return rows, mask, branches, cells


@functools.lru_cache(maxsize=32)
def _built_transfer(family: ProjectorFamily, j_register: tuple, partner) -> np.ndarray:
    """The one compiler of ``T`` from ``family``'s resource on ``j_register``:
    ``T[b15, b26, r]`` contracted with ``beta`` is the unnormalized kept-pair
    residual of Bell outcomes ``b15`` on (1, 5), ``b26`` on (2, 6) (BELL_ORDER
    indices) and reading ``r``; read-only, shape (4, 4, R, 4, 4).  ``partner``,
    the rule ``auxprep`` looks up at call time, is only part of the key."""
    resource = auxprep._resource_amplitudes(family, j_register)  # (kept, partners, r)
    # Each bra row has one nonzero entry: one rounded product.
    columns = resource.transpose(2, 0, 1).reshape(-1, 4)  # (r, kept) by partners
    t = complex_product(_BELL_PAIR_BRAS[:, None], columns)
    t.flags.writeable = False  # and so every view of it
    return t.reshape(4, 4, 4, -1, 4).transpose(1, 2, 3, 4, 0)  # the input axis last


#: Z = diag(1, -1), so a (photon, "Z") correction is a +-1 mask on that
#: photon's axis of the kept pair (3, 4).
_SIGN_MASKS = {(3, "Z"): np.array([[1.0], [-1.0]]), (4, "Z"): np.array([[1.0, -1.0]])}
_FIRST = np.arange(4) == 0  # the reading that holds an unaccepted pair's total

#: Local corrections mapping each accepted Bell pair onto the
#: (PsiPlus, PsiPlus) reference channel.  Keys are (outcome on photons
#: (1,5), outcome on photons (2,6)); values are (photon, gate) lists.
CORRECTIONS = {
    (BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS): (),
    (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS): ((4, "Z"),),
    (BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS): ((3, "Z"),),
    (BellOutcome.PSI_MINUS, BellOutcome.PSI_MINUS): ((3, "Z"), (4, "Z")),
}


def corrections_for(pair) -> tuple:
    """Correction list for an accepted Bell pair; error for Phi outcomes."""
    try:
        return CORRECTIONS[tuple(pair)]
    except KeyError:
        names = ", ".join(k.value for k in pair)
        raise ValidationError(
            f"no local phase correction exists for Bell pair ({names})"
        ) from None


@dataclass(frozen=True)
class Branch:
    """One exhaustively enumerated measurement outcome."""

    bell15: BellOutcome
    bell26: BellOutcome
    register_result: str | None
    probability: float
    corrections: tuple
    kind: str  # "success" | "correctable" | "inconclusive" | "zero"
    j: int | None = None
    residual: Ket | None = None

    @property
    def is_success(self) -> bool:
        return self.kind in ("success", "correctable")

    @property
    def classification(self) -> str:
        return _classification(self.kind, self.j)


def _classification(kind: str, j: int | None) -> str:
    """A branch's classification as reports print it."""
    if kind == "success":
        return f"success({j})"
    if kind == "correctable":
        return f"correctable->success({j})"
    return kind


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    """Branch table and probability totals of one protocol run, as arrays.

    Row ``k`` is Bell pair ``_PAIRS[k]``, column ``r`` register reading ``r``.
    An accepted pair is one branch per reading, its residual ``residuals[k,
    r]``.  Any other pair is one branch: its probability sits in column 0 (the
    rest hold 0) and its residuals, read across the readings, are one state
    over the kept and register photons.  Arrays are read-only; residuals are
    pruned, and unit where the branch probability reaches ``ZERO_PROBABILITY``.
    """

    mode: str
    analyzer: AnalyzerModel
    input_state: Ket
    family: ProjectorFamily
    j_register: tuple[int, ...]
    corrections: tuple  # per pair: its correction list, None if not accepted
    probabilities: np.ndarray  # (16, R)
    residuals: np.ndarray  # (16, R, 2, 2): the kept pair per reading
    success_probability: float
    conditional_j: tuple
    inconclusive_probability: float

    @functools.cached_property
    def branches(self) -> tuple:
        """The table as ``Branch`` records, built off the arrays on first access."""
        readings = _labels(len(self.j_register))
        register = KEPT_PAIR + self.j_register
        # Views of each pair's residuals as one state, the reading axis last.
        joint = (16,) + (2,) * len(register)
        joint_states = self.residuals.transpose(0, 2, 3, 1).reshape(joint)
        probabilities = self.probabilities.tolist()
        rows = []
        for k, j in _branch_table(self.mode, self.analyzer)[2]:
            b15, b26 = _PAIRS[k]
            if j is None:  # one branch, its probability in column 0
                p, reading, fix, kind = probabilities[k][0], None, (), "inconclusive"
            else:
                p, fix = probabilities[k][j], self.corrections[k]
                reading, kind = readings[j] or None, "correctable" if fix else "success"
            if p < ZERO_PROBABILITY:
                rows.append(Branch(b15, b26, reading, p, fix, "zero"))
                continue
            state = joint_states[k] if j is None else self.residuals[k, j]
            residual = Ket(register[: state.ndim], state)
            rows.append(Branch(b15, b26, reading, p, fix, kind, j, residual))
        return tuple(rows)


@dataclass(frozen=True)
class OracleStatistics:
    """Measurement statistics computed directly from the projectors.

    ``states[j]`` is the normalized post-measurement state on the kept
    photon pair, or None when the outcome probability (effectively)
    vanishes.
    """

    probabilities: tuple
    states: tuple


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking a protocol run against the oracle."""

    passed: bool
    mismatches: tuple


def _is_parity(family: ProjectorFamily, preset: ProjectorFamily, tol: float) -> bool:
    return family.n_outcomes == 2 and bool(
        np.abs(family.projectors - preset.projectors).max() <= tol
    )


def _check_type(value, kind: type, expected: str) -> None:
    if not isinstance(value, kind):
        raise ValidationError(f"{expected}, got {value!r}")


def _validate_input(input_state: Ket, family: ProjectorFamily, tol: float) -> None:
    _check_tol(tol)
    _check_type(input_state, Ket, "input_state must be a Ket")
    _check_type(family, ProjectorFamily, "family must be a ProjectorFamily")
    if input_state.register != INPUT_PAIR:
        raise ValidationError(
            f"input must live on photons {INPUT_PAIR}, got {input_state.register}"
        )
    n = norm(input_state)
    if abs(n - 1.0) > tol:
        raise ValidationError(
            f"input state must be normalized (norm deviates by {abs(n - 1.0):.3g})"
        )


def run_protocol(
    input_state: Ket,
    family: ProjectorFamily,
    mode: str = "general",
    analyzer: AnalyzerModel = LINEAR_ANALYZER,
    tol: float = DEFAULT_TOL,
) -> ProtocolReport:
    """Enumerate every Bell/register outcome of one protocol execution.

    Branches appear in a fixed order: the (1,5) Bell outcome is the
    major index and the (2,6) outcome the minor one, each running
    through (PsiPlus, PsiMinus, PhiPlus, PhiMinus); an accepted pair
    then splits into one row per outcome-register reading (H before V).
    Probabilities are exhaustive: over any input they sum to one.
    """
    _validate_input(input_state, family, tol)
    expected = "analyzer must be an AnalyzerModel such as LINEAR_ANALYZER"
    _check_type(analyzer, AnalyzerModel, expected)
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    _, _, j_register, preset = _MODE_TABLE[mode]
    if not (preset is None or family is preset or _is_parity(family, preset, tol)):
        raise ValidationError(f"mode {mode!r} requires the parity projector family")
    t = _built_transfer(preset or family, j_register, auxprep.conjugate_partner)

    # (16, R, 4): pair, reading, kept pair; each weight sums |r|**2 in index order.
    residuals = complex_product(t, to_array(input_state)).reshape(16, -1, 4)
    weights = complex_product(residuals, residuals.conj()).real
    rows, accepted, branches, _ = _branch_table(mode, analyzer)
    fixes, signs = [None] * 16, np.ones((16, 1, 2, 2))
    for k in rows:  # CORRECTIONS is read on every call
        fixes[k] = tuple(corrections_for(_PAIRS[k]))
        for correction in fixes[k]:
            signs[k] *= _SIGN_MASKS[correction]
    # An accepted pair splits into one unit residual per reading; any other
    # pair is one joint state over kept and register photons, scaled by its total.
    totals = weights.sum(axis=1, keepdims=True)
    # A row below ZERO_PROBABILITY carries no state, so its residual is zero.
    branch_weights = np.where(accepted, weights, totals)[..., None]
    live = branch_weights >= ZERO_PROBABILITY
    scale = np.sqrt(np.where(live, branch_weights, 1.0))
    units = np.where(live, residuals * signs.reshape(16, 1, 4) / scale, 0)
    probabilities = np.where(accepted, weights, totals * _FIRST[: weights.shape[1]])
    probabilities.flags.writeable = False

    # Totals add every row in branch order, readings j >= J (weight 0) included.
    per_outcome = [0.0] * max(family.n_outcomes, probabilities.shape[1])
    inconclusive_probability = 0.0
    values = probabilities.tolist()
    for k, j in branches:
        if j is None:
            inconclusive_probability += values[k][0]
        else:
            per_outcome[j] += values[k][j]
    # Strictly left to right: from Python 3.12 the builtin sum compensates.
    success_probability = functools.reduce(operator.add, per_outcome)
    conditional = [0.0] * family.n_outcomes
    if success_probability >= ZERO_PROBABILITY:
        conditional = [p / success_probability for p in per_outcome[: len(conditional)]]
    return ProtocolReport(
        mode=mode,
        analyzer=analyzer,
        input_state=input_state,
        family=family,
        j_register=j_register,
        corrections=tuple(fixes),
        probabilities=probabilities,
        residuals=_prune(units).reshape(16, -1, 2, 2),
        success_probability=success_probability,
        conditional_j=tuple(conditional),
        inconclusive_probability=inconclusive_probability,
    )


def oracle_report(
    input_state: Ket, family: ProjectorFamily, tol: float = DEFAULT_TOL
) -> OracleStatistics:
    """Target statistics straight from the projectors, no protocol involved.

    Post-measurement states are placed on the kept photon pair so they
    can be compared directly with teleported residuals.
    """
    _validate_input(input_state, family, tol)
    images = complex_product(family.projectors, to_array(input_state))
    probabilities = complex_product(images, images.conj()).real
    live = probabilities >= ZERO_PROBABILITY
    units = _prune(images / np.sqrt(np.where(live, probabilities, 1.0))[:, None])
    states = [
        Ket(KEPT_PAIR, unit.reshape(2, 2)) if ok else None
        for unit, ok in zip(units, live.tolist())
    ]
    return OracleStatistics(tuple(probabilities.tolist()), tuple(states))


def compare_reports(
    report: ProtocolReport, oracle: OracleStatistics, tol: float = DEFAULT_TOL
) -> Verdict:
    """Check a protocol run against the oracle, by one rule for every mode.

    Each accepted pair weighs ``w * p_j`` on each outcome ``j`` the register
    shows: the run must succeed with ``w * len(accepted) * sum(p_j)``, with the
    ``p_j`` renormalized (if both successes reach ``ZERO_PROBABILITY``), and
    each success residual must match the oracle's state up to global phase.
    The branch probabilities must sum to one.
    """
    _check_tol(tol)
    mismatches = []
    shown = oracle.probabilities[: report.probabilities.shape[1]]
    shown_total = functools.reduce(operator.add, shown)
    weight = _MODE_TABLE[report.mode][1]
    rows, _, _, cells = _branch_table(report.mode, report.analyzer)
    got = report.success_probability
    want = weight * len(rows) * shown_total
    if abs(got - want) > tol:
        mismatches.append(f"success probability {got:.12g} vs oracle {want:.12g}")
    if min(got, want) >= ZERO_PROBABILITY:
        wanted = [p / shown_total for p in shown] + [0.0] * len(report.conditional_j)
        for j, (got, want) in enumerate(zip(report.conditional_j, wanted)):
            if abs(got - want) > tol:
                mismatches.append(
                    f"conditional probability of outcome {j}: "
                    f"report {got:.12g} vs oracle {want:.12g}"
                )

    probabilities = report.probabilities.tolist()
    # Every branch in report order: the zeros beside a pair's total add nothing.
    total = functools.reduce(operator.add, itertools.chain(*probabilities))
    if abs(total - 1.0) > tol:
        mismatches.append(f"probabilities sum to {total:.12g}, not 1")
    states = [None if s is None else s.array.ravel().tolist() for s in oracle.states]
    for index, k, j in cells:  # only accepted rows hold successes
        if probabilities[k][j] < ZERO_PROBABILITY:
            continue
        target = states[j] if j < len(states) else None
        if target is None:
            mismatches.append(
                f"branch {index} succeeds with outcome {j}, "
                "which the oracle rules out"
            )
        elif not _phase_match(report.residuals[k, j].ravel().tolist(), target, tol):
            b15, b26 = _PAIRS[k]
            mismatches.append(
                f"branch {index} ({b15.value}, {b26.value}"
                f", outcome {j}): residual differs from the projected "
                "input beyond global phase"
            )
    return Verdict(not mismatches, tuple(mismatches))
