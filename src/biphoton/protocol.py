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
branch residual off one transfer tensor as ``T[b15, b26, r] @ beta``, so
the reported probabilities are exhaustive and must sum to one;
``oracle_report`` computes the target measurement statistics directly
from the projectors and ``compare_reports`` checks the two against each
other.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from biphoton import auxprep
from biphoton.auxprep import KEPT_PAIR
from biphoton.measurement import ProjectorFamily, ket_from_vector, two_photon_vector
from biphoton.statevec import (
    DEFAULT_TOL,
    POLARIZATIONS,
    Ket,
    ValidationError,
    apply_one_photon,
    basis_ket,
    from_array,
    norm,
    normalize,
    phase_equal,
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
    "apply_corrections",
    "run_protocol",
    "oracle_report",
    "compare_reports",
]

INPUT_PAIR = (1, 2)

#: Branches below this probability are reported but carry no state.
ZERO_PROBABILITY = 1e-12

MODES = ("general", "parity5", "parity4")


class BellOutcome(enum.Enum):
    """The four Bell states of a photon pair."""

    PSI_PLUS = "PsiPlus"
    PSI_MINUS = "PsiMinus"
    PHI_PLUS = "PhiPlus"
    PHI_MINUS = "PhiMinus"


BELL_ORDER = (
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
)

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


#: Bell kets as rows over (HH, HV, VH, VV), in BELL_ORDER.
_BELL_KETS = np.array([to_array(bell_ket(kind, (1, 5))) for kind in BELL_ORDER])


@dataclass(frozen=True)
class AnalyzerModel:
    """Which Bell outcomes the analyzer resolves individually."""

    name: str
    distinguishable: frozenset


#: Linear-optics analyzer: only the two Psi states produce distinct
#: coincidence signatures.
LINEAR_ANALYZER = AnalyzerModel(
    "linear", frozenset({BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS})
)

#: Hypothetical analyzer resolving all four Bell states.
IDEAL_ANALYZER = AnalyzerModel("ideal", frozenset(BELL_ORDER))

_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_GATES = {"Z": _Z}

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


def apply_corrections(pair, residual: Ket) -> Ket:
    """Apply the pair's phase corrections to a teleported residual."""
    corrected = residual
    for photon, gate in corrections_for(pair):
        corrected = apply_one_photon(_GATES[gate], photon, corrected)
    return corrected


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
        if self.kind == "success":
            return f"success({self.j})"
        if self.kind == "correctable":
            return f"correctable->success({self.j})"
        return self.kind


@dataclass(frozen=True)
class ProtocolReport:
    """Full branch table and probability totals of one protocol run."""

    mode: str
    analyzer: AnalyzerModel
    input_state: Ket
    family: ProjectorFamily
    branches: tuple
    success_probability: float
    conditional_j: tuple
    inconclusive_probability: float


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


_PARITY_PROJECTORS = (
    np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex),
    np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex),
)


def _is_parity(family: ProjectorFamily) -> bool:
    return family.n_outcomes == 2 and all(
        np.allclose(family.projectors[j], _PARITY_PROJECTORS[j], atol=1e-10)
        for j in range(2)
    )


def _check_tol(tol) -> float:
    """A comparison tolerance must be a real number in (0, 1)."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ValidationError("tol must be a number")
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"tol must lie in (0, 1), got {float(tol):g}")
    return float(tol)


def _validate_input(input_state: Ket, tol: float) -> None:
    _check_tol(tol)
    if input_state.register != INPUT_PAIR:
        raise ValidationError(
            f"input must live on photons {INPUT_PAIR}, got {input_state.register}"
        )
    n = norm(input_state)
    if abs(n - 1.0) > tol:
        raise ValidationError(
            f"input state must be normalized (norm deviates by {abs(n - 1.0):.3g})"
        )


def _transfer_tensor(aux: auxprep.AuxState) -> np.ndarray:
    """``T[b15, b26, r] @ beta`` is the unnormalized kept-pair residual of
    Bell outcomes ``b15`` on (1, 5), ``b26`` on (2, 6) (BELL_ORDER indices)
    and register reading ``r``; shape (4, 4, R, 4, 4).
    """
    n_readings = 2 ** len(aux.j_register)
    resource = aux.ket.array.reshape(2, 2, 2, 2, n_readings)
    bra = _BELL_KETS.conj().reshape(4, 2, 2)
    t = np.einsum("aip,bjq,klpqr->abrklij", bra, bra, resource)
    return t.reshape(4, 4, n_readings, 4, 4)


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
    _validate_input(input_state, tol)
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    if mode == "general":
        accepted_pairs = {(BellOutcome.PSI_PLUS, BellOutcome.PSI_PLUS)}
        aux = auxprep.build_general_aux(family)
    else:
        if not _is_parity(family):
            raise ValidationError(
                f"mode {mode!r} requires the parity projector family"
            )
        psi = (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS)
        accepted_pairs = {(a, b) for a in psi for b in psi}
        aux = (
            auxprep.build_parity_aux5()
            if mode == "parity5"
            else auxprep.build_parity_aux4()
        )

    residuals = _transfer_tensor(aux) @ two_photon_vector(input_state)
    weights = (residuals.real**2 + residuals.imag**2).sum(axis=-1)
    readings = itertools.product(POLARIZATIONS, repeat=len(aux.j_register))
    readings = ["".join(labels) or None for labels in readings]
    branches = []
    for a, b15 in enumerate(BELL_ORDER):
        for b, b26 in enumerate(BELL_ORDER):
            pair = (b15, b26)
            if pair in accepted_pairs and {b15, b26} <= analyzer.distinguishable:
                corrections = corrections_for(pair)
                kind = "correctable" if corrections else "success"
                register = aux.kept
                outcomes = zip(
                    readings, range(len(readings)), residuals[a, b], weights[a, b]
                )
            else:
                corrections, kind = (), "inconclusive"
                register = aux.kept + aux.j_register
                outcomes = [(None, None, residuals[a, b].T, weights[a, b].sum())]
            for reading, j, residual, probability in outcomes:
                probability = float(probability)
                if probability < ZERO_PROBABILITY:
                    branches.append(
                        Branch(b15, b26, reading, probability, corrections, "zero")
                    )
                    continue
                ket = from_array(register, residual / math.sqrt(probability))
                if j is not None:
                    ket = apply_corrections(pair, ket)
                branches.append(
                    Branch(b15, b26, reading, probability, corrections, kind, j, ket)
                )

    success_probability = sum(b.probability for b in branches if b.is_success)
    inconclusive_probability = sum(
        b.probability for b in branches if b.kind == "inconclusive"
    )
    conditional = [0.0] * family.n_outcomes
    if success_probability > ZERO_PROBABILITY:
        for b in branches:
            if b.is_success:
                conditional[b.j] += b.probability
        conditional = [c / success_probability for c in conditional]
    return ProtocolReport(
        mode=mode,
        analyzer=analyzer,
        input_state=input_state,
        family=family,
        branches=tuple(branches),
        success_probability=float(success_probability),
        conditional_j=tuple(conditional),
        inconclusive_probability=float(inconclusive_probability),
    )


def oracle_report(
    input_state: Ket, family: ProjectorFamily, tol: float = DEFAULT_TOL
) -> OracleStatistics:
    """Target statistics straight from the projectors, no protocol involved.

    Post-measurement states are placed on the kept photon pair so they
    can be compared directly with teleported residuals.
    """
    _validate_input(input_state, tol)
    vec = two_photon_vector(input_state)
    probabilities = []
    states = []
    for proj in family.projectors:
        projected = proj @ vec
        p = float(np.vdot(projected, projected).real)
        probabilities.append(p)
        if p > ZERO_PROBABILITY:
            states.append(normalize(ket_from_vector(KEPT_PAIR, projected)))
        else:
            states.append(None)
    return OracleStatistics(tuple(probabilities), tuple(states))


def compare_reports(
    report: ProtocolReport, oracle: OracleStatistics, tol: float = DEFAULT_TOL
) -> Verdict:
    """Check a protocol run against the oracle statistics.

    The verdict passes when the success-conditioned outcome distribution
    matches the oracle probabilities and every success branch's residual
    equals the oracle's post-measurement state up to a global phase.  In
    the four-photon filter mode only outcome 0 is realizable, so there
    the conditional distribution degenerates and the total success
    probability is pinned to half the oracle's even-parity weight.
    """
    _check_tol(tol)
    mismatches = []
    if report.mode == "parity4":
        expected_total = 0.5 * oracle.probabilities[0]
        if abs(report.success_probability - expected_total) > tol:
            mismatches.append(
                "success probability "
                f"{report.success_probability:.12g} != "
                f"(1/2) * even-parity weight {expected_total:.12g}"
            )
        expected_conditional = [0.0] * len(oracle.probabilities)
        if report.success_probability > tol:
            expected_conditional[0] = 1.0
        else:
            expected_conditional = list(report.conditional_j)  # vacuous
    else:
        expected_conditional = list(oracle.probabilities)

    for j, expected in enumerate(expected_conditional):
        got = report.conditional_j[j]
        if abs(got - expected) > tol:
            mismatches.append(
                f"conditional probability of outcome {j}: "
                f"report {got:.12g} vs oracle {expected:.12g}"
            )

    for index, branch in enumerate(report.branches):
        if not branch.is_success:
            continue
        target = oracle.states[branch.j]
        if target is None:
            mismatches.append(
                f"branch {index} succeeds with outcome {branch.j}, "
                "which the oracle rules out"
            )
            continue
        if not phase_equal(branch.residual, target, tol=tol):
            mismatches.append(
                f"branch {index} ({branch.bell15.value}, {branch.bell26.value}"
                f", outcome {branch.j}): residual differs from the projected "
                "input beyond global phase"
            )
    return Verdict(not mismatches, tuple(mismatches))
