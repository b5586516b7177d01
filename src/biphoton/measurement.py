"""Orthonormal two-photon bases, outcome assignments and projector families.

A measurement on a photon pair is specified by an orthonormal basis
``{|a^i>}`` of the two-photon polarization space together with a binary
assignment table ``pi`` mapping each basis state to exactly one of ``J``
outcomes.  The projector for outcome ``j`` is

    P_j = sum_i pi[i][j] |a^i><a^i|

so the family is complete (``sum_j P_j = 1``) and mutually orthogonal by
construction.  Dense 4x4 numpy arrays are used throughout, with the
component order (HH, HV, VH, VV).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biphoton.statevec import (
    DEFAULT_TOL,
    Ket,
    ValidationError,
    from_array,
    norm,
    to_array,
)

__all__ = [
    "BASIS_LABELS",
    "TwoPhotonBasis",
    "ProjectorFamily",
    "validate_basis",
    "family_from_assignment",
    "parity_family",
    "apply_projector",
    "expectation",
    "two_photon_vector",
    "ket_from_vector",
]

#: Fixed component order of the two-photon space.
BASIS_LABELS = ("HH", "HV", "VH", "VV")

MAX_OUTCOMES = 4


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TwoPhotonBasis:
    """Orthonormal basis of the two-photon space: rows of ``states``."""

    states: np.ndarray  # (4, 4) complex, row i is |a^i> over BASIS_LABELS


@dataclass(frozen=True)
class ProjectorFamily:
    """A complete family of projectors built from a basis and an assignment."""

    basis: TwoPhotonBasis
    assignment: np.ndarray  # (4, J) binary
    projectors: tuple[np.ndarray, ...]  # J arrays of shape (4, 4)

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)


def validate_basis(states, tol: float = DEFAULT_TOL) -> TwoPhotonBasis:
    """Check shape, finiteness and orthonormality of four basis rows."""
    arr = np.array(states, dtype=complex)
    if arr.shape != (4, 4):
        raise ValidationError(f"basis must be 4x4, got shape {arr.shape}")
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ValidationError("basis contains non-finite entries")
    gram = arr @ arr.conj().T
    dev = np.abs(gram - np.eye(4))
    if dev.max() > tol:
        i, k = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValidationError(
            "basis rows are not orthonormal: "
            f"<row{i}|row{k}> = {gram[i, k]:.6g} deviates by {dev[i, k]:.3g}"
        )
    return TwoPhotonBasis(_frozen(arr))


def _validate_assignment(table) -> np.ndarray:
    arr = np.array(table)
    if arr.ndim != 2 or arr.shape[0] != 4:
        raise ValidationError(
            f"assignment must have one row per basis state (4), got shape {arr.shape}"
        )
    n_outcomes = arr.shape[1]
    if not 1 <= n_outcomes <= MAX_OUTCOMES:
        raise ValidationError(
            f"number of outcomes must be between 1 and {MAX_OUTCOMES}, got {n_outcomes}"
        )
    if not np.isin(arr, (0, 1)).all():
        raise ValidationError("assignment entries must be 0 or 1")
    row_sums = arr.sum(axis=1)
    if not (row_sums == 1).all():
        bad = int(np.flatnonzero(row_sums != 1)[0])
        raise ValidationError(
            f"assignment row {bad} selects {row_sums[bad]} outcomes, expected exactly 1"
        )
    col_sums = arr.sum(axis=0)
    if (col_sums == 0).any():
        bad = int(np.flatnonzero(col_sums == 0)[0])
        raise ValidationError(
            f"assignment column {bad} is empty: every outcome needs a basis state"
        )
    return _frozen(arr.astype(int))


def family_from_assignment(basis, assignment) -> ProjectorFamily:
    """Build ``P_j = sum_i pi[i][j] |a^i><a^i|`` for each outcome ``j``."""
    if not isinstance(basis, TwoPhotonBasis):
        basis = validate_basis(basis)
    table = _validate_assignment(assignment)
    projectors = []
    for j in range(table.shape[1]):
        proj = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            if table[i, j]:
                row = basis.states[i]
                proj += np.outer(row, row.conj())
        projectors.append(_frozen(proj))
    return ProjectorFamily(basis, table, tuple(projectors))


def parity_family() -> ProjectorFamily:
    """Two-outcome polarization-parity measurement.

    Outcome 0 projects onto span{|HH>, |VV>} (even parity), outcome 1
    onto span{|HV>, |VH>} (odd parity).
    """
    states = np.array(
        [
            [1, 0, 0, 0],  # HH
            [0, 0, 0, 1],  # VV
            [0, 1, 0, 0],  # HV
            [0, 0, 1, 0],  # VH
        ],
        dtype=complex,
    )
    table = [[1, 0], [1, 0], [0, 1], [0, 1]]
    return family_from_assignment(states, table)


def _require_outcome(family: ProjectorFamily, j: int) -> None:
    if not 0 <= j < family.n_outcomes:
        raise ValidationError(
            f"outcome index {j} out of range for a {family.n_outcomes}-outcome family"
        )


def two_photon_vector(state: Ket) -> np.ndarray:
    """Dense 4-vector of a two-photon ket over (HH, HV, VH, VV)."""
    if len(state.register) != 2:
        raise ValidationError(
            f"expected a two-photon state, register is {state.register}"
        )
    return to_array(state)


def ket_from_vector(register, vec) -> Ket:
    """Two-photon ket from a 4-vector over (HH, HV, VH, VV)."""
    arr = np.asarray(vec, dtype=complex)
    if arr.shape != (4,):
        raise ValidationError(f"expected 4 components, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("state vector has non-finite components")
    reg = tuple(register)
    if len(reg) != 2:
        raise ValidationError(f"register must name two photons, got {reg}")
    return from_array(reg, arr)


def apply_projector(family: ProjectorFamily, j: int, state: Ket) -> Ket:
    """Project a two-photon ket onto outcome ``j`` (unnormalized result)."""
    _require_outcome(family, j)
    vec = two_photon_vector(state)
    return ket_from_vector(state.register, family.projectors[j] @ vec)


def expectation(family: ProjectorFamily, j: int, state: Ket) -> float:
    """Outcome probability ``<state|P_j|state>`` for a normalized state."""
    _require_outcome(family, j)
    n = norm(state)
    if abs(n - 1.0) > 1e-8:
        raise ValidationError(f"expectation requires a normalized state, norm={n:.6g}")
    vec = two_photon_vector(state)
    value = np.vdot(vec, family.projectors[j] @ vec).real
    return float(min(max(value, 0.0), 1.0))
