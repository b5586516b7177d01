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

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from biphoton.statevec import (
    DEFAULT_TOL,
    ValidationError,
    _check_tol,
    _is_real,
    _numbers,
    complex_product,
)

__all__ = [
    "BASIS_LABELS",
    "TwoPhotonBasis",
    "ProjectorFamily",
    "family_from_assignment",
    "shared_family",
    "parity_family",
]

#: Fixed component order of the two-photon space.
BASIS_LABELS = ("HH", "HV", "VH", "VV")

MAX_OUTCOMES = 4


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TwoPhotonBasis:
    """Orthonormal basis of the two-photon space: rows of ``states``, checked
    within ``tol``; compared and hashed by identity, as a family is by content."""

    states: np.ndarray  # (4, 4) complex, row i is |a^i> over BASIS_LABELS
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):  # keeps a read-only copy of the rows
        arr = _frozen(_numbers(self.states, "basis entry"))
        if arr.shape != (4, 4):
            raise ValidationError(f"basis must be 4x4, got shape {arr.shape}")
        gram = complex_product(arr[:, None], arr.conj())
        dev = np.abs(gram - np.eye(4))
        if dev.max() > _check_tol(tol):
            i, k = np.unravel_index(int(dev.argmax()), dev.shape)
            raise ValidationError(
                "basis rows are not orthonormal: "
                f"<row{i}|row{k}> = {gram[i, k]:.6g} deviates by {dev[i, k]:.3g}"
            )
        object.__setattr__(self, "states", arr)


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """A complete family of projectors built from a basis and an assignment."""

    basis: TwoPhotonBasis
    assignment: np.ndarray  # (4, J) binary
    projectors: np.ndarray  # (J, 4, 4) read-only: P_j is projectors[j]

    @property
    def n_outcomes(self) -> int:
        return len(self.projectors)

    @functools.cached_property
    def _content(self) -> tuple:
        table = self.assignment
        return self.basis.states.tobytes(), table.shape, table.tobytes()

    def __eq__(self, other):  # a value: the same basis rows, in order, and table
        if not isinstance(other, ProjectorFamily):
            return NotImplemented
        return self._content == other._content

    def __hash__(self):
        return hash(self._content)


def _validate_assignment(table) -> np.ndarray:
    try:
        arr = np.array(table)
    except ValueError:  # ragged rows, or lists nested past numpy's dimensions
        depth, row = 0, table
        while isinstance(row, (list, tuple)) and row:
            depth, row = depth + 1, row[0]
        problem = "rows must all have the same length"
        if depth > 2:
            problem = f"must be a 4 x J table, got lists nested {depth} deep"
        raise ValidationError(f"assignment {problem}") from None
    if arr.ndim != 2 or arr.shape[0] != 4:
        raise ValidationError(
            f"assignment must have one row per basis state (4), got shape {arr.shape}"
        )
    n_outcomes = arr.shape[1]
    if not 1 <= n_outcomes <= MAX_OUTCOMES:
        raise ValidationError(
            f"number of outcomes must be between 1 and {MAX_OUTCOMES}, got {n_outcomes}"
        )
    entries = arr.ravel().tolist()  # real numbers or bools, never complex
    if not all((type(v) is bool or _is_real(v)) and v in (0, 1) for v in entries):
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
        basis = TwoPhotonBasis(basis)
    table = _validate_assignment(assignment)
    a = basis.states.T  # a[m, i] is component m of |a^i>
    # P_j[m, n] = sum_i pi[i][j] a^i_m conj(a^i_n), one expression for every j:
    # products rounded as complex_product rounds them make P_j exactly Hermitian.
    weighted = table.T[:, None, None, :] * a[None, :, None, :]
    projectors = _frozen(complex_product(weighted, a.conj()))
    return ProjectorFamily(basis, table, projectors)


def _table_key(assignment):
    """``assignment`` as a tuple of row tuples, or None where it is not a list
    of lists of real or boolean entries: ``1+0j`` equals and hashes as ``1``,
    but validation refuses it, so it must not find ``1``'s family."""
    if not isinstance(assignment, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in assignment
    ):
        return None
    table = tuple(map(tuple, assignment))
    real = all(type(v) is bool or _is_real(v) for row in table for v in row)
    return table if real else None


@functools.lru_cache(maxsize=32)
def _family_by_content(states: bytes, table: tuple, tol: float) -> ProjectorFamily:
    """The family of the 4x4 complex rows held in ``states``, checked at ``tol``."""
    basis = TwoPhotonBasis(np.frombuffer(states, dtype=complex).reshape(4, 4), tol)
    return family_from_assignment(basis, table)


def shared_family(states, assignment, tol: float = DEFAULT_TOL) -> ProjectorFamily:
    """``family_from_assignment(TwoPhotonBasis(states, tol), assignment)``, built
    once per content: content-equal arguments give the same read-only family.

    The key is the rows' bytes (``-0.0`` is not ``0.0``), the table as a tuple
    of row tuples (``1``, ``1.0`` and ``True`` validate alike) and ``tol``;
    the last 32 families are kept.  Only successes are kept, so a failure
    raises its message every time; rows that are not 4x4 and a table that is
    not a list of lists of real or boolean entries go the uncached way.
    """
    rows = _numbers(states, "basis entry")
    table = _table_key(assignment)
    if rows.shape != (4, 4) or table is None:
        return family_from_assignment(TwoPhotonBasis(rows, tol), assignment)
    return _family_by_content(rows.tobytes(), table, tol)


@functools.cache
def parity_family() -> ProjectorFamily:
    """Two-outcome polarization-parity measurement.

    Outcome 0 projects onto span{|HH>, |VV>} (even parity), outcome 1
    onto span{|HV>, |VH>} (odd parity).  Built once; the family is frozen.
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
