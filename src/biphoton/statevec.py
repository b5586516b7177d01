"""Dense state vectors over registers of labeled polarization photons.

A state lives on an explicit register of photon ids (small ints, e.g.
``(1, 2)`` or ``(3, 4, 5, 6, 7, 8)``) and is stored as one read-only
complex array of shape ``(2,) * len(register)``: axis ``k`` holds photon
``register[k]``, index 0 is ``H`` and 1 is ``V``.  Every operation
zeroes amplitudes whose squared magnitude falls below
:data:`PRUNE_THRESHOLD`, so a component counts as present exactly when
its amplitude is nonzero.

Components are named by polarization strings like ``"HV"`` (one
character per register slot).  Photon ids are plain ``int``.  Component
order, wherever a flat layout matters, is the fixed lexicographic order
H < V (two photons: HH, HV, VH, VV).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "H",
    "V",
    "POLARIZATIONS",
    "PRUNE_THRESHOLD",
    "DEFAULT_TOL",
    "ZERO_NORM",
    "ValidationError",
    "DegenerateStateError",
    "Ket",
    "basis_ket",
    "superpose",
    "tensor",
    "inner",
    "partial_bra",
    "apply_one_photon",
    "norm",
    "normalize",
    "phase_equal",
    "to_array",
    "from_array",
]

H = "H"
V = "V"
POLARIZATIONS = (H, V)

#: Squared-magnitude threshold below which components are dropped.
PRUNE_THRESHOLD = 1e-24

#: Default tolerance for approximate comparisons (norms, overlaps, phases).
DEFAULT_TOL = 1e-10

#: Norm below which a state counts as degenerate (not normalizable).
ZERO_NORM = 1e-12


class ValidationError(ValueError):
    """An argument violates a structural precondition."""


class DegenerateStateError(ValueError):
    """A (near-)zero state was asked to behave like a physical state."""


@functools.lru_cache(maxsize=None)
def _labels(n: int) -> tuple[str, ...]:
    return tuple("".join(k) for k in itertools.product(POLARIZATIONS, repeat=n))


def _index(labels: Sequence[str], n: int) -> tuple[int, ...]:
    """Array index of one component; ``labels`` names one polarization per photon."""
    lab = "".join(labels)
    if len(lab) != n:
        raise ValidationError(f"{len(lab)} labels for a register of {n} photons")
    for ch in lab:
        if ch not in POLARIZATIONS:
            raise ValidationError(f"unknown polarization label {ch!r}")
    return tuple(POLARIZATIONS.index(ch) for ch in lab)


@dataclass(frozen=True, eq=False)
class Ket:
    """Immutable state vector on an ordered photon register.

    ``register`` is a tuple of distinct photon ids; ``array`` is a
    read-only complex array of shape ``(2,) * len(register)`` with axis
    ``k`` for photon ``register[k]``.  Instances are produced by the
    module functions; the constructor does not re-validate.  Two kets are
    equal when their registers and amplitudes are.
    """

    register: tuple[int, ...]
    array: np.ndarray

    @property
    def components(self) -> dict[str, complex]:
        """The nonzero components as ``{labels: amplitude}``."""
        return dict(self.items())

    def amplitude(self, labels: str) -> complex:
        """Amplitude of one basis component (0 for absent components)."""
        return complex(self.array[_index(labels, len(self.register))])

    def items(self):
        """Iterate nonzero ``(labels, amplitude)`` pairs in lexicographic order."""
        amplitudes = zip(_labels(len(self.register)), self.array.reshape(-1).tolist())
        return ((labels, amp) for labels, amp in amplitudes if amp)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ket):
            return NotImplemented
        return self.register == other.register and np.array_equal(
            self.array, other.array
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(
            f"({amp:.6g})|{labels}>" for labels, amp in self.items()
        )
        reg = ",".join(str(p) for p in self.register)
        return f"Ket[{reg}]({terms or '0'})"


def _ket(register: tuple[int, ...], amplitudes) -> Ket:
    """Ket keeping only components with ``|a|^2 >= PRUNE_THRESHOLD``.

    The test runs on ``|a|`` against the threshold's square root, so huge
    amplitudes do not overflow; NaN fails it and is dropped.
    """
    arr = np.asarray(amplitudes, dtype=complex).reshape((2,) * len(register))
    kept = np.where(np.abs(arr) >= math.sqrt(PRUNE_THRESHOLD), arr, 0j)
    kept.flags.writeable = False
    return Ket(register, kept)


def _check_register(register: Sequence[int]) -> tuple[int, ...]:
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        raise ValidationError(f"register has repeated photon ids: {reg}")
    for p in reg:
        if not isinstance(p, (int, np.integer)):
            raise ValidationError(f"photon id {p!r} is not an int")
    return tuple(int(p) for p in reg)


def basis_ket(register: Sequence[int], labels: Sequence[str]) -> Ket:
    """Single computational component, e.g. ``basis_ket((1, 2), "HV")``.

    The register must consist of distinct photon ids and ``labels`` must
    supply one polarization (``"H"`` or ``"V"``) per register slot.
    """
    reg = _check_register(register)
    arr = np.zeros((2,) * len(reg), dtype=complex)
    arr[_index(labels, len(reg))] = 1
    return _ket(reg, arr)


def superpose(terms: Iterable[tuple[complex, Ket]]) -> Ket:
    """Linear combination ``sum(coeff * ket)`` of states on one register.

    All terms must share the same register (same ids, same order).
    The result is not normalized.
    """
    terms = list(terms)
    if not terms:
        raise ValidationError("superpose needs at least one term")
    register = terms[0][1].register
    for _, ket in terms:
        if ket.register != register:
            raise ValidationError(
                f"register mismatch in superpose: {ket.register} != {register}"
            )
    return _ket(register, sum(complex(coeff) * ket.array for coeff, ket in terms))


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product on the concatenated register ``a.register + b.register``.

    The registers must be disjoint.
    """
    overlap = set(a.register) & set(b.register)
    if overlap:
        raise ValidationError(f"tensor registers share photons {sorted(overlap)}")
    return _ket(a.register + b.register, np.multiply.outer(a.array, b.array))


def inner(a: Ket, b: Ket) -> complex:
    """Inner product ``<a|b>`` of two states on the same register."""
    if a.register != b.register:
        raise ValidationError(
            f"inner product register mismatch: {a.register} != {b.register}"
        )
    return complex(np.vdot(a.array, b.array))


def partial_bra(bra: Ket, state: Ket) -> Ket:
    """Contract ``<bra|`` against a subset of ``state``'s photons.

    Every photon of ``bra.register`` must occur in ``state.register``.
    The result lives on the remaining photons in their original order
    and is *not* normalized: its squared norm is the probability of the
    outcome ``bra`` (for normalized ``bra`` and ``state``).  Contracting
    the full register yields a state on the empty register whose single
    amplitude is ``inner(bra, state)``.
    """
    for p in bra.register:
        if p not in state.register:
            raise ValidationError(
                f"bra photon {p} not in state register {state.register}"
            )
    positions = [state.register.index(p) for p in bra.register]
    out = np.tensordot(
        bra.array.conj(), state.array, axes=(range(len(positions)), positions)
    )
    rest = tuple(p for p in state.register if p not in bra.register)
    return _ket(rest, out)


def apply_one_photon(op, photon: int, state: Ket) -> Ket:
    """Apply a 2x2 operator to a single photon of ``state``.

    ``op`` is any array-like indexed ``op[row][col]`` with the basis
    order (H, V): the image of ``|H>`` is ``op[0][0]|H> + op[1][0]|V>``.
    """
    mat = np.asarray(op, dtype=complex)
    if mat.shape != (2, 2):
        raise ValidationError(f"one-photon operator must be 2x2, got {mat.shape}")
    if photon not in state.register:
        raise ValidationError(
            f"photon {photon} not in state register {state.register}"
        )
    pos = state.register.index(photon)
    return _ket(state.register, mat @ state.array.reshape(2**pos, 2, -1))


def norm(state: Ket) -> float:
    """Euclidean norm ``sqrt(sum |amplitude|^2)``."""
    return math.sqrt(np.vdot(state.array, state.array).real)


def normalize(state: Ket) -> Ket:
    """Scale to unit norm; raises ``DegenerateStateError`` near zero."""
    n = norm(state)
    if n <= ZERO_NORM:
        raise DegenerateStateError(f"cannot normalize state of norm {n:g}")
    return _ket(state.register, state.array / n)


def phase_equal(a: Ket, b: Ket, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a`` and ``b`` agree up to a global phase.

    Both states are normalized and ``a`` is rotated onto ``b``'s phase
    through their overlap; every component must then agree within
    ``tol``.  Degenerate (near-zero) inputs raise rather than compare
    equal.
    """
    an = normalize(a)
    bn = normalize(b)
    overlap = inner(an, bn)
    phase = overlap / abs(overlap) if overlap else 1.0
    return bool((np.abs(an.array * phase - bn.array) <= tol).all())


def to_array(state: Ket) -> np.ndarray:
    """Flat read-only amplitudes over the register's lexicographic basis."""
    return state.array.reshape(-1)


def from_array(register: Sequence[int], amplitudes) -> Ket:
    """Pruned ket from ``2**n`` amplitudes in row-major lexicographic order."""
    reg = _check_register(register)
    arr = np.asarray(amplitudes, dtype=complex)
    if arr.size != 2 ** len(reg):
        raise ValidationError(f"{arr.size} amplitudes for {len(reg)} photons")
    return _ket(reg, arr)
