"""Dense state vectors over registers of labeled polarization photons.

A state lives on an explicit register of photon ids (small ints, e.g.
``(1, 2)`` or ``(3, 4, 5, 6, 7, 8)``) and is stored as one read-only
complex array of shape ``(2,) * len(register)``: axis ``k`` holds photon
``register[k]``, index 0 is ``H`` and 1 is ``V``.

Components are named by polarization strings like ``"HV"`` (one
character per register slot).  Photon ids are plain ``int``.  Component
order, wherever a flat layout matters, is the fixed lexicographic order
H < V (two photons: HH, HV, VH, VV).

Numeric policy, followed by every module:

* amplitude zero: ``|a|**2 < PRUNE_THRESHOLD`` zeroes an amplitude, and a
  state with ``norm**2 < PRUNE_THRESHOLD`` is degenerate;
* probability zero: ``p >= ZERO_PROBABILITY`` makes an outcome live, carrying a
  state (branch residual, oracle state, conditional distribution), and admits a
  config input's ``norm**2``; totals still add every outcome;
* agreement: ``abs(got - want) <= tol`` for the caller's ``tol`` (a real by
  ``_is_real``, in (0, 1) by ``_check_tol``) or ``DEFAULT_TOL``, likewise for
  ``TwoPhotonBasis``'s Gram and ``load_config``'s norm.  A failing side reads
  ``not ... <=``/``>=``, so NaN never agrees and is never live, as a lint in
  ``tests/test_import_rules.py`` checks for every comparison with a threshold;
* rounding: every sum of complex products follows ``complex_product``'s rule,
  ``_flat_sums`` (for ``inner``, ``norm``, ``phase_equal``) too: each real product
  rounded once, terms added in index order, no BLAS, so no bit depends on layout,
  batch shape or kernel; squares that overflow are scaled by a power of two first;
* entry: ``_numbers`` checks caller amplitudes, ``_ket`` wraps derived ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "H",
    "V",
    "POLARIZATIONS",
    "PRUNE_THRESHOLD",
    "ZERO_PROBABILITY",
    "DEFAULT_TOL",
    "ValidationError",
    "DegenerateStateError",
    "Ket",
    "basis_ket",
    "superpose",
    "complex_product",
    "tensor",
    "inner",
    "norm",
    "normalize",
    "phase_equal",
    "to_array",
    "from_array",
]

H = "H"
V = "V"
POLARIZATIONS = (H, V)

#: Squared magnitude below which an amplitude (or a state's norm) is zero.
PRUNE_THRESHOLD = 1e-24

#: Probability below which an outcome carries no state.
ZERO_PROBABILITY = 1e-12

#: Default tolerance for approximate comparisons (norms, overlaps, phases).
DEFAULT_TOL = 1e-10


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


def _prune(amplitudes) -> np.ndarray:
    """Read-only complex copy keeping only amplitudes with ``|a|^2 >= PRUNE_THRESHOLD``.

    The test runs on ``|a|`` against the threshold's square root, so huge
    amplitudes do not overflow; NaN fails it and is dropped.
    """
    arr = np.asarray(amplitudes, dtype=complex)
    kept = np.where(np.abs(arr) >= math.sqrt(PRUNE_THRESHOLD), arr, 0j)
    kept.flags.writeable = False
    return kept


def _ket(register: tuple[int, ...], amplitudes) -> Ket:
    """Ket of the pruned amplitudes, shaped ``(2,) * len(register)``."""
    return Ket(register, _prune(amplitudes).reshape((2,) * len(register)))


def _check_int(value, what: str) -> None:
    """An index or photon id is an int or a numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} {value!r} is not an int")


def _is_real(value) -> bool:
    """Any ``numbers.Real`` but a bool; the exact JSON types answer first."""
    kind = type(value)
    return kind in (float, int) or kind is not bool and isinstance(value, numbers.Real)


def _numbers(values, what: str) -> np.ndarray:
    """``values`` as complex, each a finite ``numbers.Number`` but a bool, or named."""
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    for value in arr.flat if arr.dtype.kind not in "iufc" else ():
        if type(value) is bool or not isinstance(value, numbers.Number):
            raise ValidationError(f"{what} {value!r} is not a number")
    arr = arr.astype(complex)
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite {what} {arr[~np.isfinite(arr)][0]}")
    return arr


def _check_tol(tol) -> float:
    """A comparison tolerance must be a real number in (0, 1)."""
    if not _is_real(tol):
        raise ValidationError("tol must be a number")
    try:
        value = float(tol)
    except OverflowError:
        raise ValidationError(
            "tol must lie in (0, 1), got a number too large for a float"
        ) from None
    if not 0.0 < value < 1.0:
        raise ValidationError(f"tol must lie in (0, 1), got {value:g}")
    return value


def _check_register(register: Sequence[int]) -> tuple[int, ...]:
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        raise ValidationError(f"register has repeated photon ids: {reg}")
    for p in reg:
        _check_int(p, "photon id")
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

    All terms must share the same register (same ids, same order) and
    every coefficient must be a finite number.  The result is not normalized.
    """
    terms = list(terms)  # fromiter keeps each coefficient whole, even a list
    coeffs = _numbers(np.fromiter((c for c, _ in terms), object), "coefficient")
    if not terms:
        raise ValidationError("superpose needs at least one term")
    register = terms[0][1].register
    for _, ket in terms:
        if ket.register != register:
            raise ValidationError(
                f"register mismatch in superpose: {ket.register} != {register}"
            )
    stacked = np.stack([ket.array for _, ket in terms], -1)
    return _ket(register, complex_product(stacked, coeffs))


def complex_product(x, y) -> np.ndarray:
    """``x * y`` of broadcast arrays as ``xr*yr - xi*yi`` and ``xr*yi + xi*yr``,
    each real product rounded once (so ``a * conj(a)`` is exactly real), added
    to zero over the last axis in index order: numpy's complex einsum, no BLAS."""
    return np.einsum("...k,...k->...", x, y, dtype=complex)


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product on the concatenated register ``a.register + b.register``.

    The registers must be disjoint; products follow ``complex_product``.
    """
    overlap = set(a.register) & set(b.register)
    if overlap:
        raise ValidationError(f"tensor registers share photons {sorted(overlap)}")
    # A sum over one term is the plain product, bit for bit.
    product = complex_product(a.array.reshape(-1, 1, 1), b.array.reshape(1, -1, 1))
    return _ket(a.register + b.register, product)


def _lists(a: Ket, b: Ket) -> tuple[list, list]:
    """The flat amplitudes of two states on one register, as lists."""
    if a.register != b.register:
        raise ValidationError(f"register mismatch: {a.register} != {b.register}")
    return a.array.reshape(-1).tolist(), b.array.reshape(-1).tolist()


def _flat_sums(xs: list, ys: list) -> tuple[complex, float, float]:
    """``<x|y>``, ``<x|x>`` and ``<y|y>`` in one pass, by ``complex_product``'s rule."""
    overlap, aa, bb = 0j, 0.0, 0.0
    for x, y in zip(xs, ys):
        overlap += x.conjugate() * y  # xr*yr + xi*yi and xr*yi - xi*yr, exactly
        aa += x.real * x.real + x.imag * x.imag
        bb += y.real * y.real + y.imag * y.imag
    return overlap, aa, bb


def _scaled(values: list) -> tuple[list, int]:
    """``values`` times ``2**-e``, and the least ``e >= 0`` that puts their largest
    part below 2: ``2**e`` is a float, and a degenerate state is never scaled up."""
    top = max(max(abs(x.real), abs(x.imag)) for x in values)
    e = max(0, math.frexp(top)[1] - 1)
    return [x * math.ldexp(1.0, -e) for x in values], e


def inner(a: Ket, b: Ket) -> complex:
    """Inner product ``<a|b>`` of two states on the same register."""
    return _flat_sums(*_lists(a, b))[0]


def norm(state: Ket) -> float:
    """Euclidean norm ``sqrt(sum |amplitude|^2)``, summed in index order."""
    values = state.array.reshape(-1).tolist()
    total = _flat_sums(values, values)[1]
    if total == math.inf:  # only then: math.hypot scales by a power of two first
        return math.hypot(*[part for x in values for part in (x.real, x.imag)])
    return math.sqrt(total)


def _nonzero(n: float, action: str) -> float:
    """The norm ``n``; ``DegenerateStateError`` under the amplitude-zero rule."""
    if n < math.sqrt(PRUNE_THRESHOLD):  # the same test _ket applies to |a|
        raise DegenerateStateError(f"cannot {action} state of norm {n:g}")
    return n


def normalize(state: Ket) -> Ket:
    """Scale to unit norm; raises ``DegenerateStateError`` near zero."""
    return _ket(state.register, state.array / _nonzero(norm(state), "normalize"))


def _phase_match(xs: list, ys: list, tol: float) -> bool:
    """``phase_equal``'s rule on the flat amplitude lists of two states."""
    overlap, aa, bb = _flat_sums(xs, ys)
    if math.inf in (aa, bb):  # only then, so no other input moves a bit
        xs, ys = _scaled(xs)[0], _scaled(ys)[0]
        overlap, aa, bb = _flat_sums(xs, ys)
    phase = overlap / abs(overlap) if overlap else 1.0
    rotation = phase / _nonzero(math.sqrt(aa), "compare")
    scale = _nonzero(math.sqrt(bb), "compare")
    return all(abs(x * rotation - y / scale) <= tol for x, y in zip(xs, ys))


def phase_equal(a: Ket, b: Ket, tol: float = DEFAULT_TOL) -> bool:
    """True when ``a`` and ``b`` agree up to a global phase.

    Both states are scaled to unit norm and ``a`` is rotated onto ``b``'s
    phase through their overlap; every component must then agree within
    ``tol``.  Degenerate (near-zero) inputs raise rather than compare
    equal.  The overlap and both norms come from one pass (``_flat_sums``).
    """
    return _phase_match(*_lists(a, b), tol)


def to_array(state: Ket) -> np.ndarray:
    """Flat read-only amplitudes over the register's lexicographic basis."""
    return state.array.reshape(-1)


def from_array(register: Sequence[int], amplitudes) -> Ket:
    """Pruned ket from ``2**n`` finite amplitudes in row-major lexicographic order."""
    reg = _check_register(register)
    arr = _numbers(amplitudes, "amplitude")
    if arr.size != 2 ** len(reg):
        raise ValidationError(f"{arr.size} amplitudes for {len(reg)} photons")
    return _ket(reg, arr)
