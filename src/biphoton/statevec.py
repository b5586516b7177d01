"""Sparse state vectors over registers of labeled polarization photons.

A state lives on an explicit register of photon ids (small ints, e.g.
``(1, 2)`` or ``(3, 4, 5, 6, 7, 8)``) and is stored as a mapping from
polarization strings like ``"HV"`` to complex amplitudes.  Only nonzero
components are kept; every operation prunes amplitudes whose squared
magnitude falls below :data:`PRUNE_THRESHOLD`.

Amplitudes are plain ``complex`` numbers.  Photon ids are plain ``int``.
Component order, wherever a dense layout matters, is the fixed
lexicographic order H < V (two photons: HH, HV, VH, VV).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Ket:
    """Immutable sparse state vector on an ordered photon register.

    ``register`` is a tuple of distinct photon ids; ``components`` maps
    polarization strings (one character per register slot, each ``"H"``
    or ``"V"``) to complex amplitudes.  Instances are produced by the
    module functions; the constructor does not re-validate.
    """

    register: tuple[int, ...]
    components: Mapping[str, complex]

    def amplitude(self, labels: str) -> complex:
        """Amplitude of one basis component (0 for absent components)."""
        return self.components.get(labels, 0j)

    def items(self):
        """Iterate ``(labels, amplitude)`` pairs in lexicographic order."""
        return iter(sorted(self.components.items()))

    def __len__(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(
            f"({amp:.6g})|{labels}>" for labels, amp in self.items()
        )
        reg = ",".join(str(p) for p in self.register)
        return f"Ket[{reg}]({terms or '0'})"


def _check_register(register: Sequence[int]) -> tuple[int, ...]:
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        raise ValidationError(f"register has repeated photon ids: {reg}")
    for p in reg:
        if not isinstance(p, (int, np.integer)):
            raise ValidationError(f"photon id {p!r} is not an int")
    return tuple(int(p) for p in reg)


def _pruned(register: tuple[int, ...], comps: dict[str, complex]) -> Ket:
    kept = {
        labels: amp
        for labels, amp in comps.items()
        if (amp.real * amp.real + amp.imag * amp.imag) >= PRUNE_THRESHOLD
    }
    return Ket(register, kept)


def basis_ket(register: Sequence[int], labels: Sequence[str]) -> Ket:
    """Single computational component, e.g. ``basis_ket((1, 2), "HV")``.

    The register must consist of distinct photon ids and ``labels`` must
    supply one polarization (``"H"`` or ``"V"``) per register slot.
    """
    reg = _check_register(register)
    lab = "".join(labels)
    if len(lab) != len(reg):
        raise ValidationError(
            f"{len(lab)} labels for a register of {len(reg)} photons"
        )
    for ch in lab:
        if ch not in POLARIZATIONS:
            raise ValidationError(f"unknown polarization label {ch!r}")
    return Ket(reg, {lab: 1 + 0j})


def superpose(terms: Iterable[tuple[complex, Ket]]) -> Ket:
    """Linear combination ``sum(coeff * ket)`` of states on one register.

    All terms must share the same register (same ids, same order).
    The result is not normalized.
    """
    terms = list(terms)
    if not terms:
        raise ValidationError("superpose needs at least one term")
    register = terms[0][1].register
    acc: dict[str, complex] = {}
    for coeff, ket in terms:
        if ket.register != register:
            raise ValidationError(
                f"register mismatch in superpose: {ket.register} != {register}"
            )
        for labels, amp in ket.components.items():
            acc[labels] = acc.get(labels, 0j) + complex(coeff) * amp
    return _pruned(register, acc)


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product on the concatenated register ``a.register + b.register``.

    The registers must be disjoint.
    """
    overlap = set(a.register) & set(b.register)
    if overlap:
        raise ValidationError(f"tensor registers share photons {sorted(overlap)}")
    register = a.register + b.register
    comps: dict[str, complex] = {}
    for la, va in a.components.items():
        for lb, vb in b.components.items():
            comps[la + lb] = va * vb
    return _pruned(register, comps)


def inner(a: Ket, b: Ket) -> complex:
    """Inner product ``<a|b>`` of two states on the same register."""
    if a.register != b.register:
        raise ValidationError(
            f"inner product register mismatch: {a.register} != {b.register}"
        )
    total = 0j
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for labels in small.components:
        va = a.components.get(labels)
        vb = b.components.get(labels)
        if va is not None and vb is not None:
            total += va.conjugate() * vb
    return total


def partial_bra(bra: Ket, state: Ket) -> Ket:
    """Contract ``<bra|`` against a subset of ``state``'s photons.

    Every photon of ``bra.register`` must occur in ``state.register``.
    The result lives on the remaining photons in their original order
    and is *not* normalized: its squared norm is the probability of the
    outcome ``bra`` (for normalized ``bra`` and ``state``).  Contracting
    the full register yields a state on the empty register whose single
    amplitude is ``inner(bra, state)``.
    """
    positions = []
    for p in bra.register:
        if p not in state.register:
            raise ValidationError(
                f"bra photon {p} not in state register {state.register}"
            )
        positions.append(state.register.index(p))
    keep = [i for i in range(len(state.register)) if i not in positions]
    out_register = tuple(state.register[i] for i in keep)
    comps: dict[str, complex] = {}
    for labels, amp in state.components.items():
        bra_labels = "".join(labels[i] for i in positions)
        coeff = bra.components.get(bra_labels)
        if coeff is None:
            continue
        rest = "".join(labels[i] for i in keep)
        comps[rest] = comps.get(rest, 0j) + coeff.conjugate() * amp
    return _pruned(out_register, comps)


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
    comps: dict[str, complex] = {}
    for labels, amp in state.components.items():
        col = 0 if labels[pos] == H else 1
        for row, out in enumerate(POLARIZATIONS):
            coeff = mat[row, col]
            if coeff == 0:
                continue
            new_labels = labels[:pos] + out + labels[pos + 1 :]
            comps[new_labels] = comps.get(new_labels, 0j) + coeff * amp
    return _pruned(state.register, comps)


def norm(state: Ket) -> float:
    """Euclidean norm ``sqrt(sum |amplitude|^2)``."""
    return math.sqrt(
        sum(a.real * a.real + a.imag * a.imag for a in state.components.values())
    )


def normalize(state: Ket) -> Ket:
    """Scale to unit norm; raises ``DegenerateStateError`` near zero."""
    n = norm(state)
    if n <= ZERO_NORM:
        raise DegenerateStateError(f"cannot normalize state of norm {n:g}")
    return _pruned(
        state.register, {k: v / n for k, v in state.components.items()}
    )


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
    return all(
        abs(an.amplitude(labels) * phase - bn.amplitude(labels)) <= tol
        for labels in an.components.keys() | bn.components.keys()
    )


_BITS = str.maketrans("HV", "01")


def to_array(state: Ket) -> np.ndarray:
    """Flat dense amplitudes over the register's lexicographic basis."""
    out = np.zeros(2 ** len(state.register), dtype=complex)
    for labels, amp in state.components.items():
        out[int("0" + labels.translate(_BITS), 2)] = amp
    return out


def from_array(register: Sequence[int], amplitudes) -> Ket:
    """Pruned ket from ``2**n`` amplitudes in row-major lexicographic order."""
    reg = _check_register(register)
    arr = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if arr.size != 2 ** len(reg):
        raise ValidationError(f"{arr.size} amplitudes for {len(reg)} photons")
    labels = itertools.product(POLARIZATIONS, repeat=len(reg))
    return _pruned(reg, {"".join(k): a for k, a in zip(labels, arr.tolist())})
