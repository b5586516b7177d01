"""Construction of the auxiliary entangled photon resources.

The protocol consumes a multi-photon entangled state prepared ahead of
time.  For a projector family whose basis row ``|a^i>`` belongs to outcome
``j_i``, every resource is one formula over the ``n`` rows whose outcome
the register can record (``j_i < 2**len(register)``):

    |X> = n**-0.5 sum_i |a^i>_34 |a^i~>_56 |j_i>

where ``|a^i~>`` is the *conjugate partner* of ``|a^i>``: its components
are complex-conjugated and both polarizations are flipped (H <-> V on
each photon).  That pairing is what turns a joint Bell acceptance on
photons (1,5) and (2,6) into an identity teleportation channel.

The general resource records ``j`` on the pair (7, 8).  The parity family
on one register photon (7,) gives the five-photon parity resource; on none
it keeps only the even rows, the four-photon filter.  Every builder runs
the formula on each call, with the ``conjugate_partner`` in place then;
``protocol._built_transfer``, the one compiler of ``T``, caches no resource.
Photon roles are hard-wired: input (1, 2), kept pair (3, 4), partners (5, 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biphoton import measurement
from biphoton.measurement import ProjectorFamily, TwoPhotonBasis
from biphoton.statevec import (
    Ket,
    ValidationError,
    _check_int,
    _ket,
    _prune,
    complex_product,
    from_array,
)

__all__ = [
    "KEPT_PAIR",
    "PARTNER_PAIR",
    "J_REGISTER_TWO",
    "J_REGISTER_ONE",
    "AuxState",
    "conjugate_partner",
    "build_general_aux",
    "build_parity_aux5",
    "build_parity_aux4",
]

KEPT_PAIR = (3, 4)
PARTNER_PAIR = (5, 6)
J_REGISTER_TWO = (7, 8)
J_REGISTER_ONE = (7,)

@dataclass(frozen=True)
class AuxState:
    """An auxiliary resource on ``KEPT_PAIR + PARTNER_PAIR + j_register``."""

    ket: Ket
    j_register: tuple[int, ...]


def conjugate_partner(basis: TwoPhotonBasis, i: int) -> Ket:
    """Conjugate partner of basis row ``i`` on the partner photons.

    Components are conjugated and moved to the polarization-flipped
    label, e.g. ``|HH>`` becomes ``|VV>`` and ``a*|HV>`` becomes
    ``conj(a)|VH>``.  Partners of orthonormal rows remain orthonormal.
    """
    _check_int(i, "basis row index")
    if not 0 <= i < 4:
        raise ValidationError(f"basis row index {i} out of range 0..3")
    partner = basis.states[i, ::-1].conj()  # the flip reverses (HH, HV, VH, VV)
    if isinstance(basis, TwoPhotonBasis):  # rows checked when the basis was built
        return _ket(PARTNER_PAIR, partner)
    return from_array(PARTNER_PAIR, partner)


def _resource_amplitudes(family: ProjectorFamily, j_register: tuple) -> np.ndarray:
    """The module docstring's resource of ``family`` on ``j_register``: read-only
    and pruned, shape (4, 4, R) for kept pair, partner pair and reading."""
    # Row i adds |a^i>_34 |a^i~>_56 |j_i> if j_i < R: its partner in column j_i.
    outcomes = family.assignment.argmax(axis=1)
    rows = np.flatnonzero(outcomes < 2 ** len(j_register))
    kept = _prune(family.basis.states)
    columns = np.zeros((4, 4, 2 ** len(j_register)), dtype=complex)  # (row, partner, r)
    columns[rows, :, outcomes[rows]] = [
        conjugate_partner(family.basis, i).array.reshape(4) for i in rows
    ]
    return _prune(len(rows) ** -0.5 * complex_product(
        kept.T[:, None, None, :], columns.transpose(1, 2, 0)
    ))


def _resource(family: ProjectorFamily, j_register: tuple[int, ...]) -> AuxState:
    """The same resource as an ``AuxState``, for the public builders."""
    amplitudes = _resource_amplitudes(family, j_register)
    return AuxState(_ket(KEPT_PAIR + PARTNER_PAIR + j_register, amplitudes), j_register)


def build_general_aux(family: ProjectorFamily) -> AuxState:
    """Six-photon resource implementing an arbitrary projector family."""
    return _resource(family, J_REGISTER_TWO)


def build_parity_aux5() -> AuxState:
    """Five-photon parity resource: the parity family on one register photon."""
    return _resource(measurement.parity_family(), J_REGISTER_ONE)


def build_parity_aux4() -> AuxState:
    """Four-photon filter: the parity family on no register, even rows only."""
    return _resource(measurement.parity_family(), ())
