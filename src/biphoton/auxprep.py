"""Construction of the auxiliary entangled photon resources.

The protocol consumes a multi-photon entangled state prepared ahead of
time.  For a projector family with basis ``{|a^i>}`` and assignment
``pi`` the general six-photon resource is

    |X> = (1/2) sum_j sum_i pi[i][j] |a^i>_34 |a^i~>_56 |j>_78

where ``|a^i~>`` is the *conjugate partner* of ``|a^i>``: its components
are complex-conjugated and both polarizations are flipped (H <-> V on
each photon).  That pairing is what turns a joint Bell acceptance on
photons (1,5) and (2,6) into an identity teleportation channel.

For the polarization-parity measurement two leaner resources exist: a
five-photon variant encoding the outcome in a single photon, and a
four-photon variant that keeps only the even-parity branch and acts as
a filter.  Photon roles are hard-wired to the fixed labeling: input
(1, 2), kept pair (3, 4), partners (5, 6), outcome register (7, 8) or
(7,).
"""

from __future__ import annotations

from dataclasses import dataclass

from biphoton.measurement import BASIS_LABELS, ProjectorFamily, TwoPhotonBasis
from biphoton.statevec import (
    Ket,
    ValidationError,
    basis_ket,
    from_array,
    superpose,
    tensor,
)

__all__ = [
    "KEPT_PAIR",
    "PARTNER_PAIR",
    "J_REGISTER_TWO",
    "J_REGISTER_ONE",
    "AuxState",
    "conjugate_partner",
    "encode_j_two_photon",
    "encode_j_one_photon",
    "build_general_aux",
    "build_parity_aux5",
    "build_parity_aux4",
]

KEPT_PAIR = (3, 4)
PARTNER_PAIR = (5, 6)
J_REGISTER_TWO = (7, 8)
J_REGISTER_ONE = (7,)

#: Component index map of the polarization flip H<->V on both photons:
#: HH <-> VV and HV <-> VH in the fixed (HH, HV, VH, VV) order.
_FLIP = [3, 2, 1, 0]


@dataclass(frozen=True)
class AuxState:
    """An auxiliary resource with its photon roles spelled out."""

    ket: Ket
    kept: tuple[int, ...]
    partners: tuple[int, ...]
    j_register: tuple[int, ...]


def conjugate_partner(basis: TwoPhotonBasis, i: int, register=PARTNER_PAIR) -> Ket:
    """Conjugate partner of basis row ``i`` on the partner photons.

    Components are conjugated and moved to the polarization-flipped
    label, e.g. ``|HH>`` becomes ``|VV>`` and ``a*|HV>`` becomes
    ``conj(a)|VH>``.  Partners of orthonormal rows remain orthonormal.
    """
    if not 0 <= i < 4:
        raise ValidationError(f"basis row index {i} out of range 0..3")
    return from_array(register, basis.states[i].conj()[_FLIP])


def encode_j_two_photon(j: int) -> Ket:
    """Outcome ``j`` written into two photons: 0..3 -> HH, HV, VH, VV."""
    if not 0 <= j < 4:
        raise ValidationError(f"two-photon outcome index {j} out of range 0..3")
    return basis_ket(J_REGISTER_TWO, BASIS_LABELS[j])


def encode_j_one_photon(j: int) -> Ket:
    """Outcome ``j`` written into one photon: 0 -> H, 1 -> V."""
    if j not in (0, 1):
        raise ValidationError(f"one-photon outcome index {j} out of range 0..1")
    return basis_ket(J_REGISTER_ONE, "H" if j == 0 else "V")


def build_general_aux(family: ProjectorFamily) -> AuxState:
    """Six-photon resource implementing an arbitrary projector family."""
    terms = []
    for j in range(family.n_outcomes):
        j_ket = encode_j_two_photon(j)
        for i in range(4):
            if family.assignment[i, j]:
                kept = from_array(KEPT_PAIR, family.basis.states[i])
                partner = conjugate_partner(family.basis, i)
                terms.append((0.5, tensor(tensor(kept, partner), j_ket)))
    return AuxState(
        superpose(terms), KEPT_PAIR, PARTNER_PAIR, J_REGISTER_TWO
    )


def build_parity_aux5() -> AuxState:
    """Five-photon parity resource with a one-photon outcome register."""
    register = KEPT_PAIR + PARTNER_PAIR + J_REGISTER_ONE
    ket = superpose(
        [
            (0.5, basis_ket(register, "HHVVH")),
            (0.5, basis_ket(register, "VVHHH")),
            (0.5, basis_ket(register, "HVVHV")),
            (0.5, basis_ket(register, "VHHVV")),
        ]
    )
    return AuxState(ket, KEPT_PAIR, PARTNER_PAIR, J_REGISTER_ONE)


def build_parity_aux4() -> AuxState:
    """Four-photon resource keeping only the even-parity branch."""
    register = KEPT_PAIR + PARTNER_PAIR
    amp = 2.0 ** -0.5
    ket = superpose(
        [
            (amp, basis_ket(register, "HHVV")),
            (amp, basis_ket(register, "VVHH")),
        ]
    )
    return AuxState(ket, KEPT_PAIR, PARTNER_PAIR, ())
