"""
Auxiliary entangled resources for measurement teleportation
===========================================================

The protocol never touches the input pair directly: all the information
about which projector fired is carried by an auxiliary entangled state.
Every resource is one formula: over the n basis rows |a^i> whose outcome
j_i the register can record,

    |X> = n**-0.5 sum_i |a^i>_34 |a^i~>_56 |j_i>

This script builds it for the parity family on three registers: the pair
(7, 8) (the general six-photon resource), the photon (7,) (five photons)
and no photon at all (four photons, the even rows only).
"""

from biphoton import (
    build_general_aux,
    build_parity_aux4,
    build_parity_aux5,
    conjugate_partner,
    norm,
    parity_family,
)

family = parity_family()

# Each basis state |alpha_i> on the kept pair (3,4) is accompanied by its
# conjugate partner on (5,6): complex-conjugated amplitudes with both
# polarizations flipped.  Partners of orthonormal states stay orthonormal.
for i in range(4):
    partner = conjugate_partner(family.basis, i)
    print(f"partner of row {i}:", dict(partner.items()))

# The general resource adds an outcome register on photons (7,8) recording
# which projector the basis state belongs to.
aux = build_general_aux(family)
print("general resource photons:", aux.ket.register)
print("norm:", norm(aux.ket))
for label, amp in aux.ket.items():
    print(f"  {label}: {amp.real:+.3f}")

# For parity the outcome is a single bit, so one register photon (7) records
# it: the same four rows, n = 4, five photons total.
aux5 = build_parity_aux5()
print("parity resource photons:", aux5.ket.register)
for label, amp in aux5.ket.items():
    print(f"  {label}: {amp.real:+.3f}")

# With no register photon only outcome 0 can be recorded, so only the two
# even rows are kept (n = 2, amplitude 2**-0.5): the four-photon resource is
# the even-parity branch of the five-photon one, a filter.
aux4 = build_parity_aux4()
print("filter resource photons:", aux4.ket.register)
for label, amp in aux4.ket.items():
    print(f"  {label}: {amp.real:+.3f}")
