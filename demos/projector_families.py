"""Define two-photon projector families from a basis and an assignment table."""

import numpy as np

from biphoton import (
    basis_ket,
    family_from_assignment,
    from_array,
    parity_family,
    superpose,
    to_array,
)

# Any orthonormal two-photon basis (rows, components ordered HH, HV, VH, VV)
# plus a table assigning each basis state to an outcome defines a family of
# orthogonal projectors that sum to the identity.
isqrt2 = 2 ** -0.5
bell_basis = np.array(
    [
        [0, isqrt2, isqrt2, 0],   # PsiPlus
        [0, isqrt2, -isqrt2, 0],  # PsiMinus
        [isqrt2, 0, 0, isqrt2],   # PhiPlus
        [isqrt2, 0, 0, -isqrt2],  # PhiMinus
    ]
)

# Three outcomes: {PsiPlus}, {PsiMinus}, {PhiPlus, PhiMinus}.
table = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]]
family = family_from_assignment(bell_basis, table)
print("outcomes:", family.n_outcomes)
for j, proj in enumerate(family.projectors):
    print(f"P{j} =\n{np.round(proj.real, 3)}")

# The two-outcome polarization-parity measurement ships as a preset.
parity = parity_family()
print("parity projectors are diagonal:")
print(np.diag(parity.projectors[0]).real, np.diag(parity.projectors[1]).real)

state = superpose(
    [(0.6, basis_ket((1, 2), "HH")), (0.8, basis_ket((1, 2), "HV"))]
)
# An outcome's weight is <state|P_j|state>; its projection is P_j|state>.
vec = to_array(state)
print("even-parity weight:", float(np.vdot(vec, parity.projectors[0] @ vec).real))
print("odd-parity weight: ", float(np.vdot(vec, parity.projectors[1] @ vec).real))

projected = from_array((1, 2), parity.projectors[0] @ vec)
print("even projection:", dict(projected.items()))
