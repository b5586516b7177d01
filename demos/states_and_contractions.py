"""
Polarization kets and partial contractions
==========================================

Build small photon-register states, take tensor products, and contract
photons out with partial inner products.  A ket is one array with an axis per
photon, so a partial inner product is a ``tensordot`` over the photons' axes.
"""

import numpy as np

from biphoton import basis_ket, bell_ket, from_array, inner, norm, superpose, tensor
from biphoton.protocol import BellOutcome

isqrt2 = 2 ** -0.5

# A photon pair held by photons 1 and 2, in an unbalanced superposition.
beta = superpose([(0.6, basis_ket((1, 2), "HH")), (0.8, basis_ket((1, 2), "VV"))])
print("input state:", dict(beta.items()))
print("norm:", norm(beta))

# Bell states live on any photon pair you name.
psi_plus = bell_ket(BellOutcome.PSI_PLUS, (1, 5))
print("PsiPlus(1,5):", dict(psi_plus.items()))

# Tensor products concatenate registers; photon numbers must not collide.
pair_35 = superpose(
    [(isqrt2, basis_ket((3, 5), "HH")), (isqrt2, basis_ket((3, 5), "VV"))]
)
joint = tensor(beta, pair_35)
print("joint register:", joint.register)

# Contracting <PsiPlus(1,5)| out of the joint state (axes 0 and 3 of the
# register (1, 2, 3, 5)) leaves photons 2 and 3, in their original order,
# holding an unnormalized residual.
amplitudes = np.tensordot(psi_plus.array.conj(), joint.array, axes=([0, 1], [0, 3]))
residual = from_array((2, 3), amplitudes)
print("residual register:", residual.register)
print("residual:", dict(residual.items()))
print("residual weight:", norm(residual) ** 2)

# Inner products between same-register states.
print("<beta|beta> =", inner(beta, beta))
