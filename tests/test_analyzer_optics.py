"""The linear analyzer's resolved outcomes, derived from optics.

``LINEAR_ANALYZER`` declares that a linear-optics Bell analyzer tells the two
Psi states apart and nothing else.  This derives that set from a four-mode
model (Weinfurter, Europhys. Lett. 25, 559 (1994); Braunstein & Mann, PRA 51,
R1727 (1995)): photon 1 enters spatial mode a and photon 2 mode b, a 50:50
beam splitter mixes a and b into outputs c and d, and a polarizing beam
splitter in each output sends H and V to their own detector, so the four
detectors are the modes (c, H), (c, V), (d, H), (d, V).  A two-photon state
is a symmetrized product of creation operators; its detection patterns are
the ten two-photon Fock states.  The inputs are the repo's own ``bell_ket``
states, so the test also guards their sign convention.
"""

import itertools
import math

import numpy as np
import pytest

from biphoton.protocol import BELL_ORDER, LINEAR_ANALYZER, BellOutcome, bell_ket

PSI_PLUS, PSI_MINUS = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS
PHI_PLUS, PHI_MINUS = BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS

#: Detector names by mode index (spatial output, polarization).
DETECTORS = ("cH", "cV", "dH", "dV")

#: The 50:50 beam splitter on the spatial modes, c = (a + b)/sqrt2 and
#: d = (a - b)/sqrt2, acting alike on H and V.  Each PBS only routes the
#: polarizations of one output to two detectors, so it adds no matrix.
OPTICS = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(2))

#: Z on photon 1: a sign on its V component.
Z1 = np.diag([1.0, -1.0])


def fock_amplitudes(pair_amplitudes):
    """The two-photon Fock amplitudes at the detectors, keyed by the sorted
    pair of detector indices, for ``pair_amplitudes[p1, p2]`` of photon 1 in
    (a, p1) and photon 2 in (b, p2)."""
    creation = np.zeros((4, 4), dtype=complex)  # sum A[m, n] o_m^+ o_n^+ |0>
    creation[:2, 2:] = pair_amplitudes
    out = OPTICS @ creation @ OPTICS.T
    return {
        (m, n): out[m, n] + out[n, m] if m != n else math.sqrt(2) * out[m, m]
        for m, n in itertools.combinations_with_replacement(range(4), 2)
    }


def patterns(kind, threshold=False, before=np.eye(2)):
    """Detection patterns ``kind`` can give: the Fock states, or with
    threshold detectors the sets of detectors that click."""
    amplitudes = fock_amplitudes(before @ bell_ket(kind, (1, 2)).array)
    assert sum(abs(a) ** 2 for a in amplitudes.values()) == pytest.approx(1.0)
    seen = {modes for modes, a in amplitudes.items() if abs(a) ** 2 > 1e-12}
    if threshold:
        return {frozenset(DETECTORS[m] for m in modes) for modes in seen}
    return {tuple(DETECTORS[m] for m in modes) for modes in seen}


def resolved(threshold):
    """Outcomes whose patterns no other Bell outcome can give."""
    support = {kind: patterns(kind, threshold) for kind in BELL_ORDER}
    return {
        kind
        for kind in BELL_ORDER
        if all(support[kind].isdisjoint(support[other])
               for other in BELL_ORDER if other is not kind)
    }


def test_the_derived_resolved_set_is_the_linear_analyzers():
    for threshold in (False, True):
        assert resolved(threshold) == set(LINEAR_ANALYZER.distinguishable)


def test_each_bell_state_gives_its_signature():
    # Psi-: one click in each beam-splitter output, orthogonal polarizations.
    assert patterns(PSI_MINUS) == {("cH", "dV"), ("cV", "dH")}
    # Psi+: two orthogonal clicks in one output.
    assert patterns(PSI_PLUS) == {("cH", "cV"), ("dH", "dV")}
    # Phi+ and Phi-: both photons on one detector, the same patterns.
    both = {("cH", "cH"), ("cV", "cV"), ("dH", "dH"), ("dV", "dV")}
    assert patterns(PHI_PLUS) == patterns(PHI_MINUS) == both
    assert patterns(PHI_PLUS, threshold=True) == {frozenset([d]) for d in DETECTORS}


def test_a_z_on_one_input_photon_swaps_the_psi_labels():
    for threshold in (False, True):
        swapped = {
            kind: patterns(kind, threshold, before=Z1) for kind in (PSI_PLUS, PSI_MINUS)
        }
        assert swapped[PSI_PLUS] == patterns(PSI_MINUS, threshold)
        assert swapped[PSI_MINUS] == patterns(PSI_PLUS, threshold)
    # A sign on a whole spatial mode is only a global phase: nothing moves.
    for kind in BELL_ORDER:
        assert patterns(kind, before=-np.eye(2)) == patterns(kind)
