"""Unit and property tests for the sparse photon-register state algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.statevec import (
    DegenerateStateError,
    Ket,
    ValidationError,
    apply_one_photon,
    basis_ket,
    from_array,
    inner,
    norm,
    normalize,
    partial_bra,
    phase_equal,
    superpose,
    tensor,
    to_array,
)

SQRT2 = math.sqrt(2.0)
Z = [[1, 0], [0, -1]]


# ---------------------------------------------------------------------------
# frozen-value checks
# ---------------------------------------------------------------------------


def test_basis_ket_two_photons():
    ket = basis_ket((1, 2), "HH")
    assert ket.register == (1, 2)
    assert ket.amplitude("HH") == 1
    assert ket.amplitude("HV") == 0
    assert norm(ket) == pytest.approx(1.0)


def test_basis_ket_single_photon_and_four_photons():
    assert basis_ket((7,), "V").components == {"V": 1}
    big = basis_ket((3, 4, 7, 8), "HHHH")
    assert norm(big) == pytest.approx(1.0)
    assert big.amplitude("HHHH") == 1


def test_basis_ket_rejects_bad_input():
    with pytest.raises(ValidationError):
        basis_ket((1, 2), "H")  # label/register length mismatch
    with pytest.raises(ValidationError):
        basis_ket((1, 2), "HX")  # unknown polarization
    with pytest.raises(ValidationError):
        basis_ket((1, 1), "HH")  # repeated photon id


def test_amplitude_rejects_malformed_labels():
    ket = basis_ket((1, 2), "HV")
    with pytest.raises(ValidationError):
        ket.amplitude("H")  # too few labels
    with pytest.raises(ValidationError):
        ket.amplitude("HVH")  # too many labels
    with pytest.raises(ValidationError):
        ket.amplitude("HX")  # unknown polarization


def test_kets_compare_by_register_and_amplitudes():
    hh = basis_ket((1, 2), "HH")
    assert hh == superpose([(1.0, basis_ket((1, 2), "HH"))])
    assert hh != basis_ket((2, 1), "HH")  # different register
    assert hh != superpose([(-1.0, hh)])  # different amplitude
    assert hh != basis_ket((1, 2), "HV")


def test_superpose_psi_plus_pattern():
    psi = superpose(
        [
            (1 / SQRT2, basis_ket((1, 5), "HV")),
            (1 / SQRT2, basis_ket((1, 5), "VH")),
        ]
    )
    assert psi.amplitude("HV") == pytest.approx(1 / SQRT2)
    assert psi.amplitude("VH") == pytest.approx(1 / SQRT2)
    assert norm(psi) == pytest.approx(1.0)


def test_superpose_cancellation_prunes_component():
    ket = basis_ket((1, 2), "HH")
    zero = superpose([(1.0, ket), (-1.0, ket)])
    assert len(zero) == 0
    assert norm(zero) == 0.0


def test_superpose_half_coefficients_normalized():
    # four orthogonal five-photon components with weight 1/2 each
    labels = ["HHVVH", "VVHHH", "HVVHV", "VHHVV"]
    reg = (3, 4, 5, 6, 7)
    ket = superpose([(0.5, basis_ket(reg, lab)) for lab in labels])
    assert norm(ket) == pytest.approx(1.0)
    assert ket.amplitude("HHVVH") == pytest.approx(0.5)


def test_superpose_register_mismatch():
    with pytest.raises(ValidationError):
        superpose([(1.0, basis_ket((1,), "H")), (1.0, basis_ket((2,), "H"))])


def test_tensor_concatenates_registers():
    ket = tensor(basis_ket((1,), "H"), basis_ket((2,), "V"))
    assert ket.register == (1, 2)
    assert ket.amplitude("HV") == 1


def test_tensor_rejects_shared_photon():
    with pytest.raises(ValidationError):
        tensor(basis_ket((1, 2), "HH"), basis_ket((2, 3), "HH"))


def test_inner_bell_overlap():
    psi_plus = superpose(
        [
            (1 / SQRT2, basis_ket((1, 5), "HV")),
            (1 / SQRT2, basis_ket((1, 5), "VH")),
        ]
    )
    assert inner(psi_plus, basis_ket((1, 5), "HV")) == pytest.approx(1 / SQRT2)
    assert inner(basis_ket((1, 5), "HH"), basis_ket((1, 5), "VV")) == 0


def test_inner_register_mismatch():
    with pytest.raises(ValidationError):
        inner(basis_ket((1, 2), "HH"), basis_ket((2, 1), "HH"))


def test_partial_bra_single_photon():
    res = partial_bra(basis_ket((1,), "H"), basis_ket((1, 2), "HH"))
    assert res.register == (2,)
    assert res.amplitude("H") == 1


def test_partial_bra_is_unnormalized_projection():
    # <H|_1 on (|HH> + |VV>)/sqrt(2) leaves |H>_2 with amplitude 1/sqrt(2)
    state = superpose(
        [
            (1 / SQRT2, basis_ket((1, 2), "HH")),
            (1 / SQRT2, basis_ket((1, 2), "VV")),
        ]
    )
    res = partial_bra(basis_ket((1,), "H"), state)
    assert res.amplitude("H") == pytest.approx(1 / SQRT2)
    assert norm(res) ** 2 == pytest.approx(0.5)


def test_partial_bra_double_bell_contraction():
    # |HH>_{12} (x) (|HHVV> + |VVHH>)_{3456}/sqrt(2), contracted against
    # PsiPlus on photons (1,5) then (2,6), leaves (1/(2*sqrt(2)))|HH>_{34}:
    # outcome probability 1/8.
    aux = superpose(
        [
            (1 / SQRT2, basis_ket((3, 4, 5, 6), "HHVV")),
            (1 / SQRT2, basis_ket((3, 4, 5, 6), "VVHH")),
        ]
    )
    total = tensor(basis_ket((1, 2), "HH"), aux)
    psi15 = superpose(
        [
            (1 / SQRT2, basis_ket((1, 5), "HV")),
            (1 / SQRT2, basis_ket((1, 5), "VH")),
        ]
    )
    psi26 = superpose(
        [
            (1 / SQRT2, basis_ket((2, 6), "HV")),
            (1 / SQRT2, basis_ket((2, 6), "VH")),
        ]
    )
    res = partial_bra(psi26, partial_bra(psi15, total))
    assert res.register == (3, 4)
    assert res.amplitude("HH") == pytest.approx(1 / (2 * SQRT2))
    assert norm(res) ** 2 == pytest.approx(1 / 8)


def test_partial_bra_full_register_gives_scalar():
    state = basis_ket((1, 2), "HV")
    res = partial_bra(state, state)
    assert res.register == ()
    assert res.amplitude("") == pytest.approx(1.0)


def test_partial_bra_requires_subset():
    with pytest.raises(ValidationError):
        partial_bra(basis_ket((9,), "H"), basis_ket((1, 2), "HH"))


def test_apply_one_photon_z():
    assert apply_one_photon(Z, 3, basis_ket((3,), "H")).amplitude("H") == 1
    assert apply_one_photon(Z, 3, basis_ket((3,), "V")).amplitude("V") == -1
    state = superpose(
        [
            (0.5, basis_ket((3, 4), "HV")),
            (0.5, basis_ket((3, 4), "VH")),
        ]
    )
    flipped = apply_one_photon(Z, 4, state)
    assert flipped.amplitude("HV") == pytest.approx(-0.5)
    assert flipped.amplitude("VH") == pytest.approx(0.5)


def test_apply_one_photon_unknown_photon():
    with pytest.raises(ValidationError):
        apply_one_photon(Z, 9, basis_ket((1,), "H"))


def test_normalize_and_degenerate():
    ket = superpose([(3.0, basis_ket((1,), "H"))])
    assert norm(normalize(ket)) == pytest.approx(1.0)
    with pytest.raises(DegenerateStateError):
        normalize(superpose([(0.0, basis_ket((1,), "H"))]))


def test_phase_equal_ignores_global_phase():
    a = basis_ket((1, 2), "HH")
    b = superpose([(-1.0, a)])
    c = superpose([(1j, a)])
    assert phase_equal(a, b)
    assert phase_equal(a, c)
    assert not phase_equal(a, basis_ket((1, 2), "HV"))
    # The tolerance bounds each phase-aligned component, not 1 - |<a|b>|.
    even = superpose([(1 / SQRT2, a), (1 / SQRT2, basis_ket((1, 2), "VV"))])
    theta = math.pi / 4 + 1e-5
    rotated = superpose(
        [(math.cos(theta), a), (math.sin(theta), basis_ket((1, 2), "VV"))]
    )
    assert not phase_equal(even, rotated, tol=1e-10)
    perturbed = superpose([(1.0, even), (1e-7, basis_ket((1, 2), "HV"))])
    assert not phase_equal(even, perturbed, tol=1e-10)
    assert phase_equal(even, superpose([(1j, even)]), tol=1e-10)


def test_pruning_threshold_behaviour():
    ket = superpose(
        [
            (1.0, basis_ket((1,), "H")),
            (1e-13, basis_ket((1,), "V")),  # squared 1e-26: dropped
        ]
    )
    assert "V" not in ket.components
    kept = superpose(
        [
            (1.0, basis_ket((1,), "H")),
            (1e-11, basis_ket((1,), "V")),  # squared 1e-22: kept
        ]
    )
    assert "V" in kept.components


def test_dense_layout_is_lexicographic_and_round_trips():
    state = superpose(
        [(0.6, basis_ket((3, 4, 7), "HVV")), (0.8j, basis_ket((3, 4, 7), "VHH"))]
    )
    dense = to_array(state)
    expected = np.zeros(8, dtype=complex)
    expected[0b011], expected[0b100] = 0.6, 0.8j
    np.testing.assert_array_equal(dense, expected)
    back = from_array((3, 4, 7), dense.reshape(2, 2, 2))
    assert back.register == (3, 4, 7)
    assert dict(back.components) == dict(state.components)  # zeros pruned
    with pytest.raises(ValidationError):
        from_array((3, 4), dense)


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

finite_complex = st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


def ket_strategy(register):
    labels = [""]
    for _ in register:
        labels = [lab + pol for lab in labels for pol in "HV"]

    def build(amps):
        return from_array(register, amps)

    return st.lists(
        finite_complex, min_size=len(labels), max_size=len(labels)
    ).map(build)


@given(ket_strategy((1, 2)), ket_strategy((1, 2)), ket_strategy((1, 2)), finite_complex, finite_complex)
def test_inner_is_linear_in_second_argument(a, b, c, x, y):
    combined = superpose([(x, b), (y, c)])
    direct = x * inner(a, b) + y * inner(a, c)
    assert inner(a, combined) == pytest.approx(direct, abs=1e-9)


@given(ket_strategy((1, 2)), ket_strategy((1, 2)))
def test_inner_conjugate_symmetry(a, b):
    assert inner(a, b) == pytest.approx(inner(b, a).conjugate(), abs=1e-12)


@given(ket_strategy((1, 2, 3)))
def test_orthonormal_contractions_conserve_probability(state):
    total = 0.0
    for labels in ("HH", "HV", "VH", "VV"):
        res = partial_bra(basis_ket((1, 2), labels), state)
        total += norm(res) ** 2
    assert total == pytest.approx(norm(state) ** 2, abs=1e-9)


@given(ket_strategy((1,)), ket_strategy((2, 3)), ket_strategy((1, 2, 3)))
def test_partial_bra_is_adjoint_of_tensor(bra, rest, state):
    lhs = inner(partial_bra(bra, state), rest)
    rhs = inner(state, tensor(bra, rest))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(ket_strategy((1,)), ket_strategy((2,)))
def test_tensor_norm_is_multiplicative(a, b):
    assert norm(tensor(a, b)) == pytest.approx(norm(a) * norm(b), abs=1e-9)


@settings(deadline=None)
@given(ket_strategy((1, 2)), st.integers(0, 2**32 - 1))
def test_one_photon_unitary_preserves_norm(state, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    rotated = apply_one_photon(q, 1, state)
    assert norm(rotated) == pytest.approx(norm(state), abs=1e-9)
