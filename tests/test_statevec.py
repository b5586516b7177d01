"""Unit and property tests for the sparse photon-register state algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import biphoton.statevec as statevec
from biphoton.auxprep import conjugate_partner
from biphoton.measurement import TwoPhotonBasis
from biphoton.statevec import (
    DegenerateStateError,
    Ket,
    ValidationError,
    basis_ket,
    from_array,
    inner,
    norm,
    normalize,
    phase_equal,
    superpose,
    tensor,
    to_array,
)

from support import contract, dense_probability, dense_state

SQRT2 = math.sqrt(2.0)


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
    assert dict(basis_ket((7,), "V").items()) == {"V": 1}
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


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: basis_ket((True, 2), "HH"), "photon id True is not", id="bool-id"
        ),
        pytest.param(
            lambda: from_array((1, False), [1, 0, 0, 0]), "photon id False is not",
            id="bool-id-from-array",
        ),
        pytest.param(
            lambda: basis_ket((1.0, 2), "HH"), "photon id 1.0 is not", id="float-id"
        ),
        pytest.param(lambda: superpose([]), "at least one term", id="no-terms"),
        pytest.param(
            lambda: conjugate_partner(TwoPhotonBasis(np.eye(4)), True),
            "basis row index True is not", id="bool-row",
        ),
        pytest.param(
            lambda: conjugate_partner(TwoPhotonBasis(np.eye(4)), 1.5),
            "basis row index 1.5 is not", id="float-row",
        ),
    ],
)
def test_malformed_arguments_are_rejected_by_name(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_a_ket_equals_no_other_type():
    h = basis_ket((1,), "H")
    assert h.__eq__(h.array) is NotImplemented
    assert h != "H" and h != h.array.tolist()


def test_superpose_rejects_non_finite_coefficient():
    h = basis_ket((1,), "H")
    for coeff in (math.inf, -math.inf, math.nan, complex(0.0, math.inf)):
        with pytest.raises(ValidationError, match="non-finite"):
            superpose([(coeff, h)])
    with pytest.raises(ValidationError, match="non-finite"):
        superpose([(1.0, h), (math.nan, basis_ket((1,), "V"))])


def test_from_array_rejects_non_finite_amplitudes():
    for amplitudes in (
        [math.nan, 1, 0, 0],
        [0, math.inf, 0, 0],
        [0, 0, complex(1.0, -math.inf), 0],
    ):
        with pytest.raises(ValidationError, match="non-finite"):
            from_array((1, 2), amplitudes)


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


def test_phase_equal_works_on_the_arrays(monkeypatch):
    a = superpose([(3.0, basis_ket((1, 2), "HH")), (4.0, basis_ket((1, 2), "VV"))])
    b = superpose([(-0.6j, basis_ket((1, 2), "HH")), (-0.8j, basis_ket((1, 2), "VV"))])
    hh = basis_ket((1, 2), "HH")
    zero = superpose([(0.0, hh)])

    def no_new_kets(*args):
        raise AssertionError("phase_equal built a Ket")

    monkeypatch.setattr(statevec, "_ket", no_new_kets)
    assert phase_equal(a, b)
    assert not phase_equal(a, hh)
    with pytest.raises(DegenerateStateError):
        phase_equal(a, zero)
    with pytest.raises(DegenerateStateError):
        phase_equal(zero, b)


def test_degenerate_states_follow_the_amplitude_zero_rule():
    # norm**2 at PRUNE_THRESHOLD is still a state; the zero state is not
    tiny = superpose([(1e-12, basis_ket((1,), "H"))])
    assert norm(normalize(tiny)) == pytest.approx(1.0)
    assert phase_equal(tiny, basis_ket((1,), "H"))
    with pytest.raises(DegenerateStateError):
        normalize(superpose([(9e-13, basis_ket((1,), "H"))]))


def test_tensor_of_conjugate_amplitudes_has_exactly_real_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = from_array((1, 2), amps)
        b = from_array((3, 4), amps.conj())
        product = tensor(a, b).array
        reference = np.multiply.outer(a.array, b.array)
        scale = np.abs(amps).max() ** 2
        np.testing.assert_allclose(product, reference, rtol=0, atol=4e-16 * scale)
        for k1 in (0, 1):
            for k2 in (0, 1):
                assert product[k1, k2, k1, k2].imag == 0.0


def test_tensor_bits_are_the_written_out_product_rule():
    rng = np.random.default_rng(11)
    for n_a in (1, 2, 3):
        for n_b in (1, 2, 3):
            a, b = (
                from_array(register, rng.normal(size=size) + 1j * rng.normal(size=size))
                for register, size in ((range(n_a), 2**n_a), (range(9, 9 + n_b), 2**n_b))
            )
            x, y = a.array.reshape(-1, 1), b.array.reshape(1, -1)
            want = np.empty((x.size, y.size), dtype=complex)
            want.real = x.real * y.real - x.imag * y.imag
            want.imag = x.real * y.imag + x.imag * y.real
            got = tensor(a, b)
            assert got.register == a.register + b.register
            assert got.array.tobytes() == want.tobytes()


def test_pruning_threshold_behaviour():
    ket = superpose(
        [
            (1.0, basis_ket((1,), "H")),
            (1e-13, basis_ket((1,), "V")),  # squared 1e-26: dropped
        ]
    )
    assert "V" not in dict(ket.items())
    kept = superpose(
        [
            (1.0, basis_ket((1,), "H")),
            (1e-11, basis_ket((1,), "V")),  # squared 1e-22: kept
        ]
    )
    assert "V" in dict(kept.items())


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
    assert dict(back.items()) == dict(state.items())  # zeros pruned
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
        res = contract(dense_state({labels: 1.0}, 2), (0, 1), state.array)
        total += dense_probability(res)
    assert total == pytest.approx(norm(state) ** 2, abs=1e-9)


@given(ket_strategy((1,)), ket_strategy((2,)))
def test_tensor_norm_is_multiplicative(a, b):
    assert norm(tensor(a, b)) == pytest.approx(norm(a) * norm(b), abs=1e-9)
