"""Tests for orthonormal two-photon bases, outcome assignments and projectors."""

from fractions import Fraction

import numpy as np
import pytest

from biphoton.measurement import (
    BASIS_LABELS,
    TwoPhotonBasis,
    family_from_assignment,
    parity_family,
    shared_family,
)
from biphoton.protocol import oracle_report, run_protocol
from biphoton.statevec import (
    ValidationError,
    basis_ket,
    from_array,
    norm,
    normalize,
    superpose,
    to_array,
)

from support import random_orthonormal_basis, random_assignment, random_unit_vector

I4 = np.eye(4)

BELL_BASIS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) / np.sqrt(2)


def test_validate_basis_accepts_computational_and_bell():
    assert TwoPhotonBasis(I4).states.shape == (4, 4)
    assert TwoPhotonBasis(BELL_BASIS) is not None


def test_validate_basis_rejects_duplicate_row():
    bad = np.array(I4)
    bad[1] = bad[0]
    with pytest.raises(ValidationError) as err:
        TwoPhotonBasis(bad)
    assert "orthonormal" in str(err.value)


def test_validate_basis_rejects_wrong_shape_and_nonfinite():
    with pytest.raises(ValidationError):
        TwoPhotonBasis(np.eye(3))
    bad = np.array(I4)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        TwoPhotonBasis(bad)


def test_family_from_assignment_pairs_of_computational_rows():
    fam = family_from_assignment(I4, [[1, 0], [1, 0], [0, 1], [0, 1]])
    assert fam.n_outcomes == 2
    np.testing.assert_allclose(fam.projectors[0], np.diag([1, 1, 0, 0]), atol=1e-12)
    np.testing.assert_allclose(fam.projectors[1], np.diag([0, 0, 1, 1]), atol=1e-12)


def test_family_single_column_is_identity():
    fam = family_from_assignment(BELL_BASIS, [[1], [1], [1], [1]])
    assert fam.n_outcomes == 1
    np.testing.assert_allclose(fam.projectors[0], I4, atol=1e-12)


def test_family_identity_assignment_gives_rank_one_projectors():
    fam = family_from_assignment(BELL_BASIS, np.eye(4, dtype=int))
    for j, proj in enumerate(fam.projectors):
        assert np.linalg.matrix_rank(proj) == 1
        np.testing.assert_allclose(
            proj, np.outer(BELL_BASIS[j], BELL_BASIS[j].conj()), atol=1e-12
        )


@pytest.mark.parametrize(
    "table",
    [
        [[1, 1], [1, 0], [0, 1], [0, 1]],  # row with two outcomes
        [[0, 0], [1, 0], [0, 1], [0, 1]],  # row with no outcome
        [[1, 0], [1, 0], [1, 0], [1, 0]],  # column 1 empty
        [[2, 0], [1, 0], [0, 1], [0, 1]],  # non-binary entry
        [[1], [1], [1]],  # wrong number of rows
        [[], [], [], []],  # no outcome
        [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],  # J = 5
    ],
)
def test_family_rejects_malformed_assignment(table):
    with pytest.raises(ValidationError):
        family_from_assignment(I4, table)


@pytest.mark.filterwarnings("error")  # as under -W error: no numpy warning first
@pytest.mark.parametrize(
    "table",
    [
        [[1 + 0j], [1], [1], [1]],
        np.ones((4, 1), dtype=complex),
        [[Fraction(1)], [1 + 0j], [1], [1]],  # an object table holding a complex
        [["1"], ["1"], ["1"], ["1"]],
        [[None], [1], [1], [1]],
    ],
    ids=["complex-entry", "complex-array", "object-with-complex", "strings", "none"],
)
def test_family_rejects_a_table_that_is_not_real(table):
    shared_family(I4, [[1], [1], [1], [1]])  # 1 + 0j == 1, and they hash alike
    for build in (family_from_assignment, shared_family):
        with pytest.raises(ValidationError) as excinfo:
            build(I4, table)
        assert str(excinfo.value) == "assignment entries must be 0 or 1"


@pytest.mark.parametrize(
    "entry", [1, 1.0, True, Fraction(1), np.int64(1), np.float32(1), np.True_],
    ids=repr,
)
def test_family_reads_any_real_or_boolean_one(entry):
    family = family_from_assignment(I4, [[entry], [1], [1], [1]])
    assert family.assignment.tolist() == [[1], [1], [1], [1]]


def test_parity_family_projectors():
    fam = parity_family()
    np.testing.assert_allclose(fam.projectors[0], np.diag([1, 0, 0, 1]), atol=1e-12)
    np.testing.assert_allclose(fam.projectors[1], np.diag([0, 1, 1, 0]), atol=1e-12)
    np.testing.assert_allclose(sum(fam.projectors), I4, atol=1e-12)
    # basis rows pair HH with VV (even) and HV with VH (odd)
    np.testing.assert_allclose(fam.basis.states[0], [1, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(fam.basis.states[1], [0, 0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(fam.assignment, [[1, 0], [1, 0], [0, 1], [0, 1]])


def test_apply_projector_parity():
    fam = parity_family()
    vec = np.array([1, 1, 0, 0]) / np.sqrt(2)  # (|HH> + |HV>)/sqrt(2)
    even = fam.projectors[0] @ vec
    assert even[0] == pytest.approx(1 / np.sqrt(2))
    assert even[1] == 0
    odd = fam.projectors[1] @ vec
    assert odd[1] == pytest.approx(1 / np.sqrt(2))
    # fully even state is left untouched, fully odd state is annihilated
    hh = np.array([1, 0, 0, 0])
    assert (fam.projectors[0] @ hh)[0] == pytest.approx(1)
    assert not (fam.projectors[1] @ hh).any()


def test_expectation_values():
    fam = parity_family()
    assert oracle_report(basis_ket((1, 2), "HH"), fam).probabilities[0] == (
        pytest.approx(1.0)
    )
    mixed = superpose(
        [
            (1 / np.sqrt(2), basis_ket((1, 2), "HH")),
            (1 / np.sqrt(2), basis_ket((1, 2), "HV")),
        ]
    )
    assert oracle_report(mixed, fam).probabilities == pytest.approx((0.5, 0.5))


def test_expectation_requires_normalized_state():
    fam = parity_family()
    with pytest.raises(ValidationError):
        oracle_report(superpose([(2.0, basis_ket((1, 2), "HH"))]), fam)


def test_expectation_checks_the_norm_within_default_tol():
    fam = parity_family()
    off = superpose([(1.0 + 1e-9, basis_ket((1, 2), "HH"))])  # norm 1 + 1e-9
    with pytest.raises(ValidationError, match="normalized"):
        oracle_report(off, fam)
    close = superpose([(1.0 + 1e-11, basis_ket((1, 2), "HH"))])
    assert oracle_report(close, fam).probabilities[0] == pytest.approx(1.0)


def test_vector_round_trip():
    vec = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    ket = from_array((1, 2), vec)
    np.testing.assert_allclose(to_array(ket), vec, atol=1e-15)
    assert ket.amplitude("HV") == 0.5j
    assert list(BASIS_LABELS) == ["HH", "HV", "VH", "VV"]


def test_ket_from_vector_rejects_non_finite_components():
    with pytest.raises(ValidationError, match="non-finite"):
        from_array((1, 2), [float("nan"), 1, 0, 0])


def test_ket_from_vector_rejects_bad_shapes():
    with pytest.raises(ValidationError, match="3 amplitudes for 2 photons"):
        from_array((1, 2), [1, 0, 0])
    with pytest.raises(ValidationError, match="4 amplitudes for 3 photons"):
        from_array((1, 2, 3), [1, 0, 0, 0])


def test_two_photon_vector_rejects_other_registers():
    # run_protocol and oracle_report read the input's flat vector only after
    # checking that it lives on the input pair.
    fam = parity_family()
    for build in (run_protocol, oracle_report):
        with pytest.raises(ValidationError, match=r"photons \(1, 2\), got \(1, 2, 3\)"):
            build(basis_ket((1, 2, 3), "HHH"), fam)


@pytest.mark.parametrize("seed", range(12))
def test_random_family_invariants(seed):
    rng = np.random.default_rng(seed)
    n_outcomes = int(rng.integers(1, 5))
    fam = family_from_assignment(
        random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
    )
    total = np.zeros((4, 4), dtype=complex)
    for j, proj in enumerate(fam.projectors):
        np.testing.assert_allclose(proj, proj.conj().T, atol=1e-10)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
        for k in range(j + 1, fam.n_outcomes):
            np.testing.assert_allclose(
                proj @ fam.projectors[k], np.zeros((4, 4)), atol=1e-10
            )
        total += proj
    np.testing.assert_allclose(total, I4, atol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_apply_projector_matches_matrix_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    fam = family_from_assignment(
        random_orthonormal_basis(rng), random_assignment(rng, 3)
    )
    vec = random_unit_vector(rng)
    ket = normalize(from_array((1, 2), vec))
    oracle = oracle_report(ket, fam)  # applies every P_j to the input at once
    for j, (p, state) in enumerate(zip(oracle.probabilities, oracle.states)):
        image = fam.projectors[j] @ vec  # the matrix oracle
        projected = np.sqrt(p) * to_array(state)
        np.testing.assert_allclose(projected, image, atol=1e-10)
        assert p == pytest.approx(np.vdot(image, image).real, abs=1e-10)
    assert sum(oracle.probabilities) == pytest.approx(1.0, abs=1e-10)


def test_projectors_are_exactly_hermitian():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n_outcomes = int(rng.integers(1, 5))
        fam = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
        )
        for proj in fam.projectors:
            assert (proj == proj.conj().T).all()
            assert (np.diagonal(proj).imag == 0).all()
            assert not proj.flags.writeable


@pytest.mark.parametrize("n_outcomes", [1, 2, 3, 4, None])
def test_projectors_are_one_read_only_stack(n_outcomes):
    if n_outcomes is None:
        fam, n_outcomes = parity_family(), 2
    else:
        rng = np.random.default_rng([2027, n_outcomes])
        fam = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
        )
    stack = fam.projectors
    assert type(stack) is np.ndarray and stack.shape == (n_outcomes, 4, 4)
    assert not stack.flags.writeable and fam.n_outcomes == n_outcomes
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = 0
    np.testing.assert_allclose(sum(fam.projectors), I4, atol=1e-12)


def test_basis_is_checked_when_built_by_hand():
    with pytest.raises(ValidationError, match="non-finite"):
        TwoPhotonBasis(np.full((4, 4), np.nan))
    with pytest.raises(ValidationError, match="4x4"):
        TwoPhotonBasis(np.eye(3))
    rows = np.eye(4)
    basis = TwoPhotonBasis(rows)
    rows[0, 0] = 2.0  # the basis keeps its own read-only copy
    assert basis.states[0, 0] == 1.0 and not basis.states.flags.writeable


def test_families_are_values():
    rng = np.random.default_rng(2100)
    basis, table = random_orthonormal_basis(rng), random_assignment(rng, 3)
    fam = family_from_assignment(basis, table)
    same = family_from_assignment(basis.copy(), table.copy())
    assert fam == same and hash(fam) == hash(same) and len({fam, same}) == 1

    nudged = basis.copy()
    nudged[1, 2] = np.nextafter(nudged[1, 2].real, 2.0) + 1j * nudged[1, 2].imag
    # The parity projectors from rows added in another order: another resource.
    reordered = family_from_assignment(I4, [[1, 0], [0, 1], [0, 1], [1, 0]])
    np.testing.assert_array_equal(reordered.projectors, parity_family().projectors)
    others = [
        family_from_assignment(nudged, table),
        family_from_assignment(basis, np.roll(table, 1, axis=1)),
        family_from_assignment(basis, random_assignment(rng, 4)),
    ]
    for other in others:
        assert fam != other and not fam == other
    assert reordered != parity_family() and parity_family() == parity_family()
    assert len({fam, same, reordered, parity_family(), *others}) == 6
    assert fam != fam.basis and fam.__eq__(table) is NotImplemented

    # A bare basis is no key: it is equal only to itself.
    first, second = TwoPhotonBasis(I4), TwoPhotonBasis(I4)
    assert first == first and first != second
    assert len({first, second}) == 2 and hash(first) == hash(first)
