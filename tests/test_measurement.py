"""Tests for orthonormal two-photon bases, outcome assignments and projectors."""

import numpy as np
import pytest

from biphoton.measurement import (
    BASIS_LABELS,
    apply_projector,
    expectation,
    family_from_assignment,
    ket_from_vector,
    parity_family,
    two_photon_vector,
    validate_basis,
)
from biphoton.statevec import ValidationError, basis_ket, norm, normalize, superpose

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
    assert validate_basis(I4).states.shape == (4, 4)
    assert validate_basis(BELL_BASIS) is not None


def test_validate_basis_rejects_duplicate_row():
    bad = np.array(I4)
    bad[1] = bad[0]
    with pytest.raises(ValidationError) as err:
        validate_basis(bad)
    assert "orthonormal" in str(err.value)


def test_validate_basis_rejects_wrong_shape_and_nonfinite():
    with pytest.raises(ValidationError):
        validate_basis(np.eye(3))
    bad = np.array(I4)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        validate_basis(bad)


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
    ],
)
def test_family_rejects_malformed_assignment(table):
    with pytest.raises(ValidationError):
        family_from_assignment(I4, table)


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
    state = superpose(
        [
            (1 / np.sqrt(2), basis_ket((1, 2), "HH")),
            (1 / np.sqrt(2), basis_ket((1, 2), "HV")),
        ]
    )
    even = apply_projector(fam, 0, state)
    assert even.amplitude("HH") == pytest.approx(1 / np.sqrt(2))
    assert even.amplitude("HV") == 0
    odd = apply_projector(fam, 1, state)
    assert odd.amplitude("HV") == pytest.approx(1 / np.sqrt(2))
    # fully even state is left untouched, fully odd state is annihilated
    hh = basis_ket((1, 2), "HH")
    assert apply_projector(fam, 0, hh).amplitude("HH") == pytest.approx(1)
    assert len(apply_projector(fam, 1, hh)) == 0


def test_apply_projector_range_check():
    fam = parity_family()
    with pytest.raises(ValidationError):
        apply_projector(fam, 2, basis_ket((1, 2), "HH"))
    with pytest.raises(ValidationError):
        apply_projector(fam, -1, basis_ket((1, 2), "HH"))
    with pytest.raises(ValidationError):
        apply_projector(fam, 0, basis_ket((1, 2, 3), "HHH"))


def test_expectation_values():
    fam = parity_family()
    assert expectation(fam, 0, basis_ket((1, 2), "HH")) == pytest.approx(1.0)
    mixed = superpose(
        [
            (1 / np.sqrt(2), basis_ket((1, 2), "HH")),
            (1 / np.sqrt(2), basis_ket((1, 2), "HV")),
        ]
    )
    assert expectation(fam, 0, mixed) == pytest.approx(0.5)
    assert expectation(fam, 1, mixed) == pytest.approx(0.5)


def test_expectation_requires_normalized_state():
    fam = parity_family()
    with pytest.raises(ValidationError):
        expectation(fam, 0, superpose([(2.0, basis_ket((1, 2), "HH"))]))


def test_vector_round_trip():
    vec = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    ket = ket_from_vector((1, 2), vec)
    np.testing.assert_allclose(two_photon_vector(ket), vec, atol=1e-15)
    assert ket.amplitude("HV") == 0.5j
    assert list(BASIS_LABELS) == ["HH", "HV", "VH", "VV"]


def test_ket_from_vector_rejects_non_finite_components():
    with pytest.raises(ValidationError, match="non-finite"):
        ket_from_vector((1, 2), [float("nan"), 1, 0, 0])


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
    ket = normalize(ket_from_vector((1, 2), vec))
    probs = []
    for j in range(fam.n_outcomes):
        projected = apply_projector(fam, j, ket)
        np.testing.assert_allclose(
            two_photon_vector(projected), fam.projectors[j] @ vec, atol=1e-10
        )
        p = expectation(fam, j, ket)
        assert p == pytest.approx(norm(projected) ** 2, abs=1e-10)
        probs.append(p)
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
