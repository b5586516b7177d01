"""Tests for conjugate-partner states and auxiliary resource construction."""

from types import SimpleNamespace

import numpy as np
import pytest

from biphoton.auxprep import (
    build_general_aux,
    build_parity_aux4,
    build_parity_aux5,
    conjugate_partner,
)
from biphoton.measurement import (
    TwoPhotonBasis,
    family_from_assignment,
    parity_family,
)
from biphoton.statevec import (
    ValidationError,
    basis_ket,
    from_array,
    inner,
    norm,
    phase_equal,
    superpose,
)

from support import (
    BASIS_LABELS,
    contract,
    dense_state,
    random_assignment,
    random_orthonormal_basis,
)

SQRT2 = np.sqrt(2.0)


def test_conjugate_partner_of_computational_rows():
    basis = TwoPhotonBasis(np.eye(4))
    # |HH> -> |VV>, |HV> -> |VH>, |VH> -> |HV>, |VV> -> |HH>
    expected = ["VV", "VH", "HV", "HH"]
    for i, labels in enumerate(expected):
        partner = conjugate_partner(basis, i)
        assert partner.register == (5, 6)
        assert partner.amplitude(labels) == 1
        assert len(partner) == 1


def test_conjugate_partner_conjugates_and_flips():
    # (|HV> + i|VH>)/sqrt(2)  ->  (|VH> - i|HV>)/sqrt(2)
    rows = np.array(
        [
            [0, 1, 1j, 0],
            [0, 1, -1j, 0],
            [1, 0, 0, 1],
            [1, 0, 0, -1],
        ],
        dtype=complex,
    ) / SQRT2
    basis = TwoPhotonBasis(rows)
    partner = conjugate_partner(basis, 0)
    assert partner.amplitude("VH") == pytest.approx(1 / SQRT2)
    assert partner.amplitude("HV") == pytest.approx(-1j / SQRT2)


@pytest.mark.parametrize("seed", range(6))
def test_conjugate_partners_stay_orthonormal(seed):
    basis = TwoPhotonBasis(
        random_orthonormal_basis(np.random.default_rng(seed))
    )
    partners = [conjugate_partner(basis, i) for i in range(4)]
    for i in range(4):
        for k in range(4):
            want = 1.0 if i == k else 0.0
            assert inner(partners[i], partners[k]) == pytest.approx(
                want, abs=1e-10
            )


def test_conjugate_partner_index_range():
    basis = TwoPhotonBasis(np.eye(4))
    with pytest.raises(ValidationError):
        conjugate_partner(basis, 4)


def test_general_aux_for_parity_family():
    aux = build_general_aux(parity_family())
    assert aux.ket.register == (3, 4, 5, 6, 7, 8)
    assert aux.j_register == (7, 8)
    expected = {
        "HHVVHH": 0.5,  # |HH>|VV>, outcome 0
        "VVHHHH": 0.5,  # |VV>|HH>, outcome 0
        "HVVHHV": 0.5,  # |HV>|VH>, outcome 1
        "VHHVHV": 0.5,  # |VH>|HV>, outcome 1
    }
    assert set(dict(aux.ket.items())) == set(expected)
    for labels, amp in expected.items():
        assert aux.ket.amplitude(labels) == pytest.approx(amp)
    assert norm(aux.ket) == pytest.approx(1.0)


def test_general_aux_single_outcome_family():
    fam = family_from_assignment(np.eye(4), [[1], [1], [1], [1]])
    aux = build_general_aux(fam)
    # all four basis terms point at the same outcome register state |HH>_78
    assert aux.ket.amplitude("HHVVHH") == pytest.approx(0.5)
    assert aux.ket.amplitude("HVVHHH") == pytest.approx(0.5)
    assert norm(aux.ket) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(8))
def test_general_aux_normalized_for_random_families(seed):
    rng = np.random.default_rng(200 + seed)
    n_outcomes = int(rng.integers(1, 5))
    fam = family_from_assignment(
        random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
    )
    aux = build_general_aux(fam)
    assert norm(aux.ket) == pytest.approx(1.0, abs=1e-10)


def test_general_aux_conjugate_pair_entries_are_exactly_real():
    """Entry [k1, k2, 1-k1, 1-k2, ...] sums a * conj(a) over basis rows,
    which is real; no rounding residue may reach the reports."""
    rng = np.random.default_rng(20261018)
    residues = 0
    for _ in range(100):
        n_outcomes = int(rng.integers(1, 5))
        fam = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
        )
        array = build_general_aux(fam).ket.array
        residues += sum(
            bool(np.any(array[k1, k2, 1 - k1, 1 - k2].imag != 0.0))
            for k1 in (0, 1)
            for k2 in (0, 1)
        )
    assert residues == 0


def test_general_aux_prunes_the_summed_resource_once():
    """Rows 0 and 1 share an outcome, so the amplitude of |HV>_34 |VH>_56 |HH>_78
    is (cos^2 + sin^2) / 2 = 1/2; pruning each row's product first would drop
    the 1e-14 term sin^2 and leave 0.499999999999995."""
    c, s = np.cos(1e-7), np.sin(1e-7)
    basis = [[c, s, 0, 0], [-s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    fam = family_from_assignment(basis, [[1, 0], [1, 0], [0, 1], [0, 1]])
    assert build_general_aux(fam).ket.amplitude("HVVHHH") == 0.5


@pytest.mark.parametrize(
    "build, register, amplitude, labels",
    [
        (build_parity_aux5, (3, 4, 5, 6, 7), 0.5, ["HHVVH", "VVHHH", "HVVHV", "VHHVV"]),
        (build_parity_aux4, (3, 4, 5, 6), 2.0 ** -0.5, ["HHVV", "VVHH"]),
    ],
)
def test_parity_resources_are_frozen_constants(build, register, amplitude, labels):
    aux = build()
    assert not aux.ket.array.flags.writeable
    reference = superpose([(amplitude, basis_ket(register, lab)) for lab in labels])
    assert aux.ket == reference


def test_parity_aux5_components():
    aux = build_parity_aux5()
    assert aux.ket.register == (3, 4, 5, 6, 7)
    assert aux.j_register == (7,)
    expected = {
        "HHVVH": 0.5,
        "VVHHH": 0.5,
        "HVVHV": 0.5,
        "VHHVV": 0.5,
    }
    assert set(dict(aux.ket.items())) == set(expected)
    for labels, amp in expected.items():
        assert aux.ket.amplitude(labels) == pytest.approx(amp)
    assert norm(aux.ket) == pytest.approx(1.0)


def test_parity_aux4_components():
    aux = build_parity_aux4()
    assert aux.ket.register == (3, 4, 5, 6)
    assert aux.j_register == ()
    assert aux.ket.amplitude("HHVV") == pytest.approx(1 / SQRT2)
    assert aux.ket.amplitude("VVHH") == pytest.approx(1 / SQRT2)
    assert len(aux.ket) == 2
    assert norm(aux.ket) == pytest.approx(1.0)


def test_parity_aux5_is_general_aux_with_one_photon_register():
    """The 5-photon resource is the general 6-photon resource for the
    parity family with each two-photon outcome state replaced by the
    matching one-photon encoding."""
    general = build_general_aux(parity_family()).ket.array
    five = build_parity_aux5().ket.array
    for j in (0, 1):
        from_general = contract(dense_state({BASIS_LABELS[j]: 1.0}, 2), (4, 5), general)
        from_five = contract(dense_state({"HV"[j]: 1.0}, 1), (4,), five)
        assert from_general.shape == from_five.shape == (2, 2, 2, 2)  # (3, 4, 5, 6)
        assert from_general.ravel() == pytest.approx(from_five.ravel())


def test_parity_aux4_is_even_branch_of_aux5():
    five = build_parity_aux5().ket.array
    four = build_parity_aux4().ket
    even_branch = contract(dense_state({"H": 1.0}, 1), (4,), five)
    assert phase_equal(from_array((3, 4, 5, 6), even_branch), four)
    assert np.linalg.norm(even_branch) == pytest.approx(1 / SQRT2)


def test_conjugate_partner_matches_the_checked_construction():
    rng = np.random.default_rng(77)
    for _ in range(20):
        basis = TwoPhotonBasis(random_orthonormal_basis(rng))
        for i in range(4):
            want = from_array((5, 6), basis.states[i].conj()[[3, 2, 1, 0]])
            partner = conjugate_partner(basis, i)
            assert partner == want and not partner.array.flags.writeable


def test_conjugate_partner_rejects_what_it_always_rejected():
    with pytest.raises(ValidationError, match="non-finite"):
        conjugate_partner(TwoPhotonBasis(np.full((4, 4), np.inf)), 0)
    rows = np.eye(4, dtype=complex)
    rows[2, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        conjugate_partner(SimpleNamespace(states=rows), 2)
