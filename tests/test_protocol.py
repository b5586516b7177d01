"""Tests for Bell analysis, exhaustive branch enumeration, corrections and
the projector-algebra oracle."""

import dataclasses
import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphoton.auxprep as auxprep
import biphoton.protocol as protocol
from biphoton.cli import emit_report
from biphoton.measurement import (
    ProjectorFamily,
    family_from_assignment,
    parity_family,
)
from biphoton.protocol import (
    BELL_ORDER,
    CORRECTIONS,
    IDEAL_ANALYZER,
    LINEAR_ANALYZER,
    MODES,
    AnalyzerModel,
    BellOutcome,
    bell_ket,
    compare_reports,
    corrections_for,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import (
    DEFAULT_TOL,
    PRUNE_THRESHOLD,
    ZERO_PROBABILITY,
    ValidationError,
    basis_ket,
    complex_product,
    from_array,
    inner,
    norm,
    normalize,
    phase_equal,
    superpose,
    tensor,
    to_array,
)

from support import (
    BASIS_LABELS,
    BELL_VECTORS,
    branch_walk_mismatches,
    contract,
    dense_bell_pair_residual,
    dense_corrected,
    dense_from_ket,
    dense_general_aux,
    dense_probability,
    dense_state,
    dense_total,
    random_orthonormal_basis,
    random_assignment,
    random_unit_vector,
    two_photon_tensor,
)

SQRT2 = np.sqrt(2.0)

PSI_PLUS = BellOutcome.PSI_PLUS
PSI_MINUS = BellOutcome.PSI_MINUS
PHI_PLUS = BellOutcome.PHI_PLUS
PHI_MINUS = BellOutcome.PHI_MINUS


def input_ket(vec4):
    return from_array((1, 2), np.asarray(vec4, dtype=complex))


def hh_input():
    return basis_ket((1, 2), "HH")


# ---------------------------------------------------------------------------
# Bell states and analyzers
# ---------------------------------------------------------------------------


def test_bell_ket_amplitudes():
    psi_p = bell_ket(PSI_PLUS, (1, 5))
    assert psi_p.amplitude("HV") == pytest.approx(1 / SQRT2)
    assert psi_p.amplitude("VH") == pytest.approx(1 / SQRT2)
    psi_m = bell_ket(PSI_MINUS, (1, 5))
    assert psi_m.amplitude("HV") == pytest.approx(1 / SQRT2)
    assert psi_m.amplitude("VH") == pytest.approx(-1 / SQRT2)
    phi_p = bell_ket(PHI_PLUS, (2, 6))
    assert phi_p.amplitude("HH") == pytest.approx(1 / SQRT2)
    assert phi_p.amplitude("VV") == pytest.approx(1 / SQRT2)
    phi_m = bell_ket(PHI_MINUS, (2, 6))
    assert phi_m.amplitude("HH") == pytest.approx(1 / SQRT2)
    assert phi_m.amplitude("VV") == pytest.approx(-1 / SQRT2)


def test_bell_states_are_orthonormal():
    kets = [bell_ket(kind, (1, 2)) for kind in BELL_ORDER]
    for i, a in enumerate(kets):
        for k, b in enumerate(kets):
            assert inner(a, b) == pytest.approx(1.0 if i == k else 0.0)


def test_bell_ket_requires_distinct_photons():
    with pytest.raises(ValidationError):
        bell_ket(PSI_PLUS, (3, 3))


def test_analyzer_presets():
    assert LINEAR_ANALYZER.distinguishable == frozenset({PSI_PLUS, PSI_MINUS})
    assert IDEAL_ANALYZER.distinguishable == frozenset(BELL_ORDER)
    assert LINEAR_ANALYZER.name == "linear"
    assert IDEAL_ANALYZER.name == "ideal"


# ---------------------------------------------------------------------------
# corrections
# ---------------------------------------------------------------------------


def test_correction_table():
    assert corrections_for((PSI_PLUS, PSI_PLUS)) == ()
    assert corrections_for((PSI_PLUS, PSI_MINUS)) == ((4, "Z"),)
    assert corrections_for((PSI_MINUS, PSI_PLUS)) == ((3, "Z"),)
    assert corrections_for((PSI_MINUS, PSI_MINUS)) == ((3, "Z"), (4, "Z"))
    with pytest.raises(ValidationError):
        corrections_for((PHI_PLUS, PSI_PLUS))


def test_a_z_correction_is_a_sign_on_its_kept_photon_axis():
    # Z = diag(1, -1): on photon 4 of 0.5(|HV> + |VH>)_34 it flips |HV>.
    state = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert (state * protocol._SIGN_MASKS[(4, "Z")]).tolist() == [[0, -0.5], [0.5, 0]]
    assert (state * protocol._SIGN_MASKS[(3, "Z")]).tolist() == [[0, 0.5], [-0.5, 0]]
    assert set(protocol._SIGN_MASKS) == {(3, "Z"), (4, "Z")}
    for correction, mask in protocol._SIGN_MASKS.items():
        assert (state * mask == dense_corrected([correction], state)).all()


@pytest.mark.parametrize("seed", range(5))
def test_corrections_map_accepted_residuals_onto_reference(seed):
    """Every accepted Bell pair's residual, after its phase corrections,
    matches the (PsiPlus, PsiPlus) reference residual."""
    rng = np.random.default_rng(300 + seed)
    beta_vec = random_unit_vector(rng)
    total = dense_total(beta_vec, auxprep.build_parity_aux5().ket.array)

    def pair_residual(b15, b26):  # on photons (3, 4, 7)
        return dense_bell_pair_residual(total, b15.value, b26.value, 7)

    reference = from_array((3, 4, 7), pair_residual(PSI_PLUS, PSI_PLUS))
    for pair in [
        (PSI_PLUS, PSI_MINUS),
        (PSI_MINUS, PSI_PLUS),
        (PSI_MINUS, PSI_MINUS),
    ]:
        corrected = dense_corrected(corrections_for(pair), pair_residual(*pair))
        assert phase_equal(from_array((3, 4, 7), corrected), reference, tol=1e-10)
        assert np.linalg.norm(corrected) == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# run_protocol: general mode
# ---------------------------------------------------------------------------


def test_general_mode_even_input_branch_table():
    report = run_protocol(hh_input(), parity_family(), mode="general")
    assert report.mode == "general"
    assert len(report.branches) == 19

    first = report.branches[0]
    assert (first.bell15, first.bell26) == (PSI_PLUS, PSI_PLUS)
    assert first.register_result == "HH"
    assert first.classification == "success(0)"
    assert first.probability == pytest.approx(1 / 16, abs=1e-12)
    assert first.corrections == ()
    assert phase_equal(first.residual, basis_ket((3, 4), "HH"))

    # remaining register outcomes of the accepted pair carry no weight
    for row, labels in zip(report.branches[1:4], ("HV", "VH", "VV")):
        assert row.register_result == labels
        assert row.classification == "zero"
        assert row.probability <= 1e-12
        assert row.residual is None

    # every other Bell pair is a single inconclusive row of weight 1/16
    rest = report.branches[4:]
    assert len(rest) == 15
    for row in rest:
        assert row.classification == "inconclusive"
        assert row.register_result is None
        assert row.probability == pytest.approx(1 / 16, abs=1e-12)
        assert norm(row.residual) == pytest.approx(1.0)

    assert report.success_probability == pytest.approx(1 / 16, abs=1e-12)
    assert report.conditional_j == pytest.approx((1.0, 0.0))
    assert report.inconclusive_probability == pytest.approx(15 / 16, abs=1e-12)


def test_general_mode_balanced_input_conditional_distribution():
    beta = input_ket(np.array([1, 1, 0, 0]) / SQRT2)
    report = run_protocol(beta, parity_family(), mode="general")
    assert report.success_probability == pytest.approx(1 / 16, abs=1e-10)
    assert report.conditional_j == pytest.approx((0.5, 0.5), abs=1e-10)
    success = [b for b in report.branches if b.is_success]
    assert [b.j for b in success] == [0, 1]
    for row in success:
        assert row.probability == pytest.approx(1 / 32, abs=1e-10)


def test_general_mode_branch_enumeration_order():
    report = run_protocol(hh_input(), parity_family(), mode="general")
    pairs = [(b.bell15, b.bell26) for b in report.branches]
    # major index: Bell outcome on photons (1,5); minor: photons (2,6);
    # the accepted first pair splits into four register rows
    expected = [(PSI_PLUS, PSI_PLUS)] * 4
    for b15 in BELL_ORDER:
        for b26 in BELL_ORDER:
            if (b15, b26) != (PSI_PLUS, PSI_PLUS):
                expected.append((b15, b26))
    assert pairs == expected
    register_results = [b.register_result for b in report.branches[:4]]
    assert register_results == ["HH", "HV", "VH", "VV"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_general_mode_matches_dense_contraction_oracle(seed):
    """Every branch probability and residual agrees with an independent
    dense-tensor contraction of the same eight-photon state."""
    rng = np.random.default_rng(400 + seed)
    n_outcomes = int(rng.integers(2, 5))
    basis = random_orthonormal_basis(rng)
    table = random_assignment(rng, n_outcomes)
    beta_vec = random_unit_vector(rng)

    family = family_from_assignment(basis, table)
    report = run_protocol(input_ket(beta_vec), family, mode="general")

    total = dense_total(beta_vec, dense_general_aux(basis, table))
    for row in report.branches:
        after15 = contract(BELL_VECTORS[row.bell15.value], (0, 4), total)
        dense_res = contract(BELL_VECTORS[row.bell26.value], (0, 3), after15)
        if row.register_result is not None:
            dense_res = contract(
                dense_state({row.register_result: 1.0}, 2), (2, 3), dense_res
            )
        assert row.probability == pytest.approx(
            dense_probability(dense_res), abs=1e-10
        )
        if row.residual is not None:
            mine = dense_from_ket(row.residual)
            overlap = abs(np.vdot(mine, dense_res)) / np.linalg.norm(dense_res)
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_accepted_pair_residual_decomposes_over_outcomes():
    rng = np.random.default_rng(7)
    beta_vec = random_unit_vector(rng)
    family = family_from_assignment(
        random_orthonormal_basis(rng), random_assignment(rng, 3)
    )
    total = dense_total(beta_vec, auxprep.build_general_aux(family).ket.array)
    res = dense_bell_pair_residual(total, "PsiPlus", "PsiPlus", 8)
    assert np.linalg.norm(res) == pytest.approx(0.25, abs=1e-10)
    expected = sum(
        np.multiply.outer(
            two_photon_tensor(family.projectors[j] @ beta_vec),
            dense_state({BASIS_LABELS[j]: 1.0}, 2),
        )
        for j in range(family.n_outcomes)
    )
    kept_and_register = (3, 4, 7, 8)
    assert phase_equal(
        from_array(kept_and_register, res),
        from_array(kept_and_register, expected),
        tol=1e-10,
    )


# ---------------------------------------------------------------------------
# run_protocol: parity modes
# ---------------------------------------------------------------------------


def test_parity5_even_input_branch_table():
    report = run_protocol(hh_input(), parity_family(), mode="parity5")
    assert len(report.branches) == 20

    success = [b for b in report.branches if b.is_success]
    assert len(success) == 4
    for row in success:
        assert row.register_result == "H"
        assert row.j == 0
        assert row.probability == pytest.approx(1 / 16, abs=1e-12)
        assert phase_equal(row.residual, basis_ket((3, 4), "HH"))
    classifications = {
        (row.bell15, row.bell26): row.classification for row in success
    }
    assert classifications == {
        (PSI_PLUS, PSI_PLUS): "success(0)",
        (PSI_PLUS, PSI_MINUS): "correctable->success(0)",
        (PSI_MINUS, PSI_PLUS): "correctable->success(0)",
        (PSI_MINUS, PSI_MINUS): "correctable->success(0)",
    }
    corrections = {
        (row.bell15, row.bell26): row.corrections for row in success
    }
    assert corrections == {
        (PSI_PLUS, PSI_PLUS): (),
        (PSI_PLUS, PSI_MINUS): ((4, "Z"),),
        (PSI_MINUS, PSI_PLUS): ((3, "Z"),),
        (PSI_MINUS, PSI_MINUS): ((3, "Z"), (4, "Z")),
    }

    zero = [b for b in report.branches if b.classification == "zero"]
    assert len(zero) == 4  # odd-parity register outcome of each accepted pair
    assert all(b.register_result == "V" for b in zero)

    inconclusive = [b for b in report.branches if b.classification == "inconclusive"]
    assert len(inconclusive) == 12
    for row in inconclusive:
        assert row.probability == pytest.approx(1 / 16, abs=1e-12)
        assert {row.bell15, row.bell26} & {PHI_PLUS, PHI_MINUS}

    assert report.success_probability == pytest.approx(0.25, abs=1e-10)
    assert report.conditional_j == pytest.approx((1.0, 0.0))
    assert report.inconclusive_probability == pytest.approx(0.75, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_parity5_accepted_pairs_weigh_one_sixteenth_each(seed):
    rng = np.random.default_rng(500 + seed)
    beta = input_ket(random_unit_vector(rng))
    report = run_protocol(beta, parity_family(), mode="parity5")
    per_pair = {}
    for row in report.branches:
        if row.register_result is not None:
            key = (row.bell15, row.bell26)
            per_pair[key] = per_pair.get(key, 0.0) + row.probability
    assert len(per_pair) == 4
    for value in per_pair.values():
        assert value == pytest.approx(1 / 16, abs=1e-10)
    assert report.success_probability == pytest.approx(0.25, abs=1e-10)


def test_parity4_even_input_branch_table():
    report = run_protocol(hh_input(), parity_family(), mode="parity4")
    assert len(report.branches) == 16

    success = [b for b in report.branches if b.is_success]
    assert len(success) == 4
    for row in success:
        assert row.register_result is None
        assert row.j == 0
        assert row.probability == pytest.approx(1 / 8, abs=1e-12)
        assert phase_equal(row.residual, basis_ket((3, 4), "HH"))

    assert report.success_probability == pytest.approx(0.5, abs=1e-10)
    assert report.conditional_j == pytest.approx((1.0, 0.0))

    # for |HH> the mixed Psi/Phi pairs carry no weight at all
    zero = [b for b in report.branches if b.classification == "zero"]
    assert len(zero) == 8
    both_phi = [
        b
        for b in report.branches
        if {b.bell15, b.bell26} <= {PHI_PLUS, PHI_MINUS}
    ]
    for row in both_phi:
        assert row.classification == "inconclusive"
        assert row.probability == pytest.approx(1 / 8, abs=1e-12)


def test_parity4_odd_input_never_succeeds():
    report = run_protocol(basis_ket((1, 2), "HV"), parity_family(), mode="parity4")
    assert report.success_probability == pytest.approx(0.0, abs=1e-12)
    assert all(not b.is_success for b in report.branches)
    total = sum(b.probability for b in report.branches)
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_parity4_success_probability_tracks_even_component(seed):
    rng = np.random.default_rng(600 + seed)
    vec = random_unit_vector(rng)
    even_weight = abs(vec[0]) ** 2 + abs(vec[3]) ** 2
    report = run_protocol(input_ket(vec), parity_family(), mode="parity4")
    assert report.success_probability == pytest.approx(
        0.5 * even_weight, abs=1e-10
    )
    for row in report.branches:
        if row.is_success:
            assert row.probability == pytest.approx(
                even_weight / 8, abs=1e-10
            )


@pytest.mark.parametrize("mode", ["general", "parity5", "parity4"])
@pytest.mark.parametrize("seed", range(3))
def test_branch_probabilities_sum_to_one(mode, seed):
    rng = np.random.default_rng(700 + seed)
    beta = input_ket(random_unit_vector(rng))
    report = run_protocol(beta, parity_family(), mode=mode)
    assert sum(b.probability for b in report.branches) == pytest.approx(
        1.0, abs=1e-10
    )


def compiled_transfer(family, register):
    """``T`` of ``family`` on ``register``, from the run's one compiler, uncached."""
    return protocol._built_transfer.__wrapped__(
        family, register, auxprep.conjugate_partner
    )


def _resources():
    """(family, register) of both parity resources and 20 general ones."""
    yield parity_family(), auxprep.J_REGISTER_ONE
    yield parity_family(), ()
    rng = np.random.default_rng(900)
    for n_outcomes in (1, 2, 3, 4):
        for _ in range(5):
            family = family_from_assignment(
                random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
            )
            yield family, auxprep.J_REGISTER_TWO


def test_transfer_tensor_conserves_probability_for_every_input():
    # sum over all branches of T^dagger T = I: the branch probabilities
    # sum to |beta|^2 for every input, not only for sampled ones.
    for family, register in _resources():
        t = compiled_transfer(family, register).reshape(-1, 4, 4)
        gram = np.einsum("nki,nkj->ij", t.conj(), t)
        np.testing.assert_allclose(gram, np.eye(4), rtol=0, atol=1e-12)


#: The Pauli byproduct each Bell outcome teleports, sigma = (I, Z, X, XZ).
PAULI = {
    PSI_PLUS: np.eye(2),
    PSI_MINUS: np.diag([1.0, -1.0]),
    PHI_PLUS: np.array([[0.0, 1.0], [1.0, 0.0]]),
    PHI_MINUS: np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def closed_form_transfer(family, readings):
    """``T[b15, b26, r] = c P_r (sigma_b15 (x) sigma_b26)`` and its ``c``, from the
    projectors alone: ``c = 1/(2 sqrt(n))`` over the ``n`` basis rows whose
    outcome is below ``readings``, and readings ``r >= J`` are zero."""
    n = int((family.assignment.argmax(axis=1) < readings).sum())
    c = 1 / (2 * np.sqrt(n))
    t = np.zeros((4, 4, readings, 4, 4), dtype=complex)
    for a, b15 in enumerate(BELL_ORDER):
        for b, b26 in enumerate(BELL_ORDER):
            byproduct = np.kron(PAULI[b15], PAULI[b26])
            for r in range(min(readings, family.n_outcomes)):
                t[a, b, r] = c * family.projectors[r] @ byproduct
    return c, t


def _mode_resources():
    """(mode, family, resource): both parity resources, and the general one
    of the parity family and of 25 Haar families for each J = 1..4."""
    yield "parity5", parity_family(), auxprep.build_parity_aux5()
    yield "parity4", parity_family(), auxprep.build_parity_aux4()
    yield "general", parity_family(), auxprep.build_general_aux(parity_family())
    rng = np.random.default_rng(1500)
    for n_outcomes in (1, 2, 3, 4):
        for _ in range(25):
            family = family_from_assignment(
                random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
            )
            yield "general", family, auxprep.build_general_aux(family)


def test_transfer_tensor_has_its_closed_form():
    scales = {}
    for mode, family, aux in _mode_resources():
        c, want = closed_form_transfer(family, 2 ** len(aux.j_register))
        got = compiled_transfer(family, aux.j_register)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15
        assert (got[:, :, family.n_outcomes :] == 0).all()
        scales.setdefault(mode, set()).add(c)
    # One c per mode, and the mode table's weight is its square.
    for mode in MODES:
        (c,) = scales[mode]
        assert protocol._MODE_TABLE[mode][1] == pytest.approx(c**2, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_outcomes=st.integers(1, 4))
def test_general_transfer_tensor_has_its_closed_form_for_any_haar_family(
    seed, n_outcomes
):
    rng = np.random.default_rng(seed)
    family = family_from_assignment(
        random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
    )
    _, want = closed_form_transfer(family, 4)
    got = compiled_transfer(family, auxprep.J_REGISTER_TWO)
    assert np.abs(got - want).max() <= 1e-15
    assert (got[:, :, n_outcomes:] == 0).all()


def test_the_compiler_keeps_the_rows_each_register_can_record():
    # One formula for every (family, register): rows whose outcome the register
    # cannot record drop out of T and of c, here J = 1..4 on every register.
    rng = np.random.default_rng(1510)
    for n_outcomes in (1, 2, 3, 4):
        for _ in range(5):
            family = family_from_assignment(
                random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
            )
            for register in (auxprep.J_REGISTER_TWO, auxprep.J_REGISTER_ONE, ()):
                _, want = closed_form_transfer(family, 2 ** len(register))
                got = compiled_transfer(family, register)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("analyzer", [LINEAR_ANALYZER, IDEAL_ANALYZER])
def test_contraction_bytes_ignore_layout_and_batch_shape(mode, analyzer):
    # One rounding path: the residuals of input k are the same bits whether
    # T is C- or F-ordered and whether k runs alone or as row k of a batch,
    # and run_protocol reads its probabilities off exactly those bits.
    rng = np.random.default_rng([31, MODES.index(mode)])
    family = parity_family()
    if mode == "general":
        family = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, 4)
        )
    aux = {
        "general": lambda: auxprep.build_general_aux(family),
        "parity5": auxprep.build_parity_aux5,
        "parity4": auxprep.build_parity_aux4,
    }[mode]()
    t = compiled_transfer(family, aux.j_register)
    inputs = np.array([random_unit_vector(rng) for _ in range(64)])
    batch = complex_product(t[None], inputs[:, None, None, None, None])
    readings = {"general": BASIS_LABELS, "parity5": "HV", "parity4": ()}[mode]
    pairs = [(a, b) for a in BELL_ORDER for b in BELL_ORDER]
    for k, vec in enumerate(inputs):
        alone = complex_product(t, vec)
        assert np.array_equal(batch[k], alone)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            assert np.array_equal(complex_product(layout(t), vec), alone)
        weights = (alone.real**2 + alone.imag**2).sum(axis=-1).reshape(16, -1)
        pooled = weights.sum(axis=1)
        report = run_protocol(input_ket(vec), family, mode, analyzer)
        for branch in report.branches:
            p = pairs.index((branch.bell15, branch.bell26))
            if branch.register_result is None:
                assert branch.probability == pooled[p]
            else:
                r = readings.index(branch.register_result)
                assert branch.probability == weights[p, r]


def test_residual_present_exactly_when_weight_is():
    rng = np.random.default_rng(42)
    beta = input_ket(random_unit_vector(rng))
    for mode in ("general", "parity5", "parity4"):
        report = run_protocol(beta, parity_family(), mode=mode)
        for row in report.branches:
            if row.probability > 1e-12:
                assert row.residual is not None
                assert norm(row.residual) == pytest.approx(1.0, abs=1e-10)
            else:
                assert row.classification == "zero"
                assert row.residual is None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("analyzer", [LINEAR_ANALYZER, IDEAL_ANALYZER])
def test_branch_residuals_are_read_only_pruned_unit_states(mode, analyzer):
    rng = np.random.default_rng([77, MODES.index(mode)])
    cases = [(parity_family(), random_unit_vector(rng)) for _ in range(6)]
    if mode == "general":
        for n_outcomes in (1, 2, 3, 4):
            family = family_from_assignment(
                random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
            )
            cases.append((family, random_unit_vector(rng)))
        # The odd rows mix HV and VH by 1e-2, so the input's 2e-12 HV part
        # puts ~2e-14 where the HH part puts nothing: pruning must zero it.
        c, s = np.sqrt(1 - 1e-4), 1e-2
        near_parity = [[1, 0, 0, 0], [0, 0, 0, 1], [0, c, s, 0], [0, -s, c, 0]]
        family = family_from_assignment(near_parity, np.eye(4, dtype=int))
        cases.append((family, [1, 2e-12, 0, 0]))
    for family, vec in cases:
        beta = input_ket(np.asarray(vec) / np.linalg.norm(vec))
        report = run_protocol(beta, family, mode=mode, analyzer=analyzer)
        for row in report.branches:
            if row.residual is None:
                continue
            amplitudes = row.residual.array
            assert amplitudes.shape == (2,) * len(row.residual.register)
            assert not amplitudes.flags.writeable
            squared = np.abs(amplitudes) ** 2
            assert not ((squared > 0) & (squared < PRUNE_THRESHOLD)).any()
            assert abs(norm(row.residual) - 1.0) <= DEFAULT_TOL


# ---------------------------------------------------------------------------
# analyzers and validation
# ---------------------------------------------------------------------------


def test_ideal_analyzer_matches_linear_for_psi_acceptance():
    beta = hh_input()
    linear = run_protocol(beta, parity_family(), mode="parity5")
    ideal = run_protocol(
        beta, parity_family(), mode="parity5", analyzer=IDEAL_ANALYZER
    )
    assert ideal.success_probability == pytest.approx(
        linear.success_probability
    )
    assert [b.classification for b in ideal.branches] == [
        b.classification for b in linear.branches
    ]
    assert ideal.analyzer.name == "ideal"


def test_restricted_analyzer_shrinks_acceptance():
    only_psi_plus = AnalyzerModel("custom", frozenset({PSI_PLUS}))
    report = run_protocol(
        hh_input(), parity_family(), mode="parity5", analyzer=only_psi_plus
    )
    assert report.success_probability == pytest.approx(1 / 16, abs=1e-10)
    success_pairs = {
        (b.bell15, b.bell26) for b in report.branches if b.is_success
    }
    assert success_pairs == {(PSI_PLUS, PSI_PLUS)}


def test_run_protocol_validation_errors():
    fam = parity_family()
    with pytest.raises(ValidationError):
        run_protocol(basis_ket((2, 1), "HH"), fam)  # wrong register labels
    with pytest.raises(ValidationError):
        run_protocol(
            superpose([(2.0, hh_input())]), fam
        )  # unnormalized input
    with pytest.raises(ValidationError):
        run_protocol(hh_input(), fam, mode="parity3")  # unknown mode
    first_photon_family = family_from_assignment(
        np.eye(4), [[1, 0], [1, 0], [0, 1], [0, 1]]
    )  # projects on the first photon's polarization, not on parity
    with pytest.raises(ValidationError):
        run_protocol(hh_input(), first_photon_family, mode="parity5")


@pytest.mark.parametrize(
    "state", [[1, 0, 0, 0], np.array([1, 0, 0, 0])], ids=["list", "array"]
)
def test_an_input_that_is_not_a_ket_is_rejected_by_name(state):
    for call in (
        lambda: run_protocol(state, parity_family()),
        lambda: oracle_report(state, parity_family()),
    ):
        with pytest.raises(ValidationError) as excinfo:
            call()
        assert str(excinfo.value) == f"input_state must be a Ket, got {state!r}"


@pytest.mark.parametrize("family", [None, parity_family().basis], ids=["None", "basis"])
def test_a_family_that_is_not_a_projector_family_is_rejected_by_name(family):
    for call in (
        lambda: run_protocol(hh_input(), family),
        lambda: oracle_report(hh_input(), family),
    ):
        with pytest.raises(ValidationError) as excinfo:
            call()
        assert str(excinfo.value) == f"family must be a ProjectorFamily, got {family!r}"


@pytest.mark.parametrize(
    "analyzer",
    ["linear", None, frozenset(BELL_ORDER)],
    ids=["name", "None", "outcomes"],
)
def test_an_analyzer_that_is_not_an_analyzer_model_is_rejected_by_name(analyzer):
    with pytest.raises(ValidationError) as excinfo:
        run_protocol(hh_input(), parity_family(), "general", analyzer)
    assert str(excinfo.value) == (
        f"analyzer must be an AnalyzerModel such as LINEAR_ANALYZER, got {analyzer!r}"
    )


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, 1.0, "tight", True])
def test_library_rejects_bad_tol(tol):
    fam = parity_family()
    report = run_protocol(hh_input(), fam, mode="parity5")
    oracle = oracle_report(hh_input(), fam)
    for call in (
        lambda: run_protocol(hh_input(), fam, mode="parity5", tol=tol),
        lambda: oracle_report(hh_input(), fam, tol=tol),
        lambda: compare_reports(report, oracle, tol=tol),
    ):
        with pytest.raises(ValidationError, match="tol must"):
            call()


def test_parity_modes_accept_any_family_with_parity_projectors():
    # a rotated basis of the even/odd subspaces yields the same projectors
    rot = np.array(
        [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1j, 0], [0, 1, -1j, 0]],
        dtype=complex,
    ) / SQRT2
    fam = family_from_assignment(rot, [[1, 0], [1, 0], [0, 1], [0, 1]])
    report = run_protocol(hh_input(), fam, mode="parity5")
    assert report.success_probability == pytest.approx(0.25, abs=1e-10)


# ---------------------------------------------------------------------------
# oracle and comparison
# ---------------------------------------------------------------------------


def test_oracle_report_parity_values():
    beta = input_ket(np.array([1, 1, 0, 0]) / SQRT2)
    oracle = oracle_report(beta, parity_family())
    assert oracle.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
    assert phase_equal(oracle.states[0], basis_ket((3, 4), "HH"))
    assert phase_equal(oracle.states[1], basis_ket((3, 4), "HV"))


def test_oracle_report_drops_unreachable_outcome_states():
    oracle = oracle_report(hh_input(), parity_family())
    assert oracle.probabilities == pytest.approx((1.0, 0.0), abs=1e-12)
    assert oracle.states[1] is None


@pytest.mark.parametrize("mode", ["general", "parity5", "parity4"])
@pytest.mark.parametrize("seed", range(3))
def test_compare_reports_passes_for_healthy_runs(mode, seed):
    rng = np.random.default_rng(800 + seed)
    beta = input_ket(random_unit_vector(rng))
    report = run_protocol(beta, parity_family(), mode=mode)
    verdict = compare_reports(report, oracle_report(beta, parity_family()))
    assert verdict.passed, verdict.mismatches
    assert verdict.mismatches == ()


def test_compare_reports_passes_for_random_general_families():
    rng = np.random.default_rng(900)
    for _ in range(5):
        family = family_from_assignment(
            random_orthonormal_basis(rng),
            random_assignment(rng, int(rng.integers(1, 5))),
        )
        beta = input_ket(random_unit_vector(rng))
        report = run_protocol(beta, family, mode="general")
        verdict = compare_reports(report, oracle_report(beta, family))
        assert verdict.passed, verdict.mismatches


def test_compare_reports_flags_dropped_correction(monkeypatch):
    monkeypatch.setitem(protocol.CORRECTIONS, (PSI_PLUS, PSI_MINUS), ())
    rng = np.random.default_rng(1000)
    failures = 0
    for _ in range(5):
        beta = input_ket(random_unit_vector(rng))
        report = run_protocol(beta, parity_family(), mode="parity5")
        verdict = compare_reports(report, oracle_report(beta, parity_family()))
        failures += 0 if verdict.passed else 1
    assert failures > 0


def test_compare_reports_flags_spurious_correction(monkeypatch):
    monkeypatch.setitem(
        protocol.CORRECTIONS, (PSI_PLUS, PSI_PLUS), ((4, "Z"),)
    )
    rng = np.random.default_rng(1100)
    failures = 0
    for _ in range(5):
        beta = input_ket(random_unit_vector(rng))
        report = run_protocol(beta, parity_family(), mode="parity5")
        verdict = compare_reports(report, oracle_report(beta, parity_family()))
        failures += 0 if verdict.passed else 1
    assert failures > 0


def test_swapping_correction_photon_is_gauge_invisible(monkeypatch):
    """Z on photon 3 and Z on photon 4 differ by Z(x)Z, which is a pure
    (-1)^parity phase on each projected branch: the corruption changes
    nothing observable, so it cannot (and should not) be detected."""
    healthy = run_protocol(hh_input(), parity_family(), mode="parity5")
    monkeypatch.setitem(
        protocol.CORRECTIONS, (PSI_PLUS, PSI_MINUS), ((3, "Z"),)
    )
    rng = np.random.default_rng(1200)
    for _ in range(5):
        beta = input_ket(random_unit_vector(rng))
        report = run_protocol(beta, parity_family(), mode="parity5")
        verdict = compare_reports(report, oracle_report(beta, parity_family()))
        assert verdict.passed, verdict.mismatches
    swapped = run_protocol(hh_input(), parity_family(), mode="parity5")
    for a, b in zip(healthy.branches, swapped.branches):
        assert a.probability == pytest.approx(b.probability, abs=1e-12)


def test_compare_reports_flags_partner_without_flip(monkeypatch):
    def conjugate_only(basis, i, register=auxprep.PARTNER_PAIR):
        row = basis.states[i]
        return superpose(
            [
                (complex(amp).conjugate(), basis_ket(register, BASIS_LABELS[idx]))
                for idx, amp in enumerate(row)
                if amp != 0
            ]
        )

    monkeypatch.setattr(auxprep, "conjugate_partner", conjugate_only)
    beta = hh_input()
    report = run_protocol(beta, parity_family(), mode="general")
    verdict = compare_reports(report, oracle_report(beta, parity_family()))
    assert not verdict.passed
    assert verdict.mismatches


ONLY_PSI_PLUS = AnalyzerModel("psi+", frozenset({PSI_PLUS}))
ONLY_PSI_MINUS = AnalyzerModel("psi-", frozenset({PSI_MINUS}))


def test_mode_table_states_each_mode_once():
    assert MODES == ("general", "parity5", "parity4")
    psi_pairs = {(a, b) for a in (PSI_PLUS, PSI_MINUS) for b in (PSI_PLUS, PSI_MINUS)}
    assert protocol._MODE_TABLE["general"][1] == 1 / 16
    assert protocol._MODE_TABLE["parity5"][1] == 1 / 16
    assert protocol._MODE_TABLE["parity4"][1] == 1 / 8
    def accepted(mode, analyzer):
        return {protocol._PAIRS[k] for k in protocol._branch_table(mode, analyzer)[0]}

    for analyzer in (LINEAR_ANALYZER, IDEAL_ANALYZER):
        assert accepted("general", analyzer) == {(PSI_PLUS, PSI_PLUS)}
        assert accepted("parity5", analyzer) == psi_pairs
        assert accepted("parity4", analyzer) == psi_pairs
    assert accepted("general", ONLY_PSI_MINUS) == frozenset()
    assert accepted("parity4", ONLY_PSI_MINUS) == {(PSI_MINUS, PSI_MINUS)}
    assert accepted("parity5", ONLY_PSI_PLUS) == {(PSI_PLUS, PSI_PLUS)}


@pytest.mark.parametrize(
    "mode,analyzer,pair_weight",
    [
        ("general", ONLY_PSI_PLUS, lambda p: 1 / 16),
        ("parity5", ONLY_PSI_PLUS, lambda p: 1 / 16),
        ("parity4", ONLY_PSI_PLUS, lambda p: p[0] / 8),
        ("general", ONLY_PSI_MINUS, lambda p: 0.0),
    ],
)
def test_restricted_analyzers_pass_the_oracle(mode, analyzer, pair_weight):
    rng = np.random.default_rng(1300)
    for _ in range(5):
        beta = input_ket(random_unit_vector(rng))
        report = run_protocol(beta, parity_family(), mode=mode, analyzer=analyzer)
        oracle = oracle_report(beta, parity_family())
        assert report.success_probability == pytest.approx(
            pair_weight(oracle.probabilities), abs=1e-14
        )
        verdict = compare_reports(report, oracle)
        assert verdict.passed, verdict.mismatches


@pytest.mark.parametrize("mode", MODES)
def test_analyzer_takes_any_iterable_of_outcomes(mode):
    beta = input_ket(random_unit_vector(np.random.default_rng(1350)))
    family = parity_family()
    outcomes = [PSI_PLUS, PSI_MINUS]
    runs = []
    for kind in (set, list, frozenset):
        analyzer = AnalyzerModel("psi", kind(outcomes))
        assert analyzer.distinguishable == frozenset(outcomes)
        report = run_protocol(beta, family, mode=mode, analyzer=analyzer)
        verdict = compare_reports(report, oracle_report(beta, family))
        texts = emit_report(report, "json"), emit_report(report, "csv")
        runs.append((texts, verdict))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1].passed


def test_compare_reports_flags_a_misnormalized_resource(monkeypatch):
    healthy = auxprep.conjugate_partner

    def scaled(basis, i):
        return superpose([(1.01, healthy(basis, i))])

    monkeypatch.setattr(auxprep, "conjugate_partner", scaled)
    rng = np.random.default_rng(1400)
    for _ in range(20):
        n_outcomes = int(rng.integers(1, 5))
        family = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
        )
        beta = input_ket(random_unit_vector(rng))
        report = run_protocol(beta, family, mode="general")
        every_branch = report.success_probability + report.inconclusive_probability
        assert every_branch == pytest.approx(1.0201, abs=1e-12)
        verdict = compare_reports(report, oracle_report(beta, family))
        assert not verdict.passed
        assert verdict.mismatches[0].startswith("success probability 0.06375")


def test_compare_reports_flags_a_permuted_oracle_distribution():
    beta = input_ket(np.array([0.6, 0.8, 0, 0]))  # even weight 0.36, odd 0.64
    report = run_protocol(beta, parity_family(), mode="parity5")
    oracle = oracle_report(beta, parity_family())
    swapped = protocol.OracleStatistics(oracle.probabilities[::-1], oracle.states)
    verdict = compare_reports(report, swapped)
    assert not verdict.passed
    assert [m.split(":")[0] for m in verdict.mismatches] == [
        "conditional probability of outcome 0",
        "conditional probability of outcome 1",
    ]


def test_compare_reports_flags_a_success_the_oracle_rules_out():
    beta = input_ket(np.array([0.6, 0.8, 0, 0]))
    report = run_protocol(beta, parity_family(), mode="parity4")
    oracle = oracle_report(beta, parity_family())
    blind = protocol.OracleStatistics(oracle.probabilities, (None, oracle.states[1]))
    verdict = compare_reports(report, blind)
    assert verdict.mismatches == (
        "branch 0 succeeds with outcome 0, which the oracle rules out",
        "branch 1 succeeds with outcome 0, which the oracle rules out",
        "branch 4 succeeds with outcome 0, which the oracle rules out",
        "branch 5 succeeds with outcome 0, which the oracle rules out",
    )


@pytest.mark.parametrize("excess", [1.5, 3.0, 9.0])
def test_compare_reports_judges_success_at_tol_itself(excess):
    # A success off by more than tol, though within 10 * tol, is a mismatch.
    tol = 1e-10
    beta = input_ket(np.array([0.6, 0.8, 0, 0]))
    report = run_protocol(beta, parity_family(), mode="parity5", tol=tol)
    oracle = oracle_report(beta, parity_family(), tol)
    assert compare_reports(report, oracle, tol).passed
    off = dataclasses.replace(
        report, success_probability=report.success_probability + excess * tol
    )
    verdict = compare_reports(off, oracle, tol)
    assert len(verdict.mismatches) == 1
    assert verdict.mismatches[0].startswith("success probability 0.2500000")


def test_compare_reports_flags_a_success_against_an_oracle_that_shows_nothing():
    # Wanted success 0 and a reported 1/4: the conditional check is skipped,
    # never divided by the oracle's zero total.
    beta = input_ket(np.array([0.6, 0.8, 0, 0]))
    report = run_protocol(beta, parity_family(), mode="parity5")
    nothing = protocol.OracleStatistics((0.0, 0.0), (None, None))
    verdict = compare_reports(report, nothing)
    assert not verdict.passed
    assert verdict.mismatches[0] == "success probability 0.25 vs oracle 0"
    assert not any(m.startswith("conditional") for m in verdict.mismatches)


def _even_parity5():
    """A parity5 run on |HH>, its oracle (outcome 0 with probability 1) and
    the exact totals the oracle wants: success 1/4, conditionals (1, 0)."""
    beta = input_ket(np.array([1, 0, 0, 0]))
    report = run_protocol(beta, parity_family(), mode="parity5")
    oracle = oracle_report(beta, parity_family())
    assert oracle.probabilities == (1.0, 0.0) and oracle.states[1] is None
    return report, oracle


def test_compare_reports_accepts_a_deviation_of_exactly_tol():
    # A mismatch differs by more than tol; 2**-20 is exact next to 1/4 and 1.
    report, oracle = _even_parity5()
    tol = 2.0**-20
    for excess, mismatches in ((tol, 0), (2 * tol, 3)):
        off = dataclasses.replace(
            report,
            success_probability=0.25 + excess,
            conditional_j=(1.0 - excess, excess),
        )
        verdict = compare_reports(off, oracle, tol)
        assert len(verdict.mismatches) == mismatches, verdict.mismatches


def test_compare_reports_renormalizes_once_both_successes_reach_zero_probability():
    # Wanted success 1/4 of the shown total: exactly ZERO_PROBABILITY here, so
    # the conditionals are judged; one ulp less and they are not.
    report, oracle = _even_parity5()
    wrong = dataclasses.replace(
        report, success_probability=ZERO_PROBABILITY, conditional_j=(0.0, 1.0)
    )
    faint = protocol.OracleStatistics((4 * ZERO_PROBABILITY, 0.0), oracle.states)
    assert compare_reports(wrong, faint).mismatches == (
        "conditional probability of outcome 0: report 0 vs oracle 1",
        "conditional probability of outcome 1: report 1 vs oracle 0",
    )
    fainter = math.nextafter(4 * ZERO_PROBABILITY, 0.0)
    below = protocol.OracleStatistics((fainter, 0.0), oracle.states)
    assert compare_reports(wrong, below).passed


def test_compare_reports_judges_a_success_cell_of_exactly_zero_probability():
    # A cell below ZERO_PROBABILITY carries no state; one at it is judged.
    report, oracle = _even_parity5()
    ruled_out = "branch 1 succeeds with outcome 1, which the oracle rules out"
    for p, mismatches in (
        (ZERO_PROBABILITY, (ruled_out,)),
        (math.nextafter(ZERO_PROBABILITY, 0.0), ()),
    ):
        probabilities = np.array(report.probabilities)
        probabilities[0, 1] = p
        cell = dataclasses.replace(report, probabilities=probabilities)
        assert compare_reports(cell, oracle).mismatches == mismatches


def test_compare_reports_accepts_a_probability_sum_off_by_exactly_tol():
    # Column 1 of the last pair is no branch, and the last value added, so a
    # value there moves only the sum, to exactly 1 + excess.
    report, oracle = _even_parity5()
    total = functools.reduce(operator.add, report.probabilities.ravel().tolist())
    tol = 2.0**-20  # exact next to 1
    off = "probabilities sum to %.12g, not 1" % (1 + 2 * tol)
    for excess, mismatches in ((tol, ()), (2 * tol, (off,))):
        probabilities = np.array(report.probabilities)
        probabilities[15, 1] = (1.0 + excess) - total  # exact: both near 1
        cell = dataclasses.replace(report, probabilities=probabilities)
        assert compare_reports(cell, oracle, tol).mismatches == mismatches


@pytest.mark.parametrize("factor, total", [(1.5, "1.3125"), (0.0, "0.75")])
def test_compare_reports_fails_a_run_whose_probabilities_do_not_sum_to_one(
    monkeypatch, factor, total
):
    # Scaling the PhiPlus rows on (1, 5) scales a quarter of the weight by
    # factor**2, yet leaves every success branch and the oracle as they were.
    bras = protocol._BELL_PAIR_BRAS.copy().reshape(2, 2, 4, 4, 4)
    bras[:, :, BELL_ORDER.index(PHI_PLUS)] *= factor  # (photon 1, photon 2, b15)
    monkeypatch.setattr(protocol, "_BELL_PAIR_BRAS", bras.reshape(64, 4))
    protocol._built_transfer.cache_clear()
    rng = np.random.default_rng(4402)
    beta = input_ket(random_unit_vector(rng))
    haar = family_from_assignment(
        random_orthonormal_basis(rng), random_assignment(rng, 3)
    )
    try:
        for mode in MODES:
            family = haar if mode == "general" else parity_family()
            for analyzer in (LINEAR_ANALYZER, IDEAL_ANALYZER):
                report = run_protocol(beta, family, mode, analyzer)
                verdict = compare_reports(report, oracle_report(beta, family))
                assert not verdict.passed
                assert f"probabilities sum to {total}, not 1" in verdict.mismatches
    finally:
        protocol._built_transfer.cache_clear()


# ---------------------------------------------------------------------------
# numeric policy: near-zero outcomes and small tolerances
# ---------------------------------------------------------------------------

SMALL_TOLS = (1e-10, 1e-12, 1e-13, 1e-14)
NEAR_ZERO_WEIGHTS = (1e-14, 1e-13, 1e-12, 5e-12, 1e-11, 3e-11, 1e-10)


def near_zero_inputs(eps):
    """sqrt(eps)|HH> + sqrt(1-eps)|HV> and the same with the weights swapped."""
    small, large = np.sqrt(eps), np.sqrt(1.0 - eps)
    return input_ket([small, large, 0, 0]), input_ket([large, small, 0, 0])


def test_exact_runs_pass_the_oracle_at_every_small_tol():
    """The scheme is exact, so no tolerance the library accepts may fail it:
    168 runs whose even- or odd-parity weight sits near the zero rules."""
    fam = parity_family()
    failures = []
    runs = 0
    for tol in SMALL_TOLS:
        for eps in NEAR_ZERO_WEIGHTS:
            for beta in near_zero_inputs(eps):
                for mode in MODES:
                    report = run_protocol(beta, fam, mode, tol=tol)
                    oracle = oracle_report(beta, fam, tol=tol)
                    verdict = compare_reports(report, oracle, tol=tol)
                    runs += 1
                    if not verdict.passed:
                        failures.append((tol, eps, mode, verdict.mismatches[0]))
    assert runs == 168
    assert failures == []


def _totals_cases():
    rng = np.random.default_rng(4401)
    parity = parity_family()
    for eps in (1e-13, 5e-12):
        for beta in near_zero_inputs(eps):
            for mode in MODES:
                yield beta, parity, mode
    for n_outcomes in (1, 2, 3, 4):
        fam = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
        )
        yield input_ket(random_unit_vector(rng)), fam, "general"


def test_totals_add_every_branch_probability():
    for beta, fam, mode in _totals_cases():
        for analyzer in (LINEAR_ANALYZER, IDEAL_ANALYZER):
            report = run_protocol(beta, fam, mode, analyzer)
            every_branch = sum(b.probability for b in report.branches)
            totals = report.success_probability + report.inconclusive_probability
            assert abs(totals - every_branch) <= 1e-14
            assert len(report.conditional_j) == fam.n_outcomes


def test_success_total_keeps_branches_too_small_to_carry_a_state():
    # parity4 success is half the even weight, 5e-13 here: every success
    # row is a "zero" branch, yet the total must still count it.
    beta = near_zero_inputs(1e-12)[0]
    report = run_protocol(beta, parity_family(), "parity4", tol=1e-13)
    success_rows = [
        b for b in report.branches if (b.bell15, b.bell26) == (PSI_PLUS, PSI_PLUS)
    ]
    assert [b.kind for b in success_rows] == ["zero"]
    assert report.success_probability == pytest.approx(5e-13, rel=1e-9)
    assert report.conditional_j == (0.0, 0.0)
    assert compare_reports(
        report, oracle_report(beta, parity_family(), tol=1e-13), tol=1e-13
    ).passed


def test_parity_modes_judge_the_family_within_tol():
    theta = 1e-6  # mixes |HH> into the odd subspace by ~1e-6 per projector entry
    c, s = np.cos(theta), np.sin(theta)
    rows = np.array(
        [[c, s, 0, 0], [0, 0, 0, 1], [-s, c, 0, 0], [0, 0, 1, 0]], dtype=complex
    )
    fam = family_from_assignment(rows, [[1, 0], [1, 0], [0, 1], [0, 1]])
    with pytest.raises(ValidationError, match="parity projector family"):
        run_protocol(hh_input(), fam, "parity5")
    report = run_protocol(hh_input(), fam, "parity5", tol=1e-5)
    assert report.success_probability == pytest.approx(0.25, abs=1e-12)


def test_the_parity_check_accepts_a_deviation_of_exactly_tol():
    parity = parity_family()
    projectors = parity.projectors.copy()
    projectors[1, 2, 2] += 2.0**-20  # 1 + 2**-20: exact in a float
    fam = ProjectorFamily(parity.basis, parity.assignment, projectors)
    report = run_protocol(hh_input(), fam, "parity5", tol=2.0**-20)
    assert report.family is fam
    with pytest.raises(ValidationError, match="requires the parity projector family"):
        run_protocol(hh_input(), fam, "parity5", tol=np.nextafter(2.0**-20, 0))


def test_oracle_matches_projecting_one_outcome_at_a_time():
    rng = np.random.default_rng(5150)
    cases = [(parity_family(), input_ket([1, 0, 0, 0]))]
    for _ in range(40):
        fam = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, int(rng.integers(1, 5)))
        )
        cases.append((fam, input_ket(random_unit_vector(rng))))
    for fam, beta in cases:
        oracle = oracle_report(beta, fam)
        assert len(oracle.probabilities) == len(oracle.states) == fam.n_outcomes
        for j, (p, state) in enumerate(zip(oracle.probabilities, oracle.states)):
            image = fam.projectors[j] @ to_array(beta)
            assert isinstance(p, float)
            assert p == pytest.approx(np.vdot(image, image).real, abs=1e-15)
            if p < ZERO_PROBABILITY:
                assert state is None
                continue
            assert state.register == (3, 4) and not state.array.flags.writeable
            assert norm(state) == pytest.approx(1.0, abs=1e-15)
            target = from_array((3, 4), image)
            assert phase_equal(state, normalize(target), tol=1e-15)


def test_analyzer_rejects_outcomes_that_are_not_bell_outcomes():
    # Outcome names are not outcomes: such an analyzer would accept no pair.
    with pytest.raises(ValidationError, match="'typo'.*got 'PsiMinus', 'PsiPlus'$"):
        AnalyzerModel("typo", {"PsiPlus", "PsiMinus"})
    with pytest.raises(ValidationError, match="got 'PsiMinus'$"):
        AnalyzerModel("mixed", [PSI_PLUS, "PsiMinus"])


# ---------------------------------------------------------------------------
# compare_reports against the walk over every branch record
# ---------------------------------------------------------------------------

ANALYZERS = (LINEAR_ANALYZER, IDEAL_ANALYZER, ONLY_PSI_PLUS, ONLY_PSI_MINUS)


def assert_walk_agrees(report, oracle, tol=DEFAULT_TOL):
    """``compare_reports`` gives the whole-run mismatches first and then
    exactly the reference walk's per-branch ones, in its order."""
    mismatches = compare_reports(report, oracle, tol).mismatches
    walked = tuple(branch_walk_mismatches(report, oracle, tol))
    head = mismatches[: len(mismatches) - len(walked)]
    assert mismatches == head + walked
    assert not any(text.startswith("branch ") for text in head)
    return len(walked)


def _random_runs(seed):
    """(report, beta, family) over every mode and analyzer, general mode on
    the parity family and on Haar families with J = 1..4."""
    rng = np.random.default_rng(seed)
    for analyzer in ANALYZERS:
        families = [("parity5", parity_family()), ("parity4", parity_family())]
        families.append(("general", parity_family()))
        families += [
            ("general", family_from_assignment(
                random_orthonormal_basis(rng), random_assignment(rng, j)
            ))
            for j in (1, 2, 3, 4)
        ]
        for mode, family in families:
            beta = input_ket(random_unit_vector(rng))
            yield run_protocol(beta, family, mode, analyzer), beta, family, rng


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("analyzer", ANALYZERS)
def test_branch_table_matches_the_report_position_by_position(mode, analyzer):
    pairs = list(itertools.product(BELL_ORDER, repeat=2))
    rows, mask, branches, cells = protocol._branch_table(mode, analyzer)
    accepted = {pairs[k] for k in rows}
    assert rows == tuple(k for k, pair in enumerate(pairs) if pair in accepted)
    assert mask.tolist() == [[pair in accepted] for pair in pairs]
    assert not mask.flags.writeable
    rng = np.random.default_rng(1800)
    # |HH> leaves zero branches among the accepted rows, a dense input none.
    for beta in (input_ket([1, 0, 0, 0]), input_ket(random_unit_vector(rng))):
        report = run_protocol(beta, parity_family(), mode, analyzer)
        assert len(branches) == len(report.branches)
        for (k, j), branch in zip(branches, report.branches):
            assert (branch.bell15, branch.bell26) == pairs[k]
            if j is None:
                assert pairs[k] not in accepted and branch.register_result is None
                continue
            bits = str.maketrans("HV", "01")
            assert int((branch.register_result or "H").translate(bits), 2) == j
            assert branch.j in (None, j)
        assert [i for i, _, _ in cells] == [
            i for i, b in enumerate(report.branches) if (b.bell15, b.bell26) in accepted
        ]
        assert all(branches[i] == (k, j) for i, k, j in cells)


@pytest.mark.parametrize("seed", range(3))
def test_compare_reports_walks_only_the_accepted_rows(seed):
    branch_texts = 0
    for report, beta, family, rng in _random_runs([1600, seed]):
        assert_walk_agrees(report, oracle_report(beta, family))
        # The oracle of another input mismatches many branches, by index.
        other = oracle_report(input_ket(random_unit_vector(rng)), family)
        branch_texts += assert_walk_agrees(report, other)
    assert branch_texts > 0


def test_compare_reports_walk_agrees_under_the_negative_controls(monkeypatch):
    rng = np.random.default_rng(1700)
    betas = [input_ket(random_unit_vector(rng)) for _ in range(5)]
    family = parity_family()
    broken = {
        "dropped": (protocol.CORRECTIONS, (PSI_PLUS, PSI_MINUS), ()),
        "spurious": (protocol.CORRECTIONS, (PSI_PLUS, PSI_PLUS), ((4, "Z"),)),
    }
    for name, (table, key, value) in broken.items():
        with monkeypatch.context() as patch:
            patch.setitem(table, key, value)
            for analyzer in (LINEAR_ANALYZER, IDEAL_ANALYZER):
                texts = 0
                for beta in betas:
                    oracle = oracle_report(beta, family)
                    for mode in MODES:
                        report = run_protocol(beta, family, mode, analyzer)
                        texts += assert_walk_agrees(report, oracle)
                assert texts > 0, name

    def conjugate_only(basis, i, register=auxprep.PARTNER_PAIR):
        return from_array(register, basis.states[i].conj())

    with monkeypatch.context() as patch:
        patch.setattr(auxprep, "conjugate_partner", conjugate_only)
        texts = sum(
            assert_walk_agrees(
                run_protocol(beta, family, "general"), oracle_report(beta, family)
            )
            for beta in betas
        )
        assert texts > 0


@pytest.mark.parametrize(
    "table",
    [
        [[1], [1], [1], [1]],
        [[1, 0], [1, 0], [0, 1], [0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]],
    ],
)
def test_compare_reports_rules_out_outcomes_the_oracle_lacks(table):
    # A J = 4 run against the oracle of a family with fewer outcomes: each
    # success with outcome j >= J' is one the oracle rules out.
    rng = np.random.default_rng(1900)
    basis = random_orthonormal_basis(rng)
    beta = input_ket(random_unit_vector(rng))
    report = run_protocol(beta, family_from_assignment(basis, np.eye(4, dtype=int)))
    oracle = oracle_report(beta, family_from_assignment(basis, table))
    verdict = compare_reports(report, oracle)
    fewer = len(oracle.states)
    assert not verdict.passed
    ruled_out = [text for text in verdict.mismatches if "rules out" in text]
    # Row 0 is general mode's one accepted pair: branch j shows outcome j.
    assert ruled_out == [
        f"branch {j} succeeds with outcome {j}, which the oracle rules out"
        for j in range(fewer, 4)
    ]
    for j in range(fewer, 4):
        assert any(
            text.startswith(f"conditional probability of outcome {j}: ")
            for text in verdict.mismatches
        )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("analyzer", [LINEAR_ANALYZER, IDEAL_ANALYZER])
def test_compare_reports_walk_agrees_where_the_oracle_rules_out(mode, analyzer):
    beta = input_ket(np.array([0.6, 0.8j, 0.0, 0.0]))
    report = run_protocol(beta, parity_family(), mode, analyzer)
    oracle = oracle_report(beta, parity_family())
    for states in ((None, oracle.states[1]), (oracle.states[0], None), (None, None)):
        blind = protocol.OracleStatistics(oracle.probabilities, states)
        assert_walk_agrees(report, blind)
    blind = protocol.OracleStatistics(oracle.probabilities, (None, oracle.states[1]))
    assert assert_walk_agrees(report, blind) > 0
