"""Tests for Bell analysis, exhaustive branch enumeration, corrections and
the projector-algebra oracle."""

import numpy as np
import pytest

import biphoton.auxprep as auxprep
import biphoton.protocol as protocol
from biphoton.measurement import (
    apply_projector,
    family_from_assignment,
    ket_from_vector,
    parity_family,
    two_photon_vector,
)
from biphoton.protocol import (
    BELL_ORDER,
    CORRECTIONS,
    IDEAL_ANALYZER,
    LINEAR_ANALYZER,
    AnalyzerModel,
    BellOutcome,
    apply_corrections,
    bell_ket,
    compare_reports,
    corrections_for,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import (
    ValidationError,
    basis_ket,
    inner,
    norm,
    normalize,
    partial_bra,
    phase_equal,
    superpose,
    tensor,
)

from support import (
    BASIS_LABELS,
    BELL_VECTORS,
    contract,
    dense_from_ket,
    dense_general_aux,
    dense_probability,
    dense_state,
    dense_total,
    random_orthonormal_basis,
    random_assignment,
    random_unit_vector,
)

SQRT2 = np.sqrt(2.0)

PSI_PLUS = BellOutcome.PSI_PLUS
PSI_MINUS = BellOutcome.PSI_MINUS
PHI_PLUS = BellOutcome.PHI_PLUS
PHI_MINUS = BellOutcome.PHI_MINUS


def input_ket(vec4):
    return ket_from_vector((1, 2), np.asarray(vec4, dtype=complex))


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


@pytest.mark.parametrize("seed", range(5))
def test_corrections_map_accepted_residuals_onto_reference(seed):
    """Every accepted Bell pair's residual, after its phase corrections,
    matches the (PsiPlus, PsiPlus) reference residual."""
    rng = np.random.default_rng(300 + seed)
    beta = input_ket(random_unit_vector(rng))
    total = tensor(beta, auxprep.build_parity_aux5().ket)

    def pair_residual(b15, b26):
        res = partial_bra(bell_ket(b15, (1, 5)), total)
        return partial_bra(bell_ket(b26, (2, 6)), res)

    reference = pair_residual(PSI_PLUS, PSI_PLUS)
    for pair in [
        (PSI_PLUS, PSI_MINUS),
        (PSI_MINUS, PSI_PLUS),
        (PSI_MINUS, PSI_MINUS),
    ]:
        corrected = apply_corrections(pair, pair_residual(*pair))
        assert phase_equal(corrected, reference, tol=1e-10)
        assert norm(corrected) == pytest.approx(0.25, abs=1e-10)


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
    beta = input_ket(beta_vec)
    total = tensor(beta, auxprep.build_general_aux(family).ket)
    res = partial_bra(bell_ket(PSI_PLUS, (1, 5)), total)
    res = partial_bra(bell_ket(PSI_PLUS, (2, 6)), res)
    assert norm(res) == pytest.approx(0.25, abs=1e-10)
    expected = superpose(
        [
            (
                1.0,
                tensor(
                    ket_from_vector((3, 4), family.projectors[j] @ beta_vec),
                    auxprep.encode_j_two_photon(j),
                ),
            )
            for j in range(family.n_outcomes)
        ]
    )
    assert phase_equal(res, expected, tol=1e-10)


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


def _resources():
    yield auxprep.build_parity_aux5()
    yield auxprep.build_parity_aux4()
    rng = np.random.default_rng(900)
    for n_outcomes in (1, 2, 3, 4):
        for _ in range(5):
            family = family_from_assignment(
                random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
            )
            yield auxprep.build_general_aux(family)


def test_transfer_tensor_conserves_probability_for_every_input():
    # sum over all branches of T^dagger T = I: the branch probabilities
    # sum to |beta|^2 for every input, not only for sampled ones.
    for aux in _resources():
        t = protocol._transfer_tensor(aux).reshape(-1, 4, 4)
        gram = np.einsum("nki,nkj->ij", t.conj(), t)
        np.testing.assert_allclose(gram, np.eye(4), rtol=0, atol=1e-12)


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
