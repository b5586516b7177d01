"""Acceptance suite: one test per acceptance criterion.

Each criterion is exercised over freshly drawn random instances with the
pinned tolerance of 1e-10; `pytest -v` prints one pass/fail line per
criterion.  Dense-tensor contractions from ``support`` provide the
independent brute-force oracle where a criterion calls for one.
"""

import json

import numpy as np
import pytest

import biphoton.auxprep as auxprep
import biphoton.protocol as protocol
from biphoton.cli import main
from biphoton.measurement import (
    family_from_assignment,
    parity_family,
)
from biphoton.protocol import (
    BellOutcome,
    compare_reports,
    corrections_for,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import basis_ket, from_array, phase_equal, superpose

from support import (
    BASIS_LABELS,
    BELL_VECTORS,
    contract,
    dense_bell_pair_residual,
    dense_corrected,
    dense_parity_aux4,
    dense_probability,
    dense_state,
    dense_total,
    random_orthonormal_basis,
    random_assignment,
    random_unit_vector,
    two_photon_tensor,
)

TOL = 1e-10
N_INSTANCES = 100

PSI_PLUS = BellOutcome.PSI_PLUS
PSI_MINUS = BellOutcome.PSI_MINUS


def random_instance(rng):
    """A random measurement family (J in 2..4) and a random unit input."""
    basis = random_orthonormal_basis(rng)
    table = random_assignment(rng, int(rng.integers(2, 5)))
    family = family_from_assignment(basis, table)
    beta_vec = random_unit_vector(rng)
    return family, beta_vec, from_array((1, 2), beta_vec)


def test_criterion_1_general_success_probability_is_one_sixteenth():
    """Accepted-branch weight in general mode is exactly 1/16, regardless
    of the family and input."""
    rng = np.random.default_rng(11)
    for _ in range(N_INSTANCES):
        family, _, beta = random_instance(rng)
        report = run_protocol(beta, family, mode="general")
        assert report.success_probability == pytest.approx(1 / 16, abs=TOL)
    print("criterion 1 (general success probability = 1/16): PASS")


def test_criterion_2_general_residuals_and_distribution_match_oracle():
    """Success residuals equal the projected input up to phase and the
    success-conditioned outcome distribution equals the projector
    probabilities."""
    rng = np.random.default_rng(22)
    for _ in range(N_INSTANCES):
        family, _, beta = random_instance(rng)
        report = run_protocol(beta, family, mode="general")
        oracle = oracle_report(beta, family)
        np.testing.assert_allclose(
            report.conditional_j, oracle.probabilities, atol=TOL
        )
        checked = 0
        for branch in report.branches:
            if branch.is_success:
                assert phase_equal(
                    branch.residual, oracle.states[branch.j], tol=TOL
                )
                checked += 1
        assert checked >= 1
    print("criterion 2 (general residuals/distribution vs oracle): PASS")


def test_criterion_3_reference_contraction_norm_and_decomposition():
    """Projecting both analyzed pairs onto PsiPlus leaves a residual of
    norm exactly 1/4 equal (up to phase) to the sum over outcomes of the
    projected input tagged with its outcome-register state."""
    rng = np.random.default_rng(33)
    for _ in range(N_INSTANCES):
        family, beta_vec, _ = random_instance(rng)
        total = dense_total(beta_vec, auxprep.build_general_aux(family).ket.array)
        res = dense_bell_pair_residual(total, "PsiPlus", "PsiPlus", 8)
        assert np.linalg.norm(res) == pytest.approx(0.25, abs=TOL)
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
            tol=TOL,
        )
    print("criterion 3 (reference contraction norm 1/4, decomposition): PASS")


def test_criterion_4_parity5_success_probability_and_pair_weights():
    """The five-photon parity run succeeds with probability 1/4, each of
    the four accepted Bell pairs contributing exactly 1/16."""
    rng = np.random.default_rng(44)
    for _ in range(N_INSTANCES):
        beta = from_array((1, 2), random_unit_vector(rng))
        report = run_protocol(beta, parity_family(), mode="parity5")
        assert report.success_probability == pytest.approx(0.25, abs=TOL)
        per_pair = {}
        for branch in report.branches:
            if branch.register_result is not None:
                key = (branch.bell15, branch.bell26)
                per_pair[key] = per_pair.get(key, 0.0) + branch.probability
        assert len(per_pair) == 4
        for weight in per_pair.values():
            assert weight == pytest.approx(1 / 16, abs=TOL)
    print("criterion 4 (parity5 success 1/4, pairs 1/16 each): PASS")


def test_criterion_5_corrections_recover_the_reference_residual():
    """For every accepted non-reference Bell pair, the tabulated phase
    flips map its residual onto the (PsiPlus, PsiPlus) residual."""
    rng = np.random.default_rng(55)
    pairs = [
        (PSI_PLUS, PSI_MINUS),
        (PSI_MINUS, PSI_PLUS),
        (PSI_MINUS, PSI_MINUS),
    ]
    for _ in range(N_INSTANCES):
        beta_vec = random_unit_vector(rng)
        total = dense_total(beta_vec, auxprep.build_parity_aux5().ket.array)

        def residual(pair, state=total):  # on photons (3, 4, 7)
            return dense_bell_pair_residual(state, pair[0].value, pair[1].value, 7)

        reference = from_array((3, 4, 7), residual((PSI_PLUS, PSI_PLUS)))
        for pair in pairs:
            corrected = dense_corrected(corrections_for(pair), residual(pair))
            assert phase_equal(from_array((3, 4, 7), corrected), reference, tol=TOL)
    print("criterion 5 (corrections recover the reference residual): PASS")


def test_criterion_6_parity4_matches_brute_force_contraction_oracle():
    """Four-photon filter totals agree with an independent dense-tensor
    contraction and with half the even-parity weight; accepted residuals
    equal the even projection of the input."""
    rng = np.random.default_rng(66)
    psi_names = ("PsiPlus", "PsiMinus")
    for _ in range(N_INSTANCES):
        beta_vec = random_unit_vector(rng)
        beta = from_array((1, 2), beta_vec)
        report = run_protocol(beta, parity_family(), mode="parity4")

        total = dense_total(beta_vec, dense_parity_aux4())
        dense_success = 0.0
        for b15 in psi_names:
            after15 = contract(BELL_VECTORS[b15], (0, 4), total)
            for b26 in psi_names:
                res = contract(BELL_VECTORS[b26], (0, 3), after15)
                dense_success += dense_probability(res)
        assert report.success_probability == pytest.approx(
            dense_success, abs=TOL
        )

        even_weight = abs(beta_vec[0]) ** 2 + abs(beta_vec[3]) ** 2
        assert report.success_probability == pytest.approx(
            0.5 * even_weight, abs=TOL
        )

        projected = from_array(
            (3, 4), np.array([beta_vec[0], 0, 0, beta_vec[3]])
        )
        for branch in report.branches:
            if branch.is_success:
                assert phase_equal(branch.residual, projected, tol=TOL)
    print("criterion 6 (parity4 vs brute-force contraction oracle): PASS")


def test_criterion_7_probability_conservation_everywhere():
    """Branch probabilities sum to one in every mode, and every random
    projector family resolves the identity."""
    rng = np.random.default_rng(77)
    for _ in range(34):
        family, _, beta = random_instance(rng)
        np.testing.assert_allclose(
            sum(family.projectors), np.eye(4), atol=TOL
        )
        report = run_protocol(beta, family, mode="general")
        assert sum(b.probability for b in report.branches) == pytest.approx(
            1.0, abs=TOL
        )
    for mode in ("parity5", "parity4"):
        for _ in range(33):
            beta = from_array((1, 2), random_unit_vector(rng))
            report = run_protocol(beta, parity_family(), mode=mode)
            assert sum(
                b.probability for b in report.branches
            ) == pytest.approx(1.0, abs=TOL)
    print("criterion 7 (probability conservation in every mode): PASS")


def test_criterion_8_negative_controls_flip_the_verdict(monkeypatch):
    """Dropping a correction, adding a spurious one, or removing the
    polarization flip from the partner convention must each make the
    oracle comparison fail on at least one random instance."""
    rng = np.random.default_rng(88)
    betas = [from_array((1, 2), random_unit_vector(rng)) for _ in range(20)]

    def parity5_failures():
        count = 0
        for beta in betas:
            report = run_protocol(beta, parity_family(), mode="parity5")
            verdict = compare_reports(
                report, oracle_report(beta, parity_family()), tol=TOL
            )
            count += 0 if verdict.passed else 1
        return count

    assert parity5_failures() == 0  # healthy baseline

    with monkeypatch.context() as patch:
        patch.setitem(protocol.CORRECTIONS, (PSI_PLUS, PSI_MINUS), ())
        assert parity5_failures() > 0

    with monkeypatch.context() as patch:
        patch.setitem(
            protocol.CORRECTIONS, (PSI_PLUS, PSI_PLUS), ((4, "Z"),)
        )
        assert parity5_failures() > 0

    def conjugate_only(basis, i, register=auxprep.PARTNER_PAIR):
        row = basis.states[i]
        return superpose(
            [
                (complex(amp).conjugate(), basis_ket(register, BASIS_LABELS[idx]))
                for idx, amp in enumerate(row)
                if amp != 0
            ]
        )

    with monkeypatch.context() as patch:
        patch.setattr(auxprep, "conjugate_partner", conjugate_only)
        failures = 0
        for beta in betas:
            report = run_protocol(beta, parity_family(), mode="general")
            verdict = compare_reports(
                report, oracle_report(beta, parity_family()), tol=TOL
            )
            failures += 0 if verdict.passed else 1
        assert failures > 0
    print("criterion 8 (negative controls flip the verdict): PASS")


def test_criterion_9_cli_reports_are_byte_identical(tmp_path):
    """Two CLI runs of the same parity5 config produce byte-identical
    reports, exit 0, and report success probability 0.25."""
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"input_state": "|HH>", "family": "parity", "mode": "parity5"}
        )
    )
    out1 = tmp_path / "report1.json"
    out2 = tmp_path / "report2.json"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["totals"]["success_probability"] == pytest.approx(
        0.25, abs=TOL
    )
    csv1 = tmp_path / "report1.csv"
    csv2 = tmp_path / "report2.csv"
    args = ["run", "--config", str(config), "--format", "csv"]
    assert main(args + ["--out", str(csv1)]) == 0
    assert main(args + ["--out", str(csv2)]) == 0
    assert csv1.read_bytes() == csv2.read_bytes()
    assert main(["verify", "--config", str(config)]) == 0
    print("criterion 9 (CLI determinism, success probability 0.25): PASS")
