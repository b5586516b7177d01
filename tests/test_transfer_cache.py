"""The transfer tensors ``run_protocol`` builds once: every mode's on first
use, in one bounded cache keyed by family content, register photons and the
partner rule looked up at call time.  No cached tensor may move a report
byte, and a patch of ``auxprep.conjugate_partner`` or of ``CORRECTIONS`` must
still reach every run after the cache is warm."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import biphoton.auxprep as auxprep
import biphoton.protocol as protocol
from biphoton.cli import emit_report, load_config
from biphoton.measurement import family_from_assignment, parity_family
from biphoton.protocol import (
    BellOutcome,
    compare_reports,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import from_array, superpose

from support import random_assignment, random_orthonormal_basis, random_unit_vector

PSI_PLUS = BellOutcome.PSI_PLUS
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(autouse=True)
def cold_cache():
    protocol._built_transfer.cache_clear()
    yield
    protocol._built_transfer.cache_clear()


def cache_size():
    return protocol._built_transfer.cache_info().currsize


def general_transfer(family):
    """The cached ``T`` of ``family``'s general resource."""
    return protocol._built_transfer(
        family, auxprep.J_REGISTER_TWO, auxprep.conjugate_partner
    )


def test_the_cache_holds_the_documented_32_tensors():
    # 16 KB a general tensor, so the cache stays within 0.5 MB.
    assert protocol._built_transfer.cache_info().maxsize == 32
    assert general_transfer(parity_family()).nbytes == 16 * 1024


def betas(seed, count=20):
    rng = np.random.default_rng(seed)
    return [from_array((1, 2), random_unit_vector(rng)) for _ in range(count)]


def general_failures(inputs):
    family = parity_family()
    return sum(
        not compare_reports(
            run_protocol(beta, family, "general"), oracle_report(beta, family)
        ).passed
        for beta in inputs
    )


def report_bytes(inputs, family, mode="general"):
    reports = [run_protocol(beta, family, mode) for beta in inputs]
    return [emit_report(report, fmt) for report in reports for fmt in ("json", "csv")]


def conjugate_only(basis, i, register=auxprep.PARTNER_PAIR):
    """A partner without the polarization flip."""
    return from_array(register, basis.states[i].conj())


def test_a_partner_patch_misses_a_warm_cache(monkeypatch):
    inputs = betas(88)
    assert general_failures(inputs) == 0  # warms the cache on the parity family
    warm = general_transfer(parity_family())
    with monkeypatch.context() as patch:
        patch.setattr(auxprep, "conjugate_partner", conjugate_only)
        assert general_failures(inputs) > 0
    # Restored, the healthy entry serves again, and it is what a cold run builds.
    assert general_transfer(parity_family()) is warm
    warm_bytes = report_bytes(inputs, parity_family())
    protocol._built_transfer.cache_clear()
    assert report_bytes(inputs, parity_family()) == warm_bytes


def test_a_spurious_correction_reaches_a_warm_general_run(monkeypatch):
    inputs = betas(89)
    assert general_failures(inputs) == 0
    monkeypatch.setitem(protocol.CORRECTIONS, (PSI_PLUS, PSI_PLUS), ((4, "Z"),))
    assert general_failures(inputs) > 0


def test_the_cache_keys_on_family_content():
    rng = np.random.default_rng(1800)
    basis, table = random_orthonormal_basis(rng), random_assignment(rng, 3)
    first = general_transfer(family_from_assignment(basis, table))
    same = family_from_assignment(basis.copy(), table.copy())
    assert general_transfer(same) is first
    assert cache_size() == 1

    nudged = basis.copy()
    nudged[2, 1] = np.nextafter(nudged[2, 1].real, 2.0) + 1j * nudged[2, 1].imag
    other_table = np.roll(table, 1, axis=1)
    for family in (
        family_from_assignment(nudged, table),
        family_from_assignment(basis, other_table),
    ):
        assert general_transfer(family) is not first
    assert cache_size() == 3


def _fresh(mode, family):
    family, register = {
        "general": (family, auxprep.J_REGISTER_TWO),
        "parity5": (parity_family(), auxprep.J_REGISTER_ONE),
        "parity4": (parity_family(), ()),
    }[mode]
    return protocol._built_transfer.__wrapped__(
        family, register, auxprep.conjugate_partner
    )


def _cached(mode, family):
    _, _, j_register, preset = protocol._MODE_TABLE[mode]
    return protocol._built_transfer(
        preset or family, j_register, auxprep.conjugate_partner
    )


def bell_transfer(aux):
    """``_BELL_PAIR_BRAS`` applied to a public resource's amplitudes."""
    resource = aux.ket.array.reshape(4, 4, -1)  # (kept, partners, r)
    t = protocol._BELL_PAIR_BRAS @ resource.transpose(1, 2, 0).reshape(4, -1)
    return np.moveaxis(t.reshape(4, 4, 4, -1, 4), 0, -1)


BELL_BASIS = 2**-0.5 * np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex
)


def public_resources():
    """(family, register, resource) from the public builders: the parity family
    on all three registers, the identity and Bell bases and seeded Haar families
    for J = 1..4, each on the general register."""
    yield parity_family(), auxprep.J_REGISTER_TWO, auxprep.build_general_aux(
        parity_family()
    )
    yield parity_family(), auxprep.J_REGISTER_ONE, auxprep.build_parity_aux5()
    yield parity_family(), (), auxprep.build_parity_aux4()
    rng = np.random.default_rng(2000)
    for n_outcomes in (1, 2, 3, 4):
        haar = [random_orthonormal_basis(rng) for _ in range(10)]
        for basis in [np.eye(4), BELL_BASIS, *haar]:
            family = family_from_assignment(basis, random_assignment(rng, n_outcomes))
            yield family, auxprep.J_REGISTER_TWO, auxprep.build_general_aux(family)


def test_an_uncached_compile_is_t_of_the_public_resource_byte_for_byte():
    count = 0
    for family, register, aux in public_resources():
        got = protocol._built_transfer.__wrapped__(
            family, register, auxprep.conjugate_partner
        )
        assert aux.j_register == register
        assert got.tobytes() == bell_transfer(aux).tobytes()
        count += 1
    assert count == 3 + 4 * 12
    assert cache_size() == 0  # __wrapped__ bypasses the cache


def test_cached_tensors_are_read_only_and_equal_a_fresh_build():
    rng = np.random.default_rng(1900)
    cases = [(mode, parity_family()) for mode in protocol.MODES]
    cases += [
        ("general", family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, j)
        ))
        for j in (1, 2, 3, 4)
    ]
    for mode, family in cases:
        cached = _cached(mode, family)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0, 0, 0, 0] = 1.0
        fresh = _fresh(mode, family)
        assert cached.strides == fresh.strides
        assert np.array_equal(
            np.ascontiguousarray(cached).view(float),
            np.ascontiguousarray(fresh).view(float),
        )


def test_the_cache_holds_no_more_than_its_bound():
    rng = np.random.default_rng(2000)
    beta = from_array((1, 2), random_unit_vector(rng))
    for _ in range(200):
        n_outcomes = int(rng.integers(1, 5))
        family = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, n_outcomes)
        )
        run_protocol(beta, family, "general")
        assert cache_size() <= protocol._built_transfer.cache_info().maxsize
    assert cache_size() == protocol._built_transfer.cache_info().maxsize
    assert general_transfer(family) is general_transfer(family)


def test_verify_shared_bytes_do_not_depend_on_a_warm_cache(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as is
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    source = workloads.stream("verify_shared", 1, workloads.TIMED)
    configs = [load_config(source.op(index).config) for index in range(40)]

    def emitted(clear_each):
        texts = []
        for cfg in configs:
            if clear_each:
                protocol._built_transfer.cache_clear()
            report = run_protocol(
                cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol
            )
            texts += [emit_report(report, "json"), emit_report(report, "csv")]
        return texts

    cold = emitted(clear_each=True)
    protocol._built_transfer.cache_clear()
    assert emitted(clear_each=False) == cold
    assert 0 < cache_size() < len(configs)  # the warm pass hit


def verify_all_modes(inputs):
    """Whether every input passes ``verify`` on the parity family, per mode."""
    family = parity_family()
    return {
        mode: all(
            compare_reports(
                run_protocol(beta, family, mode), oracle_report(beta, family)
            ).passed
            for beta in inputs
        )
        for mode in protocol.MODES
    }


def test_a_partner_patch_reaches_every_mode(monkeypatch):
    healthy = auxprep.conjugate_partner

    def scaled(basis, i):
        return superpose([(1.01, healthy(basis, i))])

    inputs = betas(92, count=5)
    assert verify_all_modes(inputs) == dict.fromkeys(protocol.MODES, True)
    with monkeypatch.context() as patch:
        patch.setattr(auxprep, "conjugate_partner", scaled)
        assert verify_all_modes(inputs) == dict.fromkeys(protocol.MODES, False)
    # Restored, the healthy entries serve again: every run hits, none builds.
    before = protocol._built_transfer.cache_info()
    assert verify_all_modes(inputs) == dict.fromkeys(protocol.MODES, True)
    after = protocol._built_transfer.cache_info()
    assert after.hits - before.hits == len(protocol.MODES) * len(inputs)
    assert after.misses == before.misses


def test_a_bell_bra_patch_reaches_every_mode_once_the_cache_is_cleared(monkeypatch):
    inputs = betas(90, count=5)
    assert verify_all_modes(inputs) == dict.fromkeys(protocol.MODES, True)
    scaled = protocol._BELL_PAIR_BRAS.copy()
    scaled[:, 0] *= 1.5  # the partner |HH> column, which every mode's resource reads
    with monkeypatch.context() as patch:
        patch.setattr(protocol, "_BELL_PAIR_BRAS", scaled)
        protocol._built_transfer.cache_clear()
        assert verify_all_modes(inputs) == dict.fromkeys(protocol.MODES, False)
    protocol._built_transfer.cache_clear()
    assert verify_all_modes(inputs) == dict.fromkeys(protocol.MODES, True)


def test_parity_tensors_share_the_bound_and_rebuild_the_same_bytes():
    inputs, modes = betas(91, count=5), ("parity5", "parity4")
    first = [report_bytes(inputs, parity_family(), mode) for mode in modes]
    rng = np.random.default_rng(2100)
    for _ in range(protocol._built_transfer.cache_info().maxsize):  # evicts both
        family = family_from_assignment(
            random_orthonormal_basis(rng), random_assignment(rng, 4)
        )
        run_protocol(inputs[0], family, "general")
    before = protocol._built_transfer.cache_info()
    again = [report_bytes(inputs, parity_family(), mode) for mode in modes]
    assert protocol._built_transfer.cache_info().misses == before.misses + len(modes)
    assert again == first
