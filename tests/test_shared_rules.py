"""Rules that live in one place: the correction signs and the overflow scaling.

``protocol._described`` owns the +-1 signs each accepted pair's ``Z``
corrections put on the kept pair, beside the branch names built from the same
corrections; ``run_protocol`` reads them from there.  ``cli.load_config``
scales an input whose squares overflow by ``statevec._scaled``'s power of two,
which is exact, so such an input normalizes to the bits of any power-of-two
multiple of it.
"""

import functools

import numpy as np
import pytest

from biphoton import cli, protocol
from biphoton.cli import load_config
from biphoton.measurement import parity_family
from biphoton.protocol import (
    IDEAL_ANALYZER,
    LINEAR_ANALYZER,
    MODES,
    AnalyzerModel,
    BellOutcome,
    compare_reports,
    oracle_report,
    run_protocol,
)
from biphoton.statevec import from_array, to_array

from support import dense_corrected, random_unit_vector

PSI_PLUS, PSI_MINUS = BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS
ANALYZERS = (
    LINEAR_ANALYZER,
    IDEAL_ANALYZER,
    AnalyzerModel("psi-plus", {PSI_PLUS}),
    AnalyzerModel("psi-minus", {PSI_MINUS}),
)
#: The criterion-8 negative controls on ``CORRECTIONS``.
PATCHES = {
    "none": {},
    "dropped": {(PSI_PLUS, PSI_MINUS): ()},
    "spurious": {(PSI_PLUS, PSI_PLUS): ((4, "Z"),)},
}


def config(parts):
    """A parity5 config whose input is four ``[re, im]`` pairs."""
    pairs = [[re, im] for re, im in np.asarray(parts).tolist()]
    return {"input_state": pairs, "family": "parity", "mode": "parity5"}


def input_bits(parts) -> bytes:
    return to_array(load_config(config(parts)).input_state).tobytes()


def test_an_overflowing_input_normalizes_as_its_power_of_two_multiple():
    # Dividing by the largest part rounds, so most such inputs used to land a
    # few ulps away from the same input scaled by 2**-600; scaling by a power
    # of two is exact, so now every one lands on the same bits.
    rng = np.random.default_rng(3200)
    for _ in range(200):
        parts = rng.normal(size=(4, 2)) * 10.0 ** rng.uniform(200, 307, size=(4, 2))
        vec = parts.view(complex).ravel()
        assert np.isinf(cli._norm(vec)) and np.isfinite(cli._norm(vec * 2.0**-600))
        assert input_bits(parts) == input_bits(parts * 2.0**-600)


def test_the_largest_float_scales_by_a_representable_power():
    # frexp puts sys.float_info.max at exponent 1024, and 2**1024 is no float:
    # the largest part goes into [1, 2), so 2**e stays at most 2**1023.
    top = 1.7976931348623157e308
    cfg = load_config(config([[top, -top]] * 4))
    assert cfg.warnings == ("input state norm inf differs from 1; normalizing",)
    m = top * 2.0**-1023
    assert to_array(cfg.input_state).tobytes() == input_bits([[m, -m]] * 4)


def sign_product(fix) -> np.ndarray:
    """The product of ``_SIGN_MASKS`` over one pair's corrections, (2, 2)."""
    masks = [protocol._SIGN_MASKS[correction] for correction in fix]
    return functools.reduce(np.multiply, masks, np.ones((2, 2)))


@pytest.mark.parametrize("patch", PATCHES)
def test_described_signs_are_the_product_of_each_pairs_masks(patch, monkeypatch):
    for key, value in PATCHES[patch].items():
        monkeypatch.setitem(protocol.CORRECTIONS, key, value)
    rng = np.random.default_rng(3300)
    beta = from_array((1, 2), random_unit_vector(rng))
    residual = random_unit_vector(rng).reshape(2, 2)
    for mode in MODES:
        for analyzer in ANALYZERS:
            report = run_protocol(beta, parity_family(), mode, analyzer)
            signs = protocol._described(mode, analyzer, report.corrections)[1]
            assert signs.shape == (16, 1, 4) and not signs.flags.writeable
            with pytest.raises(ValueError):
                signs[0, 0, 0] = -1.0
            for k, fix in enumerate(report.corrections):
                want = sign_product(fix or ())
                assert signs[k].reshape(2, 2).tobytes() == want.tobytes()
                corrected = dense_corrected(fix or (), residual)
                assert np.array_equal(want * residual, corrected)


def test_a_corrections_patch_reaches_a_warm_parity5_run(monkeypatch):
    family = parity_family()
    beta = from_array((1, 2), random_unit_vector(np.random.default_rng(3400)))
    oracle = oracle_report(beta, family)
    for _ in range(2):  # the second run finds _described warm
        assert compare_reports(run_protocol(beta, family, "parity5"), oracle).passed
    info = protocol._described.cache_info()
    assert info.maxsize == 32  # bounded like _built_transfer
    hits = info.hits
    for key, value in PATCHES["dropped"].items():
        monkeypatch.setitem(protocol.CORRECTIONS, key, value)
    assert not compare_reports(run_protocol(beta, family, "parity5"), oracle).passed
    monkeypatch.undo()
    assert compare_reports(run_protocol(beta, family, "parity5"), oracle).passed
    assert protocol._described.cache_info().hits > hits
