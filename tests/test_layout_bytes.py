"""Byte-exact pin over seeded reports of many branch layouts.

A layout is what decides where a report's numbers sit: the mode, the
analyzer, the corrections and which branches and residual components are
nonzero.  The reports below cover every mode with four analyzers (linear,
ideal, Psi+ only, Psi- only), sparse inputs with exact-zero amplitudes and
zero-probability branches, and more distinct layouts than the writer keeps
cached, emitted in an order that revisits a report after another one.  The
inputs and bases are drawn without BLAS, so the pin holds under every
OpenBLAS kernel.  It does not hold under every numpy SIMD dispatch:
``product_basis`` multiplies with ``np.kron``, whose complex multiply fuses
multiply-adds on AVX-512, so with those features disabled the bases differ.
Print the current hash with ``PYTHONPATH=src python tests/test_layout_bytes.py``
and update the pin only when a change to report bytes is intended.
"""

import cmath
import hashlib
import math

import numpy as np
import pytest

from biphoton.cli import emit_report
from biphoton.measurement import family_from_assignment, parity_family
from biphoton.protocol import (
    IDEAL_ANALYZER,
    LINEAR_ANALYZER,
    MODES,
    ZERO_PROBABILITY,
    AnalyzerModel,
    BellOutcome,
    run_protocol,
)
from biphoton.statevec import from_array

from support import random_assignment

#: sha256 of the emitted texts, in the order ``emissions`` yields them.
LAYOUTS_SHA256 = "4e4e940f70bf95668f06db4108191026687b43701d68d70f53aa2a59a74709f7"

ANALYZERS = (
    LINEAR_ANALYZER,
    IDEAL_ANALYZER,
    AnalyzerModel("psi-plus", {BellOutcome.PSI_PLUS}),
    AnalyzerModel("psi-minus", {BellOutcome.PSI_MINUS}),
)
#: Inputs with exact zeros: basis states, Bell states and a complex pair.
SPARSE = [np.eye(4)[k] for k in range(4)] + [
    np.array([0, 1, 1, 0]) / np.sqrt(2),
    np.array([1, 0, 0, -1]) / np.sqrt(2),
    np.array([0.6, 0, 0.8j, 0]),
]


def unit_vector(rng):
    """A random unit 4-vector, divided by its correctly rounded norm."""
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return vec / math.sqrt(math.fsum((vec.real**2).tolist() + (vec.imag**2).tolist()))


def product_basis(rng):
    """Rows of the tensor product of two random one-photon unitaries."""
    def unitary():
        a, b, c = rng.uniform(0, 2 * math.pi, 3).tolist()
        return np.array([
            [math.cos(a), -cmath.exp(1j * b) * math.sin(a)],
            [cmath.exp(1j * c) * math.sin(a), cmath.exp(1j * (b + c)) * math.cos(a)],
        ])
    return np.kron(unitary(), unitary())


def reports(seed=7):
    """Seeded reports: each mode and analyzer on every sparse input and on
    dense ones; general mode on random product and computational bases."""
    rng = np.random.default_rng(seed)
    computational = np.eye(4, dtype=complex)
    for mode in MODES:
        for analyzer in ANALYZERS:
            dense = [unit_vector(rng) for _ in range(2)]
            for k, vec in enumerate(SPARSE + dense):
                if mode != "general":
                    family = parity_family()
                else:
                    n_outcomes = 1 + k % 4
                    basis = computational if k % 3 == 0 else product_basis(rng)
                    family = family_from_assignment(
                        basis, random_assignment(rng, n_outcomes)
                    )
                yield run_protocol(from_array((1, 2), vec), family, mode, analyzer)


def layout(report) -> tuple:
    """What places a report's numbers, read off its public arrays."""
    return (
        report.mode,
        report.analyzer.name,
        report.corrections,
        (report.probabilities >= ZERO_PROBABILITY).tobytes(),
        (report.residuals != 0).tobytes(),
    )


def emissions(all_reports):
    """JSON then CSV of each report, but every third pair interleaved with the
    next report's, and every fifth report CSV first."""
    for i in range(0, len(all_reports) - 1, 2):
        first, second = all_reports[i], all_reports[i + 1]
        if i % 3 == 0:
            yield from (emit_report(first, "json"), emit_report(second, "json"),
                        emit_report(first, "csv"), emit_report(second, "csv"))
        else:
            for report in (first, second):
                formats = ("csv", "json") if i % 5 == 0 else ("json", "csv")
                yield from (emit_report(report, fmt) for fmt in formats)


def layouts_sha256(all_reports) -> str:
    digest = hashlib.sha256()
    for text in emissions(all_reports):
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def all_reports():
    return list(reports())


def test_the_reports_cover_more_layouts_than_a_template_cache_of_32(all_reports):
    assert len(all_reports) % 2 == 0
    assert len({layout(report) for report in all_reports}) > 2 * 32


def test_layout_report_bytes_are_pinned(all_reports):
    assert layouts_sha256(all_reports) == LAYOUTS_SHA256


if __name__ == "__main__":
    print("layouts", layouts_sha256(list(reports())))
