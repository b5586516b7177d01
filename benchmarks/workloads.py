"""Seeded inputs for the benchmark workloads.

Every op is a decoded-JSON config dict, the shape ``biphoton run`` reads
from disk, plus the normalized input vector the checks use.  Inputs come
only from the seed: the same seed gives the same op sequence.  Nothing
here imports the program or ``tests/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-10
ISQRT2 = 2.0 ** -0.5

#: Computational-basis and Bell kets as ket expressions, with their vectors
#: over (HH, HV, VH, VV).
SPARSE_KETS = (
    ("|HH>", (1, 0, 0, 0)),
    ("|HV>", (0, 1, 0, 0)),
    ("|VH>", (0, 0, 1, 0)),
    ("|VV>", (0, 0, 0, 1)),
    ("isqrt2*|HV> + isqrt2*|VH>", (0, ISQRT2, ISQRT2, 0)),
    ("isqrt2*|HV> - isqrt2*|VH>", (0, ISQRT2, -ISQRT2, 0)),
    ("isqrt2*|HH> + isqrt2*|VV>", (ISQRT2, 0, 0, ISQRT2)),
    ("isqrt2*|HH> - isqrt2*|VV>", (ISQRT2, 0, 0, -ISQRT2)),
)

_BELL_BASIS = (
    (0, ISQRT2, ISQRT2, 0),
    (0, ISQRT2, -ISQRT2, 0),
    (ISQRT2, 0, 0, ISQRT2),
    (ISQRT2, 0, 0, -ISQRT2),
)

ANALYZERS = ("linear", "ideal")
CLI_KINDS = ("json", "csv", "verify")

# Stream ids mixed into the seed, so each stream is independent.
POOL, TIMED, WARMUP = 0, 1, 2


@dataclass(frozen=True)
class Op:
    """One generated operation: a config plus what the checks need."""

    index: int
    config: dict
    vector: np.ndarray  # normalized input over (HH, HV, VH, VV)
    kind: str  # "verify", "run", or for cli_cold one of CLI_KINDS


def _pairs(row) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(row, dtype=complex)]


def family_value(basis, assignment) -> dict:
    """A config ``family`` object from basis rows and a 0/1 table."""
    return {"basis": [_pairs(row) for row in basis], "assignment": assignment}


def haar_basis(rng) -> np.ndarray:
    """Rows of a Haar-random 4x4 unitary."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return (q * (d / np.abs(d))).T


def random_assignment(rng, n_outcomes: int) -> list:
    """A 4 x J table mapping each row to one outcome, no outcome empty."""
    outcome = list(range(n_outcomes)) + [
        int(x) for x in rng.integers(0, n_outcomes, size=4 - n_outcomes)
    ]
    outcome = [outcome[k] for k in rng.permutation(4)]
    return [[int(outcome[i] == j) for j in range(n_outcomes)] for i in range(4)]


def random_input(rng, sparse: bool):
    """A config ``input_state`` value and its normalized vector."""
    if sparse:
        text, vec = SPARSE_KETS[int(rng.integers(len(SPARSE_KETS)))]
        vec = np.asarray(vec, dtype=complex)
        return text, vec / np.linalg.norm(vec)
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vec /= np.linalg.norm(vec)
    return _pairs(vec), vec


def shared_pool(seed: int) -> list:
    """The fixed (family, mode, analyzer) triples ``verify_shared`` reuses."""
    rng = np.random.default_rng([seed, POOL])
    families = [
        ("parity", "parity5"),
        ("parity", "parity4"),
        ("parity", "general"),
        (family_value(_BELL_BASIS, [[1, 0], [0, 1], [0, 1], [0, 1]]), "general"),
    ]
    for n_outcomes in (3, 4):
        basis = haar_basis(rng)
        families.append(
            (family_value(basis, random_assignment(rng, n_outcomes)), "general")
        )
    return [(fam, mode, an) for fam, mode in families for an in ANALYZERS]


def _config(family, mode, analyzer, input_state) -> dict:
    return {
        "input_state": input_state,
        "family": family,
        "mode": mode,
        "analyzer": analyzer,
        "tol": TOL,
    }


class SharedStream:
    """Seeded inputs over the shared pool; half sparse, half dense."""

    modes = ("general", "parity5", "parity4")

    def __init__(self, seed: int, stream: int, kinds=("verify",)):
        self.pool = shared_pool(seed)
        self.kinds = kinds
        self._rng = np.random.default_rng([seed, stream])
        # Warm-up walks the pool in order, one sparse and one dense input
        # per triple, so every triple has been seen before timing starts.
        self._cycle = stream == WARMUP

    def op(self, index: int) -> Op:
        if self._cycle:
            pick = (index // 2) % len(self.pool)
        elif len(self.kinds) > 1:
            # Every (kind, mode) pair within each run of nine ops.
            mode = self.modes[(index // len(self.kinds)) % len(self.modes)]
            choices = [k for k, t in enumerate(self.pool) if t[1] == mode]
            pick = choices[int(self._rng.integers(len(choices)))]
        else:
            pick = int(self._rng.integers(len(self.pool)))
        family, mode, analyzer = self.pool[pick]
        value, vec = random_input(self._rng, sparse=index % 2 == 0)
        kind = self.kinds[index % len(self.kinds)]
        return Op(index, _config(family, mode, analyzer, value), vec, kind)


class FreshStream:
    """A new Haar-random family per op: general mode, dense input."""

    def __init__(self, seed: int, stream: int):
        self._rng = np.random.default_rng([seed, stream])

    def op(self, index: int) -> Op:
        rng = self._rng
        basis = haar_basis(rng)
        family = family_value(basis, random_assignment(rng, int(rng.integers(1, 5))))
        analyzer = ANALYZERS[int(rng.integers(2))]
        value, vec = random_input(rng, sparse=False)
        return Op(index, _config(family, "general", analyzer, value), vec, "run")


def stream(workload: str, seed: int, which: int):
    """The op source of ``workload`` for stream ``which`` (TIMED or WARMUP)."""
    if workload == "verify_shared":
        return SharedStream(seed, which)
    if workload == "run_fresh":
        return FreshStream(seed, which)
    if workload == "cli_cold":
        return SharedStream(seed, which, kinds=CLI_KINDS)
    raise ValueError(f"unknown workload {workload!r}")
