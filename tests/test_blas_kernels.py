"""Report bytes and verdicts do not depend on the OpenBLAS kernel.

The golden and layout pins must hold in a child process run with
``OPENBLAS_CORETYPE=Prescott``, a kernel whose dot products add in another
order than the default one, and that child must judge a fixed set of
near-threshold configs exactly as this process does.  Only the child's
environment is changed.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

from biphoton.cli import load_config
from biphoton.protocol import compare_reports, oracle_report, run_protocol

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

CHECK = """
import test_golden_bytes as golden, test_layout_bytes as layouts
assert golden.reports_sha256() == golden.REPORTS_SHA256, "golden report bytes"
assert golden.families_sha256() == golden.FAMILIES_SHA256, "families bytes"
assert layouts.layouts_sha256(list(layouts.reports())) == layouts.LAYOUTS_SHA256, (
    "layout report bytes"
)
"""


def test_pinned_bytes_hold_under_the_prescott_kernel():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE="Prescott",
        PYTHONPATH=path,
        PYTHONDONTWRITEBYTECODE="1",
    )
    result = subprocess.run(
        [sys.executable, "-c", CHECK],
        cwd=TESTS, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def unit(vec):
    return [z / math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in vec))
            for z in vec]


def haar_rows(rng):
    """Rows of a Haar-random 4x4 unitary: modified Gram-Schmidt on complex
    Gaussian rows, in Python arithmetic, so no BLAS draws them."""
    rows = []
    for _ in range(4):
        vec = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
        for row in rows:
            overlap = sum(a.conjugate() * b for a, b in zip(row, vec))
            vec = [b - overlap * a for a, b in zip(row, vec)]
        rows.append(unit(vec))
    return rows


def in_range(rng, rows):
    """A random unit vector spanned by ``rows``."""
    vec = [0j] * 4
    for row in rows:
        weight = complex(rng.gauss(0, 1), rng.gauss(0, 1))
        vec = [v + weight * a for v, a in zip(vec, row)]
    return unit(vec)


def near_threshold_configs(tol, count=200, seed=1):
    """General-mode configs on Haar families with J = 2..4 whose input is
    ``sqrt(1 - p) u0 + sqrt(p) u1``, ``u_j`` a random unit vector in the range of
    ``P_j`` and ``p`` log-uniform in [1.6e-11, 1e-9]: outcome 1's residual is
    normalized from a tiny weight, which puts its check near ``tol``."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, n = haar_rows(rng), rng.randint(2, 4)
        outcomes = [0]
        while len(set(outcomes)) < n:
            outcomes = [rng.randrange(n) for _ in range(4)]
        u0, u1 = (in_range(rng, [r for r, o in zip(rows, outcomes) if o == j])
                  for j in (0, 1))
        p = 10 ** rng.uniform(math.log10(1.6e-11), -9)
        state = [math.sqrt(1 - p) * a + math.sqrt(p) * b for a, b in zip(u0, u1)]

        def pairs(vec):
            return [[z.real, z.imag] for z in vec]

        yield {
            "input_state": pairs(state),
            "family": {
                "basis": [pairs(row) for row in rows],
                "assignment": [[int(o == j) for j in range(n)] for o in outcomes],
            },
            "mode": "general",
            "tol": tol,
        }


def verdicts(tol):
    """``P`` or ``F`` for each near-threshold config under each analyzer."""
    marks = []
    for config in near_threshold_configs(tol):
        for analyzer in ("linear", "ideal"):
            cfg = load_config(dict(config, analyzer=analyzer))
            beta, family = cfg.input_state, cfg.family
            report = run_protocol(beta, family, "general", cfg.analyzer, tol)
            oracle = oracle_report(beta, family, tol)
            marks.append("FP"[compare_reports(report, oracle, tol).passed])
    return "".join(marks)


def test_verdicts_hold_under_the_prescott_kernel():
    # At these tols a check near the margin flips with the last bit of the
    # oracle, the Gram check or a norm, so every product must round one way.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path,
               PYTHONDONTWRITEBYTECODE="1")
    code = "import test_blas_kernels as k; print(k.verdicts(1e-11), k.verdicts(1e-12))"
    result = subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    loose, tight = verdicts(1e-11), verdicts(1e-12)
    assert "F" in loose and "P" in tight  # the set straddles the margin
    assert result.stdout.split() == [loose, tight]
