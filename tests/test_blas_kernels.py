"""Report bytes do not depend on the OpenBLAS kernel.

The golden and layout pins must hold in a child process run with
``OPENBLAS_CORETYPE=Prescott``, a kernel whose dot products add in another
order than the default one.  Only the child's environment is changed.
"""

import os
import subprocess
import sys
from pathlib import Path

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
