"""Every narrative script in ``demos/`` runs to completion and prints."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = Path(__file__).resolve().parent.parent / "src"


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_the_parity_demo_prints_the_same_under_any_hash_seed():
    # A frozenset of enum members is ordered by string hashes, which
    # PYTHONHASHSEED sets; only the two children get a seed.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "demos/run_parity_measurement.py"],
            cwd=SRC.parent, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert "analyzer=linear\n" in outputs[0]
