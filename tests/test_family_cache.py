"""The families ``load_config`` builds once: ``measurement.shared_family``
keeps the last 32 validated families, keyed by the basis rows' bytes, the
table as a tuple of row tuples and ``tol``.  Content-equal configs share one
read-only family, a failure is never kept, and no kept family may move a
report byte."""

import copy
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import biphoton.measurement as measurement
import biphoton.protocol as protocol
from biphoton.cli import emit_report, load_config
from biphoton.measurement import (
    TwoPhotonBasis,
    family_from_assignment,
    shared_family,
)
from biphoton.protocol import run_protocol
from biphoton.statevec import ValidationError

from support import random_assignment, random_orthonormal_basis

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
PARITY_TABLE = [[1, 0], [1, 0], [0, 1], [0, 1]]
EYE4 = np.eye(4, dtype=complex)


@pytest.fixture(autouse=True)
def cold_cache():
    measurement._family_by_content.cache_clear()
    yield
    measurement._family_by_content.cache_clear()


def cache_size():
    return measurement._family_by_content.cache_info().currsize


def pairs(rows):
    """Basis rows as a config writes them: ``[re, im]`` pairs of floats."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(rows).tolist()]


def family_config(basis=EYE4, table=PARITY_TABLE, tol=1e-10):
    return {
        "input_state": "isqrt2*|HV> + isqrt2*|VH>",
        "family": {"basis": pairs(basis), "assignment": table},
        "mode": "general",
        "tol": tol,
    }


def test_content_equal_configs_share_one_family():
    rng = np.random.default_rng(2100)
    table = random_assignment(rng, 3).tolist()
    config = family_config(random_orthonormal_basis(rng), table)
    first = load_config(config).family
    for again in (copy.deepcopy(config), json.loads(json.dumps(config))):
        assert load_config(again).family is first
    assert cache_size() == 1
    assert not first.projectors.flags.writeable
    assert not first.assignment.flags.writeable
    assert not first.basis.states.flags.writeable


def test_a_signed_zero_another_table_or_another_tol_gives_another_family():
    first = load_config(family_config()).family
    signed = family_config()
    signed["family"]["basis"][0][1] = [-0.0, 0.0]
    other_table = family_config(table=[[1, 0], [0, 1], [0, 1], [0, 1]])
    looser = family_config(tol=1e-9)
    families = [load_config(config).family for config in (signed, other_table, looser)]
    assert all(family is not first for family in families)
    assert families[0] != first and families[1] != first
    assert families[2] == first  # the same content, checked at another tol
    assert cache_size() == 4


def test_one_one_point_oh_and_true_share_a_key():
    first = load_config(family_config()).family
    for table in (
        [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
        [[True, False], [True, False], [False, True], [False, True]],
        tuple(map(tuple, PARITY_TABLE)),
    ):
        assert load_config(family_config(table=table)).family is first
    assert first.assignment.dtype == int
    assert cache_size() == 1


def test_the_family_cache_holds_no_more_than_its_bound():
    rng = np.random.default_rng(2200)
    maxsize = measurement._family_by_content.cache_info().maxsize
    assert maxsize == 32
    for _ in range(40):
        table = random_assignment(rng, int(rng.integers(1, 5))).tolist()
        load_config(family_config(random_orthonormal_basis(rng), table))
        assert cache_size() <= maxsize
    assert cache_size() == maxsize


@pytest.mark.parametrize(
    "basis, table, message",
    [
        ([[1, 0, 0, 0]] * 4, PARITY_TABLE, "basis rows are not orthonormal"),
        (EYE4, [[1, 0], [1, 1], [0, 1], [0, 1]], "assignment row 1 selects 2"),
        (EYE4, [[1], [1, 0], [1], [1]], "assignment rows must all have the same"),
        (EYE4, [[1, 0]] * 4, "assignment column 1 is empty"),
    ],
)
def test_a_failed_validation_leaves_no_entry(basis, table, message):
    config = family_config(basis, table)
    for _ in range(2):  # the same message every time
        with pytest.raises(ValidationError, match=message):
            load_config(config)
        assert cache_size() == 0


@pytest.mark.parametrize(
    "table, message",
    [
        ("1010", r"got shape \(\)"),
        ({"0": [1, 0]}, r"got shape \(\)"),
        ([[[1], [0]], [[1], [0]], [[0], [1]], [[0], [1]]],
         r"got shape \(4, 2, 1\)"),
    ],
    ids=["string", "object", "rows-of-lists"],
)
def test_a_table_that_is_not_rows_of_hashable_entries_goes_uncached(table, message):
    with pytest.raises(ValidationError, match=message):
        shared_family(EYE4, table)
    assert cache_size() == 0


def test_an_array_table_builds_uncached():
    family = shared_family(EYE4, np.array(PARITY_TABLE))
    assert family == family_from_assignment(TwoPhotonBasis(EYE4), PARITY_TABLE)
    assert shared_family(EYE4, np.array(PARITY_TABLE)) is not family
    assert cache_size() == 0


def test_rows_that_are_not_four_by_four_go_uncached():
    with pytest.raises(ValidationError, match=r"basis must be 4x4, got shape \(3,"):
        shared_family(EYE4[:3], PARITY_TABLE)
    assert cache_size() == 0


@pytest.mark.parametrize("workload", ["verify_shared", "run_fresh"])
def test_warm_and_cold_family_caches_emit_the_same_bytes(monkeypatch, workload):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as is
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    source = workloads.stream(workload, 1, workloads.TIMED)
    configs = [source.op(index).config for index in range(40)]

    def emitted(clear_each):
        texts, families = [], []
        for config in configs:
            if clear_each:
                measurement._family_by_content.cache_clear()
                protocol._built_transfer.cache_clear()
            cfg = load_config(config)
            report = run_protocol(
                cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol
            )
            texts += [emit_report(report, "json"), emit_report(report, "csv")]
            families.append(cfg.family)
        return texts, families

    cold_texts, cold_families = emitted(clear_each=True)
    measurement._family_by_content.cache_clear()
    protocol._built_transfer.cache_clear()
    warm_texts, warm_families = emitted(clear_each=False)
    assert warm_texts == cold_texts
    assert warm_families == cold_families
    hits = measurement._family_by_content.cache_info().hits
    assert hits > 0 if workload == "verify_shared" else hits == 0
