"""Each input rule has one owner, and every public entry point obeys it.

* Orthonormality: ``TwoPhotonBasis`` checks its rows within its ``tol``;
  ``validate_basis``, ``shared_family``, ``family_from_assignment`` and
  ``load_config`` all go through it, so they build or refuse the same rows
  with the same message.
* Numbers: ``statevec._is_real`` decides what a config entry and a ``tol``
  may be: any ``numbers.Real`` but a bool.  ``statevec._numbers`` decides
  what an amplitude, a basis entry or a coefficient may be: any finite
  ``numbers.Number`` but a bool, so never a string or ``None``.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import biphoton.measurement as measurement
from biphoton.cli import load_config
from biphoton.measurement import (
    TwoPhotonBasis,
    family_from_assignment,
    ket_from_vector,
    shared_family,
    validate_basis,
)
from biphoton.statevec import (
    DEFAULT_TOL,
    ValidationError,
    _check_tol,
    basis_ket,
    from_array,
    superpose,
)

from support import random_orthonormal_basis

PARITY_TABLE = [[1, 0], [1, 0], [0, 1], [0, 1]]
I4 = np.eye(4, dtype=complex)


@pytest.fixture(autouse=True)
def cold_cache():
    measurement._family_by_content.cache_clear()
    yield
    measurement._family_by_content.cache_clear()


def outcome(build):
    """``"built"``, or the message of the ``ValidationError`` ``build`` raises."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return "built"


def as_pairs(rows):
    return [[[v.real, v.imag] for v in row.tolist()] for row in rows]


def entry_points(rows, table, tol):
    """Every public way to turn basis rows into a basis or a family at ``tol``."""
    config = {
        "input_state": "|HH>",
        "family": {"basis": as_pairs(rows), "assignment": table},
        "mode": "general",
        "tol": tol,
    }
    calls = {
        "TwoPhotonBasis": lambda: TwoPhotonBasis(rows, tol),
        "validate_basis": lambda: validate_basis(rows, tol),
        "shared_family": lambda: shared_family(rows, table, tol),
        "load_config": lambda: load_config(config),
    }
    if tol == DEFAULT_TOL:
        calls["family_from_assignment"] = lambda: family_from_assignment(rows, table)
    return calls


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-6])
def test_every_entry_point_applies_one_orthonormality_rule(delta, tol):
    rng = np.random.default_rng(1700)
    for seed in range(5):
        rows = random_orthonormal_basis(rng)
        r = seed % 4
        # Row r leans 1.5 * delta towards row r + 1: the Gram matrix moves by that.
        rows[r] = rows[r] + 1.5 * delta * rows[(r + 1) % 4]
        outcomes = {
            name: outcome(call)
            for name, call in entry_points(rows, PARITY_TABLE, tol).items()
        }
        assert len(set(outcomes.values())) == 1, outcomes
        if 1.5 * delta <= tol:
            assert outcomes["TwoPhotonBasis"] == "built"
        else:
            message = outcomes["TwoPhotonBasis"]
            assert message.startswith("basis rows are not orthonormal: <row")
            assert f"row{r}" in message and f"row{(r + 1) % 4}" in message


def test_a_deviation_of_exactly_tol_is_within_it():
    tol = 2.0**-20
    rows = I4.copy()
    rows[1, 0] = tol  # <row0|row1> = tol, <row1|row1> = 1 + tol**2: all exact
    assert outcome(lambda: TwoPhotonBasis(rows, tol)) == "built"
    assert outcome(lambda: TwoPhotonBasis(rows, np.nextafter(tol, 0.0))) == (
        "basis rows are not orthonormal: <row0|row1> = 9.53674e-07+0j "
        "deviates by 9.54e-07"
    )


def test_a_basis_of_repeated_rows_cannot_be_built():
    rows = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    table = [[1, 0], [0, 1], [0, 1], [0, 1]]
    message = "basis rows are not orthonormal: <row0|row1> = 1+0j deviates by 1"
    for build in (
        lambda: TwoPhotonBasis(rows),
        lambda: family_from_assignment(rows, table),
        lambda: shared_family(rows, table),
    ):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == message


@pytest.mark.parametrize("tol", [0, 1, True, "x"])
def test_a_bad_basis_tol_raises_the_tol_message(tol):
    with pytest.raises(ValidationError) as expected:
        _check_tol(tol)
    for build in (
        lambda: TwoPhotonBasis(I4, tol),
        lambda: validate_basis(I4, tol),
        lambda: shared_family(I4, PARITY_TABLE, tol),
    ):
        with pytest.raises(ValidationError) as excinfo:
            build()
        assert str(excinfo.value) == str(expected.value)


HALF = [[0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5],
        [0.5, 0.5, -0.5, -0.5], [0.5, -0.5, -0.5, 0.5]]
UNIT = [[float(i == k) for k in range(4)] for i in range(4)]
SHAPES = {"half": (HALF, [0.5, 0.5, 0.5, 0.5]), "unit": (UNIT, [1.0, 0.0, 0.0, 0.0])}


def number_config(kind, shape, paired):
    """A general config whose every input and basis entry is ``kind``."""
    basis, state = SHAPES[shape]

    def entry(v):
        return [kind(v), kind(0)] if paired else kind(v)

    return {
        "input_state": [entry(v) for v in state],
        "family": {"basis": [[entry(v) for v in row] for row in basis],
                   "assignment": PARITY_TABLE},
        "mode": "general",
    }


NUMBER_CASES = [
    pytest.param(kind, shape, paired, id=f"{kind.__name__}-{shape}-{pairing}")
    for kind in (np.float64, np.float32, np.int64, Fraction)
    for shape, (basis, _) in SHAPES.items()
    if all(kind(v) == v for row in basis for v in row)  # no int64 halves
    for paired, pairing in ((False, "bare"), (True, "pairs"))
]


@pytest.mark.parametrize("kind, shape, paired", NUMBER_CASES)
def test_load_config_reads_any_real_number_as_its_float(kind, shape, paired):
    plain = load_config(number_config(float, shape, False))
    cfg = load_config(number_config(kind, shape, paired))
    assert cfg.input_state == plain.input_state
    assert cfg.family is plain.family


def first_row(value):
    """The identity basis with ``value`` in place of its first entry."""
    return [[value, 0, 0, 0], *I4[1:].tolist()]


#: Every public way to read caller numbers as amplitudes, each given ``value``
#: in its first place, and the name its message gives that place.
AMPLITUDE_READERS = {
    "from_array": (lambda v: from_array((1, 2), [v, 0, 0, 0]), "amplitude"),
    "ket_from_vector": (lambda v: ket_from_vector((1, 2), [v, 0, 0, 0]), "amplitude"),
    "TwoPhotonBasis": (  # compared by identity, so by its rows here
        lambda v: TwoPhotonBasis(first_row(v)).states.tolist(), "basis entry"
    ),
    "shared_family": (
        lambda v: shared_family(first_row(v), PARITY_TABLE), "basis entry"
    ),
    "superpose": (
        lambda v: superpose([(v, basis_ket((1, 2), "HH"))]), "coefficient"
    ),
}


@pytest.mark.parametrize("value", ["1", True, None, np.True_, [1]], ids=repr)
@pytest.mark.parametrize("reader", AMPLITUDE_READERS)
def test_an_amplitude_that_is_not_a_number_is_rejected_by_name(reader, value):
    build, what = AMPLITUDE_READERS[reader]
    assert outcome(lambda: build(value)) == f"{what} {value!r} is not a number"


@pytest.mark.parametrize("reader", AMPLITUDE_READERS)
@pytest.mark.parametrize(
    "value",
    [1, 1.0, 1 + 0j, Fraction(1), Decimal(1), np.float32(1), np.int64(1),
     np.complex128(1)],
    ids=repr,
)
def test_any_number_but_a_bool_is_an_amplitude(reader, value):
    build, _ = AMPLITUDE_READERS[reader]
    assert build(value) == build(1.0)


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: from_array((1, 2), ["1", "0", "0", "0"]), "'1'"),
        (lambda: from_array((1, 2), [True, False, False, False]), "True"),
        (lambda: from_array((1, 2), np.array([True, False, False, False])), "np.True_"),
        (lambda: from_array((1, 2), np.array(["1", "0", "0", "0"])), "np.str_('1')"),
        (lambda: from_array((1, 2), [1, None, 0, 0]), "None"),
    ],
)
def test_from_array_names_the_first_entry_that_is_not_a_number(build, value):
    assert outcome(build) == f"amplitude {value} is not a number"
