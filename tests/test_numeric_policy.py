"""The numeric policy is stated once, in ``biphoton.statevec``.

Every other module decides "is this zero" and "do these agree" with the
constants statevec exports or with the caller's ``tol``; a small float
literal anywhere else is a threshold drifting back in.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import biphoton
import biphoton.auxprep as auxprep
import biphoton.cli as cli
import biphoton.protocol as protocol
import biphoton.statevec as statevec

PACKAGE = Path(biphoton.__file__).parent
POLICY_MODULE = "statevec.py"


def small_float_literals(path):
    """``(line, value)`` of every float literal with ``0 < |value| < 1e-3``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-3
    ]


def module_level_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_no_module_but_statevec_carries_a_small_threshold():
    found = {
        path.name: small_float_literals(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != POLICY_MODULE
    }
    assert {name: lits for name, lits in found.items() if lits} == {}


def test_policy_module_literals_are_seen():
    # The check above would pass vacuously if it could not see literals.
    values = {v for _, v in small_float_literals(PACKAGE / POLICY_MODULE)}
    assert {
        statevec.PRUNE_THRESHOLD,
        statevec.ZERO_PROBABILITY,
        statevec.DEFAULT_TOL,
    } <= values


def test_zero_probability_is_defined_once_and_still_importable():
    owners = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "ZERO_PROBABILITY" in module_level_names(path)
    ]
    assert owners == [POLICY_MODULE]
    assert protocol.ZERO_PROBABILITY is statevec.ZERO_PROBABILITY
    assert "ZERO_PROBABILITY" in protocol.__all__


def test_retired_thresholds_are_gone():
    assert not hasattr(statevec, "ZERO_NORM")
    assert not hasattr(protocol, "_PARITY_PROJECTORS")


def test_one_float_format_rule():
    # Every number a report or ket expression prints goes through one helper.
    counts = {
        path.name: path.read_text(encoding="utf-8").count(".17g")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: n for name, n in counts.items() if n} == {"cli.py": 1}
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    helper = next(
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_number"
    )
    assert ".17g" in ast.get_source_segment(source, helper)
    assert cli._number(-0.0) == "0"


def test_one_complex_product_rule():
    # Every complex product is rounded one way, by statevec.complex_product.
    owners = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "complex_product"
    ]
    assert owners == [POLICY_MODULE]
    helper = statevec.complex_product
    assert auxprep.complex_product is helper and protocol.complex_product is helper
    source = (PACKAGE / "protocol.py").read_text(encoding="utf-8")
    assert "_COMPLEX_PRODUCT" not in source
    assert "ascontiguousarray" not in source
    assert not hasattr(statevec, "_COMPLEX_PRODUCT")


def test_protocol_totals_add_left_to_right():
    # From Python 3.12 the builtin sum of floats compensates, which would
    # move the last bit of printed totals; protocol adds strictly in order.
    tree = ast.parse((PACKAGE / "protocol.py").read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert calls == []


def test_a_branch_weight_is_one_product_with_the_conjugate():
    """``run_protocol`` and ``oracle_report`` weigh each residual as
    ``complex_product(r, r.conj()).real``; that must be the plain sum of
    squares, ``(r.real**2 + r.imag**2).sum(-1)``, bit for bit, at every
    magnitude whose square is a normal float, mixed within one residual too."""
    rng = np.random.default_rng(2802)
    for exponent in range(-150, 151, 10):
        shape = (16, 4, 4)
        parts = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mixed = parts * 10.0 ** rng.uniform(-150, 150, shape)
        for r in (parts * 10.0**exponent, mixed):
            got = statevec.complex_product(r, r.conj())
            assert got.real.tobytes() == (r.real**2 + r.imag**2).sum(-1).tobytes()
            assert not got.imag.any()


def test_each_bell_pair_bra_row_has_one_real_entry():
    """``_built_transfer`` applies ``_BELL_PAIR_BRAS`` to the resource through
    ``complex_product``.  With exactly one nonzero entry per row, real and the
    same ±0.5000000000000001 (1/√2 squared, as rounded), every entry of ``T``
    is one rounded product beside exact zeros, so ``T`` holds the resource's
    amplitudes times that one constant whatever order a sum took."""
    bras = protocol._BELL_PAIR_BRAS
    assert bras.shape == (64, 4)
    for row in bras:
        (column,) = np.flatnonzero(row)
        assert row[column].imag == 0.0
        assert abs(row[column].real) == 0.5000000000000001


def written_out(x, y):
    """The rounding rule spelled out one real operation at a time: each term
    ``xr*yr - xi*yi`` and ``xr*yi + xi*yr``, added to zero in index order."""
    x, y = np.broadcast_arrays(np.asarray(x, complex), np.asarray(y, complex))
    re, im = np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        xr, xi, yr, yi = x.real[..., k], x.imag[..., k], y.real[..., k], y.imag[..., k]
        re = re + (xr * yr - xi * yi)
        im = im + (xr * yi + xi * yr)
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


#: Operand shapes of each call site: the resource, the contraction (J = 4),
#: the projectors, the Gram check, the oracle, ``tensor``, the Bell-pair bras,
#: their product with the resource, and ``inner``/``norm`` on six photons.
CALL_SITES = {
    "resource": ((4, 1, 1, 4), (4, 4, 4)),
    "contraction": ((4, 4, 4, 4, 4), (4,)),
    "projectors": ((4, 4, 1, 4), (4, 4)),
    "gram": ((4, 1, 4), (4, 4)),
    "oracle": ((3, 4, 4), (4,)),
    "tensor": ((4, 1, 1), (1, 16, 1)),
    "bras": ((2, 1, 4, 1, 2, 1, 1), (1, 2, 1, 4, 1, 2, 1)),
    "bras-resource": ((64, 1, 4), (16, 4)),
    "inner": ((64,), (64,)),
}


def operand(rng, shape, kind):
    real = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if kind == "real":
        return real
    z = real + 1j * rng.normal(size=shape)
    z[rng.random(shape) < 0.2] = 0  # exact zeros, as pruned amplitudes hold
    return z


@pytest.mark.parametrize("site", CALL_SITES)
@pytest.mark.parametrize("kinds", [("complex", "complex"), ("real", "complex"),
                                   ("complex", "real"), ("real", "real")])
def test_complex_product_is_the_written_out_rule_bit_for_bit(site, kinds):
    rng, shapes = np.random.default_rng(2500), CALL_SITES[site]
    for _ in range(20):
        x, y = (operand(rng, shape, kind) for shape, kind in zip(shapes, kinds))
        got = statevec.complex_product(x, y)
        assert got.dtype == complex
        assert got.tobytes() == written_out(x, y).tobytes()
        # Neither the layout nor the order of axes in memory moves a bit.
        flipped = np.ascontiguousarray(x[..., ::-1])[..., ::-1]
        assert statevec.complex_product(flipped, y).tobytes() == got.tobytes()


def test_inner_norm_and_phase_equal_round_as_complex_product():
    rng = np.random.default_rng(2501)
    for n in (1, 2, 2, 2, 6):
        for _ in range(50):
            x, y = (operand(rng, (2,) * n, "complex") for _ in range(2))
            a, b = statevec.Ket(tuple(range(n)), x), statevec.Ket(tuple(range(n)), y)
            xs, ys = x.reshape(-1), y.reshape(-1)
            overlap = statevec.complex_product(xs.conj(), ys)
            squares = [statevec.complex_product(v.conj(), v).real for v in (xs, ys)]
            bits = np.array([overlap, *squares]).tobytes()
            # the pass phase_equal makes
            scalar = statevec._flat_sums(*statevec._lists(a, b))
            assert np.array(scalar).tobytes() == bits
            assert np.array(statevec.inner(a, b)).tobytes() == overlap.tobytes()
            assert statevec.norm(a) == math.sqrt(squares[0])


def test_superpose_is_python_complex_arithmetic_bit_for_bit():
    # Each term c * a as Python rounds it, added to 0j in term order.
    rng = np.random.default_rng(2902)
    for n, count in ((1, 1), (1, 3), (2, 2), (2, 4), (3, 5)):
        for _ in range(40):
            register = tuple(range(n))
            kets = [statevec.Ket(register, operand(rng, (2,) * n, "complex"))
                    for _ in range(count)]
            coeffs = operand(rng, (count,), "complex").tolist()
            written = []
            for amplitudes in zip(*(ket.array.ravel().tolist() for ket in kets)):
                total = 0j
                for c, a in zip(coeffs, amplitudes):
                    total += c * a
                written.append(total)
            got = statevec.superpose(zip(coeffs, kets))
            want = statevec._prune(written).reshape((2,) * n)
            assert got.array.tobytes() == want.tobytes()
