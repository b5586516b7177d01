"""The numeric policy is stated once, in ``biphoton.statevec``.

Every other module decides "is this zero" and "do these agree" with the
constants statevec exports or with the caller's ``tol``; a small float
literal anywhere else is a threshold drifting back in.
"""

import ast
from pathlib import Path

import numpy as np

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


def test_each_bell_pair_bra_row_has_one_real_entry():
    """``_built_transfer`` applies ``_BELL_PAIR_BRAS`` to the resource with
    numpy's ``@``, which goes through BLAS, and BLAS kernels add a dot product
    in different orders.  With exactly one nonzero entry per row, real and the
    same ±0.5000000000000001 (1/√2 squared, as rounded), every entry of ``T``
    is one rounded product beside exact zeros, so that ``@`` gives the same
    bits on every OpenBLAS kernel."""
    bras = protocol._BELL_PAIR_BRAS
    assert bras.shape == (64, 4)
    for row in bras:
        (column,) = np.flatnonzero(row)
        assert row[column].imag == 0.0
        assert abs(row[column].real) == 0.5000000000000001
