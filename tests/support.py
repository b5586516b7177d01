"""Shared helpers for the test suite.

The dense-array functions here form an independent oracle path: they
build full multi-photon state tensors from their definitions with numpy
outer products and contract them with ``tensordot``, never calling the
package's state algebra (``src/`` does not import this module).
Conventions match the package only at the level of published definitions
(component order HH, HV, VH, VV; photon axes in register order).

The last sections keep the generic JSON tree renderer the CLI once used,
as the reference for the report layout the CLI's own writer must match,
and the walk over every branch record that ``compare_reports`` once made,
as the reference for its per-branch mismatch texts and their order.
"""

import json

import numpy as np

BASIS_LABELS = ("HH", "HV", "VH", "VV")

PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
BELL_VECTORS = {
    "PsiPlus": PSI_PLUS,
    "PsiMinus": PSI_MINUS,
    "PhiPlus": PHI_PLUS,
    "PhiMinus": PHI_MINUS,
}


def random_unit_vector(rng, dim=4):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_orthonormal_basis(rng):
    """Rows of a Haar-like random 4x4 unitary (QR of a Ginibre matrix)."""
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(m)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q.conj().T


def random_assignment(rng, n_outcomes):
    """Random 4 x J binary table: one 1 per row, no empty column."""
    while True:
        cols = rng.integers(0, n_outcomes, size=4)
        if len(set(cols.tolist())) == n_outcomes:
            table = np.zeros((4, n_outcomes), dtype=int)
            table[np.arange(4), cols] = 1
            return table


# ---------------------------------------------------------------------------
# dense oracle machinery
# ---------------------------------------------------------------------------


def dense_state(labels_to_amp, n_photons):
    """Dense tensor of shape (2,)*n from a {labels: amplitude} mapping."""
    out = np.zeros((2,) * n_photons, dtype=complex)
    for labels, amp in labels_to_amp.items():
        idx = tuple(0 if ch == "H" else 1 for ch in labels)
        out[idx] += amp
    return out


def dense_from_ket(ket):
    return dense_state(dict(ket.items()), len(ket.register))


def two_photon_tensor(vec4):
    return np.asarray(vec4, dtype=complex).reshape(2, 2)


def conjugate_partner_vector(row):
    """Conjugate the components and flip H<->V on both photons."""
    return np.asarray(row, dtype=complex).conj()[::-1]


def dense_general_aux(basis_rows, assignment):
    """Six-photon resource tensor built directly from its definition."""
    basis_rows = np.asarray(basis_rows, dtype=complex)
    assignment = np.asarray(assignment, dtype=int)
    aux = np.zeros((2,) * 6, dtype=complex)
    for j in range(assignment.shape[1]):
        j_tensor = dense_state({BASIS_LABELS[j]: 1.0}, 2)
        for i in range(4):
            if assignment[i, j]:
                kept = two_photon_tensor(basis_rows[i])
                partner = two_photon_tensor(conjugate_partner_vector(basis_rows[i]))
                aux += 0.5 * np.multiply.outer(
                    np.multiply.outer(kept, partner), j_tensor
                )
    return aux


def dense_parity_aux5():
    return dense_state(
        {"HHVVH": 0.5, "VVHHH": 0.5, "HVVHV": 0.5, "VHHVV": 0.5}, 5
    )


def dense_parity_aux4():
    return dense_state({"HHVV": 2.0 ** -0.5, "VVHH": 2.0 ** -0.5}, 4)


def dense_total(beta_vec4, aux_tensor):
    """Input pair (photons 1, 2) joined with an auxiliary resource."""
    return np.multiply.outer(two_photon_tensor(beta_vec4), aux_tensor)


def contract(bra_tensor, axes, state):
    """Contract a dense bra tensor against the given state axes.

    Remaining axes keep their original relative order, matching the
    package's convention for partial contractions.
    """
    bra = np.asarray(bra_tensor, dtype=complex)
    if bra.ndim == 1 and bra.shape[0] == 4:
        bra = bra.reshape(2, 2)
    return np.tensordot(bra.conj(), state, axes=(list(range(bra.ndim)), list(axes)))


def dense_probability(state):
    return float(np.vdot(state, state).real)


def dense_bell_pair_residual(total8_or_7, bell15, bell26, n_photons):
    """Contract Bell bras on photons (1,5) and (2,6) of a full tensor.

    ``n_photons`` is the photon count of the full tensor (8, 7 or 6);
    axis k holds photon k+1.  Returns the unnormalized residual on the
    remaining photons in ascending order.
    """
    after15 = contract(BELL_VECTORS[bell15], (0, 4), total8_or_7)
    # remaining axes now hold photons (2, 3, 4, 6, 7, 8)[:n_photons-2]
    return contract(BELL_VECTORS[bell26], (0, 3), after15)


def dense_corrected(corrections, residual):
    """A dense residual on photons (3, 4, ...) after ``(photon, "Z")`` phase
    corrections: Z = diag(1, -1) on photon p is a +-1 factor on axis p - 3."""
    out = np.array(residual, dtype=complex)
    for photon, gate in corrections:
        assert gate == "Z", f"no dense form for gate {gate!r}"
        v_slice = [slice(None)] * out.ndim
        v_slice[photon - 3] = 1
        out[tuple(v_slice)] *= -1
    return out


# ---------------------------------------------------------------------------
# reference report layout
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    value = float(x)
    if value == 0.0:
        value = 0.0  # canonicalize -0.0
    return format(value, ".17g")


def _json_scalar(value) -> str | None:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    return None


def _render(value, indent: int = 0) -> str:
    scalar = _json_scalar(value)
    if scalar is not None:
        return scalar
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(key))}: {_render(val, indent + 1)}"
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if not any(isinstance(item, dict) for item in items):
            inline = "[" + ", ".join(_render(item, 0) for item in items) + "]"
            if len(inline) <= 100:
                return inline
        rendered = [f"{pad}  {_render(item, indent + 1)}" for item in items]
        return "[\n" + ",\n".join(rendered) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


# ---------------------------------------------------------------------------
# reference branch walk
# ---------------------------------------------------------------------------


def branch_walk_mismatches(report, oracle, tol):
    """``compare_reports``' per-branch mismatch texts, from every record of
    ``report.branches`` in order, each success one against the oracle state."""
    from biphoton.statevec import phase_equal

    texts = []
    for index, branch in enumerate(report.branches):
        if not branch.is_success:
            continue
        target = oracle.states[branch.j]
        if target is None:
            texts.append(
                f"branch {index} succeeds with outcome {branch.j}, "
                "which the oracle rules out"
            )
        elif not phase_equal(branch.residual, target, tol=tol):
            texts.append(
                f"branch {index} ({branch.bell15.value}, {branch.bell26.value}"
                f", outcome {branch.j}): residual differs from the projected "
                "input beyond global phase"
            )
    return texts
