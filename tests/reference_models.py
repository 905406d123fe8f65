"""Reference models the tests compare the package against: trace
certification on class representatives, and the per-element wreath and
product matrices (np.kron with an explicit swap matrix) that the batched
formulas in `wreathrep` and `realize` replaced."""

from __future__ import annotations

import numpy as np

from cosetlab.realize import TRACE_TOL


def check_traces(table, reals, tol: float = TRACE_TOL) -> float:
    """Max |trace - table value| over all irreps and class representatives."""
    worst = 0.0
    for i, r in enumerate(reals):
        for j, rep in enumerate(table.class_reps):
            err = abs(np.trace(r.mat_value(rep.value)) - table.values[i, j])
            worst = max(worst, err)
    if worst > tol:
        raise AssertionError(f"trace certification failed: {worst}")
    return worst


def swap_matrix(d: int) -> np.ndarray:
    """Permutation matrix sending u (x) v to v (x) u on C^d (x) C^d."""
    S = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            S[b * d + a, a * d + b] = 1.0
    return S


def wreath_mat(kind: str, rho, sigma, value) -> np.ndarray:
    """One wreath irrep at value = (x, y, b), from the base irreps' per-value
    matrix functions: plus/minus on rho (x) rho with the swap as a right
    factor on b = 1, pair as the 2x2 block model of rho (x) sigma."""
    xv, yv, bv = value
    if kind in ("plus", "minus"):
        rx, ry = rho(xv), rho(yv)
        M = np.kron(rx, ry)
        if bv:
            sign = 1.0 if kind == "plus" else -1.0
            M = sign * (M @ swap_matrix(rx.shape[0]))
        return M
    A = np.kron(rho(xv), sigma(yv))
    B = np.kron(rho(yv), sigma(xv))
    h = A.shape[0]
    M = np.zeros((2 * h, 2 * h), dtype=complex)
    if bv == 0:
        M[:h, :h] = A
        M[h:, h:] = B
    else:
        M[:h, h:] = A
        M[h:, :h] = B
    return M


def product_mat(a, b, value) -> np.ndarray:
    """One direct-product irrep at value = (v1, v2) from realized factors."""
    return np.kron(a.mat_value(value[0]), b.mat_value(value[1]))
