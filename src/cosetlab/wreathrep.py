"""Irreducible characters and explicit block models of G wr Z_2 built from a
base character table, plus the two-coset subgroup K of the lifted hidden
shift problem and normalized characters on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chartab import CharacterTable
from .groups import Group, GroupElement, Subgroup, WreathZ2, wreath_z2
from .realize import kron_stack

MAX_NORM_TOL = 1e-8


@dataclass(frozen=True)
class WreathIrrepMeta:
    kind: str  # "pair" | "plus" | "minus"
    i: int
    j: int  # equals i for plus/minus


def wreath_irrep_dims(base_dims: Sequence[int], metas: Sequence[WreathIrrepMeta]):
    out = []
    for m in metas:
        if m.kind == "pair":
            out.append(2 * base_dims[m.i] * base_dims[m.j])
        else:
            out.append(base_dims[m.i] ** 2)
    return out


def wreath_char_table(base: CharacterTable) -> CharacterTable:
    """Character table of (base group) wr Z_2.

    Irreps: one for each unordered pair of distinct base irreps, plus two
    extensions (unprimed and primed) of each diagonal tensor square; classes
    are recovered by grouping elements with identical character vectors.
    """
    G0 = base.group
    W = wreath_z2(G0)
    r = base.n_irreps
    metas: List[WreathIrrepMeta] = []
    labels: List[str] = []
    for i in range(r):
        for j in range(i + 1, r):
            metas.append(WreathIrrepMeta("pair", i, j))
            labels.append(f"pair{{{base.labels[i]}|{base.labels[j]}}}")
    for i in range(r):
        metas.append(WreathIrrepMeta("plus", i, i))
        labels.append(f"plus{{{base.labels[i]}}}")
        metas.append(WreathIrrepMeta("minus", i, i))
        labels.append(f"minus{{{base.labels[i]}}}")
    dims = wreath_irrep_dims(base.dims, metas)
    n_w = len(metas)
    assert n_w == (r * r + 3 * r) // 2
    assert sum(d * d for d in dims) == 2 * G0.order**2

    col_cache: Dict[object, int] = {}

    def bcol(v) -> int:
        c = col_cache.get(v)
        if c is None:
            c = base.class_index_of(GroupElement(G0, v))
            col_cache[v] = c
        return c

    V = base.values

    def values_at(value) -> np.ndarray:
        xv, yv, bv = value
        out = np.empty(n_w, dtype=complex)
        if bv == 0:
            vx = V[:, bcol(xv)]
            vy = V[:, bcol(yv)]
            for t, m in enumerate(metas):
                if m.kind == "pair":
                    out[t] = vx[m.i] * vy[m.j] + vx[m.j] * vy[m.i]
                else:
                    out[t] = vx[m.i] * vy[m.i]
        else:
            vxy = V[:, bcol(G0.mul_values(xv, yv))]
            for t, m in enumerate(metas):
                if m.kind == "pair":
                    out[t] = 0.0
                elif m.kind == "plus":
                    out[t] = vxy[m.i]
                else:
                    out[t] = -vxy[m.i]
        return out

    def fingerprint(value) -> tuple:
        return tuple(np.round(values_at(value), 9))

    class_keys: List[tuple] = []
    class_sizes: List[int] = []
    class_reps: List[GroupElement] = []
    columns: List[np.ndarray] = []
    index_of: Dict[tuple, int] = {}
    for el in W.elements():
        key = fingerprint(el.value)
        idx = index_of.get(key)
        if idx is None:
            index_of[key] = len(class_keys)
            class_keys.append(key)
            class_sizes.append(1)
            class_reps.append(el)
            columns.append(values_at(el.value))
        else:
            class_sizes[idx] += 1
    if len(class_keys) != n_w:
        raise ValueError(
            f"{len(class_keys)} character-distinct classes vs {n_w} irreps"
        )

    values = np.column_stack(columns)
    table = CharacterTable(
        W,
        labels,
        dims,
        class_keys,
        class_sizes,
        class_reps,
        values,
        lambda el: fingerprint(el.value),
    )
    table.wreath_meta = metas
    table.base_table = base
    return table


# ---- explicit block models ----

def swap_matrix(d: int) -> np.ndarray:
    """Permutation matrix sending u (x) v to v (x) u on C^d (x) C^d."""
    S = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            S[b * d + a, a * d + b] = 1.0
    return S


MatFun = Callable[[object], np.ndarray]


def wreath_realize(kind: str, rho: MatFun, sigma: Optional[MatFun] = None) -> MatFun:
    """Matrix model of one wreath irrep from unitary models of the base
    irrep(s); takes and returns functions on element values.

    plus/minus act on the tensor square with the coordinate swap appearing
    as a right factor on b=1 (the left-factor order fails the homomorphism
    law under the fixed composition convention); pair-kind is the 2x2 block
    induced model.
    """
    if kind in ("plus", "minus"):
        sign = 1.0 if kind == "plus" else -1.0
        swap: Dict[int, np.ndarray] = {}

        def f(value):
            xv, yv, bv = value
            rx, ry = rho(xv), rho(yv)
            M = np.kron(rx, ry)
            if bv:
                d = rx.shape[0]
                S = swap.get(d)
                if S is None:
                    S = swap_matrix(d)
                    swap[d] = S
                M = sign * (M @ S)
            return M

        return f
    if kind != "pair" or sigma is None:
        raise ValueError(f"unknown wreath irrep kind {kind!r}")

    def g(value):
        xv, yv, bv = value
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

    return g


def wreath_stack(
    kind: str, rho: np.ndarray, sigma: Optional[np.ndarray] = None
) -> np.ndarray:
    """The matrices of wreath_realize for every element at once, in wreath
    id order (b, x, y), from the (|G|, d, d) stacks of the base irrep(s).
    Entries equal wreath_realize's matrices bit for bit: the Kronecker
    products are kron_stack's, and the right factor of the swap on b=1 is
    a column permutation."""
    n = rho.shape[0]
    if kind in ("plus", "minus"):
        sign = 1.0 if kind == "plus" else -1.0
        d = rho.shape[1]
        K = kron_stack(rho, rho)
        # (M @ swap_matrix(d))[:, a*d + b] = M[:, b*d + a]
        perm = np.arange(d * d).reshape(d, d).T.ravel()
        out = np.stack([K, sign * K[..., perm]])
        return out.reshape(2 * n * n, d * d, d * d)
    if kind != "pair" or sigma is None:
        raise ValueError(f"unknown wreath irrep kind {kind!r}")
    # A[x, y] = rho(x) (x) sigma(y) and B[x, y] = rho(y) (x) sigma(x) = A[y, x]
    A = kron_stack(rho, sigma)
    B = A.transpose(1, 0, 2, 3)
    h = A.shape[-1]
    out = np.zeros((2, n, n, 2 * h, 2 * h), dtype=complex)
    out[0, :, :, :h, :h] = A
    out[0, :, :, h:, h:] = B
    out[1, :, :, :h, h:] = A
    out[1, :, :, h:, :h] = B
    return out.reshape(2 * n * n, 2 * h, 2 * h)


# ---- the hidden subgroup K of the lifted shift problem ----

@dataclass(frozen=True)
class KSubgroup:
    base_subgroup: Subgroup
    shift: GroupElement
    subgroup: Subgroup

    @property
    def order(self) -> int:
        return self.subgroup.order


def k_build(H0: Subgroup, s: GroupElement) -> KSubgroup:
    """K = ((H0, s^-1 H0 s), 0) union ((H0 s, s^-1 H0), 1) inside G wr Z_2;
    the Subgroup constructor re-verifies closure exhaustively."""
    G0 = H0.group
    if s.group.key != G0.key:
        raise ValueError("shift must lie in the base group")
    W = wreath_z2(G0)
    s_inv = G0.inv(s)
    vals = set()
    for h1 in H0.elements:
        for h2 in H0.elements:
            conj = G0.mul(G0.mul(s_inv, h2), s)
            vals.add((h1.value, conj.value, 0))
            vals.add((G0.mul(h1, s).value, G0.mul(s_inv, h2).value, 1))
    if len(vals) != 2 * H0.order**2:
        raise AssertionError("two-coset form must have 2|H0|^2 elements")
    sub = Subgroup(
        W,
        [W.make(v) for v in vals],
        label=f"K[{H0.label}, shift {s.value}]",
    )
    return KSubgroup(H0, s, sub)


@dataclass(frozen=True)
class KCharReport:
    label: str
    kind: str
    direct: float
    formula: float
    bound_ok: bool
    equality_holds: Optional[bool]  # None for pair kind


def k_max_normalized_char(
    wtable: CharacterTable, index: int, K: KSubgroup
) -> KCharReport:
    """Directly computed max |chi(k)|/d over non-identity k in K, together
    with its closed form in terms of the base subgroup H0.

    K contains elements whose components are not simultaneously non-identity,
    e.g. ((1, s^-1 h s), 0); on those the pair character normalizes to the
    average of the two single-factor values, so the pair-kind closed form is
    (a + b)/2 with a, b the base maxima over H0, an upper bound.  For the two
    extensions the same mixed elements attain the base maximum and the swap
    coset always holds an element of trace +-d, so the closed form
    max(a, 1/d_rho) is an equality."""
    if K.subgroup.order < 2:
        raise ValueError("K is trivial")
    metas = wtable.wreath_meta
    base: CharacterTable = wtable.base_table
    m = metas[index]
    H0 = K.base_subgroup
    direct = wtable.normalized_char_max(index, K.subgroup)
    if m.kind == "pair":
        a = base.normalized_char_max(m.i, H0)
        b = base.normalized_char_max(m.j, H0)
        formula = (a + b) / 2.0
        equality: Optional[bool] = None
    else:
        base_max = base.normalized_char_max(m.i, H0)
        formula = max(base_max, 1.0 / base.dims[m.i])
        equality = abs(direct - formula) <= MAX_NORM_TOL
        assert equality, (wtable.labels[index], direct, formula)
    assert direct <= formula + MAX_NORM_TOL, (
        wtable.labels[index],
        direct,
        formula,
    )
    return KCharReport(
        label=wtable.labels[index],
        kind=m.kind,
        direct=direct,
        formula=formula,
        bound_ok=True,
        equality_holds=equality,
    )
