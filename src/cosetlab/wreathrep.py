"""Irreducible characters and explicit block models of G wr Z_2 built from a
base character table, plus the two-coset subgroup K of the lifted hidden
shift problem and normalized characters on it.

Each wreath irrep has one matrix formula, `wreath_stack`, which takes the
base irreps' matrices at the x and y components as stacks: the whole base
stacks give the irrep's stack over the group, and one-element stacks give a
single matrix (a batch of one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .chartab import CharacterTable, WreathFamily, WreathIrrepMeta
from .groups import GroupElement, Subgroup, wreath_z2
from .realize import kron_stack

MAX_NORM_TOL = 1e-8


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
    dims = [
        2 * base.dims[m.i] * base.dims[m.j] if m.kind == "pair" else base.dims[m.i] ** 2
        for m in metas
    ]
    n_w = len(metas)
    if sum(d * d for d in dims) != 2 * G0.order**2:
        raise ValueError("base dimensions do not square-sum to the base order")

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
    return CharacterTable(
        W,
        labels,
        dims,
        class_keys,
        class_sizes,
        class_reps,
        values,
        lambda el: fingerprint(el.value),
        WreathFamily(base, tuple(metas)),
    )


# ---- the block models ----

def wreath_stack(
    kind: str, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]
) -> np.ndarray:
    """Matrices of one wreath irrep at every element (x, y, b), as a
    (2, n_x, n_y, D, D) array indexed [b, x, y].  xs holds the (n_x, d, d)
    stacks of the base irrep rho (and, for a pair irrep, sigma) at the x
    components, ys the same irreps at the y components.  Passing the whole
    base stacks gives every element in wreath id order (b, x, y); passing
    one-element stacks gives one matrix.

    plus/minus act on rho (x) rho, with the coordinate swap as a right
    factor on b = 1, i.e. a column permutation (the left-factor order fails
    the homomorphism law under the fixed composition convention); a pair
    irrep is the 2x2 block model induced from rho (x) sigma."""
    if kind in ("plus", "minus"):
        sign = 1.0 if kind == "plus" else -1.0
        d = xs[0].shape[1]
        K = kron_stack(xs[0], ys[0])
        # (M @ swap)[:, a*d + b] = M[:, b*d + a] for the swap u (x) v -> v (x) u
        perm = np.arange(d * d).reshape(d, d).T.ravel()
        return np.stack([K, sign * K[..., perm]])
    if kind != "pair":
        raise ValueError(f"unknown wreath irrep kind {kind!r}")
    # A[x, y] = rho(x) (x) sigma(y) and B[x, y] = rho(y) (x) sigma(x)
    A = kron_stack(xs[0], ys[1])
    B = kron_stack(ys[0], xs[1]).transpose(1, 0, 2, 3)
    n_x, n_y, h = A.shape[0], A.shape[1], A.shape[-1]
    out = np.zeros((2, n_x, n_y, 2 * h, 2 * h), dtype=complex)
    out[0, :, :, :h, :h] = A
    out[0, :, :, h:, h:] = B
    out[1, :, :, :h, h:] = A
    out[1, :, :, h:, :h] = B
    return out


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
    fam = wtable.family
    if not isinstance(fam, WreathFamily):
        raise ValueError(f"{wtable.group} has no wreath-product character table")
    base = fam.base
    m = fam.metas[index]
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
        if not equality:
            raise AssertionError(
                f"{wtable.labels[index]}: max normalized character {direct} "
                f"differs from its closed form {formula}"
            )
    if direct > formula + MAX_NORM_TOL:
        raise AssertionError(
            f"{wtable.labels[index]}: max normalized character {direct} "
            f"exceeds its bound {formula}"
        )
    return KCharReport(
        label=wtable.labels[index],
        kind=m.kind,
        direct=direct,
        formula=formula,
        bound_ok=True,
        equality_holds=equality,
    )
