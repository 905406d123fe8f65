"""Irreducible characters and explicit block models of G wr Z_2 built from a
base character table, plus the two-coset subgroup K of the lifted hidden
shift problem and normalized characters on it.

The character table is in closed form: its conjugacy classes, exact keys,
sizes, representatives and values come from the base table's classes
through the base ids, without enumerating G wr Z_2, and its class columns
are computed on whole id arrays.

Each wreath irrep has one matrix formula, `wreath_stack`, which takes the
base irreps' matrices at the x and y components of a batch of elements,
element by element; the realized irrep's gather feeds it rows of the base
stacks at the components of an id array.

`chartab` and `realize` are imported inside the functions that use them,
so building K for `mceliece attack` loads no character-table layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

import numpy as np

from .groups import Subgroup, wreath_z2

if TYPE_CHECKING:
    from .chartab import CharacterTable

MAX_NORM_TOL = 1e-8


def wreath_char_table(base: CharacterTable) -> CharacterTable:
    """Character table of (base group) wr Z_2, in closed form.

    Irreps: one for each unordered pair of distinct base irreps, plus two
    extensions (unprimed and primed) of each diagonal tensor square.

    Classes (James-Kerber, ch. 4), with base classes C_0, ..., C_{r-1}:
    for b = 0, key (0, i, j) with i <= j is the unordered pair of base
    classes of x and y, of size |C_i||C_j|, doubled when i != j; for b = 1,
    key (1, c) is the base class of x*y, of size |G||C_c|.  Each class is
    represented by its first element in W's id order, and classes are
    ordered by that element's id.  Keys, columns and representatives are
    read from the base table's class columns through the base ids, so W
    is never enumerated."""
    from .chartab import CharacterTable, WreathFamily, WreathIrrepMeta
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
    if sum(d * d for d in dims) != 2 * G0.order**2:
        raise ValueError("base dimensions do not square-sum to the base order")

    ids0 = G0.ids()
    n = ids0.order
    bcols = base.element_columns()
    sizes = base.class_sizes
    # first[c]: smallest base id in C_c; swap_first[c]: smallest y with
    # x0*y in C_c, for x0 = base id 0 (not the identity in general)
    _, first = np.unique(bcols, return_index=True)
    _, swap_first = np.unique(bcols[ids0.mul(0, np.arange(n))], return_index=True)
    classes = []  # (representative as base ids (x, y, b), key, size)
    for i in range(r):
        for j in range(i, r):
            lo, hi = sorted((first[i], first[j]))
            classes.append(((lo, hi, 0), (0, i, j), sizes[i] * sizes[j] * (1 if i == j else 2)))
    for c in range(r):
        classes.append(((0, swap_first[c], 1), (1, c), n * sizes[c]))
    classes.sort(key=lambda cl: (cl[0][2], cl[0][0], cl[0][1]))
    keys = [cl[1] for cl in classes]

    x, y, b = np.array([cl[0] for cl in classes]).T
    V = base.values
    VX, VY, VXY = V[:, bcols[x]], V[:, bcols[y]], V[:, bcols[ids0.mul(x, y)]]
    mi = np.array([m.i for m in metas])
    mj = np.array([m.j for m in metas])
    kind = np.array([m.kind for m in metas])[:, None]
    # pair: chi_i(x)chi_j(y) + chi_j(x)chi_i(y) off the swap, 0 on it;
    # plus/minus: chi_i(x)chi_i(y) off the swap, +-chi_i(xy) on it
    off_swap = np.where(kind == "pair", VX[mi] * VY[mj] + VX[mj] * VY[mi], VX[mi] * VY[mi])
    on_swap = np.where(kind == "pair", 0, np.where(kind == "minus", -VXY[mi], VXY[mi]))
    values = np.where(b == 0, off_swap, on_swap)

    pair_col = np.empty((r, r), dtype=int)
    swap_col = np.empty(r, dtype=int)
    for col, key in enumerate(keys):
        if key[0]:
            swap_col[key[1]] = col
        else:
            pair_col[key[1], key[2]] = pair_col[key[2], key[1]] = col

    def columns_of_ids(w: np.ndarray) -> np.ndarray:
        wx, wy, wb = W.ids().split(w)
        return np.where(
            wb == 0, pair_col[bcols[wx], bcols[wy]], swap_col[bcols[ids0.mul(wx, wy)]]
        )

    return CharacterTable(
        W,
        labels,
        dims,
        keys,
        [cl[2] for cl in classes],
        [(ids0.value_of(xi), ids0.value_of(yi), int(bi)) for xi, yi, bi in zip(x, y, b)],
        values,
        columns_of_ids,
        WreathFamily(base, tuple(metas)),
    )


# ---- the block models ----

def wreath_stack(
    kind: str, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], b: np.ndarray
) -> np.ndarray:
    """Matrices of one wreath irrep at the elements (x[i], y[i], b[i]), as
    an (n, D, D) array.  xs holds the (n, d, d) matrices of the base irrep
    rho (and, for a pair irrep, sigma) at the x components, ys the same
    irreps at the y components, and b the swap bits.

    plus/minus act on rho (x) rho, with the coordinate swap as a right
    factor on b = 1, i.e. a column permutation (the left-factor order fails
    the homomorphism law under the fixed composition convention); a pair
    irrep is the 2x2 block model induced from rho (x) sigma."""
    from .realize import kron_stack
    swap = np.asarray(b) == 1
    if kind in ("plus", "minus"):
        sign = 1.0 if kind == "plus" else -1.0
        d = xs[0].shape[1]
        out = kron_stack(xs[0], ys[0])
        # (M @ swap)[:, a*d + b] = M[:, b*d + a] for the swap u (x) v -> v (x) u
        perm = np.arange(d * d).reshape(d, d).T.ravel()
        out[swap] = sign * out[swap][..., perm]
        return out
    if kind != "pair":
        raise ValueError(f"unknown wreath irrep kind {kind!r}")
    # A = rho(x) (x) sigma(y) and B = rho(y) (x) sigma(x)
    A = kron_stack(xs[0], ys[1])
    B = kron_stack(ys[0], xs[1])
    n, h = A.shape[:2]
    out = np.zeros((n, 2 * h, 2 * h), dtype=complex)
    out[~swap, :h, :h] = A[~swap]
    out[~swap, h:, h:] = B[~swap]
    out[swap, :h, h:] = A[swap]
    out[swap, h:, :h] = B[swap]
    return out


# ---- the hidden subgroup K of the lifted shift problem ----

class KSubgroup(NamedTuple):
    base_subgroup: Subgroup
    shift: tuple
    subgroup: Subgroup

    @property
    def order(self) -> int:
        return self.subgroup.order


def k_build(H0: Subgroup, s) -> KSubgroup:
    """K = ((H0, s^-1 H0 s), 0) union ((H0 s, s^-1 H0), 1) inside G wr Z_2
    for the shift value s of the base group, built on ids: (x, y, b) has
    id (b*|G| + x)*|G| + y."""
    G0 = H0.group
    G0.validate_value(s)
    ids0 = G0.ids()
    n = np.int64(ids0.order)
    h, si = H0.ids, ids0.id_of(s)
    s_inv = ids0.inverse[si]
    conj = ids0.mul(ids0.mul(s_inv, h), si)
    K = np.concatenate([
        (h[:, None] * n + conj[None, :]).ravel(),
        ((n + ids0.mul(h, si))[:, None] * n + ids0.mul(s_inv, h)[None, :]).ravel(),
    ])
    sub = Subgroup(wreath_z2(G0), K, label=f"K[{H0.label}, shift {s}]")
    return KSubgroup(H0, s, sub)


class KCharReport(NamedTuple):
    label: str
    kind: str
    direct: float
    formula: float
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
    from .chartab import WreathFamily
    if K.subgroup.order < 2:
        raise ValueError("K is trivial")
    fam = wtable.family
    if not isinstance(fam, WreathFamily):
        raise ValueError(f"{wtable.group} has no wreath-product character table")
    base = fam.base
    m = fam.metas[index]
    H0 = K.base_subgroup
    direct = float(wtable.normalized_char_maxes(K.subgroup)[index])
    base_max = base.normalized_char_maxes(H0).tolist()
    if m.kind == "pair":
        formula = (base_max[m.i] + base_max[m.j]) / 2.0
        equality: Optional[bool] = None
    else:
        formula = max(base_max[m.i], 1.0 / base.dims[m.i])
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
        equality_holds=equality,
    )
