"""Reference models the tests compare the package against: tuple-valued
group arithmetic and cycle types, which the id views replaced, trace
certification on class representatives, the per-element wreath and
product matrices (np.kron with an explicit swap matrix) that the batched
formulas in `wreathrep` and `realize` replaced, the enumerating wreath
character table that the closed form in `wreathrep` replaced, and the
tuple-valued subgroup certification and closure that the id arrays of
`groups.Subgroup` replaced, and the per-element contraction diag(U* Pi U)
that the coset kernel in `sampling` replaced, and the kernel's dense route
|Q* rho(g) e_i|^2 that its diagonals at conjugates replaced; the
tuple-valued McEliece shift functions and stabilizer that the label arrays
of `hsp` replaced, and the materialized int32 label array of their wreath
lift that `hsp.LiftedLabels` replaced; and
paper quantities that no package code reads: the stabilizer/orbit counting
formulas over F_q, the linear multiplicities of GL2 tensor squares and the
scalar-free corollary bound."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from cosetlab import fields
from cosetlab.chartab import CharacterTable, WreathFamily
from cosetlab.fields import Fq, Matrix
from cosetlab.groups import (
    DirectProduct,
    GeneralLinearGroup,
    Subgroup,
    SymmetricGroup,
    wreath_z2,
)
from cosetlab.realize import TRACE_TOL, projector_basis
from cosetlab.wreathrep import wreath_char_table


# ---- tuple-valued group arithmetic ----

def mul_values(G, a, b):
    """a * b on values, left factor applied first: (pi * sigma)(i) =
    sigma(pi(i)), and (x1, y1, b1) * (x2, y2, b2) = (x1 u, y1 v, b1 ^ b2)
    with (u, v) = (x2, y2) when b1 = 0 and (y2, x2) when b1 = 1."""
    if isinstance(G, SymmetricGroup):
        return tuple(b[a[i]] for i in range(G.n))
    if isinstance(G, GeneralLinearGroup):
        return fields.mat_mul(G.field, a, b)
    if isinstance(G, DirectProduct):
        return tuple(mul_values(F, x, y) for F, x, y in zip(G.factors, a, b))
    x1, y1, b1 = a
    x2, y2, b2 = b
    if b1:
        x2, y2 = y2, x2
    return (mul_values(G.base, x1, x2), mul_values(G.base, y1, y2), b1 ^ b2)


def inv_value(G, a):
    if isinstance(G, SymmetricGroup):
        out = [0] * G.n
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)
    if isinstance(G, GeneralLinearGroup):
        return fields.mat_inv(G.field, a)
    if isinstance(G, DirectProduct):
        return tuple(inv_value(F, x) for F, x in zip(G.factors, a))
    x, y, b = a
    if b:
        return (inv_value(G.base, y), inv_value(G.base, x), 1)
    return (inv_value(G.base, x), inv_value(G.base, y), 0)


def conj(G, g, x):
    """g^-1 x g on values."""
    return mul_values(G, mul_values(G, inv_value(G, g), x), g)


def cycle_type(perm) -> tuple:
    """Cycle lengths of an image tuple, sorted decreasing (a partition of n)."""
    seen = [False] * len(perm)
    lens = []
    for i in range(len(perm)):
        if not seen[i]:
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            lens.append(length)
    lens.sort(reverse=True)
    return tuple(lens)


# ---- character tables and realized irreps ----

def check_traces(table, reals, tol: float = TRACE_TOL) -> float:
    """Max |trace - table value| over all irreps and class representatives."""
    worst = 0.0
    for i, r in enumerate(reals):
        for j, rep in enumerate(table.class_reps):
            err = abs(np.trace(r.mat_value(rep)) - table.values[i, j])
            worst = max(worst, err)
    if worst > tol:
        raise AssertionError(f"trace certification failed: {worst}")
    return worst


def fixed_weights(mats: np.ndarray, P: np.ndarray) -> np.ndarray:
    """<U e_i, P U e_i> for every matrix U of a stack and basis vector e_i:
    the (n, d) diagonals of U* P U, one d^3 contraction per matrix."""
    return np.einsum("gji,jk,gki->gi", mats.conj(), P, mats).real


def fixed_space_basis(P: np.ndarray) -> np.ndarray:
    """(d, rank) orthonormal basis Q of the range of the projection P, with
    Q Q* = P, by the package's pivoted Gram-Schmidt."""
    return projector_basis(P, round(np.trace(P).real))


def q_route_weights(real, P: np.ndarray, ids) -> np.ndarray:
    """|Q* rho(g) e_i|^2 for every id g and basis vector e_i, from the
    dense products Q* rho(g): the coset kernel's weights before they were
    read off diagonals at conjugates."""
    A = fixed_space_basis(P).conj().T @ real.at(ids)
    return (A.real**2 + A.imag**2).sum(axis=1)


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


def enumerated_wreath_char_table(base) -> CharacterTable:
    """Character table of (base group) wr Z_2 found by enumerating W: each
    element's character vector is computed from the base table, and
    elements with the same vector rounded to 9 places form one class,
    represented by its first element in id order.  Irreps, labels and
    dimensions are those of `wreath_char_table`."""
    closed = wreath_char_table(base)
    metas = closed.family.metas
    G0 = base.group
    W = wreath_z2(G0)
    n_w = len(metas)

    col_cache: Dict[object, int] = {}

    def bcol(v) -> int:
        c = col_cache.get(v)
        if c is None:
            c = base.class_index_of(v)
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
            vxy = V[:, bcol(mul_values(G0, xv, yv))]
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
    class_reps: List[tuple] = []
    columns: List[np.ndarray] = []
    index_of: Dict[tuple, int] = {}
    for el in W.elements():
        key = fingerprint(el)
        idx = index_of.get(key)
        if idx is None:
            index_of[key] = len(class_keys)
            class_keys.append(key)
            class_sizes.append(1)
            class_reps.append(el)
            columns.append(values_at(el))
        else:
            class_sizes[idx] += 1
    if len(class_keys) != n_w:
        raise AssertionError(f"{len(class_keys)} character-distinct classes vs {n_w} irreps")
    def columns_of_ids(w: np.ndarray) -> np.ndarray:
        return np.array([index_of[fingerprint(W.ids().value_of(i))] for i in w], dtype=int)

    return CharacterTable(
        W, closed.labels, closed.dims, class_keys, class_sizes, class_reps,
        np.column_stack(columns), columns_of_ids, WreathFamily(base, metas),
    )


def reference_subgroup_values(G, values) -> frozenset:
    """The value set of a subgroup of G, certified by |H|^2 tuple products;
    ValueError if the values do not form a subgroup."""
    values = frozenset(values)
    if G.identity_value() not in values:
        raise ValueError("subgroup misses the identity")
    for a in values:
        if inv_value(G, a) not in values:
            raise ValueError("subgroup not closed under inverse")
        for b in values:
            if mul_values(G, a, b) not in values:
                raise ValueError("subgroup not closed under product")
    return values


def reference_closure_values(G, gen_values) -> frozenset:
    """The subgroup generated by gen_values, by a breadth-first walk on
    tuples, certified as above."""
    values = {G.identity_value()}
    frontier = [G.identity_value()]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gen_values:
                w = mul_values(G, v, g)
                if w not in values:
                    values.add(w)
                    nxt.append(w)
        frontier = nxt
    return reference_subgroup_values(G, values)


# ---- McEliece shift functions on tuples ----

def shift_value(F: Fq, target: Matrix, value) -> Matrix:
    """A^-1 target P at the base value (A, P): f0 for target M, f1 for M*."""
    A, P = value
    return fields.apply_perm_to_cols(fields.mat_mul(F, fields.mat_inv(F, A), target), P)


def lifted_function(inst):
    """The lifted function on wreath values, (f0(x), f1(y)) at (x, y, 0)
    and (f1(y), f0(x)) at (x, y, 1), with f0 and f1 tabulated once per base
    value."""
    F = inst.field()
    base = list(inst.base_group().iter_values())
    f0 = {v: shift_value(F, inst.M, v) for v in base}
    f1 = {v: shift_value(F, inst.Mstar, v) for v in base}

    def f(value):
        x, y, b = value
        return (f1[y], f0[x]) if b else (f0[x], f1[y])

    return f


def lifted_labels(problem) -> np.ndarray:
    """The labels of `hsp.LiftedLabels` as one int32 array over every id
    of the wreath lift: l0[x] m + l1[y] at (x, y, 0) and l1[y] m + l0[x]
    at (x, y, 1), with m base labels."""
    m = int(max(problem.l0.max(), problem.l1.max())) + 1
    l0, l1 = problem.l0.astype(np.int32), problem.l1.astype(np.int32)
    n = len(l0)
    out = np.empty((2, n, n), dtype=np.int32)
    np.multiply(l0[:, None], m, out=out[0])
    out[0] += l1[None, :]
    np.multiply(l1[None, :], m, out=out[1])
    out[1] += l0[:, None]
    return out.ravel()


class ArrayLabels:
    """A function on the ids of group as one array of |group| labels (equal
    labels iff equal values), numbered densely, read through the `group`,
    `size` and indexing of `hsp.LiftedLabels`."""

    def __init__(self, group, labels):
        distinct, dense = np.unique(np.asarray(labels), return_inverse=True)
        self.group = group
        self.size = len(distinct)
        self.labels = dense.reshape(-1)

    def __getitem__(self, a):
        return self.labels[a]


def reference_stabilizer_values(inst) -> frozenset:
    """H0 = {(A, P) : A^-1 M P = M}, by full enumeration on tuples."""
    F = inst.field()
    return frozenset(
        v for v in inst.base_group().iter_values() if shift_value(F, inst.M, v) == inst.M
    )


# ---- paper quantities ----

def fix_size_formula(k: int, r: int, q: int) -> int:
    """Size of the left-multiplication stabilizer of a rank-r k x n matrix."""
    if not 0 <= r <= k:
        raise ValueError(f"rank {r} out of range for k={k}")
    out = 1
    for i in range(r, k):
        out *= q**k - q**i
    return out


def orbit_size_formula(k: int, r: int, q: int) -> int:
    if not 0 <= r <= k:
        raise ValueError(f"rank {r} out of range for k={k}")
    out = 1
    for i in range(r):
        out *= q**k - q**i
    return out


@dataclass(frozen=True)
class FixOrbitReport:
    rank: int
    fix_size: int
    orbit_size: int
    fix_formula: int
    group_order: int


def fix_orbit_report(F: Fq, M: Matrix) -> FixOrbitReport:
    k = len(M)
    r = fields.mat_rank(F, M)
    fix = len(fields.fix_group_elements(F, M))
    order = fields.glk_order(F.q, k)
    return FixOrbitReport(
        rank=r,
        fix_size=fix,
        orbit_size=order // fix,
        fix_formula=fix_size_formula(k, r, F.q),
        group_order=order,
    )


def linear_multiplicity_pattern(table: CharacterTable, i: int) -> Dict[str, int]:
    """Multiplicity of each linear character in rho_i (x) rho_i^*, keyed by
    label, zeros omitted."""
    mults = table.tensor_square_multiplicities(i)
    out = {}
    for j, m in enumerate(mults):
        if table.dims[j] == 1 and m > 0:
            out[table.labels[j]] = int(m)
    return out


def linear_multiplicities(table: CharacterTable, i: int) -> int:
    """Number of distinct linear constituents of rho_i (x) rho_i^*."""
    return len(linear_multiplicity_pattern(table, i))


def scalar_free_check(H: Subgroup) -> bool:
    """True iff H <= GL_2(F_q) contains no scalar matrix other than the
    identity."""
    for M in H.value_set:
        if M[0][1] == 0 and M[1][0] == 0 and M[0][0] == M[1][1] and M[0][0] != 1:
            return False
    return True


def corollary_bound(H: Subgroup, q: int) -> float:
    """28|H|^2/q, valid for scalar-free H <= GL_2(F_q)."""
    if not scalar_free_check(H):
        raise ValueError("subgroup contains a non-identity scalar")
    return 28.0 * H.order**2 / q
