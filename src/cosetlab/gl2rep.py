"""Closed-form conjugacy data and the complete character table of GL_2(F_q):
four class families keyed by eigenvalue structure, four character families
written as array formulas over one per-class table of discrete logs, which
index the roots of unity behind the cyclic characters of F_q^* and
F_{q^2}^*, and the Gelfand-Graev models that realize it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import fields
from .chartab import CharacterTable, GL2Family
from .fields import Fq, Matrix, field_make, field_of_order
from .groups import GeneralLinearGroup, _distinct, general_linear_group
from .realize import projector_basis

GL2_TABLE_CAP = 32


# ---- conjugacy classes ----

ClassKey = Tuple


def _quadratic_extension(F: Fq) -> Tuple[Fq, List[int], Dict[int, int]]:
    E = field_make(F.p, 2 * F.n)
    emb = fields.embed_map(F, E)
    inv = {e: x for x, e in enumerate(emb)}
    return E, emb, inv


@dataclass(frozen=True)
class Gl2Class:
    key: ClassKey
    representative: Matrix
    size: int


def gl2_class_list(F: Fq) -> List[Gl2Class]:
    """All conjugacy classes in canonical order: a, b, c, d families."""
    q = F.q
    out: List[Gl2Class] = []
    for x in F.units():
        out.append(Gl2Class(("a", x), ((x, 0), (0, x)), 1))
    for x in F.units():
        out.append(Gl2Class(("b", x), ((x, 1), (0, x)), q * q - 1))
    for x in F.units():
        for y in F.units():
            if x < y:
                out.append(Gl2Class(("c", x, y), ((x, 0), (0, y)), q * q + q))
    E, emb, inv = _quadratic_extension(F)
    seen = set()
    d_keys = []
    for xi in E.units():
        conj = E.pow(xi, q)
        if conj == xi:
            continue
        lo = min(xi, conj)
        if lo not in seen:
            seen.add(lo)
            d_keys.append(lo)
    for xi in sorted(d_keys):
        conj = E.pow(xi, q)
        t = inv[E.add(xi, conj)]
        D = inv[E.mul(xi, conj)]
        out.append(Gl2Class(("d", xi), ((0, F.neg(D)), (1, t)), q * q - q))
    total = sum(c.size for c in out)
    if total != fields.glk_order(q, 2):
        raise AssertionError("class sizes must fill the group")
    if len(out) != q * q - 1:
        raise AssertionError("class count must be q^2 - 1")
    return out


# ---- the character table ----

def _roots(m: int) -> np.ndarray:
    """exp(2 pi i r / m) for r < m, each from the scalar expression, so the
    table's values do not depend on how numpy vectorizes exp."""
    return np.array([complex(np.exp(2j * np.pi * r / m)) for r in range(m)])


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b in real arithmetic, rounded as CPython rounds a complex
    product; numpy's complex multiply may fuse it and round differently."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def char_table(q: int) -> CharacterTable:
    """Complete character table of GL_2(F_q): linear characters U, the
    q-dimensional twists V, principal-series W (unordered pairs), and the
    (q-1)-dimensional family X indexed by characters of the quadratic
    extension not fixed by the q-power map.

    Each family is one array formula over a per-class exponent table, with
    the cyclic characters alpha_k of F_q^* and phi_k of F_{q^2}^* read from
    their roots of unity: alpha_k(g^j) = alpha[k j mod (q - 1)]."""
    if q > GL2_TABLE_CAP:
        raise ValueError(f"table construction capped at q = {GL2_TABLE_CAP}")
    F = field_of_order(q)
    G = general_linear_group(2, q)
    E, emb, inv = _quadratic_extension(F)
    cls = gl2_class_list(F)
    m, M = q - 1, q * q - 1

    def exponents(key):
        # F-logs of the eigenvalues x, y (key[-1] is x off family c) and of
        # the determinant, and the E-log of x; family d has no eigenvalue in
        # F, only xi in E
        if key[0] == "d":
            return 0, 0, F.log(inv[E.pow(key[1], q + 1)]), E.log(key[1])
        lx, ly = F.log(key[1]), F.log(key[-1])
        return lx, ly, lx + ly, E.log(emb[key[1]])

    lx, ly, ldet, le = np.array([exponents(c.key) for c in cls]).T
    fam = np.array([c.key[0] for c in cls])
    a, b, c, d = (fam == f for f in "abcd")
    alpha, phi = _roots(m), _roots(M)

    def at(roots: np.ndarray, ks, logs: np.ndarray) -> np.ndarray:
        return roots[np.outer(ks, logs) % len(roots)]

    U = at(alpha, range(m), ldet)
    V = np.select([a, b, d], [q * U, 0j, -U], U)
    k, l = np.triu_indices(m, 1)
    # alpha_k and alpha_l at x and y
    akx, aky, alx, aly = (at(alpha, j, e) for j in (k, l) for e in (lx, ly))
    W = np.select(
        [a, b, c],
        [_product((q + 1) * akx, alx), _product(akx, alx), _product(akx, aly) + _product(aky, alx)],
        0j,
    )
    # one phi_k per orbit {k, kq} of the q-power map, from orbits of size 2
    xs = [j for j in range(M) if j < j * q % M]
    P, Pq = at(phi, xs, le), at(phi, xs, le * q)
    X = np.select([a, b, d], [(q - 1) * P, -P, -(P + Pq)], 0j)

    labels = (
        [f"U{j}" for j in range(m)] + [f"V{j}" for j in range(m)]
        + [f"W{i},{j}" for i, j in zip(k, l)] + [f"X{j}" for j in xs]
    )
    dims = [1] * m + [q] * m + [q + 1] * len(k) + [q - 1] * len(xs)
    if len(labels) != M:
        raise AssertionError(f"{len(labels)} irreps, expected q^2 - 1 = {M}")

    values = np.concatenate([U, V, W, X])
    return CharacterTable(
        G,
        labels,
        dims,
        [c.key for c in cls],
        [c.size for c in cls],
        [G.make(c.representative) for c in cls],
        values,
        _class_columns(G, cls),
        GL2Family(),
    )


def _class_columns(G: GeneralLinearGroup, cls: List[Gl2Class]):
    """Column function of GL_2(F_q) on id arrays.  A matrix's class is fixed
    by its characteristic polynomial (trace t, determinant D), except that
    the scalar x and the non-semisimple class b_x share one; so a lookup at
    t*q + D, built from the non-scalar representatives, and a scalar test
    read every column, with all arithmetic through Fq.tables()."""
    q = G.field.q
    add, mul = G.field.tables()
    neg = np.argmax(add == 0, axis=1)

    def trace_det(M: np.ndarray):
        a, b, c, d = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
        return add[a, d], add[mul[a, d], neg[mul[b, c]]]

    t, D = trace_det(np.array([c.representative for c in cls]))
    lookup = np.full(q * q, -1)
    scalar_col = np.full(q, -1)
    for j, c in enumerate(cls):
        if c.key[0] == "a":
            scalar_col[c.key[1]] = j
        else:
            lookup[t[j] * q + D[j]] = j

    def columns(g: np.ndarray) -> np.ndarray:
        M = G.ids().array[g]
        t, D = trace_det(M)
        scalar = (M[..., 0, 1] == 0) & (M[..., 1, 0] == 0) & (M[..., 0, 0] == M[..., 1, 1])
        return np.where(scalar, scalar_col[M[..., 0, 0]], lookup[t * q + D])

    return columns


# ---- the Gelfand-Graev model ----

class GelfandGraev:
    """The Gelfand-Graev representations Ind_{ZU}^G(omega (x) psi) of
    G = GL_2(F_q), one for each character omega_k = alpha_k of F_q^*.

    ZU = {[[z, y], [0, z]]} carries the character omega(z) psi(y/z), where
    psi(x) = exp(2 pi i (digit 0 of x) / p) is a fixed nontrivial additive
    character.  On the left cosets of ZU (q^2 - 1 of them, numbered by
    their smallest element id) each representation is monomial: g sends
    coset i to coset target[g, i] with the phase of
    rep[target[g, i]]^-1 g rep[i] in ZU.  Each is multiplicity-free, and
    across the q - 1 central characters it holds every irrep of dimension
    above 1 exactly once (Piatetski-Shapiro, Complex Representations of
    GL(2,K) for Finite Fields K, 1983)."""

    def __init__(self, G: GeneralLinearGroup):
        F = G.field
        q, p = F.q, F.p
        ids = G.ids()
        every = np.arange(G.order)[:, None]
        pairs = [(z, y) for z in F.units() for y in F.elements()]
        zu = np.array([ids.id_of(((z, y), (0, z))) for z, y in pairs])
        keys = ids.mul(every, zu).min(axis=1)
        reps = _distinct(keys)
        if len(reps) != q * q - 1:
            raise AssertionError(f"{len(reps)} cosets of ZU in {G}, expected q^2 - 1")
        coset = np.searchsorted(reps, keys)
        moved = ids.mul(every, reps)
        self.target = coset[moved]
        inside = ids.mul(ids.inv(reps[self.target]), moved)
        # (log z, digit 0 of y/z) of every ZU element, -1 elsewhere
        zlog = np.full(G.order, -1)
        digit = np.full(G.order, -1)
        zlog[zu] = [F.log(z) for z, _ in pairs]
        digit[zu] = [F.div(y, z) % p for z, y in pairs]
        self._zlog = zlog[inside]
        if (self._zlog < 0).any():
            raise AssertionError("a coset representative product left ZU")
        self._digit = digit[inside]
        self.q, self.p = q, p
        self.order = G.order
        self.dim = q * q - 1

    def phases(self, k: int) -> np.ndarray:
        """(|G|, q^2 - 1) phases of the model with central character
        alpha_k: omega_k(z) psi(y/z) of rep[target]^-1 g rep[i]."""
        m = self.q - 1
        omega = np.exp(2j * np.pi * ((k * np.arange(m)) % m) / m)
        psi = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        return omega[self._zlog] * psi[self._digit]

    def character(self, phases: np.ndarray) -> np.ndarray:
        """Character of the model with these phases, in id order: the
        phases of the cosets each g fixes, summed."""
        return np.where(self.target == np.arange(self.dim), phases, 0).sum(axis=1)

    def isotypic_basis(self, phases: np.ndarray, chi: np.ndarray, d: int) -> np.ndarray:
        """(q^2 - 1, d) orthonormal basis of the chi-isotypic subspace of the
        model, which must hold exactly one copy of the irrep.

        The projector P = (d/|G|) sum_g conj(chi(g)) pi(g) is summed from
        the monomial data; the basis is realize.projector_basis of P."""
        mult = np.vdot(chi, self.character(phases)) / self.order
        if abs(mult - 1) > 1e-8:
            raise AssertionError(f"isotypic multiplicity {mult} in the model, expected 1")
        m = self.dim
        coef = np.conj(chi) * (d / self.order)
        w = (coef[:, None] * phases).ravel()
        flat = (self.target * m + np.arange(m)).ravel()
        P = np.bincount(flat, w.real, m * m) + 1j * np.bincount(flat, w.imag, m * m)
        return projector_basis(P.reshape(m, m), d)

    def block(self, phases: np.ndarray, Q: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Q* pi(g) Q for an array of element ids g, one (d, d) block each."""
        A = Q.conj()[self.target[g]] * phases[g][..., None]
        return A.transpose(0, 2, 1) @ Q

    def traces(self, phases: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Trace of Q* pi(g) Q for every g, in id order, without forming
        the blocks: sum over i of the phase times (Q Q*)[i, target[g, i]]."""
        K = Q @ Q.conj().T
        return (phases * K[np.arange(self.dim), self.target]).sum(axis=1)

