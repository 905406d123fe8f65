"""Explicit unitary matrix models for every irrep of a character table.

Symmetric groups get Young's orthogonal matrices, wreath products get the
block models over realized base irreps, direct products get Kronecker
factors, and everything else (notably GL_2) goes through a dense
regular-representation projection: project onto the isotypic component,
then split off a single copy with a twirled random Hermitian.

Besides single matrices, every realized irrep gives the stack of all its
matrices in id order; wreath and direct-product stacks are composed from
their factors' stacks with batched Kronecker products.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .chartab import CharacterTable
from .groups import (
    DirectProduct,
    Group,
    GroupElement,
    SymmetricGroup,
    WreathZ2,
)

TRACE_TOL = 1e-8
_TWIRL_TRIES = 10

MatFun = Callable[[object], np.ndarray]
StackFun = Callable[[], np.ndarray]


def kron_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, m, a*b, a*b) array whose [i, j] entry is np.kron(A[i], B[j]),
    for stacks A of shape (n, a, a) and B of shape (m, b, b).  The one
    broadcast multiply is the ufunc np.kron applies, so every entry equals
    the single-matrix np.kron bit for bit."""
    n, a = A.shape[:2]
    m, b = B.shape[:2]
    prod = A[:, None, :, None, :, None] * B[None, :, None, :, None, :]
    return prod.reshape(n, m, a * b, a * b)


class RealizedIrrep:
    """One irrep as a function from elements to unitary matrices, with a
    bounded per-value cache, and as one stack of all its matrices."""

    def __init__(self, group: Group, label: str, dim: int, matfun: MatFun):
        self.group = group
        self.label = label
        self.dim = dim
        self._fun = matfun
        self._stack: Optional[np.ndarray] = None
        self._cache: Dict[object, np.ndarray] = {}
        # keep roughly 4 MB of cached matrices per irrep
        self._cache_limit = max(64, 4_000_000 // (16 * dim * dim))

    def stack(self) -> np.ndarray:
        """All matrices of the irrep as a read-only (|G|, d, d) array in id
        order, which is the order of group.elements(); built on first use
        and kept."""
        if self._stack is None:
            got = self._build_stack()
            if got.shape != (self.group.order, self.dim, self.dim):
                raise AssertionError(f"stack of {self.label} has shape {got.shape}")
            got.setflags(write=False)
            self._stack = got
        return self._stack

    def _build_stack(self) -> np.ndarray:
        return np.stack([self.mat_value(el.value) for el in self.group.elements()])

    def mat_value(self, value) -> np.ndarray:
        got = self._cache.get(value)
        if got is None:
            got = np.asarray(self._fun(value), dtype=complex)
            if len(self._cache) < self._cache_limit:
                got.setflags(write=False)
                self._cache[value] = got
        return got

    def mat(self, el: GroupElement) -> np.ndarray:
        if el.group.key != self.group.key:
            raise ValueError(f"element of {el.group} fed to irrep of {self.group}")
        return self.mat_value(el.value)

    def __repr__(self) -> str:
        return f"RealizedIrrep({self.label}, dim={self.dim})"


class ComposedIrrep(RealizedIrrep):
    """An irrep of a direct or wreath product whose stack stackfun composes
    from the stacks of its factors' irreps, without visiting elements one
    by one."""

    def __init__(
        self, group: Group, label: str, dim: int, matfun: MatFun, stackfun: StackFun
    ):
        super().__init__(group, label, dim, matfun)
        self._stackfun = stackfun

    def _build_stack(self) -> np.ndarray:
        return self._stackfun()


# ---- the generic regular-representation route ----

def _regular_structure(G: Group):
    """Element list, value-to-index map, inverse indices and Cayley table
    of G, from its id view (at most groups.TABLE_CAP elements)."""
    ids = G.ids()
    return G.elements(), ids.index, ids.inverse, ids.table


def _eig_clusters(evals: np.ndarray, tol: float) -> List[np.ndarray]:
    order = np.argsort(evals)
    ev = evals[order]
    splits = np.nonzero(np.diff(ev) > tol)[0] + 1
    return [chunk for chunk in np.split(order, splits)]


def _generic_realize_row(
    table: CharacterTable, i: int, seed: int
) -> MatFun:
    G = table.group
    els, index, inv_index, cay = _regular_structure(G)
    n = len(els)
    d = table.dims[i]
    chi = table.element_values()[i]
    coefs = np.conj(chi) * (d / G.order)
    P = np.zeros((n, n), dtype=complex)
    cols = np.arange(n)
    for gi in range(n):
        P[cay[gi], cols] += coefs[gi]
    evals, evecs = np.linalg.eigh(P)
    Q0 = evecs[:, evals > 0.5]
    if Q0.shape[1] != d * d:
        raise ValueError(
            f"isotypic rank {Q0.shape[1]} != d^2 = {d * d} for {table.labels[i]}"
        )

    def block(gi: int, Q: np.ndarray) -> np.ndarray:
        return Q.conj().T @ Q[cay[inv_index[gi]]]

    last_err: Optional[str] = None
    for attempt in range(_TWIRL_TRIES):
        rng = np.random.default_rng((seed + attempt, i))
        D2 = d * d
        B = rng.standard_normal((D2, D2)) + 1j * rng.standard_normal((D2, D2))
        T = np.zeros((D2, D2), dtype=complex)
        for gi in range(n):
            A = block(gi, Q0)
            T += A @ B @ A.conj().T
        H = (T + T.conj().T) / n
        hvals, hvecs = np.linalg.eigh(H)
        scale = max(1.0, float(np.abs(hvals).max(initial=0.0)))
        chosen = None
        for cluster in _eig_clusters(hvals, 1e-6 * scale):
            if len(cluster) == d:
                chosen = cluster
                break
        if chosen is None:
            last_err = "no eigenvalue cluster of the right size"
            continue
        Qfin = Q0 @ hvecs[:, np.sort(chosen)]

        def matfun(value, Qfin=Qfin):
            gi = index.get(value)
            if gi is None:
                raise ValueError("element outside the enumerated group")
            return Qfin.conj().T @ Qfin[cay[inv_index[gi]]]

        # traces against the table certify the split-off copy
        ok = True
        for j, rep in enumerate(table.class_reps):
            tr = np.trace(matfun(rep.value))
            if abs(tr - table.values[i, j]) > TRACE_TOL:
                ok = False
                last_err = f"trace mismatch on class {j}: {tr} vs {table.values[i, j]}"
                break
        if ok:
            return matfun
    raise ValueError(
        f"realization failed for {table.labels[i]} after {_TWIRL_TRIES} tries: {last_err}"
    )


# ---- dispatch ----

def realize_table(table: CharacterTable, seed: int = 0) -> List[RealizedIrrep]:
    """Unitary models for every row of the table, aligned with its rows,
    with traces certified against the table."""
    G = table.group
    out: List[RealizedIrrep] = []
    if isinstance(G, SymmetricGroup) and hasattr(table, "partition_rows"):
        from . import symrep

        for i, la in enumerate(table.partition_rows):
            rep = symrep.YorRep(la)
            out.append(
                RealizedIrrep(G, table.labels[i], rep.dim, lambda v, r=rep: r.mat(v))
            )
    elif isinstance(G, WreathZ2) and hasattr(table, "wreath_meta"):
        from . import wreathrep

        base_reals = realize_table(table.base_table, seed)
        for i, meta in enumerate(table.wreath_meta):
            rho = base_reals[meta.i]
            sigma = base_reals[meta.j] if meta.kind == "pair" else None
            fun = wreathrep.wreath_realize(
                meta.kind, rho.mat_value, sigma.mat_value if sigma else None
            )
            stackfun = lambda kind=meta.kind, r=rho, s=sigma: wreathrep.wreath_stack(
                kind, r.stack(), s.stack() if s else None
            )
            out.append(
                ComposedIrrep(G, table.labels[i], table.dims[i], fun, stackfun)
            )
    elif isinstance(G, DirectProduct) and hasattr(table, "factor_tables"):
        t1, t2 = table.factor_tables
        reals1 = realize_table(t1, seed)
        reals2 = realize_table(t2, seed)
        for i1, r1 in enumerate(reals1):
            for i2, r2 in enumerate(reals2):
                d = r1.dim * r2.dim
                fun = lambda v, a=r1, b=r2: np.kron(a.mat_value(v[0]), b.mat_value(v[1]))
                # product ids are i1*|G2| + i2
                stackfun = lambda a=r1, b=r2, d=d: kron_stack(
                    a.stack(), b.stack()
                ).reshape(-1, d, d)
                out.append(
                    ComposedIrrep(
                        G, table.labels[i1 * len(reals2) + i2], d, fun, stackfun
                    )
                )
    else:
        for i in range(table.n_irreps):
            fun = _generic_realize_row(table, i, seed)
            out.append(RealizedIrrep(G, table.labels[i], table.dims[i], fun))

    for i, r in enumerate(out):
        if r.dim != table.dims[i]:
            raise AssertionError(
                f"realized {r.label} has dimension {r.dim}, table says {table.dims[i]}"
            )
    return out


def check_traces(table: CharacterTable, reals: List[RealizedIrrep], tol: float = TRACE_TOL) -> float:
    """Max |trace - table value| over all irreps and class representatives."""
    worst = 0.0
    for i, r in enumerate(reals):
        for j, rep in enumerate(table.class_reps):
            err = abs(np.trace(r.mat(rep)) - table.values[i, j])
            worst = max(worst, err)
    if worst > tol:
        raise AssertionError(f"trace certification failed: {worst}")
    return worst
