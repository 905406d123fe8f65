"""Explicit unitary matrix models for every irrep of a character table,
chosen by the table's `family` descriptor.

Symmetric groups get Young's orthogonal matrices, wreath products get the
block models over realized base irreps, direct products get Kronecker
factors, and GL_2(F_q) gets its characters for the linear irreps and, for
every other irrep, the image of the isotypic projector inside the
Gelfand-Graev model (a monomial representation of dimension q^2 - 1).
Every step is deterministic; a table without a family is refused.

Besides single matrices, every realized irrep gives the stack of all its
matrices in id order.  Wreath, direct-product and GL_2 irreps each have one
batched formula (`wreathrep.wreath_stack`, `kron_stack` and
`gl2rep.GelfandGraev.block`): `stack()` applies it to the whole group, and
`mat_value` applies it to a batch of one, so the two agree bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .chartab import (
    CharacterTable,
    GL2Family,
    ProductFamily,
    SymmetricFamily,
    WreathFamily,
)
from .groups import Group

TRACE_TOL = 1e-8

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

    def __repr__(self) -> str:
        return f"RealizedIrrep({self.label}, dim={self.dim})"


class BatchedIrrep(RealizedIrrep):
    """An irrep whose stack stackfun builds in one batch (from the stacks
    of a product's factors, or from GL_2's monomial data) without visiting
    elements one by one."""

    def __init__(
        self, group: Group, label: str, dim: int, matfun: MatFun, stackfun: StackFun
    ):
        super().__init__(group, label, dim, matfun)
        self._stackfun = stackfun

    def _build_stack(self) -> np.ndarray:
        return self._stackfun()


# ---- GL_2 through the Gelfand-Graev model ----

def _realize_gl2(table: CharacterTable) -> List[RealizedIrrep]:
    """Linear irreps are their characters; every other irrep is the image
    of its isotypic projector inside the Gelfand-Graev model that holds
    it (gl2rep.GelfandGraev), with traces certified on every element."""
    from .gl2rep import GelfandGraev

    G = table.group
    ids = G.ids()
    ev = table.element_values()
    model = GelfandGraev(G)
    phases = [model.phases(k) for k in range(G.field.q - 1)]
    # multiplicity of every irrep in the model of every central character
    mults = ev.conj() @ np.stack([model.character(ph) for ph in phases]).T / G.order

    def id_of(value) -> int:
        gi = ids.index.get(value)
        if gi is None:
            raise ValueError("element outside the enumerated group")
        return gi

    out: List[RealizedIrrep] = []
    for i in range(table.n_irreps):
        d = table.dims[i]
        if d == 1:
            chi = ev[i]
            fun = lambda v, chi=chi: np.array([[chi[id_of(v)]]])
            stackfun = lambda chi=chi: chi.reshape(-1, 1, 1).copy()
        else:
            ph = phases[int(np.argmax(np.abs(mults[i])))]
            Q = model.isotypic_basis(ph, ev[i], d)
            err = np.abs(model.traces(ph, Q) - ev[i]).max()
            if err > TRACE_TOL:
                raise AssertionError(f"trace mismatch for {table.labels[i]}: {err}")
            fun = lambda v, ph=ph, Q=Q: model.block(ph, Q, np.array([id_of(v)]))[0]
            stackfun = lambda ph=ph, Q=Q: model.block(ph, Q, np.arange(G.order))
        out.append(BatchedIrrep(G, table.labels[i], d, fun, stackfun))
    return out


# ---- dispatch ----

def realize_table(table: CharacterTable) -> List[RealizedIrrep]:
    """Unitary models for every row of the table, aligned with its rows,
    chosen by the table's family.  Wreath and product irreps go through one
    formula each (wreathrep.wreath_stack, kron_stack): whole factor stacks
    for stack(), one-element stacks for mat_value.  GL_2 traces are
    certified against the table on every element; a table with no family
    raises ValueError."""
    G, fam = table.group, table.family
    out: List[RealizedIrrep] = []
    if isinstance(fam, SymmetricFamily):
        from .symrep import YorRep

        for label, la in zip(table.labels, fam.partitions):
            rep = YorRep(la)
            out.append(RealizedIrrep(G, label, rep.dim, lambda v, r=rep: r.mat(v)))
    elif isinstance(fam, WreathFamily):
        from .wreathrep import wreath_stack

        base_reals = realize_table(fam.base)
        for i, meta in enumerate(fam.metas):
            # rho, and sigma for a pair irrep
            bases = [base_reals[meta.i]] + ([base_reals[meta.j]] if meta.kind == "pair" else [])

            def fun(v, kind=meta.kind, bases=bases):
                x, y, b = v
                xs = [r.mat_value(x)[None] for r in bases]
                ys = [r.mat_value(y)[None] for r in bases]
                return wreath_stack(kind, xs, ys)[b, 0, 0].copy()

            def stackfun(kind=meta.kind, bases=bases, d=table.dims[i]):
                full = [r.stack() for r in bases]
                # wreath ids are (b*|G| + x)*|G| + y
                return wreath_stack(kind, full, full).reshape(-1, d, d)

            out.append(BatchedIrrep(G, table.labels[i], table.dims[i], fun, stackfun))
    elif isinstance(fam, ProductFamily):
        reals1, reals2 = (realize_table(t) for t in fam.factors)
        for i1, r1 in enumerate(reals1):
            for i2, r2 in enumerate(reals2):
                d = r1.dim * r2.dim
                fun = lambda v, a=r1, b=r2: kron_stack(
                    a.mat_value(v[0])[None], b.mat_value(v[1])[None]
                )[0, 0]
                # product ids are i1*|G2| + i2
                stackfun = lambda a=r1, b=r2, d=d: kron_stack(
                    a.stack(), b.stack()
                ).reshape(-1, d, d)
                label = table.labels[i1 * len(reals2) + i2]
                out.append(BatchedIrrep(G, label, d, fun, stackfun))
    elif isinstance(fam, GL2Family):
        out = _realize_gl2(table)
    else:
        raise ValueError(f"no realization for the irreps of {G}")

    for i, r in enumerate(out):
        if r.dim != table.dims[i]:
            raise AssertionError(
                f"realized {r.label} has dimension {r.dim}, table says {table.dims[i]}"
            )
    return out
