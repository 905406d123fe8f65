"""Explicit unitary matrix models for every irrep of a character table.

Symmetric groups get Young's orthogonal matrices, wreath products get the
block models over realized base irreps, direct products get Kronecker
factors, and GL_2(F_q) gets its characters for the linear irreps and, for
every other irrep, the image of the isotypic projector inside the
Gelfand-Graev model (a monomial representation of dimension q^2 - 1).
Every step is deterministic; a table of any other family is refused.

Besides single matrices, every realized irrep gives the stack of all its
matrices in id order; wreath and direct-product stacks are composed from
their factors' stacks with batched Kronecker products, and GL_2 stacks
come from one batched product over the monomial data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .chartab import CharacterTable
from .groups import (
    DirectProduct,
    GeneralLinearGroup,
    Group,
    GroupElement,
    SymmetricGroup,
    WreathZ2,
)

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

    def mat(self, el: GroupElement) -> np.ndarray:
        if el.group.key != self.group.key:
            raise ValueError(f"element of {el.group} fed to irrep of {self.group}")
        return self.mat_value(el.value)

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

def _gl2_realize(table: CharacterTable) -> List[RealizedIrrep]:
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
    """Unitary models for every row of the table, aligned with its rows.
    GL_2 traces are certified against the table on every element; a table
    of no known family raises ValueError."""
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

        base_reals = realize_table(table.base_table)
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
                BatchedIrrep(G, table.labels[i], table.dims[i], fun, stackfun)
            )
    elif isinstance(G, DirectProduct) and hasattr(table, "factor_tables"):
        t1, t2 = table.factor_tables
        reals1 = realize_table(t1)
        reals2 = realize_table(t2)
        for i1, r1 in enumerate(reals1):
            for i2, r2 in enumerate(reals2):
                d = r1.dim * r2.dim
                fun = lambda v, a=r1, b=r2: np.kron(a.mat_value(v[0]), b.mat_value(v[1]))
                # product ids are i1*|G2| + i2
                stackfun = lambda a=r1, b=r2, d=d: kron_stack(
                    a.stack(), b.stack()
                ).reshape(-1, d, d)
                out.append(
                    BatchedIrrep(
                        G, table.labels[i1 * len(reals2) + i2], d, fun, stackfun
                    )
                )
    elif isinstance(G, GeneralLinearGroup) and G.k == 2:
        out = _gl2_realize(table)
    else:
        raise ValueError(f"no realization for the irreps of {G}")

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
