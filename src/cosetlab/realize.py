"""Explicit unitary matrix models for every irrep of a character table,
chosen by the table's `family` descriptor.

Symmetric groups get Young's orthogonal matrices, wreath products get the
block models over realized base irreps, direct products get Kronecker
factors, and GL_2(F_q) gets its characters for the linear irreps and, for
every other irrep, the image of the isotypic projector inside the
Gelfand-Graev model (a monomial representation of dimension q^2 - 1).
Every step is deterministic; a table without a family is refused.

Every realized irrep has one matrix source, a gather from an id array to
the (n, d, d) array of its matrices: `symrep.YorRep.mats` for S_n,
`gl2rep.GelfandGraev.block` (or the character) for GL_2, `kron_stack` of
the factors' rows for products (read through the factor's `at` for a
request smaller than the factor group, from its stack otherwise) and
`wreathrep.wreath_stack` of the base stack rows for wreaths.  `at(ids)`,
`stack()` and `mat_value` all read it, so they agree bit for bit.

Strong sampling reads `diag`, the (n, d) diagonals of `at` at an id array,
computed once per distinct id in bounded calls.  Wreath irreps
(`WreathIrrep`) also have a diagonal source that forms no D x D matrix,
`wreathrep.wreath_diag` of the base stacks; each of its entries is the one
product the gather forms there, so it equals the gathered diagonal bit for
bit.  Every other family takes the diagonals of its gathers.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

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
GATHER_CELLS = 1 << 18  # matrix (or diagonal) entries per call of a diagonal gather


def kron_stack(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(n, a*b, a*b) array whose i-th entry is np.kron(A[i], B[i]), for
    stacks A of shape (n, a, a) and B of shape (n, b, b).  The one
    broadcast multiply is the ufunc np.kron applies, so every entry equals
    the single-matrix np.kron bit for bit."""
    n, a = A.shape[:2]
    b = B.shape[1]
    prod = A[:, :, None, :, None] * B[:, None, :, None, :]
    return prod.reshape(n, a * b, a * b)


def kron_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, a*b) diagonals of kron_stack(A, B), from the (n, a) and (n, b)
    diagonals of A and B: the same products, bit for bit."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), a.shape[1] * b.shape[1])


def projector_basis(P: np.ndarray, rank: int) -> np.ndarray:
    """(m, rank) orthonormal basis of the range of an orthogonal projector P by
    pivoted Gram-Schmidt: each step takes the first column of largest remaining
    norm and projects it out, so the basis is fixed by P, without an eigensolver."""
    P = np.array(P, dtype=complex)
    Q = np.empty((len(P), rank), dtype=complex)
    for a in range(rank):
        norms = (np.abs(P) ** 2).sum(axis=0)
        j = int(np.argmax(norms >= norms.max() * (1 - 1e-6)))
        Q[:, a] = P[:, j] / np.sqrt(norms[j])
        P -= np.outer(Q[:, a], Q[:, a].conj() @ P)
    if np.abs(P).max() > 1e-8:
        raise AssertionError(f"projector has rank above {rank}")
    return Q


class RealizedIrrep:
    """One irrep given by its gather: matfun maps an id array to the
    (n, d, d) matrices of the irrep at those ids."""

    # a subclass that forms diagonals without matrices defines this as a
    # method from an id array to the (n, d) diagonals of the gather there,
    # equal to them bit for bit
    _diagonals: Optional[Callable] = None

    def __init__(self, group: Group, label: str, dim: int, matfun: Callable):
        self.group = group
        self.label = label
        self.dim = dim
        self._gather = matfun
        self._stack: Optional[np.ndarray] = None

    def at(self, ids: Sequence[int]) -> np.ndarray:
        """The (n, d, d) complex matrices at an id array: rows of the stack
        once it is built, one call of the gather otherwise."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._stack is not None:
            return self._stack[ids]
        got = np.asarray(self._gather(ids), dtype=complex)
        if got.shape != (len(ids), self.dim, self.dim):
            raise AssertionError(f"gather of {self.label} has shape {got.shape}")
        return got

    def stack(self) -> np.ndarray:
        """All matrices of the irrep as a read-only (|G|, d, d) array in id
        order, which is the order of group.elements(); built on first use
        and kept."""
        if self._stack is None:
            got = self.at(np.arange(self.group.order))
            got.setflags(write=False)
            self._stack = got
        return self._stack

    def diag(self, ids: Sequence[int]) -> np.ndarray:
        """The (n, d) complex diagonals of `at` at an id array: read off
        the stack once it is built, otherwise computed by the diagonal
        source in calls of at most GATHER_CELLS diagonal entries, or without
        one off gathers of at most GATHER_CELLS matrix entries.  A repeated
        id is computed again at each place it occurs."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._stack is not None:
            return np.einsum("nii->ni", self._stack)[ids]
        out = np.empty((len(ids), self.dim), dtype=complex)
        if self._diagonals is not None:
            source, step = self._diagonals, max(1, GATHER_CELLS // self.dim)
        else:
            source, step = self._gathered_diagonals, max(1, GATHER_CELLS // self.dim**2)
        for lo in range(0, len(ids), step):
            out[lo : lo + step] = source(ids[lo : lo + step])
        return out

    def _gathered_diagonals(self, ids: np.ndarray) -> np.ndarray:
        # einsum's diagonal is a view of the gather, which diag copies out
        return np.einsum("nii->ni", self.at(ids))

    def mat_value(self, value) -> np.ndarray:
        """The matrix at one group value; ValueError outside the group."""
        self.group.validate_value(value)
        return self.at([self.group.ids().id_of(value)])[0]

    def __repr__(self) -> str:
        return f"RealizedIrrep({self.label}, dim={self.dim})"


class WreathIrrep(RealizedIrrep):
    """A wreath irrep of kind plus, minus or pair over its realized base
    irreps (rho, and sigma for a pair): `wreath_stack` of their stack rows
    at the x and y components is its gather, and `wreath_diag` of the same
    rows its diagonal source."""

    def __init__(self, group: Group, label: str, dim: int, kind: str, bases):
        self.kind, self.bases = kind, bases
        super().__init__(group, label, dim, self._wreath_gather)

    def _wreath_gather(self, g: np.ndarray) -> np.ndarray:
        from .wreathrep import wreath_stack

        x, y, b = self.group.ids().split(g)
        stacks = [r.stack() for r in self.bases]
        return wreath_stack(self.kind, [s[x] for s in stacks], [s[y] for s in stacks], b)

    def _diagonals(self, g: np.ndarray) -> np.ndarray:
        from .wreathrep import wreath_diag

        return wreath_diag(self.kind, [r.stack() for r in self.bases], *self.group.ids().split(g))


# ---- GL_2 through the Gelfand-Graev model ----

def _realize_gl2(table: CharacterTable) -> List[RealizedIrrep]:
    """Linear irreps are their characters; every other irrep is the image
    of its isotypic projector inside the Gelfand-Graev model that holds
    it (gl2rep.GelfandGraev), with traces certified on every element."""
    from .gl2rep import GelfandGraev

    G = table.group
    ev = table.element_values()
    model = GelfandGraev(G)
    phases = [model.phases(k) for k in range(G.field.q - 1)]
    # multiplicity of every irrep in the model of every central character
    mults = ev.conj() @ np.stack([model.character(ph) for ph in phases]).T / G.order

    out: List[RealizedIrrep] = []
    for i in range(table.n_irreps):
        d = table.dims[i]
        if d == 1:
            gather = lambda g, chi=ev[i]: chi[g].reshape(-1, 1, 1)
        else:
            ph = phases[int(np.argmax(np.abs(mults[i])))]
            Q = model.isotypic_basis(ph, ev[i], d)
            err = np.abs(model.traces(ph, Q) - ev[i]).max()
            if err > TRACE_TOL:
                raise AssertionError(f"trace mismatch for {table.labels[i]}: {err}")
            gather = lambda g, ph=ph, Q=Q: model.block(ph, Q, g)
        out.append(RealizedIrrep(G, table.labels[i], d, gather))
    return out


# ---- dispatch ----

def realize_table(table: CharacterTable) -> List[RealizedIrrep]:
    """Unitary models for every row of the table, aligned with its rows,
    chosen by the table's family, each with one gather.  GL_2 traces are
    certified against the table on every element; a table with no family
    raises ValueError."""
    G, fam = table.group, table.family
    out: List[RealizedIrrep] = []
    if isinstance(fam, SymmetricFamily):
        from .symrep import YorRep

        perms = G.ids().array
        for label, la in zip(table.labels, fam.partitions):
            rep = YorRep(la)
            out.append(RealizedIrrep(G, label, rep.dim, lambda g, r=rep: r.mats(perms[g])))
    elif isinstance(fam, WreathFamily):
        base_reals = realize_table(fam.base)
        for i, meta in enumerate(fam.metas):
            bases = [base_reals[meta.i]] + ([base_reals[meta.j]] if meta.kind == "pair" else [])
            out.append(WreathIrrep(G, table.labels[i], table.dims[i], meta.kind, bases))
    elif isinstance(fam, ProductFamily):
        reals1, reals2 = (realize_table(t) for t in fam.factors)
        n2 = fam.factors[1].group.order

        def rows(r: RealizedIrrep, g: np.ndarray) -> np.ndarray:
            # a request smaller than the factor group does not build its stack
            return r.at(g) if len(g) < r.group.order else r.stack()[g]

        for i1, r1 in enumerate(reals1):
            for i2, r2 in enumerate(reals2):
                # product ids are i1*|G2| + i2
                gather = lambda g, a=r1, b=r2: kron_stack(rows(a, g // n2), rows(b, g % n2))
                label = table.labels[i1 * len(reals2) + i2]
                out.append(RealizedIrrep(G, label, r1.dim * r2.dim, gather))
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
