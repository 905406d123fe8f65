"""Character tables addressed by conjugacy class, with a uniform interface
for inner products, tensor-square multiplicities and per-element lookup.

A table stores one row per irreducible character and one column per class.
Class keys are exact (partitions, closed-form GL2 class labels, pairs of
factor keys, or base-class indices for wreath products), never rounded
floats.  Each builder passes one column function, which maps an array of
element ids to their class columns with array arithmetic: cycle-type codes
for S_n, a (trace, det) lookup plus a scalar test for GL_2, factor columns
for products and base columns for wreaths.  Building a table calls it on
nothing, so a table never enumerates its group; the per-element columns
and values are computed on first use.

The four builders (`symrep.sn_character_table`, `gl2rep.char_table`,
`product_table`, `wreathrep.wreath_char_table`) give each table a frozen
`family` descriptor: its group family and the data that realizes its irreps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .groups import DirectProduct, Group, Subgroup

INTEGRALITY_TOL = 1e-6


# ---- family descriptors ----

@dataclass(frozen=True)
class SymmetricFamily:
    """S_n: the partition of every row, in row order."""
    partitions: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class GL2Family:
    """GL_2(F_q): rows realized inside the Gelfand-Graev models."""


@dataclass(frozen=True)
class ProductFamily:
    """G1 x G2: row i1*r2 + i2 is the tensor product of factor rows i1, i2."""
    factors: Tuple["CharacterTable", "CharacterTable"]


@dataclass(frozen=True)
class WreathIrrepMeta:
    kind: str  # "pair" | "plus" | "minus"
    i: int
    j: int  # equals i for plus/minus


@dataclass(frozen=True)
class WreathFamily:
    """G wr Z_2: every row is built from rows i, j of the base table."""
    base: "CharacterTable"
    metas: Tuple[WreathIrrepMeta, ...]


Family = Union[SymmetricFamily, GL2Family, ProductFamily, WreathFamily]


class CharacterTable:
    def __init__(
        self,
        group: Group,
        labels: Sequence[str],
        dims: Sequence[int],
        class_keys: Sequence,
        class_sizes: Sequence[int],
        class_reps: Sequence,
        values: np.ndarray,
        columns: Callable[[np.ndarray], np.ndarray],
        family: Optional[Family] = None,
    ):
        n_irreps = len(labels)
        n_classes = len(class_keys)
        if values.shape != (n_irreps, n_classes):
            raise ValueError("value matrix shape mismatch")
        if n_irreps != n_classes:
            raise ValueError(f"{n_irreps} irreps vs {n_classes} classes")
        if sum(class_sizes) != group.order:
            raise ValueError("class sizes do not sum to |G|")
        self.group = group
        self.labels = list(labels)
        self.dims = list(int(d) for d in dims)
        self.class_keys = list(class_keys)
        self.class_sizes = list(int(s) for s in class_sizes)
        self.class_reps = list(class_reps)
        self.values = np.asarray(values, dtype=complex)
        self.family = family
        self._columns = columns
        if len(set(self.class_keys)) != n_classes:
            raise ValueError("duplicate class keys")
        self._label_index = {l: i for i, l in enumerate(self.labels)}
        if len(self._label_index) != n_irreps:
            raise ValueError("duplicate irrep labels")
        if group.identity_value() not in self.class_reps:
            raise ValueError("no class is represented by the identity")
        ident_col = self.class_reps.index(group.identity_value())
        if not np.allclose(self.values[:, ident_col].real, self.dims, atol=1e-8) or (
            np.abs(self.values[:, ident_col].imag).max(initial=0.0) > 1e-8
        ):
            raise ValueError("character at identity must equal the dimension")
        self._element_columns: Optional[np.ndarray] = None
        self._element_values: Optional[np.ndarray] = None
        self._tensor_mults: Optional[np.ndarray] = None
        # the last subgroup asked of normalized_char_maxes, and its answer
        self._sub_maxes: Tuple[Optional[Subgroup], np.ndarray] = (None, np.empty(0))

    @property
    def n_irreps(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self._label_index[label]

    def columns_of(self, ids) -> np.ndarray:
        """Class column of each element id in an id array."""
        return self._columns(np.asarray(ids, dtype=np.int64))

    def class_index_of(self, value) -> int:
        """Class column of one group value."""
        return int(self.columns_of([self.group.ids().id_of(value)])[0])

    def element_columns(self) -> np.ndarray:
        """Class column of every element, aligned with group.elements()
        (and so indexed by element id)."""
        if self._element_columns is None:
            self._element_columns = self.columns_of(np.arange(self.group.order))
        return self._element_columns

    def element_values(self) -> np.ndarray:
        """Dense (n_irreps, |G|) value matrix aligned with group.elements()."""
        if self._element_values is None:
            self._element_values = self.values[:, self.element_columns()]
        return self._element_values

    # -- inner products over classes --

    def gram(self) -> np.ndarray:
        w = np.asarray(self.class_sizes, dtype=float)
        return (self.values * w) @ np.conj(self.values.T) / self.group.order

    def orthogonality_error(self) -> float:
        return float(np.abs(self.gram() - np.eye(self.n_irreps)).max())

    def tensor_square_multiplicities(self, i: int) -> np.ndarray:
        """Multiplicity of each irrep in rho_i (x) rho_i^*, as exact integers;
        the rows of every irrep are formed and certified on first use."""
        if self._tensor_mults is None:
            w = np.asarray(self.class_sizes, dtype=float)
            raw = (w * np.abs(self.values) ** 2) @ np.conj(self.values).T / self.group.order
            mults = np.rint(raw.real).astype(int)
            err = np.abs(raw - mults).max()
            if err > INTEGRALITY_TOL:
                raise ValueError(f"non-integer tensor multiplicity (off by {err:.2e})")
            if mults.min() < 0:
                raise ValueError("negative tensor multiplicity")
            mults.setflags(write=False)
            self._tensor_mults = mults
        return self._tensor_mults[i]

    # -- subgroup functionals --

    def normalized_char_maxes(self, sub: Subgroup) -> np.ndarray:
        """max over non-identity h in H of |chi(h)| / dim for every irrep; 0
        for trivial H.  The checks ask about one H for every irrep in turn,
        so the last H's answer is kept."""
        if self._sub_maxes[0] is not sub:
            h = sub.ids[sub.ids != self.group.ids().identity]
            cells = np.abs(self.values[:, self.columns_of(h)])
            maxes = cells.max(axis=1, initial=0.0) / np.asarray(self.dims)
            maxes.setflags(write=False)
            self._sub_maxes = (sub, maxes)
        return self._sub_maxes[1]


def product_table(G: DirectProduct, t1: CharacterTable, t2: CharacterTable) -> CharacterTable:
    """Character table of G1 x G2 from factor tables (tensor products)."""
    g1, g2 = G.factors
    if t1.group.key != g1.key or t2.group.key != g2.key:
        raise ValueError("factor tables do not match the product group")
    labels, dims = [], []
    for i1, l1 in enumerate(t1.labels):
        for i2, l2 in enumerate(t2.labels):
            labels.append(f"({l1})x({l2})")
            dims.append(t1.dims[i1] * t2.dims[i2])
    class_keys, class_sizes, class_reps = [], [], []
    for j1, k1 in enumerate(t1.class_keys):
        for j2, k2 in enumerate(t2.class_keys):
            class_keys.append((k1, k2))
            class_sizes.append(t1.class_sizes[j1] * t2.class_sizes[j2])
            class_reps.append((t1.class_reps[j1], t2.class_reps[j2]))
    values = np.kron(t1.values, t2.values)
    n2, r2 = g2.order, len(t2.class_keys)

    def columns(g: np.ndarray) -> np.ndarray:
        # product ids are i1*|G2| + i2, class keys (k1, k2) are column c1*r2 + c2
        return t1.columns_of(g // n2) * r2 + t2.columns_of(g % n2)

    return CharacterTable(
        G, labels, dims, class_keys, class_sizes, class_reps, values, columns,
        ProductFamily((t1, t2)),
    )
