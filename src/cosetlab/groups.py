"""Uniform handles for the small finite groups used throughout: S_n,
GL_k(F_q), direct products, and the wreath product G wr Z_2 = G^2 : Z_2.

Elements are thin wrappers around hashable payloads (image tuples for
permutations, row tuples for matrices, nested pairs for products, (x, y, b)
triples for wreath elements) and carry their group handle so that mixing
elements of different groups fails immediately.

Every group also has an id view (`Group.ids()`): id i is the i-th value
of `iter_values()`, and products and inverses run on numpy id arrays.
S_n and GL_k(F_q) multiply through an int32 Cayley table, built on first
use and only up to TABLE_CAP elements; direct products and wreath products
compose ids from their factors' ids and multiply through the factors'
tables, so their own |G|^2 table is never built.

Composition convention, fixed globally: products apply left factor first,
(pi * sigma)(i) = sigma(pi(i)), which matches P_(pi*sigma) = P_pi P_sigma for
the permutation matrices of `fields.perm_matrix` and the right action
M -> M P on codeword positions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import fields
from .fields import Fq

GROUP_ENUM_CAP = 200_000
# largest group given a full Cayley table
TABLE_CAP = 2048
# products per row chunk of a table build, which bounds its transient memory
TABLE_CHUNK_CELLS = 1 << 16


class GroupElement:
    __slots__ = ("group", "value")

    def __init__(self, group: "Group", value):
        self.group = group
        self.value = value

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.group.mul(self, other)

    def inv(self) -> "GroupElement":
        return self.group.inv(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group.key == other.group.key
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.group.key, self.value))

    def __repr__(self) -> str:
        return f"<{self.value} in {self.group}>"


class Group:
    """Abstract finite group handle; concrete kinds fill in payload ops."""

    key: tuple
    order: int

    def __init__(self):
        self._elements: Optional[List[GroupElement]] = None
        self._ids = None

    # payload-level ops implemented by subclasses
    def identity_value(self):
        raise NotImplementedError

    def mul_values(self, a, b):
        raise NotImplementedError

    def inv_value(self, a):
        raise NotImplementedError

    def iter_values(self) -> Iterator:
        raise NotImplementedError

    def validate_value(self, v) -> None:
        raise NotImplementedError

    def _make_ids(self):
        raise NotImplementedError

    # public element-level API
    def make(self, value) -> GroupElement:
        self.validate_value(value)
        return GroupElement(self, value)

    def identity(self) -> GroupElement:
        return GroupElement(self, self.identity_value())

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.group.key != self.key or b.group.key != self.key:
            raise ValueError(f"element of {a.group} * element of {b.group} in {self}")
        return GroupElement(self, self.mul_values(a.value, b.value))

    def inv(self, a: GroupElement) -> GroupElement:
        if a.group.key != self.key:
            raise ValueError(f"element of {a.group} inverted in {self}")
        return GroupElement(self, self.inv_value(a.value))

    def conj(self, g: GroupElement, x: GroupElement) -> GroupElement:
        """g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def power(self, a: GroupElement, m: int) -> GroupElement:
        if m < 0:
            return self.power(self.inv(a), -m)
        out = self.identity_value()
        base = a.value
        while m:
            if m & 1:
                out = self.mul_values(out, base)
            base = self.mul_values(base, base)
            m >>= 1
        return GroupElement(self, out)

    def is_identity(self, a: GroupElement) -> bool:
        return a.value == self.identity_value()

    def elements(self, cap: int = GROUP_ENUM_CAP) -> List[GroupElement]:
        if self._elements is None:
            if self.order > cap:
                raise ValueError(f"|{self}| = {self.order} exceeds enumeration cap {cap}")
            els = [GroupElement(self, v) for v in self.iter_values()]
            if len(els) != self.order:
                raise AssertionError(f"enumerated {len(els)} elements of {self}, order {self.order}")
            self._elements = els
        return self._elements

    def ids(self):
        """The id view of this group (a TableIds, ProductIds or WreathIds),
        built on first use."""
        if self._ids is None:
            self._ids = self._make_ids()
        return self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Group) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


class SymmetricGroup(Group):
    """S_n acting on {0, ..., n-1}; elements are image tuples."""

    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.key = ("sym", n)
        order = 1
        for i in range(2, n + 1):
            order *= i
        self.order = order

    def __repr__(self) -> str:
        return f"S{self.n}"

    def identity_value(self):
        return tuple(range(self.n))

    def mul_values(self, a, b):
        return tuple(b[a[i]] for i in range(self.n))

    def inv_value(self, a):
        out = [0] * self.n
        for i, j in enumerate(a):
            out[j] = i
        return tuple(out)

    def iter_values(self):
        return itertools.permutations(range(self.n))

    def validate_value(self, v) -> None:
        if sorted(v) != list(range(self.n)):
            raise ValueError(f"{v} is not a permutation of 0..{self.n - 1}")

    def _make_ids(self):
        values = [el.value for el in self.elements()]
        imgs = np.array(values).reshape(len(values), self.n)
        place = self.n ** np.arange(self.n)

        def product_codes(lo, hi):
            # (a*b)(i) = b(a(i)) on image arrays
            return imgs[np.arange(len(imgs))[None, :, None], imgs[lo:hi, None, :]] @ place

        return TableIds(self, values, imgs @ place, self.n**self.n, product_codes)


def cycle_type(perm: Sequence[int]) -> Tuple[int, ...]:
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


def support_size(perm: Sequence[int]) -> int:
    return sum(1 for i, j in enumerate(perm) if i != j)


class GeneralLinearGroup(Group):
    """GL_k(F_q); elements are tuples of row tuples."""

    def __init__(self, k: int, F: Fq):
        super().__init__()
        self.k = k
        self.field = F
        self.key = ("gl", k, F.q)
        self.order = fields.glk_order(F.q, k)

    def __repr__(self) -> str:
        return f"GL{self.k}(F{self.field.q})"

    def identity_value(self):
        return fields.mat_identity(self.k)

    def mul_values(self, a, b):
        return fields.mat_mul(self.field, a, b)

    def inv_value(self, a):
        return fields.mat_inv(self.field, a)

    def iter_values(self):
        return fields.enumerate_glk(self.field, self.k, cap=max(self.order, fields.GL_ENUM_CAP))

    def validate_value(self, v) -> None:
        if len(v) != self.k or any(len(r) != self.k for r in v):
            raise ValueError(f"expected {self.k}x{self.k} matrix")
        if any(not 0 <= x < self.field.q for row in v for x in row):
            raise ValueError("matrix entry out of field range")
        if not fields.mat_is_invertible(self.field, v):
            raise ValueError(f"matrix {v} is singular")

    def _make_ids(self):
        values = [el.value for el in self.elements()]
        # a matrix is coded through its row codes, a row through its entries,
        # both in positional notation; R row codes exist
        k, q = self.k, self.field.q
        R = q**k
        add, mul = self.field.tables()
        place = q ** np.arange(k)
        rows = (np.arange(R)[:, None] // place) % q
        scale = (mul[:, rows] @ place).ravel()  # c * row at c*R + row
        row_add = (add[rows[:, None, :], rows[None, :, :]] @ place).ravel()
        mats = np.array(values).reshape(len(values), k, k)
        row_codes = mats @ place
        row_place = R ** np.arange(k)

        def product_codes(lo, hi):
            # row i of A B is the sum over l of A[i, l] * (row l of B)
            A = mats[lo:hi, None]
            out = 0
            for i in range(k):
                acc = scale[A[..., i, 0] * R + row_codes[None, :, 0]]
                for l in range(1, k):
                    term = scale[A[..., i, l] * R + row_codes[None, :, l]]
                    acc = row_add[acc * R + term]
                out = out + acc * row_place[i]
            return out

        return TableIds(self, values, row_codes @ row_place, R**k, product_codes)


class DirectProduct(Group):
    """G1 x G2 with componentwise operations; elements are value pairs."""

    def __init__(self, g1: Group, g2: Group):
        super().__init__()
        self.factors = (g1, g2)
        self.key = ("prod", g1.key, g2.key)
        self.order = g1.order * g2.order

    def __repr__(self) -> str:
        return f"{self.factors[0]}x{self.factors[1]}"

    def identity_value(self):
        return (self.factors[0].identity_value(), self.factors[1].identity_value())

    def mul_values(self, a, b):
        return (
            self.factors[0].mul_values(a[0], b[0]),
            self.factors[1].mul_values(a[1], b[1]),
        )

    def inv_value(self, a):
        return (self.factors[0].inv_value(a[0]), self.factors[1].inv_value(a[1]))

    def iter_values(self):
        # itertools.product enumerates each factor once, in this order
        return itertools.product(
            self.factors[0].iter_values(), self.factors[1].iter_values()
        )

    def validate_value(self, v) -> None:
        if len(v) != 2:
            raise ValueError("product element must be a pair")
        self.factors[0].validate_value(v[0])
        self.factors[1].validate_value(v[1])

    def _make_ids(self):
        return ProductIds(self.factors[0].ids(), self.factors[1].ids())


class WreathZ2(Group):
    """G wr Z_2: pairs over G with a swap bit; elements are (x, y, b).

    (x1,y1,b1)*(x2,y2,b2) = (x1*u, y1*v, b1^b2) with (u,v) = (x2,y2) when
    b1 = 0 and (y2,x2) when b1 = 1.
    """

    def __init__(self, base: Group):
        super().__init__()
        self.base = base
        self.key = ("wr", base.key)
        self.order = 2 * base.order * base.order

    def __repr__(self) -> str:
        return f"({self.base})wrZ2"

    def identity_value(self):
        e = self.base.identity_value()
        return (e, e, 0)

    def mul_values(self, a, b):
        x1, y1, b1 = a
        x2, y2, b2 = b
        if b1:
            x2, y2 = y2, x2
        return (
            self.base.mul_values(x1, x2),
            self.base.mul_values(y1, y2),
            b1 ^ b2,
        )

    def inv_value(self, a):
        x, y, b = a
        if b:
            return (self.base.inv_value(y), self.base.inv_value(x), 1)
        return (self.base.inv_value(x), self.base.inv_value(y), 0)

    def iter_values(self):
        base = list(self.base.iter_values())
        return ((x, y, b) for b in (0, 1) for x in base for y in base)

    def validate_value(self, v) -> None:
        x, y, b = v
        if b not in (0, 1):
            raise ValueError("wreath bit must be 0 or 1")
        self.base.validate_value(x)
        self.base.validate_value(y)

    def _make_ids(self):
        return WreathIds(self.base.ids())


# ---- id views ----

class TableIds:
    """Ids of S_n or GL_k(F_q): id i is values[i], the i-th value of
    iter_values(), and index maps values to ids.  The int32 Cayley table
    (table[a, b] is the id of a*b) and the inverse array are built together
    on first use, only up to TABLE_CAP elements.

    Each value has an integer code below code_space (codes[i] for
    values[i]); product_codes(lo, hi) gives the (hi - lo, n) codes of
    values[lo:hi] times every value.
    """

    def __init__(self, group: Group, values, codes, code_space: int, product_codes):
        self.group = group
        self.values = values
        self.index = {v: i for i, v in enumerate(values)}
        self.order = len(values)
        self.identity = self.index[group.identity_value()]
        self._coding = (codes, code_space, product_codes)

    table = property(lambda self: self._cayley[0])
    inverse = property(lambda self: self._cayley[1])

    @cached_property
    def _cayley(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.order
        if n > TABLE_CAP:
            raise ValueError(f"|{self.group}| = {n} exceeds the Cayley table cap {TABLE_CAP}")
        codes, code_space, product_codes = self._coding
        code_to_id = np.full(code_space, -1, dtype=np.int32)
        code_to_id[codes] = np.arange(n)
        table = np.empty((n, n), dtype=np.int32)
        inverse = np.empty(n, dtype=np.int64)
        rows = max(1, TABLE_CHUNK_CELLS // n)
        for lo in range(0, n, rows):
            chunk = code_to_id[product_codes(lo, lo + rows)]
            table[lo : lo + rows] = chunk
            inverse[lo : lo + rows] = np.argmax(chunk == self.identity, axis=1)
        return table, inverse

    def mul(self, a, b) -> np.ndarray:
        return self.table[a, b]

    def id_of(self, value) -> int:
        return self.index[value]

    def value_of(self, i):
        return self.values[i]


class ProductIds:
    """Ids of G1 x G2: (i1, i2) has id i1*|G2| + i2, the order of
    DirectProduct.iter_values()."""

    def __init__(self, first, second):
        self.factors = (first, second)
        self.order = first.order * second.order
        self.identity = first.identity * second.order + second.identity
        self.inverse = (
            first.inverse[:, None] * second.order + second.inverse[None, :]
        ).ravel()

    def mul(self, a, b) -> np.ndarray:
        first, second = self.factors
        a1, a2 = np.divmod(np.asarray(a, dtype=np.int64), second.order)
        b1, b2 = np.divmod(np.asarray(b, dtype=np.int64), second.order)
        return first.mul(a1, b1) * np.int64(second.order) + second.mul(a2, b2)

    def id_of(self, value) -> int:
        first, second = self.factors
        return first.id_of(value[0]) * second.order + second.id_of(value[1])

    def value_of(self, i):
        first, second = self.factors
        i1, i2 = divmod(int(i), second.order)
        return (first.value_of(i1), second.value_of(i2))


class WreathIds:
    """Ids of G wr Z_2: (x, y, b) has id (b*|G| + x)*|G| + y, the order of
    WreathZ2.iter_values()."""

    def __init__(self, base):
        self.base = base
        n = base.order
        self.order = 2 * n * n
        self.identity = base.identity * n + base.identity
        inv = base.inverse
        # (x, y, 0)^-1 = (x^-1, y^-1, 0) and (x, y, 1)^-1 = (y^-1, x^-1, 1)
        self.inverse = np.concatenate([
            (inv[:, None] * n + inv[None, :]).ravel(),
            ((n + inv[None, :]) * n + inv[:, None]).ravel(),
        ])

    def split(self, a):
        """The (x, y, b) base-id arrays of wreath id array a."""
        n = self.base.order
        bx, y = np.divmod(np.asarray(a, dtype=np.int64), n)
        b, x = np.divmod(bx, n)
        return x, y, b

    def mul(self, a, b) -> np.ndarray:
        n = np.int64(self.base.order)
        x1, y1, b1 = self.split(a)
        x2, y2, b2 = self.split(b)
        swap = b1 == 1
        x = self.base.mul(x1, np.where(swap, y2, x2))
        y = self.base.mul(y1, np.where(swap, x2, y2))
        return ((b1 ^ b2) * n + x) * n + y

    def id_of(self, value) -> int:
        x, y, b = value
        n = self.base.order
        return (b * n + self.base.id_of(x)) * n + self.base.id_of(y)

    def value_of(self, i):
        n = self.base.order
        bx, y = divmod(int(i), n)
        b, x = divmod(bx, n)
        return (self.base.value_of(x), self.base.value_of(y), b)


_GROUP_CACHE: dict = {}


def symmetric_group(n: int) -> SymmetricGroup:
    return _GROUP_CACHE.setdefault(("sym", n), SymmetricGroup(n))


def general_linear_group(k: int, q: int) -> GeneralLinearGroup:
    F = fields.field_of_order(q)
    return _GROUP_CACHE.setdefault(("gl", k, q), GeneralLinearGroup(k, F))


def product_group(g1: Group, g2: Group) -> DirectProduct:
    key = ("prod", g1.key, g2.key)
    return _GROUP_CACHE.setdefault(key, DirectProduct(g1, g2))


def wreath_z2(base: Group) -> WreathZ2:
    return _GROUP_CACHE.setdefault(("wr", base.key), WreathZ2(base))


class Subgroup:
    """An explicit subgroup given by its full element list.

    Construction verifies identity membership and closure under products and
    inverses, so holding a Subgroup is a certificate.
    """

    def __init__(self, group: Group, elements: Sequence[GroupElement], label: str = ""):
        values = {el.value for el in elements}
        if not values:
            raise ValueError("subgroup needs at least the identity")
        if group.identity_value() not in values:
            raise ValueError("subgroup misses the identity")
        for el in elements:
            if el.group.key != group.key:
                raise ValueError(f"element of {el.group} in subgroup of {group}")
        for a in values:
            if group.inv_value(a) not in values:
                raise ValueError("subgroup not closed under inverse")
            for b in values:
                if group.mul_values(a, b) not in values:
                    raise ValueError("subgroup not closed under product")
        self.group = group
        self.elements = tuple(GroupElement(group, v) for v in sorted(values))
        self.value_set = frozenset(values)
        self.order = len(values)
        self.label = label or f"subgroup of order {self.order}"

    def __contains__(self, el: GroupElement) -> bool:
        return el.group.key == self.group.key and el.value in self.value_set

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"<{self.label} in {self.group}>"

    def conjugate_values(self, g: GroupElement) -> List:
        """Payloads of g^-1 H g in subgroup element order."""
        ginv = self.group.inv_value(g.value)
        return [
            self.group.mul_values(self.group.mul_values(ginv, h.value), g.value)
            for h in self.elements
        ]


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, [G.identity()], label="trivial")


def full_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, G.elements(), label=f"all of {G}")


def subgroup_closure(
    G: Group, gens: Sequence[GroupElement], cap: int = GROUP_ENUM_CAP, label: str = ""
) -> Subgroup:
    """Close a generator list under multiplication; empty input gives {1}."""
    values = {G.identity_value()}
    frontier = [G.identity_value()]
    gen_values = [g.value for g in gens]
    for g in gens:
        if g.group.key != G.key:
            raise ValueError(f"generator from {g.group} for closure in {G}")
    while frontier:
        nxt = []
        for v in frontier:
            for g in gen_values:
                w = G.mul_values(v, g)
                if w not in values:
                    values.add(w)
                    nxt.append(w)
                    if len(values) > cap:
                        raise ValueError(f"closure exceeds cap {cap}")
        frontier = nxt
    return Subgroup(G, [GroupElement(G, v) for v in values], label=label)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: GroupElement
    size: int
    members: Optional[Tuple[GroupElement, ...]] = None


def conjugacy_classes(
    G: Group, cap: int = GROUP_ENUM_CAP, with_members: bool = False
) -> List[ConjugacyClass]:
    """Partition G into conjugacy classes.

    GL_2(F_q) uses the closed-form classification (see `gl2rep`), which works
    far past the enumeration cap; every other group is enumerated.
    """
    if isinstance(G, GeneralLinearGroup) and G.k == 2:
        from . import gl2rep

        return gl2rep.conjugacy_classes_gl2(G, with_members=with_members, cap=cap)
    els = G.elements(cap)
    unassigned = {el.value for el in els}
    out = []
    for el in els:
        if el.value not in unassigned:
            continue
        orbit = {el.value}
        frontier = [el.value]
        while frontier:
            nxt = []
            for v in frontier:
                for g in els:
                    w = G.mul_values(G.mul_values(G.inv_value(g.value), v), g.value)
                    if w not in orbit:
                        orbit.add(w)
                        nxt.append(w)
            frontier = nxt
        unassigned -= orbit
        members = (
            tuple(GroupElement(G, v) for v in sorted(orbit)) if with_members else None
        )
        out.append(ConjugacyClass(representative=el, size=len(orbit), members=members))
    if sum(c.size for c in out) != G.order:
        raise AssertionError(f"conjugacy class sizes of {G} do not sum to {G.order}")
    return out


# ---- random elements (used by key generation and property tests) ----

def random_element(G: Group, rng) -> GroupElement:
    """Uniform element from G; rng is a random.Random."""
    if isinstance(G, SymmetricGroup):
        img = list(range(G.n))
        rng.shuffle(img)
        return GroupElement(G, tuple(img))
    if isinstance(G, GeneralLinearGroup):
        F, k = G.field, G.k
        while True:
            M = tuple(
                tuple(rng.randrange(F.q) for _ in range(k)) for _ in range(k)
            )
            if fields.mat_is_invertible(F, M):
                return GroupElement(G, M)
    if isinstance(G, DirectProduct):
        a = random_element(G.factors[0], rng)
        b = random_element(G.factors[1], rng)
        return GroupElement(G, (a.value, b.value))
    if isinstance(G, WreathZ2):
        x = random_element(G.base, rng)
        y = random_element(G.base, rng)
        return GroupElement(G, (x.value, y.value, rng.randrange(2)))
    raise TypeError(f"no sampler for {G}")


# ---- JSON serialization of elements ----

def element_to_json(el: GroupElement):
    G = el.group
    if isinstance(G, SymmetricGroup):
        return list(el.value)
    if isinstance(G, GeneralLinearGroup):
        return [list(r) for r in el.value]
    if isinstance(G, DirectProduct):
        return [
            element_to_json(GroupElement(G.factors[0], el.value[0])),
            element_to_json(GroupElement(G.factors[1], el.value[1])),
        ]
    if isinstance(G, WreathZ2):
        return [
            element_to_json(GroupElement(G.base, el.value[0])),
            element_to_json(GroupElement(G.base, el.value[1])),
            el.value[2],
        ]
    raise TypeError(f"no serializer for {G}")


def element_from_json(G: Group, obj) -> GroupElement:
    if isinstance(G, SymmetricGroup):
        return G.make(tuple(int(x) for x in obj))
    if isinstance(G, GeneralLinearGroup):
        return G.make(fields.mat_from_rows(obj))
    if isinstance(G, DirectProduct):
        a = element_from_json(G.factors[0], obj[0])
        b = element_from_json(G.factors[1], obj[1])
        return G.make((a.value, b.value))
    if isinstance(G, WreathZ2):
        x = element_from_json(G.base, obj[0])
        y = element_from_json(G.base, obj[1])
        return G.make((x.value, y.value, int(obj[2])))
    raise TypeError(f"no parser for {G}")
