"""Uniform handles for the small finite groups used throughout: S_n,
GL_k(F_q), direct products, and the wreath product G wr Z_2 = G^2 : Z_2.

Element values are tuples (image tuples for permutations, row tuples for
matrices, nested pairs for products, (x, y, b) triples for wreath
elements).  They are the edge format: parsing, JSON, reports and class
representatives.  There is no element wrapper: `Group.make` validates a
value and returns it, and `Group.elements()` is the list of values in id
order.  All arithmetic runs in the id view (`Group.ids()`): id i is the
i-th value of `iter_values()`, and every view has `mul(a, b)` and `inv(a)`
on numpy id arrays.
S_n and GL_k(F_q) have one product path each, and no |G|^2 table: `mul`
is a product function on broadcasting id arrays, and `inv` reads one
inverse array over the group.  S_n composes image arrays.  GL_k multiplies
rows through one row-action array, and inverts each matrix by inverting
its permutation of the rows.  Direct products and wreath products compose
ids from their factors' ids, and compose `inv` as they compose `mul`,
through the factors; neither keeps an array of its own order.  A Subgroup
is the sorted array of its ids, certified and closed on id arrays.

Composition convention, fixed globally: products apply left factor first,
(pi * sigma)(i) = sigma(pi(i)), which matches P_(pi*sigma) = P_pi P_sigma for
the permutation matrices of `fields.perm_matrix` and the right action
M -> M P on codeword positions.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import fields
from .fields import GROUP_ENUM_CAP, Fq

# products per chunk of a subgroup's closure scan and of least_in_cosets,
# which bounds their transient memory
CHUNK_CELLS = 1 << 14


def require_enumerable(G: "Group", cap: str = "enumeration cap", limit: int = GROUP_ENUM_CAP) -> None:
    """Refuse a group of more than limit elements, GROUP_ENUM_CAP unless a
    caller has its own cap; cap names the cap's purpose in the message
    ("the sampling cap" for strong sampling, "the attack cap" in `hsp`)."""
    if G.order > limit:
        raise ValueError(f"|{G}| = {G.order} exceeds {cap} {limit}")


class Group:
    """Abstract finite group handle; concrete kinds fill in payload ops."""

    key: tuple
    order: int

    def __init__(self):
        self._elements: Optional[list] = None
        self._ids = None

    # payload-level ops implemented by subclasses
    def identity_value(self):
        raise NotImplementedError

    def iter_values(self) -> Iterator:
        raise NotImplementedError

    def validate_value(self, v) -> None:
        raise NotImplementedError

    def _make_ids(self):
        raise NotImplementedError

    # value-level API
    def make(self, value):
        """value, once validated as an element of this group."""
        self.validate_value(value)
        return value

    def elements(self) -> list:
        """The values of the group in id order, enumerated on first use."""
        if self._elements is None:
            require_enumerable(self)
            els = list(self.iter_values())
            if len(els) != self.order:
                raise AssertionError(f"enumerated {len(els)} elements of {self}, order {self.order}")
            self._elements = els
        return self._elements

    def ids(self):
        """The id view of this group (an ElementIds, ProductIds or WreathIds),
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

    def iter_values(self):
        return itertools.permutations(range(self.n))

    def validate_value(self, v) -> None:
        if sorted(v) != list(range(self.n)):
            raise ValueError(f"{v} is not a permutation of 0..{self.n - 1}")

    def _make_ids(self):
        values = self.elements()
        n = self.n
        imgs = np.array(values).reshape(len(values), n)
        flat = imgs.ravel()
        cols = imgs.T.copy()
        # a permutation is fixed by its first n - 1 images, coded positionally
        place = n ** np.arange(n - 1)
        code_to_id = np.zeros(n ** (n - 1), dtype=np.int32)
        code_to_id[imgs[:, :-1] @ place] = np.arange(len(values))
        top = max(n - 2, 0)  # S1's code is its one image, 0

        def product(a, b):
            # (a*b)(i) = b(a(i)), one image position at a time, coded by
            # Horner's rule from the last coded position
            bn = np.multiply(b, n)
            code = flat[bn + cols[top][a]]
            for i in range(top - 1, -1, -1):
                code = code * n + flat[bn + cols[i][a]]
            return code_to_id[code]

        inverse = code_to_id[np.argsort(imgs, axis=1)[:, :-1] @ place].astype(np.int64)
        return ElementIds(self, values, imgs, product, inverse)


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

    def iter_values(self):
        return fields.enumerate_glk(self.field, self.k)

    def validate_value(self, v) -> None:
        if len(v) != self.k or any(len(r) != self.k for r in v):
            raise ValueError(f"expected {self.k}x{self.k} matrix")
        if any(not 0 <= x < self.field.q for row in v for x in row):
            raise ValueError("matrix entry out of field range")
        if not fields.mat_is_invertible(self.field, v):
            raise ValueError(f"matrix {v} is singular")

    def _make_ids(self):
        values = self.elements()
        # a matrix is coded through its row codes, a row through its entries,
        # both in positional notation; R row codes exist
        k, q = self.k, self.field.q
        R = q**k
        add, mul = self.field.tables()
        place = q ** np.arange(k)
        rows = (np.arange(R)[:, None] // place) % q
        mats = np.array(values).reshape(len(values), k, k)
        N = len(values)
        # acts[b, r] is the code of row r times matrix b: the sum over l of
        # r[l] * (row l of b), entrywise through the field tables.  It is
        # held matrix-major, so that one flat index b*R + r reads it
        acc = mul[rows[None, :, 0, None], mats[:, None, 0]]
        for l in range(1, k):
            acc = add[acc, mul[rows[None, :, l, None], mats[:, None, l]]]
        acts = acc @ place
        flat = acts.ravel()
        row_codes = mats @ place
        cols = row_codes.T.copy()
        row_place = R ** np.arange(k)
        code_to_id = np.zeros(R**k, dtype=np.int32)
        code_to_id[row_codes @ row_place] = np.arange(N)

        def product(a, b):
            # row i of A B is row i of A times B, coded by Horner's rule
            bR = np.multiply(b, R)
            code = flat[bR + cols[k - 1][a]]
            for i in range(k - 2, -1, -1):
                code = code * R + flat[bR + cols[i][a]]
            return code_to_id[code]

        # B permutes the row codes, and row i of B^-1 is the row that B
        # sends to the unit row e_i, whose code is place[i]
        back = np.empty_like(acts)
        back[np.arange(N)[:, None], acts] = np.arange(R)
        inverse = code_to_id[back[:, place] @ row_place].astype(np.int64)
        return ElementIds(self, values, mats, product, inverse)


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

    def iter_values(self):
        base = list(self.base.iter_values())
        return ((x, y, b) for b in (0, 1) for x in base for y in base)

    def validate_value(self, v) -> None:
        if len(v) != 3:
            raise ValueError("wreath element must be a triple (x, y, b)")
        x, y, b = v
        if b not in (0, 1):
            raise ValueError("wreath bit must be 0 or 1")
        self.base.validate_value(x)
        self.base.validate_value(y)

    def _make_ids(self):
        return WreathIds(self.base.ids())


# ---- id views ----

class ElementIds:
    """Ids of S_n or GL_k(F_q): id i is values[i], the i-th value of
    iter_values(), and index maps values to ids.  array holds the values as
    one integer array: (N, n) image rows for S_n, (N, k, k) matrices for
    GL_k.

    mul(a, b) is the family's product function: the ids of a*b for
    broadcasting id arrays a and b.  inverse is the array of every id's
    inverse, which inv(a) reads.
    """

    def __init__(self, group: Group, values, array, mul, inverse):
        self.group = group
        self.values = values
        self.array = array
        self.index = {v: i for i, v in enumerate(values)}
        self.order = len(values)
        self.identity = self.index[group.identity_value()]
        self.mul = mul
        self.inverse = inverse

    def inv(self, a) -> np.ndarray:
        return self.inverse[a]

    def id_of(self, value) -> int:
        return self.index[value]

    def value_of(self, i):
        return self.values[i]


class ProductIds:
    """Ids of G1 x G2: (i1, i2) has id i1*|G2| + i2, the order of
    DirectProduct.iter_values(); mul and inv act componentwise."""

    def __init__(self, first, second):
        self.factors = (first, second)
        self.order = first.order * second.order
        self.identity = first.identity * second.order + second.identity

    def mul(self, a, b) -> np.ndarray:
        first, second = self.factors
        a1, a2 = np.divmod(np.asarray(a, dtype=np.int64), second.order)
        b1, b2 = np.divmod(np.asarray(b, dtype=np.int64), second.order)
        return first.mul(a1, b1) * np.int64(second.order) + second.mul(a2, b2)

    def inv(self, a) -> np.ndarray:
        first, second = self.factors
        a1, a2 = np.divmod(np.asarray(a, dtype=np.int64), second.order)
        return first.inv(a1) * np.int64(second.order) + second.inv(a2)

    def id_of(self, value) -> int:
        first, second = self.factors
        return first.id_of(value[0]) * second.order + second.id_of(value[1])

    def value_of(self, i):
        first, second = self.factors
        i1, i2 = divmod(int(i), second.order)
        return (first.value_of(i1), second.value_of(i2))


class WreathIds:
    """Ids of G wr Z_2: (x, y, b) has id (b*|G| + x)*|G| + y, the order of
    WreathZ2.iter_values(); mul and inv compose base ids."""

    def __init__(self, base):
        self.base = base
        n = base.order
        self.order = 2 * n * n
        self.identity = base.identity * n + base.identity

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

    def inv(self, a) -> np.ndarray:
        # (x, y, 0)^-1 = (x^-1, y^-1, 0) and (x, y, 1)^-1 = (y^-1, x^-1, 1)
        n = np.int64(self.base.order)
        x, y, b = self.split(a)
        x, y, swap = self.base.inv(x), self.base.inv(y), b == 1
        return (b * n + np.where(swap, y, x)) * n + np.where(swap, x, y)

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


def _cached(key: tuple, build: Callable[[], Group]) -> Group:
    """The group cached under key, built only on a miss."""
    G = _GROUP_CACHE.get(key)
    if G is None:
        G = _GROUP_CACHE[key] = build()
    return G


def symmetric_group(n: int) -> SymmetricGroup:
    return _cached(("sym", n), lambda: SymmetricGroup(n))


def general_linear_group(k: int, q: int) -> GeneralLinearGroup:
    return _cached(("gl", k, q), lambda: GeneralLinearGroup(k, fields.field_of_order(q)))


def product_group(g1: Group, g2: Group) -> DirectProduct:
    return _cached(("prod", g1.key, g2.key), lambda: DirectProduct(g1, g2))


def wreath_z2(base: Group) -> WreathZ2:
    return _cached(("wr", base.key), lambda: WreathZ2(base))


def _distinct(x) -> np.ndarray:
    """The sorted distinct ids of an id array, as a flat int64 array; a
    plain np.unique would import numpy.ma (numpy 2.4 asks np.ma.is_masked)."""
    x = np.sort(np.asarray(x, dtype=np.int64).ravel())
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _distinct_rows(x: np.ndarray):
    """The distinct rows of a 2-d array in lexicographic order and the
    position of each row among them, as (distinct, index) with
    distinct[index] == x; np.unique would import numpy.ma."""
    order = np.lexsort(x.T[::-1])
    new = np.ones(len(x), dtype=bool)
    new[1:] = (x[order[1:]] != x[order[:-1]]).any(axis=1)
    index = np.empty(len(x), dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    return x[order[new]], index


def _distinct_index(x):
    """The sorted distinct ids of an id array and, in x's shape, the
    position of each entry among them."""
    distinct, index = _distinct_rows(np.asarray(x, dtype=np.int64).reshape(-1, 1))
    return distinct[:, 0], index.reshape(np.shape(x))


def _member(sorted_ids: np.ndarray, x) -> np.ndarray:
    """Whether each id in x lies in the sorted, duplicate-free id array."""
    pos = np.minimum(np.searchsorted(sorted_ids, x), len(sorted_ids) - 1)
    return sorted_ids[pos] == x


class Subgroup:
    """An explicit subgroup of G held as the sorted int64 array of its ids
    in G.ids() (`ids`).

    Construction verifies, on id arrays, identity membership and closure
    under inverses and products, so holding a Subgroup is a certificate.
    `value_set` is a derived view for JSON, reports and tests;
    `coset_reps` serves every coset kernel on H.
    """

    def __init__(self, group: Group, ids, label: str = ""):
        ids = _distinct(ids)
        if not ids.size:
            raise ValueError("subgroup needs at least the identity")
        if ids[0] < 0 or ids[-1] >= group.order:
            raise ValueError(f"id out of range for {group}")
        gids = group.ids()
        if not _member(ids, gids.identity):
            raise ValueError("subgroup misses the identity")
        if not _member(ids, gids.inv(ids)).all():
            raise ValueError("subgroup not closed under inverse")
        rows = max(1, CHUNK_CELLS // len(ids))
        for lo in range(0, len(ids), rows):
            if not _member(ids, gids.mul(ids[lo : lo + rows, None], ids[None, :])).all():
                raise ValueError("subgroup not closed under product")
        ids.flags.writeable = False
        self.group = group
        self.ids = ids
        self.order = len(ids)
        self.label = label or f"subgroup of order {self.order}"

    @cached_property
    def value_set(self) -> frozenset:
        value_of = self.group.ids().value_of
        return frozenset(value_of(i) for i in self.ids)

    def least_in_cosets(self, g) -> np.ndarray:
        """The least id of the right coset Hg for every id of an id array,
        found in chunks of H."""
        ids, g = self.group.ids(), np.asarray(g, dtype=np.int64)
        least = g.copy()
        rows = max(1, CHUNK_CELLS // max(1, len(g)))
        for lo in range(0, self.order, rows):
            np.minimum(least, ids.mul(self.ids[lo : lo + rows, None], g).min(axis=0), out=least)
        return least

    @cached_property
    def coset_reps(self) -> np.ndarray:
        """The least id of every right coset Hg, ascending: the ids g with
        id(h g) >= g for every h in H."""
        g = np.arange(self.group.order)
        return np.flatnonzero(self.least_in_cosets(g) == g)

    def __repr__(self) -> str:
        return f"<{self.label} in {self.group}>"


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, [G.ids().identity], label="trivial")


def subgroup_closure(G: Group, gens: Sequence, label: str = "") -> Subgroup:
    """Close a list of generator values under multiplication, by a
    breadth-first walk on id arrays; empty input gives {1}."""
    for g in gens:
        G.validate_value(g)
    ids = G.ids()
    gen_ids = np.array([ids.id_of(g) for g in gens], dtype=np.int64)
    seen = np.zeros(G.order, dtype=bool)
    seen[ids.identity] = True
    frontier = np.array([ids.identity], dtype=np.int64)
    count = 1
    while frontier.size:
        nxt = _distinct(ids.mul(frontier[:, None], gen_ids[None, :]))
        frontier = nxt[~seen[nxt]]
        seen[frontier] = True
        count += frontier.size
        if count > GROUP_ENUM_CAP:
            raise ValueError(f"closure exceeds cap {GROUP_ENUM_CAP}")
    return Subgroup(G, np.flatnonzero(seen), label=label)


def element_from_json(G: Group, obj):
    """The element of G written as JSON: lists are read as tuples and every
    leaf through int(), and G.make validates the result, so a malformed
    element raises ValueError or TypeError."""

    def parse(o):
        return tuple(parse(x) for x in o) if isinstance(o, list) else int(o)

    return G.make(parse(obj))
