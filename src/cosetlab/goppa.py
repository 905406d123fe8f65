"""Rational Goppa codes on the projective line: the Vandermonde-style
generator matrix, exact dimension and minimum distance, permutation
automorphism groups with their minimal degree, and the check that every
automorphism is induced by a fractional-linear map of the evaluation points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import fields
from .fields import Fq, Matrix, field_of_order

AUT_POINT_CAP = 8
CODEWORD_CAP = 10**6


@dataclass(frozen=True)
class RationalGoppaSpec:
    """Evaluation data (gamma_1..gamma_n, r, g, h) over F_q; polynomials are
    little-endian coefficient tuples."""

    q: int
    gamma: Tuple[int, ...]
    r: int
    g: Tuple[int, ...] = (1,)
    h: Tuple[int, ...] = (1,)

    def field(self) -> Fq:
        return field_of_order(self.q)

    def validate(self) -> None:
        F = self.field()
        n = len(self.gamma)
        if len(set(self.gamma)) != n:
            raise ValueError("evaluation points must be distinct")
        if any(not 0 <= x < self.q for x in self.gamma):
            raise ValueError("evaluation point outside the field")
        if not 0 <= self.r < n:
            raise ValueError(f"need 0 <= r < n, got r={self.r}, n={n}")
        g = fields.poly_trim(self.g)
        h = fields.poly_trim(self.h)
        if not g or not h:
            raise ValueError("g and h must be nonzero")
        if fields.poly_deg(fields.poly_gcd(F, g, h)) != 0:
            raise ValueError("g and h must be coprime")
        for x in self.gamma:
            if fields.poly_eval(F, g, x) == 0:
                raise ValueError(f"g vanishes at point {x}")
            if fields.poly_eval(F, h, x) == 0:
                raise ValueError(f"h vanishes at point {x}")

    @staticmethod
    def from_json(obj: dict) -> "RationalGoppaSpec":
        spec = RationalGoppaSpec(
            q=int(obj["q"]),
            gamma=tuple(int(x) for x in obj["gamma"]),
            r=int(obj["r"]),
            g=tuple(int(x) for x in obj.get("g", [1])),
            h=tuple(int(x) for x in obj.get("h", [1])),
        )
        spec.validate()
        return spec


class LinearCode:
    """A linear code held by one generator matrix; rows span the code."""

    def __init__(self, F: Fq, generator: Matrix):
        self.field = F
        self.generator = generator
        self.k = len(generator)
        self.n = len(generator[0]) if generator else 0
        self._min_distance: Optional[int] = None
        self._rowspace: Optional[Matrix] = None

    def rowspace(self) -> Matrix:
        if self._rowspace is None:
            self._rowspace = fields.mat_rref(self.field, self.generator)
        return self._rowspace

    def codewords(self):
        F = self.field
        for combo in itertools.product(F.elements(), repeat=self.k):
            word = [0] * self.n
            for c, row in zip(combo, self.generator):
                if c == 0:
                    continue
                for j, m in enumerate(row):
                    word[j] = F.add(word[j], F.mul(c, m))
            yield tuple(word)

    def min_distance(self) -> int:
        if self._min_distance is None:
            if self.field.q**self.k > CODEWORD_CAP:
                raise ValueError("codeword enumeration over cap")
            best = self.n
            for word in self.codewords():
                w = sum(1 for x in word if x != 0)
                if 0 < w < best:
                    best = w
            self._min_distance = best
        return self._min_distance


def build_goppa(spec: RationalGoppaSpec) -> LinearCode:
    """Generator matrix with rows (gamma_i^j g(gamma_i)/h(gamma_i))_i for
    j = 0..r; always has full rank r+1."""
    spec.validate()
    F = spec.field()
    scale = [
        F.div(fields.poly_eval(F, spec.g, x), fields.poly_eval(F, spec.h, x))
        for x in spec.gamma
    ]
    rows = []
    for j in range(spec.r + 1):
        rows.append(
            tuple(F.mul(F.pow(x, j), s) for x, s in zip(spec.gamma, scale))
        )
    code = LinearCode(F, tuple(rows))
    if code.k != spec.r + 1 or fields.mat_rank(F, code.generator) != spec.r + 1:
        raise AssertionError("full rank")
    return code


# ---- permutation automorphisms ----

@dataclass(frozen=True)
class CodeAutReport:
    automorphisms: Tuple[Tuple[int, ...], ...]
    order: int
    minimal_degree: Optional[int]  # None for the trivial group


def _perm_support(pi: Sequence[int]) -> int:
    return sum(1 for i, x in enumerate(pi) if x != i)


def automorphisms(code: LinearCode) -> CodeAutReport:
    """All pi in S_n whose column action preserves the row space, by
    exhaustive enumeration; includes the minimal degree of the group."""
    if code.n > AUT_POINT_CAP:
        raise ValueError(f"automorphism enumeration capped at n = {AUT_POINT_CAP}")
    F = code.field
    target = code.rowspace()
    auts = []
    for pi in itertools.permutations(range(code.n)):
        permuted = fields.apply_perm_to_cols(code.generator, pi)
        if fields.mat_rref(F, permuted) == target:
            auts.append(pi)
    aut_set = set(auts)
    identity = tuple(range(code.n))
    if identity not in aut_set:
        raise AssertionError("the identity must be an automorphism")
    for pi in auts:
        inv = tuple(sorted(range(code.n), key=lambda i: pi[i]))
        if inv not in aut_set:
            raise AssertionError("automorphisms must be closed under inverse")
    supports = [_perm_support(pi) for pi in auts if pi != identity]
    return CodeAutReport(
        automorphisms=tuple(auts),
        order=len(auts),
        minimal_degree=min(supports) if supports else None,
    )


# ---- fractional-linear induction of automorphisms ----

def pgl2_elements(F: Fq) -> List[Matrix]:
    """Canonical coset representatives of PGL_2(F_q): invertible 2x2
    matrices whose first nonzero entry is 1."""
    out = []
    for M in fields.enumerate_glk(F, 2):
        flat = (M[0][0], M[0][1], M[1][0], M[1][1])
        lead = next(x for x in flat if x != 0)
        if lead == 1:
            out.append(M)
    if len(out) != F.q * (F.q**2 - 1):
        raise AssertionError(f"{len(out)} normalized matrices, expected q(q^2 - 1)")
    return out


def moebius_apply(F: Fq, M: Matrix, x: int) -> Optional[int]:
    """(a x + b) / (c x + d); None when x maps to the point at infinity."""
    (a, b), (c, d) = M
    den = F.add(F.mul(c, x), d)
    if den == 0:
        return None
    return F.div(F.add(F.mul(a, x), b), den)


def induced_point_permutation(
    F: Fq, M: Matrix, gamma: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """The permutation of gamma induced by the fractional-linear map M, or
    None when M moves some point outside the list (or to infinity)."""
    pos = {x: i for i, x in enumerate(gamma)}
    pi = [0] * len(gamma)
    for i, x in enumerate(gamma):
        y = moebius_apply(F, M, x)
        if y is None or y not in pos:
            return None
        pi[i] = pos[y]
    if len(set(pi)) != len(pi):
        return None
    return tuple(pi)


def stichtenoth_check(spec: RationalGoppaSpec, report: CodeAutReport) -> bool:
    """True iff every automorphism in the report is induced by some element
    of PGL_2 acting on the evaluation points (exhaustive search)."""
    if not 1 <= spec.r <= len(spec.gamma) - 3:
        raise ValueError("projective induction check needs 1 <= r <= n-3")
    F = spec.field()
    induced = set()
    for M in pgl2_elements(F):
        pi = induced_point_permutation(F, M, spec.gamma)
        if pi is not None:
            induced.add(pi)
    return all(pi in induced for pi in report.automorphisms)


# ---- instance generation for batch checks ----

def random_spec(
    rng: random.Random, q: int, n: int, r: int, max_poly_deg: int = 2
) -> RationalGoppaSpec:
    """A valid random spec: distinct points, then rejection-sampled coprime
    g, h nonvanishing on them."""
    F = field_of_order(q)
    if n > q:
        raise ValueError("need n <= q distinct evaluation points")
    if not 0 <= r < n:
        raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
    gamma = tuple(rng.sample(list(F.elements()), n))
    while True:
        g = tuple(rng.randrange(q) for _ in range(rng.randint(1, max_poly_deg + 1)))
        h = tuple(rng.randrange(q) for _ in range(rng.randint(1, max_poly_deg + 1)))
        spec = RationalGoppaSpec(q=q, gamma=gamma, r=r, g=g, h=h)
        try:
            spec.validate()
        except ValueError:
            continue
        return spec
