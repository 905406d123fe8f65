"""Symmetric group representation data: partitions, hook-length dimensions,
Murnaghan-Nakayama characters, the unbalanced-diagram family Lambda_c with
its audit, empirical character-decay reporting, and Young's orthogonal
matrices for explicit unitary models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chartab import CharacterTable, SymmetricFamily
from .groups import SymmetricGroup, symmetric_group

PARTITION_CAP = 40
# largest n of the full-table decay report
ROICHMAN_CAP = 10
SN_CHARTABLE_N_CAP = 16  # largest n of a full table of p(n)^2 Murnaghan-Nakayama values

Partition = Tuple[int, ...]


def check_partition(la: Sequence[int]) -> Partition:
    la = tuple(int(x) for x in la)
    if any(x <= 0 for x in la) or any(la[i] < la[i + 1] for i in range(len(la) - 1)):
        raise ValueError(f"{la} is not a partition")
    return la


@lru_cache(maxsize=None)
def partitions(n: int) -> Tuple[Partition, ...]:
    """All partitions of n, largest-part-first lexicographic order."""
    if n < 0:
        raise ValueError(f"no partitions of {n}")
    if n > PARTITION_CAP:
        raise ValueError(f"partition enumeration capped at n = {PARTITION_CAP}")

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def partition_count(n: int) -> int:
    return len(partitions(n))


def conjugate(la: Partition) -> Partition:
    if not la:
        return ()
    return tuple(sum(1 for x in la if x > j) for j in range(la[0]))


def hook_lengths(la: Partition) -> List[List[int]]:
    conj = conjugate(la)
    return [
        [la[i] - j + conj[j] - i - 1 for j in range(la[i])] for i in range(len(la))
    ]


@lru_cache(maxsize=None)
def dimension(la: Partition) -> int:
    """Irrep dimension by the hook length formula (always exact)."""
    la = check_partition(la)
    n = sum(la)
    hooks = 1
    for row in hook_lengths(la):
        for h in row:
            hooks *= h
    d, rem = divmod(math.factorial(n), hooks)
    if rem:
        raise AssertionError("hook product must divide n!")
    return d


@lru_cache(maxsize=None)
def mn_character(la: Partition, mu: Partition) -> int:
    """Character value chi_la on the class of cycle type mu, by repeated
    border-strip removal in beta-number form."""
    la, mu = check_partition(la), check_partition(mu)
    if sum(la) != sum(mu):
        raise ValueError(f"|{la}| != |{mu}|")
    if not la:
        return 1
    m, rest = mu[0], mu[1:]
    L = len(la)
    beta = [la[i] + (L - 1 - i) for i in range(L)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - m
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for b2 in beta if nb < b2 < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        nla = tuple(
            x for j, bj in enumerate(new_beta) if (x := bj - (L - 1 - j)) > 0
        )
        total += (-1) ** height * mn_character(nla, rest)
    return total


# ---- S_n character table ----

def class_size(mu: Partition) -> int:
    """Number of permutations of cycle type mu: n! / z_mu."""
    n = sum(mu)
    z = 1
    counts: Dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for part, m in counts.items():
        z *= part**m * math.factorial(m)
    return math.factorial(n) // z


def _rep_of_cycle_type(G: SymmetricGroup, mu: Partition) -> Tuple[int, ...]:
    img: List[int] = []
    start = 0
    for part in mu:
        img.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return G.make(tuple(img))


def sn_table_group(n: int) -> SymmetricGroup:
    """S_n, refused past SN_CHARTABLE_N_CAP before n! is formed."""
    if n > SN_CHARTABLE_N_CAP:
        raise ValueError(f"full S_n character table capped at n = {SN_CHARTABLE_N_CAP}")
    return symmetric_group(n)


def sn_character_table(n: int) -> CharacterTable:
    G = sn_table_group(n)
    parts = partitions(n)
    labels = [str(la) for la in parts]
    dims = [dimension(la) for la in parts]
    sizes = [class_size(mu) for mu in parts]
    reps = [_rep_of_cycle_type(G, mu) for mu in parts]
    values = np.array(
        [[mn_character(la, mu) for mu in parts] for la in parts], dtype=complex
    )

    def columns(g: np.ndarray) -> np.ndarray:
        # a cycle type is fixed by its code; the class reps give code -> column.
        # Codes reach (n + 1)^n, past int64 for n > 15, so they are made only
        # here, where G has ids (n <= 8), and never while a table is built
        codes = _cycle_codes(np.array(reps))
        order = np.argsort(codes)
        return order[np.searchsorted(codes, _cycle_codes(G.ids().array[g]), sorter=order)]

    return CharacterTable(
        G, labels, dims, list(parts), sizes, reps, values, columns,
        SymmetricFamily(tuple(parts)),
    )


def _cycle_codes(imgs: np.ndarray) -> np.ndarray:
    """Code of the cycle type of each (N, n) image row: the sum over points
    of (n + 1)^(length of the point's cycle - 1), which counts the points
    on cycles of each length in base n + 1."""
    n = imgs.shape[1]
    length = np.zeros(imgs.shape, dtype=np.int64)
    cur = imgs
    for k in range(1, n + 1):
        length[(length == 0) & (cur == np.arange(n))] = k
        cur = np.take_along_axis(imgs, cur, axis=1)
    return ((n + 1) ** (length - 1)).sum(axis=1)


# ---- the unbalanced-diagram family and its audit ----

def lambda_c_member(la: Partition, n: int, c: Fraction) -> bool:
    """True iff la has at least (1-c)n rows or at least (1-c)n columns,
    decided in exact rational arithmetic."""
    la = check_partition(la)
    if sum(la) != n:
        raise ValueError(f"{la} is not a partition of {n}")
    c = Fraction(c)
    if not 0 < c < Fraction(1, 4):
        raise ValueError("cutoff must lie in (0, 1/4)")
    threshold_num = n * (c.denominator - c.numerator)
    first_row = la[0] * c.denominator
    first_col = len(la) * c.denominator
    return first_row >= threshold_num or first_col >= threshold_num


@dataclass(frozen=True)
class LambdaCAudit:
    n: int
    c: Fraction
    cn_ceil: int
    members: Tuple[Partition, ...]
    size: int
    size_bound: int
    size_ok: bool
    max_dim: int
    dim_bound: int
    dim_ok: bool
    min_dim_outside: Optional[int]


def lambda_c_audit(n: int, c: Fraction) -> LambdaCAudit:
    """Enumerate Lambda_c and evaluate both size and dimension bounds.

    The bounds are read with m = ceil(c*n) wherever the real quantity c*n
    appears, the weakest integer reading.  The size bound is taken in its
    counting form 2 * sum_{j<=m} p(j), which dominates the asymptotic
    shorthand 2*m*p(m) at every finite n (the shorthand is smaller than the
    actual member count already at c*n = 1); the dimension bound is n**m.
    """
    c = Fraction(c)
    members = tuple(la for la in partitions(n) if lambda_c_member(la, n, c))
    cn_ceil = -((-c.numerator * n) // c.denominator)
    size_bound = 2 * sum(partition_count(j) for j in range(cn_ceil + 1))
    dims = [dimension(la) for la in members]
    max_dim = max(dims) if dims else 0
    dim_bound = n**cn_ceil
    outside = [dimension(la) for la in partitions(n) if la not in set(members)]
    return LambdaCAudit(
        n=n,
        c=c,
        cn_ceil=cn_ceil,
        members=members,
        size=len(members),
        size_bound=size_bound,
        size_ok=len(members) <= size_bound,
        max_dim=max_dim,
        dim_bound=dim_bound,
        dim_ok=max_dim < dim_bound,
        min_dim_outside=min(outside) if outside else None,
    )


# ---- empirical character decay outside Lambda_c ----

@dataclass(frozen=True)
class DecayRow:
    support: int
    max_ratio: float
    alpha_hat: Optional[float]
    witness_la: Partition
    witness_mu: Partition


@dataclass(frozen=True)
class DecayReport:
    n: int
    c: Fraction
    rows: Tuple[DecayRow, ...]


def support_of_type(mu: Partition) -> int:
    return sum(mu) - sum(1 for part in mu if part == 1)


def roichman_report(n: int, c: Fraction) -> DecayReport:
    """Max normalized character |chi_la(mu)|/d_la outside Lambda_c, grouped
    by permutation support, with the implied decay rate alpha_hat.

    Purely empirical: no pass/fail judgment is made, since the decay
    constants are existence statements.
    """
    if n > ROICHMAN_CAP:
        raise ValueError(f"full-table decay report capped at n = {ROICHMAN_CAP}")
    c = Fraction(c)
    outside = [la for la in partitions(n) if not lambda_c_member(la, n, c)]
    by_support: Dict[int, DecayRow] = {}
    for mu in partitions(n):
        s = support_of_type(mu)
        if s == 0:
            continue
        for la in outside:
            ratio = abs(mn_character(la, mu)) / dimension(la)
            cur = by_support.get(s)
            if cur is None or ratio > cur.max_ratio:
                alpha = -math.log(ratio) / s if ratio > 0 else None
                by_support[s] = DecayRow(s, ratio, alpha, la, mu)
    rows = tuple(by_support[s] for s in sorted(by_support))
    return DecayReport(n=n, c=c, rows=rows)


# ---- standard Young tableaux and Young's orthogonal representation ----

def standard_tableaux(la: Partition) -> List[Tuple[Tuple[int, ...], ...]]:
    """All standard Young tableaux of shape la, in the deterministic order
    induced by choosing the row of each value 1..n in turn."""
    la = check_partition(la)
    n = sum(la)
    out: List[Tuple[Tuple[int, ...], ...]] = []

    def place(v: int, rows: List[List[int]]):
        if v > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(la)):
            if len(rows[i]) < la[i] and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(v)
                place(v + 1, rows)
                rows[i].pop()

    place(1, [[] for _ in la])
    return out


def yor_generator_matrices(la: Partition) -> List[np.ndarray]:
    """Orthogonal matrices for the adjacent transpositions s_i = (i, i+1),
    i = 0..n-2, acting on the standard-tableau basis."""
    la = check_partition(la)
    n = sum(la)
    tabs = standard_tableaux(la)
    d = len(tabs)
    if d != dimension(la):
        raise AssertionError("tableau count must match hook dimension")
    pos: List[Dict[int, Tuple[int, int]]] = []
    for t in tabs:
        m: Dict[int, Tuple[int, int]] = {}
        for i, row in enumerate(t):
            for j, v in enumerate(row):
                m[v] = (i, j)
        pos.append(m)
    tab_index = {t: i for i, t in enumerate(tabs)}
    gens = []
    for i in range(n - 1):
        a, b = i + 1, i + 2
        M = np.zeros((d, d))
        for t_i, t in enumerate(tabs):
            (ra, ca), (rb, cb) = pos[t_i][a], pos[t_i][b]
            axial = (cb - rb) - (ca - ra)
            M[t_i, t_i] = 1.0 / axial
            if ra != rb and ca != cb:
                swapped = tuple(
                    tuple(b if v == a else a if v == b else v for v in row)
                    for row in t
                )
                t_j = tab_index[swapped]
                if t_j > t_i:
                    off = math.sqrt(1.0 - 1.0 / axial**2)
                    M[t_i, t_j] = off
                    M[t_j, t_i] = off
        gens.append(M)
    return gens


def adjacent_word(perm: Sequence[int]) -> List[int]:
    """Indices i1..ik with perm = s_{i1} * ... * s_{ik} in apply-left-first
    order (bubble sort of the one-line form)."""
    p = list(perm)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                changed = True
    return word


class YorRep:
    """Young's orthogonal representation of one shape."""

    def __init__(self, la: Partition):
        self.shape = check_partition(la)
        self.n = sum(la)
        self.dim = dimension(la)
        self.generators = yor_generator_matrices(la)

    def mat(self, perm: Sequence[int]) -> np.ndarray:
        got = np.eye(self.dim)
        for i in adjacent_word(perm):
            got = got @ self.generators[i]
        return got

    def mats(self, perms) -> np.ndarray:
        """mat() of every row of an (N, n) array of one-line forms, bit for
        bit, as (N, d, d).  The bubble sorts of all rows run in lockstep;
        rows whose words share a prefix share its one product
        M_prefix @ generators[i], so all of S_n costs |S_n| - 1 products."""
        p = np.array(perms, dtype=np.int64).reshape(-1, self.n)
        buf = np.empty((2 * len(p) + 1, self.dim, self.dim))  # prefix matrices
        buf[0] = np.eye(self.dim)
        node = np.zeros(len(p), dtype=np.int64)  # row -> its prefix in buf
        size = 1
        for _ in range(self.n - 1):
            for i in range(self.n - 1):
                sw = np.flatnonzero(p[:, i] > p[:, i + 1])
                if not sw.size:
                    continue
                p[sw, i], p[sw, i + 1] = p[sw, i + 1], p[sw, i]
                if size + len(sw) > len(buf):  # keep the prefixes rows still hold
                    live, node = np.unique(node, return_inverse=True)
                    buf[: len(live)] = buf[live]
                    size = len(live)
                u, inv = np.unique(node[sw], return_inverse=True)
                np.matmul(buf[u], self.generators[i], out=buf[size : size + len(u)])
                node[sw] = size + inv
                size += len(u)
        return buf[node]
