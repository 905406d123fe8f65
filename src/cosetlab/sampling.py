"""Coset-state Fourier sampling: subgroup projections in each irrep, weak
and strong sampling distributions, exact distinguishability of a subgroup
from the trivial one, and the identity and inequality checks that drive the
distinguishability bound.

Every matrix comes from an irrep's gather (`RealizedIrrep.at` on an id
array, or `stack()` on all ids) and the conjugation-invariance scan runs on
id arrays; groups of more than GROUP_ENUM_CAP elements are refused.  Every
strong-sampling quantity reads a `CosetKernel` of one (irrep, subgroup),
which its caller builds and drops: `suites.lemma_checks` passes one per
examined irrep to the Schur, variance, basis-average and general-method
checks, and `distinguishability` reduces each irrep's kernel to distortions.
A kernel's weights are means of diagonals (`RealizedIrrep.diag`) at the
conjugates g^-1 h g, which one `Conjugates` per (subgroup, ids) forms once
for every irrep.  The context caches only the isotypic norms, which do not
depend on a subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chartab import CharacterTable
from .groups import Group, Subgroup, _distinct_index, _distinct_rows, require_enumerable
from .realize import RealizedIrrep, realize_table

STRUCT_TOL = 1e-8
INEQ_TOL = 1e-7
WEAK_SUM_TOL = 1e-9
ZERO_TRACE_TOL = 1e-12
DIST_CEILING = 4.0
# conjugate ids times the largest irrep dimension per chunk of Conjugates
CONJUGATE_CHUNK_CELLS = 1 << 20
BASIS = "realized coordinates"  # the basis every strong-sampling output is in
SAMPLING_CAP = "the sampling cap"  # the enumeration cap's name in sampling's refusals


@dataclass
class SamplingContext:
    """Character table plus one fixed unitary realization per irrep; all
    strong-sampling output is relative to the realized coordinate basis."""
    table: CharacterTable
    reals: List[RealizedIrrep]
    # isotypic_vector_norms by irrep index
    norms: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def group(self) -> Group:
        return self.table.group


def sampling_context(table: CharacterTable) -> SamplingContext:
    """The table with its realized irreps, after the group passes the
    enumeration cap (named SAMPLING_CAP)."""
    require_enumerable(table.group, SAMPLING_CAP)
    return SamplingContext(table=table, reals=realize_table(table))


def projection_bundle(real: RealizedIrrep, H: Subgroup) -> np.ndarray:
    """Average of the realized irrep over H; verified to be an orthogonal
    projection."""
    P = np.zeros((real.dim, real.dim), dtype=complex)
    # a running sum in id order (a pairwise sum rounds differently)
    for M in real.at(H.ids):
        P += M
    P /= H.order
    if np.abs(P - P.conj().T).max() >= STRUCT_TOL:
        raise AssertionError(f"projection of {real.label} over H is not Hermitian")
    if np.abs(P @ P - P).max() >= STRUCT_TOL:
        raise AssertionError(f"projection of {real.label} over H is not idempotent")
    return P


def weak_distribution(table: CharacterTable, H: Subgroup) -> np.ndarray:
    """P_H(rho) = d_rho * (sum of chi_rho over H) / |G| for every irrep;
    the outcome distribution of measuring only the irrep name.  Its sum is
    a verdict of the caller: a `weak-sum` record in the lemma grid, a
    raise in `distinguishability`."""
    G = table.group
    # each row is summed in id order with Python's sum, which fixes how
    # every probability rounds
    cols = table.columns_of(H.ids)
    probs = np.empty(table.n_irreps)
    for i in range(table.n_irreps):
        s = sum(table.values[i, cols].tolist())
        if abs(s.imag) >= STRUCT_TOL:
            raise AssertionError(f"character sum of {table.labels[i]} over H is not real")
        probs[i] = table.dims[i] * s.real / G.order
    if probs.min() <= -WEAK_SUM_TOL:
        raise AssertionError(f"negative weak probability {probs.min()}")
    return np.clip(probs, 0.0, None)


class Conjugates:
    """The conjugates g^-1 H g at an id array (by default H's right-coset
    representatives), read by the kernel of every irrep and by the
    conjugation-invariance check.  They depend only on the coset Hg, so
    each distinct subgroup is formed once, as a row of ascending ids in
    `sets`, and `row` maps every id to its row.  The subgroups come in
    chunks of at most CONJUGATE_CHUNK_CELLS // (dim |H|), dim the largest
    irrep dimension read, each as its distinct ids and the position of
    every subgroup element among them."""

    def __init__(self, H: Subgroup, dim: int, ids: Optional[np.ndarray] = None):
        G = H.group.ids()
        self.H = H
        # the coset representatives are the least ids of their cosets, so
        # on them the mapping below is the identity
        self.ids = H.coset_reps if ids is None else np.asarray(ids, dtype=np.int64)
        reps, rep_of = _distinct_index(H.least_in_cosets(self.ids))
        g = reps[:, None]
        conj = np.sort(G.mul(G.mul(G.inv(g), H.ids[None, :]), g), axis=1)
        self.sets, set_of = _distinct_rows(conj)
        self.row = set_of[rep_of]
        step = max(1, CONJUGATE_CHUNK_CELLS // (dim * H.order))
        self.chunks = [
            _distinct_index(self.sets[lo : lo + step]) for lo in range(0, len(self.sets), step)
        ]


class CosetKernel:
    """Strong sampling of one irrep under one subgroup H: the projection P
    onto the H-fixed space and its trace, and the weights
    |Pi_{H^g} e_b|^2 = (1/|H|) sum_{h in H} rho(g^-1 h g)_bb of the realized
    basis at the ids of shared conjugates.  Pi_{H^{hg}} = Pi_{H^g}, so on
    the right-coset representatives the weights give every mean and
    variance over G.  Its caller builds it for one (irrep, conjugates) and
    drops it."""

    def __init__(self, real: RealizedIrrep, conj: Conjugates):
        self.real, self.conj, self.H = real, conj, conj.H
        self.P = projection_bundle(real, self.H)
        self.trace = float(np.trace(self.P).real)

    @cached_property
    def by_subgroup(self) -> np.ndarray:
        """(distinct conjugate subgroups, d) weights: for each subgroup, the
        real parts of the diagonals at its elements summed in ascending id
        order and divided by |H|.  Every row must sum to tr P."""
        parts = []
        for distinct, index in self.conj.chunks:
            parts.append(self.real.diag(distinct).real[index].sum(axis=1) / self.H.order)
        W = np.concatenate(parts)
        err = float(np.abs(W.sum(axis=1) - self.trace).max())
        if err >= STRUCT_TOL:
            raise AssertionError(f"weights of {self.real.label} miss the projection trace by {err}")
        return W

    @cached_property
    def weights(self) -> np.ndarray:
        """(len(ids), d) weights at the conjugates' ids."""
        return self.by_subgroup[self.conj.row]

    def _conditionals(self) -> np.ndarray:
        if self.trace < ZERO_TRACE_TOL:
            raise ValueError(
                "projection has zero trace: the irrep has zero weak weight and "
                "the conditional distribution is undefined"
            )
        return self.by_subgroup / self.trace

    def conditionals(self) -> np.ndarray:
        """Weights over tr Pi_H at the conjugates' ids: the distribution
        over the realized basis after observing rho with the hidden
        subgroup conjugated by g."""
        return self._conditionals()[self.conj.row]

    def distortions(self) -> np.ndarray:
        """Squared L1 distance of each conditional from uniform."""
        dists = np.abs(self._conditionals() - 1.0 / self.real.dim).sum(axis=1) ** 2
        return dists[self.conj.row]


@dataclass
class DistResult:
    value: float
    weak: np.ndarray
    per_irrep: Dict[str, float]
    mc_samples: Optional[int] = None
    std_error: Optional[float] = None


def distinguishability(
    ctx: SamplingContext,
    H: Subgroup,
    mc_samples: Optional[int] = None,
    seed: int = 0,
) -> DistResult:
    """Expected squared L1 distance between the strong-sampling conditional
    and uniform, weighted by the weak distribution; exhaustive over g by
    default, Monte Carlo over g when mc_samples is set.  Its range
    [0, DIST_CEILING] is judged by its callers (`suites.dist_records`)."""
    probs = weak_distribution(ctx.table, H)
    if abs(probs.sum() - 1.0) >= WEAK_SUM_TOL:
        raise AssertionError(f"weak distribution sums to {probs.sum()}")
    if H.order == 1:
        # trivial subgroup: the fixed-space projection is the identity, so
        # every conditional is uniform and the distance is zero exactly
        return DistResult(
            value=0.0,
            weak=probs,
            per_irrep={lbl: 0.0 for lbl in ctx.table.labels},
            mc_samples=mc_samples,
            std_error=0.0 if mc_samples is not None else None,
        )
    ids = None
    if mc_samples is not None:
        ids = np.random.default_rng(seed).integers(0, ctx.group.order, size=mc_samples)
    # one set of conjugates for every irrep of nonzero weak weight
    dim = max(d for d, p in zip(ctx.table.dims, probs) if p >= ZERO_TRACE_TOL)
    conj = Conjugates(H, dim, ids)
    per_irrep: Dict[str, float] = {}
    # per sampled g, or per right coset Hg; the weak weights make it an array
    per_sample = 0.0
    for i in range(ctx.table.n_irreps):
        if probs[i] < ZERO_TRACE_TOL:
            per_irrep[ctx.table.labels[i]] = 0.0
            continue
        dists = CosetKernel(ctx.reals[i], conj).distortions()
        per_irrep[ctx.table.labels[i]] = float(np.mean(dists))
        per_sample = per_sample + probs[i] * dists
    value = float(np.mean(per_sample))
    std_error = None
    if mc_samples is not None:
        std_error = float(np.std(per_sample, ddof=1) / np.sqrt(len(per_sample)))
    return DistResult(
        value=value,
        weak=probs,
        per_irrep=per_irrep,
        mc_samples=mc_samples,
        std_error=std_error,
    )


# ---- isotypic decomposition of rho (x) rho* ----

def isotypic_vector_norms(ctx: SamplingContext, rho_idx: int) -> np.ndarray:
    """norms[sigma, i] = squared norm of the sigma-isotypic projection of
    b_i (x) b_i*, for every irrep sigma and every realized basis vector;
    uses (A (x) A*)(b (x) b*) = col (x) col* to stay in d^2 vectors.
    Also certifies completeness: the projections of b (x) b* sum back to
    it.  Cached on the context (independent of any subgroup)."""
    if rho_idx in ctx.norms:
        return ctx.norms[rho_idx]
    real, table = ctx.reals[rho_idx], ctx.table
    d = real.dim
    U = real.stack()
    # V[g, i, a, b] = rho(g)[a, i] conj(rho(g)[b, i]), the image of b_i (x) b_i*,
    # summed over each conjugacy class in one pass, then weighted by the
    # conjugate characters in one product
    V = np.einsum("gai,gbi->giab", U, U.conj()).reshape(len(U), d * d * d)
    C = np.zeros((len(table.class_sizes), d * d * d), dtype=complex)
    np.add.at(C, table.element_columns(), V)
    W = (table.values.conj() @ C).reshape(table.n_irreps, d, d * d)
    W *= (np.asarray(table.dims, dtype=float) / ctx.group.order)[:, None, None]
    # row i of the target is b_i (x) b_i*
    if np.abs(W.sum(axis=0) - np.eye(d * d)[:: d + 1]).max() >= STRUCT_TOL:
        raise AssertionError(f"isotypic projections of {real.label} do not sum back to b (x) b*")
    norms = (np.abs(W) ** 2).sum(axis=2)
    ctx.norms[rho_idx] = norms
    return norms


# ---- identity and inequality checks ----

def _by_basis(k: CosetKernel) -> np.ndarray:
    """The kernel weights with one contiguous row per basis vector b, so a
    reduction along a row sums as the strided column would."""
    return np.ascontiguousarray(k.weights.T)


def schur_expectation_check(k: CosetKernel) -> Tuple[np.ndarray, float]:
    """Mean over all g of |Pi_{H^g} b|^2, for every basis vector b, against
    tr(Pi_H)/d."""
    return _by_basis(k).mean(axis=1), k.trace / k.real.dim


def second_moment_check(
    ctx: SamplingContext, h_ids: Sequence[int], rho_idx: int
) -> Tuple[np.ndarray, np.ndarray]:
    """E_g |<b, rho(g^-1 h g) b>|^2 against the isotypic expansion
    sum_sigma (chi_sigma(h)/d_sigma) |Pi_sigma (b (x) b*)|^2, as (len(h_ids), d)
    arrays over the elements h and the basis vectors b."""
    real, table = ctx.reals[rho_idx], ctx.table
    n, d = real.group.order, real.dim
    # column (g, i) of cols is rho(g) e_i, so one product (m d, d) @ (d, |G| d)
    # gives rho(h) rho(g) e_i for every h, g and basis vector e_i
    cols = real.stack().transpose(1, 0, 2).reshape(d, n * d)
    moved = (real.at(h_ids).reshape(-1, d) @ cols).reshape(len(h_ids), d, n * d)
    overlaps = (cols.conj() * moved).sum(axis=1).reshape(len(h_ids), n, d)
    lhs = np.mean(overlaps.real**2 + overlaps.imag**2, axis=1)
    norms, dims = isotypic_vector_norms(ctx, rho_idx), np.asarray(table.dims)
    chi = table.values[:, table.element_columns()[h_ids]]
    # one vector-matrix product per h, which fixes how every rhs rounds
    rhs = np.stack([(chi[:, j] / dims) @ norms for j in range(len(h_ids))])
    if np.abs(rhs.imag).max() >= INEQ_TOL:
        raise AssertionError(f"isotypic expansion of {real.label} is not real")
    return lhs, rhs.real


def variance_bound_check(
    ctx: SamplingContext, k: CosetKernel, rho_idx: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Variance over g of |Pi_{H^g} b|^2, for every basis vector b, against
    sum over sigma appearing in rho (x) rho* of
    (max normalized character of sigma on H minus identity) times the
    isotypic norm of b (x) b*; k is the kernel of irrep rho_idx."""
    lhs = _by_basis(k).var(axis=1)
    chi_max = ctx.table.normalized_char_maxes(k.H)
    norms = isotypic_vector_norms(ctx, rho_idx)
    mult = ctx.table.tensor_square_multiplicities(rho_idx)
    # for every b, a running sum over sigma in index order
    return lhs, sum(chi_max[s] * norms[s] for s in np.flatnonzero(mult > 0))


def _chi_bar(table: CharacterTable, H: Subgroup, S: set) -> float:
    """The largest normalized character maximum on H outside S (0 if none)."""
    return float(np.delete(table.normalized_char_maxes(H), list(S)).max(initial=0.0))


def general_method_check(
    table: CharacterTable, k: CosetKernel, rho_idx: int, S_indices: Sequence[int]
) -> Tuple[float, float]:
    """The per-irrep distortion E_g |P_{H^g}(.|rho) - uniform|_1^2 against
    4|H|^2 (max normalized character outside S + |S inside rho (x) rho*| *
    d_S^2 / d_rho) for rho outside S; k is the kernel of irrep rho_idx."""
    S = set(S_indices)
    if rho_idx in S:
        raise ValueError("rho must lie outside S")
    H = k.H
    lhs = float(np.mean(k.distortions()))
    chi_bar = _chi_bar(table, H, S)
    d_S = max((table.dims[s] for s in S), default=0)
    mult = table.tensor_square_multiplicities(rho_idx)
    overlap = sum(1 for s in S if mult[s] > 0)
    rhs = 4.0 * H.order**2 * (
        chi_bar + overlap * d_S**2 / table.dims[rho_idx]
    )
    return lhs, rhs


def pg_invariance_error(table: CharacterTable, conj: Conjugates) -> float:
    """Largest deviation of the weak distribution of any conjugate of H
    from that of H itself; zero because characters are class functions.

    Reads the distinct conjugate subgroups of the Conjugates at H's coset
    representatives, which are all of them, as class columns in ascending
    id order; subgroups with the same columns give the same distribution,
    so each distinct row is summed once."""
    H = conj.H
    if conj.ids is not H.coset_reps:
        raise ValueError("conjugation invariance needs the conjugates at every right coset")
    base = weak_distribution(table, H)
    dims = np.asarray(table.dims, dtype=float)
    worst = 0.0
    for cols in _distinct_rows(table.element_columns()[conj.sets])[0]:
        sums = table.values[:, cols].sum(axis=1)
        probs = dims * sums.real / table.group.order
        worst = max(worst, float(np.abs(probs - base).max()))
    return worst


def basis_average_error(k: CosetKernel) -> float:
    """Deviation of the g-averaged conditional distribution from uniform;
    zero by the averaging argument behind the Schur check."""
    conds = k.conditionals()
    return float(np.abs(conds.mean(axis=0) - 1.0 / conds.shape[1]).max())


# ---- the distinguishability bound ----

@dataclass
class BoundComponents:
    S: Tuple[str, ...]
    D: int
    d_S: int
    chi_bar_rest: float
    delta: int
    small_count: int
    subgroup_order: int
    value: float


def distinguishability_bound(
    table: CharacterTable, H: Subgroup, S_indices: Sequence[int], D: int
) -> BoundComponents:
    """4|H|^2 (chi_bar over the complement of S + Delta d_S^2 / D +
    (count of irreps of dimension below D) D^2 / |G|), where Delta is the
    largest number of members of S inside rho (x) rho* over irreps of
    dimension at least D; requires D > d_S^2."""
    S = set(S_indices)
    d_S = max((table.dims[s] for s in S), default=0)
    if D <= d_S**2:
        raise ValueError("dimension threshold must exceed d_S^2")
    chi_bar = _chi_bar(table, H, S)
    large = [i for i in range(table.n_irreps) if table.dims[i] >= D]
    delta = 0
    for i in large:
        mult = table.tensor_square_multiplicities(i)
        delta = max(delta, sum(1 for s in S if mult[s] > 0))
    small_count = table.n_irreps - len(large)
    value = 4.0 * H.order**2 * (
        chi_bar + delta * d_S**2 / D + small_count * D**2 / table.group.order
    )
    return BoundComponents(
        S=tuple(table.labels[s] for s in sorted(S)),
        D=D,
        d_S=d_S,
        chi_bar_rest=chi_bar,
        delta=delta,
        small_count=small_count,
        subgroup_order=H.order,
        value=value,
    )

