"""Standard verification grids: canonical subgroup catalogs per group kind,
batched identity and inequality checks over (subgroup, irrep, basis) grids,
and the distinguishability suite with golden values and bound
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import sampling
from .chartab import CharacterTable, SymmetricFamily
from .groups import (
    GeneralLinearGroup,
    Group,
    Subgroup,
    SymmetricGroup,
    WreathZ2,
    subgroup_closure,
    trivial_subgroup,
)
from .sampling import INEQ_TOL, SamplingContext, sampling_context
from .symrep import lambda_c_member
from .wreathrep import k_build

SCHUR_TOL = 1e-8
IDENTITY_TOL = 1e-7
INVARIANCE_TOL = 1e-8
WEIGHT_TOL = 1e-12
GOLDEN_TOL = 1e-10
DIST_RANGE_TOL = 1e-12

SECOND_MOMENT_ELEMENTS = 3


@dataclass
class CheckRecord:
    group: str
    subgroup: str
    check: str
    subject: str
    lhs: float
    rhs: float
    ok: bool


# ---- canonical subgroup catalogs ----

def _sym_catalog(G: SymmetricGroup) -> List[Subgroup]:
    n = G.n
    out = [trivial_subgroup(G)]
    if n >= 2:
        swap = tuple([1, 0] + list(range(2, n)))
        out.append(subgroup_closure(G, [swap], label="order-2"))
    if n >= 3:
        cyc = tuple([1, 2, 0] + list(range(3, n)))
        out.append(subgroup_closure(G, [cyc], label="three-cycle"))
    return out


def _gl2_catalog(G: GeneralLinearGroup) -> List[Subgroup]:
    F = G.field
    out = [trivial_subgroup(G)]
    uni = ((1, 1), (0, 1))
    out.append(subgroup_closure(G, [uni], label="unipotent"))
    if F.q == 2:
        out.append(subgroup_closure(G, [((0, 1), (1, 1))], label="order-3"))
    else:
        torus = ((1, 0), (0, F.generator))
        out.append(subgroup_closure(G, [torus], label="split-torus"))
    return out


def _wreath_catalog(G: WreathZ2) -> List[Subgroup]:
    base = G.base
    e = base.identity_value()
    out = [trivial_subgroup(G)]
    out.append(subgroup_closure(G, [(e, e, 1)], label="order-2"))
    if base.order < 2:  # S1 wr Z2 has no shift s != 1
        return out
    ids = base.ids()
    s = ids.value_of(1)
    out.append(k_build(trivial_subgroup(base), s, label="K-type small"))
    H0 = subgroup_closure(base, [s], label="H0")
    inside = set(H0.ids.tolist())
    s2 = next((i for i in range(base.order) if i not in inside), None)
    if s2 is not None:  # none when H0 is the whole base, as in S2
        out.append(k_build(H0, ids.value_of(s2), label="K-type"))
    return out


def subgroup_catalog(G: Group) -> List[Subgroup]:
    """Deterministic list of representative subgroups for the verification
    grid: trivial plus small cyclic kinds per group family, plus the
    two-coset K shapes inside wreath products."""
    if isinstance(G, SymmetricGroup):
        return _sym_catalog(G)
    if isinstance(G, GeneralLinearGroup) and G.k == 2:
        return _gl2_catalog(G)
    if isinstance(G, WreathZ2):
        return _wreath_catalog(G)
    out = [trivial_subgroup(G)]
    if G.order > 1:
        # the first non-identity element in id order
        ids = G.ids()
        g = ids.value_of(1 if ids.identity == 0 else 0)
        out.append(subgroup_closure(G, [g], label="cyclic"))
    return out


# ---- grid runners ----

def linear_indices(table: CharacterTable) -> List[int]:
    """Indices of the one-dimensional irreps."""
    return [i for i in range(table.n_irreps) if table.dims[i] == 1]


def lemma_checks(
    ctx: SamplingContext,
    H: Subgroup,
    max_dim: Optional[int] = None,
) -> List[CheckRecord]:
    """Every identity and inequality check for one subgroup: Schur means,
    second moments, variance bounds, basis sums, per-irrep distortion
    bounds, weak-distribution structure, and conjugation invariance.
    max_dim restricts the irreps examined (reduced slices for big
    groups)."""
    table = ctx.table
    gname = repr(ctx.group)
    records: List[CheckRecord] = []

    def add(check: str, subject: str, lhs: float, rhs: float, ok: bool) -> None:
        records.append(CheckRecord(gname, H.label, check, subject, lhs, rhs, ok))

    probs = sampling.weak_distribution(table, H)
    total = float(probs.sum())
    add("weak-sum", "", total, 1.0, abs(total - 1.0) < sampling.WEAK_SUM_TOL)
    rho_list = [
        i
        for i in range(table.n_irreps)
        if max_dim is None or table.dims[i] <= max_dim
    ]
    # one set of conjugates for the invariance check and every kernel
    conj = sampling.Conjugates(H, max(table.dims[i] for i in rho_list))
    inv_err = sampling.pg_invariance_error(table, conj)
    add("conjugation-invariance", "", inv_err, 0.0, inv_err < INVARIANCE_TOL)
    # the identity, then the first non-identity elements in value order
    ids = H.group.ids()
    rest = sorted((h for h in H.ids.tolist() if h != ids.identity), key=ids.value_of)
    h_ids = [ids.identity] + rest[:SECOND_MOMENT_ELEMENTS]
    lin = linear_indices(table)
    # each check runs once per irrep on every basis vector b at once, on
    # one coset kernel dropped with the irrep and reading the conjugates
    # every irrep shares; the records read plain floats and bools from
    # .tolist()
    for i in rho_list:
        rho = f"rho={table.labels[i]}"
        k = sampling.CosetKernel(ctx.reals[i], conj)
        norms = sampling.isotypic_vector_norms(ctx, i)
        for s, lhs in enumerate(norms.sum(axis=1).tolist()):
            rhs = float(table.dims[s] ** 2)
            add("large-small", f"{rho} sigma={table.labels[s]}", lhs, rhs, lhs <= rhs + INEQ_TOL)
        schur, schur_rhs = sampling.schur_expectation_check(k)
        var, var_rhs = sampling.variance_bound_check(ctx, k, i)
        moment, moment_rhs = sampling.second_moment_check(ctx, h_ids, i)
        per_b = zip(
            schur.tolist(), var.tolist(), var_rhs.tolist(), moment.T.tolist(), moment_rhs.T.tolist()
        )
        for b, (mean, v, v_rhs, m_lhs, m_rhs) in enumerate(per_b):
            ok = abs(mean - schur_rhs) < SCHUR_TOL
            add("schur-expectation", f"{rho} b={b}", mean, schur_rhs, ok)
            add("variance-bound", f"{rho} b={b}", v, v_rhs, v <= v_rhs + INEQ_TOL)
            for j, (lhs, rhs) in enumerate(zip(m_lhs, m_rhs)):
                add("second-moment", f"{rho} b={b} h#{j}", lhs, rhs, abs(lhs - rhs) < IDENTITY_TOL)
        if probs[i] > WEIGHT_TOL:
            err = sampling.basis_average_error(k)
            add("basis-average", rho, err, 0.0, err < SCHUR_TOL)
            if i not in lin and lin:
                lhs, rhs = sampling.general_method_check(table, k, i, lin)
                add("general-method", f"{rho} S=linear", lhs, rhs, lhs <= rhs + INEQ_TOL)
    return records


def dist_checks(
    ctx: SamplingContext,
    H: Subgroup,
    S_indices: Optional[Sequence[int]] = None,
    D: Optional[int] = None,
    golden: Optional[float] = None,
) -> List[CheckRecord]:
    """Distinguishability of one subgroup: range check, optional golden
    value, optional bound configuration."""
    value = sampling.distinguishability(ctx, H).value
    bound = None
    if S_indices is not None and D is not None:
        bound = sampling.distinguishability_bound(ctx.table, H, S_indices, D)
    return dist_records(repr(ctx.group), H, value, bound, golden)


def dist_records(
    gname: str,
    H: Subgroup,
    value: float,
    bound: Optional[sampling.BoundComponents] = None,
    golden: Optional[float] = None,
) -> List[CheckRecord]:
    """The verdict on one distinguishability value, as records in this
    order: the range [0, DIST_CEILING], then the golden value and the bound
    when they are given."""
    ceiling = sampling.DIST_CEILING
    in_range = -DIST_RANGE_TOL < value <= ceiling + DIST_RANGE_TOL
    records = [CheckRecord(gname, H.label, "dist-range", "", value, ceiling, in_range)]
    if golden is not None:
        ok = abs(value - golden) < GOLDEN_TOL
        records.append(CheckRecord(gname, H.label, "dist-golden", "", value, golden, ok))
    if bound is not None:
        subject = f"S={','.join(bound.S) or 'empty'} D={bound.D}"
        ok = value <= bound.value + INEQ_TOL
        records.append(CheckRecord(gname, H.label, "dist-bound", subject, value, bound.value, ok))
    return records


# ---- named suites ----

# each lemma suite: (dist --group spec, largest irrep dimension checked or
# None for all) rows; "all" runs the four in this order, then the dist suite
LEMMA_SUITES: Dict[str, List[Tuple[str, Optional[int]]]] = {
    "small": [("s3", None), ("s4", None)],
    "gl2": [("gl2_2", None), ("gl2_3", None)],
    "wreath": [("wreath_s3", None)],
    "big-wreath": [("wreath_gl2_2xs3", 2)],
}


def run_lemma_suite(name: str) -> List[CheckRecord]:
    """name: a key of LEMMA_SUITES, or all."""
    from .cli import parse_group_table
    if name == "all":
        rows = [row for rows in LEMMA_SUITES.values() for row in rows]
    elif name in LEMMA_SUITES:
        rows = LEMMA_SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    records: List[CheckRecord] = []
    for spec, max_dim in rows:
        ctx = sampling_context(parse_group_table(spec))
        for H in subgroup_catalog(ctx.group):
            records.extend(lemma_checks(ctx, H, max_dim=max_dim))
    return records


def lambda_set_indices(table: CharacterTable, c: Fraction) -> List[int]:
    """Indices of the partitions with a long first row or column at rate
    c, in a symmetric-group table."""
    if not isinstance(table.family, SymmetricFamily):
        raise ValueError(f"{table.group} has no symmetric-group character table")
    parts = table.family.partitions
    n = sum(parts[0])
    return [
        i for i, la in enumerate(parts) if lambda_c_member(la, n, c)
    ]


def run_dist_suite() -> List[CheckRecord]:
    """Golden distinguishability values plus bound configurations: the
    symmetric-group goldens, GL2 over q in {3,4,5} with S = linear irreps
    and D = q-1, and S6 against the long-row set at c = 1/6.  Groups and
    subgroups are named by their `dist` specs; every subgroup is a catalog
    label."""
    from .cli import parse_group_table, parse_subgroup
    records: List[CheckRecord] = []

    ctx = sampling_context(parse_group_table("s3"))
    for label, golden in (("trivial", 0.0), ("order-2", 1.0 / 3.0), ("three-cycle", 0.0)):
        records.extend(dist_checks(ctx, parse_subgroup(ctx.group, label), golden=golden))

    for q in (3, 4, 5):
        table = parse_group_table(f"gl2_{q}")
        ctx = sampling_context(table)
        uni = parse_subgroup(ctx.group, "unipotent")
        records.extend(dist_checks(ctx, uni, S_indices=linear_indices(table), D=q - 1))

    table = parse_group_table("s6")
    ctx = sampling_context(table)
    S = lambda_set_indices(table, Fraction(1, 6))
    d_S = max(table.dims[i] for i in S)
    order2 = parse_subgroup(ctx.group, "order-2")
    records.extend(dist_checks(ctx, order2, S_indices=S, D=d_S**2 + 1))
    return records


def failed(records: Sequence[CheckRecord]) -> List[CheckRecord]:
    return [r for r in records if not r.ok]
