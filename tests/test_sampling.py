from __future__ import annotations

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from cosetlab import sampling, wreathrep
from cosetlab.chartab import CharacterTable
from cosetlab.cli import parse_group_table
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.groups import subgroup_closure, trivial_subgroup
from cosetlab.realize import RealizedIrrep
from cosetlab.sampling import (
    Conjugates,
    CosetKernel,
    SamplingContext,
    distinguishability,
    distinguishability_bound,
    isotypic_vector_norms,
    pg_invariance_error,
    projection_bundle,
    sampling_context,
    schur_expectation_check,
    second_moment_check,
    variance_bound_check,
    weak_distribution,
)
from cosetlab.suites import LEMMA_SUITES, lemma_checks, subgroup_catalog
from cosetlab.symrep import sn_character_table
from cosetlab.wreathrep import wreath_char_table

from reference_models import conj, fixed_space_basis, fixed_weights, q_route_weights


def s3_ctx():
    return sampling_context(sn_character_table(3))


def s3_subgroups(ctx):
    G = ctx.group
    order2 = subgroup_closure(G, [G.make((1, 0, 2))], label="order-2")
    alt = subgroup_closure(G, [G.make((1, 2, 0))], label="three-cycle")
    return trivial_subgroup(G), order2, alt


def test_projection_bundle_is_projector():
    ctx = s3_ctx()
    _, order2, alt = s3_subgroups(ctx)
    for H in (order2, alt):
        for real in ctx.reals:
            P = projection_bundle(real, H)
            assert np.allclose(P @ P, P, atol=1e-10)
            assert np.allclose(P, P.conj().T, atol=1e-10)
            k = CosetKernel(real, Conjugates(H, real.dim))
            assert np.array_equal(k.P, P)
            assert abs(k.trace - np.trace(P).real) < 1e-10


def test_weak_distribution_golden_values():
    ctx = s3_ctx()
    trivialH, order2, alt = s3_subgroups(ctx)
    t = ctx.table
    by_label = lambda p: {t.labels[i]: p[i] for i in range(t.n_irreps)}
    w2 = by_label(weak_distribution(t, order2))
    assert abs(w2["(3,)"] - 1 / 3) < 1e-10
    assert abs(w2["(2, 1)"] - 2 / 3) < 1e-10
    assert abs(w2["(1, 1, 1)"]) < 1e-10
    w3 = by_label(weak_distribution(t, alt))
    assert abs(w3["(3,)"] - 1 / 2) < 1e-10
    assert abs(w3["(2, 1)"]) < 1e-10
    assert abs(w3["(1, 1, 1)"] - 1 / 2) < 1e-10
    # the trivial subgroup weights irreps by d^2/|G|
    w1 = weak_distribution(t, trivialH)
    for i in range(t.n_irreps):
        assert abs(w1[i] - t.dims[i] ** 2 / 6) < 1e-10


def test_weak_distribution_sums_to_one():
    ctx = sampling_context(gl2_char_table(3))
    G = ctx.group
    uni = subgroup_closure(G, [G.make(((1, 1), (0, 1)))])
    assert abs(weak_distribution(ctx.table, uni).sum() - 1.0) < 1e-9


def test_conditional_distribution_golden_at_identity():
    # two-dimensional irrep, order-2 subgroup: the projector fixes the first
    # realized coordinate, so observing at g = identity gives (1, 0)
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    std = next(i for i in range(3) if ctx.table.dims[i] == 2)
    k = CosetKernel(ctx.reals[std], Conjugates(order2, 2, [ctx.group.ids().identity]))
    p = k.conditionals()[0]
    assert np.allclose(sorted(p), [0.0, 1.0], atol=1e-10)


def test_conditional_distribution_zero_weight_raises():
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    sign = next(
        i for i in range(3)
        if ctx.table.dims[i] == 1 and ctx.table.labels[i] == "(1, 1, 1)"
    )
    k = CosetKernel(ctx.reals[sign], Conjugates(order2, 1, [ctx.group.ids().identity]))
    # rank 0: every weight is 0, and only normalizing a conditional raises
    assert k.trace == 0 and not k.weights.any()
    with pytest.raises(ValueError, match="zero trace"):
        k.conditionals()


def test_distinguishability_golden_values():
    ctx = s3_ctx()
    trivialH, order2, alt = s3_subgroups(ctx)
    assert distinguishability(ctx, trivialH).value < 1e-10
    assert abs(distinguishability(ctx, order2).value - 1 / 3) < 1e-10
    assert distinguishability(ctx, alt).value < 1e-10


def test_distinguishability_basis_relabeling_invariant():
    # strong sampling depends on the realized basis only through its lines:
    # reordering the basis vectors and changing their phases conjugates
    # every irrep by a monomial unitary and leaves the value unchanged
    ctx = s3_ctx()
    order2 = s3_subgroups(ctx)[1]
    rng = np.random.default_rng(5)
    relabeled = []
    for real in ctx.reals:
        d = real.dim
        V = np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
        relabeled.append(RealizedIrrep(
            real.group, real.label, d,
            lambda g, r=real, V=V: V.conj().T @ r.at(g) @ V,
        ))
    other = SamplingContext(ctx.table, relabeled)
    a = distinguishability(ctx, order2).value
    b = distinguishability(other, order2).value
    assert abs(a - b) < 1e-10


def test_sampling_context_refuses_past_the_enumeration_cap(monkeypatch):
    # |(S6)wrZ2| = 1,036,800: refused before any irrep is realized
    table = wreath_char_table(sn_character_table(6))
    monkeypatch.setattr(sampling, "realize_table", lambda t: pytest.fail("realized"))
    with pytest.raises(ValueError, match=r"= 1036800 exceeds the sampling cap"):
        sampling_context(table)


def test_distinguishability_monte_carlo_agrees():
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    exact = distinguishability(ctx, order2).value
    mc = distinguishability(ctx, order2, mc_samples=4000, seed=3)
    assert mc.std_error is not None
    assert abs(mc.value - exact) < 6 * mc.std_error + 1e-6


def test_expected_l1sq_matches_direct_average():
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    std = next(i for i in range(3) if ctx.table.dims[i] == 2)
    real = ctx.reals[std]
    P = projection_bundle(real, order2)
    trace = np.trace(P).real
    direct = np.mean(
        [
            np.abs(fixed_weights(real.at([g]), P)[0] / trace - 0.5).sum() ** 2
            for g in range(ctx.group.order)
        ]
    )
    assert abs(np.mean(CosetKernel(real, Conjugates(order2, real.dim)).distortions()) - direct) < 1e-12


def test_tensor_conj_multiplicities_are_integral():
    for table in (sn_character_table(4), gl2_char_table(3)):
        for i in range(table.n_irreps):
            m = table.tensor_square_multiplicities(i)
            assert np.all(m >= 0)
            # the trivial irrep appears exactly once in rho (x) rho*
            trivial = next(
                j for j in range(table.n_irreps)
                if table.dims[j] == 1
                and np.allclose(np.asarray(table.values[j]), 1.0)
            )
            assert m[trivial] == 1
            assert sum(m[j] * table.dims[j] for j in range(table.n_irreps)) == table.dims[i] ** 2


def test_isotypic_vector_norms_resolve_identity():
    ctx = sampling_context(sn_character_table(4))
    for idx in range(ctx.table.n_irreps):
        norms = isotypic_vector_norms(ctx, idx)
        d = ctx.reals[idx].dim
        # each b (x) b* is a unit vector split across isotypic pieces
        assert np.allclose(norms.sum(axis=0), 1.0, atol=1e-8)
        mults = ctx.table.tensor_square_multiplicities(idx)
        for j in range(ctx.table.n_irreps):
            if mults[j] == 0:
                assert np.all(norms[j] < 1e-10)


def test_irrep_distortion_zero_weight_raises():
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    sign = next(i for i in range(3) if ctx.table.labels[i] == "(1, 1, 1)")
    with pytest.raises(ValueError):
        CosetKernel(ctx.reals[sign], Conjugates(order2, 1)).distortions()


def test_pg_invariance_is_exact_for_weak_probabilities():
    ctx = sampling_context(gl2_char_table(2))
    G = ctx.group
    H = subgroup_closure(G, [G.make(((0, 1), (1, 1)))], label="order-3")
    assert pg_invariance_error(ctx.table, Conjugates(H, 1)) < 1e-12


def test_distinguishability_bound_components():
    table = gl2_char_table(3)
    G = table.group
    uni = subgroup_closure(G, [G.make(((1, 1), (0, 1)))], label="unipotent")
    lin = [i for i in range(table.n_irreps) if table.dims[i] == 1]
    comp = distinguishability_bound(table, uni, lin, D=2)
    assert comp.d_S == 1
    assert comp.D == 2
    assert comp.value >= 0
    # bound must dominate the exhaustive value
    ctx = sampling_context(table)
    assert distinguishability(ctx, uni).value <= min(4.0, comp.value) + 1e-7
    with pytest.raises(ValueError):
        distinguishability_bound(table, uni, lin, D=1)


def test_distinguishability_result_shape():
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    res = distinguishability(ctx, order2)
    assert set(res.per_irrep) == set(ctx.table.labels)
    assert res.mc_samples is None and res.std_error is None
    assert abs(res.value - 1 / 3) < 1e-10
    assert abs(res.weak.sum() - 1.0) < 1e-9


def test_wreath_minus_irrep_zero_weight_under_swap():
    # a minus-type irrep over a linear base character has zero projector
    # trace for the swap subgroup, a legitimate zero-weight case
    table = wreath_char_table(sn_character_table(3))
    ctx = sampling_context(table)
    W = ctx.group
    e3 = (0, 1, 2)
    swap = subgroup_closure(W, [W.make((e3, e3, 1))], label="swap")
    probs = weak_distribution(table, swap)
    minus_over_linear = [
        i
        for i, m in enumerate(table.family.metas)
        if m.kind == "minus" and table.family.base.dims[m.i] == 1
    ]
    assert minus_over_linear
    for i in minus_over_linear:
        assert probs[i] < 1e-12


# ---- the per-element loops the checks ran before stacks, kept as references ----

def reference_pg_invariance_error(table, H):
    G = table.group
    base = weak_distribution(table, H)
    dims = np.asarray(table.dims, dtype=float)
    worst = 0.0
    for g in G.elements():
        cols = [table.class_index_of(conj(G, g, h)) for h in sorted(H.value_set)]
        sums = table.values[:, cols].sum(axis=1)
        probs = dims * sums.real / G.order
        worst = max(worst, float(np.abs(probs - base).max()))
    return worst


def reference_isotypic_vector_norms(ctx, rho_idx):
    real = ctx.reals[rho_idx]
    table = ctx.table
    ev = table.element_values()
    d = real.dim
    W = np.zeros((table.n_irreps, d, d * d), dtype=complex)
    for j, el in enumerate(ctx.group.elements()):
        U = real.mat_value(el)
        V = np.einsum("ai,bi->iab", U, U.conj()).reshape(d, d * d)
        W += ev[:, j].conj()[:, None, None] * V[None, :, :]
    W *= (np.asarray(table.dims, dtype=float) / ctx.group.order)[:, None, None]
    return (np.abs(W) ** 2).sum(axis=2)


def reference_second_moment_lhs(ctx, h_value, rho_idx, b_idx):
    real = ctx.reals[rho_idx]
    Uh = real.mat_value(h_value)
    vals = []
    for el in ctx.group.elements():
        col = real.mat_value(el)[:, b_idx]
        vals.append(abs(np.vdot(col, Uh @ col)) ** 2)
    return float(np.mean(vals))


def catalog_contexts():
    for spec in ("s4", "wreath_s3", "gl2_3", "gl2_2xs3"):
        ctx = sampling_context(parse_group_table(spec))
        yield ctx, subgroup_catalog(ctx.group)


def test_stacked_checks_match_per_element_loops():
    for ctx, catalog in catalog_contexts():
        table = ctx.table
        for H in catalog:
            want = reference_pg_invariance_error(table, H)
            assert pg_invariance_error(table, Conjugates(H, 1)) == want
        h_values = sorted({h for H in catalog for h in sorted(H.value_set)[:3]})
        h_ids = [ctx.group.ids().id_of(hv) for hv in h_values]
        for i, real in enumerate(ctx.reals):
            want = reference_isotypic_vector_norms(ctx, i)
            assert np.abs(isotypic_vector_norms(ctx, i) - want).max() < 1e-13
            moment, moment_rhs = second_moment_check(ctx, h_ids, i)
            assert moment.shape == moment_rhs.shape == (len(h_ids), real.dim)
            for b in range(real.dim):
                for j, hv in enumerate(h_values):
                    lhs, rhs = moment[j, b], moment_rhs[j, b]
                    assert abs(lhs - reference_second_moment_lhs(ctx, hv, i, b)) < 1e-13
                    assert abs(lhs - rhs) < 1e-7
            # every basis vector at once, each b summed as its own column
            for H in catalog:
                k = CosetKernel(real, Conjugates(H, real.dim))
                weights = k.weights
                schur, schur_rhs = schur_expectation_check(k)
                var, var_rhs = variance_bound_check(ctx, k, i)
                assert schur.shape == var.shape == var_rhs.shape == (real.dim,)
                for b in range(real.dim):
                    assert schur[b] == np.mean(weights[:, b])
                    assert var[b] == np.var(weights[:, b])
                    assert abs(schur[b] - schur_rhs) < 1e-7
                    assert var[b] <= var_rhs[b] + 1e-7


def test_pg_invariance_flags_a_wrong_class_map():
    # a class map that puts one transposition among the 3-cycles is not a
    # class function, and conjugating H = <(1 2)> exposes it
    good = sn_character_table(3)
    G = good.group
    bad_value = (1, 0, 2)
    bad_id = G.ids().id_of(bad_value)
    three_cycle_col = good.class_index_of(G.make((1, 2, 0)))

    def wrong_columns(g):
        return np.where(g == bad_id, three_cycle_col, good.columns_of(g))

    bad = CharacterTable(
        G, good.labels, good.dims, good.class_keys, good.class_sizes,
        good.class_reps, good.values, wrong_columns,
    )
    H = subgroup_closure(G, [G.make(bad_value)], label="order-2")
    assert pg_invariance_error(good, Conjugates(H, 1)) < 1e-12
    assert pg_invariance_error(bad, Conjugates(H, 1)) > 1e-3
    assert reference_pg_invariance_error(bad, H) > 1e-3


# ---- the coset kernel against the per-element contraction ----

def test_coset_kernel_matches_the_per_element_contraction():
    for ctx, catalog in catalog_contexts():
        ids = ctx.group.ids()
        sampled = np.random.default_rng(7).integers(0, ctx.group.order, size=50)
        for H in catalog:
            least = [int(ids.mul(H.ids, g).min()) for g in range(ctx.group.order)]
            reps = sorted(set(least))
            assert H.coset_reps.tolist() == reps
            for i, real in enumerate(ctx.reals):
                k = CosetKernel(real, Conjugates(H, real.dim))
                want = fixed_weights(real.stack(), k.P)
                # constant on right cosets Hg, so the representatives hold all
                assert np.abs(want - want[least]).max() < 1e-13
                assert np.abs(k.weights - want[reps]).max() < 1e-13
                at_sampled = CosetKernel(real, Conjugates(H, real.dim, sampled))
                assert np.abs(at_sampled.weights - want[sampled]).max() < 1e-13
                if k.trace > sampling.ZERO_TRACE_TOL:
                    conds = at_sampled.conditionals()
                    assert np.abs(conds - want[sampled] / k.trace).max() < 1e-13


def test_coset_kernel_basis_spans_the_fixed_space():
    # the basis of the reference Q route, built from every kernel's P
    for ctx, catalog in catalog_contexts():
        for H in catalog:
            for real in ctx.reals:
                k = CosetKernel(real, Conjugates(H, real.dim))
                P = k.P
                Q = fixed_space_basis(P)
                assert Q.shape == (len(P), round(k.trace))
                assert np.all(np.abs(Q @ Q.conj().T - P) < 1e-12)
                assert np.all(np.abs(Q.conj().T @ Q - np.eye(Q.shape[1])) < 1e-12)


def test_a_used_context_is_freed_without_the_cycle_collector():
    # a kernel that pointed back at its context would keep every stack of a
    # finished grid alive until the collector ran, raising peak memory
    ctx = sampling_context(wreath_char_table(sn_character_table(3)))
    for H in subgroup_catalog(ctx.group):
        lemma_checks(ctx, H)
    ref = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_lemma_checks_build_each_bundle_once(monkeypatch):
    built = []
    bundle = sampling.projection_bundle

    def counted(real, H):
        built.append((real.label, H.ids.tobytes()))
        return bundle(real, H)

    monkeypatch.setattr(sampling, "projection_bundle", counted)
    ctx = sampling_context(gl2_char_table(3))
    catalog = subgroup_catalog(ctx.group)
    for H in catalog:
        lemma_checks(ctx, H)
    assert len(built) == len(set(built)) == ctx.table.n_irreps * len(catalog)



def track_kernels(monkeypatch):
    """Weak references to every CosetKernel built from now on."""
    refs = []
    init = CosetKernel.__init__

    def tracked(self, real, conj):
        init(self, real, conj)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(CosetKernel, "__init__", tracked)
    return refs


def test_distinguishability_keeps_no_kernel_and_matches_a_warm_context(monkeypatch):
    # each irrep's kernel is dropped once it is reduced to distortions, in
    # distinguishability and in lemma_checks alike, and a context that
    # lemma_checks has used gives the same bits
    ctx = sampling_context(wreath_char_table(sn_character_table(4)))
    H = next(H for H in subgroup_catalog(ctx.group) if H.label == "K-type")
    kernels = track_kernels(monkeypatch)
    cold = []
    for mc_samples in (None, 60):
        cold.append(distinguishability(ctx, H, mc_samples=mc_samples, seed=3))
        assert cold[-1].value > 0
    # one kernel per irrep of nonzero weak weight and run
    assert len(kernels) == 2 * np.count_nonzero(cold[0].weak >= sampling.ZERO_TRACE_TOL)
    assert all(ref() is None for ref in kernels)
    del kernels[:]
    records = lemma_checks(ctx, H)
    assert len(kernels) == ctx.table.n_irreps
    assert all(ref() is None for ref in kernels)
    # the context keeps only the subgroup-free isotypic norms
    assert vars(ctx).keys() == {"table", "reals", "norms"}
    assert sorted(ctx.norms) == list(range(ctx.table.n_irreps))
    warm = [distinguishability(ctx, H, mc_samples=m, seed=3) for m in (None, 60)]
    for w, c in zip(warm, cold):
        assert (w.value, w.std_error, w.per_irrep) == (c.value, c.std_error, c.per_irrep)
    # the general-method check reads the distortions distinguishability reports
    method = {r.subject: r.lhs for r in records if r.check == "general-method"}
    assert method
    for subject, lhs in method.items():
        assert lhs == cold[0].per_irrep[subject[len("rho="):-len(" S=linear")]]


# ---- the diagonal route against the dense Q route ----

def test_diagonal_weights_match_the_q_route():
    # every catalog subgroup, on the coset representatives and on 50 seeded
    # Monte Carlo ids; the big wreath examines irreps up to dimension 2, as
    # its lemma grid does
    ((spec, big_max_dim),) = LEMMA_SUITES["big-wreath"]
    big = sampling_context(parse_group_table(spec))
    contexts = [(ctx, catalog, None) for ctx, catalog in catalog_contexts()]
    contexts.append((big, subgroup_catalog(big.group), big_max_dim))
    for ctx, catalog, max_dim in contexts:
        sampled = np.random.default_rng(11).integers(0, ctx.group.order, size=50)
        reals = [r for r in ctx.reals if max_dim is None or r.dim <= max_dim]
        for H in catalog:
            shared = [Conjugates(H, max(r.dim for r in reals), ids) for ids in (None, sampled)]
            for real in reals:
                for conj in shared:
                    k = CosetKernel(real, conj)
                    want = q_route_weights(real, k.P, conj.ids)
                    assert k.weights.shape == want.shape
                    assert np.abs(k.weights - want).max() < 1e-12


@pytest.mark.parametrize("rows", [1, 7])
def test_weights_do_not_depend_on_the_chunk(monkeypatch, rows):
    # the distinct conjugate subgroups (15 to 72 per subgroup here) in
    # chunks of 1 or 7, against one chunk
    for table in (wreath_char_table(sn_character_table(4)), gl2_char_table(4)):
        ctx = sampling_context(table)
        D = max(table.dims)
        for H in subgroup_catalog(ctx.group)[1:]:
            one = Conjugates(H, D)
            assert len(one.chunks) == 1
            with monkeypatch.context() as m:
                m.setattr(sampling, "CONJUGATE_CHUNK_CELLS", rows * D * H.order)
                chunked = Conjugates(H, D)
            sizes = [len(index) for _, index in chunked.chunks]
            assert max(sizes) == rows and sum(sizes) == len(one.chunks[0][1]) > 7
            for real in ctx.reals:
                a, b = (CosetKernel(real, conj).weights for conj in (one, chunked))
                assert a.tobytes() == b.tobytes()


def test_weights_off_the_projection_trace_raise():
    # one diagonal entry at the identity, a conjugate in every row, moved
    # by 1e-6: every row's weights miss tr P by 5e-7
    ctx = s3_ctx()
    _, order2, _ = s3_subgroups(ctx)
    real = next(r for r in ctx.reals if r.dim == 2)
    e = ctx.group.ids().identity
    assert CosetKernel(real, Conjugates(order2, real.dim)).weights.shape == (3, 2)

    def bent(ids, diag=real.diag):
        got = diag(ids)
        got[ids == e, 0] += 1e-6
        return got

    real.diag = bent
    with pytest.raises(AssertionError, match="miss the projection trace"):
        CosetKernel(real, Conjugates(order2, real.dim)).weights


def test_order_2_values_land_on_their_exact_rationals():
    # Young's matrices have rational entries, and the diagonal route sums
    # them as the exact values 1/3, 35/96 and 5477/165888 round
    def order2_value(table):
        ctx = sampling_context(table)
        H = next(H for H in subgroup_catalog(ctx.group) if H.label == "order-2")
        return distinguishability(ctx, H).value

    assert order2_value(sn_character_table(3)) == float(Fraction(1, 3))
    for table, exact in (
        (sn_character_table(4), Fraction(35, 96)),
        (wreath_char_table(sn_character_table(4)), Fraction(5477, 165888)),
    ):
        value = order2_value(table)
        assert abs(Fraction(value) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_wreath_dist_forms_wreath_matrices_only_at_conjugates_of_the_subgroup(monkeypatch):
    # per irrep of nonzero weight, wreath_stack runs once for the projection
    # on the |H| elements of H, and wreath_diag once for the diagonals on
    # the distinct ids of the conjugates g^-1 H g, which lie in the classes
    # meeting H; the exhaustive run meets all of them
    rows = []
    for name in ("wreath_stack", "wreath_diag"):
        monkeypatch.setattr(
            wreathrep,
            name,
            lambda *args, f=getattr(wreathrep, name), name=name: rows.append((name, len(args[-1])))
            or f(*args),
        )
    ctx = sampling_context(wreath_char_table(sn_character_table(4)))
    H = next(H for H in subgroup_catalog(ctx.group) if H.label == "K-type")
    meeting = np.asarray(ctx.table.class_sizes)[sorted(set(ctx.table.columns_of(H.ids).tolist()))].sum()
    assert meeting < ctx.group.order
    for mc_samples in (None, 60):
        del rows[:]
        res = distinguishability(ctx, H, mc_samples=mc_samples, seed=3)
        n = np.count_nonzero(res.weak >= sampling.ZERO_TRACE_TOL)
        assert rows[::2] == [("wreath_stack", H.order)] * n and len(rows) == 2 * n
        conjugate_rows = set(rows[1::2])
        assert len(conjugate_rows) == 1
        name, count = conjugate_rows.pop()
        assert name == "wreath_diag" and count <= meeting
        if mc_samples is None:
            assert count == meeting
