from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

from cosetlab import cli, sampling
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.groups import general_linear_group, symmetric_group, wreath_z2
from cosetlab.sampling import sampling_context
from cosetlab.suites import (
    LEMMA_SUITES,
    dist_checks,
    dist_records,
    failed,
    lambda_set_indices,
    lemma_checks,
    run_lemma_suite,
    subgroup_catalog,
)
from cosetlab.symrep import lambda_c_member, partitions, sn_character_table
from cosetlab.wreathrep import wreath_char_table


def test_grid_names():
    # "all" runs the rows in this order; big-wreath reads only the irreps
    # of dimension at most 2
    assert list(LEMMA_SUITES.items()) == [
        ("small", [("s3", None), ("s4", None)]),
        ("gl2", [("gl2_2", None), ("gl2_3", None)]),
        ("wreath", [("wreath_s3", None)]),
        ("big-wreath", [("wreath_gl2_2xs3", 2)]),
    ]


def test_subgroup_catalog_labels():
    labels = {H.label for H in subgroup_catalog(symmetric_group(4))}
    assert {"trivial", "order-2", "three-cycle"} <= labels
    labels = {H.label for H in subgroup_catalog(general_linear_group(2, 3))}
    assert {"trivial", "unipotent", "split-torus"} <= labels
    labels = {H.label for H in subgroup_catalog(general_linear_group(2, 2))}
    assert {"trivial", "unipotent", "order-3"} <= labels
    wr = wreath_z2(symmetric_group(3))
    wlabels = {H.label for H in subgroup_catalog(wr)}
    assert "trivial" in wlabels and any("K-type" in l for l in wlabels)
    for H in subgroup_catalog(wr):
        assert wr.order % H.order == 0


def test_lemma_checks_cover_expected_kinds():
    ctx = sampling_context(sn_character_table(3))
    H = next(H for H in subgroup_catalog(ctx.group) if H.label == "order-2")
    records = lemma_checks(ctx, H)
    assert not failed(records)
    kinds = {r.check for r in records}
    assert {
        "weak-sum",
        "conjugation-invariance",
        "schur-expectation",
        "second-moment",
        "variance-bound",
        "large-small",
        "basis-average",
        "general-method",
    } <= kinds
    for r in records:
        body = json.loads(cli._json(r))
        assert set(body) >= {"group", "subgroup", "check", "lhs", "rhs", "ok"}


def test_a_weak_sum_off_by_a_millionth_fails_its_record_and_stops_dist(monkeypatch):
    # the sum is a verdict of each caller, not a raise inside
    # weak_distribution, so the lemma grid reports it as a failed record.
    # The probabilities are bent, not the characters: moving a character
    # value by the 6e-6 this takes on S3 trips the 1e-6 integrality check
    # of the tensor multiplicities first
    ctx = sampling_context(sn_character_table(3))
    H = next(H for H in subgroup_catalog(ctx.group) if H.label == "order-2")
    weak = sampling.weak_distribution

    def bent(table, H):
        probs = weak(table, H)
        probs[0] += 1e-6
        return probs

    monkeypatch.setattr(sampling, "weak_distribution", bent)
    (record,) = [r for r in lemma_checks(ctx, H) if r.check == "weak-sum"]
    assert not record.ok
    assert abs(record.lhs - (1.0 + 1e-6)) < 1e-12
    with pytest.raises(AssertionError, match="weak distribution sums to"):
        sampling.distinguishability(ctx, H)


@pytest.mark.parametrize("max_dim", [None, 2])
def test_lemma_checks_run_each_batched_check_once_per_irrep(monkeypatch, max_dim):
    calls = Counter()
    ctx = sampling_context(wreath_char_table(sn_character_table(3)))
    # the irrep each check ran on; a kernel passed with an index must be its own
    irrep_of = {
        "schur_expectation_check": lambda k: ctx.reals.index(k.real),
        "variance_bound_check": lambda c, k, i: i if k.real is ctx.reals[i] else None,
        "second_moment_check": lambda c, h_ids, i: i,
    }
    for name, irrep in irrep_of.items():
        check = getattr(sampling, name)

        def counted(*args, name=name, check=check, irrep=irrep):
            calls[name, irrep(*args)] += 1
            return check(*args)

        monkeypatch.setattr(sampling, name, counted)
    examined = [i for i, d in enumerate(ctx.table.dims) if max_dim is None or d <= max_dim]
    for H in subgroup_catalog(ctx.group):
        calls.clear()
        lemma_checks(ctx, H, max_dim=max_dim)
        assert {i for _, i in calls} == set(examined)
        assert max(calls.values()) == 1


def test_run_lemma_suite_small_green(monkeypatch):
    # each table comes from the CLI's group-spec parser
    specs = []
    parse = cli.parse_group_table
    monkeypatch.setattr(cli, "parse_group_table", lambda spec: specs.append(spec) or parse(spec))
    records = run_lemma_suite("small")
    assert specs == ["s3", "s4"]
    assert len(records) > 100
    assert not failed(records)


def test_run_lemma_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_lemma_suite("huge")


def test_dist_checks_golden_and_bound():
    ctx = sampling_context(sn_character_table(3))
    H = next(H for H in subgroup_catalog(ctx.group) if H.label == "order-2")
    records = dist_checks(ctx, H, golden=1.0 / 3.0)
    assert {r.check for r in records} == {"dist-range", "dist-golden"}
    assert not failed(records)
    bad = dist_checks(ctx, H, golden=0.5)
    assert any(r.check == "dist-golden" and not r.ok for r in bad)


def test_dist_records_edges_and_order():
    G = symmetric_group(3)
    H = subgroup_catalog(G)[1]
    ceiling = sampling.DIST_CEILING

    def verdict(value, **kw):
        return [(r.check, r.ok) for r in dist_records("S3", H, value, **kw)]

    # the range is open below and closed above, each widened by 1e-12
    assert verdict(-0.5e-12) == verdict(ceiling + 1e-12) == [("dist-range", True)]
    assert verdict(-1e-12) == verdict(ceiling + 2e-12) == [("dist-range", False)]
    bound = sampling.BoundComponents(("U0",), 2, 1, 0.0, 0, 0, 1, 1.0)
    assert verdict(1.0 + 1e-7, bound=bound)[1] == ("dist-bound", True)
    assert verdict(1.0 + 2e-7, bound=bound)[1] == ("dist-bound", False)
    # range, golden, bound: the CLI names the first failing one
    records = dist_records("S3", H, 4.5, bound=bound, golden=0.0)
    assert [(r.check, r.ok) for r in records] == [
        ("dist-range", False), ("dist-golden", False), ("dist-bound", False),
    ]
    assert [(r.group, r.subgroup, r.subject) for r in records] == [
        ("S3", H.label, ""), ("S3", H.label, ""), ("S3", H.label, "S=U0 D=2"),
    ]
    assert [r.rhs for r in records] == [ceiling, 0.0, 1.0]


def test_lambda_set_indices_match_membership():
    table = sn_character_table(6)
    idx = set(lambda_set_indices(table, Fraction(1, 6)))
    for i, la in enumerate(table.family.partitions):
        assert (i in idx) == lambda_c_member(la, 6, Fraction(1, 6))
    assert len(idx) == 4
    assert len(idx) < len(partitions(6))


def test_lambda_set_indices_refuses_other_families():
    with pytest.raises(ValueError, match="symmetric-group"):
        lambda_set_indices(gl2_char_table(3), Fraction(1, 6))
