from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction

import pytest

from cosetlab import cli, sampling, symrep
from cosetlab.groups import general_linear_group, symmetric_group, wreath_z2
from cosetlab.sampling import sampling_context
from cosetlab.suites import (
    DIST_SUITE,
    LEMMA_SUITES,
    dist_records,
    failed,
    irrep_indices,
    lemma_checks,
    run_dist,
    run_dist_suite,
    run_suite,
    subgroup_catalog,
)
from cosetlab.symrep import sn_character_table
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
    records = run_suite("small")
    assert specs == ["s3", "s4"]
    assert len(records) > 100
    assert not failed(records)


def test_run_lemma_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("huge")


def test_run_dist_golden_and_bound():
    ctx = sampling_context(sn_character_table(3))
    H = next(H for H in subgroup_catalog(ctx.group) if H.label == "order-2")
    res, bound, records = run_dist(ctx, H, golden=1.0 / 3.0)
    assert bound is None
    assert [r.check for r in records] == ["dist-range", "dist-golden"]
    assert not failed(records) and records[0].lhs == res.value
    res, bound, bad = run_dist(ctx, H, S_indices=[0], D=2, golden=0.5)
    assert [(r.check, r.ok) for r in bad] == [
        ("dist-range", True), ("dist-golden", False), ("dist-bound", True),
    ]
    assert bad[2].rhs == bound.value


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


def test_dist_suite_rows_follow_their_rules():
    assert list(DIST_SUITE) == ["s3", "gl2_3", "gl2_4", "gl2_5", "s6"]
    # S6 against the long-row set at c = 1/6, with D = d_S^2 + 1
    audit = symrep.lambda_c_audit(6, Fraction(1, 6))
    ((_, S, D, _),) = DIST_SUITE["s6"]
    table = sn_character_table(6)
    assert [table.labels[i] for i in irrep_indices(table, S)] == [str(la) for la in audit.members]
    assert D == max(symrep.dimension(la) for la in audit.members) ** 2 + 1
    # GL2 over q takes S = linear and D = q - 1
    for q in (3, 4, 5):
        assert DIST_SUITE[f"gl2_{q}"] == [("unipotent", "linear", q - 1, None)]
    assert [(row[0], row[3]) for row in DIST_SUITE["s3"]] == [
        ("trivial", 0.0), ("order-2", 1.0 / 3.0), ("three-cycle", 0.0),
    ]


@pytest.fixture(scope="module")
def suite_records():
    return run_dist_suite()


@pytest.mark.parametrize(
    "spec, row",
    [(spec, row) for spec, rows in DIST_SUITE.items() for row in rows],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_each_dist_suite_row_is_a_dist_run(suite_records, spec, row):
    # the row's flags, given to `cosetlab dist`, report what the suite records
    label, S, D, golden = row
    argv = ["dist", "--group", spec, "--subgroup", label]
    if S is not None:
        argv += ["--S", S, "--D", str(D)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    report = json.loads(out.getvalue())["report"]
    mine = {
        r.check: r for r in suite_records
        if (r.group, r.subgroup) == (report["group"], report["subgroup"])
    }
    assert mine["dist-range"].lhs == report["distinguishability"]
    assert ("dist-golden" in mine) == (golden is not None)
    assert ("dist-bound" in mine) == ("bound" in report) == (S is not None)
    if S is not None:
        assert mine["dist-bound"].rhs == report["bound"]["value"]
