"""Release gate: every headline guarantee of the package, checked exactly
at desk scale with pinned tolerances and wall-clock budgets.
"""

from __future__ import annotations

import ast
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from cosetlab import fields, goppa, hsp, mceliece, sampling, suites, symrep
from cosetlab.cli import parse_group_table
from cosetlab.fields import field_of_order
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.groups import subgroup_closure, trivial_subgroup
from cosetlab.realize import realize_table
from cosetlab.symrep import sn_character_table
from cosetlab.wreathrep import k_build, k_max_normalized_char, wreath_char_table
from reference_models import check_traces, cycle_type, fix_size_formula, linear_multiplicities

GL2_ORDERS = (2, 3, 4, 5, 7)


def test_gl2_tables_complete_and_orthogonal():
    start = time.monotonic()
    for q in GL2_ORDERS:
        table = gl2_char_table(q)
        assert table.n_irreps == q * q - 1
        assert sum(d * d for d in table.dims) == (q - 1) ** 2 * q * (q + 1)
        assert table.orthogonality_error() < 1e-9
    assert time.monotonic() - start < 10.0


def test_linear_twist_multiplicity_at_most_two():
    start = time.monotonic()
    for q in GL2_ORDERS:
        table = gl2_char_table(q)
        for i in range(table.n_irreps):
            m = linear_multiplicities(table, i)
            assert isinstance(m, int)
            assert 1 <= m <= 2
    assert time.monotonic() - start < 10.0


def test_fix_formula_matches_brute_stabilizer():
    start = time.monotonic()
    F2 = field_of_order(2)
    for n in (1, 2, 3):
        for bits in range(2 ** (2 * n)):
            M = tuple(
                tuple((bits >> (row * n + col)) & 1 for col in range(n))
                for row in range(2)
            )
            r = fields.mat_rank(F2, M)
            assert len(fields.fix_group_elements(F2, M)) == fix_size_formula(2, r, 2)
    F3 = field_of_order(3)
    rng = random.Random(20240901)
    for _ in range(200):
        n = rng.randint(1, 3)
        M = tuple(tuple(rng.randrange(3) for _ in range(n)) for _ in range(2))
        r = fields.mat_rank(F3, M)
        assert len(fields.fix_group_elements(F3, M)) == fix_size_formula(2, r, 3)
    assert time.monotonic() - start < 30.0


def test_goppa_instance_guarantees():
    start = time.monotonic()
    specs = [
        goppa.RationalGoppaSpec(q=5, gamma=(0, 1, 2, 3), r=1, g=(1,), h=(1,)),
        goppa.RationalGoppaSpec(q=7, gamma=(1, 2, 3, 4, 5), r=2, g=(0, 1), h=(1,)),
    ]
    rng = random.Random(7)
    for q in (4, 5, 7):
        for _ in range(8):
            n = rng.randint(4, min(6, q))
            r = rng.randint(0, n - 1)
            specs.append(goppa.random_spec(rng, q, n, r))
    assert len(specs) >= 20
    for spec in specs:
        spec.validate()
        n, r = len(spec.gamma), spec.r
        assert spec.q <= 7 and n <= 6
        code = goppa.build_goppa(spec)
        assert code.k == r + 1
        assert fields.mat_rank(code.field, code.generator) == code.k
        assert code.min_distance() >= n - r
        report = goppa.automorphisms(code)
        if 1 <= r <= n - 3:
            assert report.minimal_degree is None or report.minimal_degree >= n - 3
            assert goppa.stichtenoth_check(spec, report) is True
    assert time.monotonic() - start < 120.0


def test_key_recovery_attack_end_to_end():
    start = time.monotonic()
    F = field_of_order(2)
    for seed in range(20):
        inst = mceliece.random_instance(F, 2, 3, seed=seed)
        res = hsp.attack(inst)
        assert res.right_injective is True
        assert res.k_formula_match is True
        assert res.size_match is True
        assert res.K.order == 2 * res.H0.order**2
        assert mceliece.public_matrix(F, res.recovered_A, inst.M, res.recovered_P) == inst.Mstar
        assert res.valid is True
    assert time.monotonic() - start < 300.0


def test_sampling_identity_grid():
    start = time.monotonic()
    records = (
        suites.run_lemma_suite("small")
        + suites.run_lemma_suite("gl2")
        + suites.run_lemma_suite("wreath")
    )
    assert suites.failed(records) == []
    kinds = {r.check for r in records}
    assert {
        "schur-expectation",
        "second-moment",
        "variance-bound",
        "large-small",
        "general-method",
        "conjugation-invariance",
        "weak-sum",
        "basis-average",
    } <= kinds
    groups_seen = {r.group for r in records}
    assert len(groups_seen) == 5
    labels = {r.subgroup for r in records}
    assert {"trivial", "order-2", "three-cycle", "unipotent", "K-type"} <= labels
    assert time.monotonic() - start < 600.0


def test_distinguishability_goldens_and_bounds():
    start = time.monotonic()
    ctx = sampling.sampling_context(sn_character_table(3))
    G = ctx.group
    assert sampling.distinguishability(ctx, trivial_subgroup(G)).value == 0.0
    alt = subgroup_closure(G, [G.make((1, 2, 0))], label="three-cycle")
    assert abs(sampling.distinguishability(ctx, alt).value) < 1e-10
    swap = subgroup_closure(G, [G.make((1, 0, 2))], label="order-2")
    assert abs(sampling.distinguishability(ctx, swap).value - 1.0 / 3.0) < 1e-10

    for spec in ("s3", "s4", "gl2_2", "gl2_3", "wreath_s3"):
        gctx = sampling.sampling_context(parse_group_table(spec))
        for H in suites.subgroup_catalog(gctx.group):
            value = sampling.distinguishability(gctx, H).value
            assert -1e-12 < value <= sampling.DIST_CEILING + 1e-12

    for q in (3, 4, 5):
        table = gl2_char_table(q)
        gctx = sampling.sampling_context(table)
        GL = gctx.group
        uni = subgroup_closure(GL, [GL.make(((1, 1), (0, 1)))], label="unipotent")
        lin = [i for i in range(table.n_irreps) if table.dims[i] == 1]
        bound = sampling.distinguishability_bound(table, uni, lin, q - 1)
        value = sampling.distinguishability(gctx, uni).value
        assert value <= min(sampling.DIST_CEILING, bound.value) + 1e-7

    records = suites.run_dist_suite()
    assert suites.failed(records) == []
    assert {r.check for r in records} == {"dist-range", "dist-golden", "dist-bound"}
    assert time.monotonic() - start < 600.0


def test_symmetric_group_stack():
    start = time.monotonic()
    for n in range(1, 11):
        assert sum(symrep.dimension(la) ** 2 for la in symrep.partitions(n)) == math.factorial(n)
    from cosetlab.groups import symmetric_group

    for n in (2, 3, 4, 5, 6):
        G = symmetric_group(n)
        for la in symrep.partitions(n):
            rep = symrep.YorRep(la)
            for el in G.elements():
                mu = cycle_type(el)
                assert abs(np.trace(rep.mat(el)) - symrep.mn_character(la, mu)) < 1e-8
    for n in (6, 8, 12):
        audit = symrep.lambda_c_audit(n, Fraction(1, 6))
        assert audit.cn_ceil == math.ceil(Fraction(n, 6))
        assert audit.size_ok and audit.dim_ok
    assert time.monotonic() - start < 60.0


def test_wreath_character_stack():
    start = time.monotonic()
    base = sn_character_table(3)
    table = wreath_char_table(base)
    assert table.n_irreps == 9
    assert sum(d * d for d in table.dims) == 72
    reals = realize_table(table)
    assert check_traces(table, reals) < 1e-8

    G0 = base.group
    subgroups = [trivial_subgroup(G0)]
    seen = {frozenset(subgroups[0].value_set)}
    for el in G0.elements():
        for el2 in G0.elements():
            H = subgroup_closure(G0, [el, el2])
            key = frozenset(H.value_set)
            if key not in seen:
                seen.add(key)
                subgroups.append(H)
    assert len(subgroups) == 6
    for H0 in subgroups:
        for s in G0.elements():
            K = k_build(H0, s)
            assert K.order == 2 * H0.order**2
            for idx in range(table.n_irreps):
                rep = k_max_normalized_char(table, idx, K, H0)
                assert rep.within_bound
                assert rep.direct <= rep.formula + 1e-8
                if rep.kind in ("plus", "minus"):
                    assert rep.equality_holds
    assert time.monotonic() - start < 60.0


def test_no_runtime_asserts_in_src():
    # python -O strips assert statements, so runtime checks raise instead.
    # The character and sampling layers read the group through id arrays
    # only, and no module keeps tuple arithmetic, per-element class keys, an
    # element wrapper, a cache of coset kernels, or the sampling layer's old
    # report and projection records.
    src = Path(symrep.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found
    enumerating = [
        f"{name}:{node.lineno}"
        for name in ("chartab.py", "sampling.py")
        for node in ast.walk(trees[name])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("elements", "iter_values")
    ]
    assert not enumerating
    retired = {
        "mul_values", "inv_value", "class_key_of", "GroupElement",
        "_kernel", "_cache", "sampling_report", "SamplingReport", "ProjectionBundle",
        "irrep_distortion", "CyclicCharacter", "require_samplable", "KERNEL_CHUNK_CELLS",
        "as_json", "KSubgroup", "TableIds", "TABLE_CAP", "SN_TABLE_CAP", "TABLE_CHUNK_CELLS",
        "grid_tables", "big_wreath_table",
    }
    defined = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in retired)
        or (isinstance(node, ast.Attribute) and node.attr in retired)
        or (isinstance(node, ast.Name) and node.id in retired)
        or (isinstance(node, ast.alias) and node.name in retired)
    ]
    assert not defined
    # no eigensolver or SVD, whose output depends on the LAPACK build and
    # BLAS thread count, and no scipy, which would slow every import
    spectral = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and (node.attr.startswith("eig") or node.attr == "svd"))
        or (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert not spectral


SRC_LINE_BUDGET = 4500


def test_src_stays_within_its_line_budget():
    # a feature that would pass the budget names the deletions that pay for it
    src = Path(symrep.__file__).resolve().parent
    lines = sum(len(path.read_text().splitlines()) for path in src.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/cosetlab/*.py holds {lines} lines"
