from __future__ import annotations

import functools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab.chartab import (
    CharacterTable,
    GL2Family,
    ProductFamily,
    SymmetricFamily,
    WreathFamily,
    product_table,
)
from cosetlab import realize
from cosetlab.cli import parse_group_table
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.groups import general_linear_group, product_group
from cosetlab.realize import RealizedIrrep, kron_stack, realize_table
from cosetlab.suites import LEMMA_SUITES
from cosetlab.symrep import YorRep, sn_character_table
from reference_models import inv_value, mul_values, product_mat, wreath_mat

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_regular_structure(G):
    """The Python Cayley loop that GL2 realization used before id views,
    kept as the reference for G.ids()."""
    els = list(G.iter_values())
    index = {el: i for i, el in enumerate(els)}
    inv_index = np.array([index[inv_value(G, el)] for el in els])
    cay = np.empty((len(els), len(els)), dtype=np.int32)
    for i, g in enumerate(els):
        for x, h in enumerate(els):
            cay[i, x] = index[mul_values(G, g, h)]
    return els, index, inv_index, cay


def test_regular_structure_matches_python_cayley_loop():
    G = general_linear_group(2, 3)
    ids = G.ids()
    want_els, want_index, want_inv, want_cay = reference_regular_structure(G)
    assert ids.values == want_els
    assert ids.index == want_index
    every = np.arange(G.order)
    assert ids.inverse.dtype == want_inv.dtype and np.array_equal(ids.inverse, want_inv)
    assert np.array_equal(ids.mul(every[:, None], every[None, :]), want_cay)


def mat_value_stack(real):
    """The per-element loop the lemma checks ran before stacks, kept as
    the reference."""
    return np.stack([real.mat_value(el) for el in real.group.elements()])


# the groups of every lemma suite but big-wreath, which reads only the
# irreps of dimension at most 2
GRID_SPECS = [spec for name in ("small", "gl2", "wreath") for spec, _ in LEMMA_SUITES[name]]
BIG_WREATH = "wreath_gl2_2xs3"


@pytest.mark.parametrize("name", GRID_SPECS + ["gl2_5"])
def test_stack_equals_mat_value_loop(name):
    table = parse_group_table(name)
    for real in realize_table(table):
        got = real.stack()
        assert got.shape == (table.group.order, real.dim, real.dim)
        assert np.array_equal(got, mat_value_stack(real))
        assert real.stack() is got and not got.flags.writeable


def reference_stacks(table, max_dim=None):
    """(label, per-element np.kron model in id order) for every irrep of a
    wreath or product table, optionally only those of dimension <= max_dim."""
    fam = table.family
    els = table.group.elements()
    if isinstance(fam, ProductFamily):
        reals1, reals2 = (realize_table(t) for t in fam.factors)
        models = [(a, b) for a in reals1 for b in reals2]
        mat = lambda ab, v: product_mat(ab[0], ab[1], v)
    else:
        # each base matrix is built once per value and read by np.kron at
        # every wreath element that holds the value
        base = [functools.lru_cache(maxsize=None)(r.mat_value) for r in realize_table(fam.base)]
        models = [(m.kind, base[m.i], base[m.j]) for m in fam.metas]
        mat = lambda model, v: wreath_mat(*model, v)
    for i, model in enumerate(models):
        if max_dim is None or table.dims[i] <= max_dim:
            yield table.labels[i], np.stack([mat(model, v) for v in els])


@pytest.mark.parametrize("spec", ["wreath_s3", "gl2_2xs3"])
def test_composed_irreps_equal_the_per_element_kron_model(spec):
    table = parse_group_table(spec)
    reals = {r.label: r for r in realize_table(table)}
    for label, want in reference_stacks(table):
        real = reals[label]
        assert np.array_equal(mat_value_stack(real), want)
        assert np.array_equal(real.stack(), want)


def test_big_wreath_stacks_equal_mat_value_loop():
    # |W| = 2592; the lemma grid reads the irreps of dimension at most 2
    table = parse_group_table(BIG_WREATH)
    reals = {r.label: r for r in realize_table(table) if r.dim <= 2}
    assert {label.split("{")[0] for label in reals} == {"pair", "plus", "minus"}
    for label, want in reference_stacks(table, max_dim=2):
        real = reals.pop(label)
        assert np.array_equal(real.stack(), mat_value_stack(real))
        assert np.array_equal(real.stack(), want)
    assert not reals


AT_SPECS = {spec: spec for spec in GRID_SPECS + ["s5", "s6", "gl2_2xs3"]}
AT_SPECS["big_wreath"] = BIG_WREATH


@functools.lru_cache(maxsize=None)
def lazy_and_built(name):
    """|G| and two realizations of one table's irreps of dimension at most
    5 (all the irreps of S5 and six of S6): one whose stacks are never
    built, one whose stacks are."""
    table = parse_group_table(AT_SPECS[name])
    lazy, built = ([r for r in realize_table(table) if r.dim <= 5] for _ in range(2))
    for real in built:
        real.stack()
    return table.group.order, lazy, built


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_at_equals_stack_rows(data):
    # unsorted, repeated and empty id arrays, gathered before and after the
    # stack is built
    name = data.draw(st.sampled_from(sorted(AT_SPECS)))
    order, lazy, built = lazy_and_built(name)
    ids = data.draw(st.lists(st.integers(0, order - 1), max_size=12))
    for before, after in zip(lazy, built):
        want = after.stack()[np.array(ids, dtype=np.int64)]
        assert np.array_equal(before.at(ids), want)
        assert np.array_equal(after.at(ids), want)
        assert before._stack is None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_diag_is_the_diagonal_of_at(data):
    # the diagonal gather equals the diagonal of the matrices bit for bit,
    # read off the stack or gathered on the distinct ids
    name = data.draw(st.sampled_from(sorted(AT_SPECS)))
    order, lazy, built = lazy_and_built(name)
    ids = data.draw(st.lists(st.integers(0, order - 1), max_size=12))
    for before, after in zip(lazy, built):
        want = np.einsum("nii->ni", after.at(ids))
        assert np.array_equal(before.diag(ids), want)
        assert np.array_equal(after.diag(ids), want)
        assert before._stack is None


def test_diag_holds_one_gather_at_a_time(monkeypatch):
    # the diagonals over all 720 ids of S6's 16-dimensional irrep are
    # copied out of each gather of GATHER_CELLS entries, so the gathers'
    # matrices (2.9 MB in all) are never held at once
    monkeypatch.setattr(realize, "GATHER_CELLS", 1 << 12)
    real = next(r for r in realize_table(sn_character_table(6)) if r.dim == 16)
    ids = np.arange(720)
    want = np.einsum("nii->ni", real.at(ids))
    tracemalloc.start()
    try:
        got = real.diag(ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < 720 * 16 * 16 * 16 / 4


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name", ["big_wreath", "wreath_s3"])
def test_wreath_diagonals_equal_the_gathered_diagonals(name):
    # every id in id order (so b = 0 and b = 1 of a wreath), then seeded
    # Monte Carlo ids with repeats, read through the diagonal source and
    # through the diagonal of the gathered matrices
    table = parse_group_table(AT_SPECS[name])
    assert isinstance(table.family, WreathFamily)
    order = table.group.order
    mc = np.random.default_rng(0).integers(0, order, size=600)
    assert len(np.unique(mc)) < len(mc)
    for real in realize_table(table):
        assert real._diagonals is not None
        step = max(1, realize.GATHER_CELLS // real.dim**2)
        for ids in (np.arange(order), mc):
            got = real.diag(ids)
            assert real._stack is None
            for lo in range(0, len(ids), step):
                want = np.einsum("nii->ni", real.at(ids[lo : lo + step]))
                assert bits(real._diagonals(ids[lo : lo + step])) == bits(want)
                assert bits(got[lo : lo + step]) == bits(want)


def test_s7_at_equals_yor_loop_without_a_cayley_table():
    table = sn_character_table(7)
    ids = table.group.ids()
    g = np.array([5039, 0, 17, 17, 2500, 4000])
    for real, la in zip(realize_table(table), table.family.partitions):
        rep = YorRep(la)
        want = np.stack([rep.mat(ids.value_of(i)) for i in g])
        assert np.array_equal(real.at(g), want)
    assert not hasattr(ids, "table")


def test_big_wreath_stacks_run_each_base_gather_once(monkeypatch):
    # every gather below the wreath (base product irreps and their GL2(F2)
    # and S3 factors) runs once, on all of its group, however many wreath
    # ids ask for it
    calls = Counter()
    init = RealizedIrrep.__init__

    def counting_init(self, group, label, dim, matfun):
        def gather(g):
            calls[str(group), label] += 1
            return matfun(g)

        init(self, group, label, dim, gather)

    monkeypatch.setattr(RealizedIrrep, "__init__", counting_init)
    table = parse_group_table(BIG_WREATH)
    for real in realize_table(table):
        real.stack()
    base = table.family.base
    assert all(calls[str(base.group), label] == 1 for label in base.labels)
    factor_irreps = sum(t.n_irreps for t in base.family.factors)
    assert len(calls) == table.n_irreps + base.n_irreps + factor_irreps
    assert set(calls.values()) == {1}


def test_few_product_ids_leave_the_factor_stacks_unbuilt(monkeypatch):
    # a Monte Carlo request smaller than both factor groups reads the
    # factors through at(), as dist --mc-samples does on gl2_7xs2
    built = []
    stack = RealizedIrrep.stack
    monkeypatch.setattr(RealizedIrrep, "stack", lambda self: built.append(self.label) or stack(self))
    t1, t2 = gl2_char_table(3), sn_character_table(4)
    table = product_table(product_group(t1.group, t2.group), t1, t2)
    g = np.random.default_rng(0).integers(0, table.group.order, size=20)
    reals = realize_table(table)
    got = [real.at(g) for real in reals]
    assert built == []
    for real, mats in zip(reals, got):
        assert np.array_equal(mats, real.stack()[g])


def test_kron_stack_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    B = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    # every pair (i, j), as product ids i*4 + j
    i, j = np.divmod(np.arange(12), 4)
    got = kron_stack(A[i], B[j])
    assert got.shape == (12, 6, 6)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(got[i * 4 + j], np.kron(A[i], B[j]))


# ---- GL2 realizations, certified on every element ----

GL2_QS = (2, 3, 4, 5, 7, 8)
CERT_TOL = 1e-12


def gl2_generators(G):
    """Ids of [[1, 1], [0, 1]], diag(generator, 1) and the swap."""
    F = G.field
    gens = (((1, 1), (0, 1)), ((F.generator, 0), (0, 1)), ((0, 1), (1, 0)))
    return [G.ids().id_of(v) for v in gens]


def generates(ids, gens) -> bool:
    seen = np.zeros(ids.order, dtype=bool)
    seen[ids.identity] = True
    frontier = np.array([ids.identity])
    while frontier.size:
        reached = ids.mul(np.array(gens)[:, None], frontier[None, :]).ravel()
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return bool(seen.all())


@pytest.mark.parametrize("q", GL2_QS)
def test_gl2_realization_is_a_unitary_homomorphism_with_table_traces(q):
    table = gl2_char_table(q)
    G = table.group
    ids = G.ids()
    gens = gl2_generators(G)
    every = np.arange(G.order)
    assert generates(ids, gens)
    ev = table.element_values()
    reals = realize_table(table)
    assert [r.dim for r in reals] == table.dims
    while reals:
        # drop each stack once it is checked (|GL2(F8)| = 3528)
        real = reals.pop()
        i = table.index_of(real.label)
        S = real.stack()
        eye = np.eye(real.dim)
        assert np.abs(S @ S.conj().transpose(0, 2, 1) - eye).max() < CERT_TOL
        for s in gens:
            # rho(s) rho(g) = rho(sg) for every g
            assert np.abs(S[s] @ S - S[ids.mul(s, every)]).max() < CERT_TOL
        assert np.abs(np.trace(S, axis1=1, axis2=2) - ev[i]).max() < CERT_TOL


STACK_DIGESTS = """
import hashlib
from cosetlab.gl2rep import char_table
from cosetlab.realize import realize_table
for real in realize_table(char_table(5)):
    print(real.label, hashlib.sha256(real.stack().tobytes()).hexdigest())
"""


def test_gl2_stacks_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", STACK_DIGESTS],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 24
    assert outputs[0] == outputs[1]


def test_every_builder_sets_a_family():
    wreath = parse_group_table(BIG_WREATH)
    assert isinstance(wreath.family, WreathFamily)
    assert isinstance(wreath.family.base.family, ProductFamily)
    gl2, sym = wreath.family.base.family.factors
    assert isinstance(gl2.family, GL2Family)
    assert isinstance(sym.family, SymmetricFamily)
    assert sym.family.partitions == ((3,), (2, 1), (1, 1, 1))


def test_realize_refuses_a_table_of_no_known_family():
    t = sn_character_table(3)
    bare = CharacterTable(
        t.group, t.labels, t.dims, t.class_keys, t.class_sizes,
        t.class_reps, t.values, t.columns_of,
    )
    with pytest.raises(ValueError, match="no realization"):
        realize_table(bare)
