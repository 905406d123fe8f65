from __future__ import annotations

import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab import fields, groups
from cosetlab.chartab import product_table
from cosetlab.cli import parse_group_table, parse_subgroup
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.groups import (
    DirectProduct,
    GeneralLinearGroup,
    Subgroup,
    SymmetricGroup,
    WreathZ2,
    element_from_json,
    general_linear_group,
    product_group,
    subgroup_closure,
    symmetric_group,
    trivial_subgroup,
    wreath_z2,
)
from cosetlab.realize import realize_table
from cosetlab.suites import subgroup_catalog
from cosetlab.symrep import sn_character_table
from cosetlab.wreathrep import k_build, wreath_char_table

from reference_models import (
    conj,
    cycle_type,
    inv_value,
    mul_values,
    reference_closure_values,
    reference_subgroup_values,
)


def sample_groups():
    s3 = symmetric_group(3)
    gl2 = general_linear_group(2, 2)
    return [
        s3,
        symmetric_group(4),
        gl2,
        general_linear_group(2, 3),
        product_group(gl2, s3),
        wreath_z2(s3),
    ]


def test_group_orders():
    s3, s4, gl2_2, gl2_3, prod, wr = sample_groups()
    assert s3.order == 6
    assert s4.order == 24
    assert gl2_2.order == 6
    assert gl2_3.order == 48
    assert prod.order == 36
    assert wr.order == 72
    for G in sample_groups():
        assert len(G.elements()) == G.order


def test_group_cache_builds_a_group_only_on_a_miss(monkeypatch):
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    built = []
    for cls in (SymmetricGroup, GeneralLinearGroup, DirectProduct, WreathZ2):
        def counting(self, *args, init=cls.__init__, cls=cls):
            built.append(cls)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)

    def every():
        s3 = symmetric_group(3)
        return [s3, general_linear_group(2, 3), product_group(s3, s3), wreath_z2(s3)]

    first = every()
    assert built == [SymmetricGroup, GeneralLinearGroup, DirectProduct, WreathZ2]
    built.clear()
    assert all(a is b for a, b in zip(every(), first))
    assert built == []


def test_group_axioms_sampled():
    rng = random.Random(0)
    for G in sample_groups():
        e = G.make(G.identity_value())
        els = G.elements()
        for el in els:
            assert mul_values(G, el, e) == el
            assert mul_values(G, e, el) == el
            assert mul_values(G, el, inv_value(G, el)) == e
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert mul_values(G, mul_values(G, a, b), c) == mul_values(G, a, mul_values(G, b, c))


def test_symmetric_composition_is_left_then_right():
    # (pi * sigma)(i) = sigma(pi(i))
    G = symmetric_group(4)
    pi = G.make((1, 0, 3, 2))
    sigma = G.make((2, 3, 0, 1))
    prod = mul_values(G, pi, sigma)
    for i in range(4):
        assert prod[i] == sigma[pi[i]]


def test_cycle_type_and_support():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)


def test_conjugation():
    # the value-level g^-1 x g against the same product formed on ids
    for G in (symmetric_group(4), general_linear_group(2, 3)):
        rng = random.Random(1)
        ids = G.ids()
        for _ in range(40):
            g, x = rng.randrange(G.order), rng.randrange(G.order)
            want = ids.value_of(ids.mul(ids.mul(ids.inv(g), x), g))
            assert conj(G, ids.value_of(g), ids.value_of(x)) == want


def test_wreath_multiplication_swaps_components():
    G = symmetric_group(3)
    W = wreath_z2(G)
    rng = random.Random(2)
    els = G.elements()
    for _ in range(40):
        a1, a2, b1, b2 = (rng.choice(els) for _ in range(4))
        # bit 0 on the left factor: components multiply in place
        w = mul_values(W, W.make((a1, a2, 0)), W.make((b1, b2, 0)))
        assert w == (mul_values(G, a1, b1), mul_values(G, a2, b2), 0)
        # bit 1 on the left factor: the right pair is swapped first
        w = mul_values(W, W.make((a1, a2, 1)), W.make((b1, b2, 0)))
        assert w[2] == 1
        w = mul_values(W, W.make((a1, a2, 1)), W.make((b1, b2, 1)))
        assert w[2] == 0


def test_wreath_swap_generator_order_two():
    W = wreath_z2(symmetric_group(3))
    e3 = (0, 1, 2)
    swap = W.make((e3, e3, 1))
    assert mul_values(W, swap, swap) == W.make(W.identity_value())
    assert inv_value(W, swap) == swap


def test_subgroup_closure_alternating():
    G = symmetric_group(3)
    A = subgroup_closure(G, [G.make((1, 2, 0))], label="three-cycle")
    assert A.order == 3
    assert G.identity_value() in A.value_set
    T = trivial_subgroup(G)
    assert T.order == 1
    full = Subgroup(G, np.arange(G.order))
    assert full.order == 6


def test_subgroup_orders_divide_group_order():
    rng = random.Random(3)
    for G in (symmetric_group(4), general_linear_group(2, 3)):
        els = G.elements()
        for _ in range(10):
            gens = [rng.choice(els) for _ in range(2)]
            H = subgroup_closure(G, gens)
            assert G.order % H.order == 0


def test_subgroup_rejects_non_closed_sets():
    G = symmetric_group(3)
    ids = G.ids()
    with pytest.raises(ValueError):
        Subgroup(G, [ids.identity, ids.id_of((1, 2, 0))])


def test_values_outside_the_group_are_refused():
    # elements are plain values, so each entry point validates them itself
    s3, gl23 = symmetric_group(3), general_linear_group(2, 3)
    for G, v in ((s3, (1, 0, 2)), (gl23, ((1, 1), (0, 1)))):
        assert G.make(v) is v
    with pytest.raises(ValueError, match="not a permutation of 0..2"):
        subgroup_closure(s3, [(1, 0, 3, 2)])  # an S4 image tuple
    with pytest.raises(ValueError, match="singular"):
        subgroup_closure(gl23, [((1, 2), (2, 1))])  # det = -3 = 0 in F3
    with pytest.raises(ValueError, match="not a permutation of 0..2"):
        k_build(trivial_subgroup(s3), ((1, 1), (0, 1)))
    for table, v, msg in (
        (sn_character_table(3), (1, 0, 3, 2), "not a permutation of 0..2"),
        (gl2_char_table(3), ((1, 2), (2, 1)), "singular"),
    ):
        with pytest.raises(ValueError, match=msg):
            table.class_index_of(v)
        with pytest.raises(ValueError, match=msg):
            realize_table(table)[1].mat_value(v)


def test_conjugate_values_is_conjugate_subgroup():
    # g^-1 H g formed on id arrays, as pg_invariance_error forms it
    G = symmetric_group(4)
    ids = G.ids()
    H = subgroup_closure(G, [G.make((1, 0, 2, 3))])
    for g in range(G.order):
        vals = [ids.value_of(c) for c in ids.mul(ids.mul(ids.inv(g), H.ids), g)]
        assert len(vals) == H.order
        expected = {conj(G, G.elements()[g], h) for h in H.value_set}
        assert set(vals) == expected


def test_conjugacy_classes_partition_group():
    # the classes of a character table's element columns are the orbits of
    # conjugation, found here by conjugating each representative
    gl22 = gl2_char_table(2)
    s3 = sn_character_table(3)
    for table in (
        sn_character_table(4),
        sn_character_table(6),
        gl2_char_table(3),
        gl2_char_table(4),
        gl2_char_table(5),
        wreath_char_table(s3),
        product_table(product_group(gl22.group, s3.group), gl22, s3),
    ):
        G = table.group
        els = G.elements()
        cols = table.element_columns()
        classes = [np.flatnonzero(cols == c) for c in range(len(table.class_keys))]
        assert sum(len(c) for c in classes) == G.order
        seen = set()
        for c, members in enumerate(classes):
            assert len(members) == table.class_sizes[c]
            rep = table.class_reps[c]
            assert G.ids().id_of(rep) in members
            orbit = {conj(G, g, rep) for g in els}
            assert orbit == {els[i] for i in members}
            for i in members:
                assert els[i] not in seen
                seen.add(els[i])
            assert G.order % len(members) == 0


def test_element_json_roundtrip_all_kinds():
    for G in sample_groups():
        for el in G.elements()[:10]:
            back = element_from_json(G, json.loads(json.dumps(el)))
            assert back == el


def roundtrip_groups():
    s3 = symmetric_group(3)
    gl22 = general_linear_group(2, 2)
    return [
        symmetric_group(5),
        general_linear_group(2, 4),
        product_group(gl22, s3),
        wreath_z2(s3),
        wreath_z2(product_group(gl22, s3)),
    ]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_element_json_roundtrip_on_drawn_ids(data):
    G = data.draw(st.sampled_from(roundtrip_groups()))
    ids = G.ids()
    i = data.draw(st.integers(0, G.order - 1))
    el = element_from_json(G, json.loads(json.dumps(ids.value_of(i))))
    assert ids.id_of(el) == i


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_subgroup_file_parses_to_the_closure_of_its_generators(data):
    G = data.draw(st.sampled_from(roundtrip_groups()))
    ids = G.ids()
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=2))
    want = subgroup_closure(G, [ids.value_of(g) for g in gens])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "subgroup.json"
        path.write_text(json.dumps({"generators": [ids.value_of(g) for g in gens]}))
        H = parse_subgroup(G, str(path))
    assert np.array_equal(H.ids, want.ids)


def test_element_order_divides_group_order():
    for G in (symmetric_group(4), general_linear_group(2, 2)):
        for el in G.elements():
            k = 1
            cur = el
            while cur != G.identity_value():
                cur = mul_values(G, cur, el)
                k += 1
            assert G.order % k == 0
            assert math.gcd(k, G.order) == k


def test_id_view_matches_tuple_arithmetic_on_every_pair():
    gl23, s3 = general_linear_group(2, 3), symmetric_group(3)
    for G in (
        s3,
        symmetric_group(4),
        general_linear_group(2, 2),
        gl23,
        product_group(gl23, s3),
        product_group(general_linear_group(2, 2), s3),
        wreath_z2(s3),
    ):
        ids = G.ids()
        values = list(G.iter_values())
        assert ids.order == G.order == len(values)
        assert [ids.value_of(i) for i in range(ids.order)] == values
        assert [ids.id_of(v) for v in values] == list(range(ids.order))
        assert values[ids.identity] == G.identity_value()
        n = len(values)
        prods = ids.mul(np.arange(n)[:, None], np.arange(n)[None, :])
        for a, va in enumerate(values):
            assert values[ids.inv(a)] == inv_value(G, va)
            assert [values[c] for c in prods[a]] == [mul_values(G, va, vb) for vb in values]


def test_wreath_id_view_matches_tuple_arithmetic():
    W = wreath_z2(product_group(general_linear_group(2, 3), symmetric_group(3)))
    ids = W.ids()
    assert ids.order == W.order == 2 * 288**2
    values = list(W.iter_values())
    for i in (0, 1, 287, 288, 288**2 - 1, 288**2, W.order - 1):
        assert ids.value_of(i) == values[i]
        assert ids.id_of(values[i]) == i
    rng = random.Random(11)
    a = np.array([rng.randrange(W.order) for _ in range(2000)])
    b = np.array([rng.randrange(W.order) for _ in range(2000)])
    for i, j, c in zip(a, b, ids.mul(a, b)):
        assert ids.value_of(c) == mul_values(W, values[i], values[j])
    for i, c in zip(a, ids.inv(a)):
        assert ids.value_of(c) == inv_value(W, values[i])
    assert ids.value_of(ids.identity) == W.identity_value()


def test_product_and_wreath_ids_hold_no_array_of_their_order():
    # mul and inv compose from the factors' or base's ids, so neither view
    # keeps a |G|-sized table or inverse
    gl23, s3 = general_linear_group(2, 3), symmetric_group(3)
    for G in (product_group(gl23, s3), wreath_z2(product_group(gl23, s3)), wreath_z2(s3)):
        ids = G.ids()
        ids.inv(np.arange(ids.order))
        assert not [
            name for name, v in vars(ids).items() if isinstance(v, np.ndarray) and v.size >= ids.order
        ]


def test_product_enumeration_runs_each_factor_once():
    calls = []

    class CountingSym(SymmetricGroup):
        def iter_values(self):
            calls.append(self.n)
            return super().iter_values()

    # built directly, past the group cache, so the counting factors are used
    W = WreathZ2(DirectProduct(CountingSym(3), CountingSym(2)))
    values = list(W.iter_values())
    assert len(values) == W.order
    assert sorted(calls) == [2, 3]
    assert values == [
        ((x1, x2), (y1, y2), b)
        for b in (0, 1)
        for x1 in symmetric_group(3).iter_values()
        for x2 in symmetric_group(2).iter_values()
        for y1 in symmetric_group(3).iter_values()
        for y2 in symmetric_group(2).iter_values()
    ]


def test_gl2_group_spec_cap():
    # a gl2_<q> atom anywhere in a group spec is refused past q = 9, before
    # any group check or table build; gl2_9 is accepted
    for spec in ("gl2_11", "gl2_11xs2", "s2xgl2_16", "wreath_gl2_11"):
        with pytest.raises(ValueError, match=r"gl2_1[16] is past the GL2 group cap q <= 9"):
            parse_group_table(spec, lambda G: pytest.fail("group checked"))
    assert parse_group_table("gl2_9").group == general_linear_group(2, 9)


@pytest.mark.parametrize("k, q", [(1, 5), (2, 2), (2, 3), (2, 4), (2, 8), (2, 9), (3, 2), (3, 3)])
def test_glk_ids_match_field_arithmetic(k, q):
    # the row-action product and inverse against fields.mat_mul and
    # fields.mat_inv on seeded pairs, and the group laws on every id
    G = general_linear_group(k, q)
    F, ids = G.field, G.ids()
    a, b = np.random.default_rng(q * 10 + k).integers(0, G.order, size=(2, 500))
    assert [ids.value_of(c) for c in ids.mul(a, b)] == [
        fields.mat_mul(F, ids.value_of(x), ids.value_of(y)) for x, y in zip(a, b)
    ]
    assert [ids.value_of(c) for c in ids.inv(a)] == [fields.mat_inv(F, ids.value_of(x)) for x in a]
    every = np.arange(G.order)
    assert np.array_equal(ids.inv(ids.inv(every)), every)
    assert (ids.mul(every, ids.inv(every)) == ids.identity).all()


def test_sn_ids_match_tuple_arithmetic():
    # every pair of S1-S6, and seeded pairs of S7 and S8
    for n in range(1, 7):
        G = symmetric_group(n)
        ids = G.ids()
        values = ids.values
        want = np.array([[ids.id_of(mul_values(G, a, b)) for b in values] for a in values])
        every = np.arange(G.order)
        assert np.array_equal(ids.mul(every[:, None], every[None, :]), want)
        assert [values[i] for i in ids.inv(every)] == [inv_value(G, v) for v in values]
    rng = np.random.default_rng(0)
    for n in (7, 8):
        G = symmetric_group(n)
        ids = G.ids()
        a, b = rng.integers(0, G.order, size=(2, 2000))
        assert [ids.value_of(c) for c in ids.mul(a, b)] == [
            mul_values(G, ids.value_of(x), ids.value_of(y)) for x, y in zip(a, b)
        ]
        assert [ids.value_of(c) for c in ids.inv(a)] == [
            inv_value(G, ids.value_of(x)) for x in a
        ]
        assert not hasattr(ids, "table")


def subgroup_test_groups():
    s3 = symmetric_group(3)
    return [
        symmetric_group(4),
        general_linear_group(2, 3),
        wreath_z2(s3),
        wreath_z2(product_group(general_linear_group(2, 2), s3)),
    ]


def _accepted(certify) -> bool:
    try:
        certify()
    except ValueError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_id_subgroup_matches_tuple_reference(data):
    G = data.draw(st.sampled_from(subgroup_test_groups()))
    ids = G.ids()
    # one generator on the big wreath keeps the reference's |H|^2 small
    n_gens = 1 if G.order > 1000 else 2
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=n_gens))
    ref = reference_closure_values(G, [ids.value_of(g) for g in gens])
    H = subgroup_closure(G, [ids.value_of(g) for g in gens])
    assert H.value_set == ref
    assert list(H.ids) == sorted(ids.id_of(v) for v in ref)
    # the closure with one id toggled, or a few ids with or without 1
    if data.draw(st.booleans()):
        subset = set(H.ids.tolist()) ^ {data.draw(st.integers(0, G.order - 1))}
    else:
        subset = set(data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=8)))
        if data.draw(st.booleans()):
            subset.add(ids.identity)
    subset = sorted(subset)
    assert _accepted(lambda: Subgroup(G, subset)) == _accepted(
        lambda: reference_subgroup_values(G, [ids.value_of(i) for i in subset])
    )


def test_catalog_subgroups_match_tuple_reference():
    s3 = symmetric_group(3)
    groups = [symmetric_group(n) for n in range(2, 9)]
    groups += [general_linear_group(2, q) for q in (2, 3, 4, 5, 7)]
    groups += [
        wreath_z2(s3),
        wreath_z2(product_group(general_linear_group(2, 2), s3)),
        product_group(general_linear_group(2, 2), s3),
    ]
    for G in groups:
        for H in subgroup_catalog(G):
            assert reference_subgroup_values(G, H.value_set) == H.value_set
            assert reference_closure_values(G, H.value_set) == H.value_set
