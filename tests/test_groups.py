from __future__ import annotations

import math
import random

import numpy as np
import pytest

from cosetlab.groups import (
    TABLE_CAP,
    DirectProduct,
    Subgroup,
    SymmetricGroup,
    WreathZ2,
    conjugacy_classes,
    cycle_type,
    element_from_json,
    element_to_json,
    full_subgroup,
    general_linear_group,
    product_group,
    random_element,
    subgroup_closure,
    support_size,
    symmetric_group,
    trivial_subgroup,
    wreath_z2,
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


def test_group_axioms_sampled():
    rng = random.Random(0)
    for G in sample_groups():
        e = G.identity()
        els = G.elements()
        for el in els:
            assert G.mul(el, e) == el
            assert G.mul(e, el) == el
            assert G.mul(el, G.inv(el)) == e
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_symmetric_composition_is_left_then_right():
    # (pi * sigma)(i) = sigma(pi(i))
    G = symmetric_group(4)
    pi = G.make((1, 0, 3, 2))
    sigma = G.make((2, 3, 0, 1))
    prod = G.mul(pi, sigma)
    for i in range(4):
        assert prod.value[i] == sigma.value[pi.value[i]]


def test_cycle_type_and_support():
    assert cycle_type((0, 1, 2)) == (1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((1, 2, 0)) == (3,)
    assert support_size((0, 1, 2)) == 0
    assert support_size((1, 0, 3, 2)) == 4


def test_conjugation():
    for G in (symmetric_group(4), general_linear_group(2, 3)):
        rng = random.Random(1)
        els = G.elements()
        for _ in range(40):
            g, x = rng.choice(els), rng.choice(els)
            assert G.conj(g, x) == G.mul(G.mul(G.inv(g), x), g)


def test_wreath_multiplication_swaps_components():
    G = symmetric_group(3)
    W = wreath_z2(G)
    rng = random.Random(2)
    els = G.elements()
    for _ in range(40):
        a1, a2, b1, b2 = (rng.choice(els) for _ in range(4))
        # bit 0 on the left factor: components multiply in place
        w = W.mul(W.make((a1.value, a2.value, 0)), W.make((b1.value, b2.value, 0)))
        assert w.value == (G.mul(a1, b1).value, G.mul(a2, b2).value, 0)
        # bit 1 on the left factor: the right pair is swapped first
        w = W.mul(W.make((a1.value, a2.value, 1)), W.make((b1.value, b2.value, 0)))
        assert w.value[2] == 1
        w = W.mul(W.make((a1.value, a2.value, 1)), W.make((b1.value, b2.value, 1)))
        assert w.value[2] == 0


def test_wreath_swap_generator_order_two():
    W = wreath_z2(symmetric_group(3))
    e3 = (0, 1, 2)
    swap = W.make((e3, e3, 1))
    assert W.mul(swap, swap) == W.identity()
    assert W.inv(swap) == swap


def test_subgroup_closure_alternating():
    G = symmetric_group(3)
    A = subgroup_closure(G, [G.make((1, 2, 0))], label="three-cycle")
    assert A.order == 3
    assert G.identity_value() in A.value_set
    T = trivial_subgroup(G)
    assert T.order == 1
    full = full_subgroup(G)
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
    with pytest.raises(ValueError):
        Subgroup(G, [G.identity(), G.make((1, 2, 0))])


def test_conjugate_values_is_conjugate_subgroup():
    G = symmetric_group(4)
    H = subgroup_closure(G, [G.make((1, 0, 2, 3))])
    for g in G.elements():
        vals = H.conjugate_values(g)
        assert len(vals) == H.order
        expected = {G.conj(g, h).value for h in H.elements}
        assert set(vals) == expected


def test_conjugacy_classes_partition_group():
    for G in (symmetric_group(4), general_linear_group(2, 3), wreath_z2(symmetric_group(3))):
        classes = conjugacy_classes(G, with_members=True)
        assert sum(c.size for c in classes) == G.order
        seen = set()
        for c in classes:
            assert len(c.members) == c.size
            assert c.representative in c.members
            for el in c.members:
                assert el.value not in seen
                seen.add(el.value)
            assert G.order % c.size == 0


def test_element_json_roundtrip_all_kinds():
    for G in sample_groups():
        for el in G.elements()[:10]:
            back = element_from_json(G, element_to_json(el))
            assert back == el


def test_random_element_is_seed_deterministic():
    G = general_linear_group(2, 3)
    a = [random_element(G, random.Random(7)) for _ in range(5)]
    b = [random_element(G, random.Random(7)) for _ in range(5)]
    assert a == b


def test_element_order_divides_group_order():
    for G in (symmetric_group(4), general_linear_group(2, 2)):
        for el in G.elements():
            k = 1
            cur = el
            while not G.is_identity(cur):
                cur = G.mul(cur, el)
                k += 1
            assert G.order % k == 0
            assert math.gcd(k, G.order) == k


def test_id_view_matches_tuple_arithmetic_on_every_pair():
    gl23 = general_linear_group(2, 3)
    for G in (
        symmetric_group(3),
        symmetric_group(4),
        general_linear_group(2, 2),
        gl23,
        product_group(gl23, symmetric_group(3)),
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
            assert values[ids.inverse[a]] == G.inv_value(va)
            assert [values[c] for c in prods[a]] == [G.mul_values(va, vb) for vb in values]


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
        assert ids.value_of(c) == W.mul_values(values[i], values[j])
    for i in a[:500]:
        assert ids.value_of(ids.inverse[i]) == W.inv_value(values[i])
    assert ids.value_of(ids.identity) == W.identity_value()


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


def test_cayley_table_cap():
    # past the cap the id view holds values and index, and refuses the table
    G = general_linear_group(2, 8)
    assert G.order > TABLE_CAP
    ids = G.ids()
    assert ids.value_of(ids.id_of(G.identity_value())) == G.identity_value()
    for attr in ("table", "inverse"):
        with pytest.raises(ValueError, match=r"\|GL2\(F8\)\| = 3528 exceeds"):
            getattr(ids, attr)
