from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab import hsp
from cosetlab.fields import (
    apply_perm_to_cols,
    field_of_order,
    mat_inv,
    mat_mul,
    mat_rank,
)
from cosetlab.goppa import LinearCode, automorphisms
from cosetlab.groups import (
    DirectProduct,
    GeneralLinearGroup,
    SymmetricGroup,
    WreathZ2,
    general_linear_group,
    product_group,
    symmetric_group,
    trivial_subgroup,
    wreath_z2,
)
from cosetlab.hsp import (
    attack,
    brute_stabilizer,
    check_right_injective,
    extract_shift,
    hidden_subgroup_of,
    lift_f,
    shift_problem,
    shift_set,
    stabilizer_order_product,
)
from cosetlab.mceliece import McElieceInstance, keygen, public_matrix, random_instance
from cosetlab.suites import subgroup_catalog
from cosetlab.wreathrep import k_build

from reference_models import inv_value, mul, mul_values


def tiny_instance(seed=0):
    return random_instance(field_of_order(2), 2, 3, seed=seed)


def test_keygen_is_seed_deterministic():
    F = field_of_order(2)
    M = ((1, 0, 1), (0, 1, 1))
    a = keygen(F, M, seed=9)
    b = keygen(F, M, seed=9)
    assert a == b
    c = keygen(F, M, seed=10)
    assert a != c


def test_keygen_force_hooks():
    F = field_of_order(2)
    M = ((1, 0, 1), (0, 1, 1))
    A = ((1, 1), (0, 1))
    P = (2, 0, 1)
    inst = keygen(F, M, seed=0, force_A=A, force_P=P)
    assert inst.A == A and inst.P == P
    assert inst.Mstar == public_matrix(F, A, M, P)
    with pytest.raises(ValueError):
        keygen(F, M, seed=0, force_A=((1, 1), (1, 1)))


def test_public_matrix_composition():
    # the public key is A (M with columns moved by P)
    F = field_of_order(3)
    M = ((1, 2, 0), (0, 1, 1))
    A = ((2, 1), (1, 1))
    P = (1, 2, 0)
    assert public_matrix(F, A, M, P) == mat_mul(F, A, apply_perm_to_cols(M, P))


def test_instance_json_roundtrip_and_tamper_rejection():
    inst = tiny_instance()
    back = McElieceInstance.from_json(inst.as_json())
    assert back == inst
    bad = inst.as_json()
    bad["Mstar"][0][0] ^= 1
    with pytest.raises(ValueError):
        McElieceInstance.from_json(bad)
    singular = inst.as_json()
    singular["A"] = [[1, 1], [1, 1]]
    with pytest.raises(ValueError):
        McElieceInstance.from_json(singular)


@pytest.mark.parametrize("k, n, min_rank", [(2, 3, 3), (3, 2, 3), (0, 3, 0), (2, 0, 0)])
def test_random_instance_rejects_infeasible_shapes(k, n, min_rank):
    with pytest.raises(ValueError):
        random_instance(field_of_order(2), k, n, seed=0, min_rank=min_rank)


def test_random_instance_rank_floor():
    F = field_of_order(2)
    for seed in range(8):
        inst = random_instance(F, 2, 4, seed=seed, min_rank=2)
        assert mat_rank(F, inst.M) == 2


def test_witness_relates_the_two_functions():
    # f0(s x) = f1(x) for every x in the base group
    inst = tiny_instance(3)
    prob = shift_problem(inst)
    G = prob.group
    s = prob.witness
    for x in G.elements():
        assert prob.f0(mul(G, s, x).value) == prob.f1(x.value)


def test_function_values_are_transported_matrices():
    inst = tiny_instance(4)
    F = inst.field()
    prob = shift_problem(inst)
    G = prob.group
    for el in G.elements()[:20]:
        A, P = el.value
        assert prob.f0(el.value) == apply_perm_to_cols(
            mat_mul(F, mat_inv(F, A), inst.M), P
        )
    assert prob.f0(prob.witness.value) == inst.Mstar


def test_base_stabilizer_order_product():
    # |H0| = |aut(code of M)| x |Fix(M)|
    for seed in (0, 1, 2, 5):
        inst = tiny_instance(seed)
        H0 = brute_stabilizer(inst)
        assert H0.order == stabilizer_order_product(inst)
        F = inst.field()
        code = LinearCode(F, inst.M)
        assert H0.order % automorphisms(code).order == 0


def test_base_stabilizer_fixes_message_matrix():
    inst = tiny_instance(6)
    prob = shift_problem(inst)
    H0 = brute_stabilizer(inst)
    for v in prob.group.elements():
        assert (prob.f0(v.value) == inst.M) == (v.value in H0.value_set)


def test_shift_set_is_right_coset_of_stabilizer():
    inst = tiny_instance(7)
    prob = shift_problem(inst)
    G = prob.group
    H0 = brute_stabilizer(inst)
    want = {mul(G, h, prob.witness).value for h in H0.elements}
    assert shift_set(inst) == frozenset(want)


def test_lifted_function_hides_the_two_coset_subgroup():
    inst = tiny_instance(8)
    hidden = lift_f(shift_problem(inst))
    W = hidden.group
    assert check_right_injective(hidden.f, W)
    K = hidden_subgroup_of(hidden.f, W)
    H0 = brute_stabilizer(inst)
    oracle = k_build(H0, hidden.problem.witness)
    assert K.value_set == oracle.subgroup.value_set
    assert K.order == 2 * H0.order**2


def test_lifted_function_constant_exactly_on_left_cosets():
    inst = tiny_instance(9)
    hidden = lift_f(shift_problem(inst))
    W = hidden.group
    K = hidden_subgroup_of(hidden.f, W)
    els = W.elements()
    fvals = {el.value: hidden.f(el.value) for el in els}
    for x in els[:24]:
        for k in K.elements:
            assert fvals[mul(W, k, x).value] == fvals[x.value]


def test_extract_shift_requires_swap_coset_element():
    W = wreath_z2(shift_problem(tiny_instance()).group)
    with pytest.raises(ValueError):
        extract_shift(trivial_subgroup(W))


def test_attack_recovers_equivalent_key():
    for seed in (0, 1, 2):
        inst = tiny_instance(seed)
        res = attack(inst)
        assert res.right_injective
        assert res.k_formula_match
        assert res.size_match
        assert res.valid
        F = inst.field()
        assert public_matrix(F, res.recovered_A, inst.M, res.recovered_P) == inst.Mstar
        body = res.as_json()
        assert body["valid"] and body["H0_order"] * 2 * body["H0_order"] == 2 * body["H0_order"] ** 2


def test_attack_evaluates_each_shift_function_once_per_base_element(monkeypatch):
    # f0 and f1 each transport the message matrix once per base element;
    # the H0 scan reuses f0's values instead of evaluating it again
    inst = tiny_instance(3)
    calls = []
    real = hsp.fields.apply_perm_to_cols
    monkeypatch.setattr(
        hsp.fields, "apply_perm_to_cols", lambda M, P: calls.append(1) or real(M, P)
    )
    res = attack(inst)
    assert res.valid and res.k_formula_match
    # plus one transport in the final public-matrix check
    assert len(calls) == 2 * inst.base_group().order + 1
    assert res.H0.value_set == brute_stabilizer(inst).value_set


def test_attack_larger_permutation_side():
    inst = random_instance(field_of_order(2), 2, 4, seed=1, min_rank=2)
    res = attack(inst)
    assert res.valid and res.k_formula_match and res.size_match


def reference_right_injective(f, G):
    """The tuple loop check_right_injective ran before the id view, kept as
    the reference: (verdict, value set of the identity class)."""
    fv = {el.value: f(el.value) for el in G.elements()}
    classes = {}
    for v, val in fv.items():
        classes.setdefault(val, []).append(v)
    K_vals = set(classes[fv[G.identity_value()]])
    for cls in classes.values():
        x_inv = inv_value(G, cls[0])
        for y in cls:
            if mul_values(G, y, x_inv) not in K_vals:
                return False, K_vals
    for a in K_vals:
        for b in K_vals:
            if mul_values(G, a, b) not in K_vals:
                return False, K_vals
    return len(classes) * len(K_vals) == len(fv), K_vals


def same_partition(a, b):
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return len(np.unique(a)) == len(np.unique(b)) == pairs


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 1)])
def test_id_scan_matches_tuple_reference(n, seed):
    inst = random_instance(field_of_order(2), 2, n, seed=seed, min_rank=2)
    hidden = lift_f(shift_problem(inst))
    W = hidden.group
    verdict, K_vals = reference_right_injective(hidden.f, W)
    assert verdict is True
    labels = hidden.labels()
    codes = {}
    by_value = np.array([codes.setdefault(hidden.f(v), len(codes)) for v in W.iter_values()])
    assert same_partition(labels, by_value)
    assert check_right_injective(hidden.f, W) is True
    assert check_right_injective(labels, W) is True
    assert hidden_subgroup_of(hidden.f, W).value_set == K_vals
    assert hidden_subgroup_of(labels, W).value_set == K_vals
    assert attack(inst).K.value_set == K_vals


def test_id_scan_matches_tuple_reference_when_not_right_injective():
    hidden = lift_f(shift_problem(tiny_instance(5)))
    W = hidden.group
    f0 = hidden.problem.f0
    identity = W.identity_value()
    # a level set that is not a subgroup, and classes of unequal size
    for f in (lambda v: f0(v[0]), lambda v: v == identity):
        verdict, _ = reference_right_injective(f, W)
        assert verdict is False
        assert check_right_injective(f, W) is False
        with pytest.raises(ValueError):
            hidden_subgroup_of(f, W)


def unique_right_injective(labels, G):
    """check_right_injective as it ran on np.unique, kept as the reference
    for the np.minimum.at scan."""
    ids = G.ids()
    _, first, cls = np.unique(labels, return_index=True, return_inverse=True)
    in_K = labels == labels[ids.identity]
    y = np.arange(G.order)
    if not in_K[ids.mul(y, ids.inverse[first[cls]])].all():
        return False
    K = np.flatnonzero(in_K)
    if not in_K[ids.mul(K[:, None], K[None, :])].all():
        return False
    return len(first) * len(K) == G.order


SCAN_GROUPS = [
    symmetric_group(4),
    general_linear_group(2, 3),
    wreath_z2(symmetric_group(3)),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_right_injective_scan_matches_the_unique_reference(data):
    G = data.draw(st.sampled_from(SCAN_GROUPS))
    ids = G.ids()
    H = data.draw(st.sampled_from(subgroup_catalog(G)))
    # label each id by the least id of its right coset Hg, then spread the
    # labels over a larger range with gaps: right-injective by construction
    coset = ids.mul(H.ids[:, None], np.arange(G.order)[None, :]).min(axis=0)
    spread = np.array(data.draw(st.permutations(range(3 * G.order))))
    labels = spread[coset]
    kind = data.draw(st.sampled_from(["cosets", "one-changed", "random"]))
    if kind == "one-changed":
        labels[data.draw(st.integers(0, G.order - 1))] = data.draw(st.integers(0, 3 * G.order))
    elif kind == "random":
        m = data.draw(st.integers(1, 6))
        labels = np.array(data.draw(st.lists(st.integers(0, m), min_size=G.order, max_size=G.order)))
    expected = unique_right_injective(labels, G)
    assert expected is True or kind != "cosets"
    assert check_right_injective(labels, G) is expected


def test_a_negative_label_array_is_refused():
    G = symmetric_group(3)
    with pytest.raises(ValueError, match="non-negative"):
        check_right_injective(np.array([0, 1, -1, 0, 1, 2]), G)


def test_subgroups_and_k_are_built_without_tuple_arithmetic():
    # certification, closure and k_build run on id arrays only: the group
    # classes have no tuple arithmetic left to call
    for cls in (SymmetricGroup, GeneralLinearGroup, DirectProduct, WreathZ2):
        for name in ("mul_values", "inv_value", "mul", "inv", "conj", "is_identity"):
            assert not hasattr(cls, name)
    s3, gl22 = symmetric_group(3), general_linear_group(2, 2)
    groups = [symmetric_group(n) for n in range(2, 9)]
    groups += [general_linear_group(2, q) for q in (2, 3, 4, 5, 7)]
    groups += [wreath_z2(s3), wreath_z2(product_group(gl22, s3)), product_group(gl22, s3)]
    for G in groups:
        assert subgroup_catalog(G)
    # attack builds K, H0 and the k_build oracle
    for q in (2, 3):
        for seed in range(3):
            res = attack(random_instance(field_of_order(q), 2, 3, seed=seed))
            assert res.valid and res.k_formula_match and res.size_match
