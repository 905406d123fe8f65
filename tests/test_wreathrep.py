from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosetlab.chartab import CharacterTable
from cosetlab.cli import parse_group_table
from cosetlab.groups import subgroup_closure, trivial_subgroup
from cosetlab.realize import realize_table
from cosetlab.symrep import sn_character_table
from cosetlab.gl2rep import char_table as gl2_char_table
from cosetlab.wreathrep import k_build, k_max_normalized_char, wreath_char_table
from reference_models import (
    check_traces,
    conj,
    enumerated_wreath_char_table,
    inv_value,
    mul_values,
    swap_matrix,
)


def s3_wreath():
    return wreath_char_table(sn_character_table(3))


def test_irrep_census():
    t = s3_wreath()
    assert t.n_irreps == 9
    assert sum(d * d for d in t.dims) == 72
    kinds = [m.kind for m in t.family.metas]
    assert kinds.count("pair") == 3
    assert kinds.count("plus") == 3
    assert kinds.count("minus") == 3
    assert sorted(t.dims) == [1, 1, 1, 1, 2, 4, 4, 4, 4]
    assert t.orthogonality_error() < 1e-9


def test_character_values_from_base_table():
    # pair: chi_i(g1)chi_j(g2) + chi_i(g2)chi_j(g1) off the swap, 0 on it;
    # plus/minus: chi(g1)chi(g2) off the swap, +-chi(g1 g2) on it
    base = sn_character_table(3)
    t = s3_wreath()
    G0 = base.group
    W = t.group
    for el in W.elements():
        g1, g2, bit = el
        a, b = G0.make(g1), G0.make(g2)
        for idx, m in enumerate(t.family.metas):
            got = complex(t.values[idx, t.class_index_of(el)])
            ci = lambda g: base.values[m.i][base.class_index_of(g)]
            cj = lambda g: base.values[m.j][base.class_index_of(g)]
            if bit == 0:
                if m.kind == "pair":
                    want = ci(a) * cj(b) + ci(b) * cj(a)
                else:
                    want = ci(a) * ci(b)
            else:
                if m.kind == "pair":
                    want = 0.0
                else:
                    sign = 1.0 if m.kind == "plus" else -1.0
                    want = sign * ci(mul_values(G0, a, b))
            assert abs(got - want) < 1e-8


def test_realized_traces_match_table():
    t = s3_wreath()
    reals = realize_table(t)
    assert check_traces(t, reals) < 1e-8


def test_swap_matrix_exchanges_tensor_factors():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        S = swap_matrix(d)
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        assert np.allclose(S @ np.kron(A, B) @ S, np.kron(B, A), atol=1e-12)
        assert np.allclose(S @ S, np.eye(d * d), atol=1e-12)


def test_k_two_coset_structure():
    base = sn_character_table(3)
    G0 = base.group
    H0 = subgroup_closure(G0, [G0.make((1, 0, 2))], label="order-2")
    s = G0.make((1, 2, 0))
    K = k_build(H0, s)
    assert K.order == 2 * H0.order**2
    assert K.label == "K[order-2, shift (1, 2, 0)]"
    s_inv = inv_value(G0, s)
    H0s = {mul_values(G0, h, s) for h in H0.value_set}
    sH0s = {conj(G0, s, h) for h in H0.value_set}
    sinvH0 = {mul_values(G0, s_inv, h) for h in H0.value_set}
    for v in K.value_set:
        g1, g2, bit = v
        if bit == 0:
            assert g1 in H0.value_set and g2 in sH0s
        else:
            assert g1 in H0s and g2 in sinvH0


def test_k_build_rejects_foreign_shift():
    base = sn_character_table(3)
    G0 = base.group
    other = sn_character_table(4).group
    H0 = trivial_subgroup(G0)
    with pytest.raises(ValueError):
        k_build(H0, other.make(other.identity_value()))


def test_k_normalized_character_relations_exhaustive():
    # every subgroup of the base paired with every shift, all nine irreps
    base = sn_character_table(3)
    t = s3_wreath()
    G0 = base.group
    subgroups = [trivial_subgroup(G0)]
    seen = {frozenset(trivial_subgroup(G0).value_set)}
    for el in G0.elements():
        for el2 in G0.elements():
            H = subgroup_closure(G0, [el, el2])
            key = frozenset(H.value_set)
            if key not in seen:
                seen.add(key)
                subgroups.append(H)
    assert len(subgroups) == 6  # 1, three of order 2, A3, S3
    for H0 in subgroups:
        for s in G0.elements():
            K = k_build(H0, s)
            for idx in range(t.n_irreps):
                rep = k_max_normalized_char(t, idx, K, H0)
                assert rep.within_bound
                assert rep.direct <= rep.formula + 1e-8
                if rep.kind in ("plus", "minus"):
                    # the closed form is exact for the two extensions
                    assert rep.equality_holds
                else:
                    assert rep.equality_holds is None


def test_k_max_normalized_char_refuses_other_families():
    base = sn_character_table(3)
    G0 = base.group
    H0 = trivial_subgroup(G0)
    K = k_build(H0, G0.make((1, 0, 2)))
    with pytest.raises(ValueError, match="wreath"):
        k_max_normalized_char(base, 0, K, H0)
    with pytest.raises(ValueError, match="trivial"):
        k_max_normalized_char(s3_wreath(), 0, trivial_subgroup(K.group), H0)


def test_wreath_over_matrix_base():
    t = wreath_char_table(gl2_char_table(2))
    assert t.n_irreps == 3 + 3 + 3
    assert sum(d * d for d in t.dims) == 2 * 36
    assert t.orthogonality_error() < 1e-9


def test_k_max_normalized_char_reports_a_tampered_table():
    # every character set to its dimension off the identity: the pair row's
    # direct maximum 1 exceeds its bound, and the plus row of the
    # 2-dimensional base irrep differs from its closed form 1/2; both come
    # back as verdicts, not as raises
    t = s3_wreath()
    ident = t.class_index_of(t.group.make(t.group.identity_value()))
    values = np.repeat(np.asarray(t.dims, dtype=complex)[:, None], t.n_irreps, axis=1)
    values[:, ident] = t.values[:, ident]
    tampered = CharacterTable(
        t.group, t.labels, t.dims, t.class_keys, t.class_sizes, t.class_reps,
        values, t.columns_of, t.family,
    )
    G0 = t.family.base.group
    H0 = subgroup_closure(G0, [G0.make((1, 0, 2))])
    K = k_build(H0, G0.make((1, 2, 0)))
    pair = k_max_normalized_char(tampered, t.index_of("pair{(3,)|(2, 1)}"), K, H0)
    assert pair.within_bound is False
    assert pair.equality_holds is None
    plus = k_max_normalized_char(tampered, t.index_of("plus{(2, 1)}"), K, H0)
    assert plus.equality_holds is False
    assert plus.formula == 0.5 and plus.direct == 1.0


@pytest.mark.parametrize(
    "make_base",
    [
        lambda: sn_character_table(3),
        lambda: parse_group_table("gl2_2xs3"),
        lambda: gl2_char_table(3),
    ],
    ids=["s3", "gl2_2xs3", "gl2_3"],
)
def test_closed_form_equals_enumerated_table(make_base):
    base = make_base()
    t = wreath_char_table(base)
    ref = enumerated_wreath_char_table(base)
    assert t.class_reps == ref.class_reps
    assert t.class_sizes == ref.class_sizes
    assert np.array_equal(t.values, ref.values)
    cols = t.element_columns()
    W = t.group
    ids = W.ids()
    for el in W.elements():
        col = ref.class_index_of(el)
        assert cols[ids.id_of(el)] == col
        assert t.class_index_of(el) == col


@functools.lru_cache(maxsize=None)
def _big_wreath_columns():
    t = parse_group_table("wreath_gl2_2xs3")
    return t.group.ids(), t.element_columns()


BIG_WREATH_ORDER = 2 * 36**2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, BIG_WREATH_ORDER - 1), st.integers(0, BIG_WREATH_ORDER - 1))
def test_big_wreath_columns_are_conjugation_invariant(g, k):
    ids, cols = _big_wreath_columns()
    assert ids.order == BIG_WREATH_ORDER
    conj = ids.mul(ids.mul(ids.inv(k), g), k)
    assert cols[conj] == cols[g]
