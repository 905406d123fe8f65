from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from cosetlab.groups import symmetric_group
from cosetlab.realize import realize_table
from cosetlab.symrep import (
    YorRep,
    adjacent_word,
    class_size,
    conjugate,
    dimension,
    hook_lengths,
    lambda_c_audit,
    lambda_c_member,
    mn_character,
    partition_count,
    partitions,
    roichman_report,
    sn_character_table,
    standard_tableaux,
    support_of_type,
    yor_generator_matrices,
)

from reference_models import mul_values

# number of partitions of 0..12
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)

# classic integer character tables, classes ordered as partitions(n)
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}
S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def test_partition_counts():
    for n, want in enumerate(PARTITION_COUNTS):
        assert partition_count(n) == want
        assert len(partitions(n)) == want


def test_partitions_are_sorted_weakly_decreasing():
    for la in partitions(7):
        assert sum(la) == 7
        assert all(la[i] >= la[i + 1] for i in range(len(la) - 1))
        assert all(part >= 1 for part in la)


def test_conjugate_is_involution():
    for n in range(1, 8):
        for la in partitions(n):
            assert conjugate(conjugate(la)) == la
            assert sum(conjugate(la)) == n
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)


def test_hook_length_dimension_counts_standard_tableaux():
    for n in range(1, 6):
        for la in partitions(n):
            assert dimension(la) == len(standard_tableaux(la))
    assert dimension((2, 1)) == 2
    assert dimension((3, 2)) == 5
    assert dimension((2, 2, 1)) == 5


def test_hook_lengths_product_divides_factorial():
    for n in range(1, 9):
        for la in partitions(n):
            prod = 1
            for row in hook_lengths(la):
                for h in row:
                    prod *= h
            assert math.factorial(n) % prod == 0


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(dimension(la) ** 2 for la in partitions(n)) == math.factorial(n)


def test_class_sizes_sum_to_factorial():
    for n in range(1, 8):
        assert sum(class_size(mu) for mu in partitions(n)) == math.factorial(n)
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert class_size((2, 2)) == 3


def test_mn_character_matches_classic_tables():
    for la, row in S3_TABLE.items():
        for mu, want in row.items():
            assert mn_character(la, mu) == want
    for la, row in S4_TABLE.items():
        for mu, want in row.items():
            assert mn_character(la, mu) == want


def test_mn_character_column_orthogonality():
    # sum over la of chi(mu) chi(nu) is n!/|class| on the diagonal, else 0
    for n in (4, 5):
        for mu in partitions(n):
            for nu in partitions(n):
                s = sum(
                    mn_character(la, mu) * mn_character(la, nu)
                    for la in partitions(n)
                )
                if mu == nu:
                    assert s == math.factorial(n) // class_size(mu)
                else:
                    assert s == 0


def test_sign_twist_by_conjugate_shape():
    # chi_{la'}(mu) = sign(mu) chi_la(mu)
    for n in (4, 5, 6):
        for la in partitions(n):
            for mu in partitions(n):
                sign = (-1) ** (n - len(mu))
                assert mn_character(conjugate(la), mu) == sign * mn_character(la, mu)


def test_sn_character_table_structure():
    for n in (3, 4, 5):
        t = sn_character_table(n)
        assert t.n_irreps == len(partitions(n))
        assert t.orthogonality_error() < 1e-9
        assert sorted(t.dims) == sorted(dimension(la) for la in partitions(n))
        assert sum(d * d for d in t.dims) == math.factorial(n)


def test_yor_generators_are_orthogonal_involutions():
    for n in (3, 4, 5):
        for la in partitions(n):
            for S in yor_generator_matrices(la):
                d = S.shape[0]
                assert np.allclose(S @ S.T, np.eye(d), atol=1e-10)
                assert np.allclose(S @ S, np.eye(d), atol=1e-10)


def test_yor_generators_satisfy_braid_relations():
    for la in partitions(4):
        gens = yor_generator_matrices(la)
        for i in range(len(gens) - 1):
            a, b = gens[i], gens[i + 1]
            assert np.allclose(a @ b @ a, b @ a @ b, atol=1e-10)
        for i in range(len(gens)):
            for j in range(i + 2, len(gens)):
                assert np.allclose(gens[i] @ gens[j], gens[j] @ gens[i], atol=1e-10)


def test_adjacent_word_reconstructs_permutation():
    G = symmetric_group(4)
    for el in G.elements():
        p = list(range(4))
        # applying s_i swaps positions i, i+1; word is apply-left-first
        for i in reversed(adjacent_word(el)):
            p[i], p[i + 1] = p[i + 1], p[i]
        assert tuple(p) == el


def test_yor_representation_is_homomorphism():
    G = symmetric_group(4)
    rep = YorRep((2, 1, 1))
    els = G.elements()
    for a in els[:8]:
        for b in els[:8]:
            left = rep.mat(mul_values(G, a, b))
            right = rep.mat(a) @ rep.mat(b)
            assert np.allclose(left, right, atol=1e-10)


def yor_mat_loop(rep, perms):
    """The one-permutation word products, kept as the reference for mats()."""
    return np.array([rep.mat(p) for p in perms]).reshape(len(perms), rep.dim, rep.dim)


@pytest.mark.parametrize("n", range(1, 7))
def test_yor_mats_equal_the_mat_loop_on_all_of_sn(n):
    perms = np.array(symmetric_group(n).ids().values)
    for la in partitions(n):
        rep = YorRep(la)
        assert np.array_equal(rep.mats(perms), yor_mat_loop(rep, perms))


def test_yor_mats_equal_the_mat_loop_on_s7_samples():
    values = np.array(symmetric_group(7).ids().values)
    g = np.random.default_rng(7).integers(0, len(values), size=500)
    assert len(np.unique(g)) < len(g) and not np.all(np.diff(g) >= 0)
    for la in partitions(7):
        rep = YorRep(la)
        want = yor_mat_loop(rep, values[g])
        for rows in (slice(None), slice(0, 0), slice(None, -38, -1)):
            got = rep.mats(values[g[rows]])
            assert got.shape == want[rows].shape
            assert np.array_equal(got, want[rows])


@pytest.mark.parametrize("n", range(3, 7))
def test_realized_sn_irreps_are_unitary_homomorphisms(n):
    # rho(s_i) rho(g) = rho(s_i * g) for every adjacent transposition s_i,
    # which generate S_n, and every g, through the id view's product
    G = symmetric_group(n)
    ids = G.ids()
    every = np.arange(G.order)
    swaps = []
    for i in range(n - 1):
        v = list(range(n))
        v[i], v[i + 1] = v[i + 1], v[i]
        swaps.append(ids.id_of(tuple(v)))
    for real in realize_table(sn_character_table(n)):
        U = real.stack()
        eye = np.eye(real.dim)
        assert np.abs(U @ U.conj().transpose(0, 2, 1) - eye).max() < 1e-12
        for s in swaps:
            assert np.abs(U[s] @ U - U[ids.mul(s, every)]).max() < 1e-12


def test_yor_traces_match_mn_characters():
    for n in (3, 4, 5):
        G = symmetric_group(n)
        for la in partitions(n):
            rep = YorRep(la)
            for el in G.elements():
                mu = tuple(sorted(
                    map(len, _cycles(el)), reverse=True
                ))
                assert abs(np.trace(rep.mat(el)) - mn_character(la, mu)) < 1e-8


def _cycles(perm):
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(cyc)
    return out


def test_lambda_membership_matches_rational_threshold():
    for n in (6, 8):
        c = Fraction(1, 6)
        for la in partitions(n):
            want = (
                Fraction(la[0]) >= (1 - c) * n
                or Fraction(len(la)) >= (1 - c) * n
            )
            assert lambda_c_member(la, n, c) == want


def test_lambda_membership_rejects_bad_cutoff():
    with pytest.raises(ValueError):
        lambda_c_member((6,), 6, Fraction(1, 2))
    with pytest.raises(ValueError):
        lambda_c_member((3, 1), 6, Fraction(1, 6))


def test_lambda_audit_small_cases():
    audit = lambda_c_audit(6, Fraction(1, 6))
    assert audit.cn_ceil == 1
    assert set(audit.members) == {(6,), (5, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)}
    assert audit.size_ok and audit.dim_ok
    audit8 = lambda_c_audit(8, Fraction(1, 6))
    assert audit8.cn_ceil == 2
    assert audit8.size == 4
    assert audit8.size_ok and audit8.dim_ok
    assert audit8.max_dim < audit8.min_dim_outside


def test_roichman_report_rows():
    rep = roichman_report(5, Fraction(1, 6))
    assert rep.n == 5
    supports = [r.support for r in rep.rows]
    assert supports == sorted(supports)
    for row in rep.rows:
        assert 0.0 <= row.max_ratio <= 1.0
        assert support_of_type(row.witness_mu) == row.support
        if row.max_ratio > 0:
            assert row.alpha_hat is not None
            assert abs(row.max_ratio - math.exp(-row.alpha_hat * row.support)) < 1e-12


def test_roichman_report_caps_n():
    with pytest.raises(ValueError):
        roichman_report(11, Fraction(1, 6))
