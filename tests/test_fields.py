from __future__ import annotations

import random

import pytest

from cosetlab import fields
from cosetlab.fields import (
    apply_perm_to_cols,
    enumerate_glk,
    field_of_order,
    fix_group_elements,
    glk_order,
    mat_identity,
    mat_inv,
    mat_is_invertible,
    mat_mul,
    mat_rank,
    mat_rref,
    perm_matrix,
    poly_divmod,
    poly_eval,
    poly_gcd,
)

from reference_models import fix_orbit_report, fix_size_formula, orbit_size_formula

FIELD_ORDERS = (2, 3, 4, 5, 7, 8, 9)


def test_prime_power_split():
    assert fields.split_prime_power(8) == (2, 3)
    assert fields.split_prime_power(9) == (3, 2)
    assert fields.split_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        fields.split_prime_power(6)
    with pytest.raises(ValueError):
        fields.split_prime_power(1)


def test_field_axioms_exhaustive():
    for q in FIELD_ORDERS:
        F = field_of_order(q)
        els = list(F.elements())
        assert len(els) == q
        for a in els:
            assert F.add(a, 0) == a
            assert F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a != 0:
                assert F.mul(a, F.inv(a)) == 1
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(
                        F.mul(a, b), F.mul(a, c)
                    )


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _monic(p, d):
    """Every monic degree-d polynomial over F_p, little-endian, in the order
    of the integer whose base-p digits are its lower coefficients."""
    return [[(m // p**j) % p for j in range(d)] + [1] for m in range(p**d)]


def test_field_encoding_rule_by_brute_force():
    # Fq's rule, checked without poly_divmod: the modulus is the least
    # irreducible monic candidate (the coefficient tuple read from the
    # x^(n-1) term down), the generator the least unit of order q - 1, and
    # element a has a's base-p digits as its residue polynomial
    prime_powers = [q for q in range(2, 257) if len(fields.factorize(q)) == 1]
    assert len(prime_powers) == 70
    for q in prime_powers:
        p, n = fields.split_prime_power(q)
        F = field_of_order(q)
        reducible = {
            tuple(_poly_mul_mod_p(a, b, p))
            for d in range(1, n // 2 + 1)
            for a in _monic(p, d)
            for b in _monic(p, n - d)
        }
        modulus = next(f for f in _monic(p, n) if tuple(f) not in reducible)
        assert F.modulus == tuple(modulus)

        def times(a, b):  # a * b modulo the modulus, on digit lists
            prod = _poly_mul_mod_p(a, b, p)
            for i in range(len(prod) - 1, n - 1, -1):
                c = prod[i]
                for j in range(n + 1):
                    prod[i - n + j] = (prod[i - n + j] - c * modulus[j]) % p
            return prod[:n]

        def digits(a):
            return [(a // p**j) % p for j in range(n)]

        def order(u):
            x, k = digits(u), 1
            while x != digits(1):
                x, k = times(x, digits(u)), k + 1
            return k

        generator = next(u for u in range(1, q) if order(u) == q - 1)
        assert F.generator == generator
        # the powers of the generator, which F.mul and F.inv read through
        # the log tables
        x = digits(1)
        for i in range(q - 1):
            assert digits(F.exp(i)) == x
            x = times(x, digits(generator))


def test_generator_has_full_order():
    for q in FIELD_ORDERS:
        if q == 2:
            continue
        F = field_of_order(q)
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = F.mul(x, F.generator)
            seen.add(x)
        assert len(seen) == q - 1
        assert x == 1


def test_log_exp_roundtrip():
    for q in (3, 4, 5, 8, 9):
        F = field_of_order(q)
        for a in F.units():
            assert F.exp(F.log(a)) == a
        for a in F.units():
            for b in F.units():
                assert F.log(F.mul(a, b)) == (F.log(a) + F.log(b)) % (q - 1)


def test_subfield_embedding_is_homomorphism():
    F = field_of_order(2)
    E = field_of_order(4)
    emb = fields.embed_map(F, E)
    assert emb[0] == 0 and emb[1] == 1
    for a in F.elements():
        for b in F.elements():
            assert emb[F.add(a, b)] == E.add(emb[a], emb[b])
            assert emb[F.mul(a, b)] == E.mul(emb[a], emb[b])


def _poly_mul(F, f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return out


def test_poly_divmod_identity():
    rng = random.Random(0)
    for q in (2, 3, 5):
        F = field_of_order(q)
        for _ in range(50):
            num = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 6)))
            den = tuple(rng.randrange(q) for _ in range(rng.randrange(1, 4)))
            if all(c == 0 for c in den):
                continue
            quo, rem = poly_divmod(F, num, den)
            back = tuple(
                F.add(a, b)
                for a, b in zip(
                    _poly_mul(F, quo, den) + [0] * 8,
                    list(rem) + [0] * 8,
                )
            )
            assert fields.poly_trim(back) == fields.poly_trim(num)


def test_poly_gcd_divides_both():
    rng = random.Random(1)
    F = field_of_order(3)
    for _ in range(40):
        f = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5)))
        g = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5)))
        if all(c == 0 for c in f) and all(c == 0 for c in g):
            continue
        d = poly_gcd(F, f, g)
        for h in (f, g):
            if all(c == 0 for c in h):
                continue
            _, rem = poly_divmod(F, h, d)
            assert fields.poly_deg(rem) < 0


def test_poly_eval_agrees_with_horner_expansion():
    F = field_of_order(5)
    f = (2, 0, 1, 3)  # 2 + x^2 + 3x^3
    for x in F.elements():
        direct = 0
        for i, c in enumerate(f):
            direct = F.add(direct, F.mul(c, F.pow(x, i)) if x or i == 0 else 0)
        assert poly_eval(F, f, x) == direct


def test_matrix_inverse_and_det():
    rng = random.Random(2)
    for q in (2, 3, 4):
        F = field_of_order(q)
        count = 0
        while count < 25:
            A = tuple(
                tuple(rng.randrange(q) for _ in range(3)) for _ in range(3)
            )
            if not mat_is_invertible(F, A):
                continue
            count += 1
            Ainv = mat_inv(F, A)
            assert mat_mul(F, A, Ainv) == mat_identity(3)
            assert mat_mul(F, Ainv, A) == mat_identity(3)


def test_rank_and_rref():
    F = field_of_order(2)
    assert mat_rank(F, ((1, 0), (0, 1))) == 2
    assert mat_rank(F, ((1, 1), (1, 1))) == 1
    assert mat_rank(F, ((0, 0), (0, 0))) == 0
    rng = random.Random(4)
    for _ in range(30):
        A = tuple(tuple(rng.randrange(3) for _ in range(4)) for _ in range(2))
        F3 = field_of_order(3)
        R = mat_rref(F3, A)
        assert mat_rref(F3, R) == R
        assert mat_rank(F3, A) == mat_rank(F3, R)


def test_perm_matrix_matches_column_action():
    rng = random.Random(5)
    F = field_of_order(3)
    for _ in range(30):
        n = rng.randrange(2, 5)
        pi = list(range(n))
        rng.shuffle(pi)
        M = tuple(tuple(rng.randrange(3) for _ in range(n)) for _ in range(2))
        via_mat = mat_mul(F, M, perm_matrix(pi))
        assert via_mat == apply_perm_to_cols(M, pi)
        # column i of the result is column j of M with pi[j] = i
        moved = apply_perm_to_cols(M, pi)
        for j in range(n):
            assert tuple(row[pi[j]] for row in moved) == tuple(row[j] for row in M)


def test_perm_matrix_composition_order():
    # applying pi then sigma to columns equals applying the composite
    # j -> sigma[pi[j]] once
    F = field_of_order(2)
    pi = (1, 2, 0)
    sigma = (0, 2, 1)
    M = ((1, 0, 1), (0, 1, 1))
    twice = apply_perm_to_cols(apply_perm_to_cols(M, pi), sigma)
    composite = tuple(sigma[pi[j]] for j in range(3))
    assert twice == apply_perm_to_cols(M, composite)


def test_glk_order_matches_enumeration():
    for k, q in ((1, 2), (1, 3), (2, 2), (2, 3)):
        F = field_of_order(q)
        assert glk_order(q, k) == sum(1 for _ in enumerate_glk(F, k))


def test_fix_size_formula_all_binary_matrices():
    F = field_of_order(2)
    for n in (1, 2, 3):
        for bits in range(2 ** (2 * n)):
            M = tuple(
                tuple((bits >> (r * n + c)) & 1 for c in range(n))
                for r in range(2)
            )
            rep = fix_orbit_report(F, M)
            assert rep.fix_size == rep.fix_formula
            assert rep.fix_size * rep.orbit_size == rep.group_order


def test_fix_size_formula_random_ternary():
    rng = random.Random(6)
    F = field_of_order(3)
    for _ in range(60):
        n = rng.randrange(1, 4)
        M = tuple(tuple(rng.randrange(3) for _ in range(n)) for _ in range(2))
        r = mat_rank(F, M)
        assert len(fix_group_elements(F, M)) == fix_size_formula(2, r, 3)


def test_fix_formula_extremes():
    # full-rank matrices are fixed only by the identity; the zero matrix by all
    q, k = 3, 2
    assert fix_size_formula(k, k, q) == 1
    assert fix_size_formula(k, 0, q) == glk_order(q, k)
    assert orbit_size_formula(k, 0, q) == 1
