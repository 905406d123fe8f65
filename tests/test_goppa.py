from __future__ import annotations

import itertools
import json
import random

import pytest

from cosetlab import cli, goppa
from cosetlab.fields import field_of_order, mat_rank, poly_eval
from cosetlab.goppa import (
    LinearCode,
    RationalGoppaSpec,
    automorphisms,
    build_goppa,
    induced_point_permutation,
    moebius_apply,
    pgl2_elements,
    random_spec,
    stichtenoth_check,
)


def grs_spec():
    # constant g, h: a generalized Reed-Solomon code
    return RationalGoppaSpec(q=5, gamma=(0, 1, 2, 3), r=1, g=(1,), h=(1,))


def test_spec_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        RationalGoppaSpec(q=5, gamma=(0, 0, 1), r=1, g=(1,), h=(1,)).validate()
    with pytest.raises(ValueError):
        RationalGoppaSpec(q=5, gamma=(0, 7, 1), r=1, g=(1,), h=(1,)).validate()
    with pytest.raises(ValueError):
        RationalGoppaSpec(q=5, gamma=(0, 1, 2), r=3, g=(1,), h=(1,)).validate()
    # h vanishing at an evaluation point
    with pytest.raises(ValueError):
        RationalGoppaSpec(q=5, gamma=(0, 1, 2), r=1, g=(1,), h=(0, 1)).validate()
    with pytest.raises(ValueError):
        RationalGoppaSpec(q=6, gamma=(0, 1, 2), r=1, g=(1,), h=(1,)).validate()


def test_spec_json_roundtrip():
    spec = grs_spec()
    back = RationalGoppaSpec.from_json(json.loads(cli._json(spec)))
    assert back == spec


def test_generator_rows_evaluate_basis():
    # row i holds x^i g(x)/h(x) at the evaluation points
    spec = RationalGoppaSpec(q=7, gamma=(1, 2, 3, 4, 5), r=2, g=(0, 1), h=(1,))
    spec.validate()
    F = field_of_order(7)
    code = build_goppa(spec)
    assert code.k == spec.r + 1
    for i in range(code.k):
        for j, x in enumerate(spec.gamma):
            num = F.mul(F.pow(x, i) if i else 1, poly_eval(F, spec.g, x))
            want = F.div(num, poly_eval(F, spec.h, x))
            assert code.generator[i][j] == want


def test_grs_code_is_mds():
    code = build_goppa(grs_spec())
    assert (code.k, code.n) == (2, 4)
    assert mat_rank(code.field, code.generator) == 2
    # MDS: d = n - k + 1
    assert code.min_distance() == 3


def test_grs_automorphisms_frozen():
    code = build_goppa(grs_spec())
    rep = automorphisms(code)
    assert rep.order == 4
    assert rep.minimal_degree == 4
    assert stichtenoth_check(grs_spec(), rep)


def test_repetition_code_has_full_symmetric_automorphisms():
    spec = RationalGoppaSpec(q=5, gamma=(0, 1, 2, 3), r=0, g=(1,), h=(1,))
    spec.validate()
    code = build_goppa(spec)
    assert code.k == 1
    assert code.min_distance() == 4
    rep = automorphisms(code)
    assert rep.order == 24
    assert rep.minimal_degree == 2
    # r = 0 falls outside the guarded range
    with pytest.raises(ValueError):
        stichtenoth_check(spec, rep)


def test_automorphisms_form_a_group():
    code = build_goppa(grs_spec())
    rep = automorphisms(code)
    perms = set(rep.automorphisms)
    n = code.n
    assert tuple(range(n)) in perms
    for p in perms:
        inv = tuple(sorted(range(n), key=lambda i: p[i]))
        assert inv in perms
        for q_ in perms:
            comp = tuple(q_[p[i]] for i in range(n))
            assert comp in perms


def test_automorphism_preserves_rowspace():
    spec = RationalGoppaSpec(q=7, gamma=(1, 2, 3, 4, 5), r=1, g=(1,), h=(1,))
    spec.validate()
    code = build_goppa(spec)
    rowspace = set()
    F = code.field
    for coeffs in itertools.product(range(F.q), repeat=code.k):
        word = tuple(
            F.add(F.mul(coeffs[0], code.generator[0][j]), F.mul(coeffs[1], code.generator[1][j]))
            for j in range(code.n)
        )
        rowspace.add(word)
    for p in automorphisms(code).automorphisms:
        for w in rowspace:
            moved = tuple(w[j] for j in _perm_preimage(p, code.n))
            assert moved in rowspace


def _perm_preimage(p, n):
    # position j of the permuted word reads position i with p[i] = j
    inv = [0] * n
    for i in range(n):
        inv[p[i]] = i
    return inv


def test_moebius_action_and_induced_permutations():
    F = field_of_order(5)
    for M in pgl2_elements(F)[:30]:
        seen = set()
        for x in range(F.q):
            y = moebius_apply(F, M, x)
            if y is not None:
                assert 0 <= y < F.q
                seen.add(y)
        # a fractional-linear map is injective off its pole
        assert len(seen) >= F.q - 1
    spec = grs_spec()
    F5 = field_of_order(5)
    count = 0
    for M in pgl2_elements(F5):
        pi = induced_point_permutation(F5, M, spec.gamma)
        if pi is not None:
            count += 1
            assert sorted(pi) == list(range(4))
    assert count >= 1  # at least the identity map preserves the point set


def test_every_grs_automorphism_is_moebius_induced():
    spec = grs_spec()
    code = build_goppa(spec)
    rep = automorphisms(code)
    F = field_of_order(spec.q)
    induced = set()
    for M in pgl2_elements(F):
        pi = induced_point_permutation(F, M, spec.gamma)
        if pi is not None:
            induced.add(pi)
    assert set(rep.automorphisms) <= induced


def test_random_specs_meet_code_guarantees():
    rng = random.Random(11)
    built = 0
    while built < 20:
        q = rng.choice((4, 5, 7))
        n = rng.randrange(3, min(q, 6) + 1)
        r = rng.randrange(0, n - 1)
        spec = random_spec(rng, q, n, r)
        spec.validate()
        code = build_goppa(spec)
        assert code.k == r + 1
        assert mat_rank(code.field, code.generator) == code.k
        assert code.min_distance() >= n - r
        built += 1


def test_min_distance_enumeration_cap():
    F = field_of_order(2)
    code = LinearCode(F, tuple((tuple(int(i == j) for j in range(3)),) * 1 for i in range(3)))
    # k x n generator below the cap enumerates fine
    small = LinearCode(F, ((1, 0, 1), (0, 1, 1)))
    assert small.min_distance() == 2
