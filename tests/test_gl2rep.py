from __future__ import annotations

import hashlib

import numpy as np
import pytest

from cosetlab.chartab import CharacterTable
from cosetlab.gl2rep import GelfandGraev, char_table, gl2_class_list
from cosetlab.fields import field_of_order, glk_order
from cosetlab.groups import general_linear_group, subgroup_closure
from cosetlab.symrep import sn_character_table

from reference_models import (
    conj,
    corollary_bound,
    linear_multiplicities,
    linear_multiplicity_pattern,
    scalar_free_check,
)

QS = (2, 3, 4, 5)

# number of distinct linear constituents of rho (x) rho^*, per irrep
LINEAR_MULT_Q2 = {"U0": 1, "V0": 2, "X1": 1}
LINEAR_MULT_Q3 = {
    "U0": 1,
    "U1": 1,
    "V0": 1,
    "V1": 1,
    "W0,1": 2,
    "X1": 1,
    "X2": 2,
    "X5": 1,
}


def family_of(label: str) -> str:
    return label[0]


def test_irrep_count_and_dimension_sum():
    for q in QS:
        t = char_table(q)
        assert t.n_irreps == q * q - 1
        assert sum(d * d for d in t.dims) == glk_order(q, 2)
        assert glk_order(q, 2) == (q - 1) ** 2 * q * (q + 1)


def test_family_census():
    for q in QS:
        t = char_table(q)
        counts: dict = {}
        for i in range(t.n_irreps):
            counts[family_of(t.labels[i])] = counts.get(family_of(t.labels[i]), 0) + 1
            d = t.dims[i]
            fam = family_of(t.labels[i])
            assert d == {"U": 1, "V": q, "W": q + 1, "X": q - 1}[fam]
        assert counts.get("U", 0) == q - 1
        assert counts.get("V", 0) == q - 1
        assert counts.get("W", 0) == (q - 1) * (q - 2) // 2
        assert counts.get("X", 0) == q * (q - 1) // 2


def test_row_orthogonality():
    for q in QS:
        assert char_table(q).orthogonality_error() < 1e-9


# SHA-256 of each table's labels, dims, class keys, sizes and
# representatives (as repr), then values.tobytes(); the roots of unity come
# from np.exp, whose last bit is the platform's, and these were computed
# on x86-64 Linux
GL2_TABLE_DIGESTS = {
    2: "10721611acfde55cc953d41c1a299770774632fc855e634079edcb3fd0ddb2af",
    3: "6e6581f6fc3d9fd9b36166903ba0c439db35030aa3efc3f4dc112175b6f1acc3",
    4: "5ea40782537dc09cb7112ac2e85b4da5c61f20dce1c21a524bd7db19a93ac64c",
    5: "6ad5b4f5cd2199fca78a70910b66fe65ebb9bb1a389efd38b8b4c8c8c0686af1",
    7: "6671159b0c32af26c47c78fa7eb729b9264b1497e3adba960ee7d42f277b463c",
    8: "1f77dbbf17afaa883fa69ecab497e5e818f8b0ffc16d346926d84abcf40fc5c1",
    9: "3d21c7298c46d704d3b56ac2abb56074795896bee74303b68ff2e285af0c204b",
    16: "f2c7fa0803e2d01c3b6f8c43851be336900f3d4497e22d6f40aee24073b24188",
    27: "8d68413c2e70619b82e56613725e5957cddf16549e4c3c3fe217ff421c74904b",
    32: "c98d3dbdd6266e892517db9d5c52392a3ccf584c31f328f1ae954bb52b1502fc",
}


@pytest.mark.parametrize("q", sorted(GL2_TABLE_DIGESTS))
def test_table_bits_are_pinned(q):
    # every value bit for bit: realizations, weak distributions and
    # reports all read this table
    t = char_table(q)
    h = hashlib.sha256(repr((t.labels, t.dims, t.class_keys, t.class_sizes, t.class_reps)).encode())
    h.update(t.values.tobytes())
    assert h.hexdigest() == GL2_TABLE_DIGESTS[q]


def test_class_census():
    for q in QS:
        G = general_linear_group(2, q)
        classes = gl2_class_list(field_of_order(q))
        assert len(classes) == q * q - 1
        assert sum(c.size for c in classes) == G.order
        # closed-form census agrees with explicit membership on small q
        if q <= 3:
            t = char_table(q)
            members = {}
            for el, col in zip(G.elements(), t.element_columns()):
                members.setdefault(t.class_keys[col], []).append(el)
            assert len(members) == len(classes)
            assert sum(len(m) for m in members.values()) == G.order
            for c in classes:
                assert len(members[c.key]) == c.size


def test_class_key_is_conjugation_invariant():
    for q in (2, 3):
        t = char_table(q)
        G = t.group
        els = G.elements()
        for x in els[:12]:
            for g in els[:12]:
                assert t.class_index_of(x) == t.class_index_of(conj(G, g, x))


def test_q2_table_matches_s3():
    # GL_2(F_2) is isomorphic to S_3: same multiset of irreducible characters
    t = char_table(2)
    s3 = sn_character_table(3)
    got = sorted(
        sorted(np.round(np.real(row)).astype(int).tolist())
        for row in _expanded_rows(t)
    )
    want = sorted(
        sorted(np.round(np.real(row)).astype(int).tolist())
        for row in _expanded_rows(s3)
    )
    assert got == want


def _expanded_rows(t: CharacterTable):
    # repeat each class value class-size times so row multisets are comparable
    out = []
    for i in range(t.n_irreps):
        row = []
        for j in range(len(t.class_keys)):
            row.extend([t.values[i][j]] * t.class_sizes[j])
        out.append(np.asarray(row))
    return out


def test_linear_multiplicity_cap():
    for q in QS:
        t = char_table(q)
        for i in range(t.n_irreps):
            m = linear_multiplicities(t, i)
            assert 1 <= m <= 2
            pattern = linear_multiplicity_pattern(t, i)
            assert all(v == 1 for v in pattern.values())
            assert "U0" in pattern  # the trivial character always appears once


def test_linear_multiplicity_frozen_patterns():
    t2 = char_table(2)
    assert {t2.labels[i]: linear_multiplicities(t2, i) for i in range(3)} == LINEAR_MULT_Q2
    t3 = char_table(3)
    got = {t3.labels[i]: linear_multiplicities(t3, i) for i in range(t3.n_irreps)}
    assert got == LINEAR_MULT_Q3


def test_char_sum_over_subgroup_is_invariant_dimension():
    # sum of chi over a subgroup is |H| times the fixed-space dimension
    t = char_table(3)
    G = t.group
    H = subgroup_closure(G, [G.make(((1, 1), (0, 1)))], label="unipotent")
    for i in range(t.n_irreps):
        s = sum(complex(t.values[i, t.class_index_of(h)]) for h in sorted(H.value_set))
        assert abs(s.imag) < 1e-9
        dim_fixed = s.real / H.order
        assert abs(dim_fixed - round(dim_fixed)) < 1e-7
        assert round(dim_fixed) >= 0


def test_scalar_free_check():
    G = general_linear_group(2, 3)
    uni = subgroup_closure(G, [G.make(((1, 1), (0, 1)))])
    assert scalar_free_check(uni)
    scalars = subgroup_closure(G, [G.make(((2, 0), (0, 2)))])
    assert not scalar_free_check(scalars)
    with pytest.raises(ValueError):
        corollary_bound(scalars, 3)
    assert corollary_bound(uni, 3) == 28.0 * 9 / 3


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7))
def test_gelfand_graev_models_hold_each_nonlinear_irrep_once(q):
    t = char_table(q)
    model = GelfandGraev(t.group)
    chars = np.stack([model.character(model.phases(k)) for k in range(q - 1)])
    raw = t.element_values().conj() @ chars.T / t.group.order
    mults = np.rint(raw.real).astype(int)
    assert np.abs(raw - mults).max() < 1e-9
    # each model of dimension q^2 - 1 is a sum of table irreps
    assert (np.asarray(t.dims) @ mults == q * q - 1).all()
    for i, label in enumerate(t.labels):
        # U is linear; for q = 2 the one X irrep is linear too, and found once
        want = [0] * (q - 1) if label.startswith("U") else [0] * (q - 2) + [1]
        assert sorted(mults[i].tolist()) == want, label
