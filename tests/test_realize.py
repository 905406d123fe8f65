from __future__ import annotations

import numpy as np
import pytest

from cosetlab.groups import general_linear_group
from cosetlab.realize import _regular_structure, kron_stack, realize_table
from cosetlab.suites import big_wreath_table, grid_tables


def reference_regular_structure(G):
    """The Python Cayley loop the regular-representation route used before
    the id view, kept as the reference."""
    els = G.elements()
    index = {el.value: i for i, el in enumerate(els)}
    inv_index = np.array([index[G.inv_value(el.value)] for el in els])
    cay = np.empty((len(els), len(els)), dtype=np.int32)
    for i, g in enumerate(els):
        for x, h in enumerate(els):
            cay[i, x] = index[G.mul_values(g.value, h.value)]
    return els, index, inv_index, cay


def test_regular_structure_matches_python_cayley_loop():
    G = general_linear_group(2, 3)
    els, index, inv_index, cay = _regular_structure(G)
    want_els, want_index, want_inv, want_cay = reference_regular_structure(G)
    assert [el.value for el in els] == [el.value for el in want_els]
    assert index == want_index
    assert inv_index.dtype == want_inv.dtype and np.array_equal(inv_index, want_inv)
    assert cay.dtype == want_cay.dtype and np.array_equal(cay, want_cay)


def mat_value_stack(real):
    """The per-element loop the lemma checks ran before stacks, kept as
    the reference."""
    return np.stack([real.mat_value(el.value) for el in real.group.elements()])


@pytest.mark.parametrize("name", [name for name, _ in grid_tables()])
def test_stack_equals_mat_value_loop(name):
    table = dict(grid_tables())[name]()
    for real in realize_table(table):
        got = real.stack()
        assert got.shape == (table.group.order, real.dim, real.dim)
        assert np.array_equal(got, mat_value_stack(real))
        assert real.stack() is got and not got.flags.writeable


def test_big_wreath_stacks_equal_mat_value_loop():
    # |W| = 2592; the lemma grid reads the irreps of dimension at most 2
    table = big_wreath_table()
    reals = [r for r in realize_table(table) if r.dim <= 2]
    assert {r.label.split("{")[0] for r in reals} == {"pair", "plus", "minus"}
    for real in reals:
        assert np.array_equal(real.stack(), mat_value_stack(real))


def test_kron_stack_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    B = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    got = kron_stack(A, B)
    assert got.shape == (3, 4, 6, 6)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(got[i, j], np.kron(A[i], B[j]))
