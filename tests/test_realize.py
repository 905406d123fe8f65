from __future__ import annotations

import numpy as np

from cosetlab.groups import general_linear_group
from cosetlab.realize import _regular_structure


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
