"""Scrambler-permutation key recovery as a hidden subgroup computation: the
two stabilizer-shift functions on GL_k x S_n of a `mceliece` key as label
arrays over ids, their lift to the wreath product, right-injectivity
certification, explicit hidden subgroups, and shift extraction back to a
valid private key.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from . import fields
from .fields import Matrix
from .groups import (
    DirectProduct,
    Group,
    GROUP_ENUM_CAP,
    Subgroup,
    WreathZ2,
    _distinct,
    wreath_z2,
)
from .mceliece import McElieceInstance, public_matrix
from .wreathrep import k_build

# ids per chunk of the scans over a whole group: one chunk's temporaries
# (a dozen id arrays in a wreath product) stay under about 1 MiB
SCAN_CHUNK = 1 << 13


# ---- the shift pair and its wreath lift ----

class ShiftProblem(NamedTuple):
    """f0(A,P) = A^-1 M P and f1(A,P) = A^-1 M* P as labels over the ids of
    GL_k x S_n, in one label space: l0[x] == l1[y] iff f0(x) = f1(y)."""
    group: DirectProduct
    l0: np.ndarray
    l1: np.ndarray
    witness: tuple  # the value of a known shift, for oracle tests only


def shift_problem(inst: McElieceInstance) -> ShiftProblem:
    """The shift pair of inst; the recorded witness shift is (A^-1, P) for
    the secret pair.  Refused before any enumeration when the wreath lift
    exceeds GROUP_ENUM_CAP, which also keeps every code below
    q^(kn) < 2^18."""
    G = inst.base_group()
    _require_cap(wreath_z2(G))
    F, k = inst.field(), inst.k
    gl, sn = G.ids().factors
    add, mul = F.tables()
    # A^-1 T over F_q for every A and T = M, M*: (|GL_k|, 2, k, n)
    A_inv = gl.array[gl.inverse][:, None]
    T = np.array([inst.M, inst.Mstar])[:, :, None, :]
    AT = mul[A_inv[..., 0, None], T[:, 0]]
    for l in range(1, k):
        AT = add[AT, mul[A_inv[..., l, None], T[:, l]]]
    # column j of A^-1 T, read in base q, is the digit of place P[j] in base
    # q^k; codes[a, t, p] is the code at base id a*|S_n| + p
    codes = (F.q ** np.arange(k) @ AT) @ (F.q**k) ** sn.array.T
    labels = np.searchsorted(_distinct(codes), codes)
    return ShiftProblem(
        group=G,
        l0=labels[:, 0].ravel(),
        l1=labels[:, 1].ravel(),
        witness=G.make((fields.mat_inv(F, inst.A), inst.P)),
    )


def lifted_labels(problem: ShiftProblem) -> np.ndarray:
    """The single function on (G x G) semidirect Z_2 hiding the two-coset
    subgroup, as labels over its ids (equal labels iff equal values):
    (f0(x), f1(y)) at (x, y, 0) and (f1(y), f0(x)) at (x, y, 1)."""
    m = int(max(problem.l0.max(), problem.l1.max())) + 1
    # m <= |G|, so every label is below m^2 <= |W| / 2, which the cap check
    # in shift_problem keeps far below 2^31
    l0, l1 = problem.l0.astype(np.int32), problem.l1.astype(np.int32)
    n = len(l0)
    out = np.empty((2, n, n), dtype=np.int32)
    np.multiply(l0[:, None], m, out=out[0])
    out[0] += l1[None, :]
    np.multiply(l1[None, :], m, out=out[1])
    out[1] += l0[:, None]
    return out.ravel()


# ---- coset structure of a function ----

def _require_cap(G: Group) -> None:
    if G.order > GROUP_ENUM_CAP:
        raise ValueError(f"|{G}| = {G.order} exceeds enumeration cap {GROUP_ENUM_CAP}")


def check_right_injective(labels, G: Group) -> bool:
    """f(x) = f(y) iff f(y x^-1) = f(identity), for the function f given by
    its label array over G's ids (equal labels iff equal values), certified
    over the whole group through three facts that together are equivalent
    to the pairwise biconditional: every value class lies in one right
    translate of the identity class K, K is closed under multiplication
    (hence a subgroup), and the class count times |K| accounts for the
    whole group, which forces each class to equal its translate exactly."""
    _require_cap(G)
    labels = np.asarray(labels)
    if labels.shape != (G.order,) or labels.min() < 0:
        raise ValueError(f"a label array holds |{G}| = {G.order} non-negative integers")
    if labels.max() >= G.order:
        # sparse labels: number the classes densely, so the class table
        # below has at most |G| entries
        labels = np.searchsorted(_distinct(labels), labels)
    ids, n = G.ids(), G.order
    k_label = labels[ids.identity]
    chunks = [slice(lo, min(lo + SCAN_CHUNK, n)) for lo in range(0, n, SCAN_CHUNK)]
    # the least id of each label's class; n marks an unused label
    first = np.full(labels.max() + 1, n, dtype=np.int64)
    for c in chunks:
        np.minimum.at(first, labels[c], np.arange(c.start, c.stop))
    # y x^-1 in K, with x the first element of y's class
    for c in chunks:
        rep_inv = ids.inverse[first[labels[c]]]
        if not (labels[ids.mul(np.arange(c.start, c.stop), rep_inv)] == k_label).all():
            return False
    K = np.flatnonzero(labels == k_label)
    rows = max(1, SCAN_CHUNK // len(K))
    for lo in range(0, len(K), rows):
        if not (labels[ids.mul(K[lo : lo + rows, None], K[None, :])] == k_label).all():
            return False
    return int(np.count_nonzero(first < n)) * len(K) == n


def hidden_subgroup_of(labels, G: Group, label: str = "G|_f") -> Subgroup:
    """The stabilizer class {g : f(g) = f(1)} as a verified subgroup;
    requires right-injectivity so that f exactly separates its right
    cosets.  labels are as for check_right_injective, which checks them."""
    labels = np.asarray(labels)
    if not check_right_injective(labels, G):
        raise ValueError("function is not injective under right multiplication")
    return Subgroup(G, np.flatnonzero(labels == labels[G.ids().identity]), label=label)


def stabilizer_order_product(inst: McElieceInstance) -> int:
    """|aut(code of M)| * |Fix(M)|, the closed form for |H0|."""
    from . import goppa  # only the closed form reads code automorphisms

    F = inst.field()
    aut = goppa.automorphisms(goppa.LinearCode(F, inst.M))
    fix = len(fields.fix_group_elements(F, inst.M))
    return aut.order * fix


# ---- extraction ----

def extract_shift(K: Subgroup):
    """First component of the b=1 element of K with the smallest id, as a
    base group value; always a valid shift because the b=1 block is
    (H0 s, s^-1 H0)."""
    W = K.group
    if not isinstance(W, WreathZ2):
        raise ValueError("K must live in a wreath product")
    ids = W.ids()
    x, _, b = ids.split(K.ids)
    flipped = x[b == 1]
    if not flipped.size:
        raise ValueError("no component-swapping element in K")
    # K.ids is sorted, so flipped[0] belongs to the smallest b=1 id
    return ids.base.value_of(flipped[0])


class AttackResult(NamedTuple):
    instance: McElieceInstance
    right_injective: bool
    K: Subgroup
    H0: Subgroup
    k_formula_match: bool
    size_match: bool
    recovered_A: Matrix
    recovered_P: Tuple[int, ...]
    valid: bool

    def as_json(self) -> dict:
        return {
            "right_injective": self.right_injective,
            "K_order": self.K.order,
            "H0_order": self.H0.order,
            "k_formula_match": self.k_formula_match,
            "size_match": self.size_match,
            "recovered_A": [list(r) for r in self.recovered_A],
            "recovered_P": list(self.recovered_P),
            "valid": self.valid,
        }


def attack(inst: McElieceInstance) -> AttackResult:
    """End-to-end simulated attack: lift, read off the hidden subgroup by
    exhaustive evaluation, extract a shift, and verify it reproduces the
    public matrix."""
    F = inst.field()
    prob = shift_problem(inst)
    # raises ValueError unless the lifted function is right-injective
    K = hidden_subgroup_of(lifted_labels(prob), wreath_z2(prob.group), label="K")
    # f0(identity) = M, so H0 = {g : f0(g) = M} is f0's class at the identity
    l0 = prob.l0
    H0 = Subgroup(prob.group, np.flatnonzero(l0 == l0[prob.group.ids().identity]), label="H0")
    oracle = k_build(H0, prob.witness)
    Av, P_rec = extract_shift(K)
    A_rec = fields.mat_inv(F, Av)
    return AttackResult(
        instance=inst,
        right_injective=True,
        K=K,
        H0=H0,
        k_formula_match=np.array_equal(K.ids, oracle.subgroup.ids),
        size_match=K.order == 2 * H0.order**2,
        recovered_A=A_rec,
        recovered_P=P_rec,
        valid=public_matrix(F, A_rec, inst.M, P_rec) == inst.Mstar,
    )
