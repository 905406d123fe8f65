"""Scrambler-permutation key recovery as a hidden subgroup computation: the
two stabilizer-shift functions on GL_k x S_n of a `mceliece` key as label
arrays over ids, their lift to the wreath product, the hidden subgroup
read off the lift with its one certificate (`hidden_subgroup_of`: one scan
for the coset facts, then the `Subgroup` constructor for closure), and
shift extraction back to a valid private key.

The lift is never stored: `LiftedLabels` evaluates it from the two base
label arrays, a scan chunk or an id array at a time, so the attack holds
no array of |W| entries and runs up to ATTACK_CAP wreath elements, past
the enumeration cap.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import fields
from .fields import Matrix
from .groups import (
    DirectProduct,
    Subgroup,
    WreathZ2,
    _distinct,
    require_enumerable,
    wreath_z2,
)
from .mceliece import McElieceInstance, public_matrix
from .wreathrep import k_ids

# ids per chunk of the scans over a whole group: one chunk's temporaries
# (about twenty int64 id arrays in a wreath product) stay under about 1 MiB;
# traced, the right-injectivity scan of (GL2(F3) x S3) wr Z2, class table
# and lifted labels included, peaks at 0.63 MiB in chunks of 1 << 12 ids,
# 1.16 MiB in 1 << 13
SCAN_CHUNK = 1 << 12

# largest wreath lift the attack takes, set by its memory: its one table
# over the lift's label space holds at most |G|^2 = |W| / 2 int32 ids (8 MiB
# here), beside one scan chunk; (3,2,4) and (4,2,3) fit, (5,2,3) with
# 16,588,800 elements does not
ATTACK_CAP = 1 << 22


# ---- the shift pair and its wreath lift ----

class ShiftProblem(NamedTuple):
    """f0(A,P) = A^-1 M P and f1(A,P) = A^-1 M* P as labels over the ids of
    GL_k x S_n, in one label space: l0[x] == l1[y] iff f0(x) = f1(y)."""
    group: DirectProduct
    l0: np.ndarray
    l1: np.ndarray
    witness: tuple  # a known shift's value: attack's k_formula_match and oracle tests read it


def shift_problem(inst: McElieceInstance) -> ShiftProblem:
    """The shift pair of inst; the recorded witness shift is (A^-1, P) for
    the secret pair.  Refused before any enumeration when the wreath lift
    exceeds ATTACK_CAP, which also keeps every code below q^(kn) < 2^24
    (241^3 at k = 1, n = 3), far inside int64."""
    G = inst.base_group()
    require_enumerable(wreath_z2(G), "the attack cap", ATTACK_CAP)
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


class LiftedLabels:
    """The single function on (G x G) semidirect Z_2 hiding the two-coset
    subgroup, as labels over its ids (equal labels iff equal values),
    evaluated on demand from the base label arrays: (f0(x), f1(y)) at
    (x, y, 0) is l0[x] m + l1[y] and (f1(y), f0(x)) at (x, y, 1) is
    l1[y] m + l0[x], with m base labels, so every label lies below
    size = m^2.  labels[lo:hi] evaluates a contiguous chunk of ids by whole
    (b, x) rows and labels[a] an id array of any shape through
    WreathIds.split; no array of |W| labels is formed."""

    def __init__(self, problem: ShiftProblem):
        self.group = wreath_z2(problem.group)
        self.m = int(max(problem.l0.max(), problem.l1.max())) + 1
        # m <= |G|, so every label is below |G|^2 = |W| / 2, which the cap
        # check in shift_problem keeps far below 2^31
        self.size = self.m**2
        self.l0, self.l1 = problem.l0.astype(np.int32), problem.l1.astype(np.int32)

    def __getitem__(self, a) -> np.ndarray:
        l0, l1, m = self.l0, self.l1, self.m
        if isinstance(a, slice):
            n = len(l0)
            first = a.start // n
            b, x = np.divmod(np.arange(first, (a.stop - 1) // n + 1), n)
            lx = l0[x][:, None]
            rows = np.where((b == 1)[:, None], l1 * m + lx, lx * m + l1)
            return rows.ravel()[a.start - first * n : a.stop - first * n]
        x, y, b = self.group.ids().split(a)
        lx, ly = l0[x], l1[y]
        return np.where(b == 1, ly * m + lx, lx * m + ly)


# ---- coset structure of a function ----

def hidden_subgroup_of(labels: LiftedLabels, label: str = "G|_f") -> Optional[Subgroup]:
    """The stabilizer class K = {g : f(g) = f(1)} as a verified subgroup of
    labels.group, for the function f given by its labels over that group's
    ids (equal labels iff equal values), or None unless f is
    right-injective: f(x) = f(y) iff f(y x^-1) = f(1), which f needs to
    separate K's right cosets exactly.  Three facts together are equivalent
    to that biconditional: every value class lies in one right translate of
    K, the class count times |K| accounts for the whole group, which forces
    each class to equal its translate exactly, and K is closed under
    inverses and products.  One pass over id chunks checks the first and
    reads K and the class count; the Subgroup constructor checks the
    closure."""
    G = labels.group
    ids, n = G.ids(), G.order
    k_label = labels[ids.identity]
    # x^-1 for the least id x of each label's class, n for a label not met
    # yet; the attack cap in shift_problem keeps ids in int32
    x_inv = np.full(labels.size, n, dtype=np.int32)
    K = []
    for lo in range(0, n, SCAN_CHUNK):
        y = np.arange(lo, min(lo + SCAN_CHUNK, n), dtype=np.int32)
        chunk = labels[lo : lo + len(y)]
        # ids come in ascending order, so a class first met in this chunk
        # has its least id here
        fresh = x_inv[chunk] == n
        new = chunk[fresh]
        np.minimum.at(x_inv, new, y[fresh])
        x_inv[new] = ids.inv(x_inv[new])
        # y x^-1 in K
        if not (labels[ids.mul(y, x_inv[chunk])] == k_label).all():
            return None
        K.append(y[chunk == k_label])
    K = np.concatenate(K)
    if int(np.count_nonzero(x_inv < n)) * len(K) != n:
        return None
    try:
        return Subgroup(G, K, label=label)
    except ValueError:
        # K is not closed, so its classes are not its right cosets
        return None


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
    """The attack's verdicts; when the lifted labels are not right-injective
    nothing is extracted and every later field is None."""
    right_injective: bool
    K: Optional[Subgroup] = None
    H0: Optional[Subgroup] = None
    k_formula_match: Optional[bool] = None
    size_match: Optional[bool] = None
    recovered_A: Optional[Matrix] = None
    recovered_P: Optional[Tuple[int, ...]] = None
    valid: Optional[bool] = None


def attack(inst: McElieceInstance) -> AttackResult:
    """End-to-end simulated attack: lift, certify that the lift is
    right-injective, read off the hidden subgroup by exhaustive evaluation,
    extract a shift, and verify it reproduces the public matrix."""
    F = inst.field()
    prob = shift_problem(inst)
    K = hidden_subgroup_of(LiftedLabels(prob), label="K")
    if K is None:
        return AttackResult(right_injective=False)
    # f0(identity) = M, so H0 = {g : f0(g) = M} is f0's class at the identity
    l0 = prob.l0
    H0 = Subgroup(prob.group, np.flatnonzero(l0 == l0[prob.group.ids().identity]), label="H0")
    Av, P_rec = extract_shift(K)
    A_rec = fields.mat_inv(F, Av)
    return AttackResult(
        right_injective=True,
        K=K,
        H0=H0,
        k_formula_match=np.array_equal(K.ids, k_ids(H0, prob.witness)),
        size_match=K.order == 2 * H0.order**2,
        recovered_A=A_rec,
        recovered_P=P_rec,
        valid=public_matrix(F, A_rec, inst.M, P_rec) == inst.Mstar,
    )
