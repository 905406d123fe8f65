"""Scrambler-permutation key recovery as a hidden subgroup computation: the
two stabilizer-shift functions on GL_k x S_n of a `mceliece` key, their lift
to the wreath product, right-injectivity certification, explicit hidden
subgroups, and shift extraction back to a valid private key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from . import fields, goppa
from .fields import Fq, Matrix
from .groups import (
    DirectProduct,
    Group,
    GroupElement,
    GROUP_ENUM_CAP,
    Subgroup,
    WreathZ2,
    wreath_z2,
)
from .mceliece import McElieceInstance, public_matrix
from .wreathrep import k_build

# ids per chunk of the scans over a whole group, which bounds their memory
SCAN_CHUNK = 1 << 16


# ---- the shift pair and its wreath lift ----

@dataclass
class ShiftProblem:
    group: DirectProduct
    f0: Callable[[object], Matrix]
    f1: Callable[[object], Matrix]
    witness: GroupElement  # a known shift, for oracle tests only


@dataclass
class HiddenSubgroupInstance:
    group: WreathZ2
    f: Callable[[object], tuple]
    problem: ShiftProblem

    def labels(self, cap: int = GROUP_ENUM_CAP) -> np.ndarray:
        """f as labels over the ids of the wreath group (equal labels iff
        equal values), built componentwise: f0 and f1 are evaluated once
        per base element instead of once per wreath element."""
        _require_cap(self.group, cap)
        codes: Dict[object, int] = {}
        base = [el.value for el in self.problem.group.elements()]
        l0 = np.array([codes.setdefault(self.problem.f0(v), len(codes)) for v in base])
        l1 = np.array([codes.setdefault(self.problem.f1(v), len(codes)) for v in base])
        m = len(codes)
        # id (b, x, y): (f0(x), f1(y)) for b = 0 and (f1(y), f0(x)) for b = 1
        return np.stack([
            l0[:, None] * m + l1[None, :],
            l1[None, :] * m + l0[:, None],
        ]).ravel()


def _memoized_stabilizer_map(F: Fq, target: Matrix) -> Callable[[object], Matrix]:
    cache: Dict[object, Matrix] = {}

    def f(value):
        got = cache.get(value)
        if got is None:
            Av, Pv = value
            got = fields.mat_mul(
                F, fields.mat_inv(F, Av), fields.apply_perm_to_cols(target, Pv)
            )
            cache[value] = got
        return got

    return f


def shift_problem(inst: McElieceInstance) -> ShiftProblem:
    """f0(A,P) = A^-1 M P and f1(A,P) = A^-1 M* P; the recorded witness
    shift is (A^-1, P) for the secret pair."""
    F = inst.field()
    G = inst.base_group()
    witness = G.make((fields.mat_inv(F, inst.A), inst.P))
    return ShiftProblem(
        group=G,
        f0=_memoized_stabilizer_map(F, inst.M),
        f1=_memoized_stabilizer_map(F, inst.Mstar),
        witness=witness,
    )


def lift_f(problem: ShiftProblem) -> HiddenSubgroupInstance:
    """Single function on (G x G) semidirect Z_2 hiding the two-coset
    subgroup: components in given order on b=0, swapped on b=1."""
    W = wreath_z2(problem.group)

    def f(value):
        xv, yv, bv = value
        if bv == 0:
            return (problem.f0(xv), problem.f1(yv))
        return (problem.f1(yv), problem.f0(xv))

    return HiddenSubgroupInstance(group=W, f=f, problem=problem)


# ---- coset structure of a function ----

def _require_cap(G: Group, cap: int) -> None:
    if G.order > cap:
        raise ValueError(f"|{G}| = {G.order} exceeds enumeration cap {cap}")


def _labels(f, G: Group, cap: int) -> np.ndarray:
    """f as labels over the ids of G: f may be a function on G's values or
    already such an array of non-negative integers."""
    _require_cap(G, cap)
    if isinstance(f, np.ndarray):
        if f.shape != (G.order,) or f.min() < 0:
            raise ValueError(f"a label array holds |{G}| = {G.order} non-negative integers")
        return f
    codes: Dict[object, int] = {}
    return np.fromiter(
        (codes.setdefault(f(v), len(codes)) for v in G.iter_values()),
        dtype=np.int64,
        count=G.order,
    )


def check_right_injective(f, G: Group, cap: int = GROUP_ENUM_CAP) -> bool:
    """f(x) = f(y) iff f(y x^-1) = f(identity), certified over the whole
    group through three facts that together are equivalent to the pairwise
    biconditional: every value class lies in one right translate of the
    identity class K, K is closed under multiplication (hence a subgroup),
    and the class count times |K| accounts for the whole group, which
    forces each class to equal its translate exactly.

    f is a function on G's values or its label array over G's ids (see
    HiddenSubgroupInstance.labels); the scans run on id arrays."""
    labels = _labels(f, G, cap)
    ids = G.ids()
    # the least id of each label's class; G.order marks an unused label
    first = np.full(labels.max() + 1, G.order, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(G.order))
    in_K = labels == labels[ids.identity]
    # y x^-1 in K, with x the first element of y's class
    rep_inv = ids.inverse[first[labels]]
    for lo in range(0, G.order, SCAN_CHUNK):
        y = np.arange(lo, min(lo + SCAN_CHUNK, G.order))
        if not in_K[ids.mul(y, rep_inv[y])].all():
            return False
    K = np.flatnonzero(in_K)
    rows = max(1, SCAN_CHUNK // len(K))
    for lo in range(0, len(K), rows):
        if not in_K[ids.mul(K[lo : lo + rows, None], K[None, :])].all():
            return False
    return int(np.count_nonzero(first < G.order)) * len(K) == G.order


def hidden_subgroup_of(
    f, G: Group, cap: int = GROUP_ENUM_CAP, label: str = "G|_f"
) -> Subgroup:
    """The stabilizer class {g : f(g) = f(1)} as a verified subgroup;
    requires right-injectivity so that f exactly separates its right
    cosets.  f is as for check_right_injective."""
    labels = _labels(f, G, cap)
    if not check_right_injective(labels, G, cap):
        raise ValueError("function is not injective under right multiplication")
    return Subgroup(G, np.flatnonzero(labels == labels[G.ids().identity]), label=label)


def _f0_fiber(prob: ShiftProblem, target: Matrix, cap: int) -> np.ndarray:
    """The ids of the base elements where f0 takes the value target, by
    full enumeration; f0's memo is the problem's, so values already
    computed (by HiddenSubgroupInstance.labels, say) are not computed
    again."""
    return np.flatnonzero([prob.f0(el.value) == target for el in prob.group.elements(cap)])


def brute_stabilizer(inst: McElieceInstance, cap: int = GROUP_ENUM_CAP) -> Subgroup:
    """H0 = {(A,P) : A^-1 M P = M} by full enumeration of GL_k x S_n."""
    prob = shift_problem(inst)
    return Subgroup(prob.group, _f0_fiber(prob, inst.M, cap), label="H0")


def shift_set(inst: McElieceInstance, cap: int = GROUP_ENUM_CAP) -> frozenset:
    """All group values s with f0(s x) = f1(x) for every x, which reduces
    to f0(s) = M*; equals the right coset H0 * (known shift)."""
    prob = shift_problem(inst)
    return frozenset(prob.group.ids().value_of(i) for i in _f0_fiber(prob, inst.Mstar, cap))


def stabilizer_order_product(inst: McElieceInstance) -> int:
    """|aut(code of M)| * |Fix(M)|, the closed form for |H0|."""
    F = inst.field()
    aut = goppa.automorphisms(goppa.LinearCode(F, inst.M))
    fix = len(fields.fix_group_elements(F, inst.M))
    return aut.order * fix


# ---- extraction ----

def extract_shift(K: Subgroup) -> GroupElement:
    """First component of the b=1 element of K with the smallest id; always
    a valid shift because the b=1 block is (H0 s, s^-1 H0)."""
    W = K.group
    if not isinstance(W, WreathZ2):
        raise ValueError("K must live in a wreath product")
    ids = W.ids()
    x, _, b = ids.split(K.ids)
    flipped = x[b == 1]
    if not flipped.size:
        raise ValueError("no component-swapping element in K")
    # K.ids is sorted, so flipped[0] belongs to the smallest b=1 id
    return GroupElement(W.base, ids.base.value_of(flipped[0]))


@dataclass
class AttackResult:
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


def attack(inst: McElieceInstance, cap: int = GROUP_ENUM_CAP) -> AttackResult:
    """End-to-end simulated attack: lift, read off the hidden subgroup by
    exhaustive evaluation, extract a shift, and verify it reproduces the
    public matrix."""
    F = inst.field()
    prob = shift_problem(inst)
    hidden = lift_f(prob)
    # raises ValueError unless the lifted function is right-injective
    K = hidden_subgroup_of(hidden.labels(cap), hidden.group, cap, label="K")
    # the same problem, so f0 is not evaluated a second time
    H0 = Subgroup(prob.group, _f0_fiber(prob, inst.M, cap), label="H0")
    oracle = k_build(H0, prob.witness)
    shift = extract_shift(K)
    Av, Pv = shift.value
    A_rec = fields.mat_inv(F, Av)
    P_rec = Pv
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
