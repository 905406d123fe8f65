"""McEliece keys (M, A, P, M* = A M P) over F_q: seeded generation and
reading a key file back with tamper checks, in F_q tuple arithmetic only, so
`mceliece gen` loads no numpy."""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Tuple

from . import fields
from .fields import Fq, Matrix, field_of_order


class McElieceInstance(NamedTuple):
    q: int
    k: int
    n: int
    M: Matrix
    A: Matrix
    P: Tuple[int, ...]
    Mstar: Matrix
    seed: Optional[int] = None

    def field(self) -> Fq:
        return field_of_order(self.q)

    def base_group(self):  # GL_k(F_q) x S_n, which loads numpy
        from .groups import general_linear_group, product_group, symmetric_group
        return product_group(
            general_linear_group(self.k, self.q), symmetric_group(self.n)
        )

    @staticmethod
    def from_json(obj: dict) -> "McElieceInstance":
        inst = McElieceInstance(
            q=int(obj["q"]),
            k=int(obj["k"]),
            n=int(obj["n"]),
            M=tuple(tuple(int(x) for x in r) for r in obj["M"]),
            A=tuple(tuple(int(x) for x in r) for r in obj["A"]),
            P=tuple(int(x) for x in obj["P"]),
            Mstar=tuple(tuple(int(x) for x in r) for r in obj["Mstar"]),
            seed=obj.get("seed"),
        )
        F = inst.field()
        if public_matrix(F, inst.A, inst.M, inst.P) != inst.Mstar:
            raise ValueError("public matrix does not match A*M*P")
        if not fields.mat_is_invertible(F, inst.A):
            raise ValueError("scrambler is singular")
        return inst


def public_matrix(F: Fq, A: Matrix, M: Matrix, P: Tuple[int, ...]) -> Matrix:
    return fields.mat_mul(F, A, fields.apply_perm_to_cols(M, P))


def random_matrix(rng: random.Random, F: Fq, k: int, n: int) -> Matrix:
    return tuple(tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(k))


def random_invertible(rng: random.Random, F: Fq, k: int) -> Matrix:
    while True:
        A = random_matrix(rng, F, k, k)
        if fields.mat_is_invertible(F, A):
            return A


def random_instance(
    F: Fq, k: int, n: int, seed: int, min_rank: int = 1
) -> McElieceInstance:
    """Seeded instance whose message matrix has rank at least min_rank;
    low-rank matrices blow up the stabilizer (the zero matrix is fixed by
    all of GL_k x S_n) and carry little key information.  Raises ValueError
    when no k x n matrix reaches min_rank, instead of sampling forever."""
    if k < 1 or n < 1:
        raise ValueError(f"k and n must be at least 1, got k={k}, n={n}")
    if min_rank > min(k, n):
        raise ValueError(
            f"{min_rank} exceeds min(k, n) = {min(k, n)}: no message matrix has that rank"
        )
    rng = random.Random(seed)
    while True:
        M = random_matrix(rng, F, k, n)
        if fields.mat_rank(F, M) >= min_rank:
            break
    return keygen(F, M, seed=rng.randrange(2**32))


def keygen(F: Fq, M: Matrix, seed: int) -> McElieceInstance:
    """Instance with uniformly random scrambler (rejection sampling) and
    permutation (shuffle), deterministic from the seed."""
    k = len(M)
    n = len(M[0])
    rng = random.Random(seed)
    A = random_invertible(rng, F, k)
    p = list(range(n))
    rng.shuffle(p)
    P = tuple(p)
    return McElieceInstance(
        q=F.q, k=k, n=n, M=M, A=A, P=P,
        Mstar=public_matrix(F, A, M, P), seed=seed,
    )
