"""Small finite fields F_{p^n} and exact linear algebra over them.

Field elements are integers in [0, q).  The base-p digits of an element,
least significant first, are the coefficients of its residue polynomial,
so 0 and 1 are always the additive and multiplicative identities.
Multiplication runs through discrete log tables built once per field.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

FIELD_SIZE_CAP = 4096
GL_ENUM_CAP = 10**6
GROUP_ENUM_CAP = 200_000

Matrix = Tuple[Tuple[int, ...], ...]


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def factorize(m: int) -> dict:
    """Prime factorization {prime: exponent} by trial division."""
    out: dict = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def split_prime_power(q: int) -> Tuple[int, int]:
    """Return (p, n) with q = p^n, or raise if q is not a prime power."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return p, n


def _irreducible_over_prime(f: List[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    deg = len(f) - 1
    Fp = field_make(p)
    for d in range(1, deg // 2 + 1):
        for m in range(p**d):
            den = [(m // p**j) % p for j in range(d)] + [1]
            _, rem = poly_divmod(Fp, f, den)
            if not rem:
                return False
    return True


class Fq:
    """The finite field with q = p^n elements.

    The modulus is the irreducible monic degree-n polynomial whose
    coefficient tuple, read from the x^(n-1) term down, is smallest; the
    stored generator is the smallest element of multiplicative order q-1.
    Both choices are deterministic so encodings are stable across runs.
    """

    def __init__(self, p: int, n: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("degree must be >= 1")
        q = p**n
        if q > FIELD_SIZE_CAP:
            raise ValueError(f"field order {q} exceeds cap {FIELD_SIZE_CAP}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = self._find_modulus()
        self._exp, self._log = self._build_log_tables()
        self.generator = self._exp[1] if q > 2 else 1

    def __repr__(self) -> str:
        return f"Fq({self.p}^{self.n})" if self.n > 1 else f"Fq({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash(("Fq", self.p, self.n))

    # -- construction internals --

    def _find_modulus(self) -> Tuple[int, ...]:
        p, n = self.p, self.n
        if n == 1:
            return (0, 1)
        for m in range(p**n):
            f = [(m // p**j) % p for j in range(n)] + [1]
            if _irreducible_over_prime(f, p):
                return tuple(f)
        raise RuntimeError("no irreducible modulus found")  # unreachable for prime p

    def digits(self, a: int) -> Tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            out.append(a % p)
            a //= p
        return tuple(out)

    def _undigits(self, ds: Sequence[int]) -> int:
        a = 0
        for d in reversed(ds):
            a = a * self.p + d
        return a

    def _slow_mul(self, a: int, b: int) -> int:
        p = self.p
        if self.n == 1:  # F_p itself, which poly_divmod below runs on
            return a * b % p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        _, rem = poly_divmod(field_make(p), prod, self.modulus)
        return self._undigits(rem + (0,) * (self.n - len(rem)))

    def _slow_pow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._slow_mul(out, base)
            base = self._slow_mul(base, base)
            e >>= 1
        return out

    def _build_log_tables(self) -> Tuple[List[int], List[int]]:
        q = self.q
        if q == 2:
            return [1], [0, 0]
        prime_divs = list(factorize(q - 1))
        gen = None
        for u in range(1, q):
            if all(self._slow_pow(u, (q - 1) // ell) != 1 for ell in prime_divs):
                gen = u
                break
        if gen is None:
            raise AssertionError("multiplicative group of a field is cyclic")
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._slow_mul(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        return exp, log

    # -- arithmetic --

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        return self._undigits(
            [(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))]
        )

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.n == 1:
            return (-a) % self.p
        return self._undigits([(-x) % self.p for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def tables(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """Full q x q addition and multiplication tables, for vectorized
        arithmetic on arrays of field elements."""
        import numpy as np  # the rest of this module is numpy-free
        q, p = self.q, self.p
        a = np.arange(q)
        add = np.zeros((q, q), dtype=np.int64)
        for d in range(self.n):
            digit = (a // p**d) % p
            add += ((digit[:, None] + digit[None, :]) % p) * p**d
        log = np.array(self._log)
        mul = np.array(self._exp)[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        return add, mul

    def log(self, a: int) -> int:
        """Discrete log base the stored generator; a must be a unit."""
        if a == 0:
            raise ZeroDivisionError("log of 0")
        return self._log[a]

    def exp(self, k: int) -> int:
        return self._exp[k % (self.q - 1)] if self.q > 2 else 1


_FIELD_CACHE: dict = {}


def field_make(p: int, n: int = 1) -> Fq:
    key = (p, n)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Fq(p, n)
    return _FIELD_CACHE[key]


def field_of_order(q: int) -> Fq:
    if q > FIELD_SIZE_CAP:  # before trial division, which is slow on a large prime
        raise ValueError(f"field order {q} exceeds cap {FIELD_SIZE_CAP}")
    p, n = split_prime_power(q)
    return field_make(p, n)


def embed_map(F: Fq, E: Fq) -> List[int]:
    """Embedding F -> E for F = p^n, E = p^m with n | m, as a lookup list.

    Maps the polynomial basis of F onto powers of the smallest root of F's
    modulus inside E, which makes the embedding deterministic.
    """
    if F.p != E.p or E.n % F.n != 0:
        raise ValueError(f"no embedding of {F} into {E}")
    if F.n == E.n:
        return list(range(F.q))
    root = None
    for z in E.elements():
        acc = 0
        for c in reversed(F.modulus):
            acc = E.add(E.mul(acc, z), c % E.p)
        if acc == 0:
            root = z
            break
    if root is None:
        raise AssertionError("modulus splits in any extension of its own field")
    powers = [E.pow(root, i) if i else 1 for i in range(F.n)]
    table = []
    for a in F.elements():
        img = 0
        for c, w in zip(F.digits(a), powers):
            img = E.add(img, E.mul(c % E.p, w))
        table.append(img)
    return table


# ---- polynomials over Fq (little-endian coefficient tuples) ----

def poly_trim(f: Sequence[int]) -> Tuple[int, ...]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def poly_deg(f: Sequence[int]) -> int:
    f = poly_trim(f)
    return len(f) - 1


def poly_eval(F: Fq, f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(list(f)):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_divmod(F: Fq, num: Sequence[int], den: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    num, den = list(poly_trim(num)), poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    lead_inv = F.inv(den[-1])
    quot = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = F.mul(num[i], lead_inv)
        if c:
            quot[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] = F.sub(num[i - dd + j], F.mul(c, dc))
    return poly_trim(quot), poly_trim(num)


def poly_gcd(F: Fq, f: Sequence[int], g: Sequence[int]) -> Tuple[int, ...]:
    a, b = poly_trim(f), poly_trim(g)
    while b:
        _, r = poly_divmod(F, a, b)
        a, b = b, r
    if a:
        lead_inv = F.inv(a[-1])
        a = tuple(F.mul(c, lead_inv) for c in a)
    return a


# ---- matrices as tuples of row tuples ----

def mat_identity(k: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(F: Fq, A: Matrix, B: Matrix) -> Matrix:
    if len(A[0]) != len(B):
        raise ValueError("matrix shape mismatch")
    bt = list(zip(*B))
    out = []
    for row in A:
        new = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                acc = F.add(acc, F.mul(x, y))
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def _eliminate(F: Fq, rows: List[List[int]], reduce_up: bool) -> Tuple[List[List[int]], List[int]]:
    """In-place Gaussian elimination, first-nonzero pivoting; returns pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pr = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        targets = range(n_rows) if reduce_up else range(r + 1, n_rows)
        for i in targets:
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def mat_rank(F: Fq, A: Matrix) -> int:
    if not A or not A[0]:
        return 0
    _, pivots = _eliminate(F, [list(r) for r in A], reduce_up=False)
    return len(pivots)


def mat_rref(F: Fq, A: Matrix) -> Matrix:
    """Reduced row echelon form with zero rows dropped; canonical per row space."""
    if not A or not A[0]:
        return ()
    rows, pivots = _eliminate(F, [list(r) for r in A], reduce_up=True)
    return tuple(tuple(r) for r in rows[: len(pivots)])


def mat_inv(F: Fq, A: Matrix) -> Matrix:
    k = len(A)
    if any(len(r) != k for r in A):
        raise ValueError("inverse needs a square matrix")
    aug = [list(A[i]) + [1 if j == i else 0 for j in range(k)] for i in range(k)]
    rows, pivots = _eliminate(F, aug, reduce_up=True)
    if len(pivots) < k or pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return tuple(tuple(r[k:]) for r in rows)


def mat_is_invertible(F: Fq, A: Matrix) -> bool:
    return len(A) == len(A[0]) and mat_rank(F, A) == len(A)


def perm_matrix(pi: Sequence[int]) -> Matrix:
    n = len(pi)
    return tuple(tuple(1 if j == pi[i] else 0 for j in range(n)) for i in range(n))


def apply_perm_to_cols(M: Matrix, pi: Sequence[int]) -> Matrix:
    """Right action M -> M P_pi: the entry in column j moves to column pi[j]."""
    out = []
    for row in M:
        new = [0] * len(row)
        for j, x in enumerate(row):
            new[pi[j]] = x
        out.append(tuple(new))
    return tuple(out)


def glk_order(q: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= q**k - q**i
    return out


def enumerate_glk(F: Fq, k: int) -> Iterator[Matrix]:
    """Yield every invertible k x k matrix over F exactly once."""
    if glk_order(F.q, k) > GL_ENUM_CAP:
        raise ValueError(f"|GL_{k}(F_{F.q})| exceeds cap {GL_ENUM_CAP}")
    for entries in itertools.product(F.elements(), repeat=k * k):
        M = tuple(entries[i * k : (i + 1) * k] for i in range(k))
        if mat_is_invertible(F, M):
            yield M


def fix_group_elements(F: Fq, M: Matrix) -> List[Matrix]:
    """All S in GL_k with S M = M, by exhaustive enumeration."""
    return [S for S in enumerate_glk(F, len(M)) if mat_mul(F, S, M) == M]

