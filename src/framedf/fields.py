"""Exact finite field arithmetic with discrete-log tables.

Elements of GF(p^m) are stored as integer encodings: the element with
polynomial-basis coefficients (c_0, ..., c_{m-1}) is encoded as
sum(c_i * p**i).  For prime fields the encoding is just the residue.
Addition is the law of the field's additive group, an AbelianGroup of m
digits mod p, so the field keeps no digit arithmetic of its own.  Every
field builds a full exp/log table at construction (fields in scope are
small; discrete logs are the workhorse of all cyclotomic reasoning), so
dlog and multiplication are O(1).  The cyclotomic e-class of a nonzero x
is dlog(x) mod e.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import AbelianGroup

__all__ = [
    "FiniteField",
    "make_field",
    "field_of_order",
    "least_primitive_root",
    "is_prime",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def least_primitive_root(p: int) -> int:
    """Smallest positive primitive root mod p (p prime), by direct order check."""
    phi = p - 1
    # distinct prime factors of p-1
    facs = []
    n = phi
    f = 2
    while f * f <= n:
        if n % f == 0:
            facs.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        facs.append(n)
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in facs):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")


class FiniteField:
    """GF(p^m) with a fixed primitive polynomial and primitive element.

    The generator is the residue class of x when m > 1 (a root of the
    primitive modulus), and the least primitive root mod p when m == 1.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.q = p**m
        if m == 1:
            if modulus is not None:
                mod = [x % p for x in modulus]
                if len(mod) != 2 or mod[1] != 1:
                    raise ValueError("prime-field modulus must be monic linear")
            self.modulus = (0, 1)
            self.generator = least_primitive_root(p) if p > 2 else 1
            times_generator = lambda x: x * self.generator % p
        else:
            if modulus is None:
                modulus = _default_primitive_poly(p, m)
            mod = [x % p for x in modulus]
            if len(mod) != m + 1 or mod[m] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            self.modulus = tuple(mod)
            self.generator = self.p  # encoding of x
            times_generator = self._times_x
        if not self._build_tables(times_generator):
            raise ValueError("modulus is not primitive over GF(%d)" % p)
        self._group = AbelianGroup.additive(self)

    # -- table construction -------------------------------------------------

    def _times_x(self, enc: int) -> int:
        """x * enc: the coefficients move up one degree, and the top one
        comes back down as x^m = -(modulus[0] + ... + modulus[m-1] x^(m-1))."""
        c = self.decode(enc)
        top = c[-1]
        return self.encode([-top * self.modulus[0]] +
                           [c[j - 1] - top * self.modulus[j] for j in range(1, self.m)])

    def _build_tables(self, times_generator: Callable[[int], int]) -> bool:
        """The exp/log tables of the generator's powers, stepping by
        times_generator; False when the powers cycle before q - 1 steps."""
        q = self.q
        exp, log = [], [-1] * q
        x = 1
        for i in range(q - 1):
            if log[x] >= 0:
                return False
            exp.append(x)
            log[x] = i
            x = times_generator(x)
        if x != 1:
            return False
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.array(log, dtype=np.int64)
        return True

    # -- element encoding ---------------------------------------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        enc = 0
        for c in reversed(list(coeffs)):
            enc = enc * self.p + (c % self.p)
        return enc

    def decode(self, enc: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(enc % self.p)
            enc //= self.p
        return tuple(out)

    # -- arithmetic on encodings (vectorised over numpy arrays) -------------

    def add(self, a, b):
        return self._group.add(a, b)

    def sub(self, a, b):
        return self._group.sub(a, b)

    def neg(self, a):
        return self._group.neg(a)

    def _encodings(self, a) -> np.ndarray:
        """a as an array; ValueError naming its first entry outside 0..q-1."""
        arr = np.asarray(a)
        bad = (arr < 0) | (arr >= self.q)
        if bad.any():
            raise ValueError(f"{arr.flat[np.argmax(bad)]} is not an encoding of {self!r} "
                             f"(0..{self.q - 1})")
        return arr

    def mul(self, a, b):
        a, b = self._encodings(a), self._encodings(b)
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        out = np.where((a == 0) | (b == 0), 0, out)
        return int(out) if out.ndim == 0 else out

    def inv(self, a):
        a = self._encodings(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no inverse")
        out = self._exp[(-self._log[a]) % (self.q - 1)]
        return int(out) if out.ndim == 0 else out

    def pow_generator(self, k: int) -> int:
        return int(self._exp[k % (self.q - 1)])

    def dlog(self, a) -> int:
        """Discrete log base the field generator; total on nonzero elements."""
        a = self._encodings(a)
        if np.any(a == 0):
            raise ZeroDivisionError("zero has no discrete log")
        out = self._log[a]
        return int(out) if out.ndim == 0 else out

    # -- misc ---------------------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "modulus": list(self.modulus),
            "generator": list(self.decode(self.generator)),
        }

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus, self.generator))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@lru_cache(maxsize=None)
def _default_primitive_poly(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least primitive monic polynomial of degree m over GF(p),
    compared by the ascending coefficient list (c0, c1, ..., c_{m-1})."""
    if (p, m) == (5, 2):
        # x^2 - x + 2, the polynomial all GF(25) catalog data is written in
        return (2, 4, 1)
    for enc in range(p**m):
        coeffs = []
        e = enc
        for _ in range(m):
            coeffs.append(e % p)
            e //= p
        cand = tuple(coeffs) + (1,)
        try:
            f = FiniteField(p, m, cand)
        except ValueError:
            continue
        del f
        return cand
    raise ArithmeticError(f"no primitive polynomial of degree {m} over GF({p})")


def make_field(p: int, m: int = 1, modulus: Optional[Sequence[int]] = None) -> FiniteField:
    """Build (and cache) GF(p^m).  A supplied modulus must be primitive.

    The arguments are normalised before the cache lookup, so every spelling
    of one field returns the same object: for m = 1 the modulus is dropped
    (after checking it is monic linear), and for m > 1 an omitted modulus
    becomes the default primitive polynomial and a given one is reduced
    mod p."""
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        if modulus is not None and (len(modulus) != 2 or modulus[1] % p != 1):
            raise ValueError("prime-field modulus must be monic linear")
        modulus = None
    elif modulus is None:
        modulus = _default_primitive_poly(p, m)
    else:
        modulus = tuple(x % p for x in modulus)
    return _cached_field(p, m, modulus)


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus: Optional[tuple]) -> FiniteField:
    return FiniteField(p, m, modulus)


def field_of_order(q: int) -> FiniteField:
    """The default GF(q), i.e. make_field(p, m) for q = p^m; ValueError
    when q is not a prime power."""
    for p in range(2, q + 1):
        if q % p == 0:              # p is the least prime factor of q
            m, r = 1, q // p
            while r % p == 0:
                m, r = m + 1, r // p
            if r == 1:
                return make_field(p, m)
            break
    raise ValueError(f"{q} is not a prime power")
