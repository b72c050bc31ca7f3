"""Finite abelian groups: cyclic groups, additive field groups, direct products.

A group is described by a descriptor tree (Cyclic(n) | AdditiveField(field) |
Product(...)) and its elements are integer encodings 0..order-1 in mixed
radix over the flattened tree leaves.  Addition is componentwise modular
addition on the leaf digits; all operations accept plain ints or numpy
arrays of encodings, refuse an entry outside 0..order-1 with ValueError,
and are pure.  This law is the only additive arithmetic in the package:
FiniteField.add, sub and neg are the law of the field's additive group.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .fields import FiniteField

__all__ = ["AbelianGroup", "CrtIsomorphism", "crt_iso"]


class AbelianGroup:
    """Use the factory classmethods cyclic / additive / product."""

    def __init__(self, kind: str, *, n: int = 0, field: Optional[FiniteField] = None,
                 factors: Sequence["AbelianGroup"] = ()):
        self.kind = kind
        self.n = n
        self.field = field
        self.factors = tuple(factors)
        if kind == "cyclic":
            if n < 1:
                raise ValueError("cyclic order must be >= 1")
            self._radices = (n,)
        elif kind == "field":
            assert field is not None
            self._radices = (field.p,) * field.m
        elif kind == "product":
            if not factors:
                raise ValueError("empty product")
            self._radices = tuple(r for f in self.factors for r in f._radices)
        else:
            raise ValueError(f"unknown group kind {kind}")
        self.order = math.prod(self._radices)
        self._radix_array = np.array(self._radices, dtype=np.int64)
        # mixed-radix weights, least significant leaf first
        w = []
        acc = 1
        for r in self._radices:
            w.append(acc)
            acc *= r
        self._weights = np.array(w, dtype=np.int64)

    # -- factories -----------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "AbelianGroup":
        return cls("cyclic", n=n)

    @classmethod
    def additive(cls, field: FiniteField) -> "AbelianGroup":
        return cls("field", field=field)

    @classmethod
    def of_field(cls, field: FiniteField) -> "AbelianGroup":
        """F_q^+ as the package writes it: Z_p for a prime field, the field
        group otherwise."""
        if field.m == 1:
            return cls.cyclic(field.p)
        return cls.additive(field)

    @classmethod
    def product(cls, *factors: "AbelianGroup") -> "AbelianGroup":
        return cls("product", factors=factors)

    # -- digit helpers --------------------------------------------------------

    def _digits(self, a):
        """The leaf digits of encodings a; ValueError names the first outside 0..order-1."""
        a = np.asarray(a, dtype=np.int64)
        bad = (a < 0) | (a >= self.order)
        if bad.any():
            raise ValueError(f"{a.flat[np.argmax(bad)]} is not an encoding of {self!r} "
                             f"(0..{self.order - 1})")
        out = np.empty(a.shape + (len(self._radices),), dtype=np.int64)
        for j, r in enumerate(self._radices):
            out[..., j] = a % r
            a = a // r
        return out

    def _undigits(self, d):
        """The encodings of digit rows d, as one weighted sum."""
        out = d @ self._weights
        return int(out) if out.ndim == 0 else out

    # -- group law -------------------------------------------------------------

    def _reduced(self, d):
        """The encodings of the digit array d, reduced in place."""
        d %= self._radix_array
        return self._undigits(d)

    # add and sub write into the first digit array when the shapes agree,
    # else into one new array
    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._reduced(np.add(da, db, out=da) if da.shape == db.shape else da + db)

    def sub(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._reduced(np.subtract(da, db, out=da) if da.shape == db.shape else da - db)

    def neg(self, a):
        d = self._digits(a)
        return self._reduced(np.negative(d, out=d))

    def enumerate(self) -> np.ndarray:
        return np.arange(self.order, dtype=np.int64)

    def generators(self) -> list[int]:
        """One generator per leaf: the element with digit 1 in that leaf and
        0 in the others."""
        return self._weights.tolist()

    # -- product structure ------------------------------------------------------

    def pack(self, *parts) -> int:
        """Encode an element of a product group from per-factor encodings."""
        if self.kind != "product":
            raise ValueError("pack only applies to product groups")
        enc = 0
        for fac, part in reversed(list(zip(self.factors, parts))):
            enc = enc * fac.order + int(part)
        return enc

    def factor_slice_subgroup(self, index: int) -> np.ndarray:
        """Encodings of factor_index x {0} x ... inside a product group."""
        if self.kind != "product":
            raise ValueError("subgroup slice only applies to product groups")
        fac = self.factors[index]
        weight = math.prod(f.order for f in self.factors[:index])
        return (np.arange(fac.order, dtype=np.int64) * weight)

    # -- misc ---------------------------------------------------------------------

    def descriptor(self) -> dict:
        if self.kind == "cyclic":
            return {"type": "cyclic", "n": self.n}
        if self.kind == "field":
            return {"type": "field", "field": self.field.descriptor()}
        return {"type": "product", "factors": [f.descriptor() for f in self.factors]}

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(repr(self.descriptor()))

    def __repr__(self):
        if self.kind == "cyclic":
            return f"Z{self.n}"
        if self.kind == "field":
            return f"{self.field!r}+"
        return " x ".join(repr(f) for f in self.factors)


class CrtIsomorphism:
    """Bijective homomorphism onto Z_n from a group whose leaf orders are
    pairwise coprime."""

    def __init__(self, group: AbelianGroup):
        leaf_orders = group._radices
        for a, b in itertools.combinations(leaf_orders, 2):
            if math.gcd(a, b) != 1:
                raise ValueError(f"leaf orders {a} and {b} of {group!r} share a factor")
        self.source = group
        self.n = group.order
        self.target = AbelianGroup.cyclic(self.n)
        # CRT weights: w_i = 1 mod n_i, 0 mod n_j (j != i)
        ws = []
        for ni in leaf_orders:
            rest = self.n // ni
            ws.append(rest * pow(rest, -1, ni) % self.n)
        self._weights = np.array(ws, dtype=np.int64)

    def apply(self, a):
        digits = self.source._digits(a)
        out = (digits * self._weights).sum(axis=-1) % self.n
        return int(out) if out.ndim == 0 else out

    def invert(self, x):
        x = np.asarray(x, dtype=np.int64)
        digits = np.stack([x % ni for ni in self.source._radices], axis=-1)
        return self.source._undigits(digits)


def crt_iso(group: AbelianGroup) -> CrtIsomorphism:
    """Isomorphism (with inverse) from a coprime product onto Cyclic(n)."""
    return CrtIsomorphism(group)
