import numpy as np
import pytest

from framedf.fields import FiniteField, field_of_order, is_prime, make_field
from framedf.lifting import in_orbit_normal_form


def brute_primitive_root(p):
    for g in range(2, p):
        x, seen = 1, set()
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g


def test_make_field_gf25_paper_modulus():
    fld = make_field(5, 2, (2, 4, 1))      # x^2 - x + 2
    w = fld.encode([0, 1])
    # w^2 = w - 2
    assert fld.decode(fld.mul(w, w)) == fld.decode(fld.encode([-2, 1]))
    assert fld.generator == fld.encode([0, 1])
    assert fld.q == 25


def test_default_gf25_is_paper_modulus():
    assert make_field(5, 2).modulus == (2, 4, 1)


@pytest.mark.parametrize("p,expect", [(89, 3), (7, 3)])
def test_least_primitive_roots(p, expect):
    # oracle: full order check by brute force
    assert brute_primitive_root(p) == expect
    assert make_field(p).generator == expect


def test_dlog_examples():
    fld = make_field(7)
    assert fld.dlog(1) == 0
    assert fld.dlog(fld.generator) == 1
    assert fld.dlog(2) == 2           # 3^2 = 2 (mod 7)
    with pytest.raises(ZeroDivisionError):
        fld.dlog(0)


@pytest.mark.parametrize("p,m", [(7, 1), (89, 1), (5, 2), (2, 5), (3, 4), (101, 1)])
def test_dlog_round_trip(p, m):
    fld = make_field(p, m)
    for enc in range(1, fld.q):
        assert fld.pow_generator(fld.dlog(enc)) == enc


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 89])
def test_field_axioms_on_every_pair(q):
    """Addition is coefficient-wise mod p, sub undoes it, neg is 0 - a, mul
    distributes over add, and a scalar call gives a plain int (serialize
    refuses numpy scalars in the catalog's phi tuples)."""
    fld = field_of_order(q)
    enc = np.arange(q, dtype=np.int64)
    a, b = enc[:, None], enc[None, :]
    digits = np.array([fld.decode(x) for x in range(q)])         # (q, m) coefficients
    s = fld.add(a, b)
    assert np.array_equal(digits[s], (digits[:, None] + digits[None, :]) % fld.p)
    assert np.array_equal(fld.sub(s, b), np.broadcast_to(a, s.shape))
    assert np.array_equal(fld.neg(enc), fld.sub(0, enc))
    for c in range(q):
        assert np.array_equal(fld.mul(c, s), fld.add(fld.mul(c, a), fld.mul(c, b)))
    d, n, prod = fld.sub(a, b), fld.neg(enc), fld.mul(a, b)
    for x in range(q):
        assert fld.neg(x) == n[x] and type(fld.neg(x)) is int
        for y in range(q):
            got = (fld.add(x, y), fld.sub(x, y), fld.mul(x, y))
            assert got == (s[x, y], d[x, y], prod[x, y]) and {type(v) for v in got} == {int}
    assert type(fld.add(np.int64(1), np.int64(q - 1))) is int


@pytest.mark.parametrize("q", [7, 25])
def test_mul_inv_dlog_refuse_encodings_outside_the_field(q):
    """An encoding outside 0..q-1 raises ValueError naming the first one,
    scalar or array: it used to index the log table, which read -1 as
    q - 1 (at GF(7), mul(-1, 1) gave 6 and dlog(-1) gave 3) and raised
    IndexError at q."""
    fld = field_of_order(q)
    for bad in (-1, q):
        for call in (lambda: fld.mul(bad, 1), lambda: fld.mul(1, bad), lambda: fld.inv(bad),
                     lambda: fld.dlog(bad)):
            with pytest.raises(ValueError, match=f"^{bad} is not an encoding"):
                call()
    arr = np.array([1, 2, q + 3, -2])
    for call in (lambda: fld.mul(arr, 1), lambda: fld.mul(np.ones(4, dtype=np.int64), arr),
                 lambda: fld.inv(arr), lambda: fld.dlog(arr)):
        with pytest.raises(ValueError, match=f"^{q + 3} is not an encoding"):
            call()
    assert type(fld.inv(2)) is int and fld.mul(fld.inv(2), 2) == 1
    enc = np.arange(1, q)
    assert np.array_equal(fld.mul(fld.inv(enc), enc), np.ones(q - 1, dtype=np.int64))


def test_supplied_modulus_must_be_primitive():
    # x^2 + 1 over GF(5): its root has order 4, not 24
    with pytest.raises(ValueError):
        FiniteField(5, 2, (1, 0, 1))
    with pytest.raises(ValueError):
        make_field(4)


def test_class_of_examples():
    # the cyclotomic e-class of x is dlog(x) mod e
    f89 = make_field(89)
    assert f89.dlog(f89.generator) % 8 == 1
    assert f89.dlog(f89.pow_generator(10)) % 2 == 0
    f25 = make_field(5, 2)
    assert f25.dlog(f25.pow_generator(6)) % 6 == 0


def test_class_of_is_multiplicative():
    fld = make_field(89)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = rng.integers(1, 89, size=2)
        xy = int(fld.mul(int(x), int(y)))
        assert fld.dlog(xy) % 8 == (fld.dlog(int(x)) + fld.dlog(int(y))) % 8


def _is_transversal(fld, elems, e, lam):
    """Every cyclotomic e-class holds exactly lam of elems: the orbit normal
    form with orbit 1 (e = q - 1) and the e-classes as the d-classes."""
    logs = [fld.dlog(int(x)) if x else -1 for x in elems]
    return in_orbit_normal_form(logs, fld.q - 1, fld.q - 1, e, lam)


def test_transversal_examples():
    f89 = make_field(89)
    assert _is_transversal(f89, [19, 42, 43, 44, 45, 46, 47, 70], 8, 1)
    assert not _is_transversal(f89, list(range(1, 9)), 8, 1)
    assert _is_transversal(f89, range(1, 89), 8, 11)
    assert not _is_transversal(f89, [0, 42, 43, 44, 45, 46, 47, 70], 8, 1)


def test_transversal_independent_of_primitive_root():
    """lam-uniformity of class counts does not depend on which primitive
    element indexes the classes (labels permute; the count multiset stays)."""
    rng = np.random.default_rng(1)
    checked = 0
    for p in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101, 109, 113, 137,
              149, 157, 173, 181, 193, 197):
        e = max(d for d in (2, 4, 8) if (p - 1) % d == 0)
        fld = make_field(p)
        roots = [g for g in range(2, p) if _is_root(g, p)][:3]
        for trial in range(6):
            if trial % 2 == 0:
                # genuine 1-transversal: one element from each class
                sample = [fld.pow_generator(c + e * int(rng.integers(0, (p - 1) // e)))
                          for c in range(e)]
            else:
                sample = [int(v) for v in rng.integers(1, p, size=e)]
            base = _is_transversal(fld, sample, e, 1)
            for g in roots:
                dlog = _dlog_table(g, p)
                counts = np.bincount([dlog[x] % e for x in sample], minlength=e)
                assert bool(np.all(counts == 1)) == base, (p, g, sample)
        checked += 1
    assert checked == 20


def _is_root(g, p):
    x, seen = 1, set()
    for _ in range(p - 1):
        x = x * g % p
        seen.add(x)
    return len(seen) == p - 1


def _dlog_table(g, p):
    table = {}
    x = 1
    for i in range(p - 1):
        table[x] = i
        x = x * g % p
    return table


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_make_field_is_canonical():
    assert make_field(89) is make_field(89, 1) is field_of_order(89)
    assert make_field(89, 1, (5, 1)) is make_field(89)        # any monic linear modulus
    assert make_field(5, 2) is make_field(5, 2, (2, 4, 1)) is field_of_order(25)
    assert make_field(5, 2, [2, -1, 6]) is make_field(5, 2)    # coefficients read mod p
    with pytest.raises(ValueError):
        make_field(89, 1, (3, 2))
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_field_of_order():
    assert field_of_order(89) == make_field(89)
    assert field_of_order(25) == make_field(5, 2, (2, 4, 1))    # the paper's GF(25)
    assert (field_of_order(8).p, field_of_order(8).m) == (2, 3)
    for q in (0, 1, 6, 12, 45, 100):
        with pytest.raises(ValueError):
            field_of_order(q)
