import re

import numpy as np
import pytest

from framedf import lifting
from framedf.families import DifferenceMatrix
from framedf.fields import field_of_order, make_field
from framedf.groups import AbelianGroup, crt_iso


def z7xf89():
    return AbelianGroup.product(AbelianGroup.cyclic(7),
                                AbelianGroup.cyclic(89))


def test_group_ops_basics():
    g = AbelianGroup.cyclic(125)
    assert g.add(100, 50) == 25
    assert g.neg(0) == 0
    assert sorted(g.enumerate().tolist()) == list(range(125))


def test_an_entry_outside_the_encodings_is_refused_not_reduced():
    z7, z3 = AbelianGroup.cyclic(7), AbelianGroup.cyclic(3)
    c3xc5 = AbelianGroup.product(z3, AbelianGroup.cyclic(5))
    gf9 = field_of_order(9)
    for call, bad, text in [
        (lambda: z7.add(10, 1), 10, "Z7 (0..6)"),
        (lambda: z7.add(-1, 0), -1, "Z7 (0..6)"),
        (lambda: c3xc5.add(20, 0), 20, "Z3 x Z5 (0..14)"),
        (lambda: z7.sub(np.array([[1, 2], [7, 3]]), 0), 7, "Z7 (0..6)"),
        (lambda: z7.neg(np.array([0, -2, 9])), -2, "Z7 (0..6)"),
        (lambda: crt_iso(c3xc5).apply(np.array([3, 15])), 15, "Z3 x Z5 (0..14)"),
        (lambda: gf9.add(np.arange(10), 1), 9, "GF(3^2)+ (0..8)"),
        # verify_dm refuses this matrix's entry 5; homogenize reduced it to 2
        (lambda: lifting.homogenize(DifferenceMatrix(z3, ((0, 0, 0), (0, 1, 5)))), 5,
         "Z3 (0..2)"),
    ]:
        with pytest.raises(ValueError, match=rf"^{bad} is not an encoding of {re.escape(text)}$"):
            call()
    assert z7.add(np.array([6, 0]), 1).tolist() == [0, 1] and c3xc5.add(14, 1) == 12


def test_product_pack_unpack():
    g = z7xf89()
    # mixed radix, first factor least significant
    assert g.pack(3, 41) == 3 + 7 * 41


def test_additive_field_group():
    g = AbelianGroup.additive(make_field(5, 2))
    assert g.order == 25
    assert g.add(4, 4) == 3       # digitwise mod 5: 4+4=8 -> digit 3


def test_crt_examples():
    g = z7xf89()
    iso = crt_iso(g)
    assert iso.apply(g.pack(0, 0)) == 0
    assert iso.apply(g.pack(1, 1)) == 1
    x = iso.apply(g.pack(1, 0))
    assert x == 267 and x % 89 == 0 and x % 7 == 1


def test_crt_bijective_homomorphism():
    g = AbelianGroup.product(AbelianGroup.cyclic(9), AbelianGroup.cyclic(11),
                             AbelianGroup.cyclic(35))
    iso = crt_iso(g)
    encs = g.enumerate()
    image = iso.apply(encs)
    assert sorted(image.tolist()) == list(range(g.order))
    assert np.array_equal(iso.invert(image), encs)
    rng = np.random.default_rng(0)
    a = rng.integers(0, g.order, size=500)
    b = rng.integers(0, g.order, size=500)
    lhs = iso.apply(g.add(a, b))
    rhs = (iso.apply(a) + iso.apply(b)) % g.order
    assert np.array_equal(lhs, rhs)


def test_crt_rejects_bad_factors():
    with pytest.raises(ValueError, match="leaf orders 6 and 9 "):
        crt_iso(AbelianGroup.product(AbelianGroup.cyclic(6), AbelianGroup.cyclic(9)))
    with pytest.raises(ValueError, match="leaf orders 5 and 5 "):
        crt_iso(AbelianGroup.product(AbelianGroup.cyclic(7),
                                     AbelianGroup.additive(make_field(5, 2))))


def test_crt_reads_the_leaves_of_nested_products_and_prime_fields():
    g = AbelianGroup.product(AbelianGroup.product(AbelianGroup.cyclic(4), AbelianGroup.cyclic(9)),
                             AbelianGroup.additive(make_field(5)))
    iso = crt_iso(g)
    encs = g.enumerate()
    assert np.array_equal(np.sort(iso.apply(encs)), encs)
    assert np.array_equal(iso.invert(iso.apply(encs)), encs)
    a, b = np.meshgrid(encs, encs)
    assert np.array_equal(iso.apply(g.add(a, b)), (iso.apply(a) + iso.apply(b)) % g.order)


@pytest.mark.parametrize("q,expect", [(89, "Z89"), (25, "GF(5^2)+"), (8, "GF(2^3)+")])
def test_of_field_is_z_p_for_a_prime_field_and_the_field_group_otherwise(q, expect):
    fld = field_of_order(q)
    g = AbelianGroup.of_field(fld)
    assert repr(g) == expect and g.order == q
    encs = g.enumerate()
    assert np.array_equal(g.add(encs[:, None], encs), fld.add(encs[:, None], encs))


def test_factor_slice_subgroup():
    g = z7xf89()
    sub = g.factor_slice_subgroup(0)
    assert len(sub) == 7
    assert sub.tolist() == list(range(7))          # (x, 0) packs to x


def test_descriptor_round_trip_equality():
    g1 = z7xf89()
    g2 = AbelianGroup.product(AbelianGroup.cyclic(7), AbelianGroup.cyclic(89))
    assert g1 == g2 and hash(g1) == hash(g2)
