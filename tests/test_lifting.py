from dataclasses import replace

import pytest

from framedf import catalog
from framedf.families import DifferenceMatrix, verify_fdf, verify_pdf
from framedf.fields import make_field
from framedf.groups import AbelianGroup
from framedf.lifting import (check_lifting_conditions, compose_fdf_dm, d_set,
                             fdf_to_pdf, homogenize, lift_sdf, mul_table_dm)


def test_lemma_2_2_conditions_and_witnesses():
    data = catalog.lifting_datum("fdf_z7xF89")
    rep = check_lifting_conditions(data)
    assert rep.ok
    assert d_set(data, 0) == (19, 42, 43, 44, 45, 46, 47, 70)
    assert d_set(data, 1) == (3, 4, 13, 38, 47, 49, 57, 83)


def test_corrupted_phi_breaks_a_slot():
    data = catalog.lifting_datum("fdf_z7xF89")
    row = list(data.phi[0])
    row[0], row[2] = row[2], row[0]
    bad = replace(data, phi=(tuple(row),))
    rep = check_lifting_conditions(bad)
    assert not rep.ok and any(w[0] == "cond1" for w in rep.witnesses)


@pytest.mark.parametrize("value", [-88, 90])
def test_phi_entries_must_be_field_encodings(value):
    # -88 would wrap to 1 and pass; 90 would index past the field tables
    data = catalog.lifting_datum("fdf_z7xF89")
    with pytest.raises(ValueError, match=r"phi entry \(0, 0\)"):
        replace(data, phi=((value,) + data.phi[0][1:],))


@pytest.mark.parametrize("value", [-7, 7])
def test_sdf_elements_must_lie_in_the_group(value):
    # Z7 would reduce 7 (or -7) to 0: the datum would pass the lifting
    # conditions and lift to a family that fails verify_fdf
    data = catalog.lifting_datum("fdf_z7xF89")
    sdf = replace(data.sdf, blocks=tuple(tuple(value if x == 0 else x for x in b)
                                         for b in data.sdf.blocks))
    with pytest.raises(ValueError, match=rf"SDF block 0 entry 0 = {value} lies outside 0..6"):
        replace(data, sdf=sdf)


def test_lift_block_counts_match_formula():
    for name in ("fdf_z7xF89", "fdf_z119xF25", "fdf_z125xF67"):
        data = catalog.lifting_datum(name)
        fdf = lift_sdf(data)
        g = data.sdf.group.order
        q = data.field.q
        k = data.k
        assert len(fdf.blocks) == data.lam * g * (q - 1) // (k * (k - 1))
        assert verify_fdf(fdf).ok
        n = len(fdf.subgroup)
        assert len(fdf.frame_partition) == data.lam * n // (k - 1)
        part_size = (fdf.group.order - n) // (n * k)
        assert all(len(p) == part_size for p in fdf.frame_partition)


def test_z119_lift_shape():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z119xF25"))
    # 17 frame classes of (2975-119)/(119*8) = 3 blocks each
    assert len(fdf.blocks) == 51
    assert len(fdf.frame_partition) == 17
    assert all(len(p) == 3 for p in fdf.frame_partition)


def test_lift_refuses_failing_data():
    with pytest.raises(ValueError):
        lift_sdf(catalog.lifting_datum("fdf_z63xF25"))


def test_lift_deterministic_bytes():
    from framedf.serialize import family_to_dict
    import json
    a = json.dumps(family_to_dict(lift_sdf(catalog.lifting_datum("fdf_z7xF89"))),
                   sort_keys=True)
    b = json.dumps(family_to_dict(lift_sdf(catalog.lifting_datum("fdf_z7xF89"))),
                   sort_keys=True)
    assert a == b


def test_mul_table_and_homogenize():
    dm9 = mul_table_dm(make_field(3, 2))
    assert dm9.k == 9
    h9 = homogenize(dm9)
    assert h9.k == 8
    from framedf.families import is_homogeneous
    assert is_homogeneous(h9)
    dm25 = homogenize(mul_table_dm(make_field(5, 2)))
    assert dm25.k == 24
    assert is_homogeneous(DifferenceMatrix(dm25.group, dm25.rows[:6]))


def test_compose_counts_and_truncation():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    dm = homogenize(mul_table_dm(make_field(3, 2)))
    comp = compose_fdf_dm(fdf, dm)
    assert len(comp.blocks) == len(fdf.blocks) * dm.ncols
    assert verify_fdf(comp).ok
    with pytest.raises(ValueError):
        compose_fdf_dm(fdf, DifferenceMatrix(dm.group, dm.rows[:4]))


def test_compose_with_trivial_dm_is_isomorphic_copy():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    trivial = DifferenceMatrix(AbelianGroup.cyclic(1), tuple((0,) for _ in range(8)))
    comp = compose_fdf_dm(fdf, trivial)
    assert len(comp.blocks) == len(fdf.blocks)
    assert verify_fdf(comp).ok


def test_fdf_to_pdf_sizes_and_arithmetic():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    pdf = fdf_to_pdf(fdf)
    assert verify_pdf(pdf).ok
    sizes = sorted(len(b) for b in pdf.blocks)
    assert sizes == [7] + [8] * 77          # s = (623 - 8 + 1)/8 = 77
    assert pdf.lam == 7
    union = sorted(x for b in pdf.blocks for x in b)
    assert union == list(range(623))


def test_fdf_to_pdf_rejects_wrong_shape():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z125xF67"))
    # |N| = 125 but k - 1 = 5
    with pytest.raises(ValueError):
        fdf_to_pdf(fdf)


def test_block_multiplication_invariance():
    """The orbit expansion commutes with taking differences: the union of
    Delta(B * (1, s)) over s in the representative set equals Delta(B)
    scaled by the same set, as multisets."""
    from collections import Counter
    from framedf.lifting import canonical_reps
    data = catalog.lifting_datum("fdf_z7xF89")
    fld = data.field
    G = data.sdf.group
    frow, prow = data.sdf.blocks[0], data.phi[0]
    S = canonical_reps(data)
    union = Counter()
    base = Counter()
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            h = int(G.sub(frow[a], frow[b]))
            delta = int(fld.sub(prow[a], prow[b]))
            for s in S:
                union[(h, int(fld.mul(delta, int(s))))] += 1
            base[(h, delta)] += 1
    scaled = Counter()
    for (h, delta), mult in base.items():
        for s in S:
            scaled[(h, int(fld.mul(delta, int(s))))] += mult
    assert union == scaled


def test_compose_truncated_gf25_dm_like_theorem_5_6_shape():
    """Six-row truncation of the GF(25) table composed with a block-size-6
    frame family stays a verified frame family (the larger ingredient from
    the cited literature is out of scope; this exercises the same step)."""
    from framedf.families import DifferenceMatrix, is_homogeneous
    fdf = lift_sdf(catalog.lifting_datum("fdf_z125xF67"))
    dm = homogenize(mul_table_dm(make_field(5, 2)))
    assert dm.k == 24
    comp = compose_fdf_dm(fdf, dm)
    assert len(comp.blocks) == 275 * 25
    assert comp.group.order == 8375 * 25
    assert verify_fdf(comp).ok
