import tracemalloc
from collections import Counter

import numpy as np
import pytest

from framedf import catalog, families
from framedf.families import (FDF, PDF, RELATIVE_DF, SDF, DesignFamily,
                              DifferenceMatrix, delta_block, is_homogeneous,
                              verify_dm, verify_fdf, verify_pdf,
                              verify_relative_df, verify_sdf)
from framedf.fields import make_field
from framedf.groups import AbelianGroup
from framedf.lifting import lift_sdf, mul_table_dm


def brute_delta(group, elems):
    out = []
    for a in range(len(elems)):
        for b in range(len(elems)):
            if a != b:
                out.append(int(group.sub(elems[a], elems[b])))
    return out


def test_delta_block_examples():
    z7 = AbelianGroup.cyclic(7)
    assert sorted(delta_block(z7, (0, 1, 3)).tolist()) == [1, 2, 3, 4, 5, 6]
    assert delta_block(z7, (0, 0)).tolist() == [0, 0]
    z63 = AbelianGroup.cyclic(63)
    blk = tuple(x % 63 for x in (20, 20, -20, -20, 29, 29, -29, -29))
    d = delta_block(z63, blk)
    assert len(d) == 56
    assert int((d == 0).sum()) == 8
    with pytest.raises(ValueError):
        delta_block(z7, (3,))


def test_delta_block_matches_brute_force_and_is_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        g = AbelianGroup.cyclic(n)
        k = int(rng.integers(2, 9))
        blk = tuple(int(x) for x in rng.integers(0, n, size=k))
        got = sorted(delta_block(g, blk).tolist())
        assert got == sorted(brute_delta(g, blk))
        assert len(got) == k * (k - 1)
        counts = Counter(got)
        assert all(counts[x] == counts[(n - x) % n] for x in counts)


def test_verify_sdf_catalog_and_necessary_conditions():
    fam = catalog.family("z7_8_8")
    assert verify_sdf(fam).ok and fam.lam == 8
    fam125 = catalog.family("z125_6_6")
    assert verify_sdf(fam125).ok and fam125.lam == 6
    odd = DesignFamily(SDF, AbelianGroup.cyclic(7), 7, ((0, 0, 1, 1, 2, 2, 4, 4),))
    rep = verify_sdf(odd)
    assert not rep.ok and rep.detail == "lam = 7 is odd" and rep.witnesses == (("lam", 7),)


def test_verify_sdf_against_dictionary_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        g = AbelianGroup.cyclic(n)
        k = int(rng.integers(2, 6))
        blocks = tuple(tuple(int(x) for x in rng.integers(0, n, size=k))
                       for _ in range(int(rng.integers(1, 5))))
        counts = Counter()
        for blk in blocks:
            counts.update(brute_delta(g, blk))
        mus = {counts[h] for h in range(n)}
        mu = mus.pop() if len(mus) == 1 else -1
        fam = DesignFamily(SDF, g, max(mu, 0), blocks)
        rep = verify_sdf(fam)
        expect = (mu >= 0 and mu % 2 == 0 and (mu * n) % (k * (k - 1)) == 0)
        assert rep.ok == expect


def test_single_block_is_difference_set_not_sdf():
    z7 = AbelianGroup.cyclic(7)
    fam = DesignFamily(SDF, z7, 1, ((0, 1, 3),))
    assert not verify_sdf(fam).ok
    ds = DesignFamily(RELATIVE_DF, z7, 1, ((0, 1, 3),), subgroup=(0,))
    assert verify_relative_df(ds).ok


def test_relative_df_vacuous_and_violations():
    z7 = AbelianGroup.cyclic(7)
    empty = DesignFamily(RELATIVE_DF, z7, 1, (), subgroup=tuple(range(7)))
    assert verify_relative_df(empty).ok
    g = AbelianGroup.product(AbelianGroup.cyclic(7), AbelianGroup.cyclic(2))
    n = tuple(int(x) for x in g.factor_slice_subgroup(0))
    blk = (int(g.pack(0, 0)), int(g.pack(0, 1)))
    fam = DesignFamily(RELATIVE_DF, g, 1, (blk,), subgroup=tuple(sorted(n)))
    rep = verify_relative_df(fam)
    assert not rep.ok
    # the difference (0,1) equals its own negative in the Z2 coordinate
    assert any(count == 2 for _, count in rep.witnesses)


def test_verify_fdf_and_partition_perturbation():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    assert len(fdf.frame_partition) == 1
    assert verify_fdf(fdf).ok
    # moving a block between parts must break the frame property
    parts = (fdf.frame_partition[0][:-1], (fdf.frame_partition[0][-1],))
    broken = DesignFamily(FDF, fdf.group, fdf.lam, fdf.blocks, fdf.subgroup, parts)
    rep = verify_fdf(broken)
    assert not rep.ok and rep.detail.startswith("frame partition has 2 parts, expected 1")


def test_verify_fdf_partition_must_cover():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    missing = fdf.frame_partition[0][-1]
    bad = DesignFamily(FDF, fdf.group, fdf.lam, fdf.blocks, fdf.subgroup,
                       (fdf.frame_partition[0][:-1],))
    rep = verify_fdf(bad)
    assert not rep.ok
    assert f"block index {missing} " in rep.detail


def test_relative_verifiers_reject_block_element_outside_group():
    # 630 = 7 + 623 names the same element once its digits are reduced
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    assert fdf.group.order == 623
    i = next(i for i, b in enumerate(fdf.blocks) if 7 in b)
    blocks = list(fdf.blocks)
    blocks[i] = tuple(630 if x == 7 else x for x in blocks[i])
    bad = DesignFamily(FDF, fdf.group, fdf.lam, tuple(blocks), fdf.subgroup,
                       fdf.frame_partition)
    for rep in (verify_relative_df(bad), verify_fdf(bad)):
        assert not rep.ok and "block element 630 " in rep.detail


def test_relative_df_rejects_subgroup_element_outside_group():
    z7 = AbelianGroup.cyclic(7)
    rep = verify_relative_df(DesignFamily(RELATIVE_DF, z7, 1, ((0, 1, 3),), subgroup=(0, 9)))
    assert not rep.ok and "subgroup element 9 " in rep.detail


def test_relative_df_reports_missing_subgroup():
    z7 = AbelianGroup.cyclic(7)
    rep = verify_relative_df(DesignFamily(RELATIVE_DF, z7, 1, ((0, 1, 3),)))
    assert not rep.ok and "without subgroup" in rep.detail


def test_relative_df_reports_non_closed_subgroup():
    z6 = AbelianGroup.cyclic(6)
    rep = verify_relative_df(DesignFamily(RELATIVE_DF, z6, 1, ((0, 1),), subgroup=(0, 2)))
    assert not rep.ok and "2 + 2 = 4" in rep.detail


def test_verify_pdf_cases():
    z5 = AbelianGroup.cyclic(5)
    fam = DesignFamily(PDF, z5, 3, ((1, 2, 3, 4),), subgroup=(0,))
    assert verify_pdf(fam).ok     # each nonzero difference appears |G|-2 = 3 times
    overlap = DesignFamily(PDF, z5, 3, ((0, 1, 2), (2, 3, 4)))
    assert not verify_pdf(overlap).ok


def test_verify_dm_cases():
    dm3 = mul_table_dm(__import__("framedf.fields", fromlist=["make_field"]).make_field(3))
    rep = verify_dm(dm3)
    assert rep.ok and not is_homogeneous(dm3)      # zero row present
    rows = dm3.rows[1:]
    assert is_homogeneous(DifferenceMatrix(dm3.group, rows))
    dup = DifferenceMatrix(dm3.group, (dm3.rows[1], dm3.rows[1]))
    assert not verify_dm(dup).ok
    with pytest.raises(ValueError):
        DifferenceMatrix(dm3.group, ((0, 1), (0, 1, 2)))


@pytest.mark.parametrize("stray", [4, -2])
def test_verify_dm_rejects_entries_outside_group(stray):
    # 4 = 1 and -2 = 1 mod 3 would make the rows a valid difference matrix
    z3 = AbelianGroup.cyclic(3)
    rep = verify_dm(DifferenceMatrix(z3, ((0, 1, 2), (0, 2, stray))))
    assert not rep.ok and f"entry {stray} lies outside 0..2" in rep.detail


def test_verify_dm_infers_lambda():
    from framedf.fields import make_field
    z3 = AbelianGroup.cyclic(3)
    rows = ((0, 1, 2, 0, 1, 2), (0, 2, 1, 1, 0, 2))
    dm = DifferenceMatrix(z3, rows)
    assert verify_dm(dm).ok        # lambda = 2 inferred from 6 columns
    assert not verify_dm(dm, 1).ok


def test_verify_sdf_rejects_block_element_outside_group():
    fam = catalog.family("z7_8_8")
    blk = list(fam.blocks[0])
    blk[blk.index(0)] = 7              # reduces to 0 if digits are taken mod 7
    rep = verify_sdf(DesignFamily(SDF, fam.group, fam.lam, (tuple(blk),)))
    assert not rep.ok and "block element 7 lies outside 0..6" in rep.detail


def test_verify_pdf_reports_elements_outside_group():
    from framedf.lifting import fdf_to_pdf
    pdf = fdf_to_pdf(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))
    assert verify_pdf(pdf).ok
    negative = DesignFamily(PDF, pdf.group, pdf.lam, ((-1,) + pdf.blocks[0][1:],) + pdf.blocks[1:])
    rep = verify_pdf(negative)
    assert not rep.ok and "block element -1 lies outside" in rep.detail
    order = pdf.group.order
    stray = DesignFamily(PDF, pdf.group, pdf.lam, pdf.blocks, subgroup=(0, order))
    rep = verify_pdf(stray)
    assert not rep.ok and f"subgroup element {order} lies outside" in rep.detail


def test_subgroup_closure_scan_memory_is_bounded():
    # C63 x {0} x GF(9) in C63 x GF(25) x GF(9): the subgroup N x H of the
    # order-14175 family composed from the z63 frame, |N x H| = 567
    g = AbelianGroup.product(AbelianGroup.cyclic(63), AbelianGroup.additive(make_field(5, 2)),
                             AbelianGroup.additive(make_field(3, 2)))
    sub = [c + 1575 * h for h in range(9) for c in range(63)]
    tracemalloc.start()
    try:
        error = families._subgroup_error(g, sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error == ()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("cells", [1, 50, 1 << 20])
@pytest.mark.parametrize("sub", [[0, 1, 2, 3, 5, 8, 13, 21, 34, 55], [0, 30, 15]])
def test_subgroup_closure_witnesses_follow_the_addition_table(cells, sub, monkeypatch):
    monkeypatch.setattr(families, "_CLOSURE_CELLS", cells)
    outside = [(a, b, (a + b) % 60) for a in sub for b in sub if (a + b) % 60 not in sub]
    a, b, c = outside[0]
    assert families._subgroup_error(AbelianGroup.cyclic(60), sub) == (
        f"designated subgroup is not closed: {a} + {b} = {c} lies outside it", outside[:32])
