import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedf import catalog, families
from framedf.families import (FDF, PDF, RELATIVE_DF, SDF, DesignFamily,
                              DifferenceMatrix, Report, delta_block, is_homogeneous,
                              verify_dm, verify_fdf, verify_pdf,
                              verify_relative_df, verify_sdf)
from framedf.fields import make_field
from framedf.groups import AbelianGroup
from framedf.lifting import fdf_to_pdf, lift_sdf, mul_table_dm


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


# -- property suites: verify_fdf and verify_pdf against dictionary counting --

def _outside_oracle(values, n, what):
    bad = [x for x in values if not 0 <= x < n]
    return (f"{what} {bad[0]} lies outside 0..{n - 1}", bad) if bad else ()


def _counts_oracle(counts, want, n, what):
    bad = [(x, counts[x]) for x in range(n) if counts[x] != want(x)]
    if bad:
        return Report(False, f"{what} {bad[0][0]} occurs {bad[0][1]} times, not "
                             f"{want(bad[0][0])}", bad)
    return Report(True)


def _differences(n, blocks):
    return Counter((a - b) % n for blk in blocks for i, a in enumerate(blk)
                   for j, b in enumerate(blk) if i != j)


def relative_oracle(fam):
    """verify_relative_df on a cyclic group by dictionary counting."""
    n = fam.group.order
    if fam.subgroup is None:
        return Report(False, "relative family without subgroup", [("subgroup", None)])
    sub = list(fam.subgroup)
    error = (_outside_oracle(sub, n, "subgroup element")
             or _outside_oracle([x for b in fam.blocks for x in b], n, "block element"))
    if error:
        return Report(False, *error)
    if not sub:
        return Report(False, "designated subgroup is empty", [("subgroup", ())])
    listed = Counter(sub)
    twice = [x for x in sub if listed[x] > 1]
    if twice:
        return Report(False, f"subgroup element {twice[0]} is listed twice", twice)
    sums = [(a, b, (a + b) % n) for a in sub for b in sub if (a + b) % n not in listed]
    if sums:
        a, b, c = sums[0]
        return Report(False, f"designated subgroup is not closed: {a} + {b} = {c} lies "
                             "outside it", sums)
    return _counts_oracle(_differences(n, fam.blocks),
                          lambda x: 0 if x in listed else fam.lam, n, "difference")


def fdf_oracle(fam):
    """verify_fdf on a cyclic group by dictionary counting: the partition
    covers each block once, the relative difference family condition, one
    block size k, then lam*n/(k-1) parts of (g-n)/(nk) blocks, each meeting
    every coset x + N other than N exactly once."""
    parts = fam.frame_partition
    if parts is None:
        return Report(False, "missing frame partition", [("frame_partition", None)])
    nb = len(fam.blocks)
    listed = [i for part in parts for i in part]
    error = _outside_oracle(listed, nb, "frame partition block index")
    if error:
        return Report(False, *error)
    seen = Counter(listed)
    bad = [(i, seen[i]) for i in range(nb) if seen[i] != 1]
    if bad:
        return Report(False, f"block index {bad[0][0]} appears {bad[0][1]} times in the "
                             "frame partition, not once", bad)
    rep = relative_oracle(fam)
    if not rep.ok:
        return rep
    g, n = fam.group.order, len(fam.subgroup)
    k = len(fam.blocks[0]) if fam.blocks else 0
    odd = [i for i, blk in enumerate(fam.blocks) if len(blk) != k]
    if odd:
        return Report(False, f"block {odd[0]} does not have the {k} elements of block 0", odd)
    expected_parts = fam.lam * n // (k - 1) if k > 1 else 0
    if len(parts) != expected_parts:
        return Report(False, f"frame partition has {len(parts)} parts, expected "
                             f"{expected_parts}", [("parts", len(parts))])
    size = (g - n) // (n * k) if n * k else 0
    coset = {x: min((x + h) % g for h in fam.subgroup) for x in range(g)}
    nontrivial = Counter(set(coset.values()) - {coset[0]})
    bad = [pi for pi, part in enumerate(parts)
           if len(part) != size or Counter(coset[x] for i in part for x in fam.blocks[i])
           != nontrivial]
    if bad:
        return Report(False, f"frame part {bad[0]} does not meet each nontrivial coset of N "
                             f"exactly once in {size} blocks", bad)
    return Report(True)


def pdf_oracle(fam):
    """verify_pdf on a cyclic group by dictionary counting: the blocks cover
    each element off the designated set N once and none on it, and every
    difference off N and 0 occurs lam times."""
    n = fam.group.order
    sub = set(fam.subgroup or ())
    elems = [x for b in fam.blocks for x in b]
    error = (_outside_oracle(list(fam.subgroup or ()), n, "subgroup element")
             or _outside_oracle(elems, n, "block element"))
    if error:
        return Report(False, *error)
    rep = _counts_oracle(Counter(elems), lambda x: 0 if x in sub else 1, n, "point")
    if not rep.ok:
        return rep
    return _counts_oracle(_differences(n, fam.blocks),
                          lambda x: 0 if x in sub or x == 0 else fam.lam, n, "difference")


# (n, N, lam, blocks, frame partition): frame difference families over Z_n
VALID_FDFS = [
    (6, (0, 3), 1, ((1, 5), (4, 5)), ((0,), (1,))),
    (7, (0,), 2, ((3, 5, 6), (1, 2, 4)), ((0, 1),)),
    (8, (0, 4), 1, ((1, 2, 7),), ((0,),)),
    (9, (0, 3, 6), 1, ((7, 8), (2, 7), (5, 7)), ((0,), (1,), (2,))),
    (12, (0, 4, 8), 2, ((2, 3, 5), (5, 6, 11), (2, 9, 11)), ((0,), (1,), (2,))),
    (15, (0, 5, 10), 1, ((6, 7, 9, 13),), ((0,),)),
    (16, (0, 4, 8, 12), 1, ((1, 3, 6), (1, 10, 11)), ((0,), (1,))),
]
# elementary ones (lam * |N| = k - 1 = |N|) give PDFs through fdf_to_pdf
VALID_PDFS = [fdf_to_pdf(DesignFamily(FDF, AbelianGroup.cyclic(n), lam, blocks, sub, parts))
              for n, sub, lam, blocks, parts in VALID_FDFS if lam * len(sub) == len(blocks[0]) - 1
              == len(sub)] + [DesignFamily(PDF, AbelianGroup.cyclic(5), 3, ((1, 2, 3, 4),), (0,))]


@st.composite
def _faulty(draw, blocks, subgroup, lam, partition, n):
    """blocks, subgroup, lam and partition with up to three faults: an
    element moved, repeated, dropped, added or pushed outside 0..n-1, a
    block emptied, repeated or dropped, lam off by one, and the subgroup
    or partition changed, emptied or missing."""
    blocks = [list(b) for b in blocks]
    sub = None if subgroup is None else list(subgroup)
    parts = None if partition is None else [list(p) for p in partition]
    element = st.integers(0, n - 1) | st.sampled_from([-1, n, n + 3])
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.integers(0, 11))
        b = draw(st.integers(0, len(blocks) - 1)) if blocks else None
        if fault == 0 and b is not None and blocks[b]:
            blocks[b][draw(st.integers(0, len(blocks[b]) - 1))] = draw(element)
        elif fault == 1 and b is not None:
            blocks[b].append(draw(element))
        elif fault == 2 and b is not None and blocks[b]:
            blocks[b].pop(draw(st.integers(0, len(blocks[b]) - 1)))
        elif fault == 3 and b is not None:
            blocks[b] = []
        elif fault == 4 and b is not None:
            blocks.append(list(blocks[b]))
            if parts:
                parts[draw(st.integers(0, len(parts) - 1))].append(len(blocks) - 1)
        elif fault == 5 and b is not None:
            blocks.pop(b)
        elif fault == 6:
            lam += draw(st.sampled_from([-1, 1]))
        elif fault == 7 and sub is not None:
            sub = draw(st.sampled_from([[], sub[:-1], sub + [sub[-1]] if sub else [0],
                                        sub + [draw(element)], None]))
        elif fault == 8 and parts:
            p = draw(st.integers(0, len(parts) - 1))
            parts[p].append(draw(st.integers(-1, len(blocks))))
        elif fault == 9 and parts and len(parts[0]) and len(parts) > 1:
            parts[-1].append(parts[0].pop())
        elif fault == 10 and parts is not None:
            parts = draw(st.sampled_from([None, [], parts + [[]], parts[:-1]]))
        elif fault == 11:
            sub = draw(st.sampled_from([None, [0]])) if subgroup is None else sub
    return (tuple(map(tuple, blocks)), None if sub is None else tuple(sub), lam,
            None if parts is None else tuple(map(tuple, parts)))


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(VALID_FDFS))
def test_verify_fdf_against_dictionary_counting(data, base):
    n, sub, lam, blocks, parts = base
    blocks, sub, lam, parts = data.draw(_faulty(blocks, sub, lam, parts, n))
    fam = DesignFamily(FDF, AbelianGroup.cyclic(n), lam, blocks, sub, parts)
    assert verify_fdf(fam) == fdf_oracle(fam)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(VALID_PDFS))
def test_verify_pdf_against_dictionary_counting(data, base):
    n = base.group.order
    blocks, sub, lam, _ = data.draw(_faulty(base.blocks, base.subgroup, base.lam, None, n))
    fam = DesignFamily(PDF, base.group, lam, blocks, sub)
    assert verify_pdf(fam) == pdf_oracle(fam)


@pytest.mark.parametrize("base", VALID_FDFS)
def test_the_property_suites_start_from_valid_families(base):
    n, sub, lam, blocks, parts = base
    fam = DesignFamily(FDF, AbelianGroup.cyclic(n), lam, blocks, sub, parts)
    assert verify_fdf(fam).ok and fdf_oracle(fam).ok
    assert all(verify_pdf(pdf).ok and pdf_oracle(pdf).ok for pdf in VALID_PDFS)
    assert len(VALID_PDFS) == 3


def test_verify_fdf_rejects_blocks_of_other_sizes():
    # Z17, N = {0}, lam = 3: blocks of sizes 3, 6, 1, 3, 3 cover each nonzero
    # difference 3 times and meet every nonzero element once in one part of
    # (17 - 1) // 3 blocks, and 3 * 1 // (3 - 1) = 1 part is expected; but a
    # frame family has one block size, and lam * n / (k - 1) = 3/2 parts
    fam = DesignFamily(FDF, AbelianGroup.cyclic(17), 3,
                       ((5, 9, 14), (1, 2, 3, 4, 7, 10), (11,), (6, 12, 16), (8, 13, 15)),
                       (0,), ((0, 1, 2, 3, 4),))
    assert verify_relative_df(fam).ok
    rep = verify_fdf(fam)
    assert rep == Report(False, "block 1 does not have the 3 elements of block 0", [1, 2])
    assert rep == fdf_oracle(fam)
