import json
import os
import subprocess
import sys
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


_RAGGED_GROUPS = [AbelianGroup.cyclic(n) for n in (1, 2, 7, 40)] + [
    AbelianGroup.product(AbelianGroup.cyclic(7), AbelianGroup.additive(make_field(3, 2)))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_RAGGED_GROUPS).flatmap(lambda g: st.tuples(st.just(g), st.lists(
    st.sampled_from([1, 3, 4]).flatmap(
        lambda k: st.lists(st.integers(0, g.order - 1), min_size=k, max_size=k)), max_size=8))))
def test_delta_counts_on_blocks_of_several_sizes(case):
    # blocks of two sizes and singletons, grouped by length, count what the
    # per-block delta_block sums count
    g, blocks = case
    want = np.zeros(g.order, dtype=np.int64)
    for blk in blocks:
        if len(blk) >= 2:
            want += np.bincount(delta_block(g, blk), minlength=g.order)
    assert np.array_equal(families.delta_counts(g, blocks), want)


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


# Families over C_{10^12}, where an array sized by |G| takes 7.28 TiB:
# verifier, (kind, lam, blocks, subgroup, frame partition), the failing
# detail or "" for a pass.  Each fails on its count of all differences or
# points, or passes a lam = 0 family with no difference, at once.
_HUGE_CASES = {
    "sdf": ("verify_sdf", (SDF, 6, ((0, 1, 3), (0, 4, 9)), None, None),
            "the blocks hold 12 differences, not lam|G| = 6000000000000"),
    "sdf-lam0": ("verify_sdf", (SDF, 0, ((0, 1, 3), (0, 4, 9)), None, None),
                 "the blocks hold 12 differences, not lam|G| = 0"),
    "rdf": ("verify_relative_df", (RELATIVE_DF, 1, ((1, 2, 4), (1, 5, 10)), (0,), None),
            "the blocks hold 12 differences, not lam(|G| - |N|) = 999999999999"),
    "rdf-lam0": ("verify_relative_df", (RELATIVE_DF, 0, ((1,), (2,)), (0,), None), ""),
    "fdf": ("verify_fdf", (FDF, 1, ((1, 2, 4), (1, 5, 10)), (0,), ((0,), (1,))),
            "the blocks hold 12 differences, not lam(|G| - |N|) = 999999999999"),
    "fdf-lam0": ("verify_fdf", (FDF, 0, ((1, 2), (3, 5)), (0,), ((0, 1),)),
                 "the blocks hold 4 differences, not lam(|G| - |N|) = 0"),
    "fdf-lam0-empty": ("verify_fdf", (FDF, 0, (), (0,), ()), ""),
    "pdf": ("verify_pdf", (PDF, 1, ((1, 2, 4), (5, 10)), (0,), None),
            "the blocks hold 5 points, not |G| - |N| = 999999999999"),
    "pdf-lam0": ("verify_pdf", (PDF, 0, ((1,), (2,)), (0,), None),
                 "the blocks hold 2 points, not |G| - |N| = 999999999999"),
}


@pytest.fixture(scope="module")
def huge_reports():
    """{case: [ok, detail, seconds]} of _HUGE_CASES, each verified in one
    child process whose address space is capped at 4 GiB: a verifier that
    sized an array by |G| fails there with MemoryError."""
    code = ("import json, resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from framedf import families\n"
            "from framedf.groups import AbelianGroup\n"
            "out = {}\n"
            "for name, (verifier, args, _) in json.loads(sys.argv[1]).items():\n"
            "    kind, lam, blocks, sub, parts = args\n"
            "    fam = families.DesignFamily(kind, AbelianGroup.cyclic(10 ** 12), lam,\n"
            "        tuple(map(tuple, blocks)), None if sub is None else tuple(sub),\n"
            "        None if parts is None else tuple(map(tuple, parts)))\n"
            "    start = time.perf_counter()\n"
            "    rep = getattr(families, verifier)(fam)\n"
            "    out[name] = [rep.ok, rep.detail, time.perf_counter() - start]\n"
            "print(json.dumps(out))")
    src = os.path.dirname(os.path.dirname(families.__file__))
    run = subprocess.run([sys.executable, "-c", code, json.dumps(_HUGE_CASES)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(run.stdout)


@pytest.mark.parametrize("case", list(_HUGE_CASES))
def test_verifiers_stay_total_on_a_huge_group(huge_reports, case):
    ok, detail, seconds = huge_reports[case]
    assert (ok, detail) == (not _HUGE_CASES[case][2], _HUGE_CASES[case][2])
    assert seconds < 1


def test_subgroup_closure_scan_memory_is_bounded():
    # the diagonal {(t, t)} of C567 x C567: a subgroup of the order of the
    # N x H of the order-14175 composed family, but not a digit slice, so
    # its closure is scanned
    g = AbelianGroup.product(AbelianGroup.cyclic(567), AbelianGroup.cyclic(567))
    sub = [t + 567 * t for t in range(567)]
    assert families._digit_slice(g, np.array(sub)) is None
    tracemalloc.start()
    try:
        error = families._subgroup_error(g, sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error == ()
    assert peak < 8 * 2**20, peak


def test_a_digit_slice_subgroup_is_accepted_without_the_closure_scan(monkeypatch):
    def closure_scan(*args):
        raise AssertionError("the closure of a digit slice was scanned")
    # C63 x {0} x GF(9) in C63 x GF(25) x GF(9): the N x H of the order-14175 family
    g = AbelianGroup.product(AbelianGroup.cyclic(63), AbelianGroup.additive(make_field(5, 2)),
                             AbelianGroup.additive(make_field(3, 2)))
    sub = [c + 1575 * h for h in range(9) for c in range(63)]
    with monkeypatch.context() as mp:
        mp.setattr(g, "add", closure_scan)
        assert families._subgroup_error(g, sub) == ()
    # 3.C63 x {0} in C63 x GF(25) is a subgroup but not a slice: it is scanned
    g = AbelianGroup.product(AbelianGroup.cyclic(63), AbelianGroup.additive(make_field(5, 2)))
    sums = []
    add = g.add
    monkeypatch.setattr(g, "add", lambda a, b: sums.append(1) or add(a, b))
    assert families._subgroup_error(g, list(range(0, 63, 3))) == ()
    assert sums


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


def _total_oracle(have, want, what, formula):
    """The count of all differences or points against what a valid family
    holds, checked before any count per element."""
    return Report(False, f"the blocks hold {have} {what}, not {formula} = {want}",
                  [(what, have), (formula, want)]) if have != want else Report(True)


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
    diffs = _differences(n, fam.blocks)
    return (_total_oracle(sum(diffs.values()), fam.lam * (n - len(sub)), "differences",
                          "lam(|G| - |N|)")
            and _counts_oracle(diffs, lambda x: 0 if x in listed else fam.lam, n, "difference"))


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
    rep = _total_oracle(len(elems), n - len(sub), "points", "|G| - |N|") \
        and _counts_oracle(Counter(elems), lambda x: 0 if x in sub else 1, n, "point")
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


# -- property suites: verify_sdf, verify_relative_df and verify_dm against
# dictionary counting --

def sdf_oracle(fam):
    """verify_sdf on a cyclic group by dictionary counting: one block size
    k, every element in range, k >= 2, lam even with k(k-1) | lam*n, then
    every element of Z_n (0 included) lam times a difference."""
    n, lam = fam.group.order, fam.lam
    k = len(fam.blocks[0]) if fam.blocks else 0
    odd = [i for i, blk in enumerate(fam.blocks) if len(blk) != k]
    if odd:
        return Report(False, f"block {odd[0]} does not have the {k} elements of block 0", odd)
    error = _outside_oracle([x for b in fam.blocks for x in b], n, "block element")
    if error:
        return Report(False, *error)
    if k < 2:
        return Report(False, f"block size {k} < 2 covers no differences", [("k", k)])
    if lam % 2:
        return Report(False, f"lam = {lam} is odd", [("lam", lam)])
    if lam * n % (k * (k - 1)):
        return Report(False, f"lam|G| = {lam * n} is not divisible by k(k-1) = {k * (k - 1)}",
                      [("lam", lam)])
    diffs = _differences(n, fam.blocks)
    return (_total_oracle(sum(diffs.values()), lam * n, "differences", "lam|G|")
            and _counts_oracle(diffs, lambda x: lam, n, "difference"))


def dm_oracle(n, rows, lam):
    """verify_dm on Z_n by dictionary counting: every entry in range, at
    least one column, lam (when None) the column count over n, which must
    divide it, then every pair of rows differing by each element lam
    times."""
    error = _outside_oracle([x for row in rows for x in row], n, "entry")
    if error:
        return Report(False, *error)
    ncols = len(rows[0])
    if not ncols:
        return Report(False, "the matrix has no columns", [("ncols", 0)])
    if lam is None:
        if ncols % n:
            return Report(False, f"{ncols} columns are not a multiple of |H| = {n}",
                          [("ncols", ncols)])
        lam = ncols // n
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            counts = Counter((a - b) % n for a, b in zip(rows[i], rows[j]))
            rep = _counts_oracle(counts, lambda x: lam, n, f"rows {i} and {j}: difference")
            if not rep.ok:
                return Report(False, rep.detail, [(i, j, *w) for w in rep.witnesses])
    return Report(True)


# (n, lam, blocks): SDFs over Z_n from the catalog
VALID_SDFS = [(f.group.order, f.lam, f.blocks) for f in (
    catalog.family("paley2", 3), catalog.family("z7_8_8"), catalog.family("singer", 2, 3),
    catalog.family("paley3", 5), catalog.family("paley2", 11), catalog.family("z125_6_6"))]
# (n, N, lam, blocks): relative difference families over Z_n, the frames
# above and the (7, 3, 1) difference set
VALID_RELATIVE_DFS = [(n, sub, lam, blocks) for n, sub, lam, blocks, _ in VALID_FDFS] + [
    (7, (0,), 1, ((0, 1, 3),))]
# (n, rows, lam): difference matrices over Z_n, the multiplication tables of
# prime fields (lam = 1) and a (Z_3, 2, 2) one
VALID_DMS = [(p, tuple(tuple(i * j % p for j in range(p)) for i in range(p)), 1)
             for p in (2, 3, 5, 7)] + [(3, ((0, 1, 2, 0, 1, 2), (0, 2, 1, 1, 0, 2)), 2)]


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(VALID_SDFS))
def test_verify_sdf_against_dictionary_counting(data, base):
    n, lam, blocks = base
    blocks, _, lam, _ = data.draw(_faulty(blocks, None, lam, None, n))
    fam = DesignFamily(SDF, AbelianGroup.cyclic(n), lam, blocks)
    assert verify_sdf(fam) == sdf_oracle(fam)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(VALID_RELATIVE_DFS))
def test_verify_relative_df_against_dictionary_counting(data, base):
    n, sub, lam, blocks = base
    blocks, sub, lam, _ = data.draw(_faulty(blocks, sub, lam, None, n))
    fam = DesignFamily(RELATIVE_DF, AbelianGroup.cyclic(n), lam, blocks, sub)
    assert verify_relative_df(fam) == relative_oracle(fam)


@st.composite
def _faulty_dm(draw, rows, lam, n):
    """rows and lam with up to three faults: an entry changed or pushed
    outside 0..n-1, a row repeated, dropped or cut short (ragged), a
    column dropped or repeated, and lam off by one or left to be
    inferred."""
    rows, given = [list(r) for r in rows], lam
    entry = st.integers(0, n - 1) | st.sampled_from([-1, n, n + 3])
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.integers(0, 6))
        r = draw(st.integers(0, len(rows) - 1)) if rows else None
        c = draw(st.integers(0, len(rows[r]) - 1)) if r is not None and rows[r] else None
        if fault == 0 and c is not None:
            rows[r][c] = draw(entry)
        elif fault == 1 and r is not None:
            rows.insert(r, list(rows[r]))
        elif fault == 2 and r is not None:
            rows.pop(r)
        elif fault == 3 and c is not None:
            rows[r].pop(c)
        elif fault == 4 and c is not None:
            for row in rows:
                del row[c:c + 1]
        elif fault == 5 and c is not None:
            for row in rows:
                row[c:c + 1] = row[c:c + 1] * 2
        elif fault == 6:
            lam = draw(st.sampled_from([None, given - 1, given + 1]))
    return tuple(map(tuple, rows)), lam


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from(VALID_DMS))
def test_verify_dm_against_dictionary_counting(data, base):
    n, rows, lam = base
    rows, lam = data.draw(_faulty_dm(rows, lam, n))
    if len({len(row) for row in rows}) != 1:        # ragged or no rows: not a matrix
        problem = "ragged difference matrix" if rows else "difference matrix has no rows"
        with pytest.raises(ValueError, match=problem):
            DifferenceMatrix(AbelianGroup.cyclic(n), rows)
        return
    assert verify_dm(DifferenceMatrix(AbelianGroup.cyclic(n), rows), lam) == \
        dm_oracle(n, rows, lam)


def test_an_empty_difference_matrix_is_reported_as_empty():
    with pytest.raises(ValueError, match="^difference matrix has no rows$"):
        DifferenceMatrix(AbelianGroup.cyclic(3), ())


def test_the_sdf_relative_and_dm_suites_start_from_valid_inputs():
    for n, lam, blocks in VALID_SDFS:
        fam = DesignFamily(SDF, AbelianGroup.cyclic(n), lam, blocks)
        assert verify_sdf(fam).ok and sdf_oracle(fam).ok
    for n, sub, lam, blocks in VALID_RELATIVE_DFS:
        fam = DesignFamily(RELATIVE_DF, AbelianGroup.cyclic(n), lam, blocks, sub)
        assert verify_relative_df(fam).ok and relative_oracle(fam).ok
    for n, rows, lam in VALID_DMS:
        dm = DifferenceMatrix(AbelianGroup.cyclic(n), rows)
        assert verify_dm(dm, lam).ok and verify_dm(dm).ok and dm_oracle(n, rows, lam).ok


def test_verify_dm_rejects_a_matrix_without_columns():
    # with no columns every row pair differs by each element 0 times, which
    # passed as lam = 0, inferred or given; a difference matrix has lam|H|
    # columns with lam >= 1
    dm = DifferenceMatrix(AbelianGroup.cyclic(3), ((), ()))
    for lam in (None, 0, 1):
        assert verify_dm(dm, lam) == Report(False, "the matrix has no columns", [("ncols", 0)])
