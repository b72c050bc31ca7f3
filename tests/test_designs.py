import dataclasses
import hashlib
import itertools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedf import catalog, designs, serialize
from framedf.designs import (BlockDesign, Resolution, RotationalStructure,
                             affine_plane, recursion_params, rbibd_from_fdf,
                             trivial_rbibd, verify_bibd, verify_one_rotational,
                             verify_resolution)
from framedf.families import WITNESSES, Report, _count_report, _flat, _outside
from framedf.groups import crt_iso
from framedf.lifting import lift_sdf


def fano():
    blocks = tuple(tuple(sorted(((0 + s) % 7, (1 + s) % 7, (3 + s) % 7)))
                   for s in range(7))
    return BlockDesign(7, 3, 1, blocks, provenance="fano")


def test_trivial_rbibd():
    d, r = trivial_rbibd(8)
    assert len(d.blocks) == 1 and len(r.classes) == 1
    assert verify_bibd(d).ok and verify_resolution(d, r).ok
    d2, r2 = trivial_rbibd(2)
    assert d2.v == 2 and verify_bibd(d2).ok


@pytest.mark.parametrize("q,blocks,classes", [(2, 6, 3), (5, 30, 6), (8, 72, 9)])
def test_affine_plane(q, blocks, classes):
    d, r = affine_plane(q)
    assert len(d.blocks) == blocks and len(r.classes) == classes
    assert verify_bibd(d).ok
    assert verify_resolution(d, r).ok


# sha256 of the sorted-key JSON of design_to_dict(affine_plane(q)), as built
# one field operation per point before assembly moved to whole arrays
AFFINE_PLANE_SHA256 = {
    8: "7df185019b8f82f49d17355be158912cbc446b8b258a3055f3b00863106b28eb",
    9: "7ff9710947eab48bff2cd64c19f65df78d6424ba94163dc62471422ace9acada",
    16: "0725101c8cac7fbdbb99f71149b7cfd0a20f3714978b8a7300f146e9416df5a3",
}


def design_sha256(design, res):
    blob = json.dumps(serialize.design_to_dict(design, res), sort_keys=True,
                      default=np.ndarray.tolist)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("q", sorted(AFFINE_PLANE_SHA256))
def test_affine_plane_is_pinned(q):
    assert design_sha256(*affine_plane(q)) == AFFINE_PLANE_SHA256[q]


def test_verify_bibd_memory_is_linear_in_the_design():
    # AG(2,64): v = 4096, so a v*v pair table alone would be 128 MB
    design, _ = affine_plane(64)
    tracemalloc.start()
    try:
        rep = verify_bibd(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 64 * 2**20, peak


def test_affine_plane_pairs_by_brute_force():
    d, _ = affine_plane(5)
    cover = {}
    for blk in d.blocks:
        for i in range(5):
            for j in range(i + 1, 5):
                key = (blk[i], blk[j])
                cover[key] = cover.get(key, 0) + 1
    assert all(v == 1 for v in cover.values())
    assert len(cover) == 25 * 24 // 2


def test_verify_bibd_fano_and_deletion():
    d = fano()
    assert verify_bibd(d).ok
    broken = BlockDesign(7, 3, 1, d.blocks[1:])
    rep = verify_bibd(broken)
    assert not rep.ok
    assert len(rep.witnesses) == 3      # the deleted block's pairs


def test_verify_bibd_against_dict_oracle():
    rng = np.random.default_rng(2)
    for _ in range(60):
        v = int(rng.integers(4, 16))
        k = int(rng.integers(2, min(v, 5) + 1))
        nb = int(rng.integers(1, 12))
        blocks = []
        for _ in range(nb):
            blocks.append(tuple(sorted(rng.choice(v, size=k, replace=False).tolist())))
        lam = int(rng.integers(0, 3))
        design = BlockDesign(v, k, lam, tuple(blocks))
        cover = {}
        for blk in blocks:
            for i in range(k):
                for j in range(i + 1, k):
                    cover[(blk[i], blk[j])] = cover.get((blk[i], blk[j]), 0) + 1
        all_pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
        expect = all(cover.get(p, 0) == lam for p in all_pairs) and \
            len(blocks) * k * (k - 1) == lam * v * (v - 1)
        assert verify_bibd(design).ok == expect


def test_verify_bibd_rejects_out_of_range_point():
    # point 5 of v = 3 would alias onto the pair index of (1, 2)
    rep = verify_bibd(BlockDesign(3, 2, 1, ((0, 1), (0, 2), (0, 5))))
    assert not rep.ok and "point 5" in rep.detail
    assert not verify_bibd(BlockDesign(3, 2, 1, ((0, 1), (0, 2), (-1, 2)))).ok


def test_verify_resolution_rejects_out_of_range_point():
    # the last class holds four distinct values, but 7 stands in for point 2
    d = BlockDesign(4, 2, 1, ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 7)))
    rep = verify_resolution(d, Resolution(((0, 1), (2, 3), (4, 5))))
    assert not rep.ok and "point 7" in rep.detail


def test_verifiers_reject_block_size_one():
    # no pairs to cover: a failing report, not a ZeroDivisionError
    d = BlockDesign(3, 1, 0, ((0,), (1,), (2,)))
    rep = verify_bibd(d)
    assert not rep.ok and "block size 1" in rep.detail
    rres = verify_resolution(d, Resolution(((0, 1, 2),)))
    assert not rres.ok and "block size 1" in rres.detail


def test_resolution_perturbation():
    d, r = affine_plane(3)
    assert verify_resolution(d, r).ok
    swapped = list(map(list, r.classes))
    swapped[0][0], swapped[1][0] = swapped[1][0], swapped[0][0]
    assert not verify_resolution(d, Resolution(tuple(map(tuple, swapped)))).ok
    assert not verify_resolution(d, Resolution(r.classes[:-1])).ok


def test_one_rotational_624_and_scramble():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    ing, ing_res = trivial_rbibd(8)
    design, res, rot = rbibd_from_fdf(fdf, ing, ing_res)
    assert verify_one_rotational(design, res, rot).ok
    iso = crt_iso(fdf.group)
    action = tuple(int(iso.invert(z)) for z in range(623))
    rot623 = RotationalStructure(iso.target, action)
    assert verify_one_rotational(design, res, rot623).ok
    scr = list(action)
    scr[0], scr[1] = scr[1], scr[0]
    assert not verify_one_rotational(design, res,
                                     RotationalStructure(iso.target, tuple(scr))).ok


def test_rbibd_parameter_guards():
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    ing, ing_res = trivial_rbibd(6)
    with pytest.raises(ValueError):
        rbibd_from_fdf(fdf, ing, ing_res)
    # right parameters, but the one block repeats a point and misses point 7
    broken = BlockDesign(8, 8, 1, ((0, 1, 2, 3, 4, 5, 6, 6),))
    with pytest.raises(ValueError, match="ingredient fails verification: pair"):
        rbibd_from_fdf(fdf, broken, Resolution(((0,),)))


@pytest.mark.parametrize("rule,m,n,v", [
    ("aGreBis", 2, 6, 5720),
    ("aGre", 11, 4, 5776),
    ("aGre", 19, 11, 10200),
    ("aGre", 48, 5, 24480),
])
def test_recursion_params(rule, m, n, v):
    rec = recursion_params(rule, m, n)
    assert rec["v"] == v and rec["k"] == 8


def test_recursion_ingredients_for_5720():
    rec = recursion_params("aGreBis", 2, 6)
    assert rec["needs"]["rbibds"] == [120, 344]
    assert rec["needs"]["TD"] == (9, 48)
    with pytest.raises(ValueError):
        recursion_params("aGre", 3, 5)
    with pytest.raises(ValueError):
        recursion_params("unknown", 1, 1)


def test_full_group_invariance_matches_generator_check():
    """Invariance under the generating set implies invariance under the whole
    group; checked exhaustively on a 256-point 1-rotational design."""
    from framedf.search import paired_pattern_system, solve
    sysm = paired_pattern_system(catalog.family("twinPrime", 3), 17)
    res = solve(sysm, seed=0)
    assert res.status == "sat"
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    fdf = lift_sdf(data)
    ing, ing_res = trivial_rbibd(16)
    design, dres, rot = rbibd_from_fdf(fdf, ing, ing_res)
    assert design.v == 256
    assert verify_bibd(design).ok
    assert verify_one_rotational(design, dres, rot).ok
    # exhaustive: every group element's translation preserves blocks/classes
    G = rot.group
    point_of = np.asarray(rot.action)
    blocks = {tuple(sorted(b)) for b in design.blocks}
    classes = {tuple(sorted(tuple(sorted(design.blocks[i])) for i in cls))
               for cls in dres.classes}
    infinity = design.v - 1
    for gamma in range(1, G.order):
        perm = np.empty(design.v, dtype=np.int64)
        perm[infinity] = infinity
        perm[point_of] = point_of[G.add(np.arange(G.order), gamma)]
        moved_blocks = {tuple(sorted(int(perm[p]) for p in b)) for b in design.blocks}
        assert moved_blocks == blocks, gamma
        moved_classes = {tuple(sorted(tuple(sorted(int(perm[p]) for p in design.blocks[i]))
                                      for i in cls)) for cls in dres.classes}
        assert moved_classes == classes, gamma


# -- oracle suite: the full Report of each verifier against dict counting --

def bibd_oracle(design):
    v, k, lam = design.v, design.k, design.lam
    if k < 2:
        return Report(False, f"block size {k} < 2 covers no pairs", [("k", k)])
    wrong = [i for i, blk in enumerate(design.blocks) if len(blk) != k]
    if wrong:
        return Report(False, f"block {wrong[0]} does not have {k} points", wrong)
    stray = [(i, x) for i, blk in enumerate(design.blocks) for x in blk if not 0 <= x < v]
    if stray:
        i, x = stray[0]
        return Report(False, f"block {i} holds point {x} outside 0..{v - 1}", stray)
    cover = Counter()
    for blk in design.blocks:
        for i in range(k):
            for j in range(i + 1, k):
                if blk[i] != blk[j]:
                    cover[min(blk[i], blk[j]), max(blk[i], blk[j])] += 1
    bad = [(x, y, cover[x, y]) for x in range(v) for y in range(x + 1, v)
           if cover[x, y] != lam]
    if bad:
        x, y, count = bad[0]
        return Report(False, f"pair ({x}, {y}) lies in {count} blocks, not {lam}", bad)
    expected = lam * v * (v - 1) // (k * (k - 1))
    if len(design.blocks) != expected:
        return Report(False, f"{len(design.blocks)} blocks, expected {expected}",
                      [("blocks", len(design.blocks))])
    return Report(True)


def resolution_oracle(design, res):
    nb, v = len(design.blocks), design.v
    listed = [i for cls in res.classes for i in cls]
    outside = [i for i in listed if not 0 <= i < nb]
    if outside:
        return Report(False, f"resolution block index {outside[0]} lies outside 0..{nb - 1}",
                      outside)
    seen = Counter(listed)
    bad = [(i, seen[i]) for i in range(nb) if seen[i] != 1]
    if bad:
        return Report(False, f"block index {bad[0][0]} appears {bad[0][1]} times in the "
                             "resolution, not once", bad)
    if design.k < 2:
        return Report(False, f"block size {design.k} < 2 covers no pairs", [("k", design.k)])
    expected = design.lam * (v - 1) // (design.k - 1)
    if len(res.classes) != expected:
        return Report(False, f"{len(res.classes)} classes, expected {expected}",
                      [("classes", len(res.classes))])
    for ci, cls in enumerate(res.classes):
        pts = [x for i in cls for x in design.blocks[i]]
        outside = [x for x in pts if not 0 <= x < v]
        if outside:
            return Report(False, f"class {ci}: point {outside[0]} lies outside 0..{v - 1}",
                          outside)
        count = Counter(pts)
        bad = [(x, count[x]) for x in range(v) if count[x] != 1]
        if bad:
            return Report(False, f"class {ci}: point {bad[0][0]} occurs {bad[0][1]} times, "
                                 "not 1", bad)
    return Report(True)


def relabelled(design, res, rng, lam=1):
    """The design with its points renamed, every block listed lam times in
    a shuffled point order, and the classes in a shuffled order."""
    perm = rng.permutation(design.v)
    blocks, classes = [], []
    for cls in res.classes:
        for _ in range(lam):
            members = []
            for i in cls:
                members.append(len(blocks))
                blocks.append(tuple(int(perm[x]) for x in rng.permutation(design.blocks[i])))
            classes.append(tuple(members))
    order = rng.permutation(len(classes))
    return (BlockDesign(design.v, design.k, design.lam * lam, tuple(blocks)),
            Resolution(tuple(classes[i] for i in order)))


def corrupted(design, res, rng):
    """One random fault: a point moved, repeated or pushed out of range, a
    block duplicated, dropped or moved to another class, or lambda off."""
    blocks = [list(b) for b in design.blocks]
    classes = [list(c) for c in res.classes]
    lam = design.lam
    fault = int(rng.integers(7))
    b = int(rng.integers(len(blocks)))
    if fault == 0:
        blocks[b][int(rng.integers(design.k))] = int(rng.integers(design.v))
    elif fault == 1:
        blocks[b][0] = blocks[b][-1]
    elif fault == 2:
        blocks[b][int(rng.integers(design.k))] = int(rng.choice([-1, design.v, 2 * design.v]))
    elif fault == 3:
        blocks.append(list(blocks[b]))
        classes[int(rng.integers(len(classes)))].append(len(blocks) - 1)
    elif fault == 4 and len(classes) > 1:
        src = next(c for c in classes if b in c)
        src.remove(b)
        if not src:
            classes.remove(src)
        classes[int(rng.integers(len(classes)))].append(b)
    elif fault == 5:
        lam += int(rng.choice([-1, 1]))
    else:
        blocks[b].append(blocks[b][0])
    return (BlockDesign(design.v, design.k, lam, tuple(map(tuple, blocks))),
            Resolution(tuple(map(tuple, classes))))


def random_design(rng):
    """Random blocks, unsorted, possibly repeating a point or a whole
    block, possibly holding a point outside 0..v-1, with lambda 0..3 and a
    resolution into the expected number of nonempty classes when there are
    enough blocks for it."""
    v = int(rng.integers(2, 21))
    k = int(rng.integers(2, min(v, 6) + 1))
    lam = int(rng.integers(0, 4))
    blocks = [tuple(int(x) for x in rng.choice(v, size=k, replace=bool(rng.random() < 0.2)))
              for _ in range(int(rng.integers(1, 25)))]
    for _ in range(int(rng.integers(0, 3))):
        blocks.append(blocks[int(rng.integers(len(blocks)))])
    if rng.random() < 0.1:
        blk = list(blocks[-1])
        blk[0] = int(rng.choice([-1, v]))
        blocks[-1] = tuple(blk)
    nclasses = lam * (v - 1) // (k - 1)
    if not 1 <= nclasses <= len(blocks):
        nclasses = int(rng.integers(1, len(blocks) + 1))
    order = rng.permutation(len(blocks))
    cuts = np.sort(rng.choice(np.arange(1, len(blocks)), size=nclasses - 1, replace=False))
    classes = tuple(tuple(int(i) for i in part) for part in np.split(order, cuts))
    return BlockDesign(v, k, lam, tuple(blocks)), Resolution(classes)


def oracle_cases():
    rng = np.random.default_rng(8)
    valid = [(fano(), None), trivial_rbibd(3), trivial_rbibd(5)] + \
        [affine_plane(q) for q in (2, 3, 4, 5, 7)]
    cases = []
    for design, res in valid:
        if res is not None:
            for lam in (1, 2, 3):
                cases.append(relabelled(design, res, rng, lam))
                for _ in range(6):
                    cases.append(corrupted(*relabelled(design, res, rng, lam), rng))
        cases.append((design, res))
    cases += [random_design(rng) for _ in range(300)]
    # every pair right, but blocks that repeat a point make the count wrong
    plane, plane_res = affine_plane(2)
    blocks = tuple(map(tuple, plane.blocks.tolist()))
    classes = tuple(map(tuple, plane_res.classes.tolist()))
    cases.append((BlockDesign(4, 2, 1, blocks + ((3, 3),)),
                  Resolution(classes[:-1] + (classes[-1] + (6,),))))
    cases.append((BlockDesign(4, 2, 0, ((1, 1), (2, 2))), None))
    return cases


ORACLE_CASES = oracle_cases()


# 1 point per chunk, a chunk that divides no v above 3, and one chunk >= v
@pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
def test_verify_bibd_matches_dict_oracle(chunk, monkeypatch):
    monkeypatch.setattr(designs, "_PAIR_CHUNK", chunk)
    outcomes = Counter()
    for design, _ in ORACLE_CASES:
        rep = verify_bibd(design)
        assert rep == bibd_oracle(design), design
        outcomes[rep.ok] += 1
    assert min(outcomes[True], outcomes[False]) >= 20, outcomes


def all_pairs_cases(v):
    """The (v, 2, 1) design of all pairs, then with a point moved to v-1,
    to 0 and outside 0..v-1, and with a block repeating a point."""
    blocks = np.array(list(itertools.combinations(range(v), 2)))
    cases = [blocks]
    for at, point in (((7, 0), v - 1), ((len(blocks) - 1, 1), 0), ((9, 1), v), ((3, 1), 0)):
        moved = blocks.copy()
        moved[at] = point
        cases.append(moved)
    return [BlockDesign(v, 2, 1, rows) for rows in cases]


# 255 and 256 points fit uint8, 257 take uint16; a chunk of 2**30 points
# makes the cells int64
@pytest.mark.parametrize("v", [255, 256, 257])
def test_verify_bibd_matches_dict_oracle_across_point_dtypes(v, monkeypatch):
    cases = all_pairs_cases(v)
    want = [bibd_oracle(design) for design in cases]
    assert [rep.ok for rep in want] == [True, False, False, False, False]
    for chunk in (128, 1 << 30):
        monkeypatch.setattr(designs, "_PAIR_CHUNK", chunk)
        assert [verify_bibd(design) for design in cases] == want, chunk


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_pair_cells_are_intp_for_rows_of_any_dtype(dtype):
    # the largest cell of the first chunk, (top - 1) * (top + 1) + top,
    # overflows the rows' dtype; so does a cell past a chunk's first point
    top = int(np.iinfo(dtype).max)
    at = np.array([[top - 1, top], [1, top]], dtype=dtype)
    cells = designs._pair_cells(at, 0, top + 1)
    assert cells.dtype == np.intp
    assert cells.tolist() == [(top - 1) * (top + 1) + top, top + 1 + top]
    assert designs._pair_cells(at, 1, top).tolist() == [(top - 2) * top + top - 1, top - 1]


def pair_scan_at_parent(design, chunk):
    """verify_bibd's pair scan before it counted the pairs y > x alone: the
    blocks through each x counted into all v cells (int32 while chunk*v <
    2**31), the cells y > x compared with lam."""
    v, k = design.v, design.k
    flat = _flat(design.blocks) if not isinstance(design.blocks, np.ndarray) \
        else design.blocks.ravel()
    points = flat.astype(np.min_scalar_type(v - 1))
    blocks = points.reshape(-1, k)
    by_point = np.argsort(points, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(points, minlength=v))])
    cell = np.int32 if chunk * v < 2**31 else np.int64
    bad = []
    for x0 in range(0, v, chunk):
        x1 = min(v, x0 + chunk)
        inc = by_point[start[x0]:start[x1]]
        cells = (points[inc].astype(cell) - x0)[:, None] * v + blocks[inc // k]
        counts = np.bincount(cells.ravel(), minlength=(x1 - x0) * v).reshape(x1 - x0, v)
        xs, ys = np.divmod(np.flatnonzero(counts != design.lam), v)
        upper = np.flatnonzero(ys > xs + x0)[:WITNESSES - len(bad)]
        xs, ys = xs[upper], ys[upper]
        bad += zip((xs + x0).tolist(), ys.tolist(), counts[xs, ys].tolist())
        if len(bad) == WITNESSES:
            break
    return bad


BIBD_BASES = [(fano(), Resolution(tuple((i,) for i in range(7)))), trivial_rbibd(4)] + \
    [affine_plane(q) for q in (2, 3, 4, 5)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(range(len(BIBD_BASES))),
       st.integers(1, 3), st.integers(0, 3), st.sampled_from([1, 3, 128, 1 << 30]))
def test_pair_scan_gives_the_witnesses_of_the_scan_it_replaced(seed, base, lam, faults, chunk):
    """The pair witnesses of verify_bibd equal those of the old scan on
    relabelled designs with up to three random faults (corrupted)."""
    rng = np.random.default_rng(seed)
    design, res = relabelled(*BIBD_BASES[base], rng, lam)
    for _ in range(faults):
        design, res = corrupted(design, res, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_PAIR_CHUNK", chunk)
        rep = verify_bibd(design)
    flat = _flat(design.blocks)
    if design.k < 2 or any(len(b) != design.k for b in design.blocks) \
            or ((flat < 0) | (flat >= design.v)).any():
        return      # rejected before the pair scan
    bad = pair_scan_at_parent(design, chunk)
    if bad:
        assert not rep.ok and list(rep.witnesses) == bad
        assert rep.detail == f"pair ({bad[0][0]}, {bad[0][1]}) lies in {bad[0][2]} blocks, " \
                             f"not {design.lam}"
    else:       # it passes, or fails on the block count
        assert rep == bibd_oracle(design)


def test_verify_resolution_matches_dict_oracle():
    outcomes = Counter()
    for design, res in ORACLE_CASES:
        if res is not None:
            rep = verify_resolution(design, res)
            assert rep == resolution_oracle(design, res), (design, res)
            outcomes[rep.detail.split(":")[0] if "class " in rep.detail else rep.ok] += 1
    assert outcomes[True] >= 20 and sum(outcomes.values()) - outcomes[True] >= 100, outcomes


def test_verify_resolution_reports_an_empty_class():
    design, _ = affine_plane(2)
    res = Resolution(((), (0, 1), (2, 3, 4, 5)))
    rep = verify_resolution(design, res)
    assert rep == resolution_oracle(design, res)
    assert rep.detail == "class 0: point 0 occurs 0 times, not 1"


def one_rotational_oracle(design, res, rot):
    """verify_one_rotational as first written: Counters of sorted tuples of
    every block and class, once per generator."""
    G = rot.group
    if G.order != design.v - 1:
        return Report(False, f"group order {G.order} is not v-1 = {design.v - 1}",
                      [("order", G.order)])
    point_of = np.asarray(rot.action, dtype=np.int64)
    error = (_outside(point_of, G.order, "action point")
             or _outside(_flat(design.blocks), design.v, "block point"))
    if error:
        return Report(False, *error)
    rep = _count_report(np.bincount(point_of, minlength=G.order), 1, "action: point")
    if not rep.ok:
        return rep

    def multisets(perm):
        blocks = [tuple(sorted(int(perm[p]) for p in blk)) for blk in design.blocks]
        return (Counter(blocks),
                Counter(tuple(sorted(blocks[i] for i in cls)) for cls in res.classes))

    blocks, classes = multisets(np.arange(design.v))
    infinity = design.v - 1
    for gamma in G.generators():
        perm = np.empty(design.v, dtype=np.int64)
        perm[infinity] = infinity
        perm[point_of] = point_of[G.add(np.arange(G.order, dtype=np.int64), int(gamma))]
        moved_blocks, moved_classes = multisets(perm)
        if moved_blocks != blocks:
            return Report(False, f"translation by {gamma} moves the block multiset", [gamma])
        if moved_classes != classes:
            return Report(False, f"translation by {gamma} moves the resolution", [gamma])
    return Report(True)


def rotational_cases():
    """The 624-point design under its own action and the CRT relabel, then
    with a block moved by a point, two classes swapping a block, a
    scrambled action and an action hitting one point twice."""
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    design, res, rot = rbibd_from_fdf(fdf, *trivial_rbibd(8))
    iso = crt_iso(fdf.group)
    rot623 = RotationalStructure(iso.target, tuple(int(iso.invert(z)) for z in range(623)))
    blocks = list(map(tuple, design.blocks.tolist()))
    first = blocks[0]
    stray = next(x for x in range(design.v) if x not in first)
    blocks[0] = (stray,) + first[1:]
    moved = BlockDesign(design.v, design.k, design.lam, tuple(blocks))
    classes = res.classes.tolist()
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]
    swapped = Resolution(tuple(map(tuple, classes)))
    scrambled = list(rot623.action)
    scrambled[0], scrambled[1] = scrambled[1], scrambled[0]
    twice = list(rot.action)
    twice[5] = twice[6]
    return [(design, res, rot), (design, res, rot623), (moved, res, rot),
            (design, swapped, rot), (design, swapped, rot623),
            (design, res, RotationalStructure(rot623.group, tuple(scrambled))),
            (design, res, RotationalStructure(rot.group, tuple(twice)))]


def test_verify_one_rotational_matches_counter_oracle():
    cases = rotational_cases()
    reports = [verify_one_rotational(*case) for case in cases]
    assert reports == [one_rotational_oracle(*case) for case in cases]
    assert [r.ok for r in reports] == [True, True, False, False, False, False, False]


def test_verify_one_rotational_rejects_wrong_block_size_and_class_index():
    design, res, rot = rotational_cases()[0]
    # an invariant design whose blocks all have 8 points, not the stated k = 7
    rep = verify_one_rotational(dataclasses.replace(design, k=7), res, rot)
    assert (rep.ok, rep.detail) == (False, "block 0 does not have 7 points")
    assert rep.witnesses == tuple(range(32))
    b = len(design.blocks)
    classes = tuple(map(tuple, res.classes.tolist()))
    last = Resolution(classes[:-1] + ((b,) + classes[-1][1:],))
    rep = verify_one_rotational(design, last, rot)
    assert (rep.ok, rep.detail) == (False, f"class block {b} lies outside 0..{b - 1}")


def test_designs_store_read_only_int64_arrays(tmp_path):
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    made = {"trivial": (trivial_rbibd(5), (1, 5), (1, 1)),
            "affine": (affine_plane(4), (20, 4), (5, 4)),
            "rbibd": (rbibd_from_fdf(fdf, *trivial_rbibd(8))[:2], (6942, 8), (89, 78))}
    path = tmp_path / "ap4.json"
    serialize.dump(serialize.design_to_dict(*affine_plane(4)), path)
    made["file"] = (serialize.design_from_dict(serialize.load(path)), (20, 4), (5, 4))
    for name, ((design, res), blocks_shape, classes_shape) in made.items():
        for rows, shape in ((design.blocks, blocks_shape), (res.classes, classes_shape)):
            assert (type(rows), rows.dtype, rows.shape) == (np.ndarray, np.int64, shape), name
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1
    # equality and hashing are by identity, not elementwise
    design, res = made["affine"][0]
    assert design == design and design != made["file"][0][0]
    assert len({design, res, design}) == 2


def test_rbibd_from_fdf_holds_the_1576_point_design_in_arrays():
    root = Path(__file__).resolve().parents[1]
    datum = serialize.lifting_from_dict(
        serialize.load(root / "perfbench" / "data" / "z63xF25_repaired.json"))
    fdf = lift_sdf(datum)
    ingredient = affine_plane(8)
    tracemalloc.start()
    try:
        made = rbibd_from_fdf(fdf, *ingredient)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert made[0].v == 1576
    assert held < 6 * 2**20, held


def test_fixture_cases_are_the_designs_they_were_written_as():
    """The oracle and rotational cases as nested tuples of ints; the digests
    were taken when blocks and classes were stored as tuples, so a fixture
    that now does array arithmetic by mistake shows here."""
    def rows(r):
        return tuple(tuple(int(p) for p in row) for row in r)

    def canon(x):
        if isinstance(x, BlockDesign):
            return ("design", x.v, x.k, x.lam, rows(x.blocks))
        if isinstance(x, Resolution):
            return ("res", rows(x.classes))
        if isinstance(x, RotationalStructure):
            return ("rot", repr(x.group), tuple(int(a) for a in x.action))
        return None if x is None else tuple(map(canon, x))

    def digest(cases):
        return hashlib.sha256(repr(canon(tuple(cases))).encode()).hexdigest()

    assert digest(ORACLE_CASES) == \
        "d31c0b679f6ff7b6607af2fb3c735a0fabcf2b2a7e96951a9e5648bffcc5752b"
    assert digest(rotational_cases()) == \
        "faa6ed3768be7f0dd6053e49d15cfc937c94fc1513079fee0d2ff3feebba990a"
