import numpy as np
import pytest

from framedf import catalog
from framedf.designs import (BlockDesign, Resolution, RotationalStructure,
                             affine_plane, recursion_params, rbibd_from_fdf,
                             trivial_rbibd, verify_bibd, verify_one_rotational,
                             verify_resolution)
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
