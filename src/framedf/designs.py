"""Resolvable block designs: assembly from frame difference families,
ingredient designs, and exhaustive verification.

Points of an assembled design are the group elements in canonical
enumeration order with the fixed point last (index |G|).  Designs are
stored with sorted blocks and sorted classes so serialization is stable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import numpy as np

from .fields import field_of_order
from .groups import AbelianGroup
from .families import (WITNESSES, DesignFamily, Report, _count_report, _flat, _outside,
                       _partition_error, coset_labels, verify_fdf)

__all__ = [
    "BlockDesign",
    "Resolution",
    "RotationalStructure",
    "rbibd_from_fdf",
    "trivial_rbibd",
    "affine_plane",
    "verify_bibd",
    "verify_resolution",
    "verify_one_rotational",
    "recursion_params",
]


@dataclass(frozen=True)
class BlockDesign:
    v: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]
    provenance: str = ""


@dataclass(frozen=True)
class Resolution:
    classes: tuple[tuple[int, ...], ...]   # partition of block indices


@dataclass(frozen=True)
class RotationalStructure:
    """A group of order v-1 acting on the non-fixed points through `action`:
    action[enc] = point index; the fixed point is index v-1."""
    group: AbelianGroup
    action: tuple[int, ...]


def trivial_rbibd(k: int) -> tuple[BlockDesign, Resolution]:
    """One block containing all k points; one parallel class."""
    if k < 2:
        raise ValueError("need k >= 2")
    design = BlockDesign(k, k, 1, (tuple(range(k)),), provenance="trivial(%d)" % k)
    return design, Resolution(((0,),))


def affine_plane(q: int) -> tuple[BlockDesign, Resolution]:
    """AG(2,q): points GF(q)^2, blocks the q^2+q lines, resolved into q+1
    pencils of parallel lines.  A resolvable (q^2, q, 1) design."""
    fld = field_of_order(q)
    encs = np.arange(q, dtype=np.int64)
    point = lambda x, y: int(x) * q + int(y)
    blocks: list[tuple[int, ...]] = []
    classes: list[tuple[int, ...]] = []
    # pencil for each slope m: lines y = m*x + c
    for m in range(q):
        cls = []
        for c in range(q):
            ln = tuple(point(x, fld.add(int(fld.mul(int(m), int(x))), c)) for x in encs)
            cls.append(len(blocks))
            blocks.append(tuple(sorted(ln)))
        classes.append(tuple(cls))
    # vertical pencil x = c
    cls = []
    for c in range(q):
        ln = tuple(point(c, y) for y in encs)
        cls.append(len(blocks))
        blocks.append(tuple(sorted(ln)))
    classes.append(tuple(cls))
    design = BlockDesign(q * q, q, 1, tuple(blocks), provenance="affinePlane(%d)" % q)
    return design, Resolution(tuple(classes))


def rbibd_from_fdf(fdf: DesignFamily, ingredient: BlockDesign,
                   ingredient_res: Resolution) -> tuple[BlockDesign, Resolution, RotationalStructure]:
    """Resolvable design on G plus one extra point from a frame difference
    family and an ingredient resolvable design on |N|+1 points.  A family
    that fails verify_fdf raises ValueError with its detail.

    For every coset representative s and every frame class index i, the
    parallel class is (frame class i translated by N then s) together with
    the i-th ingredient class copied onto (N+s) u {infinity}.  The returned
    rotational structure is the translation action of G; it is a design
    automorphism whenever the ingredient is itself 1-rotational over N
    (trivially so for the one-block ingredient).
    """
    rep = verify_fdf(fdf)
    if not rep.ok:
        raise ValueError("family fails verify_fdf: " + rep.detail)
    G = fdf.group
    sub = np.asarray(fdf.subgroup, dtype=np.int64)
    n = len(sub)
    k = len(fdf.blocks[0])
    nclasses_needed = fdf.lam * n // (k - 1)
    if ingredient.v != n + 1 or ingredient.k != k or ingredient.lam != fdf.lam:
        raise ValueError("ingredient parameters do not match the frame")
    if len(ingredient_res.classes) != nclasses_needed:
        raise ValueError(
            f"ingredient must have {nclasses_needed} parallel classes, "
            f"has {len(ingredient_res.classes)}")
    infinity = G.order
    labels = coset_labels(G, fdf.subgroup)
    reps = np.unique(labels)            # one representative (minimal) per coset
    # ingredient copy on (N+s) u {infinity}: ingredient point j -> sub[j]+s, point n -> infinity
    blocks: list[tuple[int, ...]] = []
    classes: list[tuple[int, ...]] = []
    part_blocks = []
    for part in fdf.frame_partition:
        arrs = [np.asarray(fdf.blocks[i], dtype=np.int64) for i in part]
        translated = []
        for arr in arrs:
            for h in sub:
                translated.append(G.add(arr, int(h)))
        part_blocks.append(translated)
    for s in reps:
        for ci, part in enumerate(part_blocks):
            cls = []
            for arr in part:
                cls.append(len(blocks))
                blocks.append(tuple(int(x) for x in np.sort(G.add(arr, int(s)))))
            for ing_block in ingredient_res.classes[ci]:
                pts = ingredient.blocks[ing_block]
                mapped = [infinity if j == n else int(G.add(int(sub[j]), int(s)))
                          for j in pts]
                cls.append(len(blocks))
                blocks.append(tuple(sorted(mapped)))
            classes.append(tuple(cls))
    design = BlockDesign(G.order + 1, k, fdf.lam, tuple(blocks),
                         provenance=(fdf.provenance + " + " + ingredient.provenance).strip())
    rot = RotationalStructure(G, tuple(range(G.order)))
    return design, Resolution(tuple(classes)), rot


def verify_bibd(design: BlockDesign) -> Report:
    """Exact pair coverage: every 2-subset of points in exactly lam blocks.
    Points must lie in 0..v-1; pairs are indexed min*v+max and counted in
    one exact pass.  Pair witnesses are (point, point, count)."""
    v = design.v
    k = design.k
    if k < 2:
        return Report(False, f"block size {k} < 2 covers no pairs", [("k", k)])
    wrong = [i for i, blk in enumerate(design.blocks) if len(blk) != k]
    if wrong:
        return Report(False, f"block {wrong[0]} does not have {k} points", wrong)
    mat = np.asarray(design.blocks, dtype=np.int64).reshape(-1, k)
    stray = np.argwhere((mat < 0) | (mat >= v))[:WITNESSES]
    if len(stray):
        bi, pos = stray[0]
        return Report(False, f"block {bi} holds point {mat[bi, pos]} outside 0..{v - 1}",
                      [(int(b), int(mat[b, p])) for b, p in stray])
    ii, jj = np.triu_indices(k, k=1)
    a = mat[:, ii].ravel()
    b = mat[:, jj].ravel()
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    counts = np.bincount(lo * v + hi, minlength=v * v)
    ii, jj = np.triu_indices(v, k=1)
    pair_counts = counts[ii * v + jj]
    bad = np.flatnonzero(pair_counts != design.lam)[:WITNESSES]
    if len(bad):
        x = bad[0]
        return Report(False, f"pair ({ii[x]}, {jj[x]}) lies in {pair_counts[x]} blocks, "
                             f"not {design.lam}",
                      [(int(ii[y]), int(jj[y]), int(pair_counts[y])) for y in bad])
    expected_b = design.lam * v * (v - 1) // (k * (k - 1))
    if len(design.blocks) != expected_b:
        # only blocks that repeat a point get here: they cover fewer pairs
        return Report(False, f"{len(design.blocks)} blocks, expected {expected_b}",
                      [("blocks", len(design.blocks))])
    return Report(True)


def verify_resolution(design: BlockDesign, res: Resolution) -> Report:
    """Classes partition the block list; each class partitions the points
    0..v-1."""
    error = _partition_error(res.classes, len(design.blocks), "resolution")
    if error:
        return Report(False, *error)
    if design.k < 2:
        return Report(False, f"block size {design.k} < 2 covers no pairs", [("k", design.k)])
    expected = design.lam * (design.v - 1) // (design.k - 1)
    if len(res.classes) != expected:
        return Report(False, f"{len(res.classes)} classes, expected {expected}",
                      [("classes", len(res.classes))])
    for ci, cls in enumerate(res.classes):
        pts = np.concatenate([np.asarray(design.blocks[i], dtype=np.int64) for i in cls])
        error = _outside(pts, design.v, f"class {ci}: point")
        if error:
            return Report(False, *error)
        rep = _count_report(np.bincount(pts, minlength=design.v), 1, f"class {ci}: point")
        if not rep.ok:
            return rep
    return Report(True)


def verify_one_rotational(design: BlockDesign, res: Resolution,
                          rot: RotationalStructure) -> Report:
    """The translation by each group generator must fix infinity, permute the
    other points sharply transitively, and map the block multiset and the
    class partition to themselves.  Invariance under generators implies
    invariance under the whole group; a failing generator is the witness."""
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
        """The block multiset and the class multiset with points renamed by perm."""
        blocks = [tuple(sorted(int(perm[p]) for p in blk)) for blk in design.blocks]
        return (Counter(blocks),
                Counter(tuple(sorted(blocks[i] for i in cls)) for cls in res.classes))

    blocks, classes = multisets(np.arange(design.v))
    infinity = design.v - 1
    for gamma in _generators(G):
        perm = np.empty(design.v, dtype=np.int64)
        perm[infinity] = infinity
        perm[point_of] = point_of[G.add(np.arange(G.order, dtype=np.int64), int(gamma))]
        moved_blocks, moved_classes = multisets(perm)
        if moved_blocks != blocks:
            return Report(False, f"translation by {gamma} moves the block multiset", [gamma])
        if moved_classes != classes:
            return Report(False, f"translation by {gamma} moves the resolution", [gamma])
    return Report(True)


def _generators(G: AbelianGroup) -> list[int]:
    gens = []
    acc = 1
    for r in G._radices:
        gens.append(acc)       # the element with digit 1 in this leaf
        acc *= r
    return gens


def recursion_params(rule: str, m: int, n: int) -> dict:
    """Parameter arithmetic of the two block-size-8 recursions; no designs
    are assembled, the required ingredient sizes are reported as inputs."""
    if rule == "aGre":
        if not 0 <= n <= m:
            raise ValueError("need 0 <= n <= m")
        v = 56 * (9 * m + n) + 8
        needs = {"TD": (10, m), "rbibds": sorted({56 * m + 8, 56 * n + 8})}
    elif rule == "aGreBis":
        v = 56 * (8 * m * n + n) + 8
        needs = {"TD": (9, 8 * n), "rbibds": sorted({56 * n + 8, 56 * m + 8})}
    else:
        raise ValueError(f"unknown recursion rule {rule!r}")
    return {"rule": rule, "m": m, "n": n, "v": v, "k": 8, "lam": 1, "needs": needs}
