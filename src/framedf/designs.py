"""Resolvable block designs: assembly from frame difference families,
ingredient designs, and exhaustive verification.

Points of an assembled design are the group elements in canonical
enumeration order with the fixed point last (index |G|).  Designs are
stored with sorted blocks and sorted classes so serialization is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .fields import field_of_order
from .groups import AbelianGroup
from .families import DesignFamily, FDF, coset_labels

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


@dataclass(frozen=True)
class DesignReport:
    ok: bool
    detail: str = ""
    pair_deficiencies: tuple = ()

    def __bool__(self):
        return self.ok


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
    family and an ingredient resolvable design on |N|+1 points.

    For every coset representative s and every frame class index i, the
    parallel class is (frame class i translated by N then s) together with
    the i-th ingredient class copied onto (N+s) u {infinity}.  The returned
    rotational structure is the translation action of G; it is a design
    automorphism whenever the ingredient is itself 1-rotational over N
    (trivially so for the one-block ingredient).
    """
    if fdf.kind != FDF or fdf.frame_partition is None:
        raise ValueError("need a verified FDF with its frame partition")
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


def verify_bibd(design: BlockDesign) -> DesignReport:
    """Exact pair coverage: every 2-subset of points in exactly lam blocks.
    Points must lie in 0..v-1; pairs are indexed min*v+max and counted in
    one exact pass."""
    v = design.v
    k = design.k
    if k < 2:
        return DesignReport(False, detail=f"block size {k} < 2 covers no pairs")
    if any(len(blk) != k for blk in design.blocks):
        return DesignReport(False, detail="block of wrong size present")
    if design.blocks:
        mat = np.asarray(design.blocks, dtype=np.int64)
        stray = np.argwhere((mat < 0) | (mat >= v))
        if len(stray):
            bi, pos = stray[0]
            return DesignReport(False, detail=f"block {bi} holds point {mat[bi, pos]} "
                                              f"outside 0..{v - 1}")
        ii, jj = np.triu_indices(k, k=1)
        a = mat[:, ii].ravel()
        b = mat[:, jj].ravel()
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        counts = np.bincount(lo * v + hi, minlength=v * v)
    else:
        counts = np.zeros(v * v, dtype=np.int64)
    ii, jj = np.triu_indices(v, k=1)
    pair_counts = counts[ii * v + jj]
    bad = np.nonzero(pair_counts != design.lam)[0]
    deficiencies = tuple((int(ii[x]), int(jj[x]), int(pair_counts[x])) for x in bad[:32])
    expected_b = design.lam * v * (v - 1) // (design.k * (design.k - 1))
    ok = len(bad) == 0 and len(design.blocks) == expected_b
    detail = "" if ok else f"{len(bad)} deficient pairs, b={len(design.blocks)} vs {expected_b}"
    return DesignReport(ok, detail, deficiencies)


def verify_resolution(design: BlockDesign, res: Resolution) -> DesignReport:
    """Classes partition the block list; each class partitions the points
    0..v-1."""
    seen = sorted(i for cls in res.classes for i in cls)
    if seen != list(range(len(design.blocks))):
        return DesignReport(False, detail="classes do not partition the block list")
    if design.k < 2:
        return DesignReport(False, detail=f"block size {design.k} < 2 covers no pairs")
    expected = design.lam * (design.v - 1) // (design.k - 1)
    if len(res.classes) != expected:
        return DesignReport(False, detail=f"{len(res.classes)} classes, expected {expected}")
    for ci, cls in enumerate(res.classes):
        pts = np.concatenate([np.asarray(design.blocks[i], dtype=np.int64) for i in cls])
        stray = pts[(pts < 0) | (pts >= design.v)]
        if len(stray):
            return DesignReport(False, detail=f"class {ci} holds point {stray[0]} "
                                              f"outside 0..{design.v - 1}")
        if len(pts) != design.v or len(np.unique(pts)) != design.v:
            return DesignReport(False, detail=f"class {ci} does not partition the points")
    return DesignReport(True)


def verify_one_rotational(design: BlockDesign, res: Resolution,
                          rot: RotationalStructure) -> DesignReport:
    """The translation by each group generator must fix infinity, permute the
    other points sharply transitively, and map the block multiset and the
    class partition to themselves.  Invariance under generators implies
    invariance under the whole group."""
    G = rot.group
    if G.order != design.v - 1:
        return DesignReport(False, detail="group order must be v-1")
    point_of = np.asarray(rot.action, dtype=np.int64)
    if sorted(point_of.tolist()) != list(range(design.v - 1)):
        return DesignReport(False, detail="action is not a bijection onto the points")
    enc_of = np.empty_like(point_of)
    enc_of[point_of] = np.arange(G.order)
    gens = _generators(G)
    block_multiset = {}
    for blk in design.blocks:
        key = tuple(sorted(blk))
        block_multiset[key] = block_multiset.get(key, 0) + 1
    class_multiset = {}
    for cls in res.classes:
        key = tuple(sorted(tuple(sorted(design.blocks[i])) for i in cls))
        class_multiset[key] = class_multiset.get(key, 0) + 1
    infinity = design.v - 1
    for gamma in gens:
        perm = np.empty(design.v, dtype=np.int64)
        perm[infinity] = infinity
        perm[point_of] = point_of[G.add(np.arange(G.order, dtype=np.int64), int(gamma))]
        moved = {}
        for blk in design.blocks:
            key = tuple(sorted(int(perm[p]) for p in blk))
            moved[key] = moved.get(key, 0) + 1
        if moved != block_multiset:
            return DesignReport(False, detail="block multiset not invariant")
        movedc = {}
        for cls in res.classes:
            key = tuple(sorted(tuple(sorted(int(perm[p]) for p in design.blocks[i]))
                               for i in cls))
            movedc[key] = movedc.get(key, 0) + 1
        if movedc != class_multiset:
            return DesignReport(False, detail="resolution not invariant")
    return DesignReport(True)


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
