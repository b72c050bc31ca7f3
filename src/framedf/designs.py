"""Resolvable block designs: assembly from frame difference families,
ingredient designs, and exhaustive verification.

Points of an assembled design are the group elements in canonical
enumeration order with the fixed point last (index |G|).  Designs are
stored with sorted blocks and sorted classes so serialization is stable.
Assembly works on whole integer arrays (broadcast group addition, one
sort), and the blocks and classes it stores are those arrays: read-only
int64 of shape (b, k) and (classes, width).  The verifiers also take a
hand-built design whose rows are a list of tuples, ragged or not: every
scan runs on the rows as (flat points, row lengths), see _rows.  They scan
every point pair and every class in memory linear in the design: the pair
scan takes _PAIR_CHUNK points at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import field_of_order
from .groups import AbelianGroup
from .families import (WITNESSES, DesignFamily, Report, _count_report, _flat, _outside,
                       _partition_error, coset_labels, verify_fdf)

# points x per step of verify_bibd's pair scan
_PAIR_CHUNK = 128

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


@dataclass(frozen=True, eq=False)
class BlockDesign:
    """A (v, k, lam) design.  `blocks` is a read-only int64 (b, k) array
    when built by this package or read by serialize.design_from_dict from
    rows of one length (a file with rows of other lengths reads as a tuple
    of int64 rows, see _stored), or a sequence of point sequences, possibly
    ragged, when built by hand.  Equality and hashing are by identity
    (eq=False), not elementwise: compare two designs' rows with
    np.array_equal."""
    v: int
    k: int
    lam: int
    blocks: np.ndarray | tuple
    provenance: str = ""


@dataclass(frozen=True, eq=False)
class Resolution:
    """A partition of block indices into classes, stored as `blocks` is:
    a read-only int64 (classes, width) array or a sequence of rows.
    Equality and hashing are by identity."""
    classes: np.ndarray | tuple


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
    design = BlockDesign(k, k, 1, _stored(np.arange(k).reshape(1, k)),
                         provenance="trivial(%d)" % k)
    return design, Resolution(_stored([[0]]))


def affine_plane(q: int) -> tuple[BlockDesign, Resolution]:
    """AG(2,q): points GF(q)^2, blocks the q^2+q lines, resolved into q+1
    pencils of parallel lines.  A resolvable (q^2, q, 1) design."""
    fld = field_of_order(q)
    e = np.arange(q, dtype=np.int64)
    # pencil of slope m: line (m, c) holds the points x*q + y with y = m*x + c
    ys = fld.add(fld.mul(e[:, None, None], e[None, None, :]), e[None, :, None])
    sloped = np.sort(e * q + ys, axis=-1).reshape(q * q, q)
    vertical = e[:, None] * q + e[None, :]          # pencil x = c, last
    blocks = _stored(np.concatenate([sloped, vertical]))
    design = BlockDesign(q * q, q, 1, blocks, provenance="affinePlane(%d)" % q)
    return design, Resolution(_stored(np.arange(len(blocks)).reshape(q + 1, q)))


def rbibd_from_fdf(fdf: DesignFamily, ingredient: BlockDesign | Callable,
                   ingredient_res: Resolution | None = None
                   ) -> tuple[BlockDesign, Resolution, RotationalStructure]:
    """Resolvable design on G plus one extra point from a frame difference
    family and an ingredient resolvable design on |N|+1 points, given with
    its resolution or as a function of the block size k that builds both
    (trivial_rbibd, affine_plane), called once the family is verified.  A
    family that fails verify_fdf, or an ingredient that fails verify_bibd
    or verify_resolution, raises ValueError with the detail.

    For every coset representative s and every frame class index i, the
    parallel class is (frame class i translated by N then s) together with
    the i-th ingredient class copied onto (N+s) u {infinity}.  The returned
    rotational structure is the translation action of G; it is a design
    automorphism whenever the ingredient is itself 1-rotational over N
    (trivially so for the one-block ingredient).  Blocks are listed class
    by class, each class's translates (base block, then h in N) before its
    ingredient copies, all built as one array.
    """
    rep = verify_fdf(fdf)
    if not rep.ok:
        raise ValueError("family fails verify_fdf: " + rep.detail)
    G = fdf.group
    sub = np.asarray(fdf.subgroup, dtype=np.int64)
    n = len(sub)
    k = len(fdf.blocks[0])
    if callable(ingredient):
        ingredient, ingredient_res = ingredient(k)
    nclasses_needed = fdf.lam * n // (k - 1)
    if ingredient.v != n + 1 or ingredient.k != k or ingredient.lam != fdf.lam:
        raise ValueError("ingredient parameters do not match the frame")
    if len(ingredient_res.classes) != nclasses_needed:
        raise ValueError(
            f"ingredient must have {nclasses_needed} parallel classes, "
            f"has {len(ingredient_res.classes)}")
    rep = verify_bibd(ingredient) and verify_resolution(ingredient, ingredient_res)
    if not rep.ok:
        raise ValueError("ingredient fails verification: " + rep.detail)
    reps = np.unique(coset_labels(G, fdf.subgroup))    # the minimal element of each coset
    shifts = G.add(reps[:, None], sub[None, :])         # (coset, h) -> s + h
    # frame class i translated by N then s: (coset, class, base block, h, point)
    base = np.asarray(fdf.blocks, dtype=np.int64)[np.asarray(fdf.frame_partition)]
    translates = G.add(base[None, :, :, None, :], shifts[:, None, None, :, None])
    # ingredient copy on (N+s) u {infinity}: point j -> sub[j]+s, point n -> infinity
    point_map = np.column_stack([shifts, np.full(len(reps), G.order)])
    copies = point_map[:, np.asarray(ingredient.blocks)[np.asarray(ingredient_res.classes)]]
    per_class = np.concatenate([translates.reshape(copies.shape[:2] + (-1, k)), copies], axis=2)
    per_class.sort(axis=-1)
    blocks = _stored(per_class.reshape(-1, k))
    classes = _stored(np.arange(len(blocks)).reshape(-1, per_class.shape[2]))
    design = BlockDesign(G.order + 1, k, fdf.lam, blocks,
                         provenance=(fdf.provenance + " + " + ingredient.provenance).strip())
    rot = RotationalStructure(G, tuple(range(G.order)))
    return design, Resolution(classes), rot


def _stored(flat, lens: np.ndarray | None = None):
    """Blocks or classes in the form a design stores them.  `flat` is a 2-D
    array of rows, or the entries of rows in order with `lens` their
    lengths.  Rows of one nonzero length are a read-only C-contiguous int64
    (rows, width) array; other rows (a malformed design read from a file,
    for the verifiers to reject) a tuple of read-only int64 rows."""
    arr = np.ascontiguousarray(flat, dtype=np.int64)
    arr.flags.writeable = False
    if lens is None:
        return arr
    if len(lens) and lens[0] and (lens == lens[0]).all():
        return arr.reshape(len(lens), int(lens[0]))
    return tuple(np.split(arr, np.cumsum(lens)[:-1])) if len(lens) else ()


def _rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """Stored rows (blocks, or classes of block indices) as their entries
    in row order, int64, and each row's length: a ravel of a 2-D array, or
    _flat of a sequence of rows, ragged or not."""
    if isinstance(rows, np.ndarray):
        return (np.asarray(rows, dtype=np.int64).ravel(),
                np.full(len(rows), rows.shape[1], dtype=np.int64))
    return _flat(rows), np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))


def _size_error(lens: np.ndarray, k: int) -> tuple:
    """The blocks whose length is not k, naming the first, as the input
    checks of families return them."""
    wrong = np.flatnonzero(lens != k)[:WITNESSES]
    return (f"block {wrong[0]} does not have {k} points", wrong.tolist()) if len(wrong) else ()


def _pair_cells(at: np.ndarray, x0: int, width: int) -> np.ndarray:
    """The intp cells (x - x0) * width + y - x0 of the pairs (x, y) that the
    rows `at` hold at their first position x and each later position y.
    The rows are cast before any arithmetic, as they may be held in a
    dtype too narrow for the cells."""
    cells = at[:, 1:].astype(np.intp)
    cells -= x0
    head = at[:, :1].astype(np.intp)
    head -= x0
    head *= width
    cells += head
    return cells.ravel()


def verify_bibd(design: BlockDesign) -> Report:
    """Exact pair coverage: every 2-subset of points in exactly lam blocks.
    Points must lie in 0..v-1.  The pair scan counts each pair x < y once
    per pair of positions p < q of a block's sorted row that holds it, over
    chunks of _PAIR_CHUNK points x: the rows with x at position p (found
    through one stable sort per position) are counted into a row of cells
    y = x0..v-1 per x, from the chunk's first point x0, and the cells y > x
    are compared with lam, so memory is O(b*k + _PAIR_CHUNK*v).  The sorted
    rows are held in the narrowest dtype that holds v-1.  Pair
    witnesses are (point, point, count), in lexicographic order.  When b*k < v,
    a block count other than lam*v(v-1)/(k(k-1)) is reported first; with no
    blocks every pair count is 0, read off without a scan."""
    v = design.v
    k = design.k
    if k < 2:
        return Report(False, f"block size {k} < 2 covers no pairs", [("k", k)])
    flat, lens = _rows(design.blocks)
    error = _size_error(lens, k)
    if error:
        return Report(False, *error)
    mat = flat.reshape(-1, k)
    stray = np.argwhere((mat < 0) | (mat >= v))[:WITNESSES]
    if len(stray):
        bi, pos = stray[0]
        return Report(False, f"block {bi} holds point {mat[bi, pos]} outside 0..{v - 1}",
                      [(int(b), int(mat[b, p])) for b, p in stray])
    b, expected_b = len(mat), design.lam * v * (v - 1) // (k * (k - 1))
    blocks_off = Report(False, f"{b} blocks, expected {expected_b}", [("blocks", b)])
    if b * k < v and b != expected_b:       # some point lies in no block
        return blocks_off
    # with no blocks every pair lies in none
    unmet = ((x, y, 0) for x in range(v if design.lam else 0) for y in range(x + 1, v))
    bad = _pair_scan(mat, v, design.lam) if b else list(itertools.islice(unmet, WITNESSES))
    if bad:
        x, y, count = bad[0]
        return Report(False, f"pair ({x}, {y}) lies in {count} blocks, not {design.lam}", bad)
    # every pair is right: only blocks that repeat a point give another count
    return Report(True) if b == expected_b else blocks_off


def _pair_scan(mat: np.ndarray, v: int, lam: int) -> list[tuple[int, int, int]]:
    """verify_bibd's pair scan: the first WITNESSES pairs (x, y, count) off lam."""
    # sorted rows hold every pair x < y of a block at positions p < q: a block
    # holding x a times and y b times covers the pair a*b times
    k = mat.shape[1]
    rows = np.sort(mat.astype(np.min_scalar_type(v - 1)), axis=1)
    heads = [rows[:, p] for p in range(k - 1)]
    by_head = [np.argsort(h, kind="stable") for h in heads]
    starts = [np.concatenate([[0], np.cumsum(np.bincount(h, minlength=v))]) for h in heads]
    bad: list[tuple[int, int, int]] = []
    for x0 in range(0, v, _PAIR_CHUNK):
        x1 = min(v, x0 + _PAIR_CHUNK)
        width = v - x0
        # the cell (x - x0) * width + y - x0 counts the pair (x, y), y >= x >= x0
        parts = [_pair_cells(rows[order[start[x0]:start[x1]], p:], x0, width)
                 for p, order, start in zip(range(k - 1), by_head, starts)]
        counts = np.bincount(np.concatenate(parts), minlength=(x1 - x0) * width)
        wrong = (counts != lam).reshape(x1 - x0, width)
        wrong[:, :x1 - x0] &= ~np.tri(x1 - x0, dtype=bool)     # y > x only
        xs, ys = np.divmod(np.flatnonzero(wrong)[:WITNESSES - len(bad)], width)
        bad += zip((xs + x0).tolist(), (ys + x0).tolist(), counts[xs * width + ys].tolist())
        if len(bad) == WITNESSES:
            break
    return bad


def verify_resolution(design: BlockDesign, res: Resolution) -> Report:
    """Classes partition the block list; each class partitions the points
    0..v-1.  The classes are counted in one (class, point) table, which
    stops at the first class holding a point outside 0..v-1 or other than
    v points, so it is no larger than the points counted plus one row."""
    flat, lens = _rows(design.blocks)
    idx, class_lens = _rows(res.classes)
    error = _partition_error(idx, len(lens), "resolution")
    if error:
        return Report(False, *error)
    if design.k < 2:
        return Report(False, f"block size {design.k} < 2 covers no pairs", [("k", design.k)])
    v = design.v
    expected = design.lam * (v - 1) // (design.k - 1)
    if len(class_lens) != expected:
        return Report(False, f"{len(class_lens)} classes, expected {expected}",
                      [("classes", len(class_lens))])
    # each point's class, in block order (the partition check above makes
    # idx a permutation of the blocks)
    block_class = np.empty(len(lens), dtype=np.int64)
    block_class[idx] = np.repeat(np.arange(len(class_lens)), class_lens)
    class_of = np.repeat(block_class, lens)
    sizes = np.bincount(class_of, minlength=len(class_lens))
    first_stray = class_of[(flat < 0) | (flat >= v)].min(initial=len(sizes))
    first_wrong = np.append(np.flatnonzero(sizes != v), len(sizes))[0]
    rows = min(first_stray, first_wrong + 1)
    cells, points = class_of, flat
    if rows < len(sizes):
        counted = class_of < rows
        cells, points = class_of[counted], flat[counted]
    cells *= v      # in place: class_of is not read again
    cells += points
    table = np.bincount(cells, minlength=rows * v).reshape(rows, v)
    bad = np.flatnonzero((table != 1).any(axis=1))
    if len(bad):
        return _count_report(table[bad[0]], 1, f"class {bad[0]}: point")
    if first_stray < len(sizes):
        # the stray class's points in the order the class lists its blocks
        end = class_lens[:first_stray + 1].sum()
        starts = np.cumsum(lens) - lens
        pts = np.concatenate([flat[starts[i]:starts[i] + lens[i]]
                              for i in idx[end - class_lens[first_stray]:end]])
        return Report(False, *_outside(pts, v, f"class {first_stray}: point"))
    return Report(True)


def verify_one_rotational(design: BlockDesign, res: Resolution,
                          rot: RotationalStructure) -> Report:
    """The translation by each group generator must fix infinity, permute the
    other points sharply transitively, and map the block multiset and the
    class partition to themselves.  Invariance under generators implies
    invariance under the whole group; a failing generator is the witness.
    Every block must have k points, as in verify_bibd.  Multisets are
    compared as canonical arrays: the row-sorted blocks in lexicographic
    order, then the classes as sorted rows of block ids, likewise, each
    row packed into int64 keys (_canonical)."""
    G = rot.group
    if G.order != design.v - 1:
        return Report(False, f"group order {G.order} is not v-1 = {design.v - 1}",
                      [("order", G.order)])
    point_of = np.asarray(rot.action, dtype=np.int64)
    flat, lens = _rows(design.blocks)
    idx, class_lens = _rows(res.classes)
    error = (_outside(point_of, G.order, "action point")
             or _outside(flat, design.v, "block point")
             or _outside(idx, len(lens), "class block"))
    if error:
        return Report(False, *error)
    rep = _count_report(np.bincount(point_of, minlength=G.order), 1, "action: point")
    if not rep.ok:
        return rep
    error = _size_error(lens, design.k)
    if error:
        return Report(False, *error)
    mat = flat.reshape(len(lens), design.k)
    # the classes as rows of block indices, short ones padded with -1
    padded = np.full((len(class_lens), class_lens.max(initial=0)), -1, dtype=np.int64)
    padded[np.arange(padded.shape[1]) < class_lens[:, None]] = idx

    def multisets(perm):
        """The block and class multisets with points renamed by perm, in
        canonical form.  A block's id is its rank among the distinct
        blocks, so two designs' class ids agree once their blocks do."""
        moved = perm[mat]
        moved.sort(axis=1)
        blocks, ids = _canonical(moved, design.v)
        classes = np.append(ids + 1, 0)[padded]     # ids from 1, padding 0
        classes.sort(axis=1)
        return blocks, _canonical(classes, len(ids) + 1)[0]

    blocks, classes = multisets(np.arange(design.v))
    infinity = design.v - 1
    for gamma in G.generators():
        perm = np.empty(design.v, dtype=np.int64)
        perm[infinity] = infinity
        perm[point_of] = point_of[G.add(np.arange(G.order, dtype=np.int64), int(gamma))]
        moved_blocks, moved_classes = multisets(perm)
        if not np.array_equal(moved_blocks, blocks):
            return Report(False, f"translation by {gamma} moves the block multiset", [gamma])
        if not np.array_equal(moved_classes, classes):
            return Report(False, f"translation by {gamma} moves the resolution", [gamma])
    return Report(True)


def _canonical(rows: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a matrix of integers in 0..bound-1 in lexicographic
    order, as packed keys (one int64 key array per 63 // bits entries, the
    first entry in the high bits, so keys order and compare as the rows
    do), and each row's rank among the distinct rows."""
    bits = max(1, (bound - 1).bit_length())
    per = 63 // bits
    keys = np.zeros((-(-rows.shape[1] // per), len(rows)), dtype=np.int64)
    for j in range(rows.shape[1]):
        keys[j // per] <<= bits
        keys[j // per] |= rows[:, j]
    order = np.lexsort(keys[::-1]) if len(keys) else np.arange(len(rows))
    ranked = keys[:, order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ranked, ids


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
