"""Computer-search machinery: the explicit cyclotomic existence threshold,
constraint systems over cyclotomic classes, a deterministic solver, and
repair of suspect lifting data.

A ConstraintSystem carries one symbolic linear form per needed field
expression (y, -y, 2y, y_i +- y_j, ...) and uniformity groups demanding
that the labels (discrete logs mod the group modulus) of a set of forms
cover every residue class an exact number of times.  The solver first
tries any sign-pairing reductions attached to the system (the pattern
structure of the underlying constructions), then splits the unknowns into
clusters (connected components of the form graph) and

* enumerates each cluster's feasible label signatures by vectorized
  frontier expansion and runs forward-checking DFS over the clusters
  (fail-first, hint-preferred order) when every cluster is enumerable;
* otherwise runs one complete depth-first search over unknown values with
  value-level forward checking, a scaling gauge on the first unknown, and
  candidates in ascending discrete-log order.

Hints order candidates (signatures agreeing with the hinted label plan are
tried first) but never exclude assignments.  Every success is re-verified
against the full system, and against the lifting conditions whenever the
system knows how to assemble a lifting datum.  The search order is fixed:
the same system always yields the same result and node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import FiniteField, field_of_order
from .families import DesignFamily, SDF
from .lifting import LiftingData, check_lifting_conditions

__all__ = [
    "q_bound",
    "q_bound_bracket",
    "Form",
    "UniformityGroup",
    "ConstraintSystem",
    "generic_system",
    "paired_pattern_system",
    "paley3_pattern_system",
    "z125_system",
    "solve",
    "SolveResult",
    "repair_block",
    "RepairError",
]


# ---------------------------------------------------------------------------
# The explicit existence threshold


def _bound_u(d: int, m: int) -> int:
    return sum(math.comb(m, h) * (d - 1) ** h * (h - 1) for h in range(1, m + 1))


def q_bound(d: int, m: int) -> Decimal:
    """Q(d,m) = ((U + sqrt(U^2 + 4 d^(m-1) m)) / 2)^2 with exact big-integer U,
    as a Decimal good to well over six significant digits."""
    if d < 1 or m < 1:
        raise ValueError("need d, m >= 1")
    U = _bound_u(d, m)
    with localcontext() as ctx:
        ctx.prec = max(60, len(str(U)) * 2 + 30)
        disc = (Decimal(U) ** 2 + 4 * Decimal(d) ** (m - 1) * m).sqrt()
        return ((Decimal(U) + disc) / 2) ** 2


def q_bound_bracket(d: int, m: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket [lo, hi) containing Q(d,m), via integer sqrt."""
    U = _bound_u(d, m)
    N = U * U + 4 * d ** (m - 1) * m
    s = math.isqrt(N)
    return Fraction((U + s) ** 2, 4), Fraction((U + s + 1) ** 2, 4)


# ---------------------------------------------------------------------------
# Constraint systems


@dataclass(frozen=True)
class Form:
    """A linear expression over unknowns: value = sum(coeff * y) in GF(q)."""
    name: str
    terms: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class UniformityGroup:
    """Labels (dlog mod modulus) of the member forms must cover every
    residue class exactly `multiplicity` times."""
    forms: tuple[int, ...]
    modulus: int
    multiplicity: int = 1


@dataclass
class ConstraintSystem:
    field: FiniteField
    d: int
    unknowns: tuple[str, ...]
    forms: tuple[Form, ...]
    groups: tuple[UniformityGroup, ...]
    hints: dict = dc_field(default_factory=dict)        # form index -> preferred label
    lifting_builder: Optional[Callable] = None           # assignment -> LiftingData
    provenance: str = ""
    # optional search-space restrictions tried before the full space: each is
    # a map follower unknown -> (leader unknown, sign), e.g. the sign-paired
    # tuples behind the pattern lemmas
    reductions: tuple[dict, ...] = ()

    def eval_form(self, fi: int, assignment: Sequence[int]) -> int:
        fld = self.field
        acc = 0
        for u, c in self.forms[fi].terms:
            v = int(assignment[u])
            if c == 1:
                term = v
            elif c == -1:
                term = fld.neg(v)
            else:
                term = int(fld.mul(v, c % fld.q))
            acc = int(fld.add(acc, term))
        return acc

    def check_assignment(self, assignment: Sequence[int]) -> bool:
        fld = self.field
        vals = [self.eval_form(fi, assignment) for fi in range(len(self.forms))]
        if any(v == 0 for v in vals):
            return False
        logs = [fld.dlog(v) for v in vals]
        for g in self.groups:
            counts = [0] * g.modulus
            for fi in g.forms:
                counts[logs[fi] % g.modulus] += 1
            if any(c != g.multiplicity for c in counts):
                return False
        return True


class _SystemBuilder:
    def __init__(self):
        self.forms: list[Form] = []
        self.index: dict[tuple, int] = {}

    def form(self, terms: tuple[tuple[int, int], ...], name: str) -> int:
        if terms not in self.index:
            self.index[terms] = len(self.forms)
            self.forms.append(Form(name, terms))
        return self.index[terms]


def generic_system(sdf: DesignFamily, q: int, e: int, d: int, lam: int,
                   partition: Optional[Sequence[Sequence[int]]] = None) -> ConstraintSystem:
    """Symbolic label system for lifting an SDF over GF(q) with e = q - 1:
    one unknown per block position, one difference group per group element
    (half-range convention on 2-torsion slots), one element group per part.
    """
    if sdf.kind != SDF:
        raise ValueError("need an SDF")
    if e != q - 1:
        raise ValueError("the symbolic system requires e = q - 1")
    fld = field_of_order(q)
    G = sdf.group
    k = len(sdf.blocks[0])
    if d * (q - 1) % (e * k):
        raise ValueError("d(q-1) must be divisible by ek")
    t = d * (q - 1) // (e * k)
    if (lam * G.order) % (k - 1):
        raise ValueError("lambda|G| must be divisible by k-1")
    n = len(sdf.blocks)
    if partition is None:
        nparts = lam * G.order // (k - 1)
        if n != nparts * t:
            raise ValueError("cannot derive a partition: block count mismatch")
        partition = tuple(tuple(range(i * t, (i + 1) * t)) for i in range(nparts))
    if lam % 2 == 1 and (q - d - 1) % (2 * d):
        raise ValueError("odd lambda requires q = d+1 (mod 2d)")
    unknowns = tuple(f"phi_{i}_{a}" for i in range(n) for a in range(k))
    ui = lambda i, a: i * k + a
    sb = _SystemBuilder()
    halved = {int(h) for h in range(G.order) if int(G.add(h, h)) == 0}
    slot_forms: dict[int, list[int]] = {}
    for i, frow in enumerate(sdf.blocks):
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                h = int(G.sub(frow[a], frow[b]))
                if h in halved and a > b:
                    continue
                fi = sb.form(((ui(i, a), 1), (ui(i, b), -1)), f"phi_{i}_{a}-phi_{i}_{b}")
                slot_forms.setdefault(h, []).append(fi)
    groups = []
    for h in sorted(slot_forms):
        if h in halved:
            if lam % 2 == 0:
                groups.append(UniformityGroup(tuple(slot_forms[h]), d, lam // 2))
            else:
                groups.append(UniformityGroup(tuple(slot_forms[h]), d // 2, lam))
        else:
            groups.append(UniformityGroup(tuple(slot_forms[h]), d, lam))
    for part in partition:
        fis = tuple(sb.form(((ui(i, a), 1),), f"phi_{i}_{a}")
                    for i in part for a in range(k))
        groups.append(UniformityGroup(fis, d, 1))

    def builder(assignment):
        phi = tuple(tuple(int(assignment[ui(i, a)]) for a in range(k)) for i in range(n))
        return LiftingData(sdf, fld, e=e, d=d, lam=lam, phi=phi,
                           partition=tuple(tuple(p) for p in partition),
                           provenance=f"generic({sdf.provenance},q={q})")

    # sign-pairing restrictions (the pattern lemmas): adjacent repeated block
    # values take opposite signs, and identical blocks pair up negated
    reduction: dict[int, tuple[int, int]] = {}
    for i, frow in enumerate(sdf.blocks):
        for a in range(0, k - 1, 2):
            if frow[a] == frow[a + 1]:
                reduction[ui(i, a + 1)] = (ui(i, a), -1)
    paired: set[int] = set()
    for i in range(n):
        if i in paired:
            continue
        for j in range(i + 1, n):
            if j not in paired and sdf.blocks[j] == sdf.blocks[i]:
                for a in range(k):
                    reduction[ui(j, a)] = (ui(i, a), -1)
                paired.update({i, j})
                break
    reductions = (reduction,) if reduction else ()

    return ConstraintSystem(fld, d, unknowns, tuple(sb.forms), tuple(groups),
                            lifting_builder=builder,
                            provenance=f"generic({sdf.provenance},q={q},d={d})",
                            reductions=reductions)


def _pattern_values(block: Sequence[int]) -> list[int]:
    if len(block) % 2:
        raise ValueError("pattern block must have even size")
    xs = []
    for i in range(0, len(block), 2):
        if block[i] != block[i + 1]:
            raise ValueError("pattern block must repeat each value twice, adjacently")
        xs.append(block[i])
    if len(set(xs)) != len(xs):
        raise ValueError("pattern values must be distinct")
    return xs


def _sign_paired_system(sdf: DesignFamily, q: int, rows, d: int, partition,
                        provenance: str) -> ConstraintSystem:
    """System for blocks zipped with fully sign-paired tuples, e = (q-1)/2.

    rows: list of (xs, base) with xs the distinct repeated values of the
    block and base the first unknown index of its y's; the tuple at the
    block is (y_base, -y_base, y_base+1, -y_base+1, ...).  Classes mod d
    are sign-invariant in the intended fields, so each +- quadruple of
    expressions is represented by its two canonical forms y_i +- y_j and
    each slot pair {h, -h} by one difference group.
    """
    fld = field_of_order(q)
    G = sdf.group
    sb = _SystemBuilder()
    slot_forms: dict[int, list[int]] = {}
    zero_forms: list[int] = []
    for xs, base in rows:
        m = len(xs)
        for i in range(m):
            zero_forms.append(sb.form(((base + i, 2),), f"2y_{base + i}"))
            for j in range(m):
                if i == j:
                    continue
                h = int(G.sub(xs[i], xs[j]))
                hm = min(h, int(G.neg(h)))
                hi, lo = max(base + i, base + j), min(base + i, base + j)
                slot_forms.setdefault(hm, [])
                slot_forms[hm].append(sb.form(((hi, 1), (lo, -1)), f"y_{hi}-y_{lo}"))
                slot_forms[hm].append(sb.form(((hi, 1), (lo, 1)), f"y_{hi}+y_{lo}"))
    groups = [UniformityGroup(tuple(zero_forms), d, 1)]
    for h in sorted(slot_forms):
        groups.append(UniformityGroup(tuple(sorted(set(slot_forms[h]))), d, 1))
    unknowns = tuple(f"y_{i}" for i in range(sum(len(xs) for xs, _ in rows)))

    def builder(assignment):
        phi = tuple(tuple(w for v in map(int, assignment[base:base + len(xs)])
                          for w in (v, fld.neg(v)))
                    for xs, base in rows)
        return LiftingData(sdf, fld, e=(q - 1) // 2, d=d, lam=1, phi=phi,
                           partition=partition, provenance=provenance)

    return ConstraintSystem(fld, d, unknowns, tuple(sb.forms), tuple(groups),
                            lifting_builder=builder, provenance=provenance)


def paired_pattern_system(sdf: DesignFamily, q: int) -> ConstraintSystem:
    """System for a one-block SDF (x0,x0,...,x_{(l-1)/2},x_{(l-1)/2}) lifted
    with the sign-paired tuple (y_0,-y_0,...); d = (l+1)/2 unknowns.
    Needs q = 1 (mod l+1) so classes mod d are sign-invariant."""
    if len(sdf.blocks) != 1:
        raise ValueError("paired pattern needs a single base block")
    xs = _pattern_values(sdf.blocks[0])
    l = 2 * len(xs) - 1
    if (q - 1) % (l + 1):
        raise ValueError("need q = 1 (mod l+1)")
    return _sign_paired_system(sdf, q, [(xs, 0)], (l + 1) // 2, ((0,),),
                               f"paired({sdf.provenance},q={q})")


def paley3_pattern_system(p: int, q: int) -> ConstraintSystem:
    """Two-block third-type Paley pattern over F_p (p = 1 mod 4): the even
    generator powers doubled in one block, the odd powers in the other,
    zipped with sign-paired tuples sharing the unknown pool y_0..y_p;
    d = p + 1, q = 1 (mod 2p+2)."""
    if p % 4 != 1:
        raise ValueError("need p = 1 (mod 4)")
    if (q - 1) % (2 * p + 2):
        raise ValueError("need q = 1 (mod 2p+2)")
    pfld = field_of_order(p)
    from .groups import AbelianGroup
    G = AbelianGroup.additive(pfld) if pfld.m > 1 else AbelianGroup.cyclic(p)
    evens = [0] + [pfld.pow_generator(2 * j) for j in range(1, (p - 1) // 2 + 1)]
    odds = [0] + [pfld.pow_generator(2 * j + 1) for j in range((p - 1) // 2)]
    b1 = tuple(v for x in evens for v in (x, x))
    b2 = tuple(v for x in odds for v in (x, x))
    sdf = DesignFamily(SDF, G, 2 * p + 2, (b1, b2), provenance=f"paley3({p})")
    return _sign_paired_system(sdf, q, [(evens, 0), (odds, (p + 1) // 2)], p + 1,
                               ((0, 1),), f"paley3({p},q={q})")


# ---------------------------------------------------------------------------
# The 51-unknown system behind the (Z125, 6, 6) lifting

# Fixed label plan for the doubled values and the inner-pair expressions of
# the twelve paired blocks (columns i = 1..12).
_Z125_GTABLE = {
    "2y_a": (1, 1, 1, 2, 1, 2, 0, 0, 1, 2, 0, 2),
    "2y_b": (2, 2, 2, 1, 2, 1, 2, 1, 0, 0, 2, 0),
    "b-a": (2, 1, 2, 1, 1, 2, 2, 2, 0, 1, 1, 0),
    "b+a": (1, 1, 1, 1, 1, 0, 2, 1, 2, 0, 0, 1),
}


def z125_system(q: int) -> ConstraintSystem:
    """Pattern system for lifting the 25-block (Z125, 6, 6) family: unknowns
    y_{1,1..3} (first block, fully sign-paired) and y_{2i,1..4} for
    i = 1..12 (rows (y1,-y1,y2,-y2,y3,y4) with the odd rows equal to the
    negated even rows).  One permutation group per slot pair {h,-h}
    (labels mod 3) and one representative-system group per independent row
    (labels mod 6).  The fixed label plan for the doubled and inner-pair
    expressions enters as hints, completed lexicographically group by
    group; hints steer the search order and are relaxed when no assignment
    realizes them."""
    if (q - 7) % 12:
        raise ValueError("need q = 7 (mod 12)")
    from .catalog import z125_6_6
    sdf = z125_6_6()
    G = sdf.group
    fld = field_of_order(q)
    # unknown layout: 0..2 -> y_{1,t}; 3 + 4*(i-1) + s-1 -> y_{2i,s}
    names = [f"y_1_{t}" for t in (1, 2, 3)]
    for i in range(1, 13):
        names += [f"y_{2 * i}_{s}" for s in (1, 2, 3, 4)]
    u1 = lambda t: t - 1
    u2 = lambda i, s: 3 + 4 * (i - 1) + (s - 1)
    sb = _SystemBuilder()

    def canon_pm(ua, ub, sign):
        """Canonical +-representative of y_ua - (+-) y_ub up to global sign."""
        if ua == ub:
            raise ValueError("degenerate expression")
        hi, lo = max(ua, ub), min(ua, ub)
        if sign > 0:
            return sb.form(((hi, 1), (lo, 1)), f"{names[hi]}+{names[lo]}")
        return sb.form(((hi, 1), (lo, -1)), f"{names[hi]}-{names[lo]}")

    # symbolic tuples per independent block (index j in the SDF: 0, 1, 3, 5, ...)
    # tuple entries: (unknown, sign)
    tuples: dict[int, list[tuple[int, int]]] = {}
    tuples[0] = [(u1(1), 1), (u1(1), -1), (u1(2), 1), (u1(2), -1), (u1(3), 1), (u1(3), -1)]
    for i in range(1, 13):
        tuples[2 * i - 1] = [(u2(i, 1), 1), (u2(i, 1), -1), (u2(i, 2), 1), (u2(i, 2), -1),
                             (u2(i, 3), 1), (u2(i, 4), 1)]
    # slot groups: iterate independent blocks; negated twins add nothing new
    slot_forms: dict[int, set[int]] = {}
    for j, tup in tuples.items():
        frow = sdf.blocks[j]
        for a in range(6):
            for b in range(6):
                if a == b:
                    continue
                h = int(G.sub(frow[a], frow[b]))
                hm = min(h, 125 - h) if h else 0
                (ua, sa), (ub, sbn) = tup[a], tup[b]
                if ua == ub:
                    # +-y - (-+y) = +-2y; same unknown with equal signs never
                    # occurs at distinct positions
                    fi = sb.form(((ua, 2),), f"2{names[ua]}")
                else:
                    fi = canon_pm(ua, ub, -sa * sbn)
                slot_forms.setdefault(hm, set()).add(fi)
    groups = []
    for h in sorted(slot_forms):
        groups.append(UniformityGroup(tuple(sorted(slot_forms[h])), 3, 1))
    # row groups: representative system mod 6 per independent row
    for j, tup in tuples.items():
        fis = tuple(sb.form(((u, s),), ("" if s > 0 else "-") + names[u]) for u, s in tup)
        groups.append(UniformityGroup(fis, 6, 1))
    # hints: the published plan for the paired rows, completed lexicographically
    hints: dict[int, int] = {}
    for i in range(1, 13):
        hints[sb.form(((u2(i, 1), 2),), f"2{names[u2(i, 1)]}")] = _Z125_GTABLE["2y_a"][i - 1]
        hints[sb.form(((u2(i, 2), 2),), f"2{names[u2(i, 2)]}")] = _Z125_GTABLE["2y_b"][i - 1]
        hints[canon_pm(u2(i, 1), u2(i, 2), -1)] = _Z125_GTABLE["b-a"][i - 1]
        hints[canon_pm(u2(i, 1), u2(i, 2), 1)] = _Z125_GTABLE["b+a"][i - 1]
    for g in groups:
        if g.modulus != 3:
            continue
        have = [hints[fi] for fi in g.forms if fi in hints]
        if len(set(have)) != len(have):
            continue
        rest = sorted(set(range(3)) - set(have))
        it = iter(rest)
        for fi in g.forms:
            if fi not in hints:
                nxt = next(it, None)
                if nxt is not None:
                    hints[fi] = nxt

    def builder(assignment):
        phi = []
        for j in range(25):
            tup = tuples[j] if j in tuples else tuples[j - 1]
            sign = 1 if j in tuples else -1
            row = []
            for u, s in tup:
                v = int(assignment[u])
                row.append(v if s * sign > 0 else fld.neg(v))
            phi.append(tuple(row))
        return LiftingData(sdf, fld, e=q - 1, d=6, lam=1, phi=tuple(phi),
                           partition=tuple((j,) for j in range(25)),
                           provenance=f"z125(q={q})")

    return ConstraintSystem(fld, 6, tuple(names), tuple(sb.forms), tuple(groups),
                            hints=hints, lifting_builder=builder,
                            provenance=f"z125(q={q})")


# ---------------------------------------------------------------------------
# Solver


@dataclass(frozen=True)
class SolveResult:
    status: str                      # "sat" | "exhausted" | "budget_exceeded"
    assignment: Optional[dict] = None
    nodes: int = 0

    def __bool__(self):
        return self.status == "sat"


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.nodes = 0

    def spend(self, k: int = 1) -> bool:
        self.nodes += k
        return self.nodes <= self.limit


def _clusters_of(system: ConstraintSystem) -> list[list[int]]:
    n = len(system.unknowns)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f in system.forms:
        us = [u for u, _ in f.terms]
        for u in us[1:]:
            ra, rb = find(us[0]), find(u)
            if ra != rb:
                parent[rb] = ra
    out: dict[int, list[int]] = {}
    for u in range(n):
        out.setdefault(find(u), []).append(u)
    return [sorted(v) for _, v in sorted(out.items())]


def _eval_forms_array(system: ConstraintSystem, fis: Sequence[int],
                      cols: dict[int, np.ndarray]) -> np.ndarray:
    """Evaluate forms on column vectors of unknown values; (rows, len(fis))."""
    fld = system.field
    nrows = len(next(iter(cols.values())))
    out = np.empty((nrows, len(fis)), dtype=np.int64)
    for k, fi in enumerate(fis):
        acc = np.zeros(nrows, dtype=np.int64)
        for u, c in system.forms[fi].terms:
            v = cols[u]
            if c == 1:
                term = v
            elif c == -1:
                term = fld.neg(v)
            else:
                term = fld.mul(v, c % fld.q)
            acc = fld.add(acc, term)
        out[:, k] = acc
    return out


# Cluster enumeration gives up (and the solver falls back to _dfs_direct) once
# the candidate rows it has expanded exceed _WORK_CAP; frontiers are expanded
# in chunks of at most _FRONTIER_CAP rows.
_FRONTIER_CAP = 2_500_000
_WORK_CAP = 80_000_000


def _enumerate_cluster(system: ConstraintSystem, form_groups: list[list[int]],
                       cluster: list[int]):
    """All value assignments of the cluster satisfying every group whose forms
    lie entirely inside it, with partial-count caps for straddling groups.

    Returns (witnesses, signatures, cross_forms) deduplicated by signature
    (the labels of the cluster's forms belonging to straddling groups), or
    None when the expansion is too large or a multiplicity > 1 appears.
    """
    sysd = system
    log = system.field._log
    cluster_set = set(cluster)
    inner_forms = [fi for fi, f in enumerate(sysd.forms)
                   if f.terms and all(u in cluster_set for u, _ in f.terms)]
    inner_set = set(inner_forms)
    local_groups, straddle = [], []
    for gi, g in enumerate(sysd.groups):
        ins = [fi for fi in g.forms if fi in inner_set]
        if not ins:
            continue
        if g.multiplicity != 1:
            return None
        (local_groups if len(ins) == len(g.forms) else straddle).append(gi)
    cross_forms = sorted({fi for gi in straddle for fi in sysd.groups[gi].forms
                          if fi in inner_set})
    order = list(cluster)
    pos = {u: i for i, u in enumerate(order)}
    completes_at: dict[int, list[int]] = {}
    for fi in inner_forms:
        completes_at.setdefault(max(pos[u] for u, _ in sysd.forms[fi].terms), []).append(fi)
    values = np.arange(1, sysd.field.q, dtype=np.int64)
    gids = sorted(set(local_groups) | set(straddle))
    gslot = {gi: k for k, gi in enumerate(gids)}

    def apply_forms(frontier, masks, fis, level):
        cols = {order[i]: frontier[:, i] for i in range(level + 1)}
        vals = _eval_forms_array(sysd, fis, cols)
        keep = ~np.any(vals == 0, axis=1)
        frontier, masks, vals = frontier[keep], masks[keep], vals[keep]
        for k, fi in enumerate(fis):
            if len(frontier) == 0:
                break
            logs = log[vals[:, k]]
            for gi in form_groups[fi]:
                if gi not in gslot:
                    continue
                mod = sysd.groups[gi].modulus
                bit = np.int64(1) << (logs % mod).astype(np.int64)
                col = gslot[gi]
                good = (masks[:, col] & bit) == 0
                if not good.all():
                    frontier, masks, vals = frontier[good], masks[good], vals[good]
                    logs, bit = logs[good], bit[good]
                masks[:, col] = masks[:, col] | bit
        return frontier, masks

    # class-directed expansion: when the new unknown's identity form sits in a
    # tracked group, only classes still free in that group's bitmask are tried
    form_index = {f.terms: fi for fi, f in enumerate(sysd.forms)}

    def expansion_plan(u):
        fi = form_index.get(((u, 1),))
        if fi is None:
            return None
        cands = [gi for gi in form_groups[fi] if gi in gslot]
        if not cands:
            return None
        gi = max(cands, key=lambda g: sysd.groups[g].modulus)
        mod = sysd.groups[gi].modulus
        cls = log[values] % mod
        return gslot[gi], mod, [values[cls == c] for c in range(mod)]

    def expand(fr, mk, level):
        plan = expansion_plan(order[level])
        if plan is None:
            reps = np.repeat(fr, len(values), axis=0)
            newcol = np.tile(values, len(fr))
            return np.concatenate([reps, newcol[:, None]], axis=1), \
                np.repeat(mk, len(values), axis=0)
        col, mod, by_class = plan
        parts_f, parts_m = [], []
        for c in range(mod):
            if len(by_class[c]) == 0:
                continue
            sel = (mk[:, col] >> c) & 1 == 0
            if not sel.any():
                continue
            fr_c, mk_c = fr[sel], mk[sel]
            reps = np.repeat(fr_c, len(by_class[c]), axis=0)
            newcol = np.tile(by_class[c], len(fr_c))
            parts_f.append(np.concatenate([reps, newcol[:, None]], axis=1))
            parts_m.append(np.repeat(mk_c, len(by_class[c]), axis=0))
        if not parts_f:
            return fr[:0, :].reshape(0, fr.shape[1] + 1), mk[:0]
        return np.concatenate(parts_f), np.concatenate(parts_m)

    frontier = values[:, None]
    masks = np.zeros((len(frontier), len(gids)), dtype=np.int64)
    if 0 in completes_at:
        frontier, masks = apply_forms(frontier, masks, completes_at[0], 0)
    work = 0
    for level in range(1, len(order)):
        n0 = len(frontier)
        work += n0 * len(values)
        if work > _WORK_CAP:
            return None
        parts_f, parts_m = [], []
        chunk = max(1, _FRONTIER_CAP // max(1, len(values)))
        for lo in range(0, n0, chunk):
            fr2, mk2 = expand(frontier[lo:lo + chunk], masks[lo:lo + chunk], level)
            if level in completes_at and len(fr2):
                fr2, mk2 = apply_forms(fr2, mk2, completes_at[level], level)
            parts_f.append(fr2)
            parts_m.append(mk2)
        frontier = np.concatenate(parts_f) if parts_f else frontier[:0]
        masks = np.concatenate(parts_m) if parts_m else masks[:0]
        if len(frontier) == 0:
            break
    if len(frontier) == 0:
        return (np.zeros((0, len(order)), dtype=np.int64),
                np.zeros((0, len(cross_forms)), dtype=np.int8), cross_forms)
    cols = {order[i]: frontier[:, i] for i in range(len(order))}
    sigl = np.zeros((len(frontier), len(cross_forms)), dtype=np.int8)
    if cross_forms:
        sig = _eval_forms_array(sysd, cross_forms, cols)
        mods = []
        for k, fi in enumerate(cross_forms):
            ms = [sysd.groups[gi].modulus for gi in form_groups[fi] if gi in gslot]
            mods.append(ms[0] if ms else sysd.d)
            sigl[:, k] = log[sig[:, k]] % mods[-1]
        if math.prod(mods) < 2**62:
            enc = np.zeros(len(sigl), dtype=np.int64)
            for k in range(len(cross_forms)):
                enc = enc * mods[k] + sigl[:, k]
            _, first = np.unique(enc, return_index=True)
        else:
            _, first = np.unique(sigl, axis=0, return_index=True)
        first = np.sort(first)
        frontier, sigl = frontier[first], sigl[first]
    else:
        frontier = frontier[:1]
    return frontier, sigl, cross_forms


def _fc_over_clusters(system: ConstraintSystem, form_groups: list[list[int]], clusters,
                      domains, budget: _Budget):
    """Forward-checking DFS over enumerated cluster domains (complete)."""
    ncl = len(clusters)
    # cross constraint incidence: (cluster, col in its signature, group, modulus)
    slots = []
    for ci, (_, sigl, cross) in enumerate(domains):
        for k, fi in enumerate(cross):
            for gi in form_groups[fi]:
                slots.append((ci, k, gi))
    bygroup: dict[int, list[tuple[int, int]]] = {}
    for ci, k, gi in slots:
        bygroup.setdefault(gi, []).append((ci, k))
    # hint-preferred ordering: stable sort by disagreement count then original order
    hint_order = []
    for ci, (wit, sigl, cross) in enumerate(domains):
        if len(sigl) == 0:
            return SolveResult("exhausted", nodes=budget.nodes)
        score = np.zeros(len(sigl), dtype=np.int64)
        for k, fi in enumerate(cross):
            if fi in system.hints:
                score += sigl[:, k] != system.hints[fi]
        hint_order.append(np.argsort(score, kind="stable"))
    masks = [np.ones(len(d[0]), dtype=bool) for d in domains]
    assigned: dict[int, int] = {}

    def dfs():
        if len(assigned) == ncl:
            return True
        live = [(int(masks[ci].sum()), ci) for ci in range(ncl) if ci not in assigned]
        cnt, ci = min(live)
        if cnt == 0:
            return False
        wit, sigl, cross = domains[ci]
        idxs = hint_order[ci][masks[ci][hint_order[ci]]]
        for row in idxs:
            if not budget.spend():
                return False
            assigned[ci] = int(row)
            saved = []
            ok = True
            for k, fi in enumerate(cross):
                lab = sigl[row, k]
                for gi in form_groups[fi]:
                    for cj, kk in bygroup.get(gi, ()):
                        if cj == ci or cj in assigned:
                            if cj != ci and cj in assigned and \
                                    domains[cj][1][assigned[cj], kk] == lab:
                                ok = False
                            continue
                        saved.append((cj, masks[cj]))
                        masks[cj] = masks[cj] & (domains[cj][1][:, kk] != lab)
                if not ok:
                    break
            if ok and dfs():
                return True
            for cj, m in reversed(saved):
                masks[cj] = m
            del assigned[ci]
        return False

    if dfs():
        assignment = {}
        for ci, cl in enumerate(clusters):
            wit = domains[ci][0][assigned[ci]]
            for i, u in enumerate(cl):
                assignment[u] = int(wit[i])
        return SolveResult("sat", assignment, budget.nodes)
    status = "exhausted" if budget.nodes <= budget.limit else "budget_exceeded"
    return SolveResult(status, nodes=budget.nodes)


def _dfs_direct(system: ConstraintSystem, form_groups: list[list[int]],
                budget: _Budget) -> SolveResult:
    """Complete DFS over unknown values with value-level forward checking.

    All requirements are uniformity groups, which are invariant under
    scaling every unknown by a common nonzero element, so the first
    unknown searched is pinned to 1 (completeness is preserved: every
    satisfiable system has a solution in that gauge).  After each
    placement, every form with exactly one unassigned unknown prunes that
    unknown's value domain through the form's group counts; the next
    unknown is always one of minimal live domain, and its candidate values
    are tried in ascending discrete-log order.
    """
    sysd = system
    fld = sysd.field
    q = fld.q
    n = len(sysd.unknowns)
    values = np.arange(1, q, dtype=np.int64)
    by_log = values[np.argsort(fld._log[values])]
    # form bookkeeping
    counts = [np.zeros(g.modulus, dtype=np.int64) for g in sysd.groups]
    assign = [0] * n
    assigned = [False] * n
    unknowns_of_form = [tuple(u for u, _ in f.terms) for f in sysd.forms]
    coeff_of = [dict(f.terms) for f in sysd.forms]
    forms_by_unknown = [[] for _ in range(n)]
    for fi, us in enumerate(unknowns_of_form):
        for u in us:
            forms_by_unknown[u].append(fi)
    domains = [np.ones(q - 1, dtype=bool) for _ in range(n)]

    def form_partial(fi, free_u):
        """Value of form fi as (coeff, const) in the single free unknown."""
        const = 0
        for u, c in sysd.forms[fi].terms:
            if u == free_u:
                continue
            v = assign[u]
            t = v if c == 1 else (fld.neg(v) if c == -1 else int(fld.mul(v, c % q)))
            const = int(fld.add(const, t))
        return coeff_of[fi][free_u], const

    def prune_domain(u, dom, form_subset):
        """Filter dom (bool over values) through nearly-complete forms of u."""
        for fi in form_subset:
            others = [x for x in unknowns_of_form[fi] if x != u]
            if any(not assigned[x] for x in others):
                continue
            c, const = form_partial(fi, u)
            cv = values if c == 1 else (fld.neg(values) if c == -1
                                        else fld.mul(values, c % q))
            fv = fld.add(cv, const)
            ok = fv != 0
            logs = fld._log[np.where(ok, fv, 1)]
            for gi in form_groups[fi]:
                g = sysd.groups[gi]
                full = counts[gi] >= g.multiplicity
                if full.any():
                    ok = ok & ~full[logs % g.modulus]
            dom = dom & ok
        return dom

    def undo_counts(touched):
        for gi, cls in reversed(touched):
            counts[gi][cls] -= 1

    def do_assign(u, v):
        """Returns undo token or None on contradiction."""
        assign[u] = v
        assigned[u] = True
        touched = []
        for fi in forms_by_unknown[u]:
            if any(not assigned[x] for x in unknowns_of_form[fi]):
                continue
            val = sysd.eval_form(fi, assign)
            if val == 0:
                undo_counts(touched)
                assigned[u] = False
                return None
            lg = fld.dlog(val)
            for gi in form_groups[fi]:
                g = sysd.groups[gi]
                cls = lg % g.modulus
                if counts[gi][cls] >= g.multiplicity:
                    undo_counts(touched)
                    assigned[u] = False
                    return None
                counts[gi][cls] += 1
                touched.append((gi, cls))
        saved = []
        affected: dict[int, set[int]] = {}
        cand_forms = set(forms_by_unknown[u])
        for gi, _ in touched:
            cand_forms.update(sysd.groups[gi].forms)
        for fi in cand_forms:
            free = [x for x in unknowns_of_form[fi] if not assigned[x]]
            if len(free) == 1:
                affected.setdefault(free[0], set()).add(fi)
        for u2, fis in affected.items():
            nd = prune_domain(u2, domains[u2], fis)
            if nd is not domains[u2]:
                saved.append((u2, domains[u2]))
                domains[u2] = nd
            if not nd.any():
                for u3, old in reversed(saved):
                    domains[u3] = old
                undo_counts(touched)
                assigned[u] = False
                return None
        return (u, touched, saved)

    def undo(token):
        u, touched, saved = token
        for u3, old in reversed(saved):
            domains[u3] = old
        undo_counts(touched)
        assigned[u] = False

    def dfs(depth):
        if depth == n:
            return all(bool(np.all(counts[gi] == g.multiplicity))
                       for gi, g in enumerate(sysd.groups))
        live = [(int(domains[u].sum()), u) for u in range(n) if not assigned[u]]
        _, u = min(live)
        # scaling gauge at the root; elsewhere the live domain by discrete log
        cand = values[:1] if depth == 0 else by_log[domains[u][by_log - 1]]
        for v in cand:
            if not budget.spend():
                return False
            token = do_assign(u, int(v))
            if token is None:
                continue
            if dfs(depth + 1):
                return True
            undo(token)
            if budget.nodes > budget.limit:
                return False
        return False

    if dfs(0):
        return SolveResult("sat", {u: assign[u] for u in range(n)}, budget.nodes)
    status = "exhausted" if budget.nodes <= budget.limit else "budget_exceeded"
    return SolveResult(status, nodes=budget.nodes)


def _apply_reduction(system: ConstraintSystem, red: dict):
    """Substitute follower unknowns by signed leaders; returns the reduced
    system plus an expander back to full assignments, or None when some form
    collapses to the zero expression under the substitution."""
    q = system.field.q

    def resolve(u):
        sign = 1
        while u in red:
            u2, s = red[u]
            u = u2
            sign *= s
        return u, sign

    reps = [u for u in range(len(system.unknowns)) if resolve(u)[0] == u]
    newidx = {u: i for i, u in enumerate(reps)}
    forms = []
    for f in system.forms:
        acc: dict[int, int] = {}
        for u, c in f.terms:
            base, sign = resolve(u)
            acc[base] = (acc.get(base, 0) + c * sign) % q
        terms = tuple(sorted((newidx[u], c if c <= q // 2 else c - q)
                             for u, c in acc.items() if c % q))
        if not terms:
            return None
        forms.append(Form(f.name, terms))
    reduced = ConstraintSystem(system.field, system.d,
                               tuple(system.unknowns[u] for u in reps),
                               tuple(forms), system.groups, system.hints,
                               None, system.provenance + "|reduced")

    def expand(assignment_reduced: Sequence[int]) -> list[int]:
        out = [0] * len(system.unknowns)
        for u in range(len(system.unknowns)):
            base, sign = resolve(u)
            v = int(assignment_reduced[newidx[base]])
            out[u] = v if sign > 0 else int(system.field.neg(v))
        return out

    return reduced, expand


def _solve_one(system: ConstraintSystem, bud: _Budget) -> SolveResult:
    form_groups: list[list[int]] = [[] for _ in system.forms]
    for gi, g in enumerate(system.groups):
        for fi in g.forms:
            form_groups[fi].append(gi)
    clusters = _clusters_of(system)
    if len(clusters) <= 1:
        return _dfs_direct(system, form_groups, bud)
    domains = []
    for cl in clusters:
        dom = _enumerate_cluster(system, form_groups, cl)
        if dom is None:
            return _dfs_direct(system, form_groups, bud)
        domains.append(dom)
    return _fc_over_clusters(system, form_groups, clusters, domains, bud)


def solve(system: ConstraintSystem, seed: int = 0, budget: int = 10**8) -> SolveResult:
    """Find nonzero field values for all unknowns meeting every requirement.

    Deterministic: the search order does not depend on `seed`, which is
    accepted for interface stability only, so every seed returns the same
    assignment and node count.  Sign-pairing reductions attached to the
    system are searched first (they carry the pattern structure of the
    underlying constructions); the unrestricted space follows.  "exhausted"
    is only reported when a complete space was fully explored; budget
    exhaustion is status-coded, never an exception.  Every satisfying
    assignment is re-verified against the whole system, and against the
    lifting conditions when the system can assemble a lifting datum.
    """
    for g in system.groups:
        if len(g.forms) != g.modulus * g.multiplicity:
            # each form contributes one label, so exact coverage is impossible
            return SolveResult("exhausted")
    bud = _Budget(budget)
    attempts: list = []
    for red in system.reductions:
        pair = _apply_reduction(system, red)
        if pair is not None:
            attempts.append(pair)
    attempts.append((system, None))
    last = None
    for sub, expand in attempts:
        res = _solve_one(sub, bud)
        last = res
        if res.status == "sat":
            values = [res.assignment[u] for u in range(len(sub.unknowns))]
            full = expand(values) if expand is not None else values
            if not system.check_assignment(full):
                raise AssertionError("solver returned an assignment failing its own system")
            if system.lifting_builder is not None:
                data = system.lifting_builder(full)
                rep = check_lifting_conditions(data)
                if not rep.ok:
                    raise AssertionError("solver assignment fails the lifting conditions: "
                                         + rep.detail)
            named = {system.unknowns[u]: v for u, v in enumerate(full)}
            return SolveResult("sat", named, bud.nodes)
        if res.status == "budget_exceeded":
            return SolveResult("budget_exceeded", nodes=bud.nodes)
    return SolveResult(last.status if last else "exhausted", nodes=bud.nodes)


# ---------------------------------------------------------------------------
# Repair of suspect lifting data


class RepairError(ValueError):
    """No completion exists with the non-suspect values held fixed."""


def _failing_constraints(report) -> list:
    bad = [("cond1", h) for h, ok in report.cond1.items() if not ok]
    bad += [("cond2", p) for p, ok in report.cond2.items() if not ok]
    bad += [("zero", pos) for pos in report.zero_positions]
    return bad


def _constraint_touches(data: LiftingData, constraint, suspects: set) -> bool:
    kind, which = constraint
    if kind == "zero":
        return which in suspects
    G = data.sdf.group
    if kind == "cond2":
        part = data.partition[which]
        return any((i, a) in suspects for i in part for a in range(data.k))
    h = which
    for i, frow in enumerate(data.sdf.blocks):
        for a in range(data.k):
            for b in range(data.k):
                if a != b and int(G.sub(frow[a], frow[b])) == h:
                    if (i, a) in suspects or (i, b) in suspects:
                        return True
    return False


def _detect_scalings(data: LiftingData, block_ids: list[int]) -> dict[int, tuple[int, int]]:
    """Map follower block -> (leader block, multiplier in C_0^{e,q}) whenever a
    suspect block's row is a pointwise C_0^{e,q}-multiple of an earlier
    suspect block's row with the same SDF block (zeros scale consistently)."""
    fld = data.field
    e = data.e
    links: dict[int, tuple[int, int]] = {}
    for pos, j in enumerate(block_ids):
        for i in block_ids[:pos]:
            if i in links or data.sdf.blocks[i] != data.sdf.blocks[j]:
                continue
            mult = None
            okl = True
            for va, vb in zip(data.phi[i], data.phi[j]):
                if (va == 0) != (vb == 0):
                    okl = False
                    break
                if va == 0:
                    continue
                m = int(fld.mul(vb, int(fld.inv(va))))
                if mult is None:
                    mult = m
                elif mult != m:
                    okl = False
                    break
            if okl and mult is not None and fld.dlog(mult) % e == 0:
                links[j] = (i, mult)
                break
    return links


def repair_block(data: LiftingData, suspects: Sequence[tuple[int, int]],
                 widen: bool = True, budget: int = 10**8) -> LiftingData:
    """Re-solve the suspect (block, position) values, holding everything else
    fixed; the input is never mutated.

    Preconditions: the lifting conditions must fail only at constraints
    touching suspect positions.  If no completion exists on the narrow set
    and widen is true, the suspect set grows to all positions of every
    block containing a suspect; scaled copies among those blocks (rows that
    are C_0^{e,q}-multiples of one another in the original data) keep their
    scaling relation, which is how printed orbit data stays an orbit.
    Raises RepairError when no completion exists.
    """
    suspects = {(int(i), int(a)) for i, a in suspects}
    report = check_lifting_conditions(data)
    if report.ok and not suspects:
        return data
    for c in _failing_constraints(report):
        if not _constraint_touches(data, c, suspects):
            raise ValueError(f"precondition violated: failing constraint {c} "
                             "does not touch any suspect position")
    repaired = _repair_search(data, suspects, budget)
    if repaired is not None:
        return repaired
    if not widen:
        raise RepairError("no completion exists with the rest held fixed; "
                          "widen the suspect set")
    blocks = sorted({i for i, _ in suspects})
    wide = {(i, a) for i in blocks for a in range(data.k)}
    repaired = _repair_search(data, wide, budget)
    if repaired is None:
        raise RepairError("no completion exists even on the widened suspect set")
    return repaired


def _repair_search(data: LiftingData, suspects: set, budget: int) -> Optional[LiftingData]:
    """Depth-first search over suspect values with exact per-slot tallies.

    Slot and part requirements are tracked as counts per cyclotomic e-class
    (plain lists; this loop is hot).  A finished slot must fill whole
    e-class orbits, lam per d-class; the incremental caps reject any state
    where a d-class holds more than lam occupied e-classes, which is the
    structural shape every completion must have.
    """
    fld = data.field
    q, e, d = fld.q, data.e, data.d
    per_orbit = (q - 1) // e
    G = data.sdf.group
    k = data.k
    suspect_blocks = sorted({i for i, _ in suspects})
    links = _detect_scalings(data, suspect_blocks)
    for j in list(links):
        i = links[j][0]
        same_pattern = {a for a in range(k) if (j, a) in suspects} == \
            {a for a in range(k) if (i, a) in suspects}
        if i in links or not same_pattern:
            del links[j]          # follower must mirror its leader's suspect pattern
    leaders = [i for i in suspect_blocks if i not in links]
    followers: dict[int, list[tuple[int, int]]] = {i: [] for i in leaders}
    for j, (i, m) in links.items():
        followers[i].append((j, m))
    det_of: dict[int, tuple[int, int]] = {}
    for i in leaders:
        det_of[i] = (i, 1)
        for j, m in followers.get(i, ()):
            det_of[j] = (i, m)

    # scalar lookup tables; the DFS below runs on plain ints
    sub_t = [[int(fld.sub(x, y)) for y in range(q)] for x in range(q)]
    ecl_t = [0] * q
    for x in range(1, q):
        ecl_t[x] = fld.dlog(x) % e
    mul_row = {m: [int(fld.mul(x, m)) for x in range(q)]
               for m in {mm for fs in followers.values() for _, mm in fs}}

    unknown_pos = [(i, a) for i in leaders for a in range(k) if (i, a) in suspects]
    if len(leaders) > 1:
        # interleave leader blocks so cross-block slot conflicts surface early
        per = [[(i, a) for a in range(k) if (i, a) in suspects] for i in leaders]
        depth = max(len(p) for p in per)
        unknown_pos = [p[j] for j in range(depth) for p in per if j < len(p)]
    nslots = G.order
    slot_counts = [[0] * e for _ in range(nslots)]
    part_counts = [[0] * e for _ in data.partition]
    slot_pending = [0] * nslots
    part_pending = [0] * len(data.partition)
    part_of_block = {}
    for pi, part in enumerate(data.partition):
        for i in part:
            part_of_block[i] = pi

    phi = [list(row) for row in data.phi]
    suspect_lookup = set(suspects)

    def is_suspect(i, a):
        if (i, a) in suspect_lookup:
            return True
        lead = det_of.get(i)
        return lead is not None and (lead[0], a) in suspect_lookup

    # fixed contributions
    ok_fixed = True
    sub_enc = G.sub
    slot_of_pair: dict[int, list[list[tuple[int, int]]]] = {}
    for i, frow in enumerate(data.sdf.blocks):
        pairs = []
        for a in range(k):
            row = []
            for b in range(k):
                if a == b:
                    continue
                row.append((b, int(sub_enc(frow[a], frow[b])), int(sub_enc(frow[b], frow[a]))))
            pairs.append(row)
        slot_of_pair[i] = pairs
        for a in range(k):
            for (b, hab, hba) in pairs[a]:
                if b < a:
                    continue
                sus = is_suspect(i, a) or is_suspect(i, b)
                if sus:
                    slot_pending[hab] += 1
                    slot_pending[hba] += 1
                    continue
                diff = sub_t[phi[i][a]][phi[i][b]]
                if diff == 0:
                    ok_fixed = False
                else:
                    slot_counts[hab][ecl_t[diff]] += 1
                    slot_counts[hba][ecl_t[sub_t[phi[i][b]][phi[i][a]]]] += 1
        pi = part_of_block[i]
        for a in range(k):
            if is_suspect(i, a):
                part_pending[pi] += 1
            else:
                v = phi[i][a]
                if v == 0:
                    ok_fixed = False
                else:
                    part_counts[pi][ecl_t[v]] += 1
    if not ok_fixed:
        return None

    lam = data.lam

    def caps_ok(c, mult):
        for dc in range(d):
            occupied = 0
            total = 0
            for g in range(dc, e, d):
                cg = c[g]
                if cg:
                    occupied += 1
                    total += cg
            if occupied > mult or total > mult * per_orbit:
                return False
        return True

    def final_ok(c, mult):
        for g in range(e):
            if c[g] % per_orbit:
                return False
        for dc in range(d):
            if sum(c[dc + j * d] for j in range(e // d)) != mult * per_orbit:
                return False
        return True

    members_of = {i: [(i, None)] + [(j, m) for j, m in followers.get(i, ())]
                  for i in leaders}

    def place(i, a, v, undo):
        for (j, m) in members_of[i]:
            vv = v if m is None else mul_row[m][v]
            pi = part_of_block[j]
            ec = ecl_t[vv]
            pc = part_counts[pi]
            pc[ec] += 1
            part_pending[pi] -= 1
            undo.append((0, pi, ec))
            if not caps_ok(pc, 1) or (part_pending[pi] == 0 and not final_ok(pc, 1)):
                return False
        phi[i][a] = v
        undo.append((1, i, a))
        w = len(members_of[i])
        row = phi[i]
        for (b, hab, hba) in slot_of_pair[i][a]:
            vb = row[b]
            if vb == 0 and is_suspect(i, b):
                continue
            diff = sub_t[v][vb]
            if diff == 0:
                return False
            ec1 = ecl_t[diff]
            ec2 = ecl_t[sub_t[vb][v]]
            sc1 = slot_counts[hab]
            sc1[ec1] += w
            slot_pending[hab] -= w
            undo.append((2, hab, ec1, w))
            if not caps_ok(sc1, lam) or (slot_pending[hab] == 0 and not final_ok(sc1, lam)):
                return False
            sc2 = slot_counts[hba]
            sc2[ec2] += w
            slot_pending[hba] -= w
            undo.append((2, hba, ec2, w))
            if not caps_ok(sc2, lam) or (slot_pending[hba] == 0 and not final_ok(sc2, lam)):
                return False
        return True

    def unplace(undo):
        for item in reversed(undo):
            tag = item[0]
            if tag == 0:
                _, pi, ec = item
                part_counts[pi][ec] -= 1
                part_pending[pi] += 1
            elif tag == 1:
                phi[item[1]][item[2]] = 0
            else:
                _, h, ec, w = item
                slot_counts[h][ec] -= w
                slot_pending[h] += w

    for i, a in unknown_pos:
        phi[i][a] = 0
    nodes = 0
    values = list(range(1, q))
    nlevels = len(unknown_pos)
    level = 0
    iters = [0] * nlevels
    undos: list[list] = [None] * nlevels
    while True:
        if level == nlevels:
            break
        i, a = unknown_pos[level]
        found = False
        vstart = iters[level]
        for vi in range(vstart, q - 1):
            nodes += 1
            if nodes > budget:
                return None
            v = values[vi]
            undo: list = []
            if place(i, a, v, undo):
                iters[level] = vi + 1
                undos[level] = undo
                level += 1
                if level < nlevels:
                    iters[level] = 0
                found = True
                break
            unplace(undo)
        if not found:
            iters[level] = 0
            level -= 1
            if level < 0:
                return None
            unplace(undos[level])

    for i in leaders:
        for j, m in followers.get(i, ()):
            for a in range(k):
                if (i, a) in suspect_lookup:
                    phi[j][a] = mul_row[m][phi[i][a]]
    out = data.replace_phi(phi)
    rep = check_lifting_conditions(out)
    if not rep.ok:
        return None
    return out
