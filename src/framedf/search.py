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

Field arithmetic in the search goes through one set of lookup tables per
field, built on first use: exp/log lists, a q x q addition table and one
multiplication row per prime-subfield element, since a form coefficient c
is the element c mod p.  The scalar loops (the depth-first search,
form evaluation, repair) index the Python lists; cluster enumeration
gathers from numpy copies.  The depth-first search keeps each unknown's
live domain as an int bitset indexed by discrete log, and prunes it by
ORing precomputed class bitsets.

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
from functools import lru_cache
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
    "RepairBudgetExceeded",
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
# Plain-int field tables for the search loops


class _FieldTables:
    """Arithmetic of one field as lookup tables on integer encodings.

    exp, log (log[0] = -1) and the q x q addition table `add` are Python
    lists for the scalar loops; `add_flat` and `mul_arr` are numpy copies
    for the vectorised cluster enumeration.  mul[s] is the row x -> s*x of
    the prime-subfield element s (encoding s, 0 <= s < p); a form
    coefficient c acts as the element c mod p, through row(c).
    """

    def __init__(self, fld: FiniteField):
        q, p = fld.q, fld.p
        enc = np.arange(q, dtype=np.int64)
        add = fld.add(enc[:, None], enc[None, :])
        mul = np.zeros((p, q), dtype=np.int64)
        for s in range(1, p):
            mul[s] = fld.mul(enc, s)
        self.p = p
        self.exp = fld._exp.tolist()
        self.log = fld._log.tolist()
        self.add = add.tolist()
        self.mul = mul.tolist()
        self.add_flat = add.ravel()
        self.mul_arr = mul

    def row(self, c: int) -> list[int]:
        return self.mul[c % self.p]


@lru_cache(maxsize=None)
def _field_tables(fld: FiniteField) -> _FieldTables:
    return _FieldTables(fld)


# ---------------------------------------------------------------------------
# Constraint systems


@dataclass(frozen=True)
class Form:
    """A linear expression over unknowns: value = sum(coeff * y) in GF(q),
    each integer coefficient read as the prime-subfield element coeff mod p."""
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
        tab = _field_tables(self.field)
        add = tab.add
        acc = 0
        for u, c in self.forms[fi].terms:
            acc = add[acc][tab.row(c)[int(assignment[u])]]
        return acc

    def check_assignment(self, assignment: Sequence[int]) -> bool:
        log = _field_tables(self.field).log
        vals = [self.eval_form(fi, assignment) for fi in range(len(self.forms))]
        if any(v == 0 for v in vals):
            return False
        logs = [log[v] for v in vals]
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
    """Evaluate forms on column vectors of unknown values; (rows, len(fis)).
    Products and sums are gathers from the flat field tables."""
    tab = _field_tables(system.field)
    q = system.field.q
    nrows = len(next(iter(cols.values())))
    out = np.empty((nrows, len(fis)), dtype=np.int64)
    for k, fi in enumerate(fis):
        acc = None
        for u, c in system.forms[fi].terms:
            term = cols[u] if c % tab.p == 1 else tab.mul_arr[c % tab.p][cols[u]]
            acc = term if acc is None else tab.add_flat[acc * q + term]
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
    # per tracked modulus, the bit of each encoding's class (the entry for
    # 0 is never read into a kept row: rows with a zero value are dropped)
    class_bit = {m: np.int64(1) << (log % m)
                 for m in {sysd.groups[gi].modulus for gi in gids}}

    def apply_forms(frontier, masks, fis, level):
        """Keep the rows whose new form values are nonzero and whose labels
        fill no class twice; one filter per level.  masks is always freshly
        allocated (by expand or at level 0), so it is updated in place: rows
        that are dropped carry meaningless bits, kept rows their own labels."""
        cols = {order[i]: frontier[:, i] for i in range(level + 1)}
        vals = _eval_forms_array(sysd, fis, cols)
        good = (vals != 0).all(axis=1)
        for k, fi in enumerate(fis):
            for gi in form_groups[fi]:
                col = gslot.get(gi)
                if col is None:
                    continue
                bit = class_bit[sysd.groups[gi].modulus][vals[:, k]]
                good &= (masks[:, col] & bit) == 0
                masks[:, col] |= bit
        return frontier[good], masks[good]

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

    def grow(frontier, masks, level):
        """Place order[level] on every row, in chunks of at most
        _FRONTIER_CAP rows; the chunks are freed on return."""
        parts_f, parts_m = [], []
        chunk = max(1, _FRONTIER_CAP // max(1, len(values)))
        for lo in range(0, len(frontier), chunk):
            fr2, mk2 = expand(frontier[lo:lo + chunk], masks[lo:lo + chunk], level)
            if level in completes_at and len(fr2):
                fr2, mk2 = apply_forms(fr2, mk2, completes_at[level], level)
            parts_f.append(fr2)
            parts_m.append(mk2)
        if not parts_f:
            return frontier[:0], masks[:0]
        return np.concatenate(parts_f), np.concatenate(parts_m)

    frontier = values[:, None]
    masks = np.zeros((len(frontier), len(gids)), dtype=np.int64)
    if 0 in completes_at:
        frontier, masks = apply_forms(frontier, masks, completes_at[0], 0)
    work = 0
    for level in range(1, len(order)):
        work += len(frontier) * len(values)
        if work > _WORK_CAP:
            return None
        frontier, masks = grow(frontier, masks, level)
        if len(frontier) == 0:
            break
    del masks       # the signatures never read it; free it before their peak
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
        del sig
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
        frontier, sigl = frontier[:1], sigl[:1]
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
    satisfiable system has a solution in that gauge).  The next unknown is
    always one of minimal live domain, and its candidate values are tried
    in ascending discrete-log order.

    The loop runs on plain ints through the shared field tables; group
    counts are lists.  Each live domain is an int bitset in which bit i
    stands for generator^i, so reading the set bits from the lowest gives
    ascending discrete-log order and int.bit_count() the live size.  A
    form left with one unassigned unknown x reads s*x + const, with s its
    coefficient and const the sum of its assigned terms; for each
    (s, const, modulus) the bitsets of the x landing in each class are
    built once, and pruning ORs together those of the full classes plus
    the bit where the form vanishes.  A form is pruned in full when it
    comes down to one free unknown, and again for each class of its groups
    that fills up later; this leaves every domain where a full re-check of
    all such forms after each placement would.
    """
    tab = _field_tables(system.field)
    add, log, exp, mul = tab.add, tab.log, tab.exp, tab.mul
    p, q1 = tab.p, system.field.q - 1
    everything = (1 << q1) - 1
    n = len(system.unknowns)
    group_forms = [g.forms for g in system.groups]
    mods = [g.modulus for g in system.groups]
    mults = [g.multiplicity for g in system.groups]
    counts = [[0] * mod for mod in mods]
    assign = [0] * n
    assigned = [False] * n
    terms = [[(u, c % p) for u, c in f.terms] for f in system.forms]
    nfree = [len(ts) for ts in terms]              # unassigned terms per form
    forms_by_unknown = [[] for _ in range(n)]
    for fi, ts in enumerate(terms):
        for u, _ in ts:
            forms_by_unknown[u].append(fi)
    domains = [everything] * n
    class_bits: dict[tuple[int, int, int], list[int]] = {}

    def bits_by_class(s, const, mod):
        """Per class mod `mod`, the bits of the x with s*x + const in it."""
        key = (s, const, mod)
        out = class_bits.get(key)
        if out is None:
            row, out = mul[s], [0] * mod
            for i in range(q1):
                val = add[row[exp[i]]][const]
                if val:
                    out[log[val] % mod] |= 1 << i
            class_bits[key] = out
        return out

    def vanishing(s, const):
        """The bits of the x with s*x + const = 0."""
        if s == 0:
            return everything if const == 0 else 0
        return 1 << ((log[mul[p - 1][const]] - log[s]) % q1) if const else 0

    def free_term(fi):
        """(unknown, coefficient) of the one unassigned term of form fi,
        and the sum of its assigned terms."""
        const = 0
        for w, s in terms[fi]:
            if assigned[w]:
                const = add[const][mul[s][assign[w]]]
            else:
                free = w, s
        return free[0], free[1], const

    def narrow(u, banned, saved):
        """Drop the banned bits from u's domain; False when it empties."""
        dom = domains[u]
        if dom & banned:
            saved.append((u, dom))
            domains[u] = dom = dom & ~banned
        return dom != 0

    def undo(u, touched, saved):
        for u3, old in reversed(saved):
            domains[u3] = old
        for gi, cls in touched:
            counts[gi][cls] -= 1
        for fi in forms_by_unknown[u]:
            nfree[fi] += 1
        assigned[u] = False

    def do_assign(u, v):
        """Place u = v; returns an undo token, or None on contradiction."""
        assign[u] = v
        assigned[u] = True
        mine = forms_by_unknown[u]
        for fi in mine:
            nfree[fi] -= 1
        touched, filled, saved = [], [], []
        token = (u, touched, saved)
        for fi in mine:
            if nfree[fi]:
                continue
            val = 0
            for w, s in terms[fi]:
                val = add[val][mul[s][assign[w]]]
            if val == 0:
                undo(*token)
                return None
            lg = log[val]
            for gi in form_groups[fi]:
                cls = lg % mods[gi]
                cnt = counts[gi]
                if cnt[cls] >= mults[gi]:
                    undo(*token)
                    return None
                cnt[cls] += 1
                touched.append((gi, cls))
                if cnt[cls] == mults[gi]:
                    filled.append((gi, cls))
        for fi in mine:
            if nfree[fi] != 1:
                continue
            u2, s, const = free_term(fi)
            banned = vanishing(s, const)
            for gi in form_groups[fi]:
                by_class = bits_by_class(s, const, mods[gi])
                for cls, cnt in enumerate(counts[gi]):
                    if cnt >= mults[gi]:
                        banned |= by_class[cls]
            if not narrow(u2, banned, saved):
                undo(*token)
                return None
        for gi, cls in filled:
            for fi in group_forms[gi]:
                if nfree[fi] != 1:
                    continue
                u2, s, const = free_term(fi)
                if not narrow(u2, bits_by_class(s, const, mods[gi])[cls], saved):
                    undo(*token)
                    return None
        return token

    def dfs(depth):
        if depth == n:
            return all(c == m for cnt, m in zip(counts, mults) for c in cnt)
        _, u = min((domains[u].bit_count(), u) for u in range(n) if not assigned[u])
        # scaling gauge at the root (bit 0 is generator^0 = 1); elsewhere
        # the live domain, lowest discrete log first
        dom = 1 if depth == 0 else domains[u]
        while dom:
            low = dom & -dom
            dom ^= low
            if not budget.spend():
                return False
            token = do_assign(u, exp[low.bit_length() - 1])
            if token is None:
                continue
            if dfs(depth + 1):
                return True
            undo(*token)
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
    collapses to the zero expression under the substitution.  Merged
    coefficients are reduced mod p, the characteristic, and written as the
    residue of least absolute value."""
    p = system.field.p

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
            acc[base] = (acc.get(base, 0) + c * sign) % p
        terms = tuple(sorted((newidx[u], c if c <= p // 2 else c - p)
                             for u, c in acc.items() if c))
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


class RepairBudgetExceeded(RuntimeError):
    """The repair search spent its node budget before finishing, so nothing
    was proved about whether a completion exists."""


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
    Raises RepairError when a complete search finds no completion, and
    RepairBudgetExceeded (without widening) when a search spends its node
    budget first.
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
    """Depth-first search over suspect values with exact per-slot tallies;
    None when the complete search finds no completion, RepairBudgetExceeded
    when more than `budget` nodes would be needed to finish it.

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

    # the DFS below runs on plain ints through the shared field tables
    tab = _field_tables(fld)
    add, neg = tab.add, tab.row(-1)
    ecl = [lg % e for lg in tab.log]          # e-class of each nonzero encoding
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
                diff = add[phi[i][a]][neg[phi[i][b]]]
                if diff == 0:
                    ok_fixed = False
                else:
                    slot_counts[hab][ecl[diff]] += 1
                    slot_counts[hba][ecl[neg[diff]]] += 1
        pi = part_of_block[i]
        for a in range(k):
            if is_suspect(i, a):
                part_pending[pi] += 1
            else:
                v = phi[i][a]
                if v == 0:
                    ok_fixed = False
                else:
                    part_counts[pi][ecl[v]] += 1
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
            ec = ecl[vv]
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
            diff = add[v][neg[vb]]
            if diff == 0:
                return False
            ec1 = ecl[diff]
            ec2 = ecl[neg[diff]]
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
                raise RepairBudgetExceeded(f"repair search spent its budget of {budget} "
                                           "nodes; nothing is proved")
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
