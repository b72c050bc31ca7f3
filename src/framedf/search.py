"""Computer-search machinery: the explicit cyclotomic existence threshold,
constraint systems over cyclotomic classes, a deterministic solver, and
repair of suspect lifting data.

A ConstraintSystem carries one symbolic linear form per needed field
expression (y, -y, 2y, y_i +- y_j, y - c, constants) and uniformity groups
in the orbit normal form of the lifting conditions: counted per cyclotomic
e-class, the labels (discrete logs) of a group's forms fill whole
C_0^{e,q} orbits and cover every class mod the group modulus an exact
number of times.  The solver first tries any sign-pairing reductions
attached to the system (the pattern structure of the underlying
constructions), then splits the unknowns into clusters (connected
components of the form graph) and

* enumerates each cluster's feasible label signatures by vectorized
  frontier expansion and runs forward-checking DFS over the clusters
  (fail-first, hint-preferred order) when every cluster is enumerable;
* otherwise runs one complete depth-first search over unknown values with
  value-level forward checking, a scaling gauge on the first unknown when
  no form has a constant, and candidates in ascending discrete-log order.

Repair of a lifting datum is one more such system: the suspect entries
are the unknowns and every other entry enters as a constant.

Field arithmetic in the search goes through one set of lookup tables per
field, built on first use: exp/log lists, a q x q addition table and one
multiplication row per prime-subfield element, since a form coefficient c
is the element c mod p.  The scalar loops (the depth-first search, form
evaluation) index the Python lists; cluster enumeration gathers from numpy
copies.  The depth-first search keeps each unknown's live domain as an
int bitset indexed by discrete log, and prunes it by ORing precomputed
class bitsets.

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
    """A linear expression over unknowns: value = const + sum(coeff * y) in
    GF(q), each integer coefficient read as the prime-subfield element
    coeff mod p and const a field encoding.  A form without terms is a
    constant."""
    name: str
    terms: tuple[tuple[int, int], ...]
    const: int = 0


@dataclass(frozen=True)
class UniformityGroup:
    """The member forms' values must be C_0^{e,q} times a
    `multiplicity`-transversal of the classes mod `modulus`, with
    e = (q-1)/orbit: the labels (discrete logs) are counted per e-class,
    each e-class count is a multiple of `orbit`, and each class mod
    `modulus` receives multiplicity * orbit labels in total.  With orbit 1
    the labels mod `modulus` simply cover every class `multiplicity`
    times.  A form may be listed more than once."""
    forms: tuple[int, ...]
    modulus: int
    multiplicity: int = 1
    orbit: int = 1


def _labels_fit(g: UniformityGroup, logs: Sequence[int], q1: int) -> bool:
    """Do these discrete logs of nonzero values meet group g?  q1 = q - 1."""
    e = q1 // g.orbit
    ecounts, dcounts = [0] * e, [0] * g.modulus
    for lg in logs:
        ecounts[lg % e] += 1
        dcounts[lg % g.modulus] += 1
    return (all(c % g.orbit == 0 for c in ecounts)
            and all(c == g.multiplicity * g.orbit for c in dcounts))


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
        f = self.forms[fi]
        acc = f.const
        for u, c in f.terms:
            acc = add[acc][tab.row(c)[int(assignment[u])]]
        return acc

    def check_assignment(self, assignment: Sequence[int]) -> bool:
        log = _field_tables(self.field).log
        vals = [self.eval_form(fi, assignment) for fi in range(len(self.forms))]
        if any(v == 0 for v in vals):
            return False
        q1 = self.field.q - 1
        return all(_labels_fit(g, [log[vals[fi]] for fi in g.forms], q1)
                   for g in self.groups)


class _SystemBuilder:
    def __init__(self):
        self.forms: list[Form] = []
        self.index: dict[tuple, int] = {}

    def form(self, terms: tuple[tuple[int, int], ...], name: str, const: int = 0) -> int:
        key = (terms, const)
        if key not in self.index:
            self.index[key] = len(self.forms)
            self.forms.append(Form(name, terms, const))
        return self.index[key]


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
    None when the expansion is too large, or when a form is or has a
    constant or a group has multiplicity or orbit > 1.
    """
    sysd = system
    if any(f.const or not f.terms for f in sysd.forms):
        return None
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
        if g.multiplicity != 1 or g.orbit != 1:
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

    Without constant terms every requirement is a uniformity group, which
    is invariant under scaling every unknown by a common nonzero element,
    so the first unknown searched is pinned to 1 (completeness is
    preserved: every satisfiable system has a solution in that gauge).
    The next unknown is always one of minimal live domain, and its
    candidate values are tried in ascending discrete-log order.

    The loop runs on plain ints through the shared field tables; group
    counts are lists.  Each live domain is an int bitset in which bit i
    stands for generator^i, so reading the set bits from the lowest gives
    ascending discrete-log order and int.bit_count() the live size.  A
    form left with one unassigned unknown x reads s*x + const, with s its
    coefficient and const the sum of its constant and assigned terms; for
    each (s, const, modulus) the bitsets of the x landing in each class
    are built once, and pruning ORs together those of the closed classes
    plus the bit where the form vanishes.  A class mod the group modulus
    closes once it holds multiplicity * orbit labels; in a group with
    orbit > 1 its unoccupied e-classes also close once `multiplicity` of
    its e-classes are occupied.  These two caps hold in every completion.
    Constant forms are counted, and every form with one free unknown
    pruned, before the first node.  A form is pruned in full when it
    comes down to one free unknown, and again for each class of its groups
    that closes later; this leaves every domain where a full re-check of
    all such forms after each placement would.
    """
    tab = _field_tables(system.field)
    add, log, exp, mul = tab.add, tab.log, tab.exp, tab.mul
    p, q1 = tab.p, system.field.q - 1
    everything = (1 << q1) - 1
    n = len(system.unknowns)
    groups = system.groups
    # a form may sit in a group more than once: it is counted each time,
    # pruned once
    group_forms = [tuple(dict.fromkeys(g.forms)) for g in groups]
    prune_groups = [tuple(dict.fromkeys(gs)) for gs in form_groups]
    mods = [g.modulus for g in groups]
    mults = [g.multiplicity for g in groups]
    orbits = [g.orbit for g in groups]
    caps = [g.multiplicity * g.orbit for g in groups]
    es = [q1 // g.orbit for g in groups]
    counts = [[0] * mod for mod in mods]          # labels per class mod modulus
    # orbit > 1 only: labels per e-class, occupied e-classes per class
    ecounts = [[0] * e if g.orbit > 1 else None for e, g in zip(es, groups)]
    occupied = [[0] * g.modulus if g.orbit > 1 else None for g in groups]
    assign = [0] * n
    assigned = [False] * n
    consts = [f.const for f in system.forms]
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

    def orbit_closed(gi, s, const, classes):
        """The bits of the x with s*x + const in a closed e-class of group
        gi (orbit > 1) inside one of `classes`."""
        by_e, ecnt, out = bits_by_class(s, const, es[gi]), ecounts[gi], 0
        for cls in classes:
            full = counts[gi][cls] >= caps[gi]
            if full or occupied[gi][cls] >= mults[gi]:
                for ec in range(cls, es[gi], mods[gi]):
                    if full or not ecnt[ec]:
                        out |= by_e[ec]
        return out

    def free_term(fi):
        """(unknown, coefficient) of the one unassigned term of form fi,
        and the sum of its constant and assigned terms."""
        const = consts[fi]
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
        for gi, lg in touched:
            cls = lg % mods[gi]
            counts[gi][cls] -= 1
            if orbits[gi] > 1:
                ecnt, ec = ecounts[gi], lg % es[gi]
                ecnt[ec] -= 1
                if not ecnt[ec]:
                    occupied[gi][cls] -= 1
        for fi in forms_by_unknown[u]:
            nfree[fi] += 1
        assigned[u] = False

    def settle(fis, touched, saved):
        """Count the labels of the forms in fis left without a free
        unknown, then prune the free unknown of those left with one and of
        the forms in groups whose classes closed; False on a contradiction
        (a form vanishes, a cap breaks or a domain empties)."""
        filled = []
        for fi in fis:
            if nfree[fi]:
                continue
            val = consts[fi]
            for w, s in terms[fi]:
                val = add[val][mul[s][assign[w]]]
            if val == 0:
                return False
            lg = log[val]
            for gi in form_groups[fi]:
                cls = lg % mods[gi]
                cnt = counts[gi]
                if cnt[cls] >= caps[gi]:
                    return False
                if orbits[gi] > 1:
                    ecnt, occ, ec = ecounts[gi], occupied[gi], lg % es[gi]
                    if not ecnt[ec]:
                        if occ[cls] >= mults[gi]:
                            return False
                        occ[cls] += 1
                        if occ[cls] == mults[gi]:
                            filled.append((gi, cls))
                    ecnt[ec] += 1
                cnt[cls] += 1
                touched.append((gi, lg))
                if cnt[cls] == caps[gi]:
                    filled.append((gi, cls))
        for fi in fis:
            if nfree[fi] != 1:
                continue
            u2, s, const = free_term(fi)
            banned = vanishing(s, const)
            for gi in prune_groups[fi]:
                if orbits[gi] > 1:
                    banned |= orbit_closed(gi, s, const, range(mods[gi]))
                    continue
                by_class = bits_by_class(s, const, mods[gi])
                for cls, cnt in enumerate(counts[gi]):
                    if cnt >= caps[gi]:
                        banned |= by_class[cls]
            if not narrow(u2, banned, saved):
                return False
        for gi, cls in filled:
            for fi in group_forms[gi]:
                if nfree[fi] != 1:
                    continue
                u2, s, const = free_term(fi)
                if orbits[gi] > 1:
                    banned = orbit_closed(gi, s, const, (cls,))
                else:
                    banned = bits_by_class(s, const, mods[gi])[cls]
                if not narrow(u2, banned, saved):
                    return False
        return True

    def do_assign(u, v):
        """Place u = v; returns an undo token, or None on contradiction."""
        assign[u] = v
        assigned[u] = True
        mine = forms_by_unknown[u]
        for fi in mine:
            nfree[fi] -= 1
        touched, saved = [], []
        if settle(mine, touched, saved):
            return u, touched, saved
        undo(u, touched, saved)
        return None

    def dfs(depth):
        if depth == n:
            return all(c == cap for cnt, cap in zip(counts, caps) for c in cnt) and \
                all(c % o == 0 for ecnt, o in zip(ecounts, orbits) if ecnt for c in ecnt)
        _, u = min((domains[u].bit_count(), u) for u in range(n) if not assigned[u])
        # scaling gauge at the root (bit 0 is generator^0 = 1); elsewhere
        # the live domain, lowest discrete log first
        dom = 1 if depth == 0 and gauge else domains[u]
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

    gauge = not any(consts)
    if settle(range(len(terms)), [], []) and dfs(0):
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
        forms.append(Form(f.name, terms, f.const))
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
        if len(g.forms) != g.modulus * g.multiplicity * g.orbit:
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


def _detect_scalings(data: LiftingData, suspects: set) -> dict[int, tuple[int, int]]:
    """Map follower block -> (leader block, multiplier in C_0^{e,q}) whenever a
    suspect block's row is a pointwise C_0^{e,q}-multiple of an earlier
    suspect block's row with the same SDF block and the same suspect
    positions (zeros scale consistently)."""
    fld, e = data.field, data.e
    block_ids = sorted({i for i, _ in suspects})
    pattern = {i: {a for j, a in suspects if j == i} for i in block_ids}
    links: dict[int, tuple[int, int]] = {}
    for pos, j in enumerate(block_ids):
        for i in block_ids[:pos]:
            if i in links or data.sdf.blocks[i] != data.sdf.blocks[j] \
                    or pattern[i] != pattern[j]:
                continue
            pairs = list(zip(data.phi[i], data.phi[j]))
            ratios = {int(fld.mul(vb, int(fld.inv(va)))) for va, vb in pairs if va}
            if len(ratios) == 1 and all((va == 0) == (vb == 0) for va, vb in pairs):
                m = ratios.pop()
                if fld.dlog(m) % e == 0:
                    links[j] = (i, m)
                    break
    return links


def _repair_system(data: LiftingData, suspects: set) -> ConstraintSystem:
    """The lifting conditions of `data` as a constraint system: the unknowns
    are the suspect positions of leader blocks, every other value enters
    as a constant.

    One group per slot h (the differences phi_i[a] - phi_i[b] with
    f_i[a] - f_i[b] = h) and one per part (its phi values), with modulus d
    and orbit (q-1)/e, as check_lifting_conditions reads them.  A scaled
    copy (see _detect_scalings) adds its leader's forms to each group a
    second time, because a C_0^{e,q} multiple keeps every e-class.  A group
    whose forms are all constant is checked here and left out; when it
    fails, or a zero entry is not a suspect, the repair's precondition is
    violated and ValueError names the slot, part or entries.
    """
    fld, k, G = data.field, data.k, data.sdf.group
    tab = _field_tables(fld)
    add, neg, q1 = tab.add, tab.row(-1), fld.q - 1
    links = _detect_scalings(data, suspects)
    leads = [pos for pos in sorted(suspects) if pos[0] not in links]
    index = {pos: u for u, pos in enumerate(leads)}
    sb = _SystemBuilder()

    def form(j, signed):
        """Form of sum(sign * phi_j[a]) over (a, sign) in signed, read off
        the leader of block j."""
        i = links.get(j, (j,))[0]
        terms, const = [], 0
        for a, sign in signed:
            if (i, a) in index:
                terms.append((index[(i, a)], sign))
            else:
                const = add[const][data.phi[i][a] if sign > 0 else neg[data.phi[i][a]]]
        name = "-".join(f"phi_{i}_{a}" for a, _ in signed)
        return sb.form(tuple(terms), name, const)

    slots: dict[int, list[int]] = {h: [] for h in range(G.order)}
    for j, frow in enumerate(data.sdf.blocks):
        for a in range(k):
            for b in range(k):
                if a != b:
                    slots[int(G.sub(frow[a], frow[b]))].append(form(j, ((a, 1), (b, -1))))
    specs = [(f"slot {h}", fis, data.lam) for h, fis in slots.items()]
    specs += [(f"part {pi}", [form(j, ((a, 1),)) for j in part for a in range(k)], 1)
              for pi, part in enumerate(data.partition)]
    groups = []
    for name, fis, mult in specs:
        g = UniformityGroup(tuple(fis), data.d, mult, q1 // data.e)
        if any(sb.forms[fi].terms for fi in fis):
            groups.append(g)
            continue
        vals = [sb.forms[fi].const for fi in fis]
        if 0 in vals or not _labels_fit(g, [tab.log[v] for v in vals], q1):
            raise ValueError(f"precondition violated: {name} fails and holds no "
                             "suspect position")
    stray = [pos for pos in data.zero_positions() if pos not in suspects]
    if stray:
        raise ValueError(f"precondition violated: zero entries at {stray} are not suspects")

    def builder(assignment):
        phi = [list(row) for row in data.phi]
        for (i, a), u in index.items():
            phi[i][a] = int(assignment[u])
        for j, (i, m) in links.items():
            for a in range(k):
                if (i, a) in index:
                    phi[j][a] = int(fld.mul(phi[i][a], m))
        return data.replace_phi(phi)

    return ConstraintSystem(fld, data.d, tuple(f"phi_{i}_{a}" for i, a in leads),
                            tuple(sb.forms), tuple(groups), lifting_builder=builder,
                            provenance=f"repair({data.provenance})")


def repair_block(data: LiftingData, suspects: Sequence[tuple[int, int]],
                 widen: bool = True, budget: int = 10**8) -> LiftingData:
    """Re-solve the suspect (block, position) values, holding everything else
    fixed; the input is never mutated.

    `solve` completes the constraint system of _repair_system (suspects
    are unknowns, the other values constants); its re-verification against
    the lifting conditions is the final check.  A failing slot or part of
    fixed values, or a zero entry that is not a suspect, violates the
    precondition and raises ValueError naming it.  If no completion exists
    on the narrow set and widen is true, the suspect set grows to all
    positions of every block containing a suspect; scaled copies among
    those blocks (rows that are C_0^{e,q}-multiples of one another in the
    original data) keep their scaling relation, which is how printed orbit
    data stays an orbit.  Raises RepairError when a complete search finds
    no completion, and RepairBudgetExceeded (without widening) when a
    search spends its node budget first.
    """
    suspects = {(int(i), int(a)) for i, a in suspects}
    if any(not (0 <= i < len(data.phi) and 0 <= a < data.k) for i, a in suspects):
        raise ValueError(f"suspects must be (block, position) entries: {sorted(suspects)}")
    if not suspects and check_lifting_conditions(data).ok:
        return data

    def attempt(sus):
        system = _repair_system(data, sus)
        res = solve(system, budget=budget)
        if res.status == "budget_exceeded":
            raise RepairBudgetExceeded(f"repair search spent its budget of {budget} "
                                       "nodes; nothing is proved")
        return system.lifting_builder([res.assignment[u] for u in system.unknowns]) \
            if res else None

    repaired = attempt(suspects)
    if repaired is not None:
        return repaired
    if not widen:
        raise RepairError("no completion exists with the rest held fixed; "
                          "widen the suspect set")
    repaired = attempt({(i, a) for i, _ in suspects for a in range(data.k)})
    if repaired is None:
        raise RepairError("no completion exists even on the widened suspect set")
    return repaired
