"""Computer-search machinery: the explicit cyclotomic existence threshold,
constraint systems over cyclotomic classes, a deterministic solver, and
repair of suspect lifting data.

A ConstraintSystem carries one symbolic linear form per needed field
expression (y, -y, 2y, y_i +- y_j, y - c, constants) and uniformity groups
in the orbit normal form of the lifting conditions: counted per cyclotomic
e-class, the labels (discrete logs) of a group's forms fill whole
C_0^{e,q} orbits and cover every class mod the group modulus an exact
number of times.  The solver first searches the sign-paired restriction
that a system may carry (the pattern structure of the underlying
constructions), then splits the unknowns into clusters (connected
components of the form graph).  One depth-first kernel, _backtrack
(fail-first, lowest bit first, a budget node per value), searches over

* the clusters when every cluster is enumerable, each domain its feasible
  label signatures found by vectorized frontier expansion, in hint order;
* otherwise the unknowns, with value-level forward checking, a scaling
  gauge on the first unknown when no form has a constant, and values in
  ascending discrete-log order.

One function, framedf._split.split_search, runs either search: once it
runs long, a forked helper searches its subtrees beside the caller, merged
in the order of the one-process search.

Every lifting system comes from one builder, _lifting_system, which turns
one symbolic row per SDF block (an unknown times a prime-subfield
coefficient, or a field constant per entry), scaled-copy links and a
partition into one group per slot and one per part, cutting +- pairs of
forms to one representative where the caller asks.  generic_system,
paired_pattern_system, z125_system and repair state only their rows,
links and partition, beside their own checks and hints; repair's
unknowns are the suspect entries, every other entry a constant.  The
sign-paired tuples of the pattern lemmas come from one function,
_sign_pairs, which gives each block position a leader unknown with a
sign: paired_pattern_system's rows, and generic_system's sign-paired
restriction, a second builder call searched before the full space.

Field arithmetic in the search runs on discrete logs through three lists
of O(q) entries per field, exp, log and the Zech logarithms
zech[t] = log(1 + g^t), since log(g^a + g^b) = a + zech[b - a] mod q-1
(Huber, "Some comments on Zech's logarithms", IEEE Trans. Inf. Theory 36,
1990); a form coefficient c is the prime-subfield element c mod p.
Cluster enumeration keeps the logs of its candidates in the narrowest
dtype holding q - 1, in the order of their encodings, column-major (a row
per placed unknown, a column per candidate), beside a narrow state: a
class bitmask per group holding two or more of the cluster's forms, and
the signature label of each cross form, written where the form completes.
Each level gathers only what its completing forms read and copies out the
candidates that pass; at the last level each chunk extends only the
candidates whose first value is least in its coset of the scalings that
fix every tracked class (only those can come first for their signature)
and keeps only its first candidate per signature.  The search over unknowns
keeps each placed value as its log, each unknown's live domain as an int
bitset indexed by discrete log and each group's closed classes as one
bitmask.  A placement first counts the labels it completes against the
caps and only then prunes domains, by one cached bitset per (form, group).

Hints order candidates (signatures agreeing with the hinted label plan are
tried first) but never exclude assignments.  Every success is re-verified
against the full system, and against the lifting conditions whenever the
system knows how to assemble a lifting datum.  The search order is fixed:
the same system always yields the same result and node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import FiniteField, field_of_order
from .families import DesignFamily, SDF
from .lifting import LiftingData, check_lifting_conditions, in_orbit_normal_form

__all__ = [
    "q_bound",
    "q_bound_bracket",
    "Form",
    "UniformityGroup",
    "ConstraintSystem",
    "generic_system",
    "paired_pattern_system",
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
# Field arithmetic on discrete logs for the search loops


class _FieldLogs:
    """Arithmetic of one field on integer encodings through its discrete
    logs, as Python lists of O(q) entries: exp[i] = g^i, log[x] (log[0] =
    -1) and zech[t] = log(1 + g^t), which is -1 where 1 + g^t = 0 (t = 0 in
    characteristic 2, else t = (q-1)/2).  The depth-first search reads the
    labels of its linear forms from `lines`, zech twice over and then the
    identity (see _direct_search)."""

    def __init__(self, fld: FiniteField):
        self.p, self.q1 = fld.p, fld.q - 1
        self.exp = fld._exp.tolist()
        self.log = fld._log.tolist()
        self.zech = fld._log[fld.add(fld._exp, 1)].tolist()
        self.lines = self.zech * 2 + list(range(self.q1))

    def add(self, a: int, b: int) -> int:
        if not (a and b):
            return a or b
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % self.q1]
        return 0 if z < 0 else self.exp[(la + z) % self.q1]

    def scale(self, c: int, x: int) -> int:
        """x times the prime-subfield element c mod p."""
        s = c % self.p
        return self.exp[(self.log[s] + self.log[x]) % self.q1] if s and x else 0


@lru_cache(maxsize=None)
def _field_logs(fld: FiniteField) -> _FieldLogs:
    return _FieldLogs(fld)


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
    times.  A form may be listed more than once.  The check is
    lifting.in_orbit_normal_form."""
    forms: tuple[int, ...]
    modulus: int
    multiplicity: int = 1
    orbit: int = 1


@dataclass
class ConstraintSystem:
    field: FiniteField
    unknowns: tuple[str, ...]
    forms: tuple[Form, ...]
    groups: tuple[UniformityGroup, ...]
    hints: dict = dc_field(default_factory=dict)        # form index -> preferred label
    lifting_builder: Optional[Callable] = None           # assignment -> LiftingData
    # a restriction searched before the full space, the sign-paired tuples
    # behind the pattern lemmas: (system, signs), unknown u of this system
    # taking the value of the restricted unknown signs[u][0] times signs[u][1]
    restricted: Optional[tuple[ConstraintSystem, tuple[tuple[int, int], ...]]] = None

    def eval_form(self, fi: int, assignment: Sequence[int]) -> int:
        fl = _field_logs(self.field)
        f = self.forms[fi]
        acc = f.const
        for u, c in f.terms:
            acc = fl.add(acc, fl.scale(c, int(assignment[u])))
        return acc

    def check_assignment(self, assignment: Sequence[int]) -> bool:
        log = _field_logs(self.field).log
        vals = [self.eval_form(fi, assignment) for fi in range(len(self.forms))]
        if any(v == 0 for v in vals):
            return False
        q1 = self.field.q - 1
        return all(in_orbit_normal_form([log[vals[fi]] for fi in g.forms], q1,
                                        q1 // g.orbit, g.modulus, g.multiplicity)
                   for g in self.groups)


# ---------------------------------------------------------------------------
# Lifting systems: one builder behind every caller


def _form_key(coeffs: dict[int, int], const: int) -> tuple:
    """(terms, const) of a form: nonzero coefficients, positive ones first,
    each run by descending unknown."""
    terms = tuple(sorted(((u, c) for u, c in coeffs.items() if c),
                         key=lambda t: (t[1] < 0, -t[0])))
    return terms, const


def _form_name(key: tuple, names: Sequence[str]) -> str:
    terms, const = key
    text = "".join(f"{'-' if c < 0 else '+'}{abs(c) if abs(c) != 1 else ''}{names[u]}"
                   for u, c in terms)
    if const or not terms:
        text += f"+{const}"
    return text.removeprefix("+")


def _halved(d: int, lam: int, orbit: int, q: int) -> Optional[tuple[int, int, int]]:
    """(modulus, multiplicity, orbit) that a group's ± representatives S
    must meet so that S and -S together meet (d, lam, orbit), or None when
    no such rule is known.  -1 in C_0^{e,q} (even orbit): x and -x share
    every class, so half the orbit.  Even lam: S covering the classes mod d
    lam/2 times is enough (exactly what is needed when -1 lies in class 0).
    Odd lam with orbit 1 and -1 in class d/2: S must cover the classes
    mod d/2 lam times."""
    if orbit % 2 == 0:
        return d, lam, orbit // 2
    if lam % 2 == 0:
        return d, lam // 2, orbit
    if orbit == 1 and d % 2 == 0 and (q - 1) // 2 % d == d // 2:
        return d // 2, lam, 1
    return None


def _lifting_system(sdf: DesignFamily, fld: FiniteField, e: int, d: int, lam: int,
                    unknowns: Sequence[str], rows, partition, *, links=None, parts=None,
                    pairs: str = "", provenance: str = "") -> ConstraintSystem:
    """The lifting conditions of a symbolic datum as a constraint system.

    rows[j] is block j's symbolic tuple: each entry is (unknown,
    prime-subfield coefficient) or a field encoding.  links maps a follower
    block to (leader block, multiplier in C_0^{e,q}): its values are the
    leader's times the multiplier, which keeps every e-class, so it lists
    the leader's forms again and needs no row.  One group per slot h (the
    forms rows[j][a] - rows[j][b] with f_j[a] - f_j[b] = h; a slot equal to
    an earlier one is kept once) and one per part of `parts` (default: the
    partition) with modulus d, multiplicity 1 and orbit (q-1)/e.

    `pairs` names the slots whose forms come in ± pairs and are cut to one
    representative per pair, their group meeting the rule of _halved:
    "torsion" the slots with h = -h, keeping the first form of each pair;
    "signed" every slot, for sign-paired rows, each representative taken
    with its highest unknown positive, so that h and -h give one group.

    A group of constants is checked here and left out; a failing one
    raises ValueError naming its slot or part.  The lifting builder
    assembles the datum (with `partition` and its one `provenance`) from an
    assignment.
    """
    fl, q1 = _field_logs(fld), fld.q - 1
    G, orbit = sdf.group, q1 // e
    links = links or {}

    def key(signed):
        """Key of sum(sign * entry) over the (entry, sign) pairs."""
        coeffs, const = {}, 0
        for x, sign in signed:
            if isinstance(x, tuple):
                coeffs[x[0]] = coeffs.get(x[0], 0) + sign * x[1]
            else:
                const = fl.add(const, fl.scale(sign, x))
        return _form_key(coeffs, const)

    @lru_cache(maxsize=None)
    def negated(k):
        return _form_key({u: -c for u, c in k[0]}, fl.scale(-1, k[1]))

    def signed_rep(k):
        return negated(k) if k[0] and max(k[0])[1] < 0 else k

    norm = signed_rep if pairs == "signed" else (lambda k: k)
    # forms are numbered by first emission: of their own key or, in a signed
    # slot, of any key they represent
    rank: dict[tuple, int] = {}

    def one_per_pair(keys):
        """The first key of each ± pair, or None when one has no partner."""
        waiting, reps = {}, []
        for k in keys:
            nk = negated(k)
            if waiting.get(nk):
                waiting[nk] -= 1
            else:
                waiting[k] = waiting.get(k, 0) + 1
                reps.append(k)
        return None if any(waiting.values()) else [norm(k) for k in reps]

    row_of = lambda j: rows[links[j][0]] if j in links else rows[j]
    slots: dict[int, list] = {}
    for j, frow in enumerate(sdf.blocks):
        row, f = row_of(j), np.asarray(frow, dtype=np.int64)
        diffs = G.sub(f[:, None], f[None, :]).tolist()
        for a in range(len(frow)):
            for b in range(len(frow)):
                if a != b:
                    k = key(((row[a], 1), (row[b], -1)))
                    rank.setdefault(norm(k), len(rank))
                    rank.setdefault(k, len(rank))
                    slots.setdefault(diffs[a][b], []).append(k)
    specs, seen = [], set()
    for h in sorted(slots):
        spec = (d, lam, orbit, slots[h])
        if pairs == "signed" or (pairs == "torsion" and int(G.neg(h)) == h):
            reps, rule = one_per_pair(slots[h]), _halved(d, lam, orbit, fld.q)
            if reps is not None and rule is not None:
                spec = rule + (reps,)
        sig = spec[:3] + (tuple(sorted(spec[3])),)
        if sig not in seen:
            seen.add(sig)
            specs.append((f"slot {h}",) + spec)
    for pi, part in enumerate(partition if parts is None else parts):
        ks = [key(((x, 1),)) for j in part for x in row_of(j)]
        for k in ks:
            rank.setdefault(k, len(rank))
        specs.append((f"part {pi}", d, 1, orbit, ks))

    used = {k for spec in specs for k in spec[4]}
    keys = sorted(used, key=rank.__getitem__)
    index = {k: fi for fi, k in enumerate(keys)}
    groups = []
    for name, modulus, mult, orb, ks in specs:
        g = UniformityGroup(tuple(sorted(index[k] for k in ks)), modulus, mult, orb)
        if any(k[0] for k in ks):
            groups.append(g)
        elif not in_orbit_normal_form([fl.log[k[1]] for k in ks], q1, q1 // orb, modulus,
                                      mult):
            raise ValueError(f"precondition violated: {name} fails and holds no unknown")

    def builder(assignment):
        value = lambda x: fl.scale(x[1], int(assignment[x[0]])) if isinstance(x, tuple) \
            else int(x)
        phi = {j: tuple(value(x) for x in row_of(j)) for j in range(len(sdf.blocks))
               if j not in links}
        for j, (i, m) in links.items():
            phi[j] = tuple(int(fld.mul(v, m)) for v in phi[i])
        return LiftingData(sdf, fld, e=e, d=d, lam=lam,
                           phi=tuple(phi[j] for j in range(len(sdf.blocks))),
                           partition=tuple(tuple(p) for p in partition),
                           provenance=provenance)

    forms = tuple(Form(_form_name(k, unknowns), *k) for k in keys)
    return ConstraintSystem(fld, tuple(unknowns), forms, tuple(groups),
                            lifting_builder=builder)


def generic_system(sdf: DesignFamily, q: int, e: int, d: int, lam: int) -> ConstraintSystem:
    """Symbolic label system for lifting an SDF over GF(q) with e = q - 1
    and d | q - 1: one unknown per block position, one difference group per
    group element (half-range convention on 2-torsion slots), one element
    group per part of t consecutive blocks.  Unless every sign would be +1,
    it carries its sign-paired restriction (see ConstraintSystem), built
    from the same SDF with one leader unknown per pair of positions.
    """
    if sdf.kind != SDF:
        raise ValueError("need an SDF")
    leaders, signs = _sign_pairs(sdf)
    if e != q - 1:
        raise ValueError("the symbolic system requires e = q - 1")
    G = sdf.group
    k = len(sdf.blocks[0])
    if d * (q - 1) % (e * k):
        raise ValueError("d(q-1) must be divisible by ek")
    t = d * (q - 1) // (e * k)
    if (lam * G.order) % (k - 1):
        raise ValueError("lambda|G| must be divisible by k-1")
    n = len(sdf.blocks)
    nparts = lam * G.order // (k - 1)
    if n != nparts * t:
        raise ValueError("cannot derive a partition: block count mismatch")
    partition = tuple(tuple(range(i * t, (i + 1) * t)) for i in range(nparts))
    if lam % 2 == 1 and (q - d - 1) % (2 * d):
        raise ValueError("odd lambda requires q = d+1 (mod 2d)")
    if (q - 1) % d:
        raise ValueError(f"need d | q-1: d = {d}, q = {q}")
    fld, names = field_of_order(q), [f"phi_{i}_{a}" for i in range(n) for a in range(k)]
    build = lambda unknowns, rows: _lifting_system(
        sdf, fld, e, d, lam, unknowns, rows, partition, pairs="torsion",
        provenance=f"generic({sdf.provenance},q={q})")
    system = build(names, [tuple((i * k + a, 1) for a in range(k)) for i in range(n)])
    if all(s > 0 for _, s in signs):
        return system
    restricted = build([names[u] for u in leaders],
                       [tuple(signs[i * k:(i + 1) * k]) for i in range(n)])
    return replace(system, restricted=(restricted, tuple(signs)))


def _sign_pairs(sdf: DesignFamily) -> tuple[list[int], list[tuple[int, int]]]:
    """The sign-paired tuples of the pattern lemmas: (leaders, signs), the
    block positions (numbered block by block) that carry an unknown, and
    per position (r, sign), the position taking sign times leader r's
    unknown.  The right-hand copy of an adjacent repeated value takes -1
    times its left neighbour; a later block equal to an earlier one takes
    its partner's row negated.  Refuses blocks of other sizes than block
    0's, naming the first."""
    n, k = len(sdf.blocks), len(sdf.blocks[0])
    ragged = next((i for i, b in enumerate(sdf.blocks) if len(b) != k), None)
    if ragged is not None:
        raise ValueError(f"block {ragged} has {len(sdf.blocks[ragged])} entries, block 0 has {k}")
    partner: dict[int, int] = {}
    for i in range(n):
        if i not in partner:
            j = next((j for j in range(i + 1, n)
                      if j not in partner and sdf.blocks[j] == sdf.blocks[i]), None)
            if j is not None:
                partner[j] = i
    signs: list[tuple[int, int]] = []           # position -> (leader position, sign)
    for i, frow in enumerate(sdf.blocks):
        if i in partner:
            signs += [(u, -s) for u, s in signs[partner[i] * k:(partner[i] + 1) * k]]
        else:
            signs += [(i * k + a - 1, -1) if a % 2 and frow[a - 1] == frow[a]
                      else (i * k + a, 1) for a in range(k)]
    leaders = sorted({u for u, _ in signs})
    rank = {u: r for r, u in enumerate(leaders)}
    return leaders, [(rank[u], s) for u, s in signs]


def paired_pattern_system(sdf: DesignFamily, q: int) -> ConstraintSystem:
    """System for an SDF whose every block lists each of its distinct values
    twice, adjacently, (x_0, x_0, x_1, x_1, ...), lifted with the
    sign-paired tuples of _sign_pairs, (y_0, -y_0, y_1, -y_1, ...): one
    unknown per leader, d half the positions, e = (q-1)/2 and lambda 1.
    Needs q = 1 (mod 2d), so that the classes mod d are sign-invariant.
    One part holds every block, and slot 0 (the values 2y_i) carries its
    condition (the values +-y_i), so there is no part group.  Refuses a
    family that is not an SDF, and a block with an unpaired value or a
    value listed more than twice."""
    if sdf.kind != SDF:
        raise ValueError("need an SDF")
    for frow in sdf.blocks:
        if frow[0::2] != frow[1::2]:
            raise ValueError("paired pattern needs each value of a block twice, adjacently")
        if 2 * len(set(frow)) != len(frow):
            raise ValueError("paired pattern needs the values of a block distinct")
    leaders, signs = _sign_pairs(sdf)
    d, k = len(signs) // 2, len(sdf.blocks[0])
    if (q - 1) % (2 * d):
        raise ValueError(f"need q = 1 (mod 2d): d = {d}, q = {q}")
    return _lifting_system(sdf, field_of_order(q), (q - 1) // 2, d, 1,
                           [f"y_{r}" for r in range(len(leaders))],
                           [tuple(signs[i * k:(i + 1) * k]) for i in range(len(sdf.blocks))],
                           (tuple(range(len(sdf.blocks))),), parts=(), pairs="signed",
                           provenance=f"paired({sdf.provenance},q={q})")


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
    (labels mod 6; a negated twin repeats its row's condition).  The fixed
    label plan for the doubled and inner-pair expressions enters as hints,
    completed lexicographically group by group; hints steer the search
    order and are relaxed when no assignment realizes them."""
    if (q - 7) % 12:
        raise ValueError("need q = 7 (mod 12)")
    from .catalog import z125_6_6
    # unknown layout: 0..2 -> y_{1,t}; 3 + 4*(i-1) + s-1 -> y_{2i,s}
    names = [f"y_1_{t}" for t in (1, 2, 3)]
    for i in range(1, 13):
        names += [f"y_{2 * i}_{s}" for s in (1, 2, 3, 4)]
    u2 = lambda i, s: 3 + 4 * (i - 1) + (s - 1)
    rows = [((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))]
    for i in range(1, 13):
        row = ((u2(i, 1), 1), (u2(i, 1), -1), (u2(i, 2), 1), (u2(i, 2), -1),
               (u2(i, 3), 1), (u2(i, 4), 1))
        rows += [row, tuple((u, -c) for u, c in row)]
    system = _lifting_system(z125_6_6(), field_of_order(q), q - 1, 6, 1, names, rows,
                             tuple((j,) for j in range(25)),
                             parts=((0,),) + tuple((j,) for j in range(1, 25, 2)),
                             pairs="signed", provenance=f"z125(q={q})")
    # hints: the published plan for the paired rows, completed lexicographically
    index = {(f.terms, f.const): fi for fi, f in enumerate(system.forms)}
    hints: dict[int, int] = {}
    for i in range(1, 13):
        a, b = u2(i, 1), u2(i, 2)
        for terms, col in ((((a, 2),), "2y_a"), (((b, 2),), "2y_b"),
                           (((b, 1), (a, -1)), "b-a"), (((b, 1), (a, 1)), "b+a")):
            hints[index[terms, 0]] = _Z125_GTABLE[col][i - 1]
    for g in system.groups:
        if g.modulus != 3:
            continue
        have = [hints[fi] for fi in g.forms if fi in hints]
        if len(set(have)) != len(have):
            continue
        free = [fi for fi in dict.fromkeys(g.forms) if fi not in hints]
        hints.update(zip(free, sorted(set(range(3)) - set(have))))
    return replace(system, hints=hints)


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

    def spend(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.limit


def _backtrack(n: int, domains: list[int], assigned: list[bool], enter, place, undo, complete,
               budget: _Budget, depth: int = 0, stop: int = -1, visit=None,
               root: Optional[int] = None) -> bool:
    """The depth-first search of both solver paths, below the placements in
    force at `depth`.  A node takes the unassigned variable u with the
    fewest live bits in its int bitset domain (the lower index on a tie),
    calls enter(u) once, and tries u's set bits i from the lowest (at depth
    0 those of `root`, if given), one budget node each: place(u, i,
    enter(u)) returns an undo token, or None when i fails at once; place
    and undo keep domains and assigned.  Returns True once complete() at
    depth n, or visit() at depth `stop`, returns True, the path's
    placements left in force; else False, every placement undone.  The
    path is explicit, not recursion, so nothing it holds outlives the call."""
    path = []                  # per placement below depth: [u, values left, enter(u), token]
    while True:
        d = depth + len(path)
        if d == stop or d == n:
            if (visit if d == stop else complete)():
                return True
        else:
            _, u = min((domains[u].bit_count(), u) for u in range(n) if not assigned[u])
            path.append([u, root if d == 0 and root is not None else domains[u], enter(u), None])
        while True:                    # the next value of the deepest variable with one left
            if not path:
                return False
            u, dom, entered, token = step = path[-1]
            if token is not None:
                undo(token)
            if not dom:
                path.pop()
                continue
            low = dom & -dom
            step[1] = dom ^ low
            if not budget.spend():
                for *_, token in reversed(path[:-1]):
                    undo(token)
                return False
            step[3] = place(u, low.bit_length() - 1, entered)
            if step[3] is not None:
                break


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


# Cluster enumeration gives up (and the solver falls back to _direct_search) once
# the candidate rows it has expanded exceed _WORK_CAP.  Frontiers are expanded
# in chunks of at most _FRONTIER_CAP rows; at the last level each chunk expands
# only its coset-least columns and keeps the first row per signature, so the
# full last frontier never exists.
_FRONTIER_CAP = 2_500_000
_WORK_CAP = 80_000_000


def _enumerate_cluster(system: ConstraintSystem, form_groups: list[list[int]],
                       cluster: list[int]):
    """All value assignments of the cluster satisfying every group whose forms
    lie entirely inside it, with partial-count caps for straddling groups.

    Returns (witnesses, signatures, cross_forms) deduplicated by signature
    (the labels of the cluster's forms belonging to straddling groups, each
    mod the modulus of its straddling groups), keeping the first row of
    each, or None when the expansion is too large, when a form is or has a
    constant or has more than two terms, when a group has multiplicity or
    orbit > 1, or when a cross form's straddling groups differ in modulus
    (one label per form could not stand for both).  Witnesses are rows of
    field encodings in the narrowest unsigned dtype holding q - 1,
    signatures int8 rows.

    The frontier holds the logs of the values, column-major in the
    narrowest dtype holding q - 1: one row per placed unknown, one column
    per candidate assignment, each unknown's values tried in the order of
    their encodings.  Beside it sits a narrow state, also column-major: one
    class bitmask per group holding at least two of the cluster's forms (a
    group with one cannot fill a class twice), then one signature label per
    cross form, written at the level where the form completes.  A level
    names each expanded candidate by (source column, new value), gathers
    only the rows its completing forms read, and copies out just the
    candidates that pass.  The last level keeps the first candidate per
    signature chunk by chunk, then over the chunks.

    With M the lcm of the tracked moduli, M | q-1 and M < q-1, the last
    level (past the first) extends only the columns whose first value is
    the least encoding of its coset of C = {t : M | log t}, and the result
    is the same.  Scaling the cluster by t in C keeps every check: the
    forms are homogeneous (constants return None above), so a nonzero
    value stays nonzero and its class mod each tracked modulus, a divisor
    of M, is unchanged; the bitmasks, signatures and class-directed
    expansion are therefore those of the scaled row.  C acts freely on
    rows, and within one orbit the column order of every level (chunk of
    the source column, class, source column, value) ascends with the first
    value, so each signature's first row has a coset-least first value.
    The restriction filters the columns inside each chunk of the full
    frontier, so the chunk boundaries, and with them the order of the rows
    kept, are those of the unrestricted expansion; `work` is counted on the
    full frontier, so _WORK_CAP gives up exactly where it did without it.
    """
    if any(f.const or not 0 < len(f.terms) <= 2 for f in system.forms):
        return None
    log = system.field._log
    cluster_set = set(cluster)
    inner_set = {fi for fi, f in enumerate(system.forms)
                 if all(u in cluster_set for u, _ in f.terms)}
    mod, straddle, masked = {}, [], []       # mod: the tracked groups' moduli
    for gi, g in enumerate(system.groups):
        ins = [fi for fi in g.forms if fi in inner_set]
        if not ins:
            continue
        if g.multiplicity != 1 or g.orbit != 1:
            return None
        mod[gi] = g.modulus
        if len(ins) < len(g.forms):
            straddle.append(gi)
        if len(ins) > 1:
            masked.append(gi)
    cross_forms = sorted({fi for gi in straddle for fi in system.groups[gi].forms
                          if fi in inner_set})
    # state rows: the masks, then the signature labels
    mcol = {gi: k for k, gi in enumerate(masked)}
    smods = [{mod[gi] for gi in form_groups[fi] if gi in straddle} for fi in cross_forms]
    if any(len(ms) > 1 for ms in smods):
        return None
    smod = [ms.pop() for ms in smods]
    scol = {fi: (len(masked) + k, m) for k, (fi, m) in enumerate(zip(cross_forms, smod))}
    order = list(cluster)
    pos = {u: i for i, u in enumerate(order)}
    last = len(order) - 1
    completes_at: dict[int, list[int]] = {}
    for fi in sorted(inner_set):
        completes_at.setdefault(max(pos[u] for u, _ in system.forms[fi].terms), []).append(fi)
    p, q1 = system.field.p, system.field.q - 1
    values = log[1:].astype(np.min_scalar_type(q1))   # the logs of 1..q-1, in that order
    # zech twice over, 3(q-1) for the root's -1: read at i, |i| < 2(q-1), it gives zech[i % (q-1)]
    zero, wide = 3 * q1, np.min_scalar_type(-5 * q1)
    zech2 = np.asarray(_field_logs(system.field).zech * 2, dtype=wide)
    zech2[zech2 < 0] = zero
    # per tracked modulus (dividing q-1) the class bit and label of each unreduced log below 5(q-1)
    dtype = np.min_scalar_type(1 << (max(mod.values(), default=1) - 1))
    class_bit = {m: (1 << (np.arange(5 * q1) % m)).astype(dtype) for m in set(mod.values())}
    label = {m: (np.arange(5 * q1) % m).astype(dtype) for m in set(mod.values())}
    # least[log x]: x is the least encoding of its coset of C = {t : M | log t}
    # (only when C is a proper nontrivial subgroup and a level 1 exists)
    M = math.lcm(*mod.values())
    least = None
    if last and q1 % M == 0 and M < q1:
        least = np.zeros(q1, dtype=bool)
        least[values[np.unique(values % M, return_index=True)[1]]] = True

    def form_values(fi, column):
        """The unreduced logs of form fi's values on the candidates (3(q-1)
        or more for 0), column(i) giving order[i]'s: a term's log is below
        2(q-1), and a sum of two terms one gather from zech2."""
        acc = None
        for u, c in system.forms[fi].terms:
            x = column(pos[u])
            if c % p:                               # else the term vanishes
                t = x.astype(wide) + int(log[c % p])
                acc = t if acc is None else zech2.take(t - acc) + acc
        return np.full(len(x), zero, dtype=wide) if acc is None else acc

    def place(fr, st, src, new, level):
        """The frontier and state of the candidates fr[:, src] extended by
        order[level] = new that pass the forms completing at level: their
        values are nonzero and fill no class twice.  Records the cross
        forms' labels."""
        gathered = {level: new}

        def column(i):
            if i not in gathered:
                gathered[i] = fr[i].take(src)
            return gathered[i]

        good = np.ones(len(src), dtype=bool)
        written = {}                          # state row -> its values on the candidates
        for fi in completes_at.get(level, ()):
            val = form_values(fi, column)
            good &= val < zero
            for gi in form_groups[fi]:
                if gi in mcol:
                    k = mcol[gi]
                    cur = written[k] if k in written else st[k].take(src)
                    bit = class_bit[mod[gi]].take(val)
                    good &= (cur & bit) == 0
                    written[k] = cur | bit
            if fi in scol:
                col, m = scol[fi]
                written[col] = label[m].take(val)
        keep = np.flatnonzero(good)
        rows = src.take(keep)
        fr2 = np.empty((level + 1, len(keep)), dtype=values.dtype)
        fr2[:level] = fr.take(rows, axis=1)
        fr2[level] = new.take(keep)
        st2 = st.take(rows, axis=1)
        for k, arr in written.items():
            st2[k] = arr.take(keep)
        return fr2, st2

    def first_rows(state):
        """Ascending indices of the first column of each distinct
        signature: sorting the keys (signature, column) puts each
        signature's first column at the head of its run."""
        sig, n = state[len(masked):], state.shape[1]
        if math.prod(smod) * n >= 2**63:
            return np.sort(np.unique(sig.T, axis=0, return_index=True)[1])
        key = np.zeros(n, dtype=np.int64)
        for k, m in enumerate(smod):
            key *= m
            key += sig[k]
        key *= n
        key += np.arange(n)
        key.sort()
        heads = np.flatnonzero(np.diff(key // n, prepend=-1))
        return np.sort(key[heads] % n)

    # class-directed expansion: when the new unknown's identity form sits in a
    # tracked group, only classes still free in that group's bitmask are tried
    form_index = {f.terms: fi for fi, f in enumerate(system.forms)}

    def expansion_plan(u):
        fi = form_index.get(((u, 1),))
        if fi is None:
            return None
        cands = [gi for gi in form_groups[fi] if gi in mod]
        if not cands:
            return None
        gi = max(cands, key=lambda g: mod[g])
        cls = values % mod[gi]
        return mcol.get(gi), mod[gi], [values[cls == c] for c in range(mod[gi])]

    def expansion(st, level):
        """(src, new): for each candidate of order[level], the column it
        extends and its value; class by class under a plan, else each
        column with every value in turn."""
        n = st.shape[1]
        index = np.min_scalar_type(n - 1)
        plan = expansion_plan(order[level]) if level else None
        if plan is None:
            return np.repeat(np.arange(n, dtype=index), len(values)), np.tile(values, n)
        col, m, by_class = plan
        srcs, news = [], []
        for c in range(m):
            free = np.arange(n) if col is None else np.flatnonzero((st[col] >> c) & 1 == 0)
            srcs.append(np.repeat(free.astype(index), len(by_class[c])))
            news.append(np.tile(by_class[c], len(free)))
        return np.concatenate(srcs), np.concatenate(news)

    def grow(frontier, state, level):
        """Place order[level] on every column, in chunks of at most
        _FRONTIER_CAP candidates; the chunks are freed on return.  At the
        last level each chunk extends only its columns whose first value is
        least in its coset, and keeps its first column per signature."""
        parts_f, parts_s = [], []
        chunk = max(1, _FRONTIER_CAP // len(values))
        for lo in range(0, frontier.shape[1], chunk):
            fr, st = frontier[:, lo:lo + chunk], state[:, lo:lo + chunk]
            if level == last and least is not None:
                sel = np.flatnonzero(least.take(fr[0]))
                fr, st = fr[:, sel], st[:, sel]
            fr2, st2 = place(fr, st, *expansion(st, level), level)
            if level == last:
                keep = first_rows(st2)
                fr2, st2 = fr2[:, keep], st2[:, keep]
            parts_f.append(fr2)
            parts_s.append(st2)
        return np.concatenate(parts_f, axis=1), np.concatenate(parts_s, axis=1)

    state = np.zeros((len(masked) + len(cross_forms), 1), dtype=dtype)
    frontier, state = grow(np.zeros((0, 1), dtype=values.dtype), state, 0)
    work = 0
    for level in range(1, len(order)):
        if frontier.shape[1] == 0:
            break
        work += frontier.shape[1] * len(values)
        if work > _WORK_CAP:
            return None
        frontier, state = grow(frontier, state, level)
    keep = first_rows(state)        # chunks kept column order: first overall too
    exp = system.field._exp.astype(values.dtype)
    return (np.ascontiguousarray(exp.take(frontier[:, keep]).T),
            state[len(masked):, keep].T.astype(np.int8, order="C"), cross_forms)


def _fc_over_clusters(system: ConstraintSystem, form_groups: list[list[int]], clusters,
                      domains) -> SimpleNamespace:
    """A complete forward-checking _backtrack over enumerated cluster
    domains, as framedf._split.split_search runs it.

    Each cluster's rows are taken in hint order, a stable sort by the
    number of cross labels that differ from the system's hints, kept as a
    narrow permutation through which the shared signatures are read, and
    its live domain is one int: bit i stands for row order[ci][i], so
    scanning the set bits from the lowest visits the live rows in hint
    order.  A row's cross labels are forbidden in every unassigned cluster
    whose cross column shares a group with them: that cluster's domain is
    and-ed with the bits of its rows whose label in the column differs, an
    int built on first use for each (cluster, column, label) and kept for
    the solve.  So a live row never repeats a label of an assigned cluster
    in a shared group, and a cluster left with no live row fails the node.
    """
    ncl = len(clusters)
    bygroup: dict[int, list[tuple[int, int]]] = {}
    for ci, (_, _, cross) in enumerate(domains):
        for k, fi in enumerate(cross):
            for gi in form_groups[fi]:
                bygroup.setdefault(gi, []).append((ci, k))
    # allowed[cj][kk]: label -> the bits of cluster cj's rows whose label in
    # column kk differs, built on first use; targets[ci][k]: the (cluster,
    # column, allowed bits) that a label in column k of cluster ci restricts
    allowed = [[{} for _ in cross] for _, _, cross in domains]
    targets = [[[(cj, kk, allowed[cj][kk]) for gi in form_groups[fi] for cj, kk in bygroup[gi]
                 if cj != ci] for fi in cross] for ci, (_, _, cross) in enumerate(domains)]
    order = []                           # order[ci][i]: the row that bit i stands for
    for _, sigl, cross in domains:
        score = np.zeros(len(sigl), dtype=np.min_scalar_type(len(cross)))
        for k, fi in enumerate(cross):
            if fi in system.hints:
                score += sigl[:, k] != system.hints[fi]
        order.append(np.argsort(score, kind="stable").astype(np.min_scalar_type(len(sigl) - 1)))
    masks = [(1 << len(o)) - 1 for o in order]
    assigned, chosen = [False] * ncl, [0] * ncl      # chosen[ci]: the bit of ci's row

    def place(ci, i, ci_targets):
        """Take ci's row i; the token lists each (cluster, mask) it narrowed."""
        assigned[ci], chosen[ci] = True, i
        narrowed = []
        for lab, ts in zip(domains[ci][1][order[ci][i]].tolist(), ci_targets):
            for cj, kk, bits in ts:
                if assigned[cj]:
                    continue
                if lab not in bits:
                    differs = domains[cj][1][:, kk].take(order[cj]) != lab
                    bits[lab] = int.from_bytes(
                        np.packbits(differs, bitorder="little").tobytes(), "little")
                if masks[cj] & ~bits[lab]:
                    narrowed.append((cj, masks[cj]))
                    masks[cj] &= bits[lab]
        return ci, narrowed

    def undo(token):
        ci, narrowed = token
        for cj, old in reversed(narrowed):
            masks[cj] = old
        assigned[ci] = False

    dfs = lambda depth, budget, stop=-1, visit=None: _backtrack(
        ncl, masks, assigned, targets.__getitem__, place, undo, lambda: True, budget, depth,
        stop, visit)
    solution = lambda: [x for _, x in sorted(   # the clusters partition the unknowns
        (u, x) for ci, cl in enumerate(clusters)
        for u, x in zip(cl, domains[ci][0][order[ci][chosen[ci]]].tolist()))]
    return SimpleNamespace(n=ncl, feasible=True, dfs=dfs, solution=solution)


class _Bans(dict):
    """(a, lc, width, mask) -> the bits of the x = g^i with s*x + c zero or
    in a class of `mask` (see _direct_search), each built on first use."""

    def __init__(self, lines: list[int], q1: int):
        self.lines, self.q1 = lines, q1

    def __missing__(self, key):
        a, lc, width, mask = key
        self[key] = out = sum(1 << i for i, t in enumerate(self.lines[a:a + self.q1])
                              if t < 0 or mask >> ((lc + t) % width) & 1)
        return out


def _direct_search(system: ConstraintSystem, form_groups: list[list[int]]) -> SimpleNamespace:
    """A complete _backtrack over unknown values with value-level forward
    checking, as framedf._split.split_search runs it.

    Without constant terms every requirement is a uniformity group, which
    is invariant under scaling every unknown by a common nonzero element,
    so the first unknown searched is pinned to 1, its `root` (completeness
    is preserved: every satisfiable system has a solution in that gauge).

    The search runs on plain ints.  Each live domain is an int bitset in
    which bit i stands for g^i, g the generator, so values are tried in
    ascending discrete-log order; a placed value is kept as its log i.
    Terms whose coefficient vanishes mod p are dropped.  A form listed k
    times in a group is counted once with weight k.  Each group keeps one
    `closed` bitmask, over its classes mod the modulus when orbit = 1 and
    over its e-classes when orbit > 1: a class closes once it holds
    multiplicity * orbit labels, and in a group with orbit > 1 the empty
    e-classes of a class close once `multiplicity` of its e-classes are
    occupied.  Both caps hold in every completion.  A form left with one
    free unknown x reads s*x + c, kept as (x, a, lc): at x = g^i its label
    is lc + lines[a + i] (lines: zech twice over, then the identity),
    with a = log s - log c mod q-1 and lc = log c when c != 0, and
    a = 2(q-1), lc = log s when c = 0; its root is the i with
    lines[a + i] = -1.  Labels are left unreduced, below 2(q-1): solve
    checks that the moduli and widths they are read by divide q-1.  For
    each (a, lc, width, mask) the bits of the x that vanish or land in a
    closed class are built once.

    Placing a value runs in two stages.  First the labels of the forms it
    completes are counted against the caps; a clash (124,739 of z7@89's
    249,889 nodes) is undone there, before any free count or domain moves.
    Then the forms left with one free unknown, and those of every group
    whose mask grew, prune that unknown through one cached lookup per
    group.  Constant forms are counted, and every form with one free
    unknown pruned, before the first node (`feasible` is False when that
    already fails).  This leaves every domain where a full re-check of all
    such forms after each placement would.
    """
    fl = _field_logs(system.field)
    log, exp, zech, lines, q1 = fl.log, fl.exp, fl.zech, fl.lines, fl.q1
    n = len(system.unknowns)
    groups = system.groups
    weighted = [tuple((gi, gs.count(gi)) for gi in dict.fromkeys(gs)) for gs in form_groups]
    group_forms = [tuple(dict.fromkeys(g.forms)) for g in groups]
    mods = [g.modulus for g in groups]
    mults = [g.multiplicity for g in groups]
    orbits = [g.orbit for g in groups]
    caps = [g.multiplicity * g.orbit for g in groups]
    widths = [g.modulus if g.orbit == 1 else q1 // g.orbit for g in groups]
    # the e-classes of each class as a mask (with orbit 1, the class's bit);
    # orbit > 1 only: labels per e-class and the mask of occupied e-classes
    ebits = [[sum(1 << ec for ec in range(cls, w, m)) for cls in range(m)]
             for m, w in zip(mods, widths)]
    counts = [[0] * m for m in mods]
    ecounts = [[0] * w for w in widths]
    occupied = [0] * len(groups)
    closed = [0] * len(groups)
    assign = [0] * n                               # the logs of the placed values
    assigned = [False] * n
    clogs = [log[f.const] for f in system.forms]
    terms = [[(u, log[c % fl.p]) for u, c in f.terms if c % fl.p] for f in system.forms]
    nfree = [len(ts) for ts in terms]              # unassigned terms per form
    pending = [None] * len(terms)                  # (x, a, lc) while nfree is 1
    forms_by_unknown = [[] for _ in range(n)]
    for fi, ts in enumerate(terms):
        for u, _ in ts:
            forms_by_unknown[u].append(fi)
    domains = [(1 << q1) - 1] * n

    bans = _Bans(lines, q1)

    def count(fis, i, touched, grown):
        """Add to their groups the labels of the forms in fis, each with
        g^i put in for its one free unknown, logging each change in
        touched and each group whose mask grew in grown; False when a cap
        breaks.  The value is nonzero: i's domain excludes each form's
        root."""
        for fi in fis:
            _, a, lc = pending[fi]
            lg = lc + lines[a + i]
            for gi, k in weighted[fi]:
                cls, cnt, mask = lg % mods[gi], counts[gi], closed[gi]
                now = cnt[cls] + k
                if now > caps[gi]:
                    return False
                new = mask | ebits[gi][cls] if now == caps[gi] else mask
                if orbits[gi] > 1:
                    ec, ecnt = lg % widths[gi], ecounts[gi]
                    if mask >> ec & 1:
                        return False
                    if not ecnt[ec]:
                        used = occupied[gi] = occupied[gi] | 1 << ec
                        if (used & ebits[gi][cls]).bit_count() == mults[gi]:
                            new |= ebits[gi][cls] & ~used     # the empty e-classes close
                    ecnt[ec] += k
                cnt[cls] = now
                touched.append((gi, lg, k, mask))
                if new != mask:
                    closed[gi] = new
                    grown.append(gi)
        return True

    def uncount(touched):
        for gi, lg, k, mask in reversed(touched):
            cls = lg % mods[gi]
            counts[gi][cls] -= k
            if orbits[gi] > 1:
                ecnt, ec = ecounts[gi], lg % widths[gi]
                ecnt[ec] -= k
                if not ecnt[ec]:
                    occupied[gi] &= ~(1 << ec)
            closed[gi] = mask

    def prune(fis, grown, saved):
        """Narrow the free unknown of each form in fis left with one, and
        of each form with one in a group of grown; False when a domain
        empties."""
        for fi in fis:
            if nfree[fi] != 1:
                continue
            lc = clogs[fi]                          # log c, -1 while c = 0
            for w, ls in terms[fi]:
                if not assigned[w]:
                    x, lx = w, ls
                elif lc < 0:
                    lc = (ls + assign[w]) % q1
                else:                               # c += s*w: one Zech step
                    z = zech[(ls + assign[w] - lc) % q1]
                    lc = (lc + z) % q1 if z >= 0 else -1
            a, lc = ((lx - lc) % q1, lc) if lc >= 0 else (2 * q1, lx)
            pending[fi] = x, a, lc
            # each group's bits hold the root; a form in no group needs it alone
            ban = 0 if weighted[fi] else bans[a, lc, 1, 0]
            for gi, _ in weighted[fi]:
                ban |= bans[a, lc, widths[gi], closed[gi]]
            dom = domains[x]
            if dom & ban:
                saved.append((x, dom))
                domains[x] = dom = dom & ~ban
                if not dom:
                    return False
        for gi in dict.fromkeys(grown):
            width, mask = widths[gi], closed[gi]
            for fi in group_forms[gi]:
                if nfree[fi] != 1:
                    continue
                x, a, lc = pending[fi]
                ban = bans[a, lc, width, mask]
                dom = domains[x]
                if dom & ban:
                    saved.append((x, dom))
                    domains[x] = dom = dom & ~ban
                    if not dom:
                        return False
        return True

    def undo(token):
        u, touched, saved = token
        for x, old in reversed(saved):
            domains[x] = old
        uncount(touched)
        for fi in forms_by_unknown[u]:
            nfree[fi] += 1
        assigned[u] = False

    def enter(u):
        """The forms u completes: the same for every value of u."""
        return [fi for fi in forms_by_unknown[u] if nfree[fi] == 1]

    def do_assign(u, i, fis):
        """Place u = g^i; returns an undo token, or None on contradiction.
        The forms u completes, fis, are counted first; only when their
        labels fit does the placement touch free counts and domains."""
        touched, grown = [], []
        mine = forms_by_unknown[u]
        if not count(fis, i, touched, grown):
            uncount(touched)
            return None
        assign[u] = i
        assigned[u] = True
        for fi in mine:
            nfree[fi] -= 1
        saved = []
        if prune(mine, grown, saved):
            return u, touched, saved
        undo((u, touched, saved))
        return None

    def complete():
        return all(c == cap for cnt, cap in zip(counts, caps) for c in cnt) and \
            all(c % o == 0 for ecnt, o in zip(ecounts, orbits) if o > 1 for c in ecnt)

    root = 1 if all(lc < 0 for lc in clogs) else None    # bit 0 is g^0 = 1

    dfs = lambda depth, budget, stop=-1, visit=None: _backtrack(
        n, domains, assigned, enter, do_assign, undo, complete, budget, depth, stop, visit, root)

    fixed = [fi for fi, ts in enumerate(terms) if not ts]
    for fi in fixed:
        pending[fi] = None, 2 * q1, clogs[fi]       # counted at i = 0: the label log c
    feasible = all(clogs[fi] >= 0 for fi in fixed) and count(fixed, 0, [], []) \
        and prune(range(len(terms)), [], [])
    return SimpleNamespace(n=n, feasible=feasible, dfs=dfs,
                           solution=lambda: [exp[i] for i in assign])


def _cluster_shape(system: ConstraintSystem, form_groups: list[list[int]],
                   cluster: list[int]) -> tuple[tuple, list[int]]:
    """(key, inner forms) of a cluster, the key holding everything that
    _enumerate_cluster reads of it: its size; its inner forms in form-index
    order as (local terms, const); and per inner form its groups, renamed
    by first appearance, with modulus, multiplicity, orbit, whether the
    group straddles and its count of inner forms.  Clusters with equal
    keys enumerate to the same witnesses and signatures, with the cross
    forms at the same places among their inner forms."""
    pos = {u: i for i, u in enumerate(cluster)}
    inner = [fi for fi, f in enumerate(system.forms) if all(u in pos for u, _ in f.terms)]
    inside, names = set(inner), {}
    forms, groups = [], []
    for fi in inner:
        f = system.forms[fi]
        forms.append((tuple((pos[u], c) for u, c in f.terms), f.const))
        row = []
        for gi in form_groups[fi]:
            g = system.groups[gi]
            ins = sum(x in inside for x in g.forms)
            row.append((names.setdefault(gi, len(names)), g.modulus, g.multiplicity, g.orbit,
                        ins < len(g.forms), ins))
        groups.append(tuple(row))
    return (len(cluster), tuple(forms), tuple(groups)), inner


def _solve_one(system: ConstraintSystem, bud: _Budget) -> SolveResult:
    form_groups: list[list[int]] = [[] for _ in system.forms]
    for gi, g in enumerate(system.groups):
        for fi in g.forms:
            form_groups[fi].append(gi)
    clusters, search = _clusters_of(system), None
    if len(clusters) > 1:
        # one enumeration per cluster shape: its arrays are shared read-only,
        # its cross forms placed among each cluster's own inner forms
        shapes: dict[tuple, tuple] = {}
        domains = []
        for cl in clusters:
            key, inner = _cluster_shape(system, form_groups, cl)
            if key not in shapes:
                dom = _enumerate_cluster(system, form_groups, cl)
                if dom is None:
                    break
                wit, sig, cross = dom
                wit.flags.writeable = sig.flags.writeable = False
                shapes[key] = wit, sig, [inner.index(fi) for fi in cross]
            wit, sig, at = shapes[key]
            domains.append((wit, sig, [inner[j] for j in at]))
        else:
            search = _fc_over_clusters(system, form_groups, clusters, domains)
    from ._split import split_search          # compiled only when a search runs
    return split_search(search or _direct_search(system, form_groups), bud)


def solve(system: ConstraintSystem, seed: int = 0, budget: int = 10**8) -> SolveResult:
    """Find nonzero field values for all unknowns meeting every requirement.

    Deterministic: the search order does not depend on `seed`, which is
    accepted for interface stability only, so every seed returns the same
    assignment and node count.  The restriction the system carries, if any,
    is searched first (it carries the pattern structure of the underlying
    constructions); the unrestricted space follows, and the assignment
    names every unknown of the system passed in.  "exhausted"
    is only reported when a complete space was fully explored; budget
    exhaustion is status-coded, never an exception.  Every satisfying
    assignment is re-verified against the whole system, and against the
    lifting conditions when the system can assemble a lifting datum.

    A search that runs past 1,000 nodes, over clusters or unknowns, forks a
    helper process, where this process may run on two CPUs or more: a
    copy of the search in the middle of its walk, which searches the
    subtrees it claims first beside the caller; it is gone when solve
    returns or raises.  The status, assignment and node count are those of one
    process walking the tree, whatever the number of CPUs.  A negative
    budget raises ValueError, and so does a group whose orbit does not
    divide q - 1 or whose modulus does not divide e = (q-1)/orbit.
    """
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
    q1 = system.field.q - 1
    bad = [gi for gi, g in enumerate(system.groups) if q1 % g.orbit or q1 // g.orbit % g.modulus]
    if bad:
        raise ValueError(f"group {bad[0]}: need orbit | q-1 and modulus | (q-1)/orbit")
    for g in system.groups:
        if len(g.forms) != g.modulus * g.multiplicity * g.orbit:
            return SolveResult("exhausted")     # each form gives one label: no exact cover
    bud = _Budget(budget)
    scale = _field_logs(system.field).scale
    for sub, signs in ([system.restricted] if system.restricted else []) + [(system, None)]:
        res = _solve_one(sub, bud)
        if res.status == "sat":
            values = [res.assignment[u] for u in range(len(sub.unknowns))]
            full = values if signs is None else [scale(s, values[r]) for r, s in signs]
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
    return SolveResult(res.status, nodes=bud.nodes)


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
    fl, e = _field_logs(data.field), data.e
    block_ids = sorted({i for i, _ in suspects})
    pattern = {i: {a for j, a in suspects if j == i} for i in block_ids}
    links: dict[int, tuple[int, int]] = {}
    for pos, j in enumerate(block_ids):
        for i in block_ids[:pos]:
            if i in links or data.sdf.blocks[i] != data.sdf.blocks[j] \
                    or pattern[i] != pattern[j]:
                continue
            pairs = list(zip(data.phi[i], data.phi[j]))
            ratios = {(fl.log[vb] - fl.log[va]) % fl.q1 for va, vb in pairs if va}
            if len(ratios) == 1 and all((va == 0) == (vb == 0) for va, vb in pairs) \
                    and min(ratios) % e == 0:
                links[j] = (i, fl.exp[min(ratios)])
                break
    return links


def _repair_system(data: LiftingData, suspects: set) -> ConstraintSystem:
    """The lifting conditions of `data` as a constraint system: the unknowns
    are the suspect positions of leader blocks, every other value enters
    as a constant, and a scaled copy (see _detect_scalings) is a link to
    its leader.  The groups are check_lifting_conditions' slots and parts,
    with modulus d and orbit (q-1)/e.  A slot or part of constants that
    fails, or a zero entry that is not a suspect, violates the repair's
    precondition; ValueError names the slot, part or entries.
    """
    links = _detect_scalings(data, suspects)
    leads = [pos for pos in sorted(suspects) if pos[0] not in links]
    index = {pos: u for u, pos in enumerate(leads)}
    rows = {i: tuple((index[i, a], 1) if (i, a) in index else v for a, v in enumerate(row))
            for i, row in enumerate(data.phi) if i not in links}
    system = _lifting_system(data.sdf, data.field, data.e, data.d, data.lam,
                             [f"phi_{i}_{a}" for i, a in leads], rows, data.partition,
                             links=links, provenance=data.provenance)
    stray = [pos for pos in data.zero_positions() if pos not in suspects]
    if stray:
        raise ValueError(f"precondition violated: zero entries at {stray} are not suspects")
    return system


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
    search spends its node budget first; a negative budget raises
    ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
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
