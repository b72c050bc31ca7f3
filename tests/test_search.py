import functools
import gc
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal, getcontext, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedf import _split, catalog, search
from framedf.families import SDF, DesignFamily, verify_fdf
from framedf.fields import field_of_order, make_field
from framedf.groups import AbelianGroup
from framedf.lifting import LiftingData, check_lifting_conditions, lift_sdf
from framedf.search import (ConstraintSystem, Form, RepairBudgetExceeded, RepairError,
                            SolveResult, UniformityGroup, _clusters_of,
                            _repair_system, generic_system, paired_pattern_system,
                            q_bound, q_bound_bracket, repair_block, solve, z125_system)


def _paley3(p, q):
    """The paired system of the third-type Paley family over F_p at q."""
    return paired_pattern_system(catalog.family("paley3", p), q)


def sig6(x: Decimal) -> str:
    return f"{x:.5E}"


@pytest.mark.parametrize("d,m,printed", [
    (3, 7, "6.43306E+7"),
    (6, 6, "3.4829E+10"),
    (12, 12, "7.94968E+27"),
    (6, 11, "8.77844E+18"),
])
def test_q_bound_printed_values(d, m, printed):
    val = q_bound(d, m)
    mant, expo = printed.split("E+")
    digits = len(mant.replace(".", ""))
    assert f"%.{digits - 1}E" % val == f"{mant}E+{int(expo):02d}"


def test_q_bound_leaves_decimal_context_alone():
    with localcontext() as ctx:
        ctx.prec = 28
        val = q_bound(12, 12)
        assert getcontext().prec == 28
    assert sig6(val) == "7.94968E+27"


def test_q_bound_within_exact_bracket():
    for d in range(1, 17):
        for m in range(1, 17):
            lo, hi = q_bound_bracket(d, m)
            val = q_bound(d, m)
            assert Decimal(lo.numerator) / lo.denominator <= val
            assert val <= Decimal(hi.numerator) / hi.denominator


def test_generic_system_shape_z7():
    sysm = generic_system(catalog.family("z7_8_8"), 89, 88, 8, 1)
    assert len(sysm.unknowns) == 8
    assert len(sysm.groups) == 8        # 7 difference slots + 1 element group
    halved = [g for g in sysm.groups if g.modulus == 4]
    assert len(halved) == 1 and len(halved[0].forms) == 4


def test_generic_system_shape_z125():
    sysm = generic_system(catalog.family("z125_6_6"), 67, 66, 6, 1)
    assert len(sysm.unknowns) == 150
    assert len(sysm.groups) == 125 + 25


def test_generic_system_congruence_guard():
    with pytest.raises(ValueError):
        generic_system(catalog.family("z7_8_8"), 97, 96, 8, 1)   # 97 != 9 (mod 16)


def test_generic_system_refuses_a_d_not_dividing_q_minus_1():
    # even lambda skips the congruence guard; d = 6 does not divide 10
    with pytest.raises(ValueError, match=r"^need d \| q-1: d = 6, q = 11$"):
        generic_system(catalog.family("paley3", 5), 11, 10, 6, 2)


def test_generic_system_refuses_e_other_than_q_minus_1():
    with pytest.raises(ValueError, match=r"^the symbolic system requires e = q - 1$"):
        generic_system(catalog.family("z7_8_8"), 89, 44, 8, 1)


def test_generic_solve_z7_at_89():
    sysm = generic_system(catalog.family("z7_8_8"), 89, 88, 8, 1)
    res = solve(sysm, seed=0, budget=3_000_000)
    assert (res.status, res.nodes, _digest(res.assignment)) == (
        "sat", 249_889, "c2506c3653ab0cc5f292f125271d9bcb87c9078026f7c39a023f53a659698e5e")
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    assert check_lifting_conditions(data).ok
    assert verify_fdf(lift_sdf(data)).ok


def test_z7_at_3001_solves_in_memory_linear_in_q():
    """The search's field arithmetic takes O(q) memory: z7@3001 builds and
    solves with a traced peak far below the 844 MB max RSS that its q x q
    addition and multiplication tables took."""
    tracemalloc.start()
    try:
        sysm = generic_system(catalog.family("z7_8_8"), 3001, 3000, 8, 1)
        res = solve(sysm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.nodes) == ("sat", 12)
    assert peak < 150 * 2**20, peak


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 89])
def test_zech_arithmetic_matches_the_field_on_every_pair(q):
    """The search's arithmetic on discrete logs against FiniteField: sums
    through Zech logarithms and prime-subfield scalings on every pair, and
    the label lc + lines[a + i] that the direct search reads for s*x + c at
    x = g^i, with (a, lc) as _direct_search sets them, for every nonzero s
    in the prime subfield, every c and every i.  1 + g^t vanishes at t = 0 in
    characteristic 2, else at t = (q-1)/2."""
    fld = field_of_order(q)
    fl, q1, p = search._field_logs(fld), q - 1, fld.p
    enc = np.arange(q)
    assert fl.zech.count(-1) == 1 and fl.zech.index(-1) == (0 if p == 2 else q1 // 2)
    assert [[fl.add(a, b) for b in range(q)] for a in range(q)] == \
        fld.add(enc[:, None], enc[None, :]).tolist()
    for c in range(-p, 2 * p):
        assert [fl.scale(c, x) for x in range(q)] == fld.mul(c % p, enc).tolist()
    lines, log = np.array(fl.lines), np.array(fl.log)
    for s in range(1, p):
        products = fld.mul(s, np.array(fl.exp))          # s * g^i, i = 0..q-2
        for c in range(q):
            ls, lc = fl.log[s], fl.log[c]
            a, lc = ((ls - lc) % q1, lc) if lc >= 0 else (2 * q1, ls)
            want, t = fld.add(products, c), lines[a:a + q1]
            nonzero = want != 0
            assert np.array_equal(t >= 0, nonzero)
            assert np.array_equal((lc + t[nonzero]) % q1, log[want[nonzero]])
            assert (lc + t < 2 * q1).all()


def test_paired_pattern_shapes():
    sysm = paired_pattern_system(catalog.family("paley2", 7), 113)
    assert len(sysm.unknowns) == 4 and {g.modulus for g in sysm.groups} == {4}
    tw = paired_pattern_system(catalog.family("twinPrime", 3), 17)
    assert len(tw.unknowns) == 8 and {g.modulus for g in tw.groups} == {8}
    for m in (3, 4, 5):
        s = paired_pattern_system(catalog.family("singer", 2, m), _first_q(2 ** m))
        assert len(s.unknowns) == 2 ** (m - 1)


def _first_q(mod):
    from framedf.fields import is_prime
    q = mod + 1
    while not is_prime(q):
        q += mod
    return q


def test_paired_solve_small():
    sysm = paired_pattern_system(catalog.family("paley2", 7), 113)
    res = solve(sysm, seed=0)
    assert res.status == "sat"
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    assert check_lifting_conditions(data).ok
    fdf = lift_sdf(data)
    assert verify_fdf(fdf).ok
    assert fdf.group.order == 7 * 113


def test_paley3_structure_and_solve():
    sysm = _paley3(5, 61)
    assert len(sysm.unknowns) == 6 and {g.modulus for g in sysm.groups} == {6}
    sdf = solve(sysm, seed=0)
    assert sdf.status == "sat"
    data = sysm.lifting_builder([sdf.assignment[u] for u in sysm.unknowns])
    # the catalog's sorted blocks: {0} + squares and {0} + nonsquares of F_5,
    # each value doubled
    b1, b2 = data.sdf.blocks
    assert b1 == (0, 0, 1, 1, 4, 4)
    assert b2 == (0, 0, 2, 2, 3, 3)
    assert verify_fdf(lift_sdf(data)).ok
    assert len(_paley3(13, 337).unknowns) == 14


def test_paley3_congruence_guards():
    with pytest.raises(ValueError, match=r"need q = 1 \(mod 2d\): d = 6, q = 38"):
        _paley3(5, 37 + 1)


def test_a_ragged_family_is_refused_naming_its_first_odd_block():
    """_sign_pairs numbers the block positions by block 0's size, so a
    family whose blocks differ in size is refused, naming the first block
    that differs, by both systems that read the sign pairs."""
    sdf = DesignFamily(SDF, AbelianGroup.cyclic(7), 4, ((0, 0, 1, 1), (2, 2, 3, 3, 4, 4)))
    with pytest.raises(ValueError, match=r"^block 1 has 6 entries, block 0 has 4$"):
        paired_pattern_system(sdf, 41)
    with pytest.raises(ValueError, match=r"^block 1 has 6 entries, block 0 has 4$"):
        generic_system(sdf, 41, 40, 5, 1)


def test_paired_pattern_solves_paley3_3_and_lifts():
    sysm = _paley3(3, 17)
    res = solve(sysm)
    assert (res.status, res.nodes) == ("sat", 4)
    fdf = lift_sdf(sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns]))
    assert verify_fdf(fdf).ok and fdf.group.order == 3 * 17


def test_z125_system_statics():
    sysm = z125_system(67)
    assert len(sysm.unknowns) == 51
    mod3 = [g for g in sysm.groups if g.modulus == 3]
    mod6 = [g for g in sysm.groups if g.modulus == 6]
    assert len(mod3) == 63
    assert len(mod6) == 13
    assert all(len(g.forms) == 3 for g in mod3)
    assert all(len(g.forms) == 6 for g in mod6)


def test_z125_system_d33_and_hints():
    sysm = z125_system(67)
    names = {f.name: i for i, f in enumerate(sysm.forms)}
    # slot group for the pair {33, 92} holds exactly the printed expressions
    target = {"y_10_2-y_10_1", "y_18_3+y_18_1", "y_18_4-y_18_3"}
    found = [g for g in sysm.groups if g.modulus == 3 and
             {sysm.forms[fi].name for fi in g.forms} == target]
    assert len(found) == 1
    assert sysm.hints[names["y_10_2-y_10_1"]] == 1
    assert sysm.hints[names["2y_2_1"]] == 1     # g(2 y_{2,1}) for the first column


def test_z125_conditions_per_unknown():
    """The count of slot-table expressions per unknown follows the published
    accounting: 7 for the inner pair, 5 for the outer pair (plus their row
    membership), 5 for the unpaired block."""
    sysm = z125_system(67)
    mod3_forms = {fi for g in sysm.groups if g.modulus == 3 for fi in g.forms}
    per_unknown = {u: 0 for u in range(len(sysm.unknowns))}
    for fi in mod3_forms:
        for u, _ in sysm.forms[fi].terms:
            per_unknown[u] += 1
    name = {u: sysm.unknowns[u] for u in per_unknown}
    for u, cnt in per_unknown.items():
        nm = name[u]
        _, blk, pos = nm.split("_")
        if blk == "1":
            assert cnt == 5, nm
        elif pos in ("1", "2"):
            assert cnt == 7, nm
        else:
            assert cnt == 5, nm     # membership in the row group is the sixth
    # outer-pair unknowns really do carry the row-membership constraint
    mod6_forms = {fi for g in sysm.groups if g.modulus == 6 for fi in g.forms}
    for u, nm in name.items():
        if nm.split("_")[2] in ("3", "4"):
            assert any(u in [t[0] for t in sysm.forms[fi].terms] for fi in mod6_forms)


def test_type_iv_expressions_sit_in_two_slots():
    sysm = z125_system(67)
    names = {i: f.name for i, f in enumerate(sysm.forms)}
    mod3 = [g for g in sysm.groups if g.modulus == 3]
    membership = {}
    for g in mod3:
        for fi in g.forms:
            membership.setdefault(fi, 0)
            membership[fi] += 1
    twice = sorted(names[fi] for fi, c in membership.items() if c == 2)
    assert len(twice) == 24
    # every doubled expression is an inner-pair one: y_{2i,2} +- y_{2i,1}
    for nm in twice:
        lhs, rhs = nm.replace("+", " ").replace("-", " ").split()
        assert lhs.endswith("_2") and rhs.endswith("_1")


def test_z125_accepts_printed_solution_and_solves_fresh():
    assert check_lifting_conditions(catalog.lifting_datum("fdf_z125xF67")).ok
    res = solve(z125_system(79), seed=0)
    assert (res.status, res.nodes, _digest(res.assignment)) == _Z125_79_PIN


def test_solver_determinism():
    s1 = solve(paired_pattern_system(catalog.family("twinPrime", 3), 17), seed=5)
    s2 = solve(paired_pattern_system(catalog.family("twinPrime", 3), 17), seed=5)
    assert s1.status == "sat" and s1.assignment == s2.assignment


@pytest.mark.parametrize("make,clusters", [
    (lambda: _paley3(5, 61), 2),                                             # cluster path
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 17), 1),  # _direct_search
    (lambda: generic_system(catalog.family("z7_8_8"), 41, 40, 8, 1), 1),     # _direct_search
])
def test_solve_does_not_depend_on_seed(make, clusters):
    assert len(_clusters_of(make())) == clusters
    r0, r7 = solve(make(), seed=0), solve(make(), seed=7)
    assert r0.status == "sat"
    assert (r0.assignment, r0.nodes) == (r7.assignment, r7.nodes)


def _digest(assignment):
    if assignment is None:
        return None
    return hashlib.sha256(json.dumps(assignment, sort_keys=True).encode()).hexdigest()


_WIDENED_PIN = ("sat", 212366,
                "5439d9ad9dca0538fdebda85f4b992cdf5ddb17d99e53fa69d045084e1f65578")
_Z125_79_PIN = ("sat", 464, "9f439c2b74340d5eab7c3b5208b4c467fa048d87b4129d42dd956befe75a0cae")
_Z125_67_PIN = ("sat", 861, "3096e343e12a54f3ff8d3d21522f2f13ba910b47e314dd73ba2ac73da9431c47")


@pytest.fixture(scope="module")
def z63_widened():
    """repair_block on the z63 datum's zero entries, run once for the tests
    that need it: (the datum, the repaired datum, the SolveResult of its
    widened system).  That system is _z63_repair(True)."""
    data = catalog.lifting_datum("fdf_z63xF25")
    solved = []

    def recording(system, *args, **kwargs):
        solved.append((system, real(system, *args, **kwargs)))
        return solved[-1][1]

    real = search.solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "solve", recording)
        fixed = repair_block(data, data.zero_positions())
    system, res = solved[-1]
    assert _system_digest(system) == _system_digest(_z63_repair(True))
    return data, fixed, res


# (status, nodes, assignment digest) as the numpy-based solver returned them,
# and (from generic:paley3_5@7 on) as the solver before the two-stage
# placement in _direct_search returned them; any change of search order shows
# up here
@pytest.mark.parametrize("make,pinned", [
    (lambda: generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1),
     ("exhausted", 8777, None)),
    (lambda: generic_system(catalog.family("z7_8_8"), 73, 72, 8, 1),
     ("sat", 47, "9594c85623800ee5dd12ff6ac6a6602a56b8d1b8999cc52aa18be5a55fbdab44")),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 17),
     ("sat", 346, "5c9cde680073df6873022fc80741298f75296723a8b295728bad37bd78c3085f")),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 49),
     ("exhausted", 44563, None)),
    (lambda: _paley3(5, 61),
     ("sat", 17, "ac25706f4a1f37c3de94cf3eac0040a167e4cc15682667bf5296a0b268890991")),
    (lambda: generic_system(catalog.family("paley3", 5), 7, 6, 6, 2),
     ("sat", 6, "11759f76e11ae9abc6a900e3403195002c61251fc80dafb6aaf0364a3f49e331")),
    (lambda: generic_system(catalog.family("z125_6_6"), 67, 66, 6, 1),
     ("sat", 306, "ed385415b0878bf888855618da408ade914a6bbcafca30ec2bf3d4d34f6e5460")),
    (lambda: paired_pattern_system(catalog.family("paley2", 7), 113),
     ("sat", 24, "78f7a385064e21542ec01e0b696f464f515f8b38c22563df8208583fb40f548d")),
    (lambda: _z63_repair(False), ("exhausted", 0, None)),
    (None, _WIDENED_PIN),                 # solved once, by the z63_widened fixture
    (lambda: _z7_blank(),
     ("sat", 3, "a04a9bd573fdb2a206deda1e3b2dbb46f98a231d1776310c68eb137ece269a77")),
], ids=["z7@25", "z7@73", "twinPrime3@17", "twinPrime3@49", "paley3_5@61",
        "generic:paley3_5@7", "generic:z125@67", "paired:paley2_7@113",
        "repair:z63_narrow", "repair:z63_widened", "repair:z7_blank"])
def test_search_order_is_pinned(make, pinned, request):
    res = request.getfixturevalue("z63_widened")[2] if make is None else solve(make(), seed=0)
    assert (res.status, res.nodes, _digest(res.assignment)) == pinned


# The sign-paired restriction of a generic system searched alone: (status,
# nodes, digest of the assignment expanded to the full unknowns), recorded
# when the restriction was the full system with the followers substituted.
# Left out to keep the suite fast: z125_6_6@79, sat at 16,565 nodes with
# digest d2404fd3f4e5438560e36f2f71508036fe93fee32b21e8fd16d5ac9b36c93906.
_RESTRICTED_PINS = {
    (("z7_8_8",), 9, 8, 1): ("exhausted", 7, None),
    (("z7_8_8",), 25, 8, 1): ("exhausted", 39, None),
    (("z7_8_8",), 41, 8, 1):
        ("sat", 27, "4efc38c45ebe92dd24a6aa91f13a4f4bf7afd7207952c90c81ce70ca0cab1d6a"),
    (("z7_8_8",), 73, 8, 1):
        ("sat", 47, "9594c85623800ee5dd12ff6ac6a6602a56b8d1b8999cc52aa18be5a55fbdab44"),
    (("z7_8_8",), 89, 8, 1): ("exhausted", 1531, None),
    (("z7_8_8",), 121, 8, 1):
        ("sat", 6, "bc8a696ba04c00ce2dc63316d4b351724e9885fa5cb87fcde6d7815af43287cb"),
    (("z7_8_8",), 137, 8, 1):
        ("sat", 89, "6297da96c238c17eb3fe3cdf448dfc60fe6756c38a1d5e03881a92a398169bdc"),
    (("z7_8_8",), 169, 8, 1):
        ("sat", 238, "1820bd74d67e8daf3c9af1b6883e4fd91f61df44b6fbdf666efc57a266e41a7c"),
    (("paley3", 5), 7, 6, 2):
        ("sat", 6, "11759f76e11ae9abc6a900e3403195002c61251fc80dafb6aaf0364a3f49e331"),
    (("z125_6_6",), 67, 6, 1):
        ("sat", 306, "ed385415b0878bf888855618da408ade914a6bbcafca30ec2bf3d4d34f6e5460"),
    (("paley2", 11), 13, 12, 1): ("exhausted", 187, None),
    (("twinPrime", 3), 49, 16, 1): ("exhausted", 44563, None),
}


def _expand(sysm, values):
    """The full unknowns' values of the restricted assignment `values`."""
    return [values[r] if s > 0 else int(sysm.field.neg(values[r]))
            for r, s in sysm.restricted[1]]


def _case_id(case):
    return "_".join(map(str, case[0])) + f"@{case[1]}"


@functools.lru_cache(maxsize=None)
def _restricted_phase(case):
    """(the generic system of case = (catalog family args, q, d, lam), the
    solve of its restricted system alone, the restricted values found or
    None)."""
    fam, q, d, lam = case
    sysm = generic_system(catalog.family(*fam), q, q - 1, d, lam)
    sub = sysm.restricted[0]
    res = solve(sub)
    return sysm, res, res.assignment and [res.assignment[u] for u in sub.unknowns]


@pytest.mark.parametrize("case", _RESTRICTED_PINS, ids=_case_id)
def test_restricted_phase_is_pinned(case):
    sysm, res, values = _restricted_phase(case)
    named = values and dict(zip(sysm.unknowns, _expand(sysm, values)))
    assert (res.status, res.nodes, _digest(named)) == _RESTRICTED_PINS[case]


# z7@9 has characteristic 3, where 2y = -y
@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", [(("z7_8_8",), 9, 8, 1), (("z7_8_8",), 89, 8, 1),
                                  (("paley3", 5), 7, 6, 2), (("z125_6_6",), 67, 6, 1)],
                         ids=_case_id)
def test_restricted_system_accepts_what_the_full_one_accepts(case, data):
    """On leader values drawn at random, or a solution scaled by a common
    element (the groups are scaling invariant) with one value redrawn or
    not, the restricted system accepts exactly when the full system
    accepts the expanded values."""
    sysm, _, found = _restricted_phase(case)
    sub, q = sysm.restricted[0], sysm.field.q
    value = st.integers(0, q - 1)
    if found and data.draw(st.booleans()):
        c = data.draw(st.integers(1, q - 1))
        values = [int(sysm.field.mul(c, v)) for v in found]
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(value)
    else:
        values = data.draw(st.lists(value, min_size=len(sub.unknowns),
                                    max_size=len(sub.unknowns)))
    assert sub.check_assignment(values) == sysm.check_assignment(_expand(sysm, values))


def test_a_restriction_with_a_vanishing_form_gives_way_to_the_full_space():
    # (0, 0, 0) over the trivial group at q = 4: the sign-paired restriction
    # has the form 2y, zero in characteristic 2, so its search is exhausted
    # at 0 nodes and the full system is searched after it
    sdf = DesignFamily(SDF, AbelianGroup.cyclic(1), 6, ((0, 0, 0),), provenance="toy")
    sysm = generic_system(sdf, 4, 3, 3, 2)
    assert ((0, 2),) in [f.terms for f in sysm.restricted[0].forms]
    assert solve(sysm.restricted[0]) == SolveResult("exhausted", nodes=0)
    res = solve(sysm)
    assert (res.status, res.nodes) == ("sat", 3)
    assert sysm.check_assignment([res.assignment[u] for u in sysm.unknowns])


FORK_AFTER = _split.FORK_AFTER          # the default, which the helpers fixture lowers to 0


def _no_child_left():
    """True when this process has no child, reaping one that has exited."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# Either search with its helper forked at its first subtree must reproduce
# the one-process search node for node and leave no process behind
@pytest.fixture(params=[1], ids=["1helper"])
def helpers(request, monkeypatch):
    """The helpers forked while the test ran, by pid, with forking allowed
    whatever the number of CPUs (param 1) or not at all (param 0)."""
    forks, real = [], os.fork

    def counting():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    def overdue(*_):
        raise TimeoutError("a search with a helper ran for 300 s")

    monkeypatch.setattr(_split, "FORK_AFTER", 0)
    monkeypatch.setattr(_split, "can_fork", lambda: bool(request.param))
    monkeypatch.setattr(os, "fork", counting)
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(300)            # a lost result fails the test instead of hanging it
    try:
        yield forks
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert _no_child_left()


@pytest.mark.parametrize("make,pinned", [
    (lambda: generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1),
     ("exhausted", 8777, None)),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 49),
     ("exhausted", 44563, None)),
    (lambda: _z63_repair(True), _WIDENED_PIN),
    (lambda: z125_system(79), _Z125_79_PIN),
    (lambda: z125_system(67), _Z125_67_PIN),
], ids=["z7@25", "twinPrime3@49", "repair:z63_widened", "z125@79", "z125@67"])
def test_helpers_keep_the_pinned_search_order(helpers, make, pinned):
    res = solve(make(), seed=0)
    assert (res.status, res.nodes, _digest(res.assignment)) == pinned
    assert helpers


# Every claim succeeding is the worst case of a lost race: both processes
# search every subtree they reach, and each index must still merge once.
@pytest.mark.parametrize("make,pinned", [
    (lambda: generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1),
     ("exhausted", 8777, None)),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 49),
     ("exhausted", 44563, None)),
    (lambda: _z63_repair(True), _WIDENED_PIN),
    (lambda: z125_system(79), _Z125_79_PIN),
    (lambda: z125_system(67), _Z125_67_PIN),
], ids=["z7@25", "twinPrime3@49", "repair:z63_widened", "z125@79", "z125@67"])
def test_subtrees_searched_by_both_processes_merge_once(helpers, monkeypatch, tmp_path,
                                                        make, pinned):
    searched = _split.subtree

    def subtree(state, depth, room):        # one byte per subtree, in a file per process
        with open(tmp_path / str(os.getpid()), "ab") as f:
            f.write(b".")
        return searched(state, depth, room)

    def searched_by(pid):
        path = tmp_path / str(pid)
        return path.stat().st_size if path.exists() else 0

    monkeypatch.setattr(_split, "subtree", subtree)
    monkeypatch.setattr(_split, "can_fork", lambda: False)
    alone = solve(make(), seed=0)
    roots = searched_by(os.getpid())
    (tmp_path / str(os.getpid())).unlink()
    assert helpers == [] and (alone.status, alone.nodes, _digest(alone.assignment)) == pinned

    monkeypatch.setattr(_split, "can_fork", lambda: True)
    monkeypatch.setattr(_split, "claim", lambda shared, i: True)
    res = solve(make(), seed=0)
    assert (res.status, res.nodes, _digest(res.assignment)) == pinned
    # the caller searched every subtree it would search alone, and the
    # helpers (one per search: a reduction first, for z7@25) searched
    # some of them again
    assert searched_by(os.getpid()) == roots
    assert helpers and sum(map(searched_by, helpers)) > 0


def test_only_a_search_past_fork_after_forks(helpers, monkeypatch):
    # z7@25 spends 8,777 nodes, z7@73 47: below FORK_AFTER, a fork would
    # cost more than the search
    monkeypatch.setattr(_split, "FORK_AFTER", FORK_AFTER)
    assert solve(generic_system(catalog.family("z7_8_8"), 73, 72, 8, 1)).nodes == 47
    assert helpers == []
    assert solve(generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1)).nodes == 8777
    assert len(helpers) == 1


# A search with a budget returns what one process walking the tree returns
# (its pins in test_search_order_is_pinned: z7@25 exhausted at 8,777, z7@73
# sat at 47): the pinned result once the limit allows its nodes, else
# budget_exceeded at limit + 1.  At split depth 5, z7@25's walk spends
# nodes above the subtree roots after its last subtree (limits 8,774 and
# 8,775) and runs out of budget between two subtrees (56 and 57).
@pytest.mark.parametrize("helpers", [0, 1], ids=["0helpers", "1helper"], indirect=True)
@pytest.mark.parametrize("q,depth,limit", [
    *((q, None, limit) for q in (25, 73) for limit in (1, 50, 4000, 8776, 8777)),
    (73, None, 46), (73, None, 47),
    (25, 5, 56), (25, 5, 57), (25, 5, 8774), (25, 5, 8775), (25, 5, 8777)])
def test_helpers_stop_on_a_budget_where_one_process_stops(helpers, monkeypatch, request, q,
                                                          depth, limit):
    if depth is not None:
        monkeypatch.setattr(_split, "split_depth", lambda n: depth)
    pinned = {25: ("exhausted", 8777, None),
              73: ("sat", 47, "9594c85623800ee5dd12ff6ac6a6602a56b8d1b8999cc52aa18be5a55fbdab44")}[q]
    res = solve(generic_system(catalog.family("z7_8_8"), q, q - 1, 8, 1), budget=limit)
    expected = pinned if limit >= pinned[1] else ("budget_exceeded", limit + 1, None)
    assert (res.status, res.nodes, _digest(res.assignment)) == expected
    assert _no_child_left()
    # limit 1 stops the walk before its first subtree
    assert bool(helpers) == (request.node.callspec.params["helpers"] == 1 and limit > 1)


# A caller slowed down at each of its subtrees lets the helper run ahead:
# its results, deciding ones among them, arrive for subtrees the caller has
# not reached yet, and the caller still walks on to the first deciding one.
@pytest.mark.parametrize("q,limit", [(25, 50), (25, 4000), (25, 8776), (73, 10**8)])
def test_a_helper_ahead_of_the_caller_merges_in_order(helpers, monkeypatch, q, limit):
    caller, searched = os.getpid(), _split.subtree

    def subtree(state, depth, room):
        if os.getpid() == caller:
            time.sleep(0.002)
        return searched(state, depth, room)

    monkeypatch.setattr(_split, "subtree", subtree)
    pinned = {25: ("exhausted", 8777, None),
              73: ("sat", 47, "9594c85623800ee5dd12ff6ac6a6602a56b8d1b8999cc52aa18be5a55fbdab44")}[q]
    res = solve(generic_system(catalog.family("z7_8_8"), q, q - 1, 8, 1), budget=limit)
    expected = pinned if limit >= pinned[1] else ("budget_exceeded", limit + 1, None)
    assert (res.status, res.nodes, _digest(res.assignment)) == expected
    assert helpers


# The cluster path stops where _direct_search does: at limit + 1, or with the
# pinned result (z125@79 sat at 464, paley3_5@61 sat at 17) once the limit
# allows its nodes, with no helper (the ids without a suffix) and with one.
_CLUSTER_STOPS = [
    *((f"z125@79-{limit}", lambda: z125_system(79), limit, _Z125_79_PIN)
      for limit in (1, 10, 100, 463, 464)),
    *((f"paley3_5@61-{limit}", lambda: _paley3(5, 61), limit,
       ("sat", 17, "ac25706f4a1f37c3de94cf3eac0040a167e4cc15682667bf5296a0b268890991"))
      for limit in (16, 17))]


@pytest.mark.parametrize(
    "helpers,make,limit,pinned",
    [(n, *case) for n in (0, 1) for _, *case in _CLUSTER_STOPS],
    ids=[name + suffix for suffix in ("", "-1helper") for name, *_ in _CLUSTER_STOPS],
    indirect=["helpers"])
def test_cluster_search_stops_on_a_budget_at_limit_plus_one(helpers, request, make, limit,
                                                             pinned):
    sysm = make()
    assert len(_clusters_of(sysm)) > 1
    res = solve(sysm, budget=limit)
    expected = pinned if limit >= pinned[1] else ("budget_exceeded", limit + 1, None)
    assert (res.status, res.nodes, _digest(res.assignment)) == expected
    if limit >= pinned[1]:        # the walk reached a subtree root, where a helper forks
        assert bool(helpers) == (request.node.callspec.params["helpers"] == 1)


# 3-colouring by forward checking: a 3-colourable graph on which the search
# backtracks (13 nodes from the unrestricted root), and the wheel on a
# 5-cycle (an odd wheel is not 3-colourable)
_BACKTRACKS = ((0, 2), (0, 3), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5))
_WHEEL5 = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), *((5, v) for v in range(5)))


def _colouring(edges, n=6):
    """(domains, assigned, colour, enter, place, undo) of 3-colouring the
    graph: enter(u) gives u's neighbours, place(u, c, nbrs) takes colour c
    off each unassigned neighbour and returns None, leaving nothing behind,
    when one is left without a colour."""
    adj = [[v for e in edges for v in e if u in e and v != u] for u in range(n)]
    domains, assigned, colour = [0b111] * n, [False] * n, [None] * n

    def undo(token):
        u, saved = token
        for v, old in reversed(saved):
            domains[v] = old
        assigned[u], colour[u] = False, None

    def place(u, c, nbrs):
        assigned[u], colour[u] = True, c
        saved = []
        for v in nbrs:
            if not assigned[v] and domains[v] >> c & 1:
                saved.append((v, domains[v]))
                domains[v] &= ~(1 << c)
                if not domains[v]:
                    undo((u, saved))
                    return None
        return u, saved

    return domains, assigned, colour, adj.__getitem__, place, undo


def _plain_dfs(edges, root, n=6):
    """The same search as a plain recursion over colourings: (colouring or
    None, nodes)."""
    adj = [[v for e in edges for v in e if u in e and v != u] for u in range(n)]
    colour, nodes = [None] * n, 0

    def live(u):
        return [c for c in range(3) if all(colour[v] != c for v in adj[u])]

    def rec(depth):
        nonlocal nodes
        free = [u for u in range(n) if colour[u] is None]
        if not free:
            return True
        _, u = min((len(live(u)), u) for u in free)
        for c in live(u) if depth or root is None else [c for c in range(3) if root >> c & 1]:
            nodes += 1
            colour[u] = c
            if all(live(v) for v in adj[u] if colour[v] is None) and rec(depth + 1):
                return True
            colour[u] = None
        return False

    return (list(colour) if rec(0) else None), nodes


@pytest.mark.parametrize("edges,status", [(_BACKTRACKS, "sat"), (_WHEEL5, "exhausted")],
                         ids=["sat", "wheel5"])
@pytest.mark.parametrize("root", [None, 0b001, 0b110])
def test_backtrack_matches_a_plain_dfs_and_undoes_every_stop(edges, status, root):
    """_backtrack spends the nodes of a plain recursive DFS with the same
    rules and finds its first colouring; after exhausting the space, and
    after a budget stop at every limit below its node count, every domain
    and assigned flag is back where it started."""
    expected, nodes = _plain_dfs(edges, root)
    assert (expected is not None) == (status == "sat") and nodes > 6
    for limit in range(nodes + 1):
        domains, assigned, colour, enter, place, undo = _colouring(edges)
        budget = search._Budget(limit)
        found = search._backtrack(6, domains, assigned, enter, place, undo, lambda: True,
                                  budget, root=root)
        if limit < nodes:
            assert not found and budget.nodes == limit + 1
        else:
            assert found == (status == "sat") and budget.nodes == nodes
            if found:
                assert colour == expected and all(assigned)
                continue
        assert domains == [0b111] * 6 and assigned == [False] * 6 and colour == [None] * 6


def test_a_negative_budget_raises():
    with pytest.raises(ValueError, match="budget -1 is negative"):
        solve(_paley3(5, 61), budget=-1)
    data = catalog.lifting_datum("fdf_z63xF25")
    with pytest.raises(ValueError, match="budget -1 is negative"):
        repair_block(data, data.zero_positions(), budget=-1)


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_an_error_mid_search_leaves_no_helper_behind(helpers, monkeypatch, where):
    caller, calls, searched = os.getpid(), [], _split.subtree

    def subtree(state, depth, room):        # fails at the 5th subtree of `where`
        if (os.getpid() == caller) == (where == "caller"):
            calls.append(depth)
            if len(calls) == 5:
                raise KeyboardInterrupt if where == "caller" else RuntimeError("a broken helper")
        return searched(state, depth, room)

    monkeypatch.setattr(_split, "subtree", subtree)
    expected = pytest.raises(KeyboardInterrupt) if where == "caller" else \
        pytest.raises(RuntimeError, match=r"search helper \d+ exited")
    with expected:
        solve(paired_pattern_system(catalog.family("twinPrime", 3), 49))
    assert helpers and _no_child_left()


def test_no_helper_is_forked_beside_another_thread(helpers):
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait)
    waiting.start()
    try:
        res = solve(generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1))
    finally:
        stop.set()
        waiting.join(10)
    assert (res.status, res.nodes) == ("exhausted", 8777)
    assert helpers == [] and not waiting.is_alive()


def test_importing_framedf_loads_no_multiprocessing():
    # importing the package binds no layer; the search and the split search
    # load on first use, so importing the CLI pays for neither, and the split
    # search's helper is forked without multiprocessing
    code = ("import sys, framedf; "
            "print(len([m for m in sys.modules if m.startswith('framedf.')])); "
            "import framedf.cli; "
            "print(*(m in sys.modules for m in ('multiprocessing', 'framedf.search', "
            "'framedf._split'))); "
            "from framedf import _split, catalog, search; "
            "_split.FORK_AFTER = 0; _split.can_fork = lambda: True; "
            "res = search.solve(search.generic_system(catalog.family('z7_8_8'), 25, 24, 8, 1)); "
            "print(res.nodes, 'multiprocessing' in sys.modules)")
    src = str(Path(search.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src,
                                              PYTHONDONTWRITEBYTECODE="1"))
    assert out.stdout.split() == ["0", "False", "False", "False", "8777", "False"]


def _gf25_system(groups, n=4):
    """The first n of the unknowns y0..y3 over GF(25), with the forms among
    y0, -2*y0 + 6*y1, y2, 6*y2 - 2*y3 that use only those unknowns."""
    forms = (Form("y0", ((0, 1),)), Form("-2y0+6y1", ((0, -2), (1, 6))),
             Form("y2", ((2, 1),)), Form("6y2-2y3", ((2, 6), (3, -2))))
    return ConstraintSystem(make_field(5, 2), ("y0", "y1", "y2", "y3")[:n], forms[:n], groups)


def _reference_value(sysm, fi, values):
    """The form's value by the field's own arithmetic on encodings, each
    coefficient c taken as the constant polynomial c of GF(25)."""
    F = sysm.field
    acc = 0
    for u, c in sysm.forms[fi].terms:
        acc = F.add(acc, F.mul(F.encode((c,)), int(values[u])))
    return int(acc)


def test_gf25_coefficients_act_through_the_prime_subfield():
    # -2 and 6 are the GF(5) elements 3 and 1, not the GF(25) encodings
    # 23 and 6 (3 + 4x and 1 + x)
    sysm = _gf25_system(())
    for a in range(25):
        for b in range(25):
            vals = (a, b, a, b)
            for fi in range(4):
                assert sysm.eval_form(fi, vals) == _reference_value(sysm, fi, vals)
    # one cluster (_direct_search); two clusters, joined by a group or not
    # (cluster path)
    one = _gf25_system((UniformityGroup((0, 1), 2),), n=2)
    apart = _gf25_system((UniformityGroup((0, 1), 2), UniformityGroup((2, 3), 2)))
    joined = _gf25_system(apart.groups + (UniformityGroup((1, 3), 2),))
    assert [len(_clusters_of(s)) for s in (one, apart, joined)] == [1, 2, 2]
    for sysm in (one, apart, joined):
        res = solve(sysm)
        assert res.status == "sat"
        vals = [res.assignment[u] for u in sysm.unknowns]
        for g in sysm.groups:
            labels = sorted(sysm.field.dlog(_reference_value(sysm, fi, vals)) % 2
                            for fi in g.forms)
            assert labels == [0, 1]


def test_solver_exhausts_toy_unsat():
    fld = make_field(7)
    sysm = ConstraintSystem(
        fld, ("y",),
        (Form("y", ((0, 1),)), Form("y", ((0, 1),))),
        (UniformityGroup((0, 1), 2, 1),),
    )
    assert solve(sysm).status == "exhausted"


@pytest.mark.parametrize("modulus,orbit", [(4, 1), (2, 4), (4, 2)])
def test_solve_refuses_a_group_whose_classes_do_not_divide_q_minus_1(modulus, orbit):
    # the search reads labels mod each modulus and e = (q-1)/orbit, which is
    # sound only when they divide q - 1 = 6
    forms = tuple(Form(f"{c}y", ((0, c),)) for c in range(1, 7))
    group = UniformityGroup(tuple(i % 6 for i in range(modulus * orbit)), modulus, 1, orbit)
    sysm = ConstraintSystem(make_field(7), ("y",), forms, (group,))
    with pytest.raises(ValueError, match="^group 0: need orbit"):
        solve(sysm)


def test_constant_forms_are_counted_before_the_first_node():
    # two one-unknown clusters; constants send the system to _direct_search
    fld = make_field(7)
    forms = (Form("a", ((0, 1),)), Form("b", ((1, 1),)), Form("3", (), 3),
             Form("a-1", ((0, 1),), 6), Form("0", ()))
    sysm = ConstraintSystem(fld, ("a", "b"), forms[:4],
                            (UniformityGroup((0, 2), 2), UniformityGroup((1, 3), 2)))
    res = solve(sysm)
    assert res.status == "sat"
    assert sysm.check_assignment([res.assignment["a"], res.assignment["b"]])
    zero = ConstraintSystem(fld, ("a", "b"), forms,
                            sysm.groups + (UniformityGroup((4,), 1),))
    assert solve(zero) == SolveResult("exhausted", nodes=0)


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@st.composite
def _tiny_systems(draw):
    """2-4 unknowns over GF(q), q <= 13; 1- and 2-term forms, with and
    without constants, coefficients from -3..3 (some vanish mod p); groups
    of any orbit, multiplicity 1 or 2 and modulus dividing e, with forms
    listed more than once.  Half the groups are filled from the labels of
    a planted assignment (orbit copies of one e-class each), so that many
    systems are satisfiable."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13]))
    fld, q1, n = field_of_order(q), q - 1, draw(st.integers(2, 4))
    forms = []
    for i in range(draw(st.integers(1, 6))):
        us = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
        terms = tuple((u, draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))) for u in us)
        forms.append(Form(f"f{i}", terms, draw(st.integers(0, q1)) if draw(st.booleans()) else 0))
    sysm = ConstraintSystem(fld, tuple(f"y{u}" for u in range(n)), tuple(forms), ())
    planted = [draw(st.integers(1, q1)) for _ in range(n)]
    logs = [int(fld.dlog(v)) if v else None
            for v in (sysm.eval_form(fi, planted) for fi in range(len(forms)))]
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        orbit = draw(st.sampled_from(_divisors(q1)))
        e = q1 // orbit
        modulus, mult = draw(st.sampled_from(_divisors(e))), draw(st.integers(1, 2))
        size = modulus * mult * orbit
        if size > 8:
            continue
        members = []
        if draw(st.booleans()):
            for cls in range(modulus):
                ecs = sorted({lg % e for lg in logs if lg is not None and lg % modulus == cls})
                if len(ecs) < mult:
                    break
                for ec in draw(st.permutations(ecs))[:mult]:
                    fis = [fi for fi, lg in enumerate(logs) if lg is not None and lg % e == ec]
                    members += [draw(st.sampled_from(fis)) for _ in range(orbit)]
        if len(members) != size:
            members = draw(st.lists(st.integers(0, len(forms) - 1), min_size=size,
                                    max_size=size))
        groups.append(UniformityGroup(tuple(sorted(members)), modulus, mult, orbit))
    return replace(sysm, groups=tuple(groups))


@settings(max_examples=300, deadline=None)
@given(_tiny_systems())
def test_solve_agrees_with_brute_force(sysm):
    q, n = sysm.field.q, len(sysm.unknowns)
    found = any(sysm.check_assignment(a) for a in itertools.product(range(1, q), repeat=n))
    res = solve(sysm)
    assert res.status == ("sat" if found else "exhausted")
    if found:
        assert sysm.check_assignment([res.assignment[u] for u in sysm.unknowns])


@st.composite
def _cluster_systems(draw):
    """Systems that reach the cluster path: 2-3 clusters of one or two
    unknowns (at most 4 in all, and at most 2,401 assignments to scan),
    constant-free 1- and 2-term forms inside each cluster, coefficients
    from -3..3 (some vanish mod p); groups of multiplicity 1 and orbit 1,
    each of its own modulus m >= 2, forms listed more than once.  The first
    group straddles two clusters; the others are filled from the labels of
    a planted assignment (one form per class) or drawn at random."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3).filter(
        lambda s: sum(s) <= 4))
    n = sum(sizes)
    q = draw(st.sampled_from([q for q in (3, 4, 5, 7, 9, 11, 13) if (q - 1) ** n <= 2401]))
    fld = field_of_order(q)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    forms, owner, first = [], [], 0
    for ci, size in enumerate(sizes):
        us = list(range(first, first + size))
        first += size
        shapes = [us] if size == 2 else []          # keeps a pair of unknowns one cluster
        shapes += draw(st.lists(st.lists(st.sampled_from(us), min_size=1, max_size=2,
                                         unique=True), min_size=1, max_size=3))
        for terms in shapes:
            forms.append(Form(f"f{len(forms)}", tuple((u, draw(coeff)) for u in terms)))
            owner.append(ci)
    sysm = ConstraintSystem(fld, tuple(f"y{u}" for u in range(n)), tuple(forms), ())
    planted = [draw(st.integers(1, q - 1)) for _ in range(n)]
    logs = [int(fld.dlog(v)) if v else None
            for v in (sysm.eval_form(fi, planted) for fi in range(len(forms)))]
    modulus = st.sampled_from([d for d in _divisors(q - 1) if 2 <= d <= 4])
    pick = st.integers(0, len(forms) - 1)
    a = draw(st.sampled_from([fi for fi in range(len(forms)) if owner[fi] == 0]))
    b = draw(st.sampled_from([fi for fi in range(len(forms)) if owner[fi] == 1]))
    m = draw(modulus)
    groups = [UniformityGroup(tuple(sorted((a, b, *draw(st.lists(pick, min_size=m - 2,
                                                                 max_size=m - 2))))), m)]
    for _ in range(draw(st.integers(0, 3))):
        m, members = draw(modulus), []
        if draw(st.booleans()):
            for cls in range(m):
                fis = [fi for fi, lg in enumerate(logs) if lg is not None and lg % m == cls]
                if fis:
                    members.append(draw(st.sampled_from(fis)))
        if len(members) != m:
            members = draw(st.lists(pick, min_size=m, max_size=m))
        groups.append(UniformityGroup(tuple(sorted(members)), m))
    return replace(sysm, groups=tuple(groups))


def _mixed_cross_moduli(sysm):
    """True when some form lies in two groups of different moduli that each
    straddle clusters: the cluster path then gives way to _direct_search."""
    cluster_of = {u: ci for ci, cl in enumerate(_clusters_of(sysm)) for u in cl}
    straddle = [g for g in sysm.groups
                if len({cluster_of[sysm.forms[fi].terms[0][0]] for fi in g.forms}) > 1]
    return any(len({g.modulus for g in straddle if fi in g.forms}) > 1
               for fi in range(len(sysm.forms)))


@settings(max_examples=200, deadline=None)
@given(_cluster_systems(), st.data())
def test_cluster_search_agrees_with_brute_force(sysm, data):
    """The cluster path (enumeration, then _fc_over_clusters, or
    _direct_search when a cross form straddles groups of different moduli)
    against a full scan: the same status, a valid assignment when sat, and
    a budget below its node count stops at limit + 1."""
    q, n = sysm.field.q, len(sysm.unknowns)
    assert len(_clusters_of(sysm)) > 1
    found = any(sysm.check_assignment(a) for a in itertools.product(range(1, q), repeat=n))
    ran, real = [], search._fc_over_clusters

    def spy(*args):
        ran.append(True)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_fc_over_clusters", spy)
        res = solve(sysm)
    assert bool(ran) != _mixed_cross_moduli(sysm)
    assert res.status == ("sat" if found else "exhausted")
    if found:
        assert sysm.check_assignment([res.assignment[u] for u in sysm.unknowns])
    if res.nodes:
        limit = data.draw(st.integers(0, res.nodes - 1))
        assert solve(sysm, budget=limit) == SolveResult("budget_exceeded", nodes=limit + 1)


def test_a_cross_form_in_groups_of_two_moduli_leaves_the_cluster_path():
    # f0 straddles in a group mod 4 and one mod 2: no one label of f0 serves
    # both, so the system goes to _direct_search, which finds one of its 16
    # solutions
    forms = (Form("f0", ((0, -3), (1, -3))), *(Form(f"f{i}", ((0, -3),)) for i in (1, 2, 3)),
             Form("f4", ((2, -3), (3, -3))), Form("f5", ((2, -3),)))
    sysm = ConstraintSystem(field_of_order(5), ("y0", "y1", "y2", "y3"), forms,
                            (UniformityGroup((0, 1, 4, 5), 4), UniformityGroup((0, 5), 2)))
    assert len(_clusters_of(sysm)) == 2 and _mixed_cross_moduli(sysm)
    assert sum(map(sysm.check_assignment, itertools.product(range(1, 5), repeat=4))) == 16
    form_groups = [[gi for gi, g in enumerate(sysm.groups) if fi in g.forms]
                   for fi in range(len(forms))]
    assert search._enumerate_cluster(sysm, form_groups, [0, 1]) is None
    res = solve(sysm)
    assert res.status == "sat"
    assert sysm.check_assignment([res.assignment[u] for u in sysm.unknowns])


def test_repair_identity_and_blank_recovery():
    data = catalog.lifting_datum("fdf_z7xF89")
    assert repair_block(data, []) is data
    blanked = replace(data, phi=((0,) + data.phi[0][1:],))
    fixed = repair_block(blanked, [(0, 0)])
    assert check_lifting_conditions(fixed).ok


def test_repair_narrow_fails_then_widens(z63_widened):
    data, fixed, _ = z63_widened          # fixed = repair_block(data, zeros)
    zeros = data.zero_positions()
    with pytest.raises(RepairError):
        repair_block(data, zeros, widen=False)
    # the fixed values alone rule the narrow completion out
    assert solve(_repair_system(data, set(zeros))) == SolveResult("exhausted", nodes=0)
    rep = check_lifting_conditions(fixed)
    assert rep.ok
    assert _digest(fixed.phi) == "37ce4e21f5b5029e010c470ce34acd3a200784381c3f86a707d899503a2eb655"
    # the block with no suspects is untouched, as are the ingested tables
    assert fixed.phi[0] == data.phi[0]
    assert fixed.sdf is data.sdf and fixed.partition == data.partition
    assert verify_fdf(lift_sdf(fixed)).ok


def test_repair_budget_stop_is_not_a_proof(monkeypatch):
    # three blanked entries: the narrow attempt needs more than one node
    data = catalog.lifting_datum("fdf_z7xF89")
    blanked = replace(data, phi=((0, 0, 0) + data.phi[0][3:],))
    calls = []
    real = search.solve

    def counting(system, *args, **kwargs):
        calls.append(system)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(search, "solve", counting)
    with pytest.raises(RepairBudgetExceeded) as info:
        repair_block(blanked, blanked.zero_positions(), budget=1)
    assert not isinstance(info.value, RepairError)
    assert len(calls) == 1              # no widening after a budget stop


def test_repair_precondition_guard():
    data = catalog.lifting_datum("fdf_z63xF25")
    with pytest.raises(ValueError, match="slot|part") as info:
        repair_block(data, [(0, 0)])      # failures touch other positions too
    assert not isinstance(info.value, RepairError)


@pytest.mark.parametrize("stray", [(1, 0), (0, 8), (0, -1)])
def test_repair_rejects_suspects_outside_the_table(stray):
    data = catalog.lifting_datum("fdf_z7xF89")
    blanked = replace(data, phi=((0,) + data.phi[0][1:],))
    with pytest.raises(ValueError, match="suspects must be") as info:
        repair_block(blanked, [(0, 0), stray])
    assert not isinstance(info.value, RepairError)


# a zero entry outside the suspects breaks the precondition (ValueError,
# not RepairError); the all-zero z7_8_8 datum over GF(25) has no completion,
# and its narrow suspect set is already the whole block
_ZEROS25 = LiftingData(catalog.family("z7_8_8"), field_of_order(25), 24, 8, 1, ((0,) * 8,),
                       ((0,),))


@pytest.mark.parametrize("data,suspects,error,problem", [
    (replace(catalog.lifting_datum("fdf_z7xF89"),
             phi=((0,) + catalog.lifting_datum("fdf_z7xF89").phi[0][1:],)), [(0, 1)],
     ValueError, "precondition violated: zero entries at [(0, 0)] are not suspects"),
    (_ZEROS25, [(0, a) for a in range(8)], RepairError,
     "no completion exists even on the widened suspect set")],
    ids=["stray-zero", "widened"])
def test_repair_refusals(data, suspects, error, problem):
    with pytest.raises(ValueError) as info:
        repair_block(data, suspects)
    assert (type(info.value), str(info.value)) == (error, problem)


_VALID = {name: catalog.lifting_datum(name) for name in ("fdf_z119xF25", "fdf_z7xF89")}


@st.composite
def _scaled_data(draw):
    """A valid datum (orbit 4 or orbit 1) with random rows, or parts of
    rows, scaled by random nonzero elements, and random suspects (often
    whole scaled rows); also whether every scaling was of a whole row by
    an element of C_0^{e,q}."""
    data = _VALID[draw(st.sampled_from(sorted(_VALID)))]
    fld, k = data.field, data.k
    phi = [list(row) for row in data.phi]
    suspects = draw(st.sets(st.tuples(st.integers(0, len(phi) - 1), st.integers(0, k - 1)),
                            max_size=6))
    stays_valid = True
    for i in draw(st.sets(st.integers(0, len(phi) - 1), min_size=1, max_size=4)):
        if draw(st.booleans()):
            suspects |= {(i, a) for a in range(k)}
        if draw(st.booleans()):
            c = fld.pow_generator(data.e * draw(st.integers(0, (fld.q - 1) // data.e - 1)))
        else:
            c = draw(st.integers(1, fld.q - 1))
            stays_valid &= fld.dlog(c) % data.e == 0
        cols = range(k) if draw(st.booleans()) else \
            draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=k - 1))
        stays_valid &= len(cols) == k
        for a in cols:
            phi[i][a] = int(fld.mul(phi[i][a], c))
    return replace(data, phi=tuple(map(tuple, phi))), suspects, stays_valid


@settings(max_examples=60, deadline=None)
@given(_scaled_data())
def test_repair_system_agrees_with_lifting_conditions(case):
    data, suspects, stays_valid = case
    ok = check_lifting_conditions(data).ok
    assert ok or not stays_valid
    try:
        sysm = _repair_system(data, suspects)
    except ValueError:
        # a slot or part made of fixed values fails
        assert not ok
        return
    values = [data.phi[i][a] for i, a in
              (map(int, name.split("_")[1:]) for name in sysm.unknowns)]
    assembled = sysm.lifting_builder(values)
    assert assembled.phi == data.phi
    assert sysm.check_assignment(values) == check_lifting_conditions(assembled).ok


def test_z125_solves_at_67_too():
    sysm = z125_system(67)
    res = solve(sysm, seed=0)
    assert (res.status, res.nodes, _digest(res.assignment)) == _Z125_67_PIN
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    assert check_lifting_conditions(data).ok


def _form_groups(sysm):
    out = [[] for _ in sysm.forms]
    for gi, g in enumerate(sysm.groups):
        for fi in g.forms:
            out[fi].append(gi)
    return out


# digests of (witnesses as int64, signatures) with _FRONTIER_CAP = 12,000, as
# they were when the whole last frontier was built and deduplicated at once
@pytest.mark.parametrize("make,ci,pinned", [
    (lambda: z125_system(67), 1,
     "2da05cb2d07d00ac6031f4b04ce326af12305e91a11bc9067e936c26bc9fe3ca"),
    (lambda: _paley3(5, 61), 0,
     "e571cebe6cc6754e38e0a6abaca198b26913e491cd885a87dfe88732eb25b134"),
    (lambda: _paley3(5, 61), 1,
     "e571cebe6cc6754e38e0a6abaca198b26913e491cd885a87dfe88732eb25b134"),
], ids=["z125@67:y_2", "paley3_5@61:0", "paley3_5@61:1"])
def test_cluster_enumeration_is_chunk_invariant(monkeypatch, make, ci, pinned):
    """Each chunk of the last level keeps its first row per signature and
    the chunks are concatenated in row order, so the rows kept are the
    first per signature of the whole last frontier.  A cap of 12,000 rows
    splits the last level into 353 chunks for the z125@67 row cluster
    (63,888 rows placing the fourth unknown, 181 per chunk) and into 13 for
    each paley3 cluster (2,520 rows, 200 per chunk).  The signatures found
    never depend on the cap; the witnesses do where class-directed
    expansion orders each chunk's rows class by class (z125), and do not
    where expansion is row by row (paley3)."""
    sysm = make()
    fg, cl = _form_groups(sysm), _clusters_of(sysm)[ci]
    wit, sig, cross = search._enumerate_cluster(sysm, fg, cl)
    monkeypatch.setattr(search, "_FRONTIER_CAP", 12_000)
    wit2, sig2, cross2 = search._enumerate_cluster(sysm, fg, cl)
    assert len(wit) > 1 and cross2 == cross
    assert np.array_equal(np.unique(sig2, axis=0), np.unique(sig, axis=0))
    assert hashlib.sha256(wit2.astype(np.int64).tobytes() + sig2.tobytes()).hexdigest() == pinned


# digests of (witnesses as int64, signatures) of the 13 z125@79 clusters, at
# the default _FRONTIER_CAP and at 6,000, as they were when the last level
# extended every column
_Z125_79_DEFAULT = [
    "754e087f3daf4904dff9e17f746539ec2610149b7ee28f7a8c1038c8c3dbfe76",
    "3d0b1c95d8150bb2f2c79be432f45e7f9db833bafda9ec6085c7127fe73086ea",
    "6397ccaef88371c05ee27484d9dd53085de16191d0b8fdcedd05d6907a1e0643",
    "4d1c3d468477fb51b83cd018fbfef1502cffdd7322ad9402b995acdd9daf7079",
    "1336323d91e79ba4e5d70a7b5983657930abc3d5b4af439e15a4b9de636b385b",
    "a059e6462be7c56733950fc5b40a7054b9adbb17570ea508ca4b9ea47d1fb3e6",
    "5fd7580940107f903999987b05865efdc5fc69885bc6dea21b47c593cdcf1882",
    "a6abbedd423750416f0f7bf33c7789d917e3d6e704b32f552d1e14b3d85b980d",
    "a6abbedd423750416f0f7bf33c7789d917e3d6e704b32f552d1e14b3d85b980d",
    "e0e3b98fd050ac53c02df37e9b16d5434ec4402165b15be4595ec68a3c8fc6b2",
    "a6abbedd423750416f0f7bf33c7789d917e3d6e704b32f552d1e14b3d85b980d",
    "a6abbedd423750416f0f7bf33c7789d917e3d6e704b32f552d1e14b3d85b980d",
    "6c1f037e5bb5282f5e93af1eb2fc19693f59bc47430591adc19f6fb4293da83e",
]
_Z125_79_CAP_6000 = [
    "b367c98f2e026ebe2aa548c38038b9429e6f9086aa9b009ee0268a903665ba9d",
    "249f6acaa55a1f164342ad82a11e98f7a753b65c55ffc4d78389edf43b808a42",
    "447d04cdda0588d89fd429d9d4f91efe96f6e175152d711d8845e6dc74299942",
    "7823cf75762874b9f221ca4f4625680410695413795fc8f792c04a56a162e8e3",
    "3d29e2b1dc0c80dd2eaef730cf631dacb991a99ec11ec33c89450966e65223d5",
    "3374db5ae041ebeeadec8a8d9dee01fd89646ac79b534e8703a960e5e65f6e01",
    "3cd9cf72453c42a54436548d64083e472049a6e537bcad0a99ba167a532632aa",
    "421dcd2a5c23c27ec7f456ecde42051cb8461e2c85cb194381d6560eab3a4c1a",
    "421dcd2a5c23c27ec7f456ecde42051cb8461e2c85cb194381d6560eab3a4c1a",
    "b10a974a00539548ff34d7c0b06436b302ed78525aba7ba165d9c4539eb88d82",
    "421dcd2a5c23c27ec7f456ecde42051cb8461e2c85cb194381d6560eab3a4c1a",
    "421dcd2a5c23c27ec7f456ecde42051cb8461e2c85cb194381d6560eab3a4c1a",
    "8d9db393b0e986e8fe122a781b7ce2afdd1e8269b3e4da5999854734e43081ec",
]


@pytest.mark.parametrize("cap,pinned", [
    (None, _Z125_79_DEFAULT), (6_000, _Z125_79_CAP_6000),
], ids=["default", "6000"])
def test_cluster_enumeration_is_pinned(monkeypatch, cap, pinned):
    sysm = z125_system(79)
    fg = _form_groups(sysm)
    if cap is not None:
        monkeypatch.setattr(search, "_FRONTIER_CAP", cap)
    digests = []
    for cl in _clusters_of(sysm):
        wit, sig, _ = search._enumerate_cluster(sysm, fg, cl)
        digests.append(hashlib.sha256(wit.astype(np.int64).tobytes() + sig.tobytes()).hexdigest())
    assert digests == pinned


def test_cluster_enumeration_work_cap_threshold(monkeypatch):
    """The z125@79 y_2 cluster expands 8,548,020 candidate rows after its
    first level: one fewer allowed gives up, exactly that many enumerates."""
    sysm = z125_system(79)
    fg, cl = _form_groups(sysm), _clusters_of(sysm)[1]
    assert [sysm.unknowns[u] for u in cl] == ["y_2_1", "y_2_2", "y_2_3", "y_2_4"]
    monkeypatch.setattr(search, "_WORK_CAP", 8_548_019)
    assert search._enumerate_cluster(sysm, fg, cl) is None
    monkeypatch.setattr(search, "_WORK_CAP", 8_548_020)
    assert len(search._enumerate_cluster(sysm, fg, cl)[0]) == 29565


@pytest.mark.parametrize("make", [
    lambda: z125_system(67), lambda: z125_system(79), lambda: _paley3(5, 61),
], ids=["z125@67", "z125@79", "paley3_5@61"])
def test_cluster_witnesses_start_coset_least(make):
    """Scaling a cluster by t with M | log t (M the lcm of the moduli of the
    groups it holds forms of) keeps every check of the enumeration, and
    the enumeration meets the images of a row in ascending order of their
    first value; so each witness row's first value is the least encoding
    of its class mod M.  The last level relies on this."""
    sysm = make()
    fg, log = _form_groups(sysm), sysm.field._log
    for cl in _clusters_of(sysm):
        inner = {fi for fi, f in enumerate(sysm.forms) if {u for u, _ in f.terms} <= set(cl)}
        M = math.lcm(*(g.modulus for g in sysm.groups if inner.intersection(g.forms)))
        least = {}
        for x in range(1, sysm.field.q):
            least.setdefault(int(log[x]) % M, x)
        wit, _, _ = search._enumerate_cluster(sysm, fg, cl)
        assert len(wit) and all(least[int(log[x]) % M] == x for x in wit[:, 0].tolist())


@pytest.mark.parametrize("make,enumerations", [
    (lambda: z125_system(67), 10), (lambda: z125_system(79), 10),
    (lambda: z125_system(103), 10), (lambda: z125_system(127), 10),
    (lambda: _paley3(5, 61), 1),
], ids=["z125@67", "z125@79", "z125@103", "z125@127", "paley3_5@61"])
def test_clusters_of_one_shape_share_one_enumeration(monkeypatch, make, enumerations):
    """solve enumerates each cluster shape once (z125: 13 clusters, 4 of them
    alike; paley3: 2 alike), and every domain it hands to
    _fc_over_clusters is what _enumerate_cluster gives for that cluster
    alone, its witnesses and signatures read-only."""
    sysm = make()
    real_enum, real_fc = search._enumerate_cluster, search._fc_over_clusters
    calls, handed = [], []

    def enumerate_spy(*args):
        calls.append(args[2])
        return real_enum(*args)

    def fc_spy(system, form_groups, clusters, domains):
        handed.append((clusters, domains))
        return real_fc(system, form_groups, clusters, domains)

    monkeypatch.setattr(search, "_enumerate_cluster", enumerate_spy)
    monkeypatch.setattr(search, "_fc_over_clusters", fc_spy)
    assert solve(sysm).status == "sat"
    [(clusters, domains)] = handed
    assert len(calls) == enumerations < len(clusters)
    fg = _form_groups(sysm)
    for cl, (wit, sig, cross) in zip(clusters, domains):
        wit2, sig2, cross2 = real_enum(sysm, fg, cl)
        assert np.array_equal(wit, wit2) and np.array_equal(sig, sig2) and cross == cross2
        assert not wit.flags.writeable and not sig.flags.writeable
    shared = [d[0] for d in domains]
    wit = next(w for i, w in enumerate(shared) if any(w is v for v in shared[:i]))
    with pytest.raises(ValueError):
        wit[0, 0] = 1


def test_clusters_that_pair_their_forms_apart_are_enumerated_apart(monkeypatch):
    """Two one-unknown clusters with the same forms c*y, c = 1, 2, 3, 5 over
    GF(7) (labels log c = 0, 2, 1, 5 mod 2 plus log y): cluster y0 pairs
    them {1, 3}, {2, 5}, which covers both classes, and cluster y1 pairs
    them {1, 2}, {3, 5}, which cannot.  Their shapes differ only in which
    forms share a group, so each is enumerated, and the system is
    exhausted."""
    forms = tuple(Form(f"{c}y{u}", ((u, c),)) for u in (0, 1) for c in (1, 2, 3, 5))
    groups = tuple(UniformityGroup(g, 2) for g in ((0, 2), (1, 3), (4, 5), (6, 7)))
    sysm = ConstraintSystem(make_field(7), ("y0", "y1"), forms, groups)
    calls, real = [], search._enumerate_cluster
    monkeypatch.setattr(search, "_enumerate_cluster",
                        lambda *args: calls.append(args[2]) or real(*args))
    assert solve(sysm) == SolveResult("exhausted", nodes=0)
    assert calls == [[0], [1]]


def test_cluster_enumeration_memory_is_bounded():
    for sysm in (z125_system(67), z125_system(79)):
        fg = _form_groups(sysm)
        for cl in _clusters_of(sysm):
            tracemalloc.start()
            try:
                search._enumerate_cluster(sysm, fg, cl)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12_000_000, (sysm.field.q, cl, peak)


@pytest.mark.parametrize("make,nodes", [
    (lambda: z125_system(79), 464),
    (lambda: generic_system(catalog.family("z7_8_8"), 73, 72, 8, 1), 47),
], ids=["z125@79", "z7@73"])
def test_solve_memory_is_bounded_and_freed_on_return(make, nodes):
    """The cluster path holds its rows in narrow dtypes and reads each
    cluster's signatures through a narrow hint permutation, so z125@79
    peaks under 10 MB (20.3 MB with int64 witnesses and hint-ordered
    copies).  Neither search holds its state in a reference cycle, so with
    the cyclic collector off what a solve built is freed when it returns,
    and the collector then finds nothing (6.0 MB of z125@79 waited for it)."""
    sysm = make()
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    tracemalloc.start()
    try:
        res = solve(sysm)
        held, peak = tracemalloc.get_traced_memory()
        unreachable = gc.collect()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert (res.status, res.nodes) == ("sat", nodes)
    assert peak < 10 * 2**20, peak
    assert held < 2**19, held
    assert unreachable == 0


def test_generic_system_even_lambda_branch():
    """With an even index the 2-torsion slot carries half multiplicity over
    the full class range instead of the sign-halved range."""
    sdf = catalog.family("paley3", 5)      # (F5+, 6, 12): lam = 2, t = 1, d = 6
    sysm = generic_system(sdf, 7, 6, 6, 2)
    assert len(sysm.unknowns) == 12
    halved = [g for g in sysm.groups if g.multiplicity == 1 and g.modulus == 6
              and len(g.forms) == 6]
    regular = [g for g in sysm.groups if g.multiplicity == 2]
    assert len(regular) == 4               # h = 1..4
    assert len(sysm.groups) == 5 + 2       # five slots plus two element groups


def _system_digest(sysm):
    """SHA-256 of a system's shape up to form numbering and group order:
    the unknowns in order, the multiset of forms (terms, const), each group
    as (modulus, multiplicity, orbit, its form keys with repeats), the hints
    keyed by form, the datum the lifting builder assembles from the
    assignment u -> generator^(3u + 1), and under "reductions" (empty
    without one, as the follower maps it replaced were) the restricted
    system's digest and its signs."""
    key = lambda fi: (sysm.forms[fi].terms, sysm.forms[fi].const)
    fld = sysm.field
    data = sysm.lifting_builder([fld.pow_generator(3 * u + 1)
                                 for u in range(len(sysm.unknowns))])
    shape = {
        "unknowns": list(sysm.unknowns),
        "forms": sorted(key(fi) for fi in range(len(sysm.forms))),
        "groups": sorted((g.modulus, g.multiplicity, g.orbit, sorted(map(key, g.forms)))
                         for g in sysm.groups),
        "hints": sorted((key(fi), int(lab)) for fi, lab in sysm.hints.items()),
        "reductions": [] if sysm.restricted is None else
        [_system_digest(sysm.restricted[0]), sysm.restricted[1]],
        "datum": (data.phi, data.partition, data.e, data.d, data.lam, data.provenance),
    }
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()


def _z7_blank():
    data = catalog.lifting_datum("fdf_z7xF89")
    blanked = replace(data, phi=((0, 0, 0) + data.phi[0][3:],))
    return _repair_system(blanked, set(blanked.zero_positions()))


def _z63_repair(widened):
    data = catalog.lifting_datum("fdf_z63xF25")
    suspects = set(data.zero_positions())
    if widened:
        suspects = {(i, a) for i, _ in suspects for a in range(data.k)}
    return _repair_system(data, suspects)


# recorded before the system builders shared one implementation; the five
# generic ones again once their sign-paired restriction came from the
# builder too (the full systems are unchanged); the two paley3 ones again
# once they were built from the catalog's family, whose blocks are sorted
@pytest.mark.parametrize("make,pinned", [
    (lambda: generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1),
     "2f936968e625b00ab30aca68adb235e7fc2cd37ab76ea6f3fa05ab5bfb2d1b6f"),
    (lambda: generic_system(catalog.family("z7_8_8"), 73, 72, 8, 1),
     "c2e3cd2f648dc9821fac517dd6965050ea9a7c1790170131639cb4768b00ea2f"),
    (lambda: generic_system(catalog.family("z7_8_8"), 89, 88, 8, 1),
     "7126c8057cb4ce04ed61472deef17b5e0c285baaa4e9a1a0f4dac591cbb47c55"),
    (lambda: generic_system(catalog.family("paley3", 5), 7, 6, 6, 2),
     "47ad58556c0ea74e71e0a08643b04049497bdafa513a158e970e60545c015f74"),
    (lambda: generic_system(catalog.family("z125_6_6"), 67, 66, 6, 1),
     "afcbd9b1096248beda4ca7118befad2198ec16dda0b27b7a679071420cd15220"),
    (lambda: paired_pattern_system(catalog.family("paley2", 7), 113),
     "524960df67a67eb0f0e9c77a1f96d6f7cb2b599d507c97cd10498638ddf2c9e1"),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 17),
     "7b118a250468551bbc80e1d50137218854a37f88160b9b82a64278317648073e"),
    (lambda: _paley3(5, 61),
     "28b8c4eca4242d15de30ad6a9398610cc6a9b9df084a656abed2c360fdc19927"),
    (lambda: _paley3(13, 337),
     "fc3ea2052869beacf3aff8998e6f5cddcaee9592605872c57da634ca1fe0197c"),
    (lambda: z125_system(67),
     "ca126368266758196f7e154b5999ac617086304d352792b6ddb1b58db1dad7e0"),
    (lambda: z125_system(79),
     "d0a406e9c76ccfa4808c0b5f9c650b22d06beb69170890c318a19dfd5b21f3ea"),
    (lambda: _z63_repair(False),
     "c427e76682759129dc42c7a0a7138c6acaf47a4c46d15f2ce14bfe0a9d53bf7e"),
    (lambda: _z63_repair(True),
     "3f539a68078e2b0ee1552b21f9e8b3a3c1b8a431c639587530f61372e05a15c2"),
    (_z7_blank, 
     "a0985e79e026c2e80cfa9eb9d0b3d21f03676b842073616c7749eea73c0155a9"),
], ids=["generic:z7@25", "generic:z7@73", "generic:z7@89", "generic:paley3_5@7",
        "generic:z125@67", "paired:paley2_7@113", "paired:twinPrime3@17", "paley3_5@61",
        "paley3_13@337", "z125@67", "z125@79", "repair:z63_narrow", "repair:z63_widened",
        "repair:z7_blank"])
def test_system_shapes_are_pinned(make, pinned):
    assert _system_digest(make()) == pinned
