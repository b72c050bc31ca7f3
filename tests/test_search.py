import hashlib
import json
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedf import catalog, search
from framedf.families import verify_fdf
from framedf.fields import make_field
from framedf.lifting import check_lifting_conditions, lift_sdf
from framedf.search import (ConstraintSystem, Form, RepairBudgetExceeded, RepairError,
                            SolveResult, UniformityGroup, _apply_reduction, _clusters_of,
                            _repair_system, generic_system, paired_pattern_system,
                            paley3_pattern_system,
                            q_bound, q_bound_bracket, repair_block, solve, z125_system)


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


def test_generic_solve_z7_at_89():
    sysm = generic_system(catalog.family("z7_8_8"), 89, 88, 8, 1)
    res = solve(sysm, seed=0, budget=3_000_000)
    assert res.status == "sat" and res.nodes == 249_889
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    assert check_lifting_conditions(data).ok
    assert verify_fdf(lift_sdf(data)).ok


def test_paired_pattern_shapes():
    assert len(paired_pattern_system(catalog.family("paley2", 7), 113).unknowns) == 4
    assert paired_pattern_system(catalog.family("paley2", 7), 113).d == 4
    tw = paired_pattern_system(catalog.family("twinPrime", 3), 17)
    assert len(tw.unknowns) == 8 and tw.d == 8
    for m in (3, 4, 5):
        s = paired_pattern_system(catalog.family("singer", 2, m), 2 ** m + 1
                                  if False else _first_q(2 ** m))
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
    sysm = paley3_pattern_system(5, 61)
    assert len(sysm.unknowns) == 6 and sysm.d == 6
    sdf = solve(sysm, seed=0)
    assert sdf.status == "sat"
    data = sysm.lifting_builder([sdf.assignment[u] for u in sysm.unknowns])
    # block layout per the third-type pattern: (0,0,w^2,w^2,w^4,w^4) / (0,0,w,w,w^3,w^3)
    f5 = make_field(5)
    b1, b2 = data.sdf.blocks
    w = f5.generator
    assert b1 == (0, 0, pow(w, 2, 5), pow(w, 2, 5), pow(w, 4, 5), pow(w, 4, 5))
    assert b2 == (0, 0, w, w, pow(w, 3, 5), pow(w, 3, 5))
    assert verify_fdf(lift_sdf(data)).ok
    assert len(paley3_pattern_system(13, 337).unknowns) == 14


def test_paley3_congruence_guards():
    with pytest.raises(ValueError):
        paley3_pattern_system(7, 61)      # 7 = 3 (mod 4)
    with pytest.raises(ValueError):
        paley3_pattern_system(5, 37 + 1)  # not 1 (mod 12) prime structure


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
    assert res.status == "sat"


def test_solver_determinism():
    s1 = solve(paired_pattern_system(catalog.family("twinPrime", 3), 17), seed=5)
    s2 = solve(paired_pattern_system(catalog.family("twinPrime", 3), 17), seed=5)
    assert s1.status == "sat" and s1.assignment == s2.assignment


@pytest.mark.parametrize("make,clusters", [
    (lambda: paley3_pattern_system(5, 61), 2),                               # cluster path
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 17), 1),  # _dfs_direct
    (lambda: generic_system(catalog.family("z7_8_8"), 41, 40, 8, 1), 1),     # _dfs_direct
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


# (status, nodes, assignment digest) as the numpy-based solver returned them;
# any change of search order shows up here
@pytest.mark.parametrize("make,pinned", [
    (lambda: generic_system(catalog.family("z7_8_8"), 25, 24, 8, 1),
     ("exhausted", 8777, None)),
    (lambda: generic_system(catalog.family("z7_8_8"), 73, 72, 8, 1),
     ("sat", 47, "9594c85623800ee5dd12ff6ac6a6602a56b8d1b8999cc52aa18be5a55fbdab44")),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 17),
     ("sat", 346, "5c9cde680073df6873022fc80741298f75296723a8b295728bad37bd78c3085f")),
    (lambda: paired_pattern_system(catalog.family("twinPrime", 3), 49),
     ("exhausted", 44563, None)),
    (lambda: paley3_pattern_system(5, 61),
     ("sat", 17, "ac25706f4a1f37c3de94cf3eac0040a167e4cc15682667bf5296a0b268890991")),
], ids=["z7@25", "z7@73", "twinPrime3@17", "twinPrime3@49", "paley3_5@61"])
def test_search_order_is_pinned(make, pinned):
    res = solve(make(), seed=0)
    assert (res.status, res.nodes, _digest(res.assignment)) == pinned


def _gf25_system(groups, n=4):
    """The first n of the unknowns y0..y3 over GF(25), with the forms among
    y0, -2*y0 + 6*y1, y2, 6*y2 - 2*y3 that use only those unknowns."""
    forms = (Form("y0", ((0, 1),)), Form("-2y0+6y1", ((0, -2), (1, 6))),
             Form("y2", ((2, 1),)), Form("6y2-2y3", ((2, 6), (3, -2))))
    return ConstraintSystem(make_field(5, 2), 2, ("y0", "y1", "y2", "y3")[:n], forms[:n],
                            groups)


def _reference_value(sysm, fi, values):
    """The form's value by FieldElement arithmetic, each coefficient c
    taken as the constant polynomial c of GF(25)."""
    F = sysm.field
    acc = F.element(0)
    for u, c in sysm.forms[fi].terms:
        acc = acc + F.element((c,)) * F.element(int(values[u]))
    return acc.encoding


def test_gf25_coefficients_act_through_the_prime_subfield():
    # -2 and 6 are the GF(5) elements 3 and 1, not the GF(25) encodings
    # 23 and 6 (3 + 4x and 1 + x)
    sysm = _gf25_system(())
    for a in range(25):
        for b in range(25):
            vals = (a, b, a, b)
            for fi in range(4):
                assert sysm.eval_form(fi, vals) == _reference_value(sysm, fi, vals)
    # one cluster (_dfs_direct); two clusters, joined by a group or not
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


def test_gf25_reduction_merges_coefficients_mod_p():
    # y1 = -y0 turns -2*y0 + 6*y1 into -8*y0, i.e. 2*y0 over GF(5)
    sysm = _gf25_system((UniformityGroup((0, 1), 2),))
    reduced, expand = _apply_reduction(sysm, {1: (0, -1), 3: (2, -1)})
    assert reduced.forms[1].terms == ((0, 2),)
    assert reduced.forms[3].terms == ((1, -2),)           # 6 + 2 = 8 = -2 (mod 5)
    for a in range(1, 25):
        for b in range(1, 25):
            full = expand([a, b])
            for fi in range(4):
                assert reduced.eval_form(fi, [a, b]) == _reference_value(sysm, fi, full)


def test_solver_exhausts_toy_unsat():
    fld = make_field(7)
    sysm = ConstraintSystem(
        fld, 2, ("y",),
        (Form("y", ((0, 1),)), Form("y", ((0, 1),))),
        (UniformityGroup((0, 1), 2, 1),),
    )
    assert solve(sysm).status == "exhausted"


def test_constant_forms_are_counted_before_the_first_node():
    # two one-unknown clusters; constants send the system to _dfs_direct
    fld = make_field(7)
    forms = (Form("a", ((0, 1),)), Form("b", ((1, 1),)), Form("3", (), 3),
             Form("a-1", ((0, 1),), 6), Form("0", ()))
    sysm = ConstraintSystem(fld, 2, ("a", "b"), forms[:4],
                            (UniformityGroup((0, 2), 2), UniformityGroup((1, 3), 2)))
    res = solve(sysm)
    assert res.status == "sat"
    assert sysm.check_assignment([res.assignment["a"], res.assignment["b"]])
    zero = ConstraintSystem(fld, 2, ("a", "b"), forms,
                            sysm.groups + (UniformityGroup((4,), 1),))
    assert solve(zero) == SolveResult("exhausted", nodes=0)


def test_repair_identity_and_blank_recovery():
    data = catalog.lifting_datum("fdf_z7xF89")
    assert repair_block(data, []) is data
    blanked = data.replace_phi([(0,) + data.phi[0][1:]])
    fixed = repair_block(blanked, [(0, 0)])
    assert check_lifting_conditions(fixed).ok


def test_repair_narrow_fails_then_widens():
    data = catalog.lifting_datum("fdf_z63xF25")
    zeros = data.zero_positions()
    with pytest.raises(RepairError):
        repair_block(data, zeros, widen=False)
    # the fixed values alone rule the narrow completion out
    assert solve(_repair_system(data, set(zeros))) == SolveResult("exhausted", nodes=0)
    fixed = repair_block(data, zeros)
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
    blanked = data.replace_phi([(0, 0, 0) + data.phi[0][3:]])
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
    blanked = data.replace_phi([(0,) + data.phi[0][1:]])
    with pytest.raises(ValueError, match="suspects must be") as info:
        repair_block(blanked, [(0, 0), stray])
    assert not isinstance(info.value, RepairError)


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
    return data.replace_phi(phi), suspects, stays_valid


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
    assert res.status == "sat"
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    assert check_lifting_conditions(data).ok


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
