"""The report contract every verifier keeps: `detail` is "" exactly when
`ok`; a failing report names its first offender in `detail` and lists up
to 32 offenders, that one first, in `witnesses`."""

from dataclasses import replace

import pytest

from framedf import catalog
from framedf.codes import FHS, verify_strictly_optimal
from framedf.designs import (BlockDesign, Resolution, RotationalStructure,
                             affine_plane, rbibd_from_fdf, trivial_rbibd,
                             verify_bibd, verify_one_rotational, verify_resolution)
from framedf.families import (FDF, PDF, RELATIVE_DF, SDF, DesignFamily,
                              DifferenceMatrix, Report, verify_dm, verify_fdf,
                              verify_pdf, verify_relative_df, verify_sdf)
from framedf.fields import make_field
from framedf.groups import AbelianGroup
from framedf.lifting import check_lifting_conditions, fdf_to_pdf, mul_table_dm

Z3, Z4, Z7 = (AbelianGroup.cyclic(n) for n in (3, 4, 7))
# the smallest frame: {1, 2} over Z3 relative to {0}; it assembles into the
# 1-rotational (4, 2, 1) design
TINY_FDF = DesignFamily(FDF, Z3, 1, ((1, 2),), subgroup=(0,), frame_partition=((0,),))


def _z7_sdf_with(change):
    fam = catalog.family("z7_8_8")
    blk = list(fam.blocks[0])
    change(blk)
    return DesignFamily(SDF, fam.group, fam.lam, (tuple(blk),) + fam.blocks[1:])


def _swapped_z7_phi():
    data = catalog.lifting_datum("fdf_z7xF89")
    row = list(data.phi[0])
    row[0], row[2] = row[2], row[0]
    return replace(data, phi=(tuple(row),))


def _tiny_design():
    return rbibd_from_fdf(TINY_FDF, *trivial_rbibd(2))


def _ag3_with_class_repeated():
    design, res = affine_plane(3)
    classes = tuple(map(tuple, res.classes.tolist()))
    return design, Resolution((classes[1],) + classes[1:])


def _ag3_under_z8():
    design, res = affine_plane(3)
    return design, res, RotationalStructure(AbelianGroup.cyclic(8), tuple(range(8)))


VALID = {
    "verify_sdf": lambda: verify_sdf(catalog.family("z7_8_8")),
    "verify_relative_df": lambda: verify_relative_df(
        DesignFamily(RELATIVE_DF, Z7, 1, ((0, 1, 3),), subgroup=(0,))),
    "verify_fdf": lambda: verify_fdf(TINY_FDF),
    "verify_pdf": lambda: verify_pdf(fdf_to_pdf(TINY_FDF)),
    "verify_dm": lambda: verify_dm(mul_table_dm(make_field(5))),
    "check_lifting_conditions": lambda: check_lifting_conditions(
        catalog.lifting_datum("fdf_z7xF89")),
    "verify_bibd": lambda: verify_bibd(affine_plane(3)[0]),
    "verify_resolution": lambda: verify_resolution(*affine_plane(3)),
    "verify_one_rotational": lambda: verify_one_rotational(*_tiny_design()),
    "verify_strictly_optimal": lambda: verify_strictly_optimal(FHS([0, 1, 1], 2)),
}

CORRUPTED = {
    "verify_sdf counts": lambda: verify_sdf(
        _z7_sdf_with(lambda b: b.__setitem__(1, (b[1] + 1) % 7))),
    "verify_sdf element": lambda: verify_sdf(
        _z7_sdf_with(lambda b: b.__setitem__(0, b[0] + 7))),
    "verify_sdf parity": lambda: verify_sdf(
        DesignFamily(SDF, Z7, 7, ((0, 0, 1, 1, 2, 2, 4, 4),))),
    "verify_relative_df counts": lambda: verify_relative_df(
        DesignFamily(RELATIVE_DF, Z7, 1, ((0, 1, 2),), subgroup=(0,))),
    "verify_fdf frame": lambda: verify_fdf(
        DesignFamily(FDF, Z3, 1, ((0, 1),), subgroup=(0,), frame_partition=((0,),))),
    "verify_fdf counts": lambda: verify_fdf(
        DesignFamily(FDF, Z3, 1, ((1, 1),), subgroup=(0,), frame_partition=((0,),))),
    "verify_pdf points": lambda: verify_pdf(DesignFamily(PDF, Z3, 1, ((0,), (1, 1)))),
    "verify_pdf counts": lambda: verify_pdf(DesignFamily(PDF, Z4, 1, ((0,), (1, 2, 3)))),
    "verify_dm counts": lambda: verify_dm(DifferenceMatrix(Z3, ((0, 1, 2), (0, 1, 2)))),
    "check_lifting_conditions slots": lambda: check_lifting_conditions(_swapped_z7_phi()),
    "check_lifting_conditions zeros": lambda: check_lifting_conditions(
        catalog.lifting_datum("fdf_z63xF25")),
    "verify_bibd": lambda: verify_bibd(BlockDesign(7, 3, 1, ((0, 1, 3), (1, 2, 4)))),
    "verify_resolution": lambda: verify_resolution(*_ag3_with_class_repeated()),
    "verify_one_rotational": lambda: verify_one_rotational(*_ag3_under_z8()),
    "verify_one_rotational stray point": lambda: verify_one_rotational(
        BlockDesign(4, 2, 1, ((0, 4),)), Resolution(((0,),)), _tiny_design()[2]),
    "verify_strictly_optimal": lambda: verify_strictly_optimal(FHS([0, 0, 0, 1], 2)),
}


def _ints(witness):
    if isinstance(witness, tuple):
        return [x for part in witness for x in _ints(part)]
    return [witness] if isinstance(witness, int) else []


@pytest.mark.parametrize("case", sorted(VALID))
def test_passing_report_is_empty(case):
    rep = VALID[case]()
    assert type(rep) is Report
    assert rep.ok and rep.detail == "" and rep.witnesses == ()


@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_failing_report_names_its_first_witness(case):
    rep = CORRUPTED[case]()
    assert type(rep) is Report
    assert not rep.ok and rep.detail and 1 <= len(rep.witnesses) <= 32
    for x in _ints(rep.witnesses[0]):
        assert str(x) in rep.detail, (rep.detail, rep.witnesses[0])


def test_report_shape_is_enforced():
    with pytest.raises(ValueError):
        Report(True, "passing with a detail")
    with pytest.raises(ValueError):
        Report(False, "failing without a witness")
    assert len(Report(False, "many", range(100)).witnesses) == 32
