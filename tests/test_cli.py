import functools
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from framedf import catalog, cli, designs, families, lifting, search, serialize
from framedf.cli import main
from framedf.designs import BlockDesign, affine_plane
from framedf.groups import AbelianGroup
from framedf.lifting import lift_sdf


RECIPES = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_qbound(capsys):
    rc, out, _ = run(capsys, "--format", "json", "qbound", "3", "7")
    assert rc == 0
    assert json.loads(out)["Q"].startswith("6.43306")


def test_catalog_list_and_show(capsys):
    rc, out, _ = run(capsys, "catalog")
    assert rc == 0 and "z125_6_6" in out
    rc, out, _ = run(capsys, "--format", "json", "catalog", "z125_6_6")
    assert rc == 0
    blob = json.loads(out)
    assert blob["blocks"] == 25 and blob["verified"] is True
    rc, _, err = run(capsys, "catalog", "nonexistent")
    assert rc == 2


def test_lift_and_assemble_and_fhs(tmp_path, capsys):
    datum = catalog.lifting_datum("fdf_z7xF89")
    dpath = tmp_path / "datum.json"
    serialize.dump(serialize.lifting_to_dict(datum), dpath)
    fpath = tmp_path / "fdf.json"
    rc, out, _ = run(capsys, "--format", "json", "lift", "--data", str(dpath),
                     "--out", str(fpath))
    assert rc == 0 and json.loads(out)["blocks"] == 11

    rc, out, _ = run(capsys, "--format", "json", "assemble", "--fdf", str(fpath),
                     "--ingredient", "trivial")
    assert rc == 0
    blob = json.loads(out)
    assert blob["v"] == 624 and blob["classes"] == 89 and blob["verified"]

    rc, out, _ = run(capsys, "--format", "json", "fhs-from-fdf", "--fdf", str(fpath))
    assert rc == 0 and json.loads(out)["strictly_optimal"]


def test_lift_rejects_out_of_range_phi(tmp_path, capsys):
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    blob["phi"][0][0] = -88
    bad = tmp_path / "wrapped.json"
    serialize.dump(blob, bad)
    rc, _, err = run(capsys, "lift", "--data", str(bad))
    assert rc == 2 and "phi entry (0, 0) = -88" in err


@pytest.mark.parametrize("blocks,problem", [
    ([], "lifting data needs an SDF with at least one block"),
    ([[0]], "SDF block 0 has 1 point(s); lifting needs blocks of at least 2"),
], ids=["no-blocks", "one-point-block"])
def test_lift_rejects_an_sdf_without_differences(tmp_path, capsys, blocks, problem):
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    blob["sdf"].update(blocks=blocks, **{"lambda": 0})
    blob["phi"] = [[1] for _ in blocks]
    blob["partition"] = [[i] for i in range(len(blocks))]
    bad = tmp_path / "no_differences.json"
    serialize.dump(blob, bad)
    rc, out, err = run(capsys, "lift", "--data", str(bad))
    assert (rc, out, err) == (2, "", f"error: {problem}\n")


def _sdf_of_order(blob, n, mu):
    blob["sdf"].update(group={"type": "cyclic", "n": n}, **{"lambda": mu})


# each edit of the z7xF89 datum file passes the reader's own checks and is
# refused by LiftingData: Z8 at SDF index 7 and Z14 at 4 keep the block's 56
# differences at lambda * |G|
@pytest.mark.parametrize("edit,problem", [
    (lambda b: b["sdf"].update(kind="PDF"), "lifting data requires an SDF"),
    (lambda b: b.update(phi=[]), "phi rows must align with SDF blocks"),
    (lambda b: b["phi"][0].pop(), "each phi row must have block length"),
    (lambda b: b.update(d=4), "d(q-1) must be divisible by ek"),
    (lambda b: _sdf_of_order(b, 8, 7), "lambda|G| must be divisible by k-1"),
    (lambda b: b.update(partition=[[0], [0]]),
     "partition must cover block indices exactly once"),
    (lambda b: _sdf_of_order(b, 14, 4), "SDF index 4 != k*t*lambda = 8"),
], ids=["not-sdf", "phi-rows", "phi-row-length", "d", "lambda", "partition", "sdf-index"])
def test_lift_refuses_a_datum_that_lifting_data_refuses(tmp_path, capsys, edit, problem):
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    edit(blob)
    bad = tmp_path / "refused.json"
    serialize.dump(blob, bad)
    assert run(capsys, "lift", "--data", str(bad)) == (2, "", f"error: {problem}\n")


def test_lift_rejects_an_sdf_element_outside_the_group(tmp_path, capsys):
    # the SDF's 0s written as 7, which Z7 would reduce to 0 again
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    blob["sdf"]["blocks"] = [[7 if x == 0 else x for x in b] for b in blob["sdf"]["blocks"]]
    bad = tmp_path / "wrapped_sdf.json"
    serialize.dump(blob, bad)
    rc, _, err = run(capsys, "lift", "--data", str(bad))
    assert rc == 2 and "SDF block 0 entry 0 = 7 lies outside 0..6" in err


def test_lift_rejects_an_sdf_whose_blocks_differ_in_size(tmp_path, capsys):
    # Z3 at lambda 6 counts 3*2 + 4*3 = 18 differences, as a (Z3, 6) SDF should
    blob = {"sdf": {"kind": "SDF", "group": {"type": "cyclic", "n": 3}, "lambda": 6,
                    "blocks": [[0, 1, 2], [0, 0, 1, 1]]},
            "field": {"p": 7, "m": 1, "modulus": [0, 1], "generator": [3]},
            "e": 6, "d": 3, "lambda": 2, "phi": [[1, 2, 3], [1, 2, 3]],
            "partition": [[0], [1]]}
    bad = tmp_path / "ragged.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run(capsys, "lift", "--data", str(bad))
    assert (rc, out, err) == (2, "", "error: SDF block 1 has 4 entries, block 0 has 3\n")


def _fdf_file_with_wrapped_element(tmp_path):
    """The z7xF89 frame with one block element x replaced by x + |G|, which
    names x again once reduced modulo the group order."""
    fdf = lift_sdf(catalog.lifting_datum("fdf_z7xF89"))
    blob = serialize.family_to_dict(fdf)
    blob["blocks"][0][0] += fdf.group.order
    path = tmp_path / "wrapped_fdf.json"
    serialize.dump(blob, path)
    return path, blob["blocks"][0][0]


def test_assemble_rejects_element_outside_group(tmp_path, capsys):
    path, stray = _fdf_file_with_wrapped_element(tmp_path)
    rc, _, err = run(capsys, "assemble", "--fdf", str(path), "--ingredient", "trivial")
    assert rc == 2 and f"block element {stray} lies outside" in err


def test_fhs_from_fdf_rejects_element_outside_group(tmp_path, capsys):
    path, stray = _fdf_file_with_wrapped_element(tmp_path)
    rc, _, err = run(capsys, "fhs-from-fdf", "--fdf", str(path))
    assert rc == 2 and f"element {stray} lies outside" in err


def test_assemble_rejects_empty_family(tmp_path, capsys):
    # the ingredient is chosen from the block size only after the family
    # passes verify_fdf, as in fhs-from-fdf
    blob = serialize.family_to_dict(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))
    blob["blocks"] = []
    path = tmp_path / "empty_fdf.json"
    serialize.dump(blob, path)
    rc, _, fhs_err = run(capsys, "fhs-from-fdf", "--fdf", str(path))
    assert rc == 2 and "family fails verify_fdf: " in fhs_err
    for ingredient in ("trivial", "affine"):
        rc, _, err = run(capsys, "assemble", "--fdf", str(path), "--ingredient", ingredient)
        assert (rc, err) == (2, fhs_err)


def test_import_accepts_and_rejects(tmp_path, capsys):
    design, res = affine_plane(4)
    good = tmp_path / "good.json"
    serialize.dump(serialize.design_to_dict(design, res), good)
    rc, out, _ = run(capsys, "--format", "json", "import", str(good))
    assert rc == 0 and json.loads(out)["accepted"]

    blob = serialize.design_to_dict(design, res)
    blob["resolution"] = blob["resolution"].tolist()
    blob["resolution"][0] = blob["resolution"][1]       # corrupt the class list
    bad = tmp_path / "bad.json"
    serialize.dump(blob, bad)
    rc, _, err = run(capsys, "import", str(bad))
    assert rc == 1 and "rejected" in err


def test_import_out_writes_the_file_it_read(tmp_path, capsys, monkeypatch):
    # the file is read as arrays: json.load is never called
    design, res = affine_plane(3)
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    serialize.dump(serialize.design_to_dict(design, res), src)
    monkeypatch.setattr(json, "load", None)
    rc, _, _ = run(capsys, "import", str(src), "--out", str(out))
    assert rc == 0 and out.read_bytes() == src.read_bytes()


def test_import_rejects_out_of_range_point(tmp_path, capsys):
    design = BlockDesign(3, 2, 1, ((0, 1), (0, 2), (0, 5)))
    bad = tmp_path / "stray.json"
    serialize.dump(serialize.design_to_dict(design), bad)
    rc, _, err = run(capsys, "import", str(bad))
    assert rc == 1 and "point 5" in err


def test_import_rejects_block_size_one(tmp_path, capsys):
    design = BlockDesign(3, 1, 0, ((0,), (1,), (2,)))
    bad = tmp_path / "k1.json"
    serialize.dump(serialize.design_to_dict(design), bad)
    rc, _, err = run(capsys, "import", str(bad))
    assert rc == 1 and "rejected: block size 1" in err


def test_repair_step_out_of_budget_exits_3(tmp_path, capsys, monkeypatch):
    # a repair that spends its node budget proves nothing: exit 3, not 1
    monkeypatch.setattr(search, "repair_block",
                        functools.partial(search.repair_block, budget=5))
    recipe = tmp_path / "repair_z63.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z63xF25"},
         "out": "$d"},
        {"id": "repair", "op": "repair", "in": "$d", "out": "$fixed"}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 3
    steps = json.loads(out)
    assert not steps[1]["verified"] and "budget" in steps[1]["error"]


def test_run_step_that_raises_reports_and_exits_1(tmp_path, capsys):
    recipe = tmp_path / "lift_printed_z63.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z63xF25"},
         "out": "$d"},
        {"id": "lift", "op": "lift", "in": "$d", "out": "$fdf"}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 1
    steps = json.loads(out)
    assert [s["step"] for s in steps] == ["datum", "lift"]
    assert steps[0]["verified"] and not steps[1]["verified"]
    assert "lifting conditions fail" in steps[1]["error"]


def test_run_step_whose_input_is_refused_reports_and_exits_1(tmp_path, capsys):
    # fhs needs a cyclic group, and the lifted z7xF89 frame is over Z7 x GF(89)
    recipe = tmp_path / "fhs_uncyclic.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
         "out": "$d"},
        {"id": "lift", "op": "lift", "in": "$d", "out": "$fdf"},
        {"id": "fhs", "op": "fhs", "in": "$fdf", "out": "$x"}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 1
    steps = json.loads(out)
    assert [(s["step"], s["verified"]) for s in steps] == \
        [("datum", True), ("lift", True), ("fhs", False)]
    assert steps[2]["error"] == "need a cyclic group; apply crt_iso to the family first"


def test_run_recipe_624(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes" / "thm_2_3_624.json"
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe),
                     "--workdir", str(tmp_path))
    assert rc == 0
    steps = json.loads(out)
    assert all(s["verified"] for s in steps)
    assert (tmp_path / "rbibd_624.json").exists()


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_run_refuses_a_workdir_that_is_not_a_directory_before_any_step(tmp_path, capsys,
                                                                       kind):
    workdir = tmp_path / kind
    if kind == "file":
        workdir.write_text("")
    rc, out, _ = run(capsys, "--format", "json", "run", str(RECIPES / "thm_2_3_624.json"),
                     "--workdir", str(workdir))
    assert rc == 2
    assert json.loads(out) == [{"step": "recipe", "verified": False,
                                "error": f"workdir {str(workdir)!r} is not a directory"}]
    assert sorted(p.name for p in tmp_path.iterdir()) == (["file"] if kind == "file" else [])


def test_run_recipe_ccc(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes" / "thm_6_5_ccc623.json"
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe),
                     "--workdir", str(tmp_path))
    assert rc == 0
    steps = json.loads(out)
    ccc = [s for s in steps if s["op"] == "ccc"][0]
    assert ccc["M"] == 623 and ccc["d"] == 616


def test_run_empty_recipe(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"steps": []}')
    rc, out, _ = run(capsys, "run", str(empty))
    assert rc == 0


def test_run_step_given_wrong_type_reports_and_exits_2(tmp_path, capsys):
    recipe = tmp_path / "assemble_a_datum.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
         "out": "$d"},
        {"id": "assemble", "op": "assemble", "in": "$d", "out": "$design"}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    steps = json.loads(out)
    assert [s["verified"] for s in steps] == [True, False]
    assert "'assemble'" in steps[1]["error"] and "LiftingData" in steps[1]["error"]


@pytest.mark.parametrize("step,problem", [
    ({"id": "lift", "op": "lift", "in": "$nothing", "out": "$fdf"},
     "undefined reference '$nothing'"),
    ({"id": "lift", "op": "lift", "out": "$fdf"}, "step 'lift' has no 'in'"),
    ({"id": "lift", "op": "lift", "in": "$d"}, "step 'lift' has no 'out'"),
    ({"id": "datum2", "op": "catalog-lifting", "out": "$e"},
     "step 'datum2' has no params.name"),
    # the sdf of a solve step: parameters for an entry that takes none, a
    # parameter that is not an int, and none for an entry that needs one
    ({"id": "solve", "op": "solve", "out": "$s", "params": {
        "system": "generic", "sdf": "z7_8_8:5", "q": 41, "d": 8, "budget": 1}},
     "step 'solve': params.sdf 'z7_8_8:5': catalog entry 'z7_8_8' takes 0 parameter(s), got 1"),
    ({"id": "solve", "op": "solve", "out": "$s", "params": {
        "system": "paired", "sdf": "twinPrime:x", "q": 17}},
     "step 'solve': params.sdf 'twinPrime:x': invalid literal for int() with base 10: 'x'"),
    ({"id": "solve", "op": "solve", "out": "$s", "params": {
        "system": "paired", "sdf": "twinPrime", "q": 17}},
     "step 'solve': params.sdf 'twinPrime': catalog entry 'twinPrime' takes 1 parameter(s), "
     "got 0"),
])
def test_run_step_usage_error_exits_2(tmp_path, capsys, step, problem):
    recipe = tmp_path / "usage.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
         "out": "$d"}, step]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    steps = json.loads(out)
    assert [s["verified"] for s in steps] == [True, False]
    assert steps[1]["error"] == problem


@pytest.mark.parametrize("step,problem", [
    ({"id": "datum2", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
      "out": "$e", "file": "nodir/d.json"}, "No such file or directory"),
    ({"id": "assemble", "op": "assemble", "in": "$fdf", "out": "$design",
      "params": {"ingredient": "missing.json"}}, "No such file or directory"),
], ids=["unwritable-file", "missing-ingredient"])
def test_run_step_that_cannot_read_or_write_a_file_exits_2(tmp_path, capsys, step, problem):
    recipe = tmp_path / "files.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
         "out": "$d"},
        {"id": "lift", "op": "lift", "in": "$d", "out": "$fdf"}, step]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    steps = json.loads(out)
    assert [(s["step"], s["verified"]) for s in steps] == [
        ("datum", True), ("lift", True), (step["id"], False)]
    assert problem in steps[2]["error"]


def test_run_rejects_recipe_without_steps_list(tmp_path, capsys):
    recipe = tmp_path / "list.json"
    recipe.write_text(json.dumps([{"id": "datum", "op": "catalog-lifting"}]))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    [record] = json.loads(out)
    assert not record["verified"] and "'steps'" in record["error"]


def test_run_recipe_fhs(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes" / "thm_6_8_fhs623.json"
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe),
                     "--workdir", str(tmp_path))
    assert rc == 0
    steps = json.loads(out)
    assert all(s["verified"] for s in steps)
    assert (tmp_path / "fhs_623.json").exists()


def test_search_command_budget_exit(capsys):
    # a z125 search with a starved node budget must exit with code 3
    rc, _, err = run(capsys, "search", "--system", "z125", "--q", "79",
                     "--budget", "1")
    assert rc == 3


@pytest.mark.parametrize("system", [
    ["--system", "generic", "--sdf", "z7_8_8", "--q", "89", "--d", "8"],
    ["--system", "z125", "--q", "79"]], ids=["generic", "z125"])
def test_search_command_rejects_a_negative_budget(capsys, system):
    rc, _, err = run(capsys, "search", *system, "--budget", "-5")
    assert rc == 2 and "budget -5 is negative" in err


def test_recipe_solve_step_rejects_a_negative_budget(tmp_path, capsys):
    recipe = tmp_path / "solve.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "solve", "op": "solve", "out": "$d",
         "params": {"system": "z125", "q": 79, "budget": -1}}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    [step] = json.loads(out)
    assert not step["verified"] and "budget -1 is negative" in step["error"]


def test_search_command_rejects_parameters_for_an_entry_without_any(capsys):
    rc, out, err = run(capsys, "search", "--system", "generic", "--sdf", "z7_8_8:5",
                       "--q", "41", "--d", "8", "--budget", "1")
    assert (rc, out) == (2, "")
    assert err == ("error: step 'solve': params.sdf 'z7_8_8:5': catalog entry 'z7_8_8' "
                   "takes 0 parameter(s), got 1\n")


def test_search_command_produces_datum(tmp_path, capsys):
    out_path = tmp_path / "datum.json"
    rc, out, _ = run(capsys, "--format", "json", "search", "--system", "paired",
                     "--sdf", "twinPrime:3", "--q", "17", "--out", str(out_path))
    assert rc == 0
    rc2, _, _ = run(capsys, "--format", "json", "lift", "--data", str(out_path))
    assert rc2 == 0
    rc3, _, _ = run(capsys, "search", "--system", "paired", "--sdf", "twinPrime",
                    "--q", "17")
    assert rc3 == 2


@pytest.mark.parametrize("params,problem", [
    ({"system": "paired", "sdf": "fdf_z7xF89", "q": 17}, "need an SDF"),
    ({"system": "paired", "sdf": "z125_6_6", "q": 17},
     "paired pattern needs each value of a block twice, adjacently"),
    ({"system": "paired", "sdf": "quadrupled", "q": 17},
     "paired pattern needs the values of a block distinct"),
    ({"system": "generic", "sdf": "z7_8_8", "q": 17, "d": 8},
     "odd lambda requires q = d+1 (mod 2d)"),
    # even lambda skips the congruence guard, not the check that d | q - 1
    ({"system": "generic", "sdf": "paley3:5", "q": 11, "d": 6, "lam": 2},
     "need d | q-1: d = 6, q = 11"),
    ({"system": "generic", "sdf": "fdf_z7xF89", "q": 17, "d": 8}, "need an SDF"),
    ({"system": "generic", "sdf": "z7_8_8", "q": 89, "d": 5}, "d(q-1) must be divisible by ek"),
    # singer:3,3 is a (Z13, 27, 54) SDF: 13 is not a multiple of k - 1 = 26
    ({"system": "generic", "sdf": "singer:3,3", "q": 109, "d": 27},
     "lambda|G| must be divisible by k-1"),
    # paley3:7's 16 blocks are not lam|G|/(k - 1) = 1 part of t = 1 block
    ({"system": "generic", "sdf": "paley3:7", "q": 41, "d": 8},
     "cannot derive a partition: block count mismatch")],
    ids=["paired", "paired-unpaired", "paired-four-times", "generic", "generic-d",
         "generic-not-sdf", "generic-ek", "generic-lambda", "generic-blocks"])
def test_a_system_refusing_its_input_exits_2_from_search_and_run(tmp_path, capsys, monkeypatch,
                                                                  params, problem):
    # a catalog entry whose block lists 0 four times
    quadrupled = families.DesignFamily(families.SDF, AbelianGroup.cyclic(3), 4,
                                       ((0, 0, 0, 0, 1, 1, 2, 2),))
    monkeypatch.setitem(catalog._REGISTRY, "quadrupled",
                        catalog._Entry(lambda: quadrupled, "a value four times"))
    args = [x for key, value in params.items() for x in (f"--{key}", str(value))]
    rc, out, err = run(capsys, "search", *args)
    assert (rc, out, err) == (2, "", f"error: {problem}\n")
    recipe = tmp_path / "solve.json"
    recipe.write_text(json.dumps({"steps": [{"op": "solve", "out": "$d", "params": params}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    [step] = json.loads(out)
    assert not step["verified"] and step["error"] == problem


def test_run_recipe_1576(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes" / "thm_2_6_1576.json"
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe),
                     "--workdir", str(tmp_path))
    assert rc == 0
    steps = json.loads(out)
    assert all(s["verified"] for s in steps)
    assemble = [s for s in steps if s["op"] == "assemble"][0]
    assert assemble["v"] == 1576


# sha256 of the recipe outputs as written before design assembly and the
# window scan moved to whole arrays (the file.* entries of perfbench/golden.json)
RECIPE_OUTPUT_SHA256 = {
    "rbibd_624.json": "97ea762d65a6ae30f0a66f4ee1e3f2e8b0a34d5d99d0789b880c2bb29255730b",
    "fhs_623.json": "ebdc194ac19e63f91f32d769ada32721ada4f754affab0a61de0f0c1fcec2081",
}


def test_recipe_outputs_byte_stable(tmp_path, capsys):
    recipes = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes"
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    for recipe in ("thm_2_3_624.json", "thm_6_8_fhs623.json"):
        assert run(capsys, "run", str(recipes / recipe), "--workdir", str(d1))[0] == 0
    assert run(capsys, "run", str(recipes / "thm_6_8_fhs623.json"), "--workdir", str(d2))[0] == 0
    assert (d1 / "fhs_623.json").read_bytes() == (d2 / "fhs_623.json").read_bytes()
    for name, digest in RECIPE_OUTPUT_SHA256.items():
        assert hashlib.sha256((d1 / name).read_bytes()).hexdigest() == digest, name



@pytest.mark.parametrize("step,steps,problem", [
    ({"id": "datum2", "op": "catalog-lifting", "params": ["fdf_z7xF89"], "out": "$e"},
     ["recipe"], "'params' an object"),
    ({"id": "assemble", "op": "assemble", "in": "$d", "params": "affine", "out": "$x"},
     ["recipe"], "'params' an object"),
    ({"id": "datum2", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
      "out": "$e", "file": ["datum.json"]}, ["recipe"], "'file' a string"),
    ({"id": "datum2", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
      "out": ["$e"]}, ["recipe"], "'out' a string"),
    ({"id": "assemble", "op": "assemble", "in": "$fdf", "params": {"ingredient": ["a.json"]},
      "out": "$x"}, ["datum", "lift", "assemble"], "params.ingredient is not a str"),
], ids=["params-list", "params-string", "file-list", "out-list", "ingredient-list"])
def test_run_rejects_malformed_params_or_file(tmp_path, capsys, step, steps, problem):
    # a malformed recipe is refused before any step; a malformed parameter
    # stops the run at its step
    recipe = tmp_path / "malformed.json"
    recipe.write_text(json.dumps({"steps": _lifted(step)}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    *ran, record = json.loads(out)
    assert [r["step"] for r in (*ran, record)] == steps
    assert all(r["verified"] for r in ran) and not record["verified"] and problem in record["error"]


def test_run_rejects_a_name_that_is_not_a_string(tmp_path, capsys):
    recipe = tmp_path / "list_name.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": ["fdf_z7xF89"]},
         "out": "$d"}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    [record] = json.loads(out)
    assert not record["verified"] and record["error"] == "step 'datum': params.name is not a str"


def test_verify_ccc_rejects_empty_code(tmp_path, capsys):
    path = tmp_path / "empty_ccc.json"
    path.write_text(json.dumps({"n": 3, "codewords": [], "composition": [1, 1, 1]}))
    rc, out, err = run(capsys, "verify-ccc", str(path))
    assert (rc, out) == (2, "") and "codeword list is empty" in err


def _lifted(*steps):
    """A recipe that lifts the z7xF89 datum and then runs `steps`."""
    return [{"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
             "out": "$d"},
            {"id": "lift", "op": "lift", "in": "$d", "out": "$fdf", "file": "fdf.json"},
            *steps]


def test_subcommands_and_recipes_write_the_same_files(tmp_path, capsys):
    """Each construction subcommand runs the recipe op of the same name, so
    --out and the step's file are byte-identical."""
    datum, pdf = tmp_path / "datum.json", tmp_path / "pdf.json"
    serialize.dump(serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89")), datum)
    serialize.dump(serialize.family_to_dict(
        lifting.fdf_to_pdf(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))), pdf)
    fdf = tmp_path / "sub" / "fdf.json"
    commands = {
        "fdf.json": ["lift", "--data", datum],
        "design.json": ["assemble", "--fdf", fdf, "--ingredient", "trivial"],
        "ccc.json": ["ccc-from-pdf", "--pdf", pdf],
        "fhs.json": ["fhs-from-fdf", "--fdf", fdf],
        "datum.json": ["search", "--system", "paired", "--sdf", "twinPrime:3", "--q", "17"],
    }
    recipes = {
        "fdf.json": _lifted(),
        "design.json": _lifted({"op": "assemble", "in": "$fdf", "out": "$x",
                                "params": {"ingredient": "trivial"}, "file": "design.json"}),
        "ccc.json": _lifted({"op": "pdf", "in": "$fdf", "out": "$pdf"},
                            {"op": "ccc", "in": "$pdf", "out": "$x", "file": "ccc.json"}),
        "fhs.json": _lifted({"op": "crt", "in": "$fdf", "out": "$cyclic"},
                            {"op": "fhs", "in": "$cyclic", "out": "$x", "file": "fhs.json"}),
        "datum.json": [{"op": "solve", "out": "$x", "file": "datum.json", "params": {
            "system": "paired", "sdf": "twinPrime:3", "q": 17}}],
    }
    (tmp_path / "sub").mkdir()
    for name, argv in commands.items():
        assert run(capsys, *map(str, argv), "--out", str(tmp_path / "sub" / name))[0] == 0
    for name, steps in recipes.items():
        workdir = tmp_path / name.split(".")[0]
        workdir.mkdir()
        recipe = workdir / "recipe.json"
        recipe.write_text(json.dumps({"steps": steps}))
        assert run(capsys, "run", str(recipe))[0] == 0
        assert (workdir / name).read_bytes() == (tmp_path / "sub" / name).read_bytes(), name


def test_run_solve_step_on_the_paired_system(tmp_path, capsys):
    recipe = tmp_path / "solve_paired.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "solve", "op": "solve", "out": "$d",
         "params": {"system": "paired", "sdf": "twinPrime:3", "q": 17}},
        {"id": "conditions", "op": "check-conditions", "in": "$d"},
        {"id": "lift", "op": "lift", "in": "$d", "out": "$fdf"}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 0
    solve, conditions, lift = json.loads(out)
    assert solve["status"] == "sat" and solve["nodes"] > 0 and solve["assignment"]
    assert conditions["verified"] and lift["verified"]


def test_search_proving_no_solution_exits_1(tmp_path, capsys):
    # "exhausted" is a completed search, a proof; exit 3 is for a budget spent
    rc, _, err = run(capsys, "search", "--system", "paired", "--sdf", "paley3:5", "--q", "13")
    assert (rc, err) == (1, "search: exhausted after 288 nodes\n")
    recipe = tmp_path / "solve_paley3.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "solve", "op": "solve", "out": "$d",
         "params": {"system": "paired", "sdf": "paley3:5", "q": 13}}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    [record] = json.loads(out)
    assert rc == 1 and record["status"] == "exhausted" and not record["verified"]


def test_assemble_verifies_the_family_once(tmp_path, capsys, monkeypatch):
    # the trivial ingredient on the z7xF89 frame (k = 8, |N| = 7) and AG(2, 2)
    # on a Z9 frame with N = {0, 3, 6} and k = 2
    z9 = families.DesignFamily(families.FDF, AbelianGroup.cyclic(9), 1,
                               ((1, 2), (1, 5), (1, 8)), subgroup=(0, 3, 6),
                               frame_partition=((0,), (1,), (2,)))
    frames = {"trivial": lift_sdf(catalog.lifting_datum("fdf_z7xF89")), "affine": z9}
    calls, verify_fdf = [], families.verify_fdf

    def counted(fam):
        calls.append(fam)
        return verify_fdf(fam)
    monkeypatch.setattr(cli.families, "verify_fdf", counted)
    monkeypatch.setattr(cli.designs, "verify_fdf", counted)
    for ingredient, frame in frames.items():
        fdf = tmp_path / f"{ingredient}.json"
        serialize.dump(serialize.family_to_dict(frame), fdf)
        calls.clear()
        rc, out, _ = run(capsys, "--format", "json", "assemble", "--fdf", str(fdf),
                         "--ingredient", ingredient)
        assert rc == 0 and json.loads(out)["verified"] and len(calls) == 1, ingredient


def test_verify_fhs_names_an_empty_or_malformed_sequence(tmp_path, capsys):
    path = tmp_path / "bad_fhs.json"
    for seq, problem in (([], "is empty"), ([[0, 1], [1, 0]], "is not a list of integer symbols"),
                         ([0, 1, "a"], "is not a list of integer symbols")):
        path.write_text(json.dumps({"n": len(seq), "alphabet": 2, "seq": seq}))
        rc, out, err = run(capsys, "verify-fhs", str(path))
        assert (rc, out, err) == (2, "", f"error: the hopping sequence {problem}\n")


def test_verify_ccc_names_a_ragged_or_malformed_codeword(tmp_path, capsys):
    path = tmp_path / "ragged_ccc.json"
    for codewords, problem in (([[0, 1], [1]], "codeword 1 has 1 symbols, codeword 0 has 2"),
                               ([[0, 1], [1, 0], 5], "codeword 2 is not a list of symbols"),
                               ([[0, 1], [1, "x"]],
                                "the codewords hold a symbol that is not an integer")):
        path.write_text(json.dumps({"n": 2, "codewords": codewords, "composition": [1, 1]}))
        rc, out, err = run(capsys, "verify-ccc", str(path))
        assert (rc, out, err) == (2, "", f"error: {problem}\n")


def test_verify_fhs_fails_a_one_symbol_sequence(tmp_path, capsys):
    # a sequence over one symbol is well formed but has no bound to meet
    path = tmp_path / "fhs.json"
    path.write_text(json.dumps({"alphabet": 1, "n": 3, "seq": [0, 0, 0]}))
    rc, out, err = run(capsys, "--format", "json", "verify-fhs", str(path))
    assert (rc, json.loads(out), err) == (
        1, {"n": 3, "strictly_optimal": False, "failing_L": [["alphabet", 1]]}, "")


@pytest.mark.parametrize("symbol", [-1, 3])
def test_verify_ccc_fails_the_composition_of_a_symbol_out_of_range(tmp_path, capsys, symbol):
    # the composition names symbols 0..2: -1 and 3 are both outside
    path = tmp_path / "ccc.json"
    path.write_text(json.dumps({"n": 3, "composition": [1, 1, 1],
                                "codewords": [[symbol, 0, 1], [1, symbol, 0], [0, 1, symbol]]}))
    rc, out, err = run(capsys, "--format", "json", "verify-ccc", str(path))
    assert (rc, json.loads(out), err) == (
        1, {"M": 3, "d": 3, "composition_ok": False, "verified": False}, "")


@pytest.mark.parametrize("cmd", ["verify-design", "import"])
def test_a_design_with_fewer_cells_than_points_fails_in_small_memory(tmp_path, capsys, cmd):
    # b*k < v: some point lies in no block, and the block count is wrong, so
    # neither command counts pairs over the 10**10 points
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"v": 10**10, "k": 2, "lambda": 1, "blocks": [[0, 1]]}))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        rc, _, _ = run(capsys, cmd, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert time.perf_counter() - start < 1.0 and peak < 8 * 2**20, peak


# a hopping sequence or code file read as the design readers read theirs:
# every malformed entry exits 2 and is named
@pytest.mark.parametrize("cmd,blob,named", [
    ("verify-fhs", [0, 1], "hopping sequence = [0, 1] is not an object"),
    ("verify-fhs", [1], "hopping sequence = [1] is not an object"),
    ("verify-fhs", {"n": 2, "alphabet": "2", "seq": [0, 1]},
     "alphabet = '2' is not an int64 integer"),
    ("verify-fhs", {"n": 2, "alphabet": 2.0, "seq": [0, 1]},
     "alphabet = 2.0 is not an int64 integer"),
    ("verify-fhs", {"n": 2, "alphabet": 2, "seq": [0, True]},
     "seq[1] = True is not an int64 integer"),
    ("verify-ccc", [0, 1], "code = [0, 1] is not an object"),
    ("verify-ccc", {"n": 2, "codewords": [[0, 1], [1, 0]], "composition": [1, 1], "d": "2"},
     "d = '2' is not an int64 integer"),
    ("verify-ccc", {"n": 2, "codewords": [[0, 1], [1, 0]], "composition": [1, 1], "d": 2.0},
     "d = 2.0 is not an int64 integer"),
    ("verify-ccc", {"n": 2, "codewords": [[0, 1], [True, 0]], "composition": [1, 1], "d": 2},
     "codewords[1][0] = True is not an int64 integer"),
    ("verify-ccc", {"n": 2, "codewords": 5, "composition": [1, 1]},
     "codewords = 5 is not a list"),
], ids=["fhs-list", "fhs-one", "alphabet-str", "alphabet-float", "seq-bool", "ccc-list",
        "d-str", "d-float", "codeword-bool", "codewords-int"])
def test_malformed_code_file_exits_2(tmp_path, capsys, cmd, blob, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert run(capsys, cmd, str(bad)) == (2, "", f"error: {named}\n")


def test_lift_checks_the_sdf_group_order_before_building_its_field(tmp_path, capsys,
                                                                   monkeypatch):
    # z7_8_8 has one block of 8 points and lambda 8: its group has order 7
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    blob["sdf"]["group"] = {"type": "field",
                            "field": {"p": 1000003, "m": 1, "modulus": [0, 1]}}

    def unbuilt(*args, **kwargs):
        raise AssertionError("the SDF's field was built before its order was checked")

    monkeypatch.setattr(serialize, "make_field", unbuilt)
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(blob))
    assert run(capsys, "lift", "--data", str(bad)) == (
        2, "", "error: SDF blocks have 56 differences, not lambda * |G| = 8 * 1000003\n")


# AG(2,2) as written to a file: blocks [[0, 2], [1, 3], [0, 3], [1, 2], [0, 1],
# [2, 3]] and classes [[0, 1], [2, 3], [4, 5]].  The first four edits read
# back as the same valid design if the value is taken as an int.
@pytest.mark.parametrize("path,value,named", [
    (("blocks", 0, 1), 2.5, "blocks[0][1] = 2.5 is not an int64 integer"),
    (("blocks", 0, 1), "2", "blocks[0][1] = '2' is not an int64 integer"),
    (("blocks", 4, 1), True, "blocks[4][1] = True is not an int64 integer"),
    (("resolution", 1, 0), 2.0, "resolution[1][0] = 2.0 is not an int64 integer"),
    (("blocks", 2), 5, "blocks[2] = 5 is not a list"),
    (("blocks", 0, 1), 2**70, f"blocks[0][1] = {2**70} is not an int64 integer"),
    (("v",), "4", "v = '4' is not an int64 integer"),
])
def test_malformed_design_file_exits_2(tmp_path, capsys, path, value, named):
    blob = json.loads(serialize.dumps(serialize.design_to_dict(*affine_plane(2))))
    *keys, last = path
    functools.reduce(lambda obj, key: obj[key], keys, blob)[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert run(capsys, "import", str(bad)) == (2, "", f"parse failure: {named}\n")
    assert run(capsys, "verify-design", str(bad)) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("change", [lambda x: x + 0.25, str])
def test_assemble_rejects_a_family_element_that_is_not_an_int(tmp_path, capsys, change):
    blob = serialize.family_to_dict(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))
    blob["blocks"][0][0] = change(blob["blocks"][0][0])
    bad = tmp_path / "fdf.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run(capsys, "assemble", "--fdf", str(bad), "--ingredient", "trivial")
    assert (rc, out) == (2, "")
    assert err == f"error: blocks[0][0] = {blob['blocks'][0][0]!r} is not an int64 integer\n"


def test_lift_rejects_a_phi_entry_that_is_not_an_int(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    blob = json.loads((root / "perfbench" / "data" / "z63xF25_repaired.json").read_text())
    blob["phi"][0][0] += 0.5
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(blob))
    rc, out, err = run(capsys, "lift", "--data", str(bad))
    assert (rc, out) == (2, "")
    assert err == f"error: phi[0][0] = {blob['phi'][0][0]!r} is not an int64 integer\n"


@pytest.mark.parametrize("params,named", [
    ({"system": "z125", "q": 79, "budget": "5"}, "budget"),
    ({"system": "generic", "sdf": "z7_8_8", "q": 41, "d": "8"}, "d"),
    ({"system": "generic", "sdf": "z7_8_8", "q": 41, "d": 8, "lam": True}, "lam"),
    ({"system": "paired", "sdf": 7, "q": 17}, "sdf"),
], ids=["budget-str", "d-str", "lam-bool", "sdf-int"])
def test_run_solve_rejects_a_wrongly_typed_param(tmp_path, capsys, params, named):
    recipe = tmp_path / "solve.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "solve", "op": "solve", "out": "$d", "params": params}]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    [record] = json.loads(out)
    kind = "a str" if named == "sdf" else "an int"
    assert not record["verified"]
    assert record["error"] == f"step 'solve': params.{named} is not {kind}"


# a lifting datum as written to a file: the group {"type": "cyclic", "n": 7}
# sits at sdf.group and the field {"p": 89, "m": 1, "modulus": [0, 1], ...}
# at field
@pytest.mark.parametrize("path,value,named", [
    (("sdf", "group", "n"), 7.0, "n = 7.0 is not an int64 integer"),
    (("sdf", "group", "n"), "7", "n = '7' is not an int64 integer"),
    (("sdf", "group", "n"), True, "n = True is not an int64 integer"),
    (("field", "p"), 89.0, "p = 89.0 is not an int64 integer"),
    (("field", "m"), "1", "m = '1' is not an int64 integer"),
    (("field", "modulus", 1), 1.0, "modulus[1] = 1.0 is not an int64 integer"),
    (("sdf", "group", "type"), ["cyclic"], "type = ['cyclic'] is not a string"),
    (("sdf", "kind"), 7, "kind = 7 is not a string"),
    (("sdf", "provenance"), 7, "provenance = 7 is not a string"),
    (("provenance",), None, "provenance = None is not a string"),
], ids=["n-float", "n-str", "n-bool", "p-float", "m-str", "modulus-float", "type-list",
        "kind-int", "sdf-provenance-int", "provenance-null"])
def test_lift_rejects_a_malformed_descriptor(tmp_path, capsys, path, value, named):
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    *keys, last = path
    functools.reduce(lambda obj, key: obj[key], keys, blob)[last] = value
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(blob))
    assert run(capsys, "lift", "--data", str(bad)) == (2, "", f"error: {named}\n")


def test_lift_rejects_a_field_order_before_building_the_field(tmp_path, capsys, monkeypatch):
    # GF(1000003) would take about a second and 16 MB of tables to build,
    # and e = 88 does not divide q - 1 = 1000002
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    blob["field"]["p"] = 1000003

    def unbuilt(*args, **kwargs):
        raise AssertionError("the field was built before its order was checked")

    monkeypatch.setattr(serialize, "make_field", unbuilt)
    bad = tmp_path / "datum.json"
    bad.write_text(json.dumps(blob))
    assert run(capsys, "lift", "--data", str(bad)) == (2, "", "error: need d | e and e | q-1\n")


# a product file whose descriptor or top level is not an object, or whose
# factors are not a list, is malformed (exit 2), not a failed verification
@pytest.mark.parametrize("cmd,edit,named", [
    (["lift", "--data"], lambda b: b["sdf"].update(group=7), "group = 7 is not an object"),
    (["lift", "--data"], lambda b: b.update(field=[]), "field = [] is not an object"),
    (["assemble", "--ingredient", "trivial", "--fdf"],
     lambda b: b["group"].update(factors=5), "factors = 5 is not a list"),
    (["assemble", "--ingredient", "trivial", "--fdf"],
     lambda b: b["group"].update(factors=[5, 7]), "group = 5 is not an object"),
    (["lift", "--data"], lambda b: [1, 2], "lifting datum = [1, 2] is not an object"),
    (["verify-design"], lambda b: [1, 2], "design = [1, 2] is not an object"),
], ids=["sdf-group-int", "field-list", "factors-int", "factor-int", "lift-toplevel-list",
        "verify-design-toplevel-list"])
def test_a_non_object_descriptor_or_file_exits_2(tmp_path, capsys, cmd, edit, named):
    datum = catalog.lifting_datum("fdf_z7xF89")
    blob = serialize.lifting_to_dict(datum) if cmd[0] == "lift" else \
        serialize.family_to_dict(lift_sdf(datum))
    blob = edit(blob) or blob
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert run(capsys, *cmd, str(bad)) == (2, "", f"error: {named}\n")


def test_import_of_a_non_object_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert run(capsys, "import", str(bad)) == (
        2, "", "parse failure: design = [1, 2] is not an object\n")


@pytest.fixture(scope="module")
def recipe_files(tmp_path_factory):
    """The directory the 624-point and FHS recipes wrote their files to."""
    recipes = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes"
    out = tmp_path_factory.mktemp("recipes")
    for recipe in ("thm_2_3_624.json", "thm_6_8_fhs623.json"):
        assert main(["run", str(recipes / recipe), "--workdir", str(out)]) == 0
    return out


def _edited(src, dst, edit):
    """dst holding the JSON of src after edit(blob)."""
    blob = json.loads(src.read_text())
    edit(blob)
    dst.write_text(json.dumps(blob))
    return dst


def test_verify_design_on_a_recipe_file_and_on_a_moved_point(recipe_files, tmp_path, capsys):
    design = recipe_files / "rbibd_624.json"
    rc, out, _ = run(capsys, "--format", "json", "verify-design", str(design))
    assert (rc, json.loads(out)) == (0, {"bibd": True, "resolution": True})

    def move(blob):                     # a point of block 0 to one not in it
        blob["blocks"][0][0] = next(x for x in range(blob["v"]) if x not in blob["blocks"][0])

    moved = _edited(design, tmp_path / "moved.json", move)
    rc, out, _ = run(capsys, "--format", "json", "verify-design", str(moved))
    assert (rc, json.loads(out)) == (1, {"bibd": False, "resolution": False})


def test_verify_fhs_on_a_recipe_file_and_on_a_swap(recipe_files, tmp_path, capsys):
    fhs = recipe_files / "fhs_623.json"
    rc, out, _ = run(capsys, "--format", "json", "verify-fhs", str(fhs))
    assert (rc, json.loads(out)) == (0, {"n": 623, "strictly_optimal": True, "failing_L": []})

    def swap(blob):
        seq = blob["seq"]
        seq[0], seq[1] = seq[1], seq[0]

    rc, out, _ = run(capsys, "--format", "json", "verify-fhs",
                     str(_edited(fhs, tmp_path / "swapped.json", swap)))
    blob = json.loads(out)
    assert (rc, blob["strictly_optimal"], blob["failing_L"][:5]) == (1, False, [4, 5, 6, 7, 8])


def test_verify_ccc_on_a_written_code_and_on_a_wrong_distance(tmp_path, capsys):
    pdf, ccc = tmp_path / "pdf.json", tmp_path / "ccc.json"
    serialize.dump(serialize.family_to_dict(
        lifting.fdf_to_pdf(lift_sdf(catalog.lifting_datum("fdf_z7xF89")))), pdf)
    assert run(capsys, "ccc-from-pdf", "--pdf", str(pdf), "--out", str(ccc))[0] == 0
    rc, out, _ = run(capsys, "--format", "json", "verify-ccc", str(ccc))
    assert (rc, json.loads(out)) == (0, {"M": 623, "d": 616, "composition_ok": True,
                                         "verified": True})
    off = _edited(ccc, tmp_path / "off.json", lambda blob: blob.update(d=blob["d"] + 1))
    rc, out, _ = run(capsys, "--format", "json", "verify-ccc", str(off))
    assert (rc, json.loads(out)["verified"]) == (1, False)


def test_catalog_shows_a_lifting_entry(capsys):
    rc, out, _ = run(capsys, "--format", "json", "catalog", "fdf_z63xF25")
    blob = json.loads(out)
    assert (rc, blob["kind"], blob["verified"]) == (0, "lifting", False)
    assert blob["zero_positions"] == [[i, 0] for i in range(1, 9)]


def test_assemble_with_a_design_file_as_ingredient(tmp_path, capsys):
    fdf = tmp_path / "fdf.json"
    serialize.dump(serialize.family_to_dict(lift_sdf(catalog.lifting_datum("fdf_z7xF89"))), fdf)
    design, res = designs.trivial_rbibd(8)
    serialize.dump(serialize.design_to_dict(design, res), tmp_path / "trivial8.json")
    serialize.dump(serialize.design_to_dict(design), tmp_path / "unresolved8.json")
    for ingredient in ("trivial", str(tmp_path / "trivial8.json")):
        out = tmp_path / f"with_{Path(ingredient).stem}.json"
        assert run(capsys, "assemble", "--fdf", str(fdf), "--ingredient", ingredient,
                   "--out", str(out))[0] == 0
    assert (tmp_path / "with_trivial.json").read_bytes() == \
        (tmp_path / "with_trivial8.json").read_bytes()
    rc, out, err = run(capsys, "assemble", "--fdf", str(fdf), "--ingredient",
                       str(tmp_path / "unresolved8.json"))
    assert (rc, out, err) == (2, "", "error: ingredient file carries no resolution\n")


@pytest.mark.parametrize("argv", [["assemble", "--ingredient", "trivial"], ["fhs-from-fdf"]],
                         ids=["assemble", "fhs-from-fdf"])
def test_a_frame_family_on_a_huge_group_is_refused_with_its_report(tmp_path, argv):
    # over C_{10^12} an array sized by |G| takes 7.28 TiB; the child's
    # address space is capped at 4 GiB, so such an array fails there
    fdf = families.DesignFamily(families.FDF, AbelianGroup.cyclic(10 ** 12), 1,
                                ((1, 2, 4), (1, 5, 10)), (0,), ((0,), (1,)))
    path = tmp_path / "fdf.json"
    serialize.dump(serialize.family_to_dict(fdf), path)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from framedf.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code, *argv, "--fdf", str(path)],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", "error: family fails verify_fdf: the blocks hold 12 differences, "
               "not lam(|G| - |N|) = 999999999999\n")


def _loaded_after(cwd, *commands):
    """{module: loaded} for framedf.search and framedf._split after cli.main
    has run `commands` in a fresh interpreter that writes no bytecode; each
    command must exit 0."""
    code = ("import contextlib, io, json, sys\n"
            "from framedf import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(json.dumps({m: m in sys.modules for m in ('framedf.search', 'framedf._split')}))")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, check=True, cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"))
    return json.loads(out.stdout)


def test_commands_that_do_not_search_leave_search_unloaded(tmp_path):
    recipes = [["run", str(RECIPES / name), "--workdir", str(tmp_path)] for name in
               ("thm_2_3_624.json", "thm_6_5_ccc623.json", "thm_6_8_fhs623.json")]
    design = str(tmp_path / "rbibd_624.json")
    loaded = _loaded_after(tmp_path, *recipes, ["catalog"], ["catalog", "fdf_z7xF89"],
                           ["verify-design", design], ["import", design])
    assert loaded == {"framedf.search": False, "framedf._split": False}
    assert {p.name for p in tmp_path.iterdir()} >= {"rbibd_624.json", "fhs_623.json"}


@pytest.mark.parametrize("argv", [
    ["qbound", "3", "7"],
    ["search", "--system", "generic", "--sdf", "z7_8_8", "--q", "41", "--d", "8"],
    ["run", "solve.json"],
], ids=["qbound", "search", "run-solve"])
def test_commands_that_search_load_search(tmp_path, argv):
    (tmp_path / "solve.json").write_text(json.dumps({"steps": [
        {"op": "solve", "out": "$s", "params": {"system": "generic", "sdf": "z7_8_8",
                                                 "q": 41, "d": 8}}]}))
    assert _loaded_after(tmp_path, argv)["framedf.search"]
