import functools
import hashlib
import json
from pathlib import Path

import pytest

from framedf import catalog, search, serialize
from framedf.cli import main
from framedf.designs import BlockDesign, affine_plane
from framedf.lifting import lift_sdf


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
    blob["resolution"][0] = blob["resolution"][1]       # corrupt the class list
    bad = tmp_path / "bad.json"
    serialize.dump(blob, bad)
    rc, _, err = run(capsys, "import", str(bad))
    assert rc == 1 and "rejected" in err


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


def test_run_recipe_624(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes" / "thm_2_3_624.json"
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe),
                     "--workdir", str(tmp_path))
    assert rc == 0
    steps = json.loads(out)
    assert all(s["verified"] for s in steps)
    assert (tmp_path / "rbibd_624.json").exists()


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

