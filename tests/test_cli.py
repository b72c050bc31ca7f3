import functools
import hashlib
import json
from pathlib import Path

import pytest

from framedf import catalog, cli, families, lifting, search, serialize
from framedf.cli import main
from framedf.designs import BlockDesign, affine_plane
from framedf.groups import AbelianGroup
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


def test_lift_rejects_an_sdf_element_outside_the_group(tmp_path, capsys):
    # the SDF's 0s written as 7, which Z7 would reduce to 0 again
    blob = serialize.lifting_to_dict(catalog.lifting_datum("fdf_z7xF89"))
    blob["sdf"]["blocks"] = [[7 if x == 0 else x for x in b] for b in blob["sdf"]["blocks"]]
    bad = tmp_path / "wrapped_sdf.json"
    serialize.dump(blob, bad)
    rc, _, err = run(capsys, "lift", "--data", str(bad))
    assert rc == 2 and "SDF block 0 entry 0 = 7 lies outside 0..6" in err


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



@pytest.mark.parametrize("step,problem", [
    ({"id": "datum2", "op": "catalog-lifting", "params": ["fdf_z7xF89"], "out": "$e"},
     "'params' an object"),
    ({"id": "assemble", "op": "assemble", "in": "$d", "params": "affine", "out": "$x"},
     "'params' an object"),
    ({"id": "datum2", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
      "out": "$e", "file": ["datum.json"]}, "'file' a string"),
], ids=["params-list", "params-string", "file-list"])
def test_run_rejects_malformed_params_or_file(tmp_path, capsys, step, problem):
    recipe = tmp_path / "malformed.json"
    recipe.write_text(json.dumps({"steps": [
        {"id": "datum", "op": "catalog-lifting", "params": {"name": "fdf_z7xF89"},
         "out": "$d"}, step]}))
    rc, out, _ = run(capsys, "--format", "json", "run", str(recipe))
    assert rc == 2
    [record] = json.loads(out)
    assert record["step"] == "recipe" and not record["verified"] and problem in record["error"]


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
    rc, _, err = run(capsys, "search", "--system", "paley3", "--p", "5", "--q", "13")
    assert (rc, err) == (1, "search: exhausted after 288 nodes\n")
    recipe = tmp_path / "solve_paley3.json"
    recipe.write_text(json.dumps({"steps": [{"id": "solve", "op": "solve", "out": "$d",
                                             "params": {"system": "paley3", "p": 5, "q": 13}}]}))
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
    ({"system": "paley3", "p": 5.0, "q": 13}, "p"),
    ({"system": "paired", "sdf": 7, "q": 17}, "sdf"),
], ids=["budget-str", "d-str", "lam-bool", "p-float", "sdf-int"])
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
