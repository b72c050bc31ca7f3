import functools
import json
from pathlib import Path

from framedf import catalog, search, serialize
from framedf.cli import main
from framedf.designs import BlockDesign, affine_plane


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


def test_recipe_outputs_byte_stable(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "src" / "framedf" / "recipes" / "thm_6_8_fhs623.json"
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert run(capsys, "run", str(recipe), "--workdir", str(d1))[0] == 0
    assert run(capsys, "run", str(recipe), "--workdir", str(d2))[0] == 0
    assert (d1 / "fhs_623.json").read_bytes() == (d2 / "fhs_623.json").read_bytes()
