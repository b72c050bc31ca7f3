"""The benchmark's output check, run against a changed design.

perfbench/selftest.py changes one point of the 624-point design file by
copying the rows with list(b).  Since designs store their rows as int64
arrays that copy holds numpy scalars, which serialize.dump rejects, so the
operation fails on a TypeError before the file is compared.  This test
writes the changed design (rows copied with tolist()) and checks that the
benchmark's recipe operation fails on the file's SHA-256."""

import importlib
import json
from pathlib import Path

import pytest

from framedf import serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OP = "recipe_s.rbibd624"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


def _run_624_recipe(bench, wd):
    wd.mkdir()
    runner = bench.Runner("recipes", bench.Ctx(0, wd, json.loads(bench.GOLDEN.read_text())))
    runner.setup("setup")
    runner._attempt(OP, dict(bench.WORKLOADS["recipes"]["ops"])[OP])
    return runner


def test_benchmark_fails_a_624_point_design_with_one_point_changed(bench, tmp_path,
                                                                   monkeypatch):
    runner = _run_624_recipe(bench, tmp_path / "intact")
    assert (runner.failed, runner.errors) == (0, [])
    dump = serialize.dump

    def changed_dump(obj, path):
        if Path(path).name == "rbibd_624.json":
            blocks = obj["blocks"].tolist()
            blocks[0][0] = (blocks[0][0] + 1) % obj["v"]
            obj = dict(obj, blocks=blocks)
        dump(obj, path)

    monkeypatch.setattr(serialize, "dump", changed_dump)
    runner = _run_624_recipe(bench, tmp_path / "changed")
    assert runner.failed == 1
    assert runner.errors[0].startswith(f"{OP}: file.rbibd_624.json: got ")
