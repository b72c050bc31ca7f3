"""The benchmark's output checks, run through its own Runner.

perfbench/selftest.py changes one point of the 624-point design file by
copying the rows with list(b).  Since designs store their rows as int64
arrays that copy holds numpy scalars, which serialize.dump rejects, so the
operation fails on a TypeError before the file is compared.  This module
writes the changed design (rows copied with tolist()) and checks that the
benchmark's recipe operation fails on the file's SHA-256.

It also runs the benchmark's z125@79 solve against perfbench/golden.json,
so that a change of the cluster path's node count or assignment fails
here as well as in the benchmark, and checks that the benchmark's tracer
sees a search the CLI runs, although the CLI imports the search layer only
when a command searches."""

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from framedf import cli, search, serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OP = "recipe_s.rbibd624"
SOLVE_OP = "solve_s.z125_79"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _run_op(bench, workload, op, wd):
    wd.mkdir()
    runner = bench.Runner(workload, bench.Ctx(0, wd, json.loads(bench.GOLDEN.read_text())))
    runner.setup("setup")
    runner._attempt(op, dict(bench.WORKLOADS[workload]["ops"])[op])
    return runner


def test_benchmark_fails_a_624_point_design_with_one_point_changed(bench, tmp_path,
                                                                   monkeypatch):
    runner = _run_op(bench, "recipes", OP, tmp_path / "intact")
    assert (runner.failed, runner.errors) == (0, [])
    dump = serialize.dump

    def changed_dump(obj, path):
        if Path(path).name == "rbibd_624.json":
            blocks = obj["blocks"].tolist()
            blocks[0][0] = (blocks[0][0] + 1) % obj["v"]
            obj = dict(obj, blocks=blocks)
        dump(obj, path)

    monkeypatch.setattr(serialize, "dump", changed_dump)
    runner = _run_op(bench, "recipes", OP, tmp_path / "changed")
    assert runner.failed == 1
    assert runner.errors[0].startswith(f"{OP}: file.rbibd_624.json: got ")


def test_benchmark_z125_79_solve_matches_its_golden(bench, tmp_path, monkeypatch):
    runner = _run_op(bench, "search", SOLVE_OP, tmp_path / "intact")
    assert (runner.failed, runner.errors) == (0, [])
    assert runner.sizes[SOLVE_OP]["nodes"] == 464
    solve = search.solve

    def one_node_more(*args, **kwargs):
        res = solve(*args, **kwargs)
        return dataclasses.replace(res, nodes=res.nodes + 1)

    monkeypatch.setattr(search, "solve", one_node_more)
    runner = _run_op(bench, "search", SOLVE_OP, tmp_path / "drifted")
    assert runner.failed == 1
    assert runner.errors[0].startswith(f"{SOLVE_OP}: solve.z125_79: got ")


def test_tracer_records_a_cli_search_and_restores_solve(tracing, capsys):
    solve = search.solve
    with tracing.Tracer() as tracer:
        rc = cli.main(["search", "--system", "generic", "--sdf", "z7_8_8", "--q", "41",
                       "--d", "8"])
    assert rc == 0
    [span] = [s for s in tracer.spans if s[0] == "search.solve"]
    assert tracer.spans[span[3]][0] == "cli.main" and span[6] == 27
    assert search.solve is solve
