"""Self-test of the benchmark's checks (about two minutes):

* a 624-point design file with one point changed counts as a failed
  operation;
* on both solver paths (z125@79 and z7@89), a solver assignment with one
  value changed counts as a failed operation at the golden seed and at
  another seed, and so does a node count off by one;
* the metric names and units a run emits equal those in BENCHMARK.json,
  with and without tracing;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

FAILURES: list[str] = []


def check(cond, what):
    print(("PASS " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def failed_ops(workload, op_name, seed, patch=None):
    """Run one operation of a workload (after its set-up) with an optional
    (module, attribute, replacement) patch; return the failure count."""
    wd = run.OUT / f"selftest-{op_name}-{seed}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    runner = run.Runner(workload, run.Ctx(seed, wd, json.loads(run.GOLDEN.read_text())))
    runner.setup("setup")
    fn = dict(run.WORKLOADS[workload]["ops"])[op_name]
    if patch is None:
        runner._attempt(op_name, fn)
        return runner.failed
    owner, attr, new = patch
    orig = getattr(owner, attr)
    setattr(owner, attr, new)
    try:
        runner._attempt(op_name, fn)
    finally:
        setattr(owner, attr, orig)
    return runner.failed


def corrupt_design_dump():
    from framedf import serialize
    orig = serialize.dump

    def dump(obj, path):
        if Path(path).name == "rbibd_624.json":
            obj = dict(obj, blocks=[list(b) for b in obj["blocks"]])
            obj["blocks"][0][0] = (obj["blocks"][0][0] + 1) % obj["v"]
        orig(obj, path)
    return serialize, "dump", dump


_SOLVED: dict = {}


def corrupt_solver(value=False, nodes=False):
    """Patch ``search.solve`` to return its real result, computed once per
    system and reused, with one value or the node count changed."""
    from framedf import search
    orig = search.solve

    def solve(system, *args, **kwargs):
        key = (system.field.q, len(system.unknowns))
        if key not in _SOLVED:
            _SOLVED[key] = orig(system, *args, **kwargs)
        res = _SOLVED[key]
        changed = dict(res.assignment)
        if value:
            name = system.unknowns[0]
            changed[name] = changed[name] % (system.field.q - 1) + 1
        return search.SolveResult(res.status, changed, res.nodes + nodes)
    return search, "solve", solve


def last_line_metrics(argv, cwd):
    """Exit code and the parsed last stdout line (None unless it is JSON)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    run._import_framedf()
    check(failed_ops("recipes", "recipe_s.rbibd624", 0) == 0, "intact 624-point design passes")
    check(failed_ops("recipes", "recipe_s.rbibd624", 0, corrupt_design_dump()) == 1,
          "624-point design with one point changed fails")
    for op in ("solve_s.z125_79", "solve_s.z7_89"):
        check(failed_ops("search", op, 0, corrupt_solver()) == 0, f"{op}: intact result passes")
        for seed in (0, 7):
            check(failed_ops("search", op, seed, corrupt_solver(value=True)) == 1,
                  f"{op}: changed solver value fails at seed {seed}")
            check(failed_ops("search", op, seed, corrupt_solver(nodes=True)) == 1,
                  f"{op}: changed node count fails at seed {seed}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        rc, got = last_line_metrics(["--workload", "recipes", "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace)], run.ROOT)
        units = {k: v["unit"] for k, v in got["metrics"].items()} if got else None
        check(rc == 0 and units == want and got["correct"],
              f"--trace {trace} emits exactly the {section} metrics of BENCHMARK.json")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, got = last_line_metrics(["--workload", "recipes", "--seed", "0", "--seconds", "1",
                                 "--trace", "0"], bare)
    check(rc != 0 and got is None, "without src/ the benchmark exits nonzero with no result")
    shutil.rmtree(bare)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
