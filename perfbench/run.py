"""framedf benchmark: one closed-loop client running one workload in-process.

    python3 perfbench/run.py --workload recipes --seed 0 --seconds 30 --trace 0

Workloads (one pass = every operation of the workload, in order):

* ``recipes``  -- ``framedf run`` on the 624-point, CCC-623 and FHS-623
  recipes; then ``lift`` -> ``assemble --ingredient affine`` ->
  ``verify-design`` -> ``import`` on the stored repaired z63 datum
  (v = 1576); then ``compose_fdf_dm`` + ``verify_fdf`` at order 14175.
  Designs, codes, families, lifting, serialize and cli do the work; the
  search layer does none, so a search change should not move it.
* ``search``   -- fresh ``solve`` on ``z125_system(79)`` (cluster
  enumeration, 464 nodes) and on ``generic_system(z7_8_8, 89, 88, 8, 1)``
  with budget 3,000,000 (single-cluster ``_dfs_direct``, 249,889 nodes),
  the two solver paths; then the narrow z63 repair
  (``repair_block(widen=False)``, which must be proved infeasible), where
  the search layer works through ``_repair_search`` instead of ``solve``.
  Search and field arithmetic do the work.

A pass of ``search`` takes about 75 s on a 2-core x86_64 box, so a run
holds one pass whatever ``--seconds`` asks for.  The widened z63 repair
(``framedf run thm_2_6_1576.json``, about 25 s) is left out to keep the
benchmark's full schedule (26 runs of each workload) within an hour: as a
third workload it would add 26 runs, and inside ``search`` it would
stretch every run to about 100 s.  The 1576-point design it leads to is
still assembled and verified by ``recipes``, from the stored repaired
datum.

The seed is passed to the program as its solver seed (``--seed`` of the
CLI, ``seed=`` of ``solve``).  Neither solver path reads the seed today, so
the solver assignments and node counts that ``golden.json`` stores for seed
0 hold for every seed and are compared on every run; a change of search
order shows as a failed operation.  Every solver result is also re-checked
with the lifting conditions and ``verify_fdf``, and recipe outputs against
their stored SHA-256.  A mismatch, a nonzero CLI exit or an exception
counts as a failed operation.

Set-up (importing framedf, loading the catalog entries and fields a
workload uses, checking the stored datum's hash and lifting conditions)
runs in ten fresh interpreters, as every CLI invocation pays it, five
before the passes and five after them so that the samples span the run;
``setup_s`` is their median at the reference speed (see below).  Passes
repeat while the next one is expected to end within ``--seconds`` (at
least one).

On shared 2-vCPU hosts a vCPU's speed switches between levels up to 1.9x
apart, every few seconds and over minutes, and the process's CPU time
slows with it, so pass wall times of one program spread across runs by
more than a regression bound may allow.  The end-to-end ``pass_ref_s`` is
therefore the pass wall time at a fixed reference speed: during an
untraced pass a SIGALRM handler times a fixed pure-Python loop every
CAL_EVERY_S seconds (its own time is taken out of the pass), and the wall
time is scaled by CAL_REF_S over the loop's mean time.  ``setup_s`` is
scaled the same way, by the loop timed in each set-up interpreter before
and after its set-up.  A slower program moves these as much as it moves
the wall time; a slower host slows both the pass and the loop, and
largely cancels.  The raw wall times are in the record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every pass is traced and the last line carries the
per-layer metrics.  The tracing overhead is the spans of a pass times the
cost the tracer adds to one call, timed on a no-op function: a traced and
an untraced ``search`` pass would not both fit in one run.  The line
before the last is a JSON record with per-operation times, raw pass and
set-up times, sizes, failures and the environment; spans are written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Tracer, empty_group, group_totals, pairs, span_cost

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
RECIPES = SRC / "framedf" / "recipes"
DATUM = HERE / "data" / "z63xF25_repaired.json"
GOLDEN = HERE / "golden.json"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 5      # fresh interpreters before the passes, and again after
Z7_BUDGET = 3_000_000


class Mismatch(Exception):
    """An output differs from what the benchmark expects."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _import_framedf():
    sys.path.insert(0, str(SRC))
    import framedf
    if Path(framedf.__file__).resolve().parent != (SRC / "framedf").resolve():
        sys.exit(f"perfbench: imported framedf from {framedf.__file__}, not {SRC}")
    return framedf


class Ctx:
    """Per-run state handed to every operation."""

    def __init__(self, seed: int, wd: Path, golden: dict | None):
        self.seed = seed
        self.wd = wd
        self.golden = golden      # None while recording golden values
        self.observed: dict = {}

    def check(self, key, value):
        """Compare an observed output with its golden value."""
        self.observed[key] = value
        if self.golden is not None:
            want = self.golden.get(key)
            expect(want == value, f"{key}: got {value}, golden {want}")


# ---------------------------------------------------------------------------
# Operations.  Each returns a dict of sizes and raises on a wrong output.


def run_cli(ctx, *argv):
    from framedf import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["--format", "json", "--seed", str(ctx.seed), *map(str, argv)])
    except SystemExit as exc:
        raise Mismatch(f"framedf {argv[0]} exited via SystemExit({exc.code})") from None
    expect(rc == 0, f"framedf {argv[0]} exited {rc}")
    return json.loads(buf.getvalue())


def recipe(name, files, sizes_of):
    def op(ctx):
        summary = run_cli(ctx, "run", RECIPES / f"{name}.json", "--workdir", ctx.wd)
        expect(summary and all(s["verified"] for s in summary), f"{name}: a step failed")
        steps = {s["step"]: {k: v for k, v in s.items() if k != "seconds"} for s in summary}
        ctx.check(f"summary.{name}", sha256_json(steps))
        for f in files:
            ctx.check(f"file.{f}", sha256_file(ctx.wd / f))
        return sizes_of(steps)
    return op


def _design_sizes(q):
    def sizes(steps):
        v = steps["assemble"]["v"]
        return {"G": v - 1, "q": q, "v": v, "blocks": steps["assemble"]["blocks"],
                "pairs_scanned": pairs(v)}
    return sizes


def _ccc_sizes(steps):
    n, m = steps["ccc"]["n"], steps["ccc"]["M"]
    return {"G": n, "q": 89, "n": n, "M": m, "d": steps["ccc"]["d"],
            "blocks": steps["pdf"]["blocks"], "codeword_pairs": pairs(m)}


def _fhs_sizes(steps):
    n = steps["fhs"]["n"]
    return {"G": n, "q": 89, "n": n, "alphabet": steps["fhs"]["alphabet"],
            "window_cells": (n - 1) * n * n}


def chain_rbibd1576(ctx):
    fdf, design = ctx.wd / "fdf_1576.json", ctx.wd / "rbibd_1576.json"
    lift = run_cli(ctx, "lift", "--data", DATUM, "--out", fdf)
    expect(lift["verified"], "lift: frame family fails verify_fdf")
    asm = run_cli(ctx, "assemble", "--fdf", fdf, "--ingredient", "affine", "--out", design)
    expect(asm["verified"] and asm["v"] == 1576, f"assemble: {asm}")
    ver = run_cli(ctx, "verify-design", design)
    expect(ver == {"bibd": True, "resolution": True}, f"verify-design: {ver}")
    imp = run_cli(ctx, "import", design)
    expect(imp["accepted"], f"import: {imp}")
    ctx.check("file.rbibd_1576.json", sha256_file(design))
    return {"G": 1575, "q": 25, "v": asm["v"], "blocks": asm["blocks"],
            "fdf_blocks": lift["blocks"], "pairs_scanned": pairs(asm["v"])}


def chain_dm14175(ctx):
    from framedf import families, fields, lifting, serialize
    fdf = serialize.family_from_dict(serialize.load(ctx.wd / "fdf_1576.json"))
    dm = lifting.homogenize(lifting.mul_table_dm(fields.make_field(3, 2)))
    comp = lifting.compose_fdf_dm(fdf, dm)
    expect(families.verify_fdf(comp).ok, "composed family fails verify_fdf")
    expect((comp.group.order, len(comp.blocks), len(comp.subgroup)) == (14175, 243, 567),
           "composed family has the wrong shape")
    ctx.check("compose.dm14175", sha256_json([[int(x) for x in b] for b in comp.blocks]))
    return {"G": comp.group.order, "q": 9, "blocks": len(comp.blocks),
            "subgroup": len(comp.subgroup)}


def _verify_solution(ctx, key, sysm, res):
    from framedf import families, lifting
    expect(res.status == "sat", f"{key}: solve returned {res.status}")
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    expect(lifting.check_lifting_conditions(data).ok, f"{key}: lifting conditions fail")
    fdf = lifting.lift_sdf(data)
    expect(families.verify_fdf(fdf).ok, f"{key}: lifted family fails verify_fdf")
    ctx.check(f"solve.{key}", {"nodes": res.nodes, "assignment": sha256_json(res.assignment)})
    return {"G": fdf.group.order, "q": data.field.q, "unknowns": len(sysm.unknowns),
            "nodes": res.nodes, "blocks": len(fdf.blocks)}


def solve_z125_79(ctx):
    from framedf import search
    sysm = search.z125_system(79)
    return _verify_solution(ctx, "z125_79", sysm, search.solve(sysm, seed=ctx.seed))


def solve_z7_89(ctx):
    from framedf import catalog, search
    sysm = search.generic_system(catalog.family("z7_8_8"), 89, 88, 8, 1)
    res = search.solve(sysm, seed=ctx.seed, budget=Z7_BUDGET)
    return _verify_solution(ctx, "z7_89", sysm, res)


def repair_narrow(ctx):
    from framedf import catalog, search
    d63 = catalog.lifting_datum("fdf_z63xF25")
    suspects = d63.zero_positions()
    try:
        search.repair_block(d63, suspects, widen=False)
    except search.RepairError:
        return {"G": 63, "q": 25, "blocks": len(d63.phi), "suspects": len(suspects)}
    raise Mismatch("narrow z63 repair succeeded; the pigeonhole proof expects RepairError")


# ---------------------------------------------------------------------------
# Set-up: what a user pays once before the first pass.


def _setup_fields(*orders):
    def step(ctx):
        from framedf import fields
        for p, m in orders:
            fields.make_field(p, m)
    return step


def _setup_catalog(*names):
    def step(ctx):
        from framedf import catalog
        for name in names:
            entry = catalog.entry_info(name)
            (catalog.lifting_datum if entry["kind"] == "lifting" else catalog.family)(name)
    return step


def setup_stored_datum(ctx):
    from framedf import lifting, serialize
    ctx.check("file.datum", sha256_file(DATUM))
    data = serialize.lifting_from_dict(serialize.load(DATUM))
    rep = lifting.check_lifting_conditions(data)
    expect(rep.ok, f"stored z63 datum fails the lifting conditions: {rep.detail}")


WORKLOADS = {
    "recipes": {
        "setup": (_setup_catalog("fdf_z7xF89"), _setup_fields((2, 3), (3, 2)),
                  setup_stored_datum),
        "ops": (
            ("recipe_s.rbibd624", recipe("thm_2_3_624", ["rbibd_624.json"], _design_sizes(89))),
            ("recipe_s.ccc623", recipe("thm_6_5_ccc623", [], _ccc_sizes)),
            ("recipe_s.fhs623", recipe("thm_6_8_fhs623", ["fhs_623.json"], _fhs_sizes)),
            ("chain_s.rbibd1576", chain_rbibd1576),
            ("chain_s.dm14175", chain_dm14175),
        ),
    },
    "search": {
        "setup": (_setup_catalog("z7_8_8", "z125_6_6", "fdf_z63xF25"),
                  _setup_fields((79, 1), (89, 1), (5, 2))),
        "ops": (
            ("solve_s.z125_79", solve_z125_79),
            ("solve_s.z7_89", solve_z7_89),
            ("repair_s.narrow", repair_narrow),
        ),
    },
}

END_TO_END = {"setup_s": "s", "pass_ref_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER = {
    "search.solve_s": "s", "search.nodes": "count", "search.nodes_per_s": "1/s",
    "search.system_build_s": "s", "search.repair_narrow_s": "s",
    "designs.rbibd_from_fdf_s": "s", "designs.verify_bibd_s": "s",
    "designs.verify_resolution_s": "s", "designs.verify_one_rotational_s": "s",
    "designs.pairs_scanned": "count",
    "codes.ccc_from_pdf_s": "s", "codes.min_distance_s": "s", "codes.codeword_pairs": "count",
    "codes.verify_strictly_optimal_s": "s", "codes.window_cells": "count",
    "families.verify_fdf_s": "s", "families.verify_pdf_s": "s", "families.diffs_counted": "count",
    "lifting.check_conditions_s": "s", "lifting.lift_sdf_s": "s", "lifting.fdf_to_pdf_s": "s",
    "lifting.compose_fdf_dm_s": "s",
    "groups.crt_iso_s": "s",
    "serialize.dump_s": "s", "serialize.load_s": "s", "serialize.bytes": "B",
    "cli.overhead_s": "s",
    "catalog.load_s": "s", "fields.make_field_s": "s",
    "fields.self_s": "s", "groups.self_s": "s", "families.self_s": "s", "catalog.self_s": "s",
    "lifting.self_s": "s", "search.self_s": "s", "designs.self_s": "s", "codes.self_s": "s",
    "serialize.self_s": "s", "bench.self_s": "s",
    "cpu_s": "s", "cpu_util": "ratio", "trace.overhead_s": "s",
}

# per-layer metric -> span names whose inclusive seconds (or counts) it sums
_INCL = {
    "search.solve_s": ("search.solve",),
    "search.system_build_s": ("search.z125_system", "search.generic_system"),
    "search.repair_narrow_s": ("search.repair_narrow",),
    "designs.rbibd_from_fdf_s": ("designs.rbibd_from_fdf",),
    "designs.verify_bibd_s": ("designs.verify_bibd",),
    "designs.verify_resolution_s": ("designs.verify_resolution",),
    "designs.verify_one_rotational_s": ("designs.verify_one_rotational",),
    "codes.ccc_from_pdf_s": ("codes.ccc_from_pdf",),
    "codes.min_distance_s": ("codes.min_distance",),
    "codes.verify_strictly_optimal_s": ("codes.verify_strictly_optimal",),
    "families.verify_fdf_s": ("families.verify_fdf",),
    "families.verify_pdf_s": ("families.verify_pdf",),
    "lifting.check_conditions_s": ("lifting.check_lifting_conditions",),
    "lifting.lift_sdf_s": ("lifting.lift_sdf",),
    "lifting.fdf_to_pdf_s": ("lifting.fdf_to_pdf",),
    "lifting.compose_fdf_dm_s": ("lifting.compose_fdf_dm",),
    "groups.crt_iso_s": ("groups.crt_iso",),
    "serialize.dump_s": ("serialize.dump",),
    "serialize.load_s": ("serialize.load",),
}
_COUNTS = {
    "search.nodes": ("search.solve",),
    "designs.pairs_scanned": ("designs.verify_bibd",),
    "codes.codeword_pairs": ("codes.min_distance",),
    "codes.window_cells": ("codes.verify_strictly_optimal",),
    "families.diffs_counted": ("families.verify_fdf", "families.verify_pdf"),
    "serialize.bytes": ("serialize.dump", "serialize.load"),
}
_SETUP_INCL = {
    "catalog.load_s": ("catalog.lifting_datum", "catalog.family"),
    "fields.make_field_s": ("fields.make_field",),
}


# ---------------------------------------------------------------------------
# The closed loop


CAL_EVERY_S = 0.5
CAL_LOOP = 10_000
CAL_REF_S = 0.0005      # seconds the loop takes at the reference speed


def _cal_loop() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(CAL_LOOP):
            s += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Times the calibration loop on entry and every CAL_EVERY_S seconds
    after it, from a SIGALRM handler in the benchmark's own thread."""

    def __enter__(self):
        self.samples = [_cal_loop()]
        self.spent = 0.0      # seconds the handler took inside the block
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(_cal_loop())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    def __init__(self, workload: str, ctx: Ctx, tracer=None):
        self.spec = WORKLOADS[workload]
        self.ctx = ctx
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sizes: dict = {}

    def _attempt(self, name, fn):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = name
        try:
            out = fn(self.ctx)
        except Exception as exc:      # one wrong output must not stop the loop
            self.failed += 1
            if len(self.errors) < 8:
                detail = str(exc) if isinstance(exc, Mismatch) else traceback.format_exc()
                self.errors.append(f"{name}: {detail}")
            return
        if out:
            self.sizes[name] = out

    def setup(self, group) -> float:
        if self.tracer is not None:
            self.tracer.group = group
        t0 = time.perf_counter()
        for i, step in enumerate(self.spec["setup"]):
            self._attempt(f"setup.{i}", step)
        return time.perf_counter() - t0

    def one_pass(self, group) -> dict:
        if self.tracer is not None:
            self.tracer.group = group
        ops = {}
        gc.collect()      # every pass starts without the previous pass's garbage
        speed = HostSpeed() if self.tracer is None else None   # spans would time it
        c0 = _cpu_s()
        with speed or contextlib.nullcontext():
            t0 = time.perf_counter()
            for name, fn in self.spec["ops"]:
                o0 = time.perf_counter()
                self._attempt(name, fn)
                ops[name] = time.perf_counter() - o0
            wall = time.perf_counter() - t0
        out = {"wall": wall, "cpu": _cpu_s() - c0, "ops": ops, "ref": None, "cal": None}
        if speed:
            out["wall"] = wall - speed.spent
            out["cal"] = statistics.fmean(speed.samples)
            out["ref"] = out["wall"] * CAL_REF_S / out["cal"]
        return out

    def passes(self, seconds) -> list[dict]:
        """Passes while the next one is expected to end within `seconds`
        (at least one)."""
        out = []
        start = time.perf_counter()
        while not out or (time.perf_counter() - start
                          + statistics.median(p["wall"] for p in out)) <= seconds:
            out.append(self.one_pass(("pass", len(out))))
        return out


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 2), "value": sorted(samples)[n - 11],
            "samples": n}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_commit": _git_commit()}


def per_layer(totals, traced, cost) -> dict:
    pass_groups = [totals.get(("pass", i)) or empty_group() for i in range(len(traced))]
    setup_groups = [g for k, g in totals.items() if k[0] == "setup"]
    vals: dict = {}
    for name, spans in _INCL.items():
        vals[name] = _median([sum(g["incl"][s] for s in spans) for g in pass_groups])
    for name, spans in _COUNTS.items():
        vals[name] = statistics.median_low([sum(g["count"][s] for s in spans)
                                            for g in pass_groups])
    for name, spans in _SETUP_INCL.items():
        vals[name] = _median([sum(g["incl"][s] for s in spans) for g in setup_groups])
    rates = [g["count"]["search.solve"] / g["incl"]["search.solve"]
             for g in pass_groups if g["incl"]["search.solve"] > 0]
    vals["search.nodes_per_s"] = _median(rates)
    for layer in LAYERS:
        name = "cli.overhead_s" if layer == "cli" else f"{layer}.self_s"
        vals[name] = _median([g["self"][layer] for g in pass_groups])
    vals["bench.self_s"] = _median([p["wall"] - g["covered"]
                                    for p, g in zip(traced, pass_groups)])
    vals["cpu_s"] = _median([p["cpu"] for p in traced])
    vals["cpu_util"] = vals["cpu_s"] / _median([p["wall"] for p in traced])
    vals["trace.overhead_s"] = _median([g["spans"] * cost for g in pass_groups])
    return vals


def setup_times(args) -> tuple[list[float], list[float], int]:
    """Wall time of the workload's set-up in SETUP_REPS fresh interpreters:
    importing framedf, then every set-up step, as each CLI invocation would
    pay it.  Each child times the calibration loop before and after its
    set-up; the wall times come back as measured and at the reference
    speed, both without the loop's own time."""
    walls, refs, failed = [], [], 0
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # a pipe, not DEVNULL: with a timeout and no pipe, subprocess polls
        # for the child's exit in steps of up to 50 ms, which quantizes the time
        proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
                              stdout=subprocess.PIPE, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            failed += 1
            continue
        child = json.loads(proc.stdout.splitlines()[-1])
        walls.append(wall - child["spent"])
        refs.append(walls[-1] * CAL_REF_S / statistics.fmean(child["cal"]))
    return walls, refs, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "framedf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no framedf sources under {SRC}")
    golden = json.loads(GOLDEN.read_text())
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.setup_only:
        t0 = time.perf_counter()
        cal = [_cal_loop()]
        spent = time.perf_counter() - t0
        _import_framedf()
        runner = Runner(args.workload, Ctx(args.seed, run_dir / "work", golden))
        runner.setup("setup")
        t0 = time.perf_counter()
        cal.append(_cal_loop())
        spent += time.perf_counter() - t0
        print(json.dumps({"cal": cal, "spent": spent}))
        return 1 if runner.failed else 0

    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "work").mkdir(parents=True)
    setup, setup_ref, setup_failed = ([], [], 0) if args.trace else setup_times(args)
    t0 = time.perf_counter()
    _import_framedf()
    import_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    runner = Runner(args.workload, Ctx(args.seed, run_dir / "work", golden), tracer)
    with (tracer if tracer else contextlib.nullcontext()):
        inproc_setup_s = runner.setup(("setup", 0))
    if tracer:
        with tracer:
            timed = runner.passes(args.seconds)
        metrics = per_layer(group_totals(tracer.spans), timed, span_cost())
        units = PER_LAYER
        (run_dir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "group", "operation", "count"],
             "spans": tracer.spans}))
    else:
        timed = runner.passes(args.seconds)
        after, after_ref, after_failed = setup_times(args)
        setup += after
        setup_ref += after_ref
        runner.attempted += 2 * SETUP_REPS
        runner.failed += setup_failed + after_failed
        metrics = {
            "setup_s": _median(setup_ref),
            "pass_ref_s": _median([p["ref"] for p in timed]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = END_TO_END

    walls = [p["wall"] for p in timed]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "import_s": import_s, "setup_wall_s": setup, "setup_ref_s": setup_ref,
        "inproc_setup_s": inproc_setup_s,
        "pass_s": walls, "pass_cpu_s": [p["cpu"] for p in timed],
        "pass_ref_s": [p["ref"] for p in timed], "cal_loop_s": [p["cal"] for p in timed],
        "pass_s.tail": tail(walls), "fail_frac": runner.failed / runner.attempted,
        "op_s": {name: {"value": _median([p["ops"][name] for p in timed]), "unit": "s"}
                 for name, _ in runner.spec["ops"]},
        "sizes": runner.sizes, "errors": runner.errors, "env": environment(),
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
