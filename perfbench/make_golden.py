"""Regenerate the benchmark's stored data from the current sources:

* ``data/z63xF25_repaired.json`` -- the z63 datum repaired by
  ``search.repair_block`` (written only when missing);
* ``golden.json`` -- seed-0 output hashes and solver node counts of every
  workload.

    python3 perfbench/make_golden.py      # about two minutes

Run it only when an output is meant to change; the benchmark compares
every run against these files.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._import_framedf()
    from framedf import catalog, search, serialize
    if not run.DATUM.exists():
        d63 = catalog.lifting_datum("fdf_z63xF25")
        run.DATUM.parent.mkdir(exist_ok=True)
        serialize.dump(serialize.lifting_to_dict(search.repair_block(d63, d63.zero_positions())),
                       run.DATUM)
    golden: dict = {}
    for name in run.WORKLOADS:
        wd = run.OUT / f"golden-{name}"
        wd.mkdir(parents=True, exist_ok=True)
        ctx = run.Ctx(0, wd, None)
        runner = run.Runner(name, ctx)
        runner.setup("setup")
        runner.one_pass("pass")
        if runner.failed:
            print("\n".join(runner.errors), file=sys.stderr)
            return 1
        for key, value in ctx.observed.items():
            if golden.setdefault(key, value) != value:
                print(f"{key} differs between workloads", file=sys.stderr)
                return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
