"""Batch command line: catalog browsing, lifting, searching, design assembly,
code derivation, verification, and recipe execution.

Exit codes: 0 success, 1 verification failure (a recipe step that raises
ValueError counts as one), 2 usage error (a recipe step without a key it
needs, or naming an undefined reference, counts as one), 3 search or
repair budget exhausted.
Searches are deterministic; their order does not depend on --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import catalog, codes, designs, families, lifting, search, serialize
from .groups import crt_iso

USAGE_ERROR = 2
VERIFY_FAIL = 1
BUDGET_FAIL = 3


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, indent=1, sort_keys=True))
    else:
        if isinstance(obj, dict):
            for k, v in obj.items():
                print(f"{k}: {v}")
        else:
            print(obj)


def cmd_catalog(args) -> int:
    if args.name is None:
        rows = [catalog.entry_info(n) for n in catalog.catalog_names()]
        _emit(rows if args.format == "json" else
              "\n".join(f"{r['name']:16s} [{r['kind']}] {r['provenance']}" for r in rows),
              args.format)
        return 0
    try:
        info = catalog.entry_info(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if info["kind"] == "sdf" and not info["parametrized"]:
        fam = catalog.family(args.name)
        rep = families.verify_sdf(fam)
        info.update(blocks=len(fam.blocks), group=repr(fam.group),
                    mu=fam.lam, verified=bool(rep.ok))
    elif info["kind"] == "lifting":
        data = catalog.lifting_datum(args.name)
        rep = lifting.check_lifting_conditions(data)
        info.update(blocks=len(data.sdf.blocks), q=data.field.q, e=data.e, d=data.d,
                    verified=bool(rep.ok),
                    zero_positions=list(map(list, data.zero_positions())))
    _emit(info, args.format)
    return 0


def cmd_qbound(args) -> int:
    val = search.q_bound(args.d, args.m)
    _emit({"d": args.d, "m": args.m, "Q": f"{val:.6E}"}, args.format)
    return 0


def cmd_lift(args) -> int:
    data = serialize.lifting_from_dict(serialize.load(args.data))
    rep = lifting.check_lifting_conditions(data)
    if not rep.ok:
        print(f"lifting conditions fail: {rep.detail}", file=sys.stderr)
        return VERIFY_FAIL
    fdf = lifting.lift_sdf(data)
    ok = families.verify_fdf(fdf).ok
    if args.out:
        serialize.dump(serialize.family_to_dict(fdf), args.out)
    _emit({"blocks": len(fdf.blocks), "group": repr(fdf.group), "verified": bool(ok)},
          args.format)
    return 0 if ok else VERIFY_FAIL


def _catalog_family(spec: str):
    """Catalog name with optional colon-separated parameters: 'paley2:7'."""
    name, _, rest = spec.partition(":")
    params = [int(x) for x in rest.split(",")] if rest else []
    return catalog.family(name, *params)


def cmd_search(args) -> int:
    if args.system == "generic":
        if not args.sdf or args.d is None:
            print("error: --sdf and --d required for the generic system", file=sys.stderr)
            return USAGE_ERROR
        sysm = search.generic_system(_catalog_family(args.sdf), args.q,
                                     args.q - 1, args.d, args.lam)
    elif args.system == "paired":
        if not args.sdf:
            print("error: --sdf required for the paired system", file=sys.stderr)
            return USAGE_ERROR
        sysm = search.paired_pattern_system(_catalog_family(args.sdf), args.q)
    elif args.system == "paley3":
        sysm = search.paley3_pattern_system(args.p, args.q)
    elif args.system == "z125":
        sysm = search.z125_system(args.q)
    else:
        print(f"error: unknown system {args.system!r}", file=sys.stderr)
        return USAGE_ERROR
    res = search.solve(sysm, seed=args.seed, budget=args.budget)
    if res.status != "sat":
        print(f"search: {res.status} after {res.nodes} nodes", file=sys.stderr)
        return BUDGET_FAIL
    data = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
    if args.out:
        serialize.dump(serialize.lifting_to_dict(data), args.out)
    _emit({"status": res.status, "nodes": res.nodes,
           "assignment": res.assignment}, args.format)
    return 0


def _ingredient(fdf, name: str):
    """The affine plane (name 'affine') or the one-block design (any other
    name) on the frame family's block size.  The family is verified first,
    so a malformed one raises ValueError with the verify_fdf detail."""
    rep = families.verify_fdf(fdf)
    if not rep.ok:
        raise ValueError("family fails verify_fdf: " + rep.detail)
    k = len(fdf.blocks[0])
    return designs.affine_plane(k) if name == "affine" else designs.trivial_rbibd(k)


def cmd_assemble(args) -> int:
    fdf = serialize.family_from_dict(serialize.load(args.fdf))
    if args.ingredient in ("trivial", "affine"):
        ing, ing_res = _ingredient(fdf, args.ingredient)
    else:
        ing, ing_res = serialize.design_from_dict(serialize.load(args.ingredient))
        if ing_res is None:
            print("error: ingredient file carries no resolution", file=sys.stderr)
            return USAGE_ERROR
    design, res, _rot = designs.rbibd_from_fdf(fdf, ing, ing_res)
    ok = designs.verify_bibd(design).ok and designs.verify_resolution(design, res).ok
    if args.out:
        serialize.dump(serialize.design_to_dict(design, res), args.out)
    _emit({"v": design.v, "k": design.k, "blocks": len(design.blocks),
           "classes": len(res.classes), "verified": bool(ok)}, args.format)
    return 0 if ok else VERIFY_FAIL


def cmd_verify_design(args) -> int:
    design, res = serialize.design_from_dict(serialize.load(args.design))
    rep = designs.verify_bibd(design)
    ok = rep.ok
    out = {"bibd": bool(rep.ok)}
    if res is not None:
        rres = designs.verify_resolution(design, res)
        out["resolution"] = bool(rres.ok)
        ok = ok and rres.ok
    _emit(out, args.format)
    return 0 if ok else VERIFY_FAIL


def cmd_import(args) -> int:
    try:
        design, res = serialize.design_from_dict(serialize.load(args.file))
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return USAGE_ERROR
    rep = designs.verify_bibd(design)
    if not rep.ok:
        print(f"rejected: {rep.detail}", file=sys.stderr)
        return VERIFY_FAIL
    if res is not None:
        rres = designs.verify_resolution(design, res)
        if not rres.ok:
            print(f"rejected: {rres.detail}", file=sys.stderr)
            return VERIFY_FAIL
    if args.out:
        serialize.dump(serialize.design_to_dict(design, res), args.out)
    _emit({"v": design.v, "k": design.k, "lambda": design.lam, "accepted": True},
          args.format)
    return 0


def cmd_ccc_from_pdf(args) -> int:
    pdf = serialize.family_from_dict(serialize.load(args.pdf))
    ccc = codes.ccc_from_pdf(pdf)
    d = ccc.min_distance()
    bound = codes.ccc_bound(ccc.n, d, ccc.composition)
    ok = bound == ccc.size
    if args.out:
        serialize.dump({"n": ccc.n, "codewords": ccc.codewords.tolist(),
                        "composition": list(ccc.composition), "d": d,
                        "provenance": ccc.provenance}, args.out)
    _emit({"n": ccc.n, "M": ccc.size, "d": d, "bound": str(bound),
           "optimal": bool(ok)}, args.format)
    return 0 if ok else VERIFY_FAIL


def cmd_fhs_from_fdf(args) -> int:
    fdf = serialize.family_from_dict(serialize.load(args.fdf))
    if fdf.group.kind == "product":
        iso = crt_iso(fdf.group)
        fdf = families.relabel_family(fdf, iso)
    fhs = codes.fhs_from_elementary_fdf(fdf)
    rep = codes.verify_strictly_optimal(fhs)
    if args.out:
        serialize.dump({"n": fhs.n, "alphabet": fhs.alphabet_size,
                        "seq": fhs.seq.tolist(), "provenance": fhs.provenance}, args.out)
    _emit({"n": fhs.n, "alphabet": fhs.alphabet_size,
           "strictly_optimal": bool(rep.ok),
           "failing_L": list(rep.witnesses)}, args.format)
    return 0 if rep.ok else VERIFY_FAIL


def cmd_verify_fhs(args) -> int:
    import numpy as np
    blob = serialize.load(args.fhs)
    fhs = codes.FHS(np.asarray(blob["seq"]), blob["alphabet"])
    rep = codes.verify_strictly_optimal(fhs)
    _emit({"n": fhs.n, "strictly_optimal": bool(rep.ok),
           "failing_L": list(rep.witnesses)}, args.format)
    return 0 if rep.ok else VERIFY_FAIL


def cmd_verify_ccc(args) -> int:
    import numpy as np
    blob = serialize.load(args.ccc)
    cw = np.asarray(blob["codewords"])
    ccc = codes.CCC(cw.shape[1], cw, tuple(blob["composition"]))
    comp_ok = all(sorted(np.bincount(row, minlength=len(ccc.composition)))
                  == sorted(ccc.composition) for row in cw)
    d = ccc.min_distance()
    want = blob.get("d")
    ok = comp_ok and (want is None or d == want)
    _emit({"M": ccc.size, "d": d, "composition_ok": bool(comp_ok), "verified": bool(ok)},
          args.format)
    return 0 if ok else VERIFY_FAIL


def cmd_run(args) -> int:
    recipe = serialize.load(args.recipe)
    steps = recipe.get("steps") if isinstance(recipe, dict) else None
    if not isinstance(steps, list) or not all(
            isinstance(s, dict) and isinstance(s.get("op"), str) for s in steps):
        _emit([{"step": "recipe", "verified": False,
                "error": "a recipe is an object whose 'steps' lists {'op': ...} objects"}],
              args.format)
        return USAGE_ERROR
    workdir = Path(args.workdir or Path(args.recipe).parent)
    summary = []
    status = 0
    env: dict[str, object] = {}
    for step in steps:
        t0 = time.time()
        op = step["op"]
        try:
            rc, info = _run_step(op, step, env, workdir, args.seed)
        except KeyError as exc:
            rc, info = USAGE_ERROR, {"error": str(exc.args[0]) if exc.args else repr(exc)}
        except ValueError as exc:
            rc, info = VERIFY_FAIL, {"error": str(exc)}
        summary.append({"step": step.get("id", op), "op": op,
                        "verified": rc == 0, "seconds": round(time.time() - t0, 2),
                        **info})
        if rc != 0:
            status = rc
            break
    _emit(summary, args.format)
    return status


# the type of object each op reads through its "in" reference
_INPUT_TYPE = {**dict.fromkeys(("repair", "check-conditions", "lift"), lifting.LiftingData),
               **dict.fromkeys(("assemble", "crt", "pdf", "ccc", "fhs"), families.DesignFamily)}


def _require(mapping, key, problem: str):
    """mapping[key]; a missing key raises KeyError(problem), which `run`
    reports as a usage error."""
    try:
        return mapping[key]
    except KeyError:
        raise KeyError(problem) from None


def _run_step(op, step, env, workdir, seed):
    sid = step.get("id", op)
    p = step.get("params", {})
    param = lambda key: _require(p, key, f"step {sid!r} has no params.{key}")
    # every op but check-conditions stores its product under "out"
    out = None if op == "check-conditions" else _require(step, "out", f"step {sid!r} has no 'out'")
    want = _INPUT_TYPE.get(op)
    if want:
        ref = _require(step, "in", f"step {sid!r} has no 'in'")
        data = (_require(env, ref, f"undefined reference {ref!r}")
                if isinstance(ref, str) and ref.startswith("$") else ref)
        if not isinstance(data, want):
            return USAGE_ERROR, {"error": f"step {sid!r}: op {op!r} needs a "
                                          f"{want.__name__}, got a {type(data).__name__}"}

    if op == "catalog-lifting":
        env[out] = catalog.lifting_datum(param("name"))
        return 0, {"name": param("name")}
    if op == "repair":
        try:
            env[out] = search.repair_block(data, data.zero_positions())
            return 0, {}
        except search.RepairError as exc:
            return VERIFY_FAIL, {"error": str(exc)}
        except search.RepairBudgetExceeded as exc:
            return BUDGET_FAIL, {"error": str(exc)}
    if op == "check-conditions":
        rep = lifting.check_lifting_conditions(data)
        return (0 if rep.ok else VERIFY_FAIL), {"detail": rep.detail}
    if op == "lift":
        fdf = lifting.lift_sdf(data)
        env[out] = fdf
        ok = families.verify_fdf(fdf).ok
        return (0 if ok else VERIFY_FAIL), {"blocks": len(fdf.blocks)}
    if op == "assemble":
        ing, ing_res = _ingredient(data, p.get("ingredient", "trivial"))
        design, res, rot = designs.rbibd_from_fdf(data, ing, ing_res)
        env[out] = (design, res, rot)
        ok = designs.verify_bibd(design).ok and designs.verify_resolution(design, res).ok
        if p.get("check_rotational"):
            ok = ok and designs.verify_one_rotational(design, res, rot).ok
        if "file" in step:
            serialize.dump(serialize.design_to_dict(design, res), workdir / step["file"])
        return (0 if ok else VERIFY_FAIL), {"v": design.v, "blocks": len(design.blocks)}
    if op == "crt":
        env[out] = families.relabel_family(data, crt_iso(data.group))
        return 0, {}
    if op == "pdf":
        pdf = lifting.fdf_to_pdf(data)
        env[out] = pdf
        ok = families.verify_pdf(pdf).ok
        return (0 if ok else VERIFY_FAIL), {"blocks": len(pdf.blocks)}
    if op == "ccc":
        ccc = codes.ccc_from_pdf(data)
        d = ccc.min_distance()
        ok = codes.ccc_bound(ccc.n, d, ccc.composition) == ccc.size
        env[out] = ccc
        return (0 if ok else VERIFY_FAIL), {"n": ccc.n, "M": ccc.size, "d": d}
    if op == "fhs":
        fhs = codes.fhs_from_elementary_fdf(data)
        rep = codes.verify_strictly_optimal(fhs)
        env[out] = fhs
        if "file" in step:
            serialize.dump({"n": fhs.n, "alphabet": fhs.alphabet_size,
                            "seq": fhs.seq.tolist()}, workdir / step["file"])
        return (0 if rep.ok else VERIFY_FAIL), {"n": fhs.n, "alphabet": fhs.alphabet_size}
    if op == "solve":
        sysm = search.z125_system(param("q")) if param("system") == "z125" else None
        if sysm is None:
            return USAGE_ERROR, {"error": "unknown system"}
        res = search.solve(sysm, seed=p.get("seed", seed), budget=p.get("budget", 10**8))
        if res.status != "sat":
            return BUDGET_FAIL, {"status": res.status}
        env[out] = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
        return 0, {"nodes": res.nodes}
    return USAGE_ERROR, {"error": f"unknown op {op!r}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="framedf")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--seed", type=int, default=0,
                    help="solver seed; the search order does not depend on it")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("catalog", help="list or show catalog entries")
    c.add_argument("name", nargs="?")
    c.set_defaults(fn=cmd_catalog)

    c = sub.add_parser("qbound", help="existence threshold Q(d,m)")
    c.add_argument("d", type=int)
    c.add_argument("m", type=int)
    c.set_defaults(fn=cmd_qbound)

    c = sub.add_parser("lift", help="lift a datum file into a frame family")
    c.add_argument("--data", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_lift)

    c = sub.add_parser("search", help="solve a cyclotomic constraint system")
    c.add_argument("--system", required=True,
                   choices=("generic", "paired", "paley3", "z125"))
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--d", type=int)
    c.add_argument("--lam", type=int, default=1)
    c.add_argument("--p", type=int)
    c.add_argument("--sdf")
    c.add_argument("--budget", type=int, default=10**8)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_search)

    c = sub.add_parser("assemble", help="resolvable design from a frame family")
    c.add_argument("--fdf", required=True)
    c.add_argument("--ingredient", required=True,
                   help="'trivial', 'affine', or a design file")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_assemble)

    c = sub.add_parser("verify-design", help="pair coverage and resolution checks")
    c.add_argument("design")
    c.set_defaults(fn=cmd_verify_design)

    c = sub.add_parser("import", help="parse and verify an external design file")
    c.add_argument("file")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_import)

    c = sub.add_parser("ccc-from-pdf")
    c.add_argument("--pdf", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_ccc_from_pdf)

    c = sub.add_parser("fhs-from-fdf")
    c.add_argument("--fdf", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_fhs_from_fdf)

    c = sub.add_parser("verify-fhs")
    c.add_argument("fhs")
    c.set_defaults(fn=cmd_verify_fhs)

    c = sub.add_parser("verify-ccc")
    c.add_argument("ccc")
    c.set_defaults(fn=cmd_verify_ccc)

    c = sub.add_parser("run", help="execute a recipe file")
    c.add_argument("recipe")
    c.add_argument("--workdir")
    c.set_defaults(fn=cmd_run)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
