"""Batch command line: catalog browsing, lifting, searching, design assembly,
code derivation, verification, and recipe execution.

The construction subcommands (lift, assemble, ccc-from-pdf, fhs-from-fdf and
search) run their input as a one-step recipe: each op has one implementation.

Exit codes: 0 success, 1 verification failure (a recipe step that raises
ValueError, or a search that proved its system has no solution, counts as
one), 2 usage error (a recipe step without a key it needs, or naming an
undefined reference, counts as one), 3 search or repair budget exhausted.
Searches are deterministic; their order does not depend on --seed.
"""

from __future__ import annotations

import argparse
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
        print(serialize.dumps(obj))
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


def _construct(args, ops, data, fields, **params) -> int:
    """Run `ops` on `data` as a recipe, each step with `params` and the last
    with --out as its `file`, then print fields(record, product, ok) of the
    last step.  A step that makes no product prints its error instead, a
    usage error as 'error: ...'."""
    env = {"$0": data}
    for i, op in enumerate(ops):
        step = {"op": op, "in": f"${i}", "out": f"${i + 1}", "params": params}
        if args.out and i == len(ops) - 1:
            step["file"] = args.out
        rc, record = _run_step(op, step, env, Path())
    product = env.get(f"${len(ops)}")
    if product is None:
        print(("error: " if rc == USAGE_ERROR else "") + record["error"], file=sys.stderr)
    else:
        _emit(fields(record, product, rc == 0), args.format)
    return rc


def cmd_lift(args) -> int:
    return _construct(args, ["lift"], serialize.lifting_from_dict(serialize.load(args.data)),
                      lambda r, fdf, ok: {"blocks": r["blocks"], "group": repr(fdf.group),
                                          "verified": ok})


def cmd_assemble(args) -> int:
    return _construct(args, ["assemble"], serialize.family_from_dict(serialize.load(args.fdf)),
                      lambda r, made, ok: {"v": r["v"], "k": made[0].k, "blocks": r["blocks"],
                                           "classes": len(made[1].classes), "verified": ok},
                      ingredient=args.ingredient)


def cmd_ccc_from_pdf(args) -> int:
    return _construct(args, ["ccc"], serialize.family_from_dict(serialize.load(args.pdf)),
                      lambda r, ccc, ok: {**r, "bound": str(codes.ccc_bound(
                          r["n"], r["d"], ccc.composition)), "optimal": ok})


def cmd_fhs_from_fdf(args) -> int:
    fdf = serialize.family_from_dict(serialize.load(args.fdf))
    return _construct(args, ["crt", "fhs"] if fdf.group.kind == "product" else ["fhs"], fdf,
                      lambda r, _, ok: {"n": r["n"], "alphabet": r["alphabet"],
                                        "strictly_optimal": ok,
                                        "failing_L": r.get("failing_L", [])})


def cmd_search(args) -> int:
    return _construct(args, ["solve"], None, lambda r, _, ok: r,
                      system=args.system, q=args.q, d=args.d, lam=args.lam, p=args.p,
                      sdf=args.sdf, budget=args.budget)


def cmd_verify_design(args) -> int:
    design, res = serialize.load_design(args.design)
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
        design, res = serialize.load_design(args.file)
    except (KeyError, ValueError) as exc:   # json.JSONDecodeError is a ValueError
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


def cmd_verify_fhs(args) -> int:
    import numpy as np
    blob = serialize._typed(serialize.load(args.fhs), dict, "hopping sequence")
    fhs = codes.FHS(np.asarray(blob["seq"]), serialize._int(blob, "alphabet"))
    serialize._int_array(blob["seq"], "seq", depth=1)      # names a bool, read as 0 or 1 above
    rep = codes.verify_strictly_optimal(fhs)
    _emit({"n": fhs.n, "strictly_optimal": bool(rep.ok),
           "failing_L": list(rep.witnesses)}, args.format)
    return 0 if rep.ok else VERIFY_FAIL


def cmd_verify_ccc(args) -> int:
    import numpy as np
    blob = serialize._typed(serialize.load(args.ccc), dict, "code")
    rows = serialize._typed(blob["codewords"], list, "codewords")
    if not rows:
        raise ValueError("the code's codeword list is empty")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"codeword {i} is not a list of symbols")
        if len(row) != len(rows[0]):
            raise ValueError(f"codeword {i} has {len(row)} symbols, codeword 0 has {len(rows[0])}")
    cw = np.asarray(rows)
    if cw.dtype.kind not in "iu":
        raise ValueError("the codewords hold a symbol that is not an integer")
    serialize._int_array(rows, "codewords")                # names a bool, read as 0 or 1 above
    ccc = codes.CCC(cw.shape[1], cw, serialize._int_tuples(blob, "composition", depth=1))
    want = serialize._int(blob, "d") if "d" in blob else None
    comp_ok = all(sorted(np.bincount(row, minlength=len(ccc.composition)))
                  == sorted(ccc.composition) for row in cw)
    d = ccc.min_distance()
    ok = comp_ok and (want is None or d == want)
    _emit({"M": ccc.size, "d": d, "composition_ok": bool(comp_ok), "verified": bool(ok)},
          args.format)
    return 0 if ok else VERIFY_FAIL


def cmd_run(args) -> int:
    recipe = serialize.load(args.recipe)
    steps = recipe.get("steps") if isinstance(recipe, dict) else None
    if not isinstance(steps, list) or not all(
            isinstance(s, dict) and isinstance(s.get("op"), str)
            and isinstance(s.get("params", {}), dict) and isinstance(s.get("file", ""), str)
            for s in steps):
        _emit([{"step": "recipe", "verified": False,
                "error": "a recipe is an object whose 'steps' lists {'op': ...} objects, "
                         "with any 'params' an object and any 'file' a string"}],
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
            rc, info = _run_step(op, step, env, workdir)
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

# the parameters each system of the solve op needs besides system and q
_SYSTEM_NEEDS = {"generic": ("sdf", "d"), "paired": ("sdf",), "paley3": ("p",), "z125": ()}


def _require(mapping, key, problem: str):
    """mapping[key]; a missing key raises KeyError(problem), which `run`
    reports as a usage error."""
    try:
        return mapping[key]
    except KeyError:
        raise KeyError(problem) from None


def _file_blob(product, record) -> dict:
    """The one file format of each product, written for a step's `file`
    (and so for a subcommand's --out)."""
    if isinstance(product, lifting.LiftingData):
        return serialize.lifting_to_dict(product)
    if isinstance(product, families.DesignFamily):
        return serialize.family_to_dict(product)
    if isinstance(product, codes.CCC):
        return {"n": product.n, "codewords": product.codewords.tolist(), "d": record["d"],
                "composition": list(product.composition), "provenance": product.provenance}
    if isinstance(product, codes.FHS):
        return {"n": product.n, "alphabet": product.alphabet_size, "seq": product.seq.tolist()}
    design, res, _rot = product
    return serialize.design_to_dict(design, res)


def _run_step(op, step, env, workdir):
    """Run one recipe step: store its product under `out`, write it to
    `file` (relative to workdir) if the step names one, and return (exit
    code, record).  A usage problem raises KeyError; a ValueError from a
    bad input propagates."""
    sid = step.get("id", op)
    p = step.get("params", {})

    def param(key, kind=str, default=None):
        """params[key], which must be a `kind` (a bool is not an int); an
        absent or null key gives `default` when there is one."""
        if default is not None and p.get(key) is None:
            return default
        value = _require(p, key, f"step {sid!r} has no params.{key}")
        if not isinstance(value, kind) or (kind is int and type(value) is bool):
            raise KeyError(f"step {sid!r}: params.{key} is not "
                           f"{'an' if kind is int else 'a'} {kind.__name__}")
        return value

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

    ok, record = True, {}
    if op == "catalog-lifting":
        name = param("name")
        product, record = catalog.lifting_datum(name), {"name": name}
    elif op == "repair":
        try:
            product = search.repair_block(data, data.zero_positions())
        except search.RepairError as exc:
            return VERIFY_FAIL, {"error": str(exc)}
        except search.RepairBudgetExceeded as exc:
            return BUDGET_FAIL, {"error": str(exc)}
    elif op == "check-conditions":
        rep = lifting.check_lifting_conditions(data)
        return (0 if rep.ok else VERIFY_FAIL), {"detail": rep.detail}
    elif op == "lift":
        try:
            product = lifting.lift_sdf(data)
        except ValueError as exc:       # the lifting conditions fail
            return VERIFY_FAIL, {"error": str(exc)}
        ok, record = families.verify_fdf(product).ok, {"blocks": len(product.blocks)}
    elif op == "assemble":
        name = p.get("ingredient", "trivial")
        if name in ("trivial", "affine"):   # built on the block size of the verified family
            ing, ing_res = designs.affine_plane if name == "affine" else designs.trivial_rbibd, None
        else:
            ing, ing_res = serialize.load_design(workdir / name)
            if ing_res is None:
                return USAGE_ERROR, {"error": "ingredient file carries no resolution"}
        product = designs.rbibd_from_fdf(data, ing, ing_res)
        design, res, rot = product
        ok = designs.verify_bibd(design).ok and designs.verify_resolution(design, res).ok
        if p.get("check_rotational"):
            ok = ok and designs.verify_one_rotational(design, res, rot).ok
        record = {"v": design.v, "blocks": len(design.blocks)}
    elif op == "crt":
        product = families.relabel_family(data, crt_iso(data.group))
    elif op == "pdf":
        product = lifting.fdf_to_pdf(data)
        ok, record = families.verify_pdf(product).ok, {"blocks": len(product.blocks)}
    elif op == "ccc":
        product = codes.ccc_from_pdf(data)
        d = product.min_distance()
        ok = codes.ccc_bound(product.n, d, product.composition) == product.size
        record = {"n": product.n, "M": product.size, "d": d}
    elif op == "fhs":
        product = codes.fhs_from_elementary_fdf(data)
        rep = codes.verify_strictly_optimal(product)
        ok, record = rep.ok, {"n": product.n, "alphabet": product.alphabet_size}
        if not ok:
            record["failing_L"] = list(rep.witnesses)
    elif op == "solve":
        system, q, budget = param("system"), param("q", int), param("budget", int, 10**8)
        if budget < 0:
            return USAGE_ERROR, {"error": f"step {sid!r}: params.budget {budget} is negative"}
        needs = _SYSTEM_NEEDS.get(system)
        if needs is None or any(p.get(key) in (None, "") for key in needs):
            return USAGE_ERROR, {"error": "unknown system" if needs is None else " and ".join(
                "--" + key for key in needs) + f" required for the {system} system"}
        if "sdf" in needs:      # a catalog name with parameters: 'twinPrime:3'
            name, _, rest = param("sdf").partition(":")
            sdf = catalog.family(name, *([int(x) for x in rest.split(",")] if rest else []))
        if system == "generic":
            sysm = search.generic_system(sdf, q, q - 1, param("d", int), param("lam", int, 1))
        elif system == "paired":
            sysm = search.paired_pattern_system(sdf, q)
        elif system == "paley3":
            sysm = search.paley3_pattern_system(param("p", int), q)
        else:
            sysm = search.z125_system(q)
        res = search.solve(sysm, budget=budget)
        record = {"status": res.status, "nodes": res.nodes}
        if res.status != "sat":     # "exhausted" proves there is no solution
            return (BUDGET_FAIL if res.status == "budget_exceeded" else VERIFY_FAIL), \
                {**record, "error": f"search: {res.status} after {res.nodes} nodes"}
        product = sysm.lifting_builder([res.assignment[u] for u in sysm.unknowns])
        record["assignment"] = res.assignment
    else:
        return USAGE_ERROR, {"error": f"unknown op {op!r}"}
    env[out] = product
    if "file" in step:
        serialize.dump(_file_blob(product, record), workdir / step["file"])
    return (0 if ok else VERIFY_FAIL), record


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
