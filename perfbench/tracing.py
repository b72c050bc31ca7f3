"""In-memory spans around calls into framedf's public functions.

The tracer patches each traced function in every framedf module namespace
that holds it (so calls made by the CLI and between modules are seen too),
records one span per call (name, start, end, parent, operation group,
operation, count) and restores the originals on exit.  Nothing under src/ changes.
Functions inside the solver's inner loops (field and group arithmetic) are
not traced: their calls are not visible from outside the package.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = ("fields", "groups", "families", "catalog", "lifting", "search",
          "designs", "codes", "serialize", "cli")


def pairs(v):
    """Unordered pairs among v items."""
    return v * (v - 1) // 2


def _diffs(fam):
    return sum(len(b) * (len(b) - 1) for b in fam.blocks)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (module, owner attribute or None, function, count(args, kwargs, result) or None)
TRACED = (
    ("fields", None, "make_field", None),
    ("groups", None, "crt_iso", None),
    ("families", None, "verify_sdf", None),
    ("families", None, "verify_fdf", lambda a, kw, r: _diffs(a[0])),
    ("families", None, "verify_pdf", lambda a, kw, r: _diffs(a[0])),
    ("catalog", None, "lifting_datum", None),
    ("catalog", None, "family", None),
    ("lifting", None, "check_lifting_conditions", None),
    ("lifting", None, "lift_sdf", None),
    ("lifting", None, "fdf_to_pdf", None),
    ("lifting", None, "compose_fdf_dm", None),
    ("lifting", None, "mul_table_dm", None),
    ("lifting", None, "homogenize", None),
    ("search", None, "solve", lambda a, kw, r: r.nodes),
    ("search", None, "z125_system", None),
    ("search", None, "generic_system", None),
    ("search", None, "repair_block", None),
    ("designs", None, "rbibd_from_fdf", None),
    ("designs", None, "verify_bibd", lambda a, kw, r: pairs(a[0].v)),
    ("designs", None, "verify_resolution", None),
    ("designs", None, "verify_one_rotational", None),
    ("designs", None, "affine_plane", None),
    ("designs", None, "trivial_rbibd", None),
    ("codes", None, "ccc_from_pdf", None),
    ("codes", "CCC", "min_distance", lambda a, kw, r: pairs(a[0].size)),
    ("codes", None, "fhs_from_elementary_fdf", None),
    # shifts x window lengths x window starts of the full window sweep
    ("codes", None, "verify_strictly_optimal", lambda a, kw, r: (a[0].n - 1) * a[0].n ** 2),
    ("serialize", None, "dump", lambda a, kw, r: _file_size(a[1])),
    ("serialize", None, "load", lambda a, kw, r: _file_size(a[0])),
    ("serialize", None, "family_to_dict", None),
    ("serialize", None, "family_from_dict", None),
    ("serialize", None, "lifting_to_dict", None),
    ("serialize", None, "lifting_from_dict", None),
    ("serialize", None, "design_to_dict", None),
    ("serialize", None, "design_from_dict", None),
    ("cli", None, "main", None),
)


def _span_name(layer, fn, kwargs):
    if fn == "repair_block" and kwargs.get("widen", True) is False:
        return "search.repair_narrow"
    return f"{layer}.{fn}"


class Tracer:
    """Collects spans while active; use as a context manager."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, group, operation, count]
        self.spans: list[list] = []
        self.group = None
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn_name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [_span_name(layer, fn_name, kwargs), 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.group, tracer.op, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[6] = count(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [importlib.import_module(f"framedf.{m}") for m in LAYERS]
        modules.append(sys.modules["framedf"])
        for layer, owner, fn_name, count in TRACED:
            home = importlib.import_module(f"framedf.{layer}")
            if owner is not None:
                cls = getattr(home, owner)
                orig = cls.__dict__[fn_name]
                self._patch(cls, fn_name, orig, self._wrap(layer, fn_name, orig, count))
                continue
            orig = getattr(home, fn_name)
            wrapped = self._wrap(layer, fn_name, orig, count)
            for mod in modules:
                if vars(mod).get(fn_name) is orig:
                    self._patch(mod, fn_name, orig, wrapped)
        return self

    def _patch(self, obj, attr, orig, new):
        setattr(obj, attr, new)
        self._patches.append((obj, attr, orig))

    def __exit__(self, *exc):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()
        return False


def span_cost(calls: int = 20_000) -> float:
    """Seconds the tracer adds to one call: a no-op function timed with and
    without its wrapper (best of three rounds each)."""
    def noop():
        return None

    def timed(fn):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    traced = Tracer()._wrap("bench", "noop", noop, None)
    bare = min(timed(noop) for _ in range(3))
    return max(min(timed(traced) for _ in range(3)) - bare, 0.0) / calls


def empty_group() -> dict:
    return {"incl": defaultdict(float), "count": defaultdict(int),
            "self": defaultdict(float), "covered": 0.0, "spans": 0}


def group_totals(spans) -> dict:
    """Per operation group: inclusive seconds and counts per span name
    (outermost call of each name only), self seconds per layer, the
    seconds covered by top-level library spans, and the number of spans."""
    children = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += s[2] - s[1]
    out: dict = {}
    for i, (name, t0, t1, parent, group, _op, count) in enumerate(spans):
        g = out.get(group) or out.setdefault(group, empty_group())
        dur = t1 - t0
        g["spans"] += 1
        g["self"][name.split(".")[0]] += dur - children[i]
        if parent < 0:
            g["covered"] += dur
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            g["incl"][name] += dur
            g["count"][name] += count
    return out
