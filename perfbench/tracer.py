"""Per-layer spans for starsalem, recorded from outside the package.

``Tracer.install`` wraps the public functions of each module (the layers)
and rebinds every ``starsalem.*`` module attribute and class attribute that
refers to the same function object, so calls through copies made by
``from .factorize import factor_coxeter`` and the like are caught as well.

A span is (function, parent span, start, end, status, extra). Spans are
kept in compact in-memory arrays and written out once, by ``dump``, when the
run ends; ``layer_metrics`` turns a dumped file into per-layer metrics. A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from array import array

import numpy as np

# (metric prefix, module, owning class or None, attribute)
TARGETS = (
    ("intpoly.mul", "starsalem.intpoly", "IntPoly", "__mul__"),
    ("intpoly.exact_div", "starsalem.intpoly", "IntPoly", "exact_div"),
    ("intpoly.divides", "starsalem.intpoly", "IntPoly", "divides"),
    ("intpoly.sign_at", "starsalem.intpoly", "IntPoly", "sign_at"),
    ("intpoly.eval_complex", "starsalem.intpoly", "IntPoly", "eval_complex"),
    ("cyclotomic.cyclotomic", "starsalem.cyclotomic", "CyclotomicTable", "cyclotomic"),
    ("cyclotomic.divides_coxeter", "starsalem.cyclotomic", "CyclotomicTable", "divides_coxeter"),
    ("coxeter.p_polynomial", "starsalem.coxeter", None, "p_polynomial"),
    ("coxeter.coxeter_polynomial", "starsalem.coxeter", None, "coxeter_polynomial"),
    ("coxeter.spectral_radius", "starsalem.coxeter", None, "spectral_radius"),
    ("factorize.factor_coxeter", "starsalem.factorize", None, "factor_coxeter"),
    ("factorize.extract_cyclotomic", "starsalem.factorize", None, "extract_cyclotomic"),
    ("factorize.classify_remainder", "starsalem.factorize", None, "classify_remainder"),
    ("factorize.multiplicity_bound", "starsalem.factorize", None, "multiplicity_bound"),
    ("roots.dominant_root", "starsalem.roots", None, "dominant_root"),
    ("roots.aberth_roots", "starsalem.roots", None, "aberth_roots"),
    ("roots.certify_tree", "starsalem.roots", None, "certify_tree"),
    ("roots.converge_mbonacci", "starsalem.roots", None, "converge_mbonacci"),
    ("scan.grid_verify", "starsalem.scan", None, "grid_verify"),
    ("scan.periodicity_scan", "starsalem.scan", None, "periodicity_scan"),
    ("cli.main", "starsalem.cli", None, "main"),
)
NAMES = [t[0] for t in TARGETS]
_INDEX = {name: i for i, name in enumerate(NAMES)}

# span status
RETURNED, NOT_DIVISIBLE, RAISED = 0, 1, 2

# metrics computed from spans and return values, with their units
DERIVED = (
    ("cyclotomic.cyclotomic.misses", "count"),
    ("intpoly.exact_div.not_divisible", "count"),
    ("factorize.sieve.exact_div_hit_ratio", "ratio"),
    ("factorize.sieve.exact_div_per_screen", "ratio"),
    ("roots.dominant_root.sign_at_per_call", "ratio"),
    ("factorize.multiplicity_bound.grid_points", "count"),
    ("roots.aberth_roots.warnings", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, without trace.overhead_s."""
    units = {}
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.extra = array("q")
        self._stack = [-1]
        self._orders_seen: set[int] = set()
        self.missing: list[str] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        from starsalem.intpoly import NotDivisible

        self._not_divisible = NotDivisible
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "starsalem" or name.startswith("starsalem."))
        ]
        holders = modules + [
            v for m in modules for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("starsalem")
        ]
        for idx, (name, modname, owner, attr) in enumerate(TARGETS):
            holder = sys.modules.get(modname)
            if owner is not None:
                holder = getattr(holder, owner, None)
            original = vars(holder).get(attr) if holder is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(idx, original)
            for h in holders:
                for key, value in list(vars(h).items()):
                    if value is original:
                        setattr(h, key, wrapper)
        if self.missing:
            print(f"tracer: not found, reported as never called: {', '.join(self.missing)}",
                  file=sys.stderr)

    def _wrap(self, idx: int, fn):
        fn_ids, parents, starts, ends = self.fn, self.parent, self.start, self.end
        status, extra, stack = self.status, self.extra, self._stack
        not_divisible = self._not_divisible
        clock = time.perf_counter
        name = NAMES[idx]
        first_order = self._first_order if name == "cyclotomic.cyclotomic" else None
        grid_points = name == "factorize.multiplicity_bound"
        count_warnings = name == "roots.aberth_roots"

        def traced(*args, **kwargs):
            sid = len(starts)
            fn_ids.append(idx)
            parents.append(stack[-1])
            status.append(RETURNED)
            extra.append(first_order(args) if first_order else 0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    extra[sid] = sum(issubclass(w.category, RuntimeWarning) for w in caught)
                else:
                    result = fn(*args, **kwargs)
            except not_divisible:
                status[sid] = NOT_DIVISIBLE
                raise
            except BaseException:
                status[sid] = RAISED
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if grid_points:
                extra[sid] = result.grid_points
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _first_order(self, args) -> int:
        n = args[1] if len(args) > 1 else None
        if n in self._orders_seen:
            return 0
        self._orders_seen.add(n)
        return 1

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(NAMES)),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            status=np.frombuffer(self.status, dtype=np.int8),
            extra=np.frombuffer(self.extra, dtype=np.int64),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics of one traced run from its dumped spans."""
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        fn, parent = data["fn"], data["parent"]
        dur = data["end"] - data["start"]
        status, extra = data["status"], data["extra"]
    if names != NAMES:
        raise ValueError(f"{path} was written for other trace targets")
    k = len(NAMES)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fn))
    self_time = dur - child_time
    calls = np.bincount(fn, minlength=k)
    self_s = np.bincount(fn, weights=self_time, minlength=k)
    parent_fn = np.full(len(fn), -1)
    parent_fn[has_parent] = fn[parent[has_parent]]

    out: dict[str, float] = {}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])

    def count(name, mask=True, under=None):
        sel = (fn == _INDEX[name]) & mask
        if under is not None:
            sel &= parent_fn == _INDEX[under]
        return int(sel.sum())

    def extra_sum(name):
        return int(extra[fn == _INDEX[name]].sum())

    sieve = "factorize.extract_cyclotomic"
    sieve_divs = count("intpoly.exact_div", under=sieve)
    out["cyclotomic.cyclotomic.misses"] = extra_sum("cyclotomic.cyclotomic")
    out["intpoly.exact_div.not_divisible"] = count("intpoly.exact_div", status == NOT_DIVISIBLE)
    out["factorize.sieve.exact_div_hit_ratio"] = _ratio(
        count("intpoly.exact_div", status == RETURNED, under=sieve), sieve_divs
    )
    out["factorize.sieve.exact_div_per_screen"] = _ratio(
        sieve_divs, count("intpoly.eval_complex", under=sieve)
    )
    out["roots.dominant_root.sign_at_per_call"] = _ratio(
        count("intpoly.sign_at", under="roots.dominant_root"), count("roots.dominant_root")
    )
    out["factorize.multiplicity_bound.grid_points"] = extra_sum("factorize.multiplicity_bound")
    out["roots.aberth_roots.warnings"] = extra_sum("roots.aberth_roots")
    return out
