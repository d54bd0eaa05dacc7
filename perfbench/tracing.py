"""Spans at the module boundaries of ``thueq``, recorded from outside it.

``Tracer`` wraps the public functions named in ``SPANS`` wherever a ``thueq``
module binds them, including ``from .x import y`` rebindings such as
``descent.pade`` or ``measure.kappa``, so calls between modules pass through
the wrapper.  Arithmetic dunder methods are not wrapped.  Spans stay in
memory as (name, start, end, parent, operation id); the caller writes them
out when the run ends.  ``layer_metrics`` turns spans into per-layer
metrics with self times.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

SPANS = {
    "exactnum": ("kappa", "ln_enclosure"),
    "quadfield": ("enumerate_bounded",),
    "series": ("newton_alpha_series", "alpha3_series", "pade", "pade_residual",
               "tail_bound", "quotient_root_check", "thue_polys_at"),
    "hyperchi": ("verify_lettl",),
    "rouche": ("base_certificates", "certify_high_order", "root_separation"),
    "descent": ("run_descent", "run_step"),
    "dioph": ("small_solution_search", "irreducibility_exceptions", "classify_type",
              "all_root_balls", "root_ball", "divisibility_ball_check"),
    "measure": ("theorem_assembly", "measure_constants", "contradiction_upper_bound",
                "kappa_hi", "corollary_eps", "corollary_lin"),
    "cli": ("main",),
}
# crossed about 10^5 times per search: counted on the caller's span, no span each
COUNTED = {"quadfield": ("roots_of_unity",)}
# spans split by their first argument
LABEL_ARG = {"descent.run_descent": "type_index"}

MODULES = tuple(SPANS)
SEARCH = "dioph.small_solution_search"
CANDIDATE = "quadfield.roots_of_unity"

# field order of a span record while it is in memory
ID, NAME, LABEL, PARENT, OP, START, END, N_OUT, COUNTS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[list] = []
        self._patches = []
        mods = {m: importlib.import_module(f"thueq.{m}") for m in MODULES}
        for table, make in ((SPANS, self._span), (COUNTED, self._count)):
            for m, names in table.items():
                for n in names:
                    fn = getattr(mods[m], n)
                    wrapper = make(f"{m}.{n}", fn)
                    self._patches += [(mod, attr, fn, wrapper)
                                      for mod in mods.values()
                                      for attr, val in vars(mod).items() if val is fn]

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        label_arg = LABEL_ARG.get(name)

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, None, stack[-1][ID] if stack else None,
                   self.op, 0.0, 0.0, None, None]
            if label_arg:
                rec[LABEL] = str(args[0] if args else kwargs[label_arg])
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if isinstance(out, (list, tuple, dict)):
                rec[N_OUT] = len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                if top[COUNTS] is None:
                    top[COUNTS] = defaultdict(int)
                top[COUNTS][name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def records(self) -> list[dict]:
        return [{"id": r[ID], "name": r[NAME], "label": r[LABEL], "parent": r[PARENT],
                 "op": r[OP], "start": r[START], "end": r[END], "n_out": r[N_OUT],
                 "counts": dict(r[COUNTS]) if r[COUNTS] else {}}
                for r in self.spans]


# ---------------------------------------------------------------------------
# per-layer metrics

SPAN_SECONDS = (
    "dioph.small_solution_search", "quadfield.enumerate_bounded",
    "descent.run_descent.0", "descent.run_descent.3",
    "series.newton_alpha_series", "series.alpha3_series", "series.pade",
    "series.pade_residual", "series.tail_bound", "series.quotient_root_check",
    "rouche.certify_high_order", "rouche.base_certificates", "rouche.root_separation",
    "hyperchi.verify_lettl", "measure.measure_constants",
    "measure.contradiction_upper_bound", "measure.corollary_eps",
    "exactnum.ln_enclosure", "dioph.classify_type", "dioph.divisibility_ball_check",
    "series.thue_polys_at",
)
SPAN_CALLS = ("quadfield.enumerate_bounded", "descent.run_step",
              "series.newton_alpha_series", "exactnum.kappa", "exactnum.ln_enclosure",
              "dioph.root_ball")
MICRO = ("quadfield.QuadInt.mul_us", "series.GaussRat.mul_us.descent",
         "series.GaussRat.mul_us.newton", "series.Series.mul_us",
         "series.TPoly.mul_us", "exactnum.ComplexBall.mul_us")


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {f"{k}.s": "s/op" for k in SPAN_SECONDS}
    units.update({f"{k}.calls": "count/op" for k in SPAN_CALLS})
    units.update({
        "quadfield.enumerate_bounded.elements": "count/op",
        "dioph.search.candidates": "count/op",
        "dioph.search.hit_ratio": "ratio",
        "dioph.search.self_s": "s/op",
        "measure.theorem_assembly.self_s": "s/op",
        "cli.self_s": "s/op",
    })
    units.update({f"{m}.self_s": "s/op" for m in MODULES if m != "cli"})
    units.update({"unattributed.s": "s/op", "trace.overhead_ratio": "ratio"})
    units.update({k: "us" for k in MICRO})
    return units


def layer_metrics(spans: list[dict], walls: dict, untraced_s: float,
                  solutions: int = 0, micro: dict | None = None) -> dict[str, float]:
    """Per-layer metrics per traced operation.

    ``walls`` maps each traced operation id to its wall time; ``untraced_s``
    is the wall time of the same operations run untraced, for the overhead
    ratio; ``solutions`` is ``len(small_solution_search(0))`` when the search
    ran.  A span's self time is its duration minus its child spans'.
    """
    n = max(len(walls), 1)
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += dur[s["id"]]
    total, calls, out_len = defaultdict(float), defaultdict(int), defaultdict(int)
    self_by, roots_by_op, assembly_by_op = defaultdict(float), defaultdict(float), defaultdict(float)
    candidates = 0
    in_search = set()
    cli_ops = set()
    for s in spans:  # parents precede children in the list
        sid, name = s["id"], s["name"]
        key = f"{name}.{s['label']}" if s["label"] is not None else name
        own = dur[sid] - children[sid]
        total[key] += dur[sid]
        calls[key] += 1
        out_len[key] += s["n_out"] or 0
        self_by[name.split(".")[0]] += own
        if name in (SEARCH, "measure.theorem_assembly"):
            self_by[name] += own
        if s["parent"] is None:
            roots_by_op[s["op"]] += dur[sid]
        if name == "cli.main":
            cli_ops.add(s["op"])
        if name == "measure.theorem_assembly":
            assembly_by_op[s["op"]] += dur[sid]
        if name == SEARCH or s["parent"] in in_search:
            in_search.add(sid)
            candidates += s["counts"].get(CANDIDATE, 0)

    m = {f"{k}.s": total[k] / n for k in SPAN_SECONDS}
    m.update({f"{k}.calls": calls[k] / n for k in SPAN_CALLS})
    m["quadfield.enumerate_bounded.elements"] = out_len["quadfield.enumerate_bounded"] / n
    m["dioph.search.candidates"] = candidates / n
    m["dioph.search.hit_ratio"] = solutions / candidates if candidates else 0.0
    m["dioph.search.self_s"] = self_by[SEARCH] / n
    m["measure.theorem_assembly.self_s"] = self_by["measure.theorem_assembly"] / n
    m["cli.self_s"] = sum(walls[op] - assembly_by_op[op] for op in cli_ops) / n
    for mod in MODULES:
        if mod != "cli":
            m[f"{mod}.self_s"] = self_by[mod] / n
    m["unattributed.s"] = sum(w - roots_by_op[op] for op, w in walls.items()) / n
    m["trace.overhead_ratio"] = sum(walls.values()) / untraced_s if untraced_s else 0.0
    for k in MICRO:
        m[k] = (micro or {}).get(k, 0.0)
    return {k: m[k] for k in metric_units()}
