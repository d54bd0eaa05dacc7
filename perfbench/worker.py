"""Child process of the benchmark.

    python3 perfbench/worker.py WORKLOAD MODE [--inputs FILE] [--seconds S]

Every mode starts by importing each ``thueq`` module and warming the caches
its workload relies on; that is the set-up the parent times.  MODE is

* ``probe``: set up, report the moment set-up ended and the cache state;
* ``run``: set up, then run the operations in FILE, in order, starting new
  blocks of them until S seconds have passed;
* ``trace``: as ``run``, but every operation runs twice, untraced and
  traced, in alternating order;
* ``cli``: run ``thueq verify-all`` in-process with tracing on;
* ``micro``: the arithmetic microbenchmarks.

The result is one JSON object on stdout.  ``run`` needs ``PYTHONPATH`` to
reach ``src``; ``perfbench/run.py`` sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import workloads  # noqa: E402

CAL_FIRST_S = 0.25  # calibration before the first operation
CAL_MIN_S = 0.005  # calibration after each operation: at least this long,
CAL_SHARE = 0.15  # and this share of the operation's wall time
MODULES = ("exactnum", "quadfield", "series", "hyperchi", "rouche", "descent",
           "dioph", "measure", "cli")


def now() -> float:
    """CLOCK_MONOTONIC, which the parent process reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup(workload: str) -> None:
    """Import every module and fill the process-lifetime caches that the
    workload's operations would otherwise fill on their first call."""
    import importlib

    for m in MODULES:
        importlib.import_module(f"thueq.{m}")
    from thueq import hyperchi, measure

    if workload == "certify_sweep":
        hyperchi.verify_lettl(60)  # fills denom_data for measure_constants
    if workload == "concrete_t":
        for r in workloads.DIV_ORDERS:
            hyperchi.chi_coeffs(r)  # thue_polys_at
    if workload != "verify_all":
        measure.kappa_hi(Fraction(100))  # the ln 2 cache


def cache_state() -> dict:
    from thueq import dioph, exactnum, hyperchi

    return {"denom_data": hyperchi.denom_data.cache_info().currsize,
            "chi_coeffs": hyperchi.chi_coeffs.cache_info().currsize,
            "ln2": len(exactnum._LN2_CACHE),
            "search": dioph._SEARCH_CACHE is not None}


def operations(workload: str, inputs) -> list[list[tuple]]:
    """Blocks of (label, run, check); ``check`` returns problem strings and
    the bounds the sweep's cross-point check needs.  A run stops only
    between blocks, so each run holds the same mix of inputs."""
    if workload == "certify_sweep":
        ops = [(tmin, lambda tmin=tmin: workloads.certify_point(tmin),
                lambda res, tmin=tmin: workloads.check_point(tmin, res))
               for tmin in inputs]
        size = workloads.SWEEP_STRATA
    elif workload == "concrete_t":
        ops = [(kind, lambda rnd=rnd, kind=kind, arg=arg: workloads.run_query(rnd, kind, arg),
                lambda res, rnd=rnd, kind=kind, arg=arg: (
                    workloads.check_query(rnd, kind, arg, res), None))
               for rnd in inputs for kind, arg in workloads.concrete_queries(rnd)]
        size = len(ops) // len(inputs) * len(workloads.FIELDS)
    else:
        raise ValueError(f"no warm operations for {workload}")
    return [ops[i:i + size] for i in range(0, len(ops), size)]


def _attempt(run, check, tracer=None) -> tuple[float, list[float], list[str], object]:
    """Run one operation, traced when a tracer is given and else with its
    speed sampled, then check it untraced.  Returns its wall time, the speed
    samples, the problems found and the check's extra output."""
    sampler = speed.Sampler() if tracer is None else None
    if tracer is not None:
        tracer.install()
    start = now()
    try:
        with sampler or contextlib.nullcontext():
            res, error = run(), None
    except Exception as exc:  # a failed operation is counted, the run goes on
        res, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = now() - start - (sampler.spent if sampler else 0.0)
        if tracer is not None:
            tracer.remove()
    units = sampler.units if sampler else []
    if error:
        return wall, units, [error], None
    try:
        problems, extra = check(res)
    except Exception as exc:
        return wall, units, [f"check raised {type(exc).__name__}: {exc}"], None
    return wall, units, problems, extra


def run_ops(workload: str, inputs, seconds: float, tracer=None) -> tuple[list, list]:
    """Operation records, and the calibrations taken before, between and
    after the operations."""
    records = []
    start = now()
    cals = [speed.calibrate(CAL_FIRST_S)]
    for block in operations(workload, inputs):
        if records and now() - start >= seconds:
            break
        for label, run, check in block:
            i = len(records)
            rec = {"op": i, "label": label, "problems": []}
            order = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in order:
                if traced:
                    tracer.op = i
                wall, units, problems, extra = _attempt(run, check,
                                                        tracer if traced else None)
                rec["traced_s" if traced else "wall"] = wall
                if not traced:
                    rec["units"] = units
                rec["problems"] += problems
                rec["bounds"] = extra
            cals.append(speed.calibrate(max(CAL_MIN_S, CAL_SHARE * rec["wall"])))
            records.append(rec)
    if workload == "certify_sweep":
        points = [(r["label"], r["bounds"]) for r in records if r["bounds"]]
        broken = set(workloads.monotone_violations(points))
        for r in records:
            if r["label"] in broken:
                r["problems"].append("bounds not monotone in tmin")
    return records, cals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=tuple(workloads.WORKLOADS))
    ap.add_argument("mode", choices=("probe", "run", "trace", "cli", "micro"))
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    if args.mode == "micro":
        import micro

        print(json.dumps({"micro": micro.run()}))
        return 0
    setup(args.workload)
    out = {"ready": now()}
    if args.mode == "probe":
        out["caches"] = cache_state()
    elif args.mode == "cli":
        from tracing import Tracer
        from thueq import cli, dioph

        tracer = Tracer()
        tracer.op = 0
        buf = io.StringIO()
        tracer.install()
        try:
            with redirect_stdout(buf):
                out["rc"] = cli.main(["verify-all"])
        finally:
            tracer.remove()
        out["report"] = buf.getvalue()
        out["solutions"] = len(dioph.small_solution_search(Fraction(0)))
        out["spans"] = tracer.records()
    else:
        with open(args.inputs) as fh:
            inputs = json.load(fh)
        tracer = None
        if args.mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
        out["ops"], out["cals"] = run_ops(args.workload, inputs, args.seconds, tracer)
        if tracer is not None:
            out["spans"] = tracer.records()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
