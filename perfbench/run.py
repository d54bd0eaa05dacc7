"""Benchmark of the thueq verification engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout, the directory that holds
``src/thueq``; nothing needs installing.  NAME is ``verify_all``,
``certify_sweep``, ``concrete_t`` or ``all`` (the three in turn).

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1``, a separate run, it traces the calls into each
module's public functions and measures the per-layer metrics.  Every
operation's output is checked.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it print
every metric by name and unit, including the per-workload names
(``verify_s``, ``sweep_points_per_s``, ``queries_per_s``, ``query_p50_s``,
``query_p90_s``, ``fail_ratio``).  The full record, with provenance and raw
samples, is written to ``perfbench/results/``, and the spans of a traced
run to a JSONL file beside it.

One client drives each workload in a closed loop, with at most one child
process alive at a time, all pinned to one processor.  ``verify_all``
starts a fresh interpreter per operation, so no in-process cache carries
over; the warm workloads set up one worker process and count its warm-up in
``setup_s``.  End-to-end times are scaled to a reference machine speed
(see ``speed.py``); the times as measured are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"op_p50_s": "s", "op_p90_s": "s", "ops_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
ALIASES = {
    "verify_all": {"verify_s": "op_p50_s"},
    "certify_sweep": {"sweep_points_per_s": "ops_per_s"},
    "concrete_t": {"queries_per_s": "ops_per_s", "query_p50_s": "op_p50_s",
                   "query_p90_s": "op_p90_s"},
}
SETUP_SAMPLES = 7
CAL_SETUP_S = 0.2  # calibration around the set-up probes
CAL_COLD_S = 0.25  # calibration around each cold verify-all process
RUN_BUDGET_S = 170.0  # a run must end within 180 s
CONSOLE_SCRIPT = "import sys; from thueq.cli import main; sys.exit(main())"
REFERENCE = os.path.join(HERE, "reference", "verify_all.json")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Child:
    """Runs child processes one at a time, each waited for, none outliving
    the run's time budget."""

    def __init__(self, root: str, deadline: float):
        self.root, self.deadline = root, deadline
        self.env = dict(os.environ)
        self.env.pop("THUEQ_THREADS", None)  # the report records it
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.work = os.path.join(RESULTS, "work")
        os.makedirs(self.work, exist_ok=True)

    def spawn(self, argv: list[str], sample: bool = False) -> dict:
        """Run argv to completion: wall time from spawn to exit, exit code,
        output and the child's peak RSS.  With ``sample``, this process
        samples the speed of the processor it shares with the child while
        waiting, and that time is taken off the child's wall time."""
        remaining = self.deadline - now()
        if remaining <= 0:
            return {"wall": 0.0, "rc": None, "out": b"", "err": b"time budget spent",
                    "rss_mb": 0.0, "spawned": now(), "units": []}
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = now()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            reaped = {}

            def reap():
                reaped["status"] = os.wait4(proc.pid, 0)
                reaped["end"] = now()

            reaper = threading.Thread(target=reap)
            reaper.start()
            try:
                with speed.Sampler() if sample else contextlib.nullcontext() as sampler:
                    reaper.join()
            except BaseException:
                proc.kill()
                reaper.join()
                raise
            finally:
                timer.cancel()
            _, status, usage = reaped["status"]
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return {"wall": reaped["end"] - spawned - (sampler.spent if sample else 0.0),
                "rc": proc.returncode, "out": stdout, "err": stderr,
                "rss_mb": usage.ru_maxrss / 1024, "spawned": spawned,
                "units": sampler.units if sample else []}

    def worker(self, workload: str, mode: str, inputs=None, seconds: float = 0.0):
        """Run perfbench/worker.py; returns (spawn record, decoded result)."""
        argv = [sys.executable, WORKER, workload, mode]
        if inputs is not None:
            path = os.path.join(self.work, "inputs.json")
            with open(path, "w") as fh:
                json.dump(inputs, fh)
            argv += ["--inputs", path, "--seconds", repr(seconds)]
        rec = self.spawn(argv)
        if rec["rc"] != 0:
            return rec, None
        return rec, json.loads(rec["out"].decode().strip().splitlines()[-1])


def _fail(rec: dict) -> str:
    tail = rec["err"].decode(errors="replace").strip().splitlines()[-1:]
    return f"exit code {rec['rc']}: {' '.join(tail)}"


# ---------------------------------------------------------------------------
# verify_all: a fresh interpreter per operation

def verify_problems(rc, report: bytes, reference: bytes) -> list[str]:
    bad = []
    if rc != 0:
        bad.append(f"exit code {rc}")
    if report != reference:
        bad.append("report differs from the recorded reference")
    try:
        verdict = json.loads(report)["verdict"]
    except (ValueError, KeyError):
        verdict = None
    if verdict != "proven":
        bad.append(f"verdict {verdict!r}")
    return bad


def setup_samples(child: Child, workload: str) -> tuple[list[float], float]:
    """Set-up times of fresh probe processes, spawn to end of warm-up, and
    the speed factor calibrated around them."""
    before = speed.calibrate(CAL_SETUP_S)
    setup = []
    for _ in range(SETUP_SAMPLES):
        rec, res = child.worker(workload, "probe")
        if res is not None:
            setup.append(res["ready"] - rec["spawned"])
    return setup, speed.factors([before, speed.calibrate(CAL_SETUP_S)])[0]


def run_verify_all(child: Child, seconds: float, trace: bool, reference: bytes) -> dict:
    out = {"ops": []}
    if not trace:
        out["setup"], out["setup_speed"] = setup_samples(child, "verify_all")
    ops = out["ops"]
    start = now()
    cals = [speed.calibrate(CAL_COLD_S)]
    while not ops or (not trace and now() - start < seconds):
        rec = child.spawn([sys.executable, "-c", CONSOLE_SCRIPT, "verify-all"], sample=True)
        cals.append(speed.calibrate(CAL_COLD_S))
        ops.append({"wall": rec["wall"], "rss_mb": rec["rss_mb"], "units": rec["units"],
                    "problems": verify_problems(rec["rc"], rec["out"], reference)})
    for op, f in zip(ops, speed.factors(cals, [op["units"] for op in ops])):
        op["speed"] = f
    if trace:
        rec, res = child.worker("verify_all", "cli")
        problems = [_fail(rec)] if res is None else verify_problems(
            res["rc"], res["report"].encode(), reference)
        ops.append({"wall": rec["wall"], "rss_mb": rec["rss_mb"], "problems": problems})
        if res is not None:
            out["layers"] = tracing.layer_metrics(
                res["spans"], {0: rec["wall"]}, ops[0]["wall"], res["solutions"])
            out["spans"] = res["spans"]
    return out


# ---------------------------------------------------------------------------
# warm workloads: one worker process after a timed set-up

def run_warm(child: Child, workload: str, inputs, seconds: float, trace: bool) -> dict:
    out = {}
    if not trace:
        out["setup"], out["setup_speed"] = setup_samples(child, workload)
    rec, res = child.worker(workload, "trace" if trace else "run", inputs, seconds)
    out["rss_mb"] = rec["rss_mb"]
    if res is None:
        out["ops"] = [{"wall": rec["wall"], "problems": [_fail(rec)]}]
        return out
    out["ops"] = res["ops"]
    inside = [op["units"] for op in res["ops"]]
    for op, f in zip(res["ops"], speed.factors(res["cals"], inside)):
        op["speed"] = f
    if trace:
        walls = {op["op"]: op["traced_s"] for op in res["ops"]}
        out["layers"] = tracing.layer_metrics(
            res["spans"], walls, sum(op["wall"] for op in res["ops"]))
        out["spans"] = res["spans"]
    return out


# ---------------------------------------------------------------------------

def end_to_end(out: dict, adjust: bool = True) -> dict[str, float]:
    """The end-to-end metrics, with times scaled to the reference speed
    (``adjust``) or as measured."""
    walls = [op["wall"] * (op.get("speed", 1.0) if adjust else 1.0) for op in out["ops"]]
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1] if len(walls) > 1 else walls[0]
    setup = statistics.median(out["setup"]) if out["setup"] else 0.0
    return {"op_p50_s": statistics.median(walls), "op_p90_s": p90,
            "ops_per_s": len(walls) / sum(walls),
            "setup_s": setup * (out["setup_speed"] if adjust else 1.0),
            "peak_rss_mb": out.get("rss_mb") or max(op["rss_mb"] for op in out["ops"])}


def provenance(root: str) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "thueq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model,
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    child = Child(root, now() + RUN_BUDGET_S)
    if workload == "verify_all":
        with open(REFERENCE, "rb") as fh:
            out = run_verify_all(child, seconds, trace, fh.read())
    else:
        inputs = (workloads.sweep_inputs(seed) if workload == "certify_sweep"
                  else workloads.concrete_inputs(seed))
        out = run_warm(child, workload, inputs, seconds, trace)
    if trace and out.get("layers"):
        rec, res = child.worker(workload, "micro")
        if res is None:
            out["micro_error"] = _fail(rec)
        else:
            out["layers"].update(res["micro"])
    failures = [p for op in out["ops"] for p in op["problems"]]
    failed = sum(1 for op in out["ops"] if op["problems"])
    raw = {}
    if trace:
        units = tracing.metric_units()
        layers = out.get("layers", {})
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}
        complete = bool(layers) and "micro_error" not in out
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(out).items()}
        raw = {k: {"value": v, "unit": END_TO_END[k]}
               for k, v in end_to_end(out, adjust=False).items()}
        complete = len(out["setup"]) == SETUP_SAMPLES
    result = {
        "workload": workload, "why": workloads.WORKLOADS[workload], "seed": seed,
        "seconds": seconds, "trace": int(trace), "provenance": provenance(root),
        "attempted": len(out["ops"]), "failed": failed,
        "fail_ratio": failed / len(out["ops"]),
        "correct": failed == 0 and complete,
        "setup_samples": out.get("setup", []),
        "op_walls": [op["wall"] for op in out["ops"]],
        "op_speed": [op.get("speed") for op in out["ops"]],
        "failures": failures[:20], "metrics": metrics, "unadjusted": raw,
        "aliases": {} if trace else {a: metrics[k] for a, k in ALIASES[workload].items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}_seed{seed}_trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if trace and out.get("spans"):
        with open(stem + ".spans.jsonl", "w") as fh:
            for span in out["spans"]:
                fh.write(json.dumps(span) + "\n")
    return result


def report(result: dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"  trace={result['trace']}  ops={result['attempted']}"
          f"  setup_samples={len(result['setup_samples'])}")
    raw = result["unadjusted"]
    for name, m in list(result["metrics"].items()) + list(result["aliases"].items()):
        measured = f"   as measured {raw[name]['value']:.6g}" if name in raw else ""
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:8s}{measured}")
    print(f"{'fail_ratio':40s} {result['fail_ratio']:>16.6g} ratio")
    for line in result["failures"]:
        print(f"  failure: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind, so that Child.spawn kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one processor for this process and its children, so that the speed
    # samples are taken on the processor the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thueq", "cli.py")):
        print(f"run from the root of a thueq checkout: no src/thueq in {root}", file=sys.stderr)
        return 2
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        results.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
        report(results[-1])
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
