"""Tests of the benchmark's own rules: seeded inputs, cold verify-all
operations, warm-up inside set-up, live output checks and span arithmetic."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import run
import speed
import tracing
import workloads

ROOT = os.path.dirname(run.HERE)


def test_inputs_depend_only_on_the_seed():
    assert workloads.sweep_inputs(3) == workloads.sweep_inputs(3)
    assert workloads.sweep_inputs(3) != workloads.sweep_inputs(4)
    pts = workloads.sweep_inputs(3)
    assert len(set(pts)) == len(pts) and all(100 <= t <= 10 ** 6 for t in pts)
    assert workloads.concrete_inputs(3)[:8] == workloads.concrete_inputs(3)[:8]
    assert workloads.concrete_inputs(3)[:8] != workloads.concrete_inputs(4)[:8]


def test_verify_all_spawns_a_fresh_interpreter_per_operation(monkeypatch):
    with open(run.REFERENCE, "rb") as fh:
        reference = fh.read()
    spawned = []

    def fake_spawn(self, argv, sample=False):
        spawned.append(argv)
        time.sleep(0.01)
        probe = argv[1] == run.WORKER
        out = json.dumps({"ready": run.now()}).encode() if probe else reference
        return {"wall": 0.01, "rc": 0, "out": out, "err": b"", "rss_mb": 1.0,
                "spawned": run.now(), "units": []}

    monkeypatch.setattr(run.Child, "spawn", fake_spawn)
    monkeypatch.setattr(speed, "calibrate", lambda min_s: speed.REF_UNIT_S)
    child = run.Child(ROOT, run.now() + 60)
    out = run.run_verify_all(child, 0.05, False, reference)
    cold = [a for a in spawned if a[1:] == ["-c", run.CONSOLE_SCRIPT, "verify-all"]]
    assert len(out["ops"]) >= 2 and len(cold) == len(out["ops"])
    assert all(not op["problems"] for op in out["ops"])


def test_warm_up_is_inside_set_up():
    child = run.Child(ROOT, run.now() + 60)
    rec, res = child.worker("certify_sweep", "probe")
    assert rec["rc"] == 0
    caches = res["caches"]
    assert caches["denom_data"] >= 60 and caches["ln2"] >= 1 and not caches["search"]
    assert rec["spawned"] < res["ready"] < rec["spawned"] + rec["wall"]
    rec, res = child.worker("concrete_t", "probe")
    assert res["caches"]["chi_coeffs"] >= len(workloads.DIV_ORDERS)


def test_checks_reject_wrong_outputs():
    with open(run.REFERENCE, "rb") as fh:
        reference = fh.read()
    assert run.verify_problems(0, reference, reference) == []
    altered = reference.replace(b'"proven"', b'"inconclusive"')
    assert len(run.verify_problems(1, altered, reference)) == 3
    good = {"lower0": "10", "lower3": "5", "upper": "3"}
    worse = {"lower0": "9", "lower3": "6", "upper": "3"}
    assert workloads.monotone_violations([(100, good), (200, worse)]) == [200]
    rnd = workloads.concrete_inputs(0)[0]
    x, y, want = rnd["pairs"][0]
    assert workloads.check_query(rnd, "classify_type", [x, y, want], (want + 1) % 4)


def test_classify_inputs_have_a_wide_float_gap():
    for rnd in workloads.concrete_inputs(5)[:16]:
        roots = workloads.float_roots(workloads.embed(rnd["d"], *rnd["t"]))
        for x, y, want in rnd["pairs"]:
            got, gap = workloads.float_type(roots, workloads.embed(rnd["d"], *x),
                                            workloads.embed(rnd["d"], *y))
            assert got == want and gap > workloads.MIN_GAP


def test_speed_factor_ignores_one_stalled_calibration():
    ref = speed.REF_UNIT_S
    cals = [ref, 2 * ref, 2 * ref, 50 * ref, 2 * ref, 2 * ref]
    assert speed.factors(cals) == [0.5, 0.5, 0.5, 0.5, 0.5]
    assert speed.calibrate(0.01) > 0


def test_layer_metrics_self_times():
    def span(i, name, parent, start, end, op=0, counts=None, label=None):
        return {"id": i, "name": name, "label": label, "parent": parent, "op": op,
                "start": start, "end": end, "n_out": None, "counts": counts or {}}

    spans = [
        span(0, "cli.main", None, 1.0, 9.0),
        span(1, "measure.theorem_assembly", 0, 2.0, 8.0),
        span(2, "dioph.small_solution_search", 1, 2.0, 6.0,
             counts={"quadfield.roots_of_unity": 40}),
        span(3, "quadfield.enumerate_bounded", 2, 2.0, 3.0),
        span(4, "descent.run_descent", 1, 6.0, 7.5, label="0"),
    ]
    m = tracing.layer_metrics(spans, {0: 10.0}, 8.0, solutions=4)
    assert m["dioph.search.self_s"] == 3.0
    assert m["measure.theorem_assembly.self_s"] == 0.5
    assert m["descent.run_descent.0.s"] == 1.5
    assert m["cli.self_s"] == 4.0 and m["unattributed.s"] == 2.0
    assert m["dioph.search.candidates"] == 40 and m["dioph.search.hit_ratio"] == 0.1
    assert m["trace.overhead_ratio"] == 10.0 / 8.0
    assert set(m) == set(tracing.metric_units())


def test_tracer_patches_rebound_names_and_restores_them():
    from thueq import descent, measure, series

    original = series.pade
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert descent.pade is not original and series.pade is descent.pade
        measure.kappa_hi(Fraction(100))
    finally:
        tracer.remove()
    assert descent.pade is original and series.pade is original
    names = [s["name"] for s in tracer.records()]
    assert names[:2] == ["measure.kappa_hi", "exactnum.kappa"]


def test_benchmark_json_matches_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def test_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", "concrete_t", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
