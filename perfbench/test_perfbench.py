"""Fast self-test of the benchmark on a tiny grid and one path.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import physics
import run
from tracer import FUNCTIONS, METHODS, MODULES, Tracer
from workloads import WORKLOADS

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(trace: bool):
    w = dataclasses.replace(WORKLOADS["stopped2d"], name="tiny", n=9, T=0.01,
                            transport_amplitude=1e-4)
    return run.run(w, seed=3, seconds=0, trace=trace)


def check_metrics(metrics: dict, declared: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)), m["name"]


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_untraced_tiny_run_emits_every_end_to_end_metric(monkeypatch):
    # fresh interpreters: test_setup_only_prints_a_positive_time
    fresh = []
    monkeypatch.setattr(run, "fresh_setup_s", lambda w: fresh.append(w) or 0.5)
    result, record = tiny(trace=False)
    assert len(fresh) == run.SETUP_SAMPLES
    assert len(record["setup_s_samples"]) == run.SETUP_SAMPLES
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    check_metrics(result["metrics"], BENCH["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
    assert record["nproc"] >= 1
    assert record["blas_threads"] is None or record["blas_threads"] <= record["nproc"]
    assert record["path_seeds"] == [record["paths"][0]["seed"]]


def test_traced_tiny_run_emits_every_per_layer_metric():
    result, record = tiny(trace=True)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    m = result["metrics"]
    check_metrics(m, BENCH["per_layer"])
    assert m["lame.factorizations"]["value"] == 1
    assert m["lame.step_solves"]["value"] > 0
    assert m["fixedpoint.apply_Psi.calls"]["value"] >= 1
    assert m["eulerian.bytes_written"]["value"] > 0
    # every path's span self times add up to its traced wall time
    for ratio in record["self_sum_ratio_per_path"]:
        assert abs(ratio - 1.0) <= run.SELF_SUM_TOL


def test_tracer_wraps_and_restores_every_listed_function():
    lf = run.import_lagflow()
    modules = {name: getattr(lf, name) for name in MODULES}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    classes = {(m, c): getattr(modules[m], c) for m, c, _ in METHODS}
    class_before = {key: dict(vars(cls)) for key, cls in classes.items()}
    with Tracer(lf):
        for m, attr in FUNCTIONS:
            original = before[m][attr]
            holders = [(name, key) for name, snap in before.items()
                       for key, value in snap.items() if value is original]
            for name, key in holders:
                assert vars(modules[name])[key].__wrapped__ is original
        assert lf.fixedpoint.solve_lame.__wrapped__ is before["lame"]["solve_lame"]
        for m, c, attr in METHODS:
            assert vars(classes[m, c])[attr].__wrapped__ is class_before[m, c][attr]
    for name, mod in modules.items():
        assert vars(mod) == before[name]
    for key, cls in classes.items():
        assert dict(vars(cls)) == class_before[key]


def test_setup_only_prints_a_positive_time():
    assert run.fresh_setup_s(WORKLOADS["solid3d"]) > 0


def test_refuses_to_run_without_the_sources():
    bare = run.RUNS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "stopped2d",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_physics_check_flags_wrong_answers():
    T = WORKLOADS["stopped2d"].T
    ref = physics.load_reference("stopped2d")[0]
    assert physics.check_record(ref, T, ref) == []
    near = dict(ref, v_l2=ref["v_l2"] * (1 + 1e-13))
    assert physics.check_record(near, T, ref) == []
    for key, bad in (("v_l2", ref["v_l2"] * (1 + 1e-6)), ("iterations", 99),
                     ("monitor_fired_index", 3), ("rho_min", -1.0),
                     ("tau", 2 * T)):
        wrong = dict(ref, **{key: bad})
        assert physics.check_record(wrong, T, ref), key
    assert physics.check_record(dict(ref, validated=False), T, None)


def test_a_path_that_raises_where_the_reference_validated_is_wrong():
    w = WORKLOADS["stopped2d"]
    reference = physics.load_reference(w.name)
    validated = next(i for i, rec in reference.items() if rec is not None)
    failed = next(i for i, rec in reference.items() if rec is None)
    for index, wrong in ((validated, True), (failed, False),
                         (len(reference), False)):
        res = {"ok": False, "error": "ValueError: boom", "record": None}
        run.check_path(res, w, reference, index)
        assert bool(res["problems"]) == wrong, index
        res = {"ok": False, "error": "ValueError: boom", "record": None}
        run.check_path(res, w, None, index)
        assert res["problems"] == []
