"""Path-level benchmark of lagflow.

    python3 perfbench/run.py --workload stopped2d --seed 0 --seconds 55 --trace 0

Runs sample paths of the public pipeline one after another in this process
(a closed loop with one client): ``noise.sample_brownian`` ->
``fixedpoint.picard_solve`` -> ``eulerian.validate_solution`` ->
``eulerian.reconstruct`` / ``kinematic_residual`` (2D) / ``write_outputs``
into a temporary directory.  Path ``i`` uses the Brownian seed
``workloads.path_seed(seed, i)``.  A run goes on until a fixed number of
paths has validated, ``--seconds`` over the workload's typical time per
validated path (see ``validated_target``), so the same seed always attempts
the same paths.  The end-to-end timings are taken to a reference host speed
with the kernel of ``hostspeed.py``, timed between paths.

``--trace 0`` reports the end-to-end metrics of an untraced loop.
``--trace 1`` runs every path untraced and then traced (see ``tracer.py``)
and reports per-layer metrics per attempted traced path.  Every path's
physics outputs are checked (see ``physics.py``).  The run record goes to
stdout and, with the spans, under ``.perfbench_runs/``; the last stdout
line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import physics  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, build_inputs, path_seed  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1            # the arrays are small; a second thread only waits
MAX_LOOP_S = 150.0          # cuts a run short on a very slow host
SELF_SUM_TOL = 0.02         # traced self times cover the path wall time
SETUP_SAMPLES = 9           # fresh set-ups per untraced run, median reported
PATH_S = 6.0                # typical wall time per validated path, the failed
                            # paths before it included, on either workload

# metric names, units and order: BENCHMARK.json.  A per-layer metric named
# "<span>.<statistic>" with a statistic below is a span total per path;
# any other is a tracer counter or one of the ratios in per_layer_metrics
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPAN_STATS = ("self_s", "s", "calls")


def as_metrics(values: dict, section: str) -> dict:
    """``values`` as the metrics BENCHMARK.json declares in ``section``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in BENCHMARK[section]}


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def limit_blas_threads() -> int:
    """Set the BLAS thread variables to ``BLAS_THREADS`` before numpy loads.

    Returns nproc.  On a shared host a second BLAS thread spin-waits on the
    other core and makes every timing follow that core's load as well.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads_in_effect(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_lagflow() -> types.SimpleNamespace:
    """Import lagflow from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "lagflow" / "__init__.py").is_file():
        raise SystemExit(f"error: lagflow sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import lagflow
    from lagflow import (eulerian, fields, fixedpoint, flow, interp, lame,
                         noise, nonlinear)
    if Path(lagflow.__file__).resolve().parent != SRC / "lagflow":
        raise SystemExit(f"error: imported lagflow from {lagflow.__file__}")
    return types.SimpleNamespace(
        np=numpy, fields=fields, noise=noise, interp=interp, flow=flow,
        lame=lame, nonlinear=nonlinear, fixedpoint=fixedpoint,
        eulerian=eulerian)


def setup(workload):
    """Import lagflow and build the workload inputs; (seconds, lf, inputs)."""
    t0 = time.perf_counter()
    lf = import_lagflow()
    inputs = build_inputs(lf, workload)
    return time.perf_counter() - t0, lf, inputs


def fresh_setup_s(workload) -> float:
    """Set-up time of a fresh interpreter (``run.py --setup-only``)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload.name],
        check=True, capture_output=True, text=True, timeout=60)
    return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------
# one path
# ---------------------------------------------------------------------------

def run_path(lf, w, inputs, bseed: int, tracer=None) -> dict:
    """Solve, validate and write one path; its timings and physics record."""
    RUNS.mkdir(exist_ok=True)
    res = {"seed": bseed, "ok": False, "error": None, "record": None}
    if tracer is not None:
        tracer.start_path(bseed)
    with tempfile.TemporaryDirectory(dir=RUNS) as out_dir:
        t0 = time.perf_counter()
        try:
            bundle = lf.noise.sample_brownian(w.K, w.M, w.T, w.dt, bseed)
            t1 = time.perf_counter()
            sol = lf.fixedpoint.picard_solve(
                inputs.rho0, inputs.u0, inputs.params, inputs.cfg, inputs.Q,
                bundle, inputs.forcing)
            t2 = time.perf_counter()
            report = lf.eulerian.validate_solution(sol, inputs.params)
            t3 = time.perf_counter()
            snaps = lf.eulerian.reconstruct(sol)
            kin = (lf.eulerian.kinematic_residual(sol, inputs.Q, bundle)
                   if w.dim == 2 else None)
            lf.eulerian.write_outputs(sol, snaps, out_dir, kin)
            t4 = time.perf_counter()
        except Exception as exc:  # a failed path is counted, not fatal
            res["wall_s"] = time.perf_counter() - t0
            res["error"] = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        else:
            res.update(wall_s=t4 - t0, solve_s=t2 - t1, validate_s=t3 - t2,
                       output_s=t4 - t3)
            res["record"] = physics.physics_record(lf.np, sol, report)
            res["ok"] = True
    if tracer is not None:
        res["spans"], res["counts"] = tracer.end_path()
    return res


def check_path(res: dict, w, reference: dict | None, index: int) -> None:
    """Apply the physics check; a path with problems becomes failed."""
    ref = reference.get(index) if reference is not None else None
    if not res["ok"]:
        res["problems"] = ([] if ref is None else
                           [f"raised where the reference validated: {res['error']}"])
        return
    res["problems"] = physics.check_record(res["record"], w.T, ref)
    res["ok"] = not res["problems"]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def validated_target(seconds: float, trace: bool) -> int:
    """Validated paths one run waits for: ``seconds`` of ``PATH_S`` each.

    A traced run does every path twice, untraced and traced, so half as many.
    """
    n = round(seconds / PATH_S)
    return max(1, n // 2 if trace else n)


def path_loop(lf, w, inputs, seed: int, target: int, tracer=None,
              speed: HostSpeed | None = None) -> dict:
    """Run paths until ``target`` have validated; untraced (and traced).

    Stops early after ``MAX_LOOP_S``.
    With ``speed``, times the host-speed kernel after every path and gives
    each path the resulting ``scale``, and takes ``SETUP_SAMPLES`` set-up
    times of fresh interpreters between paths at even steps, so that they
    sample the host over the whole run.  ``loop_s`` sums the paths' own
    wall time; kernel and set-up time are left out.
    """
    reference = (physics.load_reference(w.name)
                 if seed == physics.DEFAULT_SEED else None)
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    index = validated = 0
    while validated < target:
        while (speed is not None and len(setups) < SETUP_SAMPLES
               and len(setups) * target // SETUP_SAMPLES <= validated):
            raw = fresh_setup_s(w)
            setups.append({"raw_s": raw, "scale": speed.scale()})
        if time.perf_counter() - start > MAX_LOOP_S:
            break
        bseed = path_seed(seed, index)
        t0 = time.perf_counter()
        gc.collect()
        res = run_path(lf, w, inputs, bseed)
        check_path(res, w, reference, index)
        res["segment_s"] = time.perf_counter() - t0
        res["scale"] = speed.scale() if speed is not None else 1.0
        plain.append(res)
        validated += res["ok"]
        if tracer is not None:
            gc.collect()
            with tracer:
                tres = run_path(lf, w, inputs, bseed, tracer)
            check_path(tres, w, reference, index)
            traced.append(tres)
        index += 1
    return {"plain": plain, "traced": traced, "setups": setups,
            "loop_s": sum(p["segment_s"] for p in plain),
            "reference": reference}


def scaled_median(paths: list[dict], key: str) -> float:
    """Median of ``key`` at reference host speed over validated paths."""
    return statistics.median(p[key] * p["scale"] for p in paths if p["ok"])


def end_to_end_metrics(loop: dict) -> dict:
    plain = loop["plain"]
    validated = sum(p["ok"] for p in plain)
    scaled_loop_s = sum(p["segment_s"] * p["scale"] for p in plain)
    values = {
        "setup_s": statistics.median(s["raw_s"] * s["scale"]
                                     for s in loop["setups"]),
        "validated_paths_per_min": 60.0 * validated / scaled_loop_s,
        "path_s_p50": scaled_median(plain, "wall_s"),
        "solve_s_p50": scaled_median(plain, "solve_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return as_metrics(values, "end_to_end")


def per_layer_metrics(loop: dict) -> dict:
    traced, plain = loop["traced"], loop["plain"]
    n = len(traced)
    spans: dict = {}
    counts: dict = {}
    for t in traced:
        for name, entry in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for stat in acc:
                acc[stat] += entry[stat]
        for name, c in t["counts"].items():
            counts[name] = counts.get(name, 0) + c
    values = {}
    monitors = counts.get("flow.stopping_monitor.monitors", 0)
    values["flow.stopping_monitor.fired_ratio"] = (
        counts.get("flow.stopping_monitor.fired", 0) / monitors if monitors else 0.0)
    values["failed_path_ratio"] = sum(not t["ok"] for t in traced) / n
    values["trace.overhead_ratio"] = (sum(t["wall_s"] for t in traced)
                                      / sum(p["wall_s"] for p in plain))
    values["trace.self_sum_ratio"] = self_sum_ratio(traced)
    # untraced stage timings at raw host speed (a traced run takes no
    # host-speed samples); too short to be steady enough for a bound
    values["validate_s_p50"] = scaled_median(plain, "validate_s")
    values["output_s_p50"] = scaled_median(plain, "output_s")
    for m in BENCHMARK["per_layer"]:
        span, _, stat = m["name"].rpartition(".")
        if stat in SPAN_STATS:
            values[m["name"]] = spans.get(span, {}).get(stat, 0) / n
        elif m["name"] not in values:
            values[m["name"]] = counts.get(m["name"], 0) / n
    return as_metrics(values, "per_layer")


def self_sum_ratio(traced: list[dict]) -> float:
    """Summed span self times over the summed wall times of traced paths."""
    return (sum(sum(e["self_s"] for e in t["spans"].values()) for t in traced)
            / sum(t["wall_s"] for t in traced))


def run(w, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run of workload ``w``; (result object, run record)."""
    nproc = limit_blas_threads()
    first_setup, lf, inputs = setup(w)
    threads = blas_threads_in_effect(lf.np)
    if threads is not None and threads > nproc:
        raise SystemExit(f"error: {threads} BLAS threads exceed nproc = {nproc}")
    tracer = speed = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(lf)
    else:
        speed = HostSpeed(lf.np)
    target = validated_target(seconds, trace)
    loop = path_loop(lf, w, inputs, seed, target, tracer, speed)
    if not any(p["ok"] for p in loop["plain"]):
        raise SystemExit(f"error: no path validated in {MAX_LOOP_S} s")
    runs = loop["plain"] + loop["traced"]
    metrics = per_layer_metrics(loop) if trace else end_to_end_metrics(loop)
    import scipy
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "nproc": nproc, "blas_threads": threads,
        "blas_env": {v: os.environ[v] for v in BLAS_VARS},
        "numpy": lf.np.__version__, "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "path_seeds": [p["seed"] for p in loop["plain"]],
        "reference_checked": loop["reference"] is not None,
        "validated_target": target,
        "loop_s": loop["loop_s"],
        "setup_s_in_process": first_setup,
        "setup_s_samples": loop["setups"],
        "paths": [{k: v for k, v in r.items() if k not in ("spans", "counts")}
                  for r in runs],
        "metrics": metrics,
    }
    result = {
        "correct": not any(r["problems"] for r in runs),
        "attempted": len(runs),
        "failed": sum(not r["ok"] for r in runs),
        "metrics": metrics,
    }
    if trace:
        record["self_sum_tolerance"] = SELF_SUM_TOL
        ratios = [self_sum_ratio([t]) for t in loop["traced"]]
        record["self_sum_ratio_per_path"] = ratios
        write_spans(tracer, w.name, seed)
    return result, record


def write_spans(tracer, workload: str, seed: int) -> None:
    path = RUNS / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent, path_id in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "path": path_id}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=physics.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print the set-up time of a fresh process and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        limit_blas_threads()
        print(setup(WORKLOADS[args.workload])[0])
        return 0
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    (RUNS / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
