"""One sha256 per benchmark path over every output a solve produces.

Two checkouts give the same bits when they print the same lines.  A path
is solved as the benchmark solves it (``perfbench/workloads.py``, read
here without a change): the Brownian bundle of ``path_seed(seed, index)``,
``picard_solve``, ``validate_solution``, ``reconstruct``, the kinematic
residual and ``write_outputs``.  The digest covers

- v, rho, U, ubar, X, grad X, Z, J and the window's times
- every ``MonitorResult`` array (``MONITOR_ARRAYS``), ``fired`` and
  ``fired_index``
- tau and kappa (``float.hex``), iterations, diffs, converged, the energy
  and the Brownian seed
- the ``validate_solution`` report, as JSON with sorted keys
- the kinematic residual, in both dimensions
- the bytes of every file ``write_outputs`` writes

``--physics`` hashes only the outputs that a change of norm values by
round-off must leave alone (``PHYSICS_ITEMS``, ``PHYSICS_MONITOR``): v,
rho, U, ubar, the window's X, grad X, Z, J and times, the solve's times,
tau (``float.hex``), the iteration count, the monitor's ``fired_index``
and the validation verdict (the report's ``passed`` flags); with
``--certifications`` its lines carry the counts too.  A change that moves
the monitor norms, kappa or the validator's gaps by round-off but keeps
these bits prints the same ``--physics`` lines at both checkouts.

A path that raises is digested by its exception.  ``lagflow`` comes from
``PYTHONPATH``, so any checkout can be digested, for example

    PYTHONPATH=src python3 tests/output_digest.py stopped2d --seed 1 --paths 0-3
    PYTHONPATH=../other/src python3 tests/output_digest.py solid3d --paths 0-8

The record's values are hashed by name, from the lists below, so a field
or property added to ``SolutionBundle`` or ``MonitorResult`` is either
named here or excluded with a reason (``test_package`` checks this).

``--no-transport`` runs the workload with K = 0 transport fields, the
same forcing and a bundle of the forcing paths alone (the noise flow's
zero-increment case); its lines name the workload ``<workload>/K=0``.  It
uses nothing the K > 0 run does not, so it runs on earlier checkouts too.
``--modes M`` runs the workload with M ``default_modes`` forcing modes, of
the workload's amplitude, in place of its one, and an M-mode bundle; its
lines append ``/M=<M>`` to the workload's name.  It runs on earlier
checkouts too.  ``--dt DT`` runs the workload at the step DT, in its
``SolveConfig`` and its Brownian bundles; its lines append ``/dt=<DT>``.
It too runs on earlier checkouts.

Each line is ``workload seed index brownian_seed sha256``, in the order the
paths ran.  ``--reverse`` runs them last to first: a path must not depend
on the paths before it (the cached ``Problem`` with the forcing's impulse
responses, the interpolation axes and the contraction plans are shared),
so its line must not change.
``--peak`` appends the path's tracemalloc peak of ``picard_solve`` in
bytes, with the noise-free set-up (``problem_for``: the operator, the
forcing's impulse responses and the reference) built before tracing
starts, so one run per checkout gives the bits and the peaks; without it
the lines are as they were before the flag.  ``--certifications``
appends the path solve's counts of certified and declined monitor
records (``MonitorResult.certifies``) and of exact monitor runs
(``stopping_monitor``, the rebuild's included), as
``certified=C declined=D exact=E``; it adds no solve run and leaves the
digest as it is.  One BLAS thread is used unless the environment says
otherwise, and the lines are bit-for-bit claims at one thread only: with
``OPENBLAS_NUM_THREADS=2`` the ``solid3d`` lines differ, since the BLAS
products of ``lame.solve_stoch_convolution`` round differently there (U
moved by up to 4.2e-22).  Compare two checkouts at one thread count.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from lagflow import eulerian, fields, fixedpoint, flow, lame, noise  # noqa: E402

# the record's values, in the order they are hashed
SERIES = ("v", "U", "ubar")
WINDOW_ARRAYS = ("times", "X", "gradX", "Z", "J")
MONITOR_ARRAYS = ("times", "sup_gradX", "htheta_Z", "htheta_J", "total",
                  "pair", "frame", "Z", "J")
MONITOR_ITEMS = MONITOR_ARRAYS + ("fired", "fired_index")
BUNDLE_ITEMS = SERIES + ("rho", "times", "window", "monitor", "tau", "kappa",
                         "iterations", "converged", "rho_positive", "seed",
                         "diffs", "energy")
# the subset that --physics hashes, in the order it is hashed
PHYSICS_ITEMS = SERIES + ("rho", "times", "window", "tau", "iterations")
PHYSICS_MONITOR = ("fired_index",)
NOT_HASHED = {
    "grid": "the workload's input grid, the same on every path",
    "problem": "the noise-free set-up (inputs, Lame operator, impulse "
               "responses, reference), the same on every path; it reaches "
               "every hashed output",
    "certificate": "eulerian's cache of the injectivity certificate, "
                   "hashed through the validation report and written files",
}


class Digest:
    """A sha256 fed with named, typed items."""

    def __init__(self):
        self._h = hashlib.sha256()

    def raw(self, name: str, data: bytes) -> None:
        self._h.update(f"{name}:{len(data)}:".encode())
        self._h.update(data)

    def array(self, name: str, a) -> None:
        a = np.ascontiguousarray(a)
        self.raw(f"{name}{a.dtype.str}{a.shape}", a.tobytes())

    def floats(self, name: str, xs) -> None:
        self.raw(name, " ".join(float(x).hex() for x in xs).encode())

    def text(self, name: str, s: str) -> None:
        self.raw(name, s.encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class MonitorDecisions:
    """Counts of the monitor decisions of the solves run after it is made:
    it wraps ``MonitorResult.certifies`` (a record certified or declined)
    and the ``stopping_monitor`` that ``fixedpoint`` calls (an exact run)."""

    def __init__(self):
        self.counts = dict.fromkeys(("certified", "declined", "exact"), 0)
        certifies = flow.MonitorResult.certifies
        monitor = fixedpoint.stopping_monitor

        def counted_certifies(record, *args):
            ok = certifies(record, *args)
            self.counts["certified" if ok else "declined"] += 1
            return ok

        def counted_monitor(*args):
            self.counts["exact"] += 1
            return monitor(*args)

        flow.MonitorResult.certifies = counted_certifies
        fixedpoint.stopping_monitor = counted_monitor

    def take(self) -> str:
        """The counts since the last call, as ``name=count`` words."""
        words = " ".join(f"{k}={v}" for k, v in self.counts.items())
        self.counts = dict.fromkeys(self.counts, 0)
        return words


def _plain(obj):
    """JSON form of the numpy values in a report."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def verdict(report: dict) -> dict:
    """The ``passed`` flags of a validation report, by part."""
    return {key: part["passed"] if isinstance(part, dict) else part
            for key, part in sorted(report.items())
            if isinstance(part, dict) or key == "passed"}


def digest_solution(d: Digest, w, inputs, bseed: int,
                    peaks: list | None, physics: bool = False) -> None:
    bundle = noise.sample_brownian(inputs.Q.K, inputs.forcing.M,
                                   inputs.cfg.T, inputs.cfg.dt, bseed)
    setup = (inputs.rho0, inputs.u0, inputs.params, inputs.cfg)
    if peaks is not None:
        # shared by every path: not traced
        fixedpoint.problem_for(*setup, inputs.forcing)
        tracemalloc.start()
    try:
        sol = fixedpoint.picard_solve(*setup, inputs.Q, bundle, inputs.forcing)
    finally:
        if peaks is not None:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    for name in SERIES:
        d.array(name, getattr(sol, name).values)
    d.array("rho", sol.rho)
    d.array("times", sol.times)
    for name in WINDOW_ARRAYS:
        d.array(f"window.{name}", getattr(sol.window, name))
    mon = sol.monitor
    if physics:
        d.floats("tau", (sol.tau,))
        d.text("iterations fired_index",
               repr((sol.iterations, mon.fired_index)))
        report = eulerian.validate_solution(sol, inputs.params)
        d.text("verdict", repr(verdict(report)))
        return
    for name in MONITOR_ARRAYS:
        d.array(f"monitor.{name}", getattr(mon, name))
    d.text("monitor.fired", repr((bool(mon.fired), mon.fired_index)))
    d.floats("tau kappa", (sol.tau, sol.kappa))
    d.text("iterations converged positive seed",
           repr((sol.iterations, bool(sol.converged), bool(sol.rho_positive),
                 sol.seed)))
    d.floats("diffs", sol.diffs)
    for key in sorted(sol.energy):
        d.array(f"energy.{key}", sol.energy[key])

    report = eulerian.validate_solution(sol, inputs.params)
    d.text("report", json.dumps(report, sort_keys=True, default=_plain))
    kin = eulerian.kinematic_residual(sol, inputs.Q, bundle)
    d.array("kinematic_residual", kin)
    snaps = eulerian.reconstruct(sol)
    with tempfile.TemporaryDirectory() as out:
        # the benchmark writes the kinematic residual in 2D only
        eulerian.write_outputs(sol, snaps, out, kin if w.dim == 2 else None)
        for path in sorted(Path(out).iterdir()):
            d.raw(f"file.{path.name}", path.read_bytes())


def path_digest(w, inputs, bseed: int, peaks: list | None,
                physics: bool = False) -> str:
    """The path's sha256, of the ``--physics`` subset if ``physics``; its
    tracemalloc peak is appended to ``peaks`` unless that is None."""
    d = Digest()
    try:
        digest_solution(d, w, inputs, bseed, peaks, physics)
    except Exception as exc:     # a failed path is an output too
        d.text("error", f"{type(exc).__name__}: {exc}")
    return d.hexdigest()


def parse_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, build_inputs, path_seed

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--paths", type=parse_range, default=range(0, 1),
                    help="path indices, 'first-last' inclusive (default 0)")
    ap.add_argument("--reverse", action="store_true",
                    help="run the paths last to first")
    ap.add_argument("--no-transport", action="store_true",
                    help="run the workload with K = 0 transport fields and "
                         "the same forcing")
    ap.add_argument("--modes", type=int, metavar="M",
                    help="run the workload with M default forcing modes "
                         "in place of its one")
    ap.add_argument("--dt", type=float,
                    help="run the workload at this time step")
    ap.add_argument("--peak", action="store_true",
                    help="append each path's tracemalloc peak of "
                         "picard_solve in bytes")
    ap.add_argument("--physics", action="store_true",
                    help="hash only the outputs a round-off change of norm "
                         "values must leave alone")
    ap.add_argument("--certifications", action="store_true",
                    help="append each path's counts of certified, declined "
                         "and exact monitor runs")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    lf = types.SimpleNamespace(np=np, fields=fields, noise=noise, lame=lame,
                               fixedpoint=fixedpoint)
    inputs = build_inputs(lf, w)
    name = w.name
    if args.no_transport:
        inputs.Q = noise.make_transport_field(w.dim, w.transport, 0)
        name += "/K=0"
    if args.modes is not None:
        inputs.forcing = noise.StochasticForcing.default_modes(
            inputs.grid, args.modes, inputs.forcing.amplitudes[0])
        name += f"/M={args.modes}"
    if args.dt is not None:
        inputs.cfg = dataclasses.replace(inputs.cfg, dt=args.dt)
        name += f"/dt={args.dt:g}"
    # every workload starts off the compatibility bound on purpose
    warnings.filterwarnings("ignore", "initial compatibility residual",
                            UserWarning)
    indices = reversed(args.paths) if args.reverse else args.paths
    peaks = [] if args.peak else None
    decisions = MonitorDecisions() if args.certifications else None
    for index in indices:
        bseed = path_seed(args.seed, index)
        digest = path_digest(w, inputs, bseed, peaks, args.physics)
        print(name, args.seed, index, bseed, digest,
              *(peaks[-1:] if args.peak else []),
              *([decisions.take()] if decisions else []), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
