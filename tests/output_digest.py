"""One sha256 per benchmark path over every output a solve produces.

Two checkouts give the same bits when they print the same lines.  A path
is solved as the benchmark solves it (``perfbench/workloads.py``, read
here without a change): the Brownian bundle of ``path_seed(seed, index)``,
``picard_solve``, ``validate_solution``, ``reconstruct``, the kinematic
residual and ``write_outputs``.  The digest covers

- v, rho, U, ubar, X, grad X, Z, J and the window's times
- every ``MonitorResult`` array, ``fired`` and ``fired_index``
- tau and kappa (``float.hex``), iterations, diffs, converged, the energy
  and the Brownian seed
- the ``validate_solution`` report, as JSON with sorted keys
- the kinematic residual, in both dimensions
- the bytes of every file ``write_outputs`` writes

A path that raises is digested by its exception.  ``lagflow`` comes from
``PYTHONPATH``, so any checkout can be digested, for example

    PYTHONPATH=src python3 tests/output_digest.py stopped2d --seed 1 --paths 0-3
    PYTHONPATH=../other/src python3 tests/output_digest.py solid3d --paths 0-8

Each line is ``workload seed index brownian_seed sha256``, in the order the
paths ran.  ``--reverse`` runs them last to first: a path must not depend on
the paths before it (the cached ``Problem``, the interpolation axes and the
contraction plans are shared), so its line must not change.  One BLAS
thread is used unless the environment says otherwise.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import types
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, build_inputs, path_seed  # noqa: E402

from lagflow import eulerian, fields, fixedpoint, lame, noise  # noqa: E402


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


def _plain(obj):
    """JSON form of the numpy values in a report."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest_solution(d: Digest, w, inputs, bseed: int) -> None:
    bundle = noise.sample_brownian(w.K, w.M, w.T, w.dt, bseed)
    sol = fixedpoint.picard_solve(inputs.rho0, inputs.u0, inputs.params,
                                  inputs.cfg, inputs.Q, bundle, inputs.forcing)
    for name in ("v", "U", "ubar"):
        d.array(name, getattr(sol, name).values)
    d.array("rho", sol.rho)
    d.array("times", sol.times)
    win = sol.window
    for name in ("times", "X", "gradX", "Z", "J"):
        d.array(f"window.{name}", getattr(win, name))
    mon = sol.monitor
    for f in dataclasses.fields(mon):
        value = getattr(mon, f.name)
        if isinstance(value, np.ndarray):
            d.array(f"monitor.{f.name}", value)
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


def path_digest(w, inputs, bseed: int) -> str:
    d = Digest()
    try:
        digest_solution(d, w, inputs, bseed)
    except Exception as exc:     # a failed path is an output too
        d.text("error", f"{type(exc).__name__}: {exc}")
    return d.hexdigest()


def parse_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--paths", type=parse_range, default=range(0, 1),
                    help="path indices, 'first-last' inclusive (default 0)")
    ap.add_argument("--reverse", action="store_true",
                    help="run the paths last to first")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    lf = types.SimpleNamespace(np=np, fields=fields, noise=noise, lame=lame,
                               fixedpoint=fixedpoint)
    inputs = build_inputs(lf, w)
    # every workload starts off the compatibility bound on purpose
    warnings.filterwarnings("ignore", "initial compatibility residual",
                            UserWarning)
    indices = reversed(args.paths) if args.reverse else args.paths
    for index in indices:
        bseed = path_seed(args.seed, index)
        print(w.name, args.seed, index, bseed, path_digest(w, inputs, bseed),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
