"""Regenerate ``reference.json``: physics records of the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs the first paths of the default seed of each workload through the same
pipeline as ``run.py`` and stores one record per path (null for a path that
failed).  Run it only at a commit whose outputs are known to be right; a
benchmark run on the default seed compares against these records.
"""

from __future__ import annotations

import json
import sys

import physics
import run
from workloads import WORKLOADS, path_seed

# enough paths to cover every path index a run of the default seed reaches
PATHS = {"stopped2d": 48, "solid3d": 20}


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    data = (json.loads(physics.REFERENCE.read_text())
            if physics.REFERENCE.is_file() else {"workloads": {}})
    run.limit_blas_threads()
    lf = run.import_lagflow()
    for name in names:
        w = WORKLOADS[name]
        inputs = run.build_inputs(lf, w)
        records = []
        for i in range(PATHS[name]):
            res = run.run_path(lf, w, inputs, path_seed(physics.DEFAULT_SEED, i))
            rec = res["record"]
            ok = rec is not None and not physics.check_record(rec, w.T, None)
            records.append(rec if ok else None)
            print(name, i, res["error"] or "ok", file=sys.stderr, flush=True)
        data["workloads"][name] = records
    data["seed"] = physics.DEFAULT_SEED
    physics.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
