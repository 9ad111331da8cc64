"""Physics-output check of one benchmark path.

Each path yields a record of the solver's discrete outcomes (window end,
iteration count, monitor firing, validation verdict) and continuous outputs
(contraction factor, PDE residual, norms of v and rho).  On the default seed
the record is compared with ``reference.json``: discrete entries exactly,
continuous ones within the tolerances stored there.  On every seed the
record must satisfy the invariants of a successful run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 0

DISCRETE = ("tau", "iterations", "converged", "monitor_fired_index",
            "validated", "rho_positive")
# |value - reference| <= atol + rtol |reference|.  Norms of v and rho are
# smooth sums of many frames, so reordered floating-point sums move them by
# ~1e-14 relative; kappa is a ratio of the last two Picard differences, the
# smaller of which is just under the Picard tolerance 1e-9; the PDE residual
# sits near round-off (1e-13 to 1e-11) and only has to stay far below the
# solver's own 1e-6 tolerance.
TOLERANCES = {
    "kappa": {"rtol": 1e-6, "atol": 0.0},
    "pde_residual": {"rtol": 0.0, "atol": 1e-10},
    "v_final_max": {"rtol": 1e-9, "atol": 0.0},
    "v_l2": {"rtol": 1e-9, "atol": 0.0},
    "rho_min": {"rtol": 1e-12, "atol": 0.0},
    "rho_max": {"rtol": 1e-12, "atol": 0.0},
    "rho_mean": {"rtol": 1e-12, "atol": 0.0},
}


def physics_record(np, sol, report: dict) -> dict:
    """The physics outputs of one solved and validated path."""
    v, rho = sol.v.values, sol.rho
    fired = sol.monitor.fired_index
    return {
        "tau": sol.tau,
        "iterations": sol.iterations,
        "converged": bool(sol.converged),
        "monitor_fired_index": None if fired is None else int(fired),
        "validated": bool(report["passed"]),
        "rho_positive": bool(sol.rho_positive),
        "kappa": sol.kappa,
        "pde_residual": report["pde_residual"]["max_residual"],
        "v_final_max": float(np.max(np.abs(v[-1]))),
        "v_l2": float(np.sqrt(np.sum(v * v))),
        "rho_min": float(rho.min()),
        "rho_max": float(rho.max()),
        "rho_mean": float(rho.mean()),
    }


def load_reference(workload: str) -> dict:
    """Reference records of ``workload`` on the default seed, by path index.

    A path that failed when the reference was made is stored as null.
    """
    if not REFERENCE.is_file():
        return {}
    data = json.loads(REFERENCE.read_text())
    return dict(enumerate(data["workloads"].get(workload, [])))


def check_record(rec: dict, T: float, ref: dict | None) -> list[str]:
    """Problems found in ``rec``; an empty list means the path is correct."""
    problems = []
    if not rec["validated"]:
        problems.append("validate_solution failed")
    if not rec["converged"]:
        problems.append("Picard iteration did not converge")
    if not rec["tau"] <= T * (1 + 1e-12):
        problems.append(f"tau = {rec['tau']} exceeds T = {T}")
    if not (rec["rho_positive"] and rec["rho_min"] > 0):
        problems.append("density is not positive")
    if ref is None:
        return problems
    for key in DISCRETE:
        if rec[key] != ref[key]:
            problems.append(f"{key} = {rec[key]!r}, reference {ref[key]!r}")
    for key, tol in TOLERANCES.items():
        a, b = rec[key], ref[key]
        if not math.isclose(a, b, rel_tol=tol["rtol"], abs_tol=tol["atol"]):
            problems.append(f"{key} = {a!r}, reference {b!r}")
    return problems
