"""Outside-in tracer: spans and counters around lagflow's public functions.

The tracer changes nothing under ``src/``.  ``install`` replaces each listed
function in every ``lagflow`` module that holds a reference to it (so
``lagflow.fixedpoint.solve_lame`` is wrapped as well as
``lagflow.lame.solve_lame``), and the listed methods on their classes;
``uninstall`` puts every original back.  Spans stay in memory; counters are
taken from return values and arguments only.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

# lagflow modules searched for references to the wrapped functions
MODULES = ("fields", "noise", "interp", "flow", "lame", "nonlinear",
           "fixedpoint", "eulerian")

# (module, attribute) of every wrapped function; span name = "module.attribute"
FUNCTIONS = [
    ("noise", "sample_brownian"),
    ("fixedpoint", "picard_solve"),
    ("fixedpoint", "apply_Psi"),
    ("fixedpoint", "solve_reference"),
    ("fixedpoint", "e1_norm"),
    ("flow", "integrate_noise_flow"),
    ("flow", "integrate_label_flow"),
    ("flow", "compose_flow"),
    ("flow", "stopping_monitor"),
    ("nonlinear", "assemble_F_u"),
    ("nonlinear", "assemble_F_Gamma"),
    ("nonlinear", "nonlinearity_norm_report"),
    ("nonlinear", "energy_report"),
    ("lame", "solve_lame"),
    ("lame", "solve_stoch_convolution"),
    ("fields", "gradient_values"),
    ("fields", "hessian_values"),
    ("fields", "spatial_norm"),
    ("eulerian", "validate_solution"),
    ("eulerian", "reconstruct"),
    ("eulerian", "kinematic_residual"),
    ("eulerian", "write_outputs"),
]

# (module, class, method); a constructor span is named "module.Class"
METHODS = [
    ("lame", "LameOperator", "__init__"),
    ("lame", "LameOperator", "stepper"),
    ("interp", "InterpPlan", "__init__"),
    ("interp", "InterpPlan", "apply"),
]


class _CountingLU:
    """Proxy around the factorization ``LameOperator.stepper`` returns."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counts["lame.step_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans (name, start, end, parent, path id) and layer counters."""

    def __init__(self, lf):
        self.lf = lf
        self.spans: list[list] = []     # [name, start, end, parent index, path id]
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner object, attribute, original)
        self.path_id = None
        self._first_span = 0
        self.counts: Counter = Counter()
        self._lus: dict[int, object] = {}  # distinct factorizations of the path

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "flow.stopping_monitor": self._on_monitor,
            "eulerian.write_outputs": self._on_write_outputs,
        }
        modules = [getattr(self.lf, name) for name in MODULES]
        for mod_name, attr in FUNCTIONS:
            original = getattr(getattr(self.lf, mod_name), attr)
            name = f"{mod_name}.{attr}"
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(getattr(self.lf, mod_name), cls_name)
            original = cls.__dict__[attr]
            name = f"{mod_name}.{cls_name}"
            if attr != "__init__":
                name += f".{attr}"
            hook = self._on_stepper if name == "lame.LameOperator.stepper" else None
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else None,
                    tracer.path_id]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{name}.errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            return hook(out, args, kwargs) if hook else out

        return wrapper

    # -- counters from return values and arguments -------------------------------

    def _on_stepper(self, lu, args, kwargs):
        self._lus.setdefault(id(lu), lu)
        return _CountingLU(lu, self)

    def _on_monitor(self, result, args, kwargs):
        self.counts["flow.stopping_monitor.monitors"] += 1
        self.counts["flow.stopping_monitor.frames"] += len(result.total)
        self.counts["flow.stopping_monitor.fired"] += int(result.fired)
        return result

    def _on_write_outputs(self, summary, args, kwargs):
        out_dir = kwargs.get("out_dir", args[2] if len(args) > 2 else None)
        self.counts["eulerian.bytes_written"] += sum(
            os.path.getsize(os.path.join(top, f))
            for top, _, files in os.walk(out_dir) for f in files)
        return summary

    # -- per-path bookkeeping -------------------------------------------------

    def start_path(self, path_id) -> None:
        self.path_id = path_id
        self._first_span = len(self.spans)

    def end_path(self) -> tuple[dict, Counter]:
        """Close the current path: its span summary and counters.

        The factorizations are measured here, outside every span, and then
        released.
        """
        counts = self.counts
        counts["lame.factorizations"] += len(self._lus)
        for lu in self._lus.values():
            counts["lame.lu_nnz"] += lu.L.nnz + lu.U.nnz
        self._lus.clear()
        self.counts = Counter()
        summary = summarize(self.spans, self._first_span)
        self.path_id = None
        return summary, counts


def summarize(spans: list[list], first: int = 0) -> dict:
    """Per span name over ``spans[first:]``: calls, total and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; the spans of one path nest strictly because calls are
    synchronous.  Parent entries are indices into ``spans``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent is not None:
            child_time[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index in range(first, len(spans)):
        name, start, end, _, _ = spans[index]
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - child_time.get(index, 0.0)
    return dict(out)
