"""Spans recorded from outside the program, around calls into its modules.

A `Recorder` wraps functions and methods of the `gaps` package. Each wrapped
call records one span (name, start, end, parent) in memory and adds its
inclusive and self time to per-name totals. Self time is the span's duration
minus the time covered by its child spans. Hooks are installed for the
duration of one pass and removed afterwards, so the output checks never run
under them.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np


class HookError(RuntimeError):
    """A hook names a module, class or function the program does not have."""


class Stat:
    """Totals for one span name; per_call holds (duration, self time) per
    call, in call order, when the recorder keeps call lists."""

    __slots__ = ("calls", "total", "self_time", "extra", "per_call")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra = 0
        self.per_call = []


class Recorder:
    """Per-name call counts and times, plus the span list when keep_spans."""

    def __init__(self, keep_spans: bool = False, keep_calls: bool = False):
        self.stats: dict[str, Stat] = {}
        self.spans: list | None = [] if keep_spans else None
        self.keep_calls = keep_calls
        self._stack: list[list] = []  # frames: [child_time, span_index]
        self._undo: list[tuple] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def reset(self) -> None:
        self.stats = {}
        if self.spans is not None:
            self.spans = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, split=None, after=None):
        """Return fn wrapped in a span named name.

        split(args) names a sub-total (name + "." + split) that also gets the
        call; after(args, result, stat) may add to stat.extra.
        """
        stack = self._stack
        clock = time.perf_counter
        main_stat = self.stat(name)
        recorder = self
        keep_calls = self.keep_calls

        def wrapper(*args, **kwargs):
            spans = recorder.spans
            parent = stack[-1][1] if stack else -1
            index = -1
            if spans is not None:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stats = [main_stat]
                if split is not None:
                    stats.append(recorder.stat(f"{name}.{split(args)}"))
                for st in stats:
                    st.calls += 1
                    st.total += dur
                    st.self_time += dur - frame[0]
                    if keep_calls:
                        st.per_call.append((dur, dur - frame[0]))
                if spans is not None:
                    spans[index] = (name, start, end, parent)
            if after is not None:
                after(args, result, main_stat)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def hook_function(self, module_name: str, attr: str, name: str, **kw) -> None:
        """Wrap a module-level function everywhere the package refers to it.

        Every loaded `gaps` module that bound the same object by import, and
        every module-level dict holding it as a value, gets the wrapper.
        """
        module = _module(module_name)
        original = getattr(module, attr, None)
        if not callable(original):
            raise HookError(f"{module_name}.{attr} is not a function of the program")
        wrapper = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gaps" or mod_name.startswith("gaps.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value, dkey, original))
                            value[dkey] = wrapper

    def hook_method(self, module_name: str, qualname: str, name: str, **kw) -> None:
        """Wrap a method defined on a class of the program."""
        cls_name, _, meth = qualname.partition(".")
        cls = getattr(_module(module_name), cls_name, None)
        if cls is None or meth not in vars(cls) or not callable(vars(cls)[meth]):
            raise HookError(f"{module_name}.{qualname} is not a method of the program")
        original = vars(cls)[meth]
        self._undo.append((cls, meth, original))
        setattr(cls, meth, self.wrap(name, original, **kw))

    def unhook(self) -> None:
        """Put back every original function and method."""
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write the kept spans as CSV (times in us from the first span)."""
        spans = self.spans or []
        origin = spans[0][1] if spans else 0.0
        with open(path, "w") as f:
            f.write("id,parent,name,start_us,end_us\n")
            for i, (name, start, end, parent) in enumerate(spans):
                f.write(f"{i},{parent},{name},{(start - origin) * 1e6:.3f},"
                        f"{(end - origin) * 1e6:.3f}\n")
        return len(spans)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise HookError(f"module {name} is missing: {exc}") from None


# ---------------------------------------------------------------------------
# Hook sets

def _selector_steps(args, result, stat) -> None:
    stat.extra += len(result[0])


# Phase-level hooks for the end-to-end run: a handful of calls per pass.
PHASE_HOOKS = [
    ("gaps.cli", "load_config", "cli.load_config", {}),
    ("gaps.cli", "build_env", "cli.build_env", {}),
    ("gaps.cli", "run_algorithm", "cli.run_algorithm", {"after": _selector_steps}),
    ("gaps.cli", "write_trace", "cli.write_trace", {}),
    ("gaps.cli", "compute_report", "cli.compute_report", {}),
    ("gaps.cli", "_grad_bias_metric", "cli.sweep_metric", {}),
    ("gaps.cli", "_cost_bias_metric", "cli.sweep_metric", {}),
    ("gaps.cli", "estimate_contraction", "contraction.estimate_contraction", {}),
    ("gaps.envs.pendulum", "lqr_baseline", "envs.lqr_baseline", {}),
]

# Spans whose self time counts as evaluation (outside selector runs and file
# writes). The benchmark calls envs.lqr_baseline itself.
EVALUATE_SPANS = (
    "cli.compute_report",
    "cli.sweep_metric",
    "contraction.estimate_contraction",
    "envs.lqr_baseline",
)

_ENV_CLASSES = {
    "pendulum": ("gaps.envs.pendulum", "PendulumEnv"),
    "confidence_mpc": ("gaps.envs.confidence_mpc", "ConfidenceMpcEnv"),
    "horizon": ("gaps.envs.horizon", "HorizonSelectionEnv"),
}
ENV_METHODS = ("policy", "dynamics", "cost", "jacobians")
PARAMETER_SETS = ("Box", "Ball", "WholeSpace")


def _trace_bytes(args, result, stat) -> None:
    stat.extra += os.path.getsize(args[0])


def _projection_moved(args, result, stat) -> None:
    if not np.array_equal(result, args[1]):
        stat.extra += 1


def install_phase_hooks(rec: Recorder) -> None:
    for module_name, attr, name, kw in PHASE_HOOKS:
        rec.hook_function(module_name, attr, name, **kw)


def install_layer_hooks(rec: Recorder) -> None:
    """Spans at calls into every module's public functions (traced run)."""
    fn = rec.hook_function
    fn("gaps.cli", "load_config", "cli.load_config")
    fn("gaps.cli", "build_env", "cli.build_env")
    fn("gaps.cli", "run_algorithm", "cli.run_algorithm", after=_selector_steps)
    fn("gaps.cli", "write_trace", "cli.write_trace", after=_trace_bytes)
    fn("gaps.cli", "compute_report", "cli.compute_report")
    fn("gaps.core", "gaps_step", "core.gaps_step", split=lambda a: f"B{a[2].B}")
    fn("gaps.oracles", "ideal_gradient", "oracles.ideal_gradient")
    fn("gaps.oracles", "surrogate_cost", "oracles.surrogate_cost")
    for attr in ("make_theta_grid", "surrogate_table", "static_and_adaptive_regret",
                 "local_regret"):
        fn("gaps.metrics", attr, f"metrics.{attr}")
    fn("gaps.baps", "run_baps", "baps.run_baps")
    fn("gaps.baps", "baps_update", "baps.baps_update")
    fn("gaps.system", "rollout", "system.rollout")
    fn("gaps.contraction", "estimate_contraction", "contraction.estimate_contraction")
    fn("gaps.linalg", "solve_dare", "linalg.solve_dare")
    fn("gaps.linalg", "finite_horizon_lq", "linalg.finite_horizon_lq")
    fn("gaps.envs.pendulum", "lqr_baseline", "envs.lqr_baseline")
    for env, (module_name, cls) in _ENV_CLASSES.items():
        for meth in ENV_METHODS:
            rec.hook_method(module_name, f"{cls}.{meth}", f"envs.{env}.{meth}")
        rec.hook_method(module_name, f"{cls}.batch_surrogate_costs",
                        f"envs.{env}.batch_surrogate_costs")
    for cls in PARAMETER_SETS:
        rec.hook_method("gaps.system", f"{cls}.project", "system.project",
                        after=_projection_moved)
