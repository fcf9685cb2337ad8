#!/usr/bin/env python3
"""Benchmark of the gaps library on the paper's three experiments.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Workloads: pendulum-online, fig2-regret, horizon-bandit (see README.md).
A run repeats whole passes of its workload while the next one fits in S
seconds (at least two passes), checks the outputs of the first pass against the
benchmark's own computations and the files of every later pass against the
first, and prints one JSON object as the last line of standard output.
With --trace 0 it reports the end-to-end metrics, timed with phase-level
hooks only; with --trace 1 it reports the per-layer metrics from spans at
calls into every module and writes the first pass's spans to
perfbench/_runs/<workload>/spans.csv. --quick shrinks every input.
"""

import os
import sys

# Pin BLAS and OpenMP pools before numpy loads; probes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GAPS_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

MIN_PASSES = 2
SETUP_PROBES = 3  # fresh interpreters per run for setup_s
IMPORT_PROBES = 3  # fresh interpreters per traced run for import times
PROBE_TIMEOUT = 60

sys.path.insert(0, HERE)
import checks as C  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small inputs, for tests")
    return p.parse_args(argv)


def probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(config: str, items: list[str]) -> float:
    """Fresh interpreter to gaps imported, config loaded and env built."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), config, *items],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT,
        cwd=ROOT, env=probe_env(),
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def import_seconds() -> tuple[float, float]:
    """(import gaps, scipy modules' share) from `python -X importtime`."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gaps"],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT,
        cwd=ROOT, env=probe_env(),
    )
    gaps_us = None
    scipy_us = 0
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if not fields[0].strip().isdigit():
            continue  # the column header
        self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2].strip()
        if name == "gaps":
            gaps_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    if gaps_us is None:
        raise RuntimeError("python -X importtime printed no line for gaps")
    return gaps_us / 1e6, scipy_us / 1e6


# ---------------------------------------------------------------------------
# Metrics

END_TO_END_UNITS = {
    "setup_s": "s",
    "select_steps_per_s": "steps/s",
    "evaluate_s": "s",
    "study_s": "s",
    "peak_rss_mb": "MB",
}


def _get(stats: dict, name: str):
    return stats.get(name) or tracing.Stat()


def fastest_sum(per_pass: list[list[float]]) -> float:
    """Sum over the calls of one pass of each call's fastest repetition.

    Passes make the same calls in the same order, so call i of every pass
    is the same work.
    """
    if len({len(calls) for calls in per_pass}) != 1:
        raise RuntimeError("passes made different numbers of calls")
    return sum(min(calls[i] for calls in per_pass) for i in range(len(per_pass[0])))


def end_to_end(passes) -> dict:
    """Timed metrics from the best repetition of each call (see README)."""
    def calls(name, field):  # field 0: duration, 1: self time
        return fastest_sum([[c[field] for c in _get(s, name).per_call] for s, _, _ in passes])

    steps = _get(passes[0][0], "cli.run_algorithm").extra
    return {
        "select_steps_per_s": steps / calls("cli.run_algorithm", 0),
        "evaluate_s": sum(calls(name, 1) for name in tracing.EVALUATE_SPANS),
        "study_s": fastest_sum([ops for _, _, ops in passes]),
    }


def _env_names():
    for env in ("pendulum", "confidence_mpc", "horizon"):
        for meth in tracing.ENV_METHODS:
            yield f"envs.{env}.{meth}"


# (metric name, unit, stat name, field); field is calls, total (.s),
# per_call (self us per call) or extra.
LAYER_METRICS = [
    ("cli.load_config.s", "s", "cli.load_config", "total"),
    ("cli.build_env.s", "s", "cli.build_env", "total"),
    ("cli.run_algorithm.calls", "count", "cli.run_algorithm", "calls"),
    ("cli.write_trace.s", "s", "cli.write_trace", "total"),
    ("cli.trace_bytes", "bytes", "cli.write_trace", "extra"),
    ("cli.compute_report.s", "s", "cli.compute_report", "total"),
    ("core.gaps_step.calls", "count", "core.gaps_step", "calls"),
    ("core.gaps_step.us.B32", "us", "core.gaps_step.B32", "per_call"),
    ("core.gaps_step.us.B128", "us", "core.gaps_step.B128", "per_call"),
    *[m for name in _env_names() for m in (
        (f"{name}.calls", "count", name, "calls"),
        (f"{name}.us", "us", name, "per_call"),
    )],
    *[(f"envs.{env}.batch_surrogate_costs.s", "s", f"envs.{env}.batch_surrogate_costs", "total")
      for env in ("pendulum", "confidence_mpc", "horizon")],
    ("envs.lqr_baseline.s", "s", "envs.lqr_baseline", "total"),
    ("oracles.ideal_gradient.calls", "count", "oracles.ideal_gradient", "calls"),
    ("oracles.ideal_gradient.s", "s", "oracles.ideal_gradient", "total"),
    ("oracles.surrogate_cost.calls", "count", "oracles.surrogate_cost", "calls"),
    ("oracles.surrogate_cost.s", "s", "oracles.surrogate_cost", "total"),
    ("metrics.make_theta_grid.s", "s", "metrics.make_theta_grid", "total"),
    ("metrics.surrogate_table.s", "s", "metrics.surrogate_table", "total"),
    ("metrics.static_and_adaptive_regret.s", "s", "metrics.static_and_adaptive_regret", "total"),
    ("metrics.local_regret.s", "s", "metrics.local_regret", "total"),
    ("baps.run_baps.s", "s", "baps.run_baps", "total"),
    ("baps.baps_update.calls", "count", "baps.baps_update", "calls"),
    ("baps.baps_update.us", "us", "baps.baps_update", "per_call"),
    ("system.rollout.calls", "count", "system.rollout", "calls"),
    ("system.rollout.s", "s", "system.rollout", "total"),
    ("system.project.calls", "count", "system.project", "calls"),
    ("system.project.active", "count", "system.project", "extra"),
    ("contraction.estimate_contraction.s", "s", "contraction.estimate_contraction", "total"),
    ("linalg.solve_dare.calls", "count", "linalg.solve_dare", "calls"),
    ("linalg.solve_dare.s", "s", "linalg.solve_dare", "total"),
    ("linalg.finite_horizon_lq.calls", "count", "linalg.finite_horizon_lq", "calls"),
    ("linalg.finite_horizon_lq.s", "s", "linalg.finite_horizon_lq", "total"),
]


def layer_value(stats: dict, stat_name: str, field: str) -> float:
    st = _get(stats, stat_name)
    if field == "per_call":
        return st.self_time / st.calls * 1e6 if st.calls else 0.0
    if field == "total":
        return st.total
    return getattr(st, field)


# ---------------------------------------------------------------------------


def run(args) -> dict:
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.quick)
    metrics = {}
    if args.trace:
        probes = [import_seconds() for _ in range(1 if args.quick else IMPORT_PROBES)]
        metrics["import.gaps.s"] = (statistics.median(p[0] for p in probes), "s")
        metrics["import.scipy.s"] = (statistics.median(p[1] for p in probes), "s")
    else:
        config, items = workload.first_config()
        probes = [setup_seconds(config, items) for _ in range(1 if args.quick else SETUP_PROBES)]
        metrics["setup_s"] = (statistics.median(probes), "s")

    sys.path.insert(0, SRC)
    import gaps

    if os.path.dirname(os.path.abspath(gaps.__file__)) != os.path.join(SRC, "gaps"):
        raise RuntimeError(f"imported gaps from {gaps.__file__}, not from {SRC}")

    out_root = os.path.join(RUNS, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    rec = tracing.Recorder(keep_spans=bool(args.trace), keep_calls=not args.trace)
    install = tracing.install_layer_hooks if args.trace else tracing.install_phase_hooks

    passes = []  # (stats, wall, op seconds) per pass
    mismatches = []
    first = None  # (dir, pass data, files, spans)
    started = time.perf_counter()
    while True:
        index = len(passes)
        pass_dir = os.path.join(out_root, f"pass-{index}")
        gc.collect()
        rec.reset()
        workload.op_seconds = []
        install(rec)
        try:
            t0 = time.perf_counter()
            pass_data = workload.run_pass(pass_dir)
            wall = time.perf_counter() - t0
        finally:
            rec.unhook()
        passes.append((rec.stats, wall, workload.op_seconds))
        files = C.tree_bytes(pass_dir)
        if first is None:
            first = (pass_dir, pass_data, files, rec.spans)
        else:
            try:
                C.identical_trees(first[2], files)
            except C.CheckFailed as exc:
                mismatches.append(f"pass {index}: {exc}")
            shutil.rmtree(pass_dir)
        # Stop before a pass as long as the last one would overrun the budget.
        if len(passes) >= MIN_PASSES and time.perf_counter() - started + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        for name, unit, stat_name, field in LAYER_METRICS:
            values = [layer_value(stats, stat_name, field) for stats, _, _ in passes]
            metrics[name] = (statistics.median(values), unit)
        rec.spans = first[3]
        count = rec.write_spans(os.path.join(out_root, "spans.csv"))
        study = fastest_sum([ops for _, _, ops in passes])
        print(f"traced study_s {study:.4f} s over "
              f"{len(passes)} passes; {count} spans in pass 0", file=sys.stderr)
    else:
        for name, value in end_to_end(passes).items():
            metrics[name] = (value, END_TO_END_UNITS[name])
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"{len(passes)} passes; study_s per pass: "
              + " ".join(f"{w:.3f}" for _, w, _ in passes), file=sys.stderr)

    failures = [f"identical_outputs: {m}" for m in mismatches]
    data = workload.gather(first[0], first[1])
    for name, check in workload.checks:
        try:
            check(data)
        except Exception as exc:  # every failed check is reported, none stops the run
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)

    return {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "gaps", "cli.py"), os.path.join(ROOT, "configs"))
               if not os.path.exists(p)]
    if missing:
        print(f"not a gaps checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
