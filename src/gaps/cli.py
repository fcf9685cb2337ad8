"""Config-driven experiment runner.

Subcommands: run a single experiment, sweep one config key over values,
run the validation suites, estimate contraction constants, or compute a
regret report. All outputs are JSON and CSV with floats at 17 significant
digits, so identical configs and seeds reproduce byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure (state blow-up
or divergence), 4 internal error, 1 validation check failed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from . import envs as env_mod
from .baps import BapsConfig, run_baps
from .contraction import estimate_contraction
from .core import GapsConfig, run_gaps
from .errors import (
    ConfigError,
    DimensionMismatch,
    Divergence,
    GapsError,
    NonFiniteGradient,
    StateBlowup,
)
from .linalg import row_norms
from .metrics import (
    local_regret,
    make_theta_grid,
    static_and_adaptive_regret,
    surrogate_table,
)
from .oracles import run_ideal_ogd, surrogates
from .validation import SUITES, run_validation

SCHEMA_VERSION = 1
_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(global_seed: int, label: str) -> int:
    """Per-component seed: splitmix64 of the global seed xor FNV-1a(label).

    Adding a new labelled component never perturbs existing streams.
    """
    h = 0xCBF29CE484222325
    for byte in label.encode():
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return _splitmix64((int(global_seed) ^ h) & _MASK)


_TRACE_BLOCK = 128  # trace rows formatted per write


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Config handling

_DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "env": {"name": "fig2", "params": {}},
    "algorithm": {"name": "gaps", "params": {}},
    "T": 200,
    "seed": 0,
    "metrics": {"regret": True, "grid_points": 101, "local_regret": False},
}

_ALLOWED = {
    "": {"schema_version", "env", "algorithm", "T", "seed", "metrics", "contraction"},
    "env": {"name", "params"},
    "algorithm": {"name", "params"},
    "metrics": {"regret", "grid_points", "local_regret"},
    "contraction": {"eps", "pairs", "horizon", "R_C_probe"},
}

_ENV_PARAMS = {
    "fig2": {"k", "sigma_w", "sigma_pred_before", "sigma_pred_after", "switch_time"},
    "constant_noise": {"k", "sigma_w", "sigma_pred", "a", "b"},
    "pendulum": {"disturbance", "switch_period", "masses"},
    "dac": {"n", "history", "radius", "w_bound"},
    "horizon": {"horizons", "a", "b", "sigma_w", "sigma_pred0", "pred_growth"},
}

_ALGO_PARAMS = {
    "gaps": {"eta", "B", "theta0"},
    "ogd": {"eta", "theta0"},
    "baps": {"b", "eta"},
    "ftl": {"lambda0"},
}


def _check_keys(d: dict, allowed: set, path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key {path + key!r}")


def load_config(path: str | None, overrides: list[str]) -> dict:
    config = copy.deepcopy(_DEFAULT_CONFIG)
    if path is not None:
        with open(path) as f:
            loaded = json.load(f)
        _merge(config, loaded)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, _, raw = item.partition("=")
        _set_path(config, key.split("."), _parse_value(raw))
    if "GAPS_SEED" in os.environ:
        config["seed"] = int(os.environ["GAPS_SEED"])
    validate_config(config)
    return config


def _parse_value(raw: str):
    """A command-line value: its JSON reading when it has one, else the string."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _set_path(config: dict, parts: list[str], value) -> None:
    node = config
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {part!r}")
    node[parts[-1]] = value


def validate_config(config: dict) -> None:
    _check_keys(config, _ALLOWED[""], "")
    _check_keys(config.get("env", {}), _ALLOWED["env"], "env.")
    _check_keys(config.get("algorithm", {}), _ALLOWED["algorithm"], "algorithm.")
    _check_keys(config.get("metrics", {}), _ALLOWED["metrics"], "metrics.")
    _check_keys(config.get("contraction", {}), _ALLOWED["contraction"], "contraction.")

    env_name = config["env"].get("name")
    if env_name not in _ENV_PARAMS:
        raise ConfigError(f"unknown env {env_name!r}; choose from {sorted(_ENV_PARAMS)}")
    _check_keys(config["env"].get("params", {}), _ENV_PARAMS[env_name], "env.params.")

    algo_name = config["algorithm"].get("name")
    if algo_name not in _ALGO_PARAMS:
        raise ConfigError(f"unknown algorithm {algo_name!r}; choose from {sorted(_ALGO_PARAMS)}")
    _check_keys(
        config["algorithm"].get("params", {}), _ALGO_PARAMS[algo_name], "algorithm.params."
    )
    if not isinstance(config["T"], int) or config["T"] < 1:
        raise ConfigError("T must be a positive integer")
    grid_points = config.get("metrics", {}).get("grid_points", 101)
    if not isinstance(grid_points, int) or grid_points < 1:
        raise ConfigError("metrics.grid_points must be a positive integer")


# ---------------------------------------------------------------------------
# Experiment assembly

def _from_config(section: str, factory, *args, **kwargs):
    """Call factory on config values; a value it rejects is a config error."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError, DimensionMismatch) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def build_env(config: dict):
    name = config["env"]["name"]
    params = dict(config["env"].get("params", {}))
    seed = derive_seed(config["seed"], f"env:{name}")
    return _from_config("env.params", _make_env, name, params, config["T"], seed)


def _make_env(name: str, params: dict, T: int, seed: int):
    if name == "fig2":
        return env_mod.make_fig2_env(T=T, seed=seed, **params)
    if name == "constant_noise":
        return env_mod.make_constant_noise_env(T=T, seed=seed, **params)
    if name == "pendulum":
        spec = params.pop("disturbance", {"kind": "iid", "sigma": 1.0})
        if not isinstance(spec, dict):
            raise ValueError(f"disturbance must be an object, got {spec!r}")
        kind = spec.get("kind", "iid")
        if kind == "iid":
            dist = env_mod.IidGaussian(spec.get("sigma", 1.0))
        elif kind == "ou":
            dist = env_mod.OrnsteinUhlenbeck(
                mean_reversion=spec.get("mean_reversion", 2.0),
                sigma=spec.get("sigma", 3.0),
                dt=spec.get("dt", 0.02),
            )
        else:
            raise ConfigError(f"unknown disturbance kind {kind!r}")
        from .envs.pendulum import PendulumParams

        pparams = PendulumParams()
        if "switch_period" in params:
            pparams.switch_period = float(params["switch_period"])
        if "masses" in params:
            pparams.masses = tuple(params["masses"])
        return env_mod.make_pendulum_env(T, dist, seed=seed, params=pparams)
    if name == "dac":
        return env_mod.make_dac_env(T, seed=seed, **params)
    if name == "horizon":
        horizons = params.pop("horizons", [1, 2, 3])
        return env_mod.make_horizon_selection_env(horizons, T, seed=seed, **params)
    raise ConfigError(f"unknown env {name!r}")


def _default_theta0(env, env_name: str):
    if env_name in ("fig2", "constant_noise"):
        return np.ones(env.d)
    if env_name == "pendulum":
        return env.lqr_gains(env.mass_at(0))
    return np.zeros(env.d)


def run_algorithm(config: dict, env):
    name = config["algorithm"]["name"]
    params = dict(config["algorithm"].get("params", {}))
    T = config["T"]
    env_name = config["env"]["name"]
    if name == "gaps":
        theta0 = params.get("theta0", _default_theta0(env, env_name))
        cfg = _from_config(
            "algorithm.params",
            GapsConfig,
            eta=params.get("eta", 0.05),
            B=params.get("B", 32),
            theta0=theta0,
            set=env.theta_set,
        )
        return run_gaps(env, cfg, T), {}
    if name == "ogd":
        theta0 = params.get("theta0", _default_theta0(env, env_name))
        cfg = _from_config(
            "algorithm.params",
            GapsConfig,
            eta=params.get("eta", 0.05),
            B=1,
            theta0=theta0,
            set=env.theta_set,
        )
        return run_ideal_ogd(env, cfg, T), {}
    if name == "baps":
        arms = env.arm_thetas()
        if arms is None:
            raise ConfigError("baps needs an environment with discrete arms")
        cfg = _from_config(
            "algorithm.params",
            BapsConfig,
            k=len(arms),
            b=params.get("b", 50),
            eta=params.get("eta", 1e-4),
            seed=derive_seed(config["seed"], "baps:sampling"),
        )
        result = run_baps(env, arms, cfg, T)
        extras = {
            "arm_history": result.arm_history.tolist(),
            "final_distribution": result.distribution_history[-1].tolist(),
        }
        return result.trajectory, extras
    if name == "ftl":
        if env_name not in ("fig2", "constant_noise"):
            raise ConfigError("ftl runs on the scalar-confidence envs only")
        lambda0 = params.get("lambda0", 1.0)
        return _from_config("ftl", env_mod.ftl_confidence_baseline, env, T, lambda0), {}
    raise ConfigError(f"unknown algorithm {name!r}")


def write_trace(path: str, traj) -> None:
    n = traj.states.shape[1]
    m = traj.actions.shape[1]
    d = traj.thetas.shape[1]
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + [f"theta{i}" for i in range(d)]
        + ["cost", "grad_norm"]
    )
    T = len(traj)
    if traj.grads is None:
        gnorms = np.full(T, np.nan)
    else:
        gnorms = row_norms(traj.grads)
    # One row template; %.17g writes what _fmt writes. Rows go out in
    # blocks, so the Python copy of the table stays small.
    row = "%d" + ",%.17g" * (n + m + d + 2) + "\n"
    with open(path, "w") as f:
        f.write(f"# schema_version={SCHEMA_VERSION}\n")
        f.write(",".join(header) + "\n")
        for lo in range(0, T, _TRACE_BLOCK):
            hi = min(lo + _TRACE_BLOCK, T)
            block = np.column_stack(
                (
                    np.arange(lo, hi),
                    traj.states[lo:hi],
                    traj.actions[lo:hi],
                    traj.thetas[lo:hi],
                    traj.costs[lo:hi],
                    gnorms[lo:hi],
                )
            )
            f.write("".join([row % tuple(r) for r in block.tolist()]))


def compute_report(config: dict, env, traj, extras: dict) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "env": config["env"]["name"],
        "algorithm": config["algorithm"]["name"],
        "T": len(traj),
        "seed": config["seed"],
        "total_cost": traj.total_cost,
        "mean_cost": traj.total_cost / max(len(traj), 1),
        "final_theta": traj.thetas[-1].tolist(),
    }
    report.update(extras)
    metrics_cfg = config.get("metrics", {})
    if metrics_cfg.get("regret", True):
        arms = env.arm_thetas()
        if arms is not None:
            grid = np.stack(arms)
        else:
            grid = make_theta_grid(env.theta_set, metrics_cfg.get("grid_points", 101))
        table = surrogate_table(env, grid, len(traj))
        regret = static_and_adaptive_regret(traj.costs, table, grid)
        if metrics_cfg.get("local_regret", False):
            regret.local_regret = local_regret(env, traj.thetas, len(traj))
        report.update(regret.to_dict())
    return report


def run_experiment(config: dict, out_dir: str):
    """Run one experiment and write its files; returns (env, traj, report)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
        f.write("\n")
    env = build_env(config)
    traj, extras = run_algorithm(config, env)
    write_trace(os.path.join(out_dir, "trace.csv"), traj)
    report = compute_report(config, env, traj, extras)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return env, traj, report


def _grad_bias_metric(env, traj) -> float:
    """mean_t |G_t - grad F_t(theta_t)| for the gradient-based run."""
    exact = surrogates(env, traj.thetas, with_grad=True).grads
    total = 0.0
    for t in range(len(traj)):
        total += float(np.linalg.norm(traj.grads[t] - exact[t]))
    return total / len(traj)


def _cost_bias_metric(env, traj) -> float:
    """mean_t |f_t(x_t, u_t) - F_t(theta_t)| for the gradient-based run."""
    exact = surrogates(env, traj.thetas).costs
    total = 0.0
    for t in range(len(traj)):
        total += abs(traj.costs[t] - exact[t])
    return total / len(traj)


_SWEEP_METRICS = {"mean_grad_bias": _grad_bias_metric, "mean_cost_bias": _cost_bias_metric}


def _sweep_worker(args: tuple) -> float:
    config, sub_dir, metric = args
    env, traj, report = run_experiment(config, sub_dir)
    if metric in _SWEEP_METRICS:
        value = _SWEEP_METRICS[metric](env, traj)
    else:
        if metric not in report:
            raise ConfigError(f"metric {metric!r} not in report; toggle metrics.regret?")
        value = report[metric]
    return value


# ---------------------------------------------------------------------------
# Commands

def cmd_run(args) -> int:
    config = load_config(args.config, args.override)
    run_experiment(config, args.out)
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config, args.override)
    values = [_parse_value(v) for v in args.values.split(",")]
    tasks = []
    for value in values:
        sub_config = copy.deepcopy(config)
        _set_path(sub_config, args.param.split("."), value)
        validate_config(sub_config)
        sub_dir = os.path.join(args.out, f"{args.param.replace('.', '_')}={value}")
        tasks.append((sub_config, sub_dir, args.metric))
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]
    os.makedirs(args.out, exist_ok=True)
    summary = os.path.join(args.out, "summary.csv")
    with open(summary, "w") as f:
        f.write(f"# schema_version={SCHEMA_VERSION}\n")
        f.write(f"{args.param},{args.metric}\n")
        for value, result in zip(values, results):
            f.write(f"{value},{_fmt(result)}\n")
    print(f"wrote {summary}")
    return 0


def cmd_validate(args) -> int:
    results = run_validation(args.only)
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_contraction(args) -> int:
    config = load_config(args.config, args.override)
    env = build_env(config)
    params = config.get("contraction", {})
    est = _from_config(
        "contraction",
        estimate_contraction,
        env,
        env.theta_set,
        eps=params.get("eps", 0.0),
        R_C_probe=params.get("R_C_probe"),
        pairs=params.get("pairs", 100),
        horizon=params.get("horizon", 30),
        rng=derive_seed(config["seed"], "contraction"),
    )
    os.makedirs(args.out, exist_ok=True)
    out = {"schema_version": SCHEMA_VERSION, **asdict(est)}
    path = os.path.join(args.out, "contraction.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
    return 0


def cmd_regret(args) -> int:
    config = load_config(args.config, args.override)
    config.setdefault("metrics", {})["regret"] = True
    run_experiment(config, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsctl", description="Online policy selection experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument(
            "--override", action="append", default=[], metavar="KEY=VAL",
            help="dotted-path config override (repeatable)",
        )
        p.add_argument("--out", default="out", help="output directory")

    p_run = sub.add_parser("run", help="run one experiment, write trace + report")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of a config key")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. algorithm.params.eta")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--metric", default="total_cost", help="summary metric column")
    p_sweep.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: cores)"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run self-check suites")
    p_val.add_argument("--only", choices=SUITES, default=None)
    p_val.set_defaults(func=cmd_validate)

    p_con = sub.add_parser("contraction", help="estimate contraction constants for an env")
    common(p_con)
    p_con.set_defaults(func=cmd_contraction)

    p_reg = sub.add_parser("regret", help="run and write the regret report")
    common(p_reg)
    p_reg.set_defaults(func=cmd_regret)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StateBlowup, Divergence, NonFiniteGradient) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GapsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
