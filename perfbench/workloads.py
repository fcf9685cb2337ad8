"""The three workloads: the paper's experiments driven through `gapsctl`.

Each workload runs whole passes. A pass makes the same `gaps.cli.main` calls
(and a few library calls) on the same inputs every time, so two passes of one
run must write byte-identical files. `gather` reads a pass's files and makes
the program-side references the checks compare against; the checks
themselves live in `checks.py` and never call into `gaps`.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
import traceback

import numpy as np

import checks as C

# Input sizes. The README's workload table mirrors these; "quick" is the
# short mode used by the benchmark's own test.
SIZES = {
    "pendulum-online": {
        "full": {"T": 3000, "switch_period": 20.0, "B": (32, 128)},
        "quick": {"T": 400, "switch_period": 4.0, "B": (32, 128)},
    },
    "fig2-regret": {
        "full": {"T": 200, "sweep_T": 200, "pairs": 300},
        "quick": {"T": 60, "sweep_T": 200, "pairs": 20},
    },
    "horizon-bandit": {
        "full": {"T": 5000, "seeds": 8},
        "quick": {"T": 1000, "seeds": 2},
    },
}


def gapsctl(*argv: str) -> bool:
    """One in-process `gapsctl` invocation; True on exit code 0."""
    import gaps.cli

    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = gaps.cli.main(list(argv))
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        return False
    if code != 0:
        print(f"gapsctl {' '.join(argv)} exited {code}", file=sys.stderr)
    return code == 0


def overrides(items) -> list[str]:
    out = []
    for item in items:
        out += ["--override", item]
    return out


class Workload:
    name = ""

    def __init__(self, root: str, seed: int, quick: bool):
        self.root = root
        self.seed = int(seed)
        self.size = SIZES[self.name]["quick" if quick else "full"]
        self.attempted = 0
        self.failed = 0
        self.op_seconds: list[float] = []  # wall time of each op, in order

    def config(self, name: str) -> str:
        return os.path.join(self.root, "configs", name)

    def op(self, fn, *args):
        """Count and time one operation; returns fn's result, or None if it
        failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            result = None
        self.op_seconds.append(time.perf_counter() - start)
        if result is None or result is False:
            self.failed += 1
            return None
        return result

    def build_env(self, config_name: str, items):
        import gaps.cli

        return gaps.cli.build_env(gaps.cli.load_config(self.config(config_name), list(items)))

    def first_config(self) -> tuple[str, list[str]]:
        """Config and overrides the set-up time is measured on."""
        raise NotImplementedError

    def run_pass(self, out: str) -> dict:
        raise NotImplementedError

    def gather(self, out: str, pass_data: dict) -> dict:
        raise NotImplementedError

    checks: tuple = ()


# ---------------------------------------------------------------------------


class PendulumOnline(Workload):
    """GAPS on the pendulum under iid and OU noise, B = 32 and 128, vs LQR."""

    name = "pendulum-online"
    kinds = ("iid", "ou")

    def base(self) -> list[str]:
        return [f"T={self.size['T']}", f"seed={self.seed}",
                f"env.params.switch_period={self.size['switch_period']}"]

    def first_config(self):
        return self.config("pendulum_iid.json"), self.base()

    def lqr_baseline(self, kind: str):
        import gaps.envs

        env = self.build_env(f"pendulum_{kind}.json", self.base())
        return gaps.envs.lqr_baseline(env, self.size["T"])

    def run_pass(self, out):
        lqr = {}
        for kind in self.kinds:
            cfg = self.config(f"pendulum_{kind}.json")
            for B in self.size["B"]:
                self.op(gapsctl, "run", "--config", cfg,
                        *overrides(self.base() + [f"algorithm.params.B={B}"]),
                        "--out", os.path.join(out, f"{kind}-B{B}"))
            traj = self.op(self.lqr_baseline, kind)
            lqr[kind] = None if traj is None else traj.total_cost
        return {"lqr": lqr}

    def gather(self, out, pass_data):
        T = self.size["T"]
        runs = []
        for kind in self.kinds:
            w = self.build_env(f"pendulum_{kind}.json", self.base()).w
            for B in self.size["B"]:
                d = os.path.join(out, f"{kind}-B{B}")
                runs.append({
                    "kind": kind, "B": B, "w": w,
                    "trace": C.read_trace(os.path.join(d, "trace.csv")),
                    "report": C.read_json(os.path.join(d, "report.json")),
                    "lqr": pass_data["lqr"][kind],
                })
        return {"runs": runs, "T": T,
                "steps_per_mass": int(round(self.size["switch_period"] / C.PENDULUM["dt"]))}

    @staticmethod
    def check_replay(data):
        for r in data["runs"]:
            C.pendulum_replay(r["trace"], r["w"], data["steps_per_mass"])

    @staticmethod
    def check_grad_norm(data):
        for r in data["runs"]:
            C.pendulum_grad_norms(r["trace"], data["steps_per_mass"], r["B"],
                                  C.sampled_steps(data["T"], r["B"]))

    @staticmethod
    def check_box(data):
        for r in data["runs"]:
            C.pendulum_in_box(r["trace"])

    @staticmethod
    def check_lqr(data):
        for r in data["runs"]:
            C.pendulum_vs_lqr(r["kind"], r["report"]["total_cost"], r["lqr"])

    @staticmethod
    def check_totals(data):
        for r in data["runs"]:
            C.report_total(r["report"], r["trace"])

    checks = (
        ("trace_replay", check_replay),
        ("grad_norm_chain_rule", check_grad_norm),
        ("theta_in_gain_box", check_box),
        ("ac6_cost_vs_lqr", check_lqr),
        ("report_total_cost", check_totals),
    )


# ---------------------------------------------------------------------------


class Fig2Regret(Workload):
    """Regret with local regret, FTL, two bias sweeps and contraction on fig2."""

    name = "fig2-regret"
    B_VALUES = (1, 2, 4, 8, 16)
    ETA_VALUES = (0.004, 0.002, 0.001)
    LOCAL_H = 1e-3

    def base(self, T=None) -> list[str]:
        return [f"T={T or self.size['T']}", f"seed={self.seed}"]

    def first_config(self):
        return self.config("fig2.json"), self.base()

    def run_pass(self, out):
        fig2 = self.config("fig2.json")
        sweep_base = self.base(self.size["sweep_T"])
        self.op(gapsctl, "regret", "--config", fig2,
                *overrides(self.base() + ["metrics.local_regret=true"]),
                "--out", os.path.join(out, "regret"))
        self.op(gapsctl, "run", "--config", self.config("fig2_ftl.json"),
                *overrides(self.base()), "--out", os.path.join(out, "ftl"))
        self.op(gapsctl, "sweep", "--config", fig2,
                *overrides(sweep_base + ["algorithm.params.eta=0.001"]),
                "--param", "algorithm.params.B",
                "--values", ",".join(map(str, self.B_VALUES)),
                "--metric", "mean_grad_bias", "--jobs", "1",
                "--out", os.path.join(out, "sweep-B"))
        self.op(gapsctl, "sweep", "--config", fig2, *overrides(sweep_base),
                "--param", "algorithm.params.eta",
                "--values", ",".join(map(str, self.ETA_VALUES)),
                "--metric", "mean_cost_bias", "--jobs", "1",
                "--out", os.path.join(out, "sweep-eta"))
        self.op(gapsctl, "contraction", "--config", fig2,
                *overrides(self.base() + [f"contraction.pairs={self.size['pairs']}"]),
                "--out", os.path.join(out, "contraction"))
        return {}

    def gather(self, out, pass_data):
        import gaps.metrics
        import gaps.system

        T = self.size["T"]
        env = self.build_env("fig2.json", self.base())
        sweep_env = self.build_env("fig2.json", self.base(self.size["sweep_T"]))
        data = {"T": T, "h": self.LOCAL_H,
                "w": env.w[:, 0], "w_pred": env.w_pred[:, 0, 0],
                "sweep_w": sweep_env.w[:, 0], "sweep_w_pred": sweep_env.w_pred[:, 0, 0]}
        for run in ("regret", "ftl"):
            data[run] = {"trace": C.read_trace(os.path.join(out, run, "trace.csv")),
                         "report": C.read_json(os.path.join(out, run, "report.json"))}
        # Program-side surrogate tables: the batched path at theta_t +- h for
        # local regret, and three columns against per-state rollouts.
        thetas = data["regret"]["trace"]["theta0"]
        h = self.LOCAL_H
        grid = np.concatenate([thetas + h, thetas - h])[:, None]
        table = gaps.metrics.surrogate_table(env, grid, T)
        data["table_plus"] = table[np.arange(T), np.arange(T)]
        data["table_minus"] = table[np.arange(T), T + np.arange(T)]
        probe = np.array([[0.0], [0.37], [1.0]])
        data["probe_thetas"] = probe[:, 0]
        data["probe_table"] = gaps.metrics.surrogate_table(env, probe, T)
        data["probe_rollout"] = np.stack(
            [gaps.system.rollout(env, th, T=T).costs for th in probe], axis=1)
        _, data["grad_bias"] = C.read_summary(os.path.join(out, "sweep-B", "summary.csv"))
        _, data["cost_bias"] = C.read_summary(
            os.path.join(out, "sweep-eta", "summary.csv"))
        data["eta_traces"] = [
            C.read_trace(os.path.join(out, "sweep-eta", f"algorithm_params_eta={v}",
                                      "trace.csv"))
            for v in self.ETA_VALUES
        ]
        data["rho_hat"] = C.read_json(
            os.path.join(out, "contraction", "contraction.json"))["rho_hat"]
        return data

    @staticmethod
    def check_replay(data):
        for run in ("regret", "ftl"):
            C.fig2_replay(data[run]["trace"], data["w"], data["w_pred"])
        for tr in data["eta_traces"]:
            C.fig2_replay(tr, data["sweep_w"], data["sweep_w_pred"])

    @staticmethod
    def check_local_regret(data):
        expected = C.local_regret_from_table(data["table_plus"], data["table_minus"], data["h"])
        C.close(data["regret"]["report"]["local_regret"], expected, 1e-9,
                "local_regret vs central differences of the surrogate table")

    @staticmethod
    def check_brute_force_regret(data):
        grid = np.linspace(0.0, 1.0, 101)
        table = C.fig2_costs(grid, data["w"], data["w_pred"], data["T"])
        for run in ("regret", "ftl"):
            static, adaptive = C.brute_force_regret(data[run]["trace"]["cost"], table)
            C.regret_report(data[run]["report"], static, adaptive)

    @staticmethod
    def check_table_columns(data):
        C.close(data["probe_table"], data["probe_rollout"], 1e-9,
                "surrogate_table columns vs per-state rollout")
        own = C.fig2_costs(data["probe_thetas"], data["w"], data["w_pred"], data["T"])
        C.close(data["probe_table"], own, 1e-9, "surrogate_table columns vs own rollout")

    @staticmethod
    def check_grad_bias(data):
        C.grad_bias_shrinks(data["grad_bias"])

    @staticmethod
    def check_cost_bias(data):
        for value, tr in zip(data["cost_bias"], data["eta_traces"]):
            C.close(value, C.cost_bias(tr, data["sweep_w"], data["sweep_w_pred"]), 1e-9,
                    "mean_cost_bias vs own resimulation")

    @staticmethod
    def check_rho(data):
        C.rho_hat_closed_form(data["rho_hat"])

    @staticmethod
    def check_totals(data):
        for run in ("regret", "ftl"):
            C.report_total(data[run]["report"], data[run]["trace"])

    checks = (
        ("trace_replay", check_replay),
        ("local_regret_central_difference", check_local_regret),
        ("regret_brute_force", check_brute_force_regret),
        ("table_vs_rollout", check_table_columns),
        ("grad_bias_shrinks_in_B", check_grad_bias),
        ("cost_bias_resimulated", check_cost_bias),
        ("rho_hat_closed_form", check_rho),
        ("report_total_cost", check_totals),
    )


# ---------------------------------------------------------------------------


class HorizonBandit(Workload):
    """BAPS over planning horizons 1..3 on several seeds, with arm regret."""

    name = "horizon-bandit"

    def seeds(self) -> list[int]:
        return [1000 * self.seed + i for i in range(self.size["seeds"])]

    def base(self, seed: int) -> list[str]:
        return [f"T={self.size['T']}", f"seed={seed}"]

    def first_config(self):
        return self.config("horizon_baps.json"), self.base(self.seeds()[0])

    def run_pass(self, out):
        cfg = self.config("horizon_baps.json")
        for s in self.seeds():
            self.op(gapsctl, "run", "--config", cfg, *overrides(self.base(s)),
                    "--out", os.path.join(out, f"seed-{s}"))
        return {}

    def gather(self, out, pass_data):
        import gaps.system

        runs = []
        for s in self.seeds():
            env = self.build_env("horizon_baps.json", self.base(s))
            d = os.path.join(out, f"seed-{s}")
            report = C.read_json(os.path.join(d, "report.json"))
            config = C.read_json(os.path.join(d, "resolved_config.json"))
            T = report["T"]
            runs.append({
                "w": env.w[:, 0],
                "trace": C.read_trace(os.path.join(d, "trace.csv")),
                "report": report,
                "b": config["algorithm"]["params"]["b"],
                "k": len(env.horizons),
                "arm_totals": [gaps.system.rollout(env, arm, T=T).total_cost
                               for arm in env.arm_thetas()],
            })
        return {"runs": runs}

    @staticmethod
    def check_replay(data):
        for r in data["runs"]:
            C.horizon_replay(r["trace"], r["w"])

    @staticmethod
    def check_arms(data):
        for r in data["runs"]:
            C.arms_held_per_batch(r["trace"], r["report"], r["b"], r["k"])

    @staticmethod
    def check_distribution(data):
        for r in data["runs"]:
            C.distribution_valid(r["report"])

    @staticmethod
    def check_static_regret(data):
        for r in data["runs"]:
            C.static_regret_vs_arms(r["report"], r["arm_totals"])

    @staticmethod
    def check_totals(data):
        for r in data["runs"]:
            C.report_total(r["report"], r["trace"])

    checks = (
        ("trace_replay", check_replay),
        ("arm_held_per_batch", check_arms),
        ("final_distribution", check_distribution),
        ("static_regret_vs_rollout", check_static_regret),
        ("report_total_cost", check_totals),
    )


WORKLOADS = {w.name: w for w in (PendulumOnline, Fig2Regret, HorizonBandit)}
