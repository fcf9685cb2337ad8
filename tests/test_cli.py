import csv
import json

import numpy as np
import pytest

import gaps.cli
from gaps.cli import derive_seed, load_config, main
from gaps.errors import ConfigError


def read_trace(path):
    with open(path) as f:
        assert f.readline().startswith("# schema_version=")
        return list(csv.DictReader(f))


class TestConfig:
    def test_defaults_load(self):
        config = load_config(None, [])
        assert config["env"]["name"] == "fig2"
        assert config["schema_version"] == 1

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"env": {"name": "fig2"}, "typo": 1}))
        with pytest.raises(ConfigError):
            load_config(str(path), [])

    def test_unknown_env_param_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["env.params.bogus=3"])

    def test_override_parses_json_values(self):
        config = load_config(None, ["algorithm.params.eta=0.25", "T=50"])
        assert config["algorithm"]["params"]["eta"] == 0.25
        assert config["T"] == 50

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("GAPS_SEED", "123")
        assert load_config(None, [])["seed"] == 123

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(0, "env:fig2")
        assert a == derive_seed(0, "env:fig2")
        assert a != derive_seed(0, "baps:sampling")
        assert a != derive_seed(1, "env:fig2")


class TestRun:
    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--out", str(out), "--override", "T=50"]) == 0
        rows = read_trace(out / "trace.csv")
        assert len(rows) == 50
        assert set(rows[0]) == {"t", "x0", "u0", "theta0", "cost", "grad_norm"}
        report = json.loads((out / "report.json").read_text())
        assert report["static_regret"] >= 0.0 or report["adaptive_regret"] >= 0.0
        assert report["schema_version"] == 1
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["T"] == 50

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--out", str(a), "--override", "T=60"])
        main(["run", "--out", str(b), "--override", "T=60"])
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        # 17 significant digits: parsing and reformatting reproduces the
        # token, so doubles survive the CSV unharmed.
        out = tmp_path / "roundtrip"
        main(["run", "--out", str(out), "--override", "T=30"])
        for row in read_trace(out / "trace.csv"):
            for key in ("x0", "u0", "theta0", "cost"):
                token = row[key]
                assert format(float(token), ".17g") == token

    def test_zero_eta_freezes_theta_column(self, tmp_path):
        out = tmp_path / "frozen"
        main(["run", "--out", str(out), "--override", "algorithm.params.eta=0",
              "--override", "T=40"])
        rows = read_trace(out / "trace.csv")
        assert len({r["theta0"] for r in rows}) == 1

    def test_config_error_exit_code(self, tmp_path):
        assert main(["run", "--override", "bogus=1", "--out", str(tmp_path / "x")]) == 2
        assert main(["run", "--config", "/nonexistent.json", "--out", str(tmp_path / "y")]) == 2

    def test_jobs_is_a_sweep_only_flag(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["run", "--jobs", "2", "--out", str(tmp_path / "x")])
        assert info.value.code == 2

    @pytest.mark.parametrize("overrides", [
        ["algorithm.params.eta=-1"],
        ["algorithm.params.B=0"],
        ["algorithm.params.theta0=[1.0,2.0]"],
        ["algorithm.name=ogd", "algorithm.params.eta=-1"],
        ["env.name=horizon", "algorithm.name=baps", "algorithm.params.b=0"],
        ["env.name=horizon", "algorithm.name=baps", "algorithm.params.k=0"],
        ["env.name=horizon", "algorithm.name=baps", "algorithm.params.k=5"],
        ["env.params.k=0"],
        ['env.params.sigma_w="x"'],
        ["env.name=horizon", "env.params.horizons=[]"],
        ["env.name=horizon", "env.params.horizons=[0,1]"],
        ["env.name=pendulum", "env.params.masses=[]"],
        ["env.name=pendulum", 'env.params.disturbance={"kind":"ou","mean_reversion":500}'],
        ["env.name=dac", "env.params.n=0"],
        ["metrics.grid_points=0"],
        ["algorithm.name=ftl", "env.params.k=2"],
        ["env.name=pendulum", 'env.params.disturbance="x"'],
        ["algorithm.params.B=2.0"],
        ["algorithm.params.B=1.5"],
        ["algorithm.params.B=true"],
        ["env.name=horizon", "algorithm.name=baps", "algorithm.params.b=1.5"],
        ["env.name=horizon", "algorithm.name=baps", "T=500", "algorithm.params.b=10000"],
        ["env.name=pendulum", "env.params.masses=[0]"],
        ["env.name=pendulum", "env.params.masses=[-1.0]"],
        ["env.name=pendulum", "env.params.masses=[1.0,NaN]"],
        ["env.name=pendulum", "env.params.masses=[Infinity]"],
        ["seed=1.5"],
        ['seed="3"'],
        ["metrics.grid_points=true"],
        ["T=true"],
        ["env.name=horizon", "env.params.horizons=[1.5,2]"],
        ["env.name=dac", "env.params.history=1.5"],
        ["env.params.k=true"],
        ["env.name=dac", "env.params.n=true"],
        ["env.name=pendulum", "env.params.switch_period=0"],
        ["env.name=pendulum", "env.params.switch_period=-1"],
        ["env.params.switch_time=1.5"],
        ["env.params.switch_time=-5"],
        ["env.params.sigma_w=-1"],
        ["env.params.sigma_pred_before=-1"],
        ["env.name=constant_noise", "env.params.sigma_pred=-1"],
        ["T=200", "env.params.sigma_pred_after=NaN"],
        ["env.name=horizon", "env.params.pred_growth=-1"],
        ["env.name=horizon", "env.params.sigma_pred0=-0.3"],
        ["env.name=dac", "env.params.w_bound=-1"],
        ["env.name=pendulum", 'env.params.disturbance={"kind":"iid","sigma":-1}'],
        ["env.name=pendulum", 'env.params.disturbance={"kind":"ou","sigma":-3}'],
        ["env.name=horizon", "algorithm.name=baps", "T=200", "algorithm.params.eta=NaN"],
        ["env.name=horizon", "algorithm.name=baps", "T=200", "algorithm.params.eta=Infinity"],
        ["algorithm.params.eta=Infinity"],
        ["algorithm.params.eta=NaN"],
        ["algorithm.params.theta0=[NaN]"],
        ["algorithm.params.theta0=[Infinity]"],
        ["algorithm.name=ftl", "algorithm.params.lambda0=NaN"],
        ["env.params.sigma_pred_after=NaN", "metrics.regret=false"],
        ["env.name=dac", "env.params.radius=NaN"],
        ["env.name=dac", "env.params.radius=Infinity"],
    ])
    def test_bad_algorithm_params_are_config_errors(self, tmp_path, capsys, overrides):
        argv = ["run", "--out", str(tmp_path / "bad"), "--override", "T=20"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed, overrides, key", [
        ("abc", [], "GAPS_SEED"),
        ("1.5", [], "GAPS_SEED"),
        (None, ["seed=1.5"], "seed"),
        (None, ['seed="3"'], "seed"),
        (None, ["metrics.grid_points=true"], "metrics.grid_points"),
        (None, ["T=true"], "T"),
        (None, ["env.name=horizon", "env.params.horizons=[1.5,2]"], "horizons"),
        (None, ["env.name=dac", "env.params.history=1.5"], "history"),
    ])
    def test_non_integer_settings_name_their_key(
        self, tmp_path, capsys, monkeypatch, seed, overrides, key
    ):
        if seed is not None:
            monkeypatch.setenv("GAPS_SEED", seed)
        argv = ["run", "--out", str(tmp_path / "bad"), "--override", "T=20"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key} must be an integer" in err
        assert not (tmp_path / "bad" / "report.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "contraction.horizon=1", "contraction.pairs=0", "T=20", "contraction.pairs=true",
            "contraction.R_C_probe=NaN", "contraction.R_C_probe=Infinity",
            "contraction.eps=NaN", "contraction.eps=-1",
        ],
    )
    def test_bad_contraction_settings_are_config_errors(self, tmp_path, capsys, override):
        argv = ["contraction", "--out", str(tmp_path / "bad"), "--override", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "bad" / "contraction.json").exists()

    @pytest.mark.parametrize(
        "env_name, field, step", [("pendulum", "w", 10), ("fig2", "w_pred", 5)]
    )
    def test_nan_input_is_numerical_failure(
        self, tmp_path, monkeypatch, capsys, env_name, field, step
    ):
        # A NaN disturbance makes the next state NaN (StateBlowup); a NaN
        # prediction makes the action and so the gradient NaN while the
        # state is still finite (NonFiniteGradient).
        build = gaps.cli.build_env

        def poisoned(config):
            env = build(config)
            getattr(env, field)[step] = np.nan
            return env

        monkeypatch.setattr(gaps.cli, "build_env", poisoned)
        argv = ["run", "--out", str(tmp_path / "nan"), "--override", "T=30",
                "--override", f"env.name={env_name}", "--override", "metrics.regret=false"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_nan_disturbance_fails_contraction(self, tmp_path, monkeypatch, capsys):
        build = gaps.cli.build_env

        def poisoned(config):
            env = build(config)
            env.w[50] = np.nan
            return env

        monkeypatch.setattr(gaps.cli, "build_env", poisoned)
        argv = ["contraction", "--out", str(tmp_path / "con")]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")
        assert not (tmp_path / "con" / "contraction.json").exists()

    def test_numeric_failure_exit_code(self, tmp_path):
        # A disturbance-feedback radius far beyond the blow-up cap plus a
        # huge step size drives the state over the cap within a few steps.
        code = main([
            "run", "--out", str(tmp_path / "boom"),
            "--override", "env.name=dac",
            "--override", "T=500",
            "--override", "env.params.radius=1e9",
            "--override", "algorithm.params.eta=1e12",
            "--override", "metrics.regret=false",
        ])
        assert code == 3

    def test_baps_run_reports_distribution(self, tmp_path):
        out = tmp_path / "baps"
        code = main([
            "run", "--out", str(out),
            "--override", "env.name=horizon",
            "--override", 'env.params.horizons=[1,2,3]',
            "--override", "algorithm.name=baps",
            "--override", "algorithm.params.b=20",
            "--override", "algorithm.params.eta=0.001",
            "--override", "T=400",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["final_distribution"]) == 3
        assert sum(report["final_distribution"]) == pytest.approx(1.0, abs=1e-9)

    def test_ftl_run(self, tmp_path):
        out = tmp_path / "ftl"
        assert main(["run", "--out", str(out), "--override", "algorithm.name=ftl",
                     "--override", "T=120"]) == 0


def reference_trace(traj):
    """The trace body written one value at a time with _fmt."""
    fmt = gaps.cli._fmt
    lines = []
    for t in range(len(traj)):
        gnorm = float(np.linalg.norm(traj.grads[t])) if traj.grads is not None else float("nan")
        row = (
            [str(t)]
            + [fmt(v) for v in traj.states[t]]
            + [fmt(v) for v in traj.actions[t]]
            + [fmt(v) for v in traj.thetas[t]]
            + [fmt(traj.costs[t]), fmt(gnorm)]
        )
        lines.append(",".join(row) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("with_grads", [True, False])
def test_trace_matches_per_value_format(tmp_path, with_grads):
    # More rows than one write block, awkward values, and a 3-d gradient
    # whose norm must come out as np.linalg.norm gives it.
    from gaps.system import Trajectory

    rng = np.random.default_rng(0)
    T = 1100
    scale = 10.0 ** rng.integers(-300, 300, (T, 1))
    traj = Trajectory(
        states=rng.standard_normal((T, 2)) * scale,
        actions=rng.standard_normal((T, 1)),
        thetas=rng.standard_normal((T, 3)),
        costs=rng.standard_normal(T),
        final_state=np.zeros(2),
        grads=rng.standard_normal((T, 3)) * 1e3 if with_grads else None,
    )
    traj.states[:4, 0] = [np.nan, np.inf, -np.inf, -0.0]
    traj.costs[5] = 1e-310
    path = tmp_path / "trace.csv"
    gaps.cli.write_trace(str(path), traj)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1] == "t,x0,x1,u0,theta0,theta1,theta2,cost,grad_norm\n"
    assert "".join(lines[2:]) == reference_trace(traj)


class TestSweep:
    def test_sweep_writes_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "seed", "--values", "0,1,2",
            "--metric", "total_cost", "--out", str(out), "--jobs", "1",
            "--override", "T=40", "--override", "metrics.regret=false",
        ])
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[1] == "seed,total_cost"
        values = [float(l.split(",")[1]) for l in lines[2:]]
        assert len(values) == 3
        assert len(set(values)) == 3  # distinct seeds, distinct traces

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_is_a_config_error(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--param", "seed", "--values", "0,1", "--out", str(out),
            "--jobs", jobs, "--override", "T=20",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    def test_sweep_grad_bias_metric_decreases_in_buffer(self, tmp_path):
        out = tmp_path / "sweepB"
        code = main([
            "sweep", "--param", "algorithm.params.B", "--values", "1,4,16",
            "--metric", "mean_grad_bias", "--out", str(out), "--jobs", "1",
            "--override", "T=120", "--override", "algorithm.params.eta=0.001",
            "--override", "metrics.regret=false",
        ])
        assert code == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        vals = [float(l.split(",")[1]) for l in lines[2:]]
        assert vals[0] > vals[1] > vals[2]


    def test_summary_identical_across_job_counts(self, tmp_path):
        summaries = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main([
                "sweep", "--param", "algorithm.params.B", "--values", "1,4,16",
                "--metric", "mean_grad_bias", "--out", str(out), "--jobs", jobs,
                "--override", "T=60", "--override", "metrics.regret=false",
            ]) == 0
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]

    @pytest.mark.parametrize("metric", ["mean_grad_bias", "mean_cost_bias"])
    def test_bias_metric_runs_each_value_once(self, tmp_path, monkeypatch, metric):
        calls = []
        run = gaps.cli.run_algorithm

        def counted(config, env):
            calls.append(config["algorithm"]["params"]["eta"])
            return run(config, env)

        monkeypatch.setattr(gaps.cli, "run_algorithm", counted)
        assert main([
            "sweep", "--param", "algorithm.params.eta", "--values", "0.004,0.002",
            "--metric", metric, "--out", str(tmp_path / "s"), "--jobs", "1",
            "--override", "T=40", "--override", "metrics.regret=false",
        ]) == 0
        assert calls == [0.004, 0.002]


class TestValidateAndFriends:
    def test_validate_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_validate_subset(self, capsys):
        assert main(["validate", "--only", "riccati"]) == 0
        out = capsys.readouterr().out
        assert out.count("riccati") == 1
        assert "jacobians" not in out

    def test_contraction_command(self, tmp_path):
        out = tmp_path / "con"
        assert main(["contraction", "--out", str(out), "--override", "T=150",
                     "--override", 'contraction={"pairs":30,"horizon":15}']) == 0
        est = json.loads((out / "contraction.json").read_text())
        assert 0.0 < est["rho_hat"] < 1.0
        assert est["C_hat"] >= 1.0

    def test_regret_command(self, tmp_path):
        out = tmp_path / "reg"
        assert main(["regret", "--out", str(out), "--override", "T=60",
                     "--override", "metrics.local_regret=true"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "local_regret" in report
        assert report["adaptive_regret"] >= report["static_regret"] - 1e-9
