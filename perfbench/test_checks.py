"""Each output check passes on real outputs and fails on a corrupted one.

Run with `python3 -m pytest perfbench`. One quick pass of every workload is
made per session; every test corrupts a copy of the gathered outputs and
expects exactly the named check to raise `CheckFailed`.
"""

import copy
import os

import numpy as np
import pytest

import checks as C
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def gathered(tmp_path_factory):
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(ROOT, seed=3, quick=True)
        pass_dir = str(tmp_path_factory.mktemp(name))
        pass_data = workload.run_pass(pass_dir)
        assert workload.failed == 0
        out[name] = (workload, workload.gather(pass_dir, pass_data), pass_dir)
    return out


def _pend_grad(d):
    r = d["runs"][3]  # ou, B = 128
    t = C.sampled_steps(d["T"], r["B"])[4]
    r["trace"]["grad_norm"][t] *= 1 + 1e-6


def _pend_lqr_iid(d):
    r = d["runs"][0]
    r["report"]["total_cost"] = 1.11 * r["lqr"]


def _pend_lqr_ou(d):
    r = d["runs"][2]
    r["report"]["total_cost"] = 1.0 * r["lqr"]


def _set(path, value):
    def corrupt(d):
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
    return corrupt


def _element(path, index, fn):
    def corrupt(d):
        node = d
        for key in path:
            node = node[key]
        node[index] = fn(node[index])
    return corrupt


def _other_arm_mid_batch(d):
    r = d["runs"][0]
    arms = r["trace"]["theta0"]
    arms[r["b"] + 3] = (arms[r["b"] + 3] + 1) % r["k"]


def _best_arm(d):
    r = d["runs"][1]
    j = int(np.argmin(r["arm_totals"]))
    r["arm_totals"][j] *= 1 + 1e-6


CORRUPTIONS = {
    "pendulum-online": {
        "trace_replay": [_element(("runs", 0, "trace", "x1"), 50, lambda v: v * (1 + 1e-7))],
        "grad_norm_chain_rule": [_pend_grad],
        "theta_in_gain_box": [_element(("runs", 1, "trace", "theta0"), 10, lambda v: 16.99)],
        "ac6_cost_vs_lqr": [_pend_lqr_iid, _pend_lqr_ou],
        "report_total_cost": [_set(("runs", 2, "report", "total_cost"), lambda v: v * (1 + 1e-9))],
    },
    "fig2-regret": {
        "trace_replay": [
            _element(("regret", "trace", "x0"), 20, lambda v: v + 1e-6),
            _element(("eta_traces", 2, "u0"), 7, lambda v: v + 1e-6),
        ],
        "local_regret_central_difference": [
            _set(("regret", "report", "local_regret"), lambda v: v * (1 + 1e-7)),
        ],
        "regret_brute_force": [
            _set(("regret", "report", "adaptive_regret"), lambda v: v * (1 + 1e-7)),
            _set(("ftl", "report", "static_regret"), lambda v: v * (1 + 1e-7)),
        ],
        "table_vs_rollout": [_element(("probe_table",), (5, 1), lambda v: v * (1 + 1e-7))],
        "grad_bias_shrinks_in_B": [
            _element(("grad_bias",), 4, lambda v: v * 1e3),
            _set(("grad_bias",), lambda v: [1.0, 0.5, 0.2, 0.1, 0.06]),
        ],
        "cost_bias_resimulated": [_element(("cost_bias",), 1, lambda v: v * (1 + 1e-7))],
        "rho_hat_closed_form": [_set(("rho_hat",), lambda v: v + 2e-3)],
        "report_total_cost": [_set(("ftl", "report", "total_cost"), lambda v: v * (1 + 1e-9))],
    },
    "horizon-bandit": {
        "trace_replay": [_element(("runs", 0, "trace", "x0"), 30, lambda v: v + 1e-6)],
        "arm_held_per_batch": [_other_arm_mid_batch],
        "final_distribution": [
            _set(("runs", 0, "report", "final_distribution"), lambda s: [*s[:-1], 0.0]),
            _set(("runs", 1, "report", "final_distribution"), lambda s: [v * 1.01 for v in s]),
        ],
        "static_regret_vs_rollout": [_best_arm],
        "report_total_cost": [_set(("runs", 1, "report", "total_cost"), lambda v: v * (1 + 1e-9))],
    },
}

CASES = [
    (workload, check, i)
    for workload, table in CORRUPTIONS.items()
    for check, fns in table.items()
    for i in range(len(fns))
]


def _check(workload, name):
    return dict(workload.checks)[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_check_has_a_corruption(name):
    assert sorted(CORRUPTIONS[name]) == sorted(n for n, _ in WORKLOADS[name].checks)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_outputs(gathered, name):
    workload, data, _ = gathered[name]
    for _, check in workload.checks:
        check(data)


@pytest.mark.parametrize("name,check,index", CASES)
def test_check_fails_on_corrupted_output(gathered, name, check, index):
    workload, data, _ = gathered[name]
    bad = copy.deepcopy(data)
    CORRUPTIONS[name][check][index](bad)
    with pytest.raises(C.CheckFailed):
        _check(workload, check)(bad)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_identical_outputs_fails_on_one_changed_byte(gathered, name):
    _, _, pass_dir = gathered[name]
    files = C.tree_bytes(pass_dir)
    C.identical_trees(files, dict(files))
    changed = dict(files)
    key = sorted(k for k in files if k.endswith("report.json"))[0]
    body = bytearray(files[key])
    body[-3] = ord("0") if body[-3] != ord("0") else ord("1")
    changed[key] = bytes(body)
    with pytest.raises(C.CheckFailed):
        C.identical_trees(files, changed)


def test_missing_hook_target_is_an_error():
    rec = tracing.Recorder()
    with pytest.raises(tracing.HookError):
        rec.hook_function("gaps.cli", "no_such_function", "x")
    with pytest.raises(tracing.HookError):
        rec.hook_method("gaps.envs.pendulum", "PendulumEnv.no_such_method", "x")
    with pytest.raises(tracing.HookError):
        rec.hook_function("gaps.no_such_module", "f", "x")


def test_self_time_excludes_children():
    import time

    rec = tracing.Recorder(keep_spans=True)
    inner = rec.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()

    rec.wrap("outer", outer_fn)()
    outer, inner_st = rec.stats["outer"], rec.stats["inner"]
    assert outer.calls == inner_st.calls == 1
    assert outer.total >= inner_st.total >= 0.02
    assert abs(outer.self_time - (outer.total - inner_st.total)) < 1e-9
    names = [s[0] for s in rec.spans]
    assert names == ["outer", "inner"] and rec.spans[1][3] == 0 and rec.spans[0][3] == -1
