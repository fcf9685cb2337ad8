"""Guards on what the package loads and exports.

Start-up cost: the package must not pull in scipy. Importing scipy costs
about a second per process, and every `gapsctl` call and swept value pays
start-up again, so this runs the CLI's import, env build and the grid and
arm-cost helpers in a fresh interpreter and checks which modules got
loaded.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import gaps
import gaps.envs

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

PROBE = """
import json, sys
import numpy as np
import gaps, gaps.cli
from gaps.metrics import make_theta_grid, surrogate_table
from gaps.system import Box

for path in json.loads(sys.argv[1]):
    env = gaps.cli.build_env(gaps.cli.load_config(path, []))
    if env.arm_thetas() is not None:
        surrogate_table(env, np.stack(env.arm_thetas()), 50)
make_theta_grid(Box(np.zeros(4), np.ones(4)))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_and_env_builds_load_no_scipy():
    assert CONFIGS
    src = os.path.dirname(os.path.dirname(gaps.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([str(p) for p in CONFIGS])],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == []


def test_no_exported_callable_takes_a_blowup_cap():
    """The blow-up cap is the one constant DEFAULT_BLOWUP_CAP, not a knob."""
    found = []
    for module in (gaps, gaps.envs):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                methods = inspect.getmembers(obj, inspect.isfunction)
                members += [(f"{name}.{m}", f) for m, f in methods]
            for label, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except ValueError:  # exception classes have no signature
                    continue
                if "blowup_cap" in params:
                    found.append(f"{module.__name__}.{label}")
    assert found == []


def test_bundled_envs_bind_the_hooked_methods_in_their_own_namespace():
    """Per-class hooks, such as the benchmark's tracer, replace these methods
    in each env class's own namespace, so each class must bind them there
    rather than only inherit them."""
    names = ("policy", "dynamics", "cost", "jacobians", "batch_surrogate_costs")
    for cls in (gaps.envs.PendulumEnv, gaps.envs.ConfidenceMpcEnv, gaps.envs.HorizonSelectionEnv):
        assert [name for name in names if name not in vars(cls)] == [], cls.__name__
