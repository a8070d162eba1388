"""Import footprint: `import ldshift` and the `bounds`, `renyi-curve`, `rates`
and `verify` commands run without scipy; only `cdf` on a beta, gamma or
gaussian family loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, glob, io, sys

import ldshift
import ldshift.cli

assert "scipy" not in sys.modules, "import ldshift loaded scipy"

configs = sorted(glob.glob("perfbench/configs/cli/bounds-*.json"))
assert configs, "no bounds configs found"
runs = [["bounds", "--config", c] for c in configs]
runs.append(["renyi-curve", "--config", "perfbench/configs/cli/renyi-curve-gamma-2.json"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ldshift.cli.main(argv)
    assert code == 0, (argv, code)
    assert "scipy" not in sys.modules, f"{argv} loaded scipy"
ldshift.cdf(ldshift.make_family("beta", (2, 3)), 0.5)
assert "scipy.special" in sys.modules, "cdf on a beta family did not load scipy"
print("ok", len(runs))
"""

# the analytic order-statistic and MLE rates integrate on the family's own
# quadrature, so neither a `rates` run nor the lemma suite needs scipy
RATES_VERIFY_SCRIPT = r"""
import contextlib, io, sys

import ldshift.cli

runs = [["rates", "--config", sys.argv[1]], ["verify", "--level", "quick"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ldshift.cli.main(argv)
    assert code == 0, (argv, code)
    assert "scipy.special" not in sys.modules, f"{argv} loaded scipy.special"
print("ok", len(runs))
"""

RATES_CFG = {
    "version": 1, "seed": 0, "family": {"kind": "beta", "params": [2, 3]},
    "estimators": [{"kind": "min_shift"}, {"kind": "convex_combo", "lambda": 0.3},
                   {"kind": "mle"}],
    "trials": 200, "n_grid": [2, 4, 8], "eps_ladder": [0.2, 0.1, 0.05, 0.025],
}


def _run_fresh(script, *args):
    """Run a script in a fresh interpreter; returns its stdout words."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bounds_and_renyi_curve_do_not_load_scipy():
    assert _run_fresh(SCRIPT) == ["ok", "13"]


def test_rates_and_verify_do_not_load_scipy(tmp_path):
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(RATES_CFG))
    assert _run_fresh(RATES_VERIFY_SCRIPT, str(path)) == ["ok", "2"]
