"""Import footprint: `import ldshift` and the `bounds` and `renyi-curve`
commands run without scipy; only `cdf` on a beta, gamma or gaussian family
loads it."""

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


def test_bounds_and_renyi_curve_do_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "13"]
