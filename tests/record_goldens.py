"""Record the golden files in tests/data that four tests compare against:

- ``mc_counts.json``: Monte Carlo tail counts of the MLE, LR and
  order-statistic estimators (``test_mc_counts_are_pinned``)
- ``rates_beta_1.5_1.5.csv``: a small ``ldshift rates`` table
  (``test_rates_golden``)
- ``verify_quick.txt``: the ``ldshift verify --level quick`` report
  (``test_quick_lemma_suite_passes``)
- ``bench_tables.json``: the ``ldshift bounds`` and ``ldshift renyi-curve``
  tables of the benchmark's CLI configs (``test_bench_tables_golden``)

Run from the repository root, on the tree whose outputs are to be pinned:

    PYTHONPATH=src python tests/record_goldens.py

Each test calls the function here that wrote its file, so a recorded call
and its checked call are written once.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from ldshift.cli import main as cli_main
from ldshift.estimators import EstimatorSpec
from ldshift.families import make_family
from ldshift.rates import mc_tail_rate

DATA = Path(__file__).resolve().parent / "data"
# the CLI configs of the benchmark, read only
BENCH_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "cli"

# (id, family, estimator, tail eps, n grid, trials, seed); the beta(1.5, 1.5)
# MLE draws strip-free samples per side at n >= 16 and shared rows at n = 8,
# the others shared rows
MC_CASES = [
    ("lr-gaussian", ["gaussian", []], {"kind": "lr", "eps": 0.5}, 0.5, [4, 8, 16], 2000, 41),
    ("lr-gamma-3", ["gamma", [3]], {"kind": "lr", "eps": 0.6}, 0.6, [4, 8, 16], 2000, 42),
    ("lr-beta-2-2", ["beta", [2, 2]], {"kind": "lr", "eps": 0.1}, 0.1, [8, 16, 32], 2000, 43),
    ("mle-gamma-3", ["gamma", [3]], {"kind": "mle"}, 0.5, [4, 8, 16], 2000, 44),
    ("mle-beta-1.5-1.5", ["beta", [1.5, 1.5]], {"kind": "mle"}, 0.1, [8, 16, 32], 4000, 45),
    # the order statistics decide their rows from the extremes' masses: the
    # convex combination on the benchmark's grid, and at lambda 0.3 on a
    # U-shaped beta and an asymmetric triangular density
    ("convex-combo-0.5-beta-1.5-1.5", ["beta", [1.5, 1.5]], {"kind": "convex_combo", "lam": 0.5},
     0.1, [8, 16, 32, 64], 40000, 46),
    ("convex-combo-0.3-beta-0.3-0.3", ["beta", [0.3, 0.3]], {"kind": "convex_combo", "lam": 0.3},
     0.02, [2, 4, 8, 16], 20000, 47),
    ("convex-combo-0.3-triangular-0.3", ["triangular", [0.3]],
     {"kind": "convex_combo", "lam": 0.3}, 0.03, [2, 4, 8, 16], 20000, 48),
    ("min-shift-beta-2-3", ["beta", [2, 3]], {"kind": "min_shift"}, 0.1, [8, 16, 32, 64],
     4000, 49),
    ("max-shift-beta-2-3", ["beta", [2, 3]], {"kind": "max_shift"}, 0.1, [8, 16, 32, 64],
     4000, 50),
    ("shifted-min-beta-2-3", ["beta", [2, 3]], {"kind": "shifted_min", "eps": 0.05}, 0.05,
     [8, 16, 32, 64], 4000, 51),
]

# beta(1.5, 1.5) draws strip-free samples per side at the larger rung
# (both estimators) and the smaller one (lr at n >= 16)
RATES_CFG = {"version": 1, "seed": 0, "family": {"kind": "beta", "params": [1.5, 1.5]},
             "estimators": [{"kind": "mle"}, {"kind": "lr"}], "trials": 2000,
             "n_grid": [8, 16, 32], "eps_ladder": [0.1, 0.05]}


def mc_counts(case):
    """The (p_plus, p_minus) lists of one recorded case's inputs."""
    fam = make_family(*case["family"])
    spec = EstimatorSpec(**case["estimator"])
    est = mc_tail_rate(fam, spec, 0.0, case["eps"], n_grid=case["n_grid"],
                       trials=case["trials"], seed=case["seed"])
    return est.p_plus.tolist(), est.p_minus.tolist()


def _cli(argv):
    """(exit code, stdout text) of one ``ldshift`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def rates_table():
    """(exit code, csv text) of ``ldshift rates`` on RATES_CFG."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rates.json"
        path.write_text(json.dumps(RATES_CFG))
        return _cli(["rates", "--config", str(path)])


def verify_quick():
    """(exit code, report text) of ``ldshift verify --level quick``."""
    return _cli(["verify", "--level", "quick"])


def bench_tables():
    """{config file name: csv text} of ``ldshift bounds`` on each
    ``bounds-*.json`` and ``ldshift renyi-curve`` on each
    ``renyi-curve-*.json`` in BENCH_CLI: the tables of the ladder-bounds
    workload.  A command that fails gives "exit <code>" in place of its
    table."""
    tables = {}
    for command in ("bounds", "renyi-curve"):
        for path in sorted(BENCH_CLI.glob(f"{command}-*.json")):
            code, text = _cli([command, "--config", str(path)])
            tables[path.name] = text if code == 0 else f"exit {code}"
    return tables


def main():
    cases = []
    for cid, family, estimator, eps, n_grid, trials, seed in MC_CASES:
        case = dict(id=cid, family=family, estimator=estimator, eps=eps, n_grid=n_grid,
                    trials=trials, seed=seed)
        case["p_plus"], case["p_minus"] = mc_counts(case)
        cases.append(case)
    (DATA / "mc_counts.json").write_text(json.dumps(cases, indent=1) + "\n")
    for name, record in (("rates_beta_1.5_1.5.csv", rates_table),
                         ("verify_quick.txt", verify_quick)):
        code, text = record()
        if code != 0:
            raise SystemExit(f"{name}: the command exited {code}, nothing recorded")
        (DATA / name).write_text(text)
    tables = bench_tables()
    failed = [name for name, text in tables.items() if text.startswith("exit ")]
    if failed:
        raise SystemExit(f"bench tables: {', '.join(failed)} failed, nothing recorded")
    (DATA / "bench_tables.json").write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
