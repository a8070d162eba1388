"""Record the Monte Carlo tail counts that ``test_mc_counts_are_pinned``
compares, into tests/data/mc_counts.json.

Run from the repository root, on the tree whose streams are to be pinned:

    PYTHONPATH=src python tests/record_mc_counts.py

Each case is one small ``mc_tail_rate`` call of the MLE or LR estimator; the
file keeps its inputs beside the p_plus and p_minus it gave.
"""

import json
from pathlib import Path

from ldshift.estimators import EstimatorSpec
from ldshift.families import make_family
from ldshift.rates import mc_tail_rate

OUT = Path(__file__).resolve().parent / "data" / "mc_counts.json"

# (id, family, estimator, tail eps, n grid, trials, seed); the beta(1.5, 1.5)
# MLE draws strip-free samples per side at n >= 16 and shared rows at n = 8,
# the others shared rows
CASES = [
    ("lr-gaussian", ["gaussian", []], {"kind": "lr", "eps": 0.5}, 0.5, [4, 8, 16], 2000, 41),
    ("lr-gamma-3", ["gamma", [3]], {"kind": "lr", "eps": 0.6}, 0.6, [4, 8, 16], 2000, 42),
    ("lr-beta-2-2", ["beta", [2, 2]], {"kind": "lr", "eps": 0.1}, 0.1, [8, 16, 32], 2000, 43),
    ("mle-gamma-3", ["gamma", [3]], {"kind": "mle"}, 0.5, [4, 8, 16], 2000, 44),
    ("mle-beta-1.5-1.5", ["beta", [1.5, 1.5]], {"kind": "mle"}, 0.1, [8, 16, 32], 4000, 45),
]


def run(case):
    """The (p_plus, p_minus) lists of one recorded case's inputs."""
    fam = make_family(*case["family"])
    spec = EstimatorSpec(**case["estimator"])
    est = mc_tail_rate(fam, spec, 0.0, case["eps"], n_grid=case["n_grid"],
                       trials=case["trials"], seed=case["seed"])
    return est.p_plus.tolist(), est.p_minus.tolist()


def main():
    cases = []
    for cid, family, estimator, eps, n_grid, trials, seed in CASES:
        case = dict(id=cid, family=family, estimator=estimator, eps=eps, n_grid=n_grid,
                    trials=trials, seed=seed)
        case["p_plus"], case["p_minus"] = run(case)
        cases.append(case)
    OUT.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
