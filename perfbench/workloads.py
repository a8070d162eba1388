"""The benchmark's task lists and the checks of their outputs.

A workload is the task list in perfbench/configs/<name>.json.  Each task is
one operation through ldshift's public API or ``ldshift.cli.main``; its output
is checked against perfbench/data/refs.json, which perfbench/refs.py computes
with mpmath.  Every seed runs the same tasks in the same order; the seed only
draws the Monte Carlo seeds.

A check returns a list of problems, each a (label, detail) pair: the label
names what is wrong (``alpha2_bar_numeric``, ``alpha1_bar_closed<alpha2_bar_closed``,
``raised``) and stays the same from run to run, the detail gives the numbers.

Failure rule (a task fails if it raises or if a check below reports a problem):
- bounds values: relative gap to the reference above BOUND_TOL, or
  alpha1_bar < alpha2_bar;
- Monte Carlo exponents: |beta - ref| > max(MC_TOL * ref, 3 * stderr);
- analytic exponents: relative gap above ANALYTIC_TOL;
- ``rates`` rows: a negative alpha2_estimate, besides the checks above;
- ``verify``: a failed check or a nonzero exit code.
"""

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BOUND_TOL = 5e-3
ANALYTIC_TOL = 1e-6
MC_TOL = 0.25

HERE = Path(__file__).resolve().parent
NAMES = ("ladder-bounds", "mc-rates", "lemma-suite")


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list]


def load(root, name, seed):
    """Build the task list of workload ``name`` for ``seed``."""
    import ldshift
    import ldshift.cli

    spec = json.loads((HERE / "configs" / f"{name}.json").read_text())
    refs = json.loads((HERE / "data" / "refs.json").read_text())
    rng = random.Random(seed)
    return [_build(ldshift, root, t, refs.get(t["id"]), rng.getrandbits(31))
            for t in spec["tasks"]]


def _build(ldshift, root, t, ref, seed):
    op = t["op"]
    if op == "cli":
        argv = [str(root / a) if a.endswith(".json") else a for a in t["argv"]]
        if argv[0] == "rates":
            argv += ["--seed", str(seed)]
        for a in argv:
            if a.endswith(".json"):
                ldshift.cli.load_config(a)
        check = {"bounds": _check_bounds, "renyi_curve": _check_curve,
                 "rates": _check_rates, "verify": _check_verify}[t["check"]]
        return Task(t["id"], lambda: _run_cli(ldshift, argv), lambda out: check(out, ref))
    fam = ldshift.make_family(t["family"][0], tuple(t["family"][1])) if "family" in t else None
    if op == "mc_tail_rate":
        e = t["estimator"]
        spec = ldshift.EstimatorSpec(kind=e["kind"], eps=e.get("eps"), lam=e.get("lambda"))
        run = lambda: ldshift.mc_tail_rate(fam, spec, 0.0, t["eps"], n_grid=tuple(t["n_grid"]),
                                           trials=t["trials"], seed=seed)
        check = lambda r: _mc_problems("beta", r.beta, r.slope_stderr, ref["beta"])
    elif op == "ht_simulate":
        tp, tq = t["thetas"]
        run = lambda: ldshift.ht_simulate((fam, tp), (fam, tq), n_grid=tuple(t["n_grid"]),
                                          trials=t["trials"], seed=seed)
        check = lambda r: _mc_problems("slope", r.slope, r.stderr, ref["value"])
    elif op == "chernoff_test_rate":
        tp, tq = t["thetas"]
        run = lambda: ldshift.chernoff_test_rate((fam, tp), (fam, tq))
        check = lambda v: _gap("value", v, ref["value"], ANALYTIC_TOL)
    elif op == "hoeffding_rate":
        tp, tq = t["thetas"]
        run = lambda: [ldshift.hoeffding_rate((fam, tp), (fam, tq), r).value for r in t["r"]]
        check = lambda vals: [p for r, v, want in zip(t["r"], vals, ref["values"])
                              for p in _gap(f"r={r}", v, want, ANALYTIC_TOL)]
    elif op == "mle_chernoff_rate":
        run = lambda: {side: ldshift.mle_chernoff_rate(fam, t["eps"], side)
                       for side in ("plus", "minus")}
        check = lambda out: [p for side in ("plus", "minus")
                             for p in _gap(side, out[side], ref[side], ANALYTIC_TOL)]
    elif op == "order_stat_rates":
        run = lambda: ldshift.order_stat_rates(fam, t["eps"], lam=t["lambda"])
        check = lambda r: [p for k in ("min_shift_plus", "max_shift_minus", "combo_plus", "combo_minus")
                           for p in _gap(k, getattr(r, k), ref[k], ANALYTIC_TOL)]
    elif op == "closed_form_bounds":
        run = lambda: ldshift.closed_form_bounds(t["regime"], t["A1"], t["A2"], t["kappa"],
                                                 fisher=t["fisher"])
        check = lambda bp: _bound_problems("", bp.alpha1_bar, bp.alpha2_bar, ref)
    else:
        raise ValueError(f"unknown op {op!r} in task {t['id']}")
    return Task(t["id"], run, check)


def _run_cli(ldshift, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ldshift.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# checks: each returns a list of (label, detail) problems, empty when the
# output is right

def _gap(label, got, want, tol):
    got = float(got)
    if math.isinf(want) or math.isinf(got):
        return [] if got == want else [(label, f"{got!r} vs ref {want!r}")]
    if not math.isfinite(got) or abs(got - want) > tol * abs(want) + 1e-12:
        rel = abs(got - want) / max(abs(want), 1e-300)
        return [(label, f"{got:.10g} vs ref {want:.10g} (rel gap {rel:.2e})")]
    return []


def _mc_problems(label, beta, stderr, want):
    allowed = MC_TOL * want
    if math.isfinite(stderr):
        allowed = max(allowed, 3.0 * stderr)
    if not math.isfinite(beta) or abs(beta - want) > allowed:
        return [(label, f"{beta:.5g} vs ref {want:.5g} (allowed {allowed:.3g})")]
    return []


def _bound_problems(suffix, a1, a2, ref):
    problems = _gap("alpha1_bar" + suffix, a1, ref["alpha1"], BOUND_TOL)
    problems += _gap("alpha2_bar" + suffix, a2, ref["alpha2"], BOUND_TOL)
    if float(a1) < float(a2):
        problems.append((f"alpha1_bar{suffix}<alpha2_bar{suffix}",
                         f"{float(a1):.6g} < {float(a2):.6g}"))
    return problems


def _table(out):
    code, text = out
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return list(csv.DictReader(io.StringIO(text)))


def _check_bounds(out, ref):
    row, = _table(out)
    problems = [] if row["regime"] == ref["regime"] else [("regime", f"{row['regime']} vs {ref['regime']}")]
    problems += _gap("kappa", row["kappa"], ref["kappa"], 1e-12)
    for way in ("closed", "numeric"):
        problems += _bound_problems(f"_{way}", float(row[f"alpha1_bar_{way}"]),
                                    float(row[f"alpha2_bar_{way}"]), ref)
    return problems


def _check_curve(out, ref):
    rows = _table(out)
    if [float(r["s"]) for r in rows] != ref["s"]:
        return [("s_grid", "s grid differs from the config")]
    problems = []
    for r, want in zip(rows, ref["isg"]):
        for col in ("isg_extrapolated", "isg_closed_form"):
            problems += _gap(f"{col}(s={r['s']})", r[col], want, BOUND_TOL)
    return problems


def _check_rates(out, ref):
    rows = _table(out)
    problems = []
    for r, want in zip(rows, ref["rows"], strict=True):
        tag = r["estimator"]
        problems += _mc_problems(f"{tag} beta_mc", float(r["beta_mc"]), float(r["slope_stderr"]),
                                 want["beta"])
        for side in ("plus", "minus"):
            col = f"beta_{side}_analytic"
            problems += _gap(f"{tag} {col}", float(r[col]), want[col], ANALYTIC_TOL)
        problems += [(f"{tag} {label}", detail) for label, detail in
                     _bound_problems("", float(r["alpha1_bar"]), float(r["alpha2_bar"]),
                                     want["bounds"])]
        if float(r["alpha2_estimate"]) < 0:
            problems.append((f"{tag} alpha2_estimate<0", f"{float(r['alpha2_estimate']):.4g}"))
    return problems


def _check_verify(out, ref):
    code, text = out
    lines = text.splitlines()
    problems = [(line.split()[1], line) for line in lines if not line.startswith("PASS ")]
    if code != 0 or not lines:
        problems.append(("exit_code", f"exit code {code}, {len(lines)} checks"))
    return problems
