"""Command-line front end: seeded experiment configs in, flat tables out.

Commands: ``bounds`` (regime table, closed-form vs numeric), ``renyi-curve``
(divergence ladders and extrapolated limits), ``rates`` (empirical vs
analytic estimator rates against the bounds), ``verify`` (the lemma suite).
Outputs are byte-identical for identical config + seed.  Exit codes:
0 success, 1 verification failure, 2 config error.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import sys

from .bounds import bound_pair, closed_form_bounds
from .estimators import EPS_KINDS, ORDER_STAT_KINDS, EstimatorSpec, check_family
from .families import make_family
from .rates import (InsufficientEventsError, _check_n_grid, _check_rungs, _check_trials,
                    alpha2_estimate, mc_tail_rate, mle_chernoff_rate, order_stat_rates)
from .renyi import (DivergenceError, _check_s_grid, _ladder, classify_regime, closed_form_isg,
                    g_value, kappa_of_g, profile_from_family)
from .verify import run_checks

__all__ = ["main", "ConfigError", "load_config", "cmd_bounds",
           "cmd_renyi_curve", "cmd_rates", "cmd_verify"]

CONFIG_VERSION = 1


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _field(name):
    """Report an input the library rejects inside the block as a config
    error that names its field."""
    try:
        yield
    except (KeyError, TypeError, ValueError, DivergenceError) as exc:
        raise ConfigError(f"field {name!r}: {exc}") from exc


def _fmt(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None if math.isnan(v) else _fmt(v)
    return v


def _write_table(columns, rows, path, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        # strict JSON: nan is null and an infinity the CSV's "inf"/"-inf"
        payload = [dict(zip(columns, [_json_value(v) for v in row])) for row in rows]
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    _emit(text, path)


def _emit(text, path):
    """Write text to the file at path, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, col {exc.colno}): "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"field 'version': expected {CONFIG_VERSION}, "
                          f"got {raw.get('version')!r}")
    if "seed" not in raw:
        raise ConfigError("field 'seed' is mandatory")
    return raw


def _build_family(cfg):
    """The config's family; it takes no shift theta, as no output of a
    location family depends on one."""
    fam_cfg = cfg.get("family")
    if not isinstance(fam_cfg, dict) or "kind" not in fam_cfg:
        raise ConfigError("field 'family': need an object with a 'kind'")
    if "theta" in fam_cfg:
        raise ConfigError("field 'family.theta': no output depends on the shift of a "
                          "location family; remove the field")
    with _field("family"):
        return make_family(fam_cfg["kind"], tuple(fam_cfg.get("params", ())))


def _build_estimators(cfg, eps0, fam):
    """Estimator specs of the config, each defined on the family; lr and
    shifted_min without an eps take eps0, the first rung (0.1 without a
    ladder)."""
    specs = []
    for i, e in enumerate(cfg.get("estimators", ())):
        with _field(f"estimators[{i}]"):
            kind, eps = e["kind"], e.get("eps")
            if eps is None and kind in EPS_KINDS:
                eps = eps0
            spec = EstimatorSpec(kind=kind, eps=eps, lam=e.get("lambda"))
            check_family(spec, fam)
            specs.append(spec)
    if not specs:
        raise ConfigError("field 'estimators': need at least one estimator")
    return specs


def _g_tag(cfg, info):
    """The config's scaling tag, an edge exponent > 0 (a JSON number,
    Infinity allowed), or the family's own one (``info``) for "auto"."""
    tag = cfg.get("g_tag", "auto")
    if tag == "auto":
        return info.g_tag
    with _field("g_tag"):
        kappa_of_g(tag)
    return float(tag)


def _profile(cfg, fam, g_tag, min_points):
    """The config's ladder profile; an s grid needs ``min_points`` orders."""
    s_grid = cfg.get("s_grid")
    if s_grid is not None:
        with _field("s_grid"):
            s_grid = _check_s_grid(s_grid)
            if s_grid.size < min_points:
                raise ValueError(f"need at least {min_points} orders, got {s_grid.size}")
    with _field("eps_ladder"):
        ladder = _ladder(cfg.get("eps_ladder"), g_tag, fam)
    with _field("g_tag"):  # the ladder and the orders are checked above
        return profile_from_family(fam, g_tag=g_tag, s_grid=s_grid, eps_ladder=ladder)


def cmd_bounds(cfg, out=None, fmt="csv"):
    """Regime, kappa, amplitudes, and both bounds computed both ways."""
    fam = _build_family(cfg)
    info = classify_regime(fam)
    cf = closed_form_bounds(info.regime, info.A1, info.A2, info.kappa,
                            fisher=info.fisher)
    prof = _profile(cfg, fam, _g_tag(cfg, info), min_points=17)
    num = bound_pair(prof)
    columns = ["family", "regime", "kappa", "A1", "A2",
               "alpha1_bar_closed", "alpha1_bar_numeric",
               "alpha2_bar_closed", "alpha2_bar_numeric",
               "s_star1", "s_star2", "coincide_closed", "coincide_numeric",
               "symmetric_at_half"]
    rows = [[fam.kind, info.regime, info.kappa, info.A1, info.A2,
             cf.alpha1_bar, num.alpha1_bar, cf.alpha2_bar, num.alpha2_bar,
             num.s_star1, num.s_star2, cf.coincide, num.coincide,
             num.symmetric_at_half]]
    _write_table(columns, rows, out, fmt)
    return 0


def cmd_renyi_curve(cfg, out=None, fmt="csv"):
    """Per-s divergences along the shift ladder plus extrapolated limits and
    their error: the larger move when the first or the last rung is dropped."""
    fam = _build_family(cfg)
    info = classify_regime(fam)
    g_tag = _g_tag(cfg, info)
    prof = _profile(cfg, fam, g_tag, min_points=1)
    columns = ["s"]
    for eps in prof.eps_ladder:
        columns += [f"renyi_eps_{eps:g}", f"scaled_eps_{eps:g}"]
    columns += ["isg_extrapolated", "isg_uncertainty", "isg_closed_form"]
    rows = []
    for j, s in enumerate(prof.s_grid):
        row = [float(s)]
        for eps, renyi in zip(prof.eps_ladder, prof.rung_renyi[:, j]):
            row += [float(renyi), float(renyi / g_value(g_tag, eps))]
        closed = closed_form_isg(info.regime, info.A1, info.A2, info.kappa,
                                 float(s), fisher=info.fisher)
        row += [float(prof.isg[j]), float(prof.isg_unc[j]), float(closed)]
        rows.append(row)
    _write_table(columns, rows, out, fmt)
    return 0


def _analytic_sides(fam, spec, eps):
    """The analytic (plus, minus) rates of an estimator at eps; nan for lr,
    which has none, and where the rate functions reject the family or eps."""
    try:
        if spec.kind == "mle":
            return (mle_chernoff_rate(fam, eps, "plus"),
                    mle_chernoff_rate(fam, eps, "minus"))
        if spec.kind == "convex_combo":
            r = order_stat_rates(fam, eps, lam=spec.lam)
            return r.combo_plus, r.combo_minus
        if spec.kind in ORDER_STAT_KINDS:
            # min(x) - a - eps exceeds theta + eps only when the sample sits
            # beyond a + 2 eps; it can never land below theta - eps
            r = order_stat_rates(fam, 2.0 * eps if spec.kind == "shifted_min" else eps)
            return {"min_shift": (r.min_shift_plus, r.min_shift_minus),
                    "max_shift": (r.max_shift_plus, r.max_shift_minus),
                    "shifted_min": (r.min_shift_plus, math.inf)}[spec.kind]
    except ValueError:
        pass
    return float("nan"), float("nan")


def cmd_rates(cfg, out=None, fmt="csv"):
    """Empirical vs analytic rates per estimator, against the bounds.  Where
    the Monte Carlo sees no tail event, its columns are nan (and so is
    bound_respected when alpha2_estimate is): a result, not an error."""
    fam = _build_family(cfg)
    ladder = cfg.get("eps_ladder")
    if ladder is not None:
        with _field("eps_ladder"):
            ladder = _check_rungs(fam, ladder)
    eps0 = 0.1 if ladder is None else ladder[0]
    specs = _build_estimators(cfg, eps0, fam)
    info = classify_regime(fam)
    g_tag = _g_tag(cfg, info)
    cf = closed_form_bounds(info.regime, info.A1, info.A2, info.kappa,
                            fisher=info.fisher)
    seed = int(cfg["seed"])
    with _field("trials"):
        trials = _check_trials(cfg.get("trials", 100_000))
    n_grid = cfg.get("n_grid")
    if n_grid is not None:
        with _field("n_grid"):
            n_grid = _check_n_grid(n_grid)
    columns = ["estimator", "eps_param", "lambda", "tail_eps",
               "beta_plus_mc", "beta_minus_mc", "beta_mc", "slope_stderr",
               "beta_plus_analytic", "beta_minus_analytic",
               "alpha2_estimate", "alpha1_bar", "alpha2_bar",
               "bound_respected"]
    rows = []
    nan = float("nan")
    for k, spec in enumerate(specs):
        # alpha2 first: it checks g at every rung before any draw (each stream has its seed)
        try:
            with _field("g_tag"):  # the ladder, trials and n grid are checked above
                a2 = alpha2_estimate(fam, spec, g_tag, eps_ladder=ladder,
                                     n_grid=n_grid, trials=trials, seed=seed + 1000 + k)
            # a single fit point has no stderr and gives no slack
            slack = 3.0 * a2.stderr if math.isfinite(a2.stderr) else 0.0
            a2_value, respected = a2.value, bool(a2.value <= cf.alpha2_bar * 1.10 + slack)
        except InsufficientEventsError:
            a2_value, respected = nan, nan
        try:
            est = mc_tail_rate(fam, spec, 0.0, eps0, n_grid=n_grid,
                               trials=trials, seed=seed + k)
            mc = [est.beta_plus, est.beta_minus, est.beta, est.slope_stderr]
        except InsufficientEventsError:
            mc = [nan] * 4
        ana_p, ana_m = _analytic_sides(fam, spec, eps0)
        rows.append([spec.kind,
                     spec.eps if spec.eps is not None else nan,
                     spec.lam if spec.lam is not None else nan,
                     eps0, *mc, ana_p, ana_m, a2_value,
                     cf.alpha1_bar, cf.alpha2_bar, respected])
    _write_table(columns, rows, out, fmt)
    return 0


def cmd_verify(level, out=None):
    """Run the lemma suite; nonzero exit on any failure."""
    checks = run_checks(level)
    lines = []
    failed = False
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        failed |= not c.passed
        lines.append(f"{status} {c.name} slack={c.slack:.3e} ({c.detail})")
    _emit("\n".join(lines) + "\n", out)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ldshift",
        description="Non-regular large-deviation bounds for location-shift "
                    "families: bounds, divergence curves, estimator rates, "
                    "and the lemma verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bounds", "renyi-curve", "rates"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the config format (default csv)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    pv = sub.add_parser("verify")
    pv.add_argument("--level", choices=("quick", "full"), default="quick")
    pv.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if args.command == "verify":
        return cmd_verify(args.level, out=args.out)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = args.out if args.out is not None else cfg.get("out")
        fmt = args.format if args.format is not None else cfg.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"field 'format': expected csv or json, got {fmt!r}")
        fn = {"bounds": cmd_bounds, "renyi-curve": cmd_renyi_curve,
              "rates": cmd_rates}[args.command]
        return fn(cfg, out=out, fmt=fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
