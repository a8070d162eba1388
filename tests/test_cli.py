"""The command-line front end: golden `bounds` tables, byte-identical reruns,
config errors and the lemma suite behind `verify`."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from ldshift import cli
from ldshift.cli import main
from ldshift.families import _mass_within, make_family
from ldshift.renyi import classify_regime, default_ladder, g_value, renyi_curve
from ldshift.verify import LemmaCheck

# recorded with the per-end edge depths of the quadrature; gamma(2) with the
# sq_log ladder's basis fit; beta with log B(p, q) from ldshift.special (the
# ladder alphas move by about 2e-11 relative per ulp of the log-normaliser)
GOLDEN = {
    "uniform": {
        "family": "uniform", "regime": "kappa_one", "kappa": 1.0, "A1": 1.0, "A2": 1.0,
        "alpha1_bar_closed": 2.0, "alpha1_bar_numeric": 2.0000000092118384,
        "alpha2_bar_closed": 2.0, "alpha2_bar_numeric": 2.0000000092118384,
        "s_star1": 0.5, "s_star2": 0.5, "coincide_closed": "true",
        "coincide_numeric": "true", "symmetric_at_half": "true",
    },
    "beta": {
        "family": "beta", "regime": "power_mid", "kappa": 1.5,
        "A1": 2.546479089470325, "A2": 2.546479089470325,
        "alpha1_bar_closed": 6.29514986141918, "alpha1_bar_numeric": 6.292306516396741,
        "alpha2_bar_closed": 6.29514986141918, "alpha2_bar_numeric": 6.292306516396741,
        "s_star1": 0.5, "s_star2": 0.5, "coincide_closed": "true",
        "coincide_numeric": "true", "symmetric_at_half": "true",
    },
    "gamma": {
        "family": "gamma", "regime": "kappa_two", "kappa": 2.0, "A1": 1.0, "A2": 0.0,
        "alpha1_bar_closed": 0.5, "alpha1_bar_numeric": 0.499994261523296,
        "alpha2_bar_closed": 0.5, "alpha2_bar_numeric": 0.49995286317039794,
        "s_star1": 0.5, "s_star2": 0.95, "coincide_closed": "true",
        "coincide_numeric": "true", "symmetric_at_half": "true",
    },
}
PARAMS = {"uniform": [], "beta": [1.5, 1.5], "gamma": [2]}


def _config(tmp_path, kind, **fields):
    cfg = {"version": 1, "seed": 0, "family": {"kind": kind, "params": PARAMS[kind]}}
    cfg.update(fields)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_bounds_golden(kind, tmp_path, capsys):
    argv = ["bounds", "--config", _config(tmp_path, kind)]
    code, text = _run(argv, capsys)
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(text)))
    assert list(row) == list(GOLDEN[kind])
    for col, want in GOLDEN[kind].items():
        if isinstance(want, float):
            assert float(row[col]) == pytest.approx(want, rel=1e-12, abs=0.0), col
        else:
            assert row[col] == want, col
    assert _run(argv, capsys) == (0, text)


def test_renyi_curve_gamma2_matches_closed_form(tmp_path, capsys):
    # the sq_log basis fit holds to 5e-3 out to s = 0.999
    s_grid = [0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
              0.99, 0.999]
    code, text = _run(["renyi-curve", "--config", _config(tmp_path, "gamma", s_grid=s_grid)],
                      capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [float(r["s"]) for r in rows] == s_grid
    for r in rows:
        assert float(r["isg_extrapolated"]) == pytest.approx(float(r["isg_closed_form"]),
                                                             rel=5e-3), r["s"]


@pytest.mark.parametrize("kind", ["gamma", "beta"])
def test_renyi_curve_columns_are_the_rung_curves(kind, tmp_path, capsys):
    # the profile's own rung sweeps, bit for bit those of renyi_curve
    s_grid = [0.01, 0.3, 0.5, 0.9, 0.999]
    code, text = _run(["renyi-curve", "--config", _config(tmp_path, kind, s_grid=s_grid)],
                      capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    fam = make_family(kind, PARAMS[kind])
    g_tag = classify_regime(fam).g_tag
    for eps in default_ladder(g_tag, fam):
        values = renyi_curve(fam, 0.0, eps, s_grid).values
        assert [float(r[f"renyi_eps_{eps:g}"]) for r in rows] == values.tolist()
        assert [float(r[f"scaled_eps_{eps:g}"]) for r in rows] == \
            [float(v / g_value(g_tag, eps)) for v in values]


def test_bounds_config_without_seed(tmp_path, capsys):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"version": 1, "family": {"kind": "uniform"}}))
    code = main(["bounds", "--config", str(path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err


UNIFORM_CFG = {"version": 1, "seed": 0, "family": {"kind": "uniform"}}
GRID_17 = [0.05 * i for i in range(1, 18)]


@pytest.mark.parametrize("command, cfg, field", [
    ("bounds", [1, 2], "JSON object"),
    ("bounds", {"version": 1, "seed": 0, "family": {"kind": "uniform", "theta": "abc"}},
     "family.theta"),
    ("bounds", {**UNIFORM_CFG, "eps_ladder": [0.1, 0.2]}, "eps_ladder"),
    ("bounds", {"version": 1, "seed": 0, "family": {"kind": "beta", "params": [2, 3]},
                "eps_ladder": [0.01, 0.02]}, "eps_ladder"),
    ("bounds", {**UNIFORM_CFG, "eps_ladder": [0.2, "x", 0.05, 0.01]}, "eps_ladder"),
    ("bounds", {**UNIFORM_CFG, "g_tag": ["power", -1]}, "g_tag"),
    ("bounds", {**UNIFORM_CFG, "s_grid": ["a"]}, "s_grid"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": "x"}, "trials"),
    ("bounds", {**UNIFORM_CFG, "eps_ladder": [5, 4, 3, 2]}, "eps_ladder"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 100,
               "eps_ladder": [0.2, "x", 0.05, 0.025]}, "eps_ladder"),
    ("renyi-curve", {**UNIFORM_CFG, "s_grid": [0.5, 0.2]}, "s_grid"),
    ("renyi-curve", {**UNIFORM_CFG, "s_grid": [0.2, 0.5, 1.5]}, "s_grid"),
    ("renyi-curve", {**UNIFORM_CFG, "s_grid": [0.0, 0.5]}, "s_grid"),
    ("renyi-curve", {**UNIFORM_CFG, "s_grid": [0.2, 0.5, 0.5, 0.7]}, "s_grid"),
    ("bounds", {**UNIFORM_CFG, "s_grid": GRID_17[:16]}, "s_grid"),
    ("bounds", {**UNIFORM_CFG, "s_grid": GRID_17[1:] + [1.5]}, "s_grid"),
    ("bounds", {**UNIFORM_CFG, "s_grid": [-0.1] + GRID_17[1:]}, "s_grid"),
    ("rates", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [0.5, 3]},
               "estimators": [{"kind": "lr"}], "trials": 100}, "estimators"),
    ("rates", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [0.5, 3]},
               "estimators": [{"kind": "mle"}], "trials": 100}, "estimators"),
    ("rates", {**UNIFORM_CFG, "family": {"kind": "gamma", "params": [2]},
               "estimators": [{"kind": "max_shift"}], "trials": 100}, "estimators"),
    ("rates", {**UNIFORM_CFG, "family": {"kind": "gaussian"},
               "estimators": [{"kind": "convex_combo", "lambda": 0.5}], "trials": 100},
     "estimators"),
], ids=["not-an-object", "theta-not-a-number", "short-rising-ladder", "beta-rising-ladder",
        "ladder-not-numbers", "power-not-positive", "s-grid-not-numbers",
        "trials-not-a-number", "rung-as-wide-as-support", "rates-ladder-not-numbers",
        "s-grid-falling", "s-grid-above-one", "s-grid-at-zero", "s-grid-repeated",
        "bounds-s-grid-16-points", "bounds-s-grid-above-one", "bounds-s-grid-negative",
        "lr-not-log-concave", "mle-not-log-concave", "max-shift-open-edge",
        "combo-open-edges"])
def test_config_errors_exit_2(command, cfg, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_quick_lemma_suite_passes(capsys):
    code, text = _run(["verify", "--level", "quick"], capsys)
    assert code == 0, text
    assert _run(["verify", "--level", "quick"], capsys) == (0, text)  # byte-identical
    # and identical to a recorded run, so a moved slack shows
    assert text == (Path(__file__).parent / "data" / "verify_quick.txt").read_text()


def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    checks = [LemmaCheck("ok", True, 0.0, "fine"), LemmaCheck("broken", False, 1.0, "off")]
    monkeypatch.setattr(cli, "run_checks", lambda level: checks)
    assert main(["verify"]) == 1
    assert "FAIL broken" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["lr", "shifted_min"])
def test_rates_eps_defaults_to_first_rung(kind, tmp_path, capsys):
    cfg = {**UNIFORM_CFG, "estimators": [{"kind": kind}], "trials": 200,
           "n_grid": [2, 4, 8], "eps_ladder": [0.2, 0.1, 0.05, 0.025]}
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(cfg))
    code, text = _run(["rates", "--config", str(path)], capsys)
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(text)))
    assert row["estimator"] == kind
    assert float(row["eps_param"]) == 0.2


def test_rates_without_tail_events_is_a_nan_row(tmp_path, capsys):
    # shifted_min at eps 0.2 needs a sample above 0.4, which beta(0.5, 3)
    # puts out of reach of 2,000 trials at n >= 8: no event at any rung
    cfg = {"version": 1, "seed": 0, "family": {"kind": "beta", "params": [0.5, 3]},
           "estimators": [{"kind": "shifted_min"}], "trials": 2000,
           "n_grid": [8, 16, 32, 64, 128], "eps_ladder": [0.2, 0.1, 0.05, 0.025]}
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(cfg))
    code, text = _run(["rates", "--config", str(path), "--format", "json"], capsys)
    assert code == 0
    (row,) = _strict_json(text)
    for col in ("beta_plus_mc", "beta_minus_mc", "beta_mc", "slope_stderr",
                "alpha2_estimate", "bound_respected"):
        assert row[col] is None, col
    fam = make_family("beta", (0.5, 3))
    assert row["beta_plus_analytic"] == -math.log1p(-float(_mass_within(fam, 0.4)))
    assert row["beta_minus_analytic"] == "inf"
    assert row["alpha1_bar"] == pytest.approx(2.6516504294495533, rel=1e-12)
    assert row["alpha2_bar"] == pytest.approx(1.875, rel=1e-12)


def _strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_rates_json_is_strict(tmp_path, capsys):
    # min_shift's minus side has an infinite analytic rate on every row
    cfg = {"version": 1, "seed": 0, "family": {"kind": "beta", "params": [0.5, 3]},
           "estimators": [{"kind": "min_shift"}], "trials": 500,
           "n_grid": [2, 4, 8], "eps_ladder": [0.2, 0.1, 0.05, 0.025]}
    path = tmp_path / "rates.json"
    path.write_text(json.dumps(cfg))
    code, text = _run(["rates", "--config", str(path), "--format", "json"], capsys)
    assert code == 0
    (row,) = _strict_json(text)
    assert row["beta_minus_analytic"] == "inf"
    assert math.isfinite(row["beta_plus_analytic"])
