"""The command-line front end: golden `bounds` tables, byte-identical reruns,
config errors and the lemma suite behind `verify`."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from ldshift import cli, renyi
from ldshift.cli import main
from ldshift.estimators import EstimatorSpec
from ldshift.families import _mass_within, make_family
from ldshift.rates import mle_chernoff_rate, order_stat_rates
from ldshift.renyi import classify_regime, default_ladder, g_value, renyi_curve
from ldshift.verify import LemmaCheck

import record_goldens

# config name -> (family kind, params)
FAMILIES = {"uniform": ("uniform", []), "beta": ("beta", [1.5, 1.5]), "gamma": ("gamma", [2]),
            "beta-0.3-0.3": ("beta", [0.3, 0.3]), "gamma-3": ("gamma", [3]),
            "gaussian": ("gaussian", [])}


def _config(tmp_path, name, **fields):
    kind, params = FAMILIES[name]
    cfg = {"version": 1, "seed": 0, "family": {"kind": kind, "params": params}}
    cfg.update(fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_bounds_golden(name, tmp_path, capsys):
    # one row per regime; each default config is one of the benchmark's, so
    # its golden is that table in tests/data/bench_tables.json
    argv = ["bounds", "--config", _config(tmp_path, name)]
    code, text = _run(argv, capsys)
    assert code == 0
    kind, params = FAMILIES[name]
    slug = "-".join([kind] + [f"{p:g}" for p in params])
    tables = json.loads((record_goldens.DATA / "bench_tables.json").read_text())
    assert text == tables[f"bounds-{slug}.json"]
    assert _run(argv, capsys) == (0, text)   # byte-identical rerun


@pytest.mark.parametrize("name", ["gaussian", "gamma-3"])
@pytest.mark.parametrize("command", ["bounds", "renyi-curve", "rates"])
def test_a_command_integrates_the_fisher_information_once(command, name, tmp_path, capsys,
                                                          monkeypatch):
    # the command classifies the family once; the profile takes its g tag
    calls = []
    real = renyi.fisher_information
    monkeypatch.setattr(renyi, "fisher_information", lambda fam: calls.append(fam) or real(fam))
    fields = {"estimators": [{"kind": "mle"}], "trials": 200, "n_grid": [2, 4, 8]}
    config = _config(tmp_path, name, **(fields if command == "rates" else {}))
    assert _run([command, "--config", config], capsys)[0] == 0
    assert len(calls) == 1


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_BOUNDS = sorted(PERFBENCH.glob("configs/cli/bounds-*.json"))


@pytest.mark.parametrize("path", BENCH_BOUNDS, ids=lambda p: p.stem)
def test_ladder_bounds_match_benchmark_refs(path, capsys):
    # the benchmark's ladder-bounds configs, the deep 1e-4 .. 1e-12 beta(2, 3)
    # ladder among them, against its mpmath references at its tolerance
    # (perfbench BOUND_TOL); files are only read
    refs = json.loads((PERFBENCH / "data" / "refs.json").read_text())
    ref = refs[f"bounds/{path.stem[len('bounds-'):]}"]
    code, text = _run(["bounds", "--config", str(path)], capsys)
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(text)))
    for col, want in (("alpha1_bar_numeric", ref["alpha1"]), ("alpha2_bar_numeric", ref["alpha2"])):
        assert abs(float(row[col]) - want) <= 5e-3 * abs(want) + 1e-12, (col, row[col], want)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_bounds_csv_and_json_agree(name, tmp_path, capsys):
    # one table, two renderings: every JSON value is the CSV cell it reads
    path = _config(tmp_path, name)
    code, text = _run(["bounds", "--config", path], capsys)
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(text)))
    code, text = _run(["bounds", "--config", path, "--format", "json"], capsys)
    assert code == 0
    (obj,) = _strict_json(text)
    assert sorted(obj) == sorted(row)
    for col, cell in row.items():
        want = obj[col]
        if isinstance(want, bool):
            assert cell == str(want).lower(), col
        elif isinstance(want, float):
            assert float(cell) == want, col
        else:
            assert cell == str(want), col


@pytest.mark.parametrize("config_format, flag, want", [
    ("json", None, "json"), ("json", "csv", "csv"), ("csv", "json", "json"),
    (None, "json", "json"), (None, None, "csv")])
def test_format_flag_overrides_config(config_format, flag, want, tmp_path, capsys):
    fields = {} if config_format is None else {"format": config_format}
    argv = ["bounds", "--config", _config(tmp_path, "uniform", **fields)]
    if flag is not None:
        argv += ["--format", flag]
    code, text = _run(argv, capsys)
    assert code == 0
    if want == "json":
        (obj,) = _strict_json(text)
        assert obj["family"] == "uniform"
    else:
        assert text.startswith("family,regime,kappa,")


def test_renyi_curve_gamma2_matches_closed_form(tmp_path, capsys):
    # the log basis fit (tag 2) holds to 5e-3 out to s = 0.999
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
    fam = make_family(*FAMILIES[kind])
    g_tag = classify_regime(fam).g_tag
    for eps in default_ladder(g_tag, fam):
        values = renyi_curve(fam, eps, s_grid).values
        assert [float(r[f"renyi_eps_{eps:g}"]) for r in rows] == values.tolist()
        assert [float(r[f"scaled_eps_{eps:g}"]) for r in rows] == \
            [float(v / g_value(g_tag, eps)) for v in values]


@pytest.mark.parametrize("config", sorted(
    p.name for p in record_goldens.BENCH_CLI.glob("*.json") if not p.name.startswith("rates-")))
def test_numeric_g_tag_matches_auto(config, tmp_path, capsys):
    # the family's own tag written as a JSON number (Infinity for the
    # gaussian) gives the table of "auto", byte for byte
    cfg = json.loads((record_goldens.BENCH_CLI / config).read_text())
    command = "bounds" if config.startswith("bounds-") else "renyi-curve"
    fam = make_family(cfg["family"]["kind"], tuple(cfg["family"]["params"]))
    tag = classify_regime(fam).g_tag
    outputs = []
    for g_tag in ("auto", tag):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "g_tag": g_tag}))
        outputs.append(_run([command, "--config", str(path)], capsys))
    assert outputs[0][0] == 0 and outputs[1] == outputs[0]


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
    ("bounds", {"version": 1, "seed": 0, "family": {"kind": "uniform", "theta": 0}},
     "family.theta"),
    ("rates", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [2, 3], "theta": 0.5},
               "estimators": [{"kind": "min_shift"}], "trials": 100}, "family.theta"),
    ("bounds", {**UNIFORM_CFG, "eps_ladder": [0.1, 0.2]}, "eps_ladder"),
    ("bounds", {"version": 1, "seed": 0, "family": {"kind": "beta", "params": [2, 3]},
                "eps_ladder": [0.01, 0.02]}, "eps_ladder"),
    ("bounds", {**UNIFORM_CFG, "eps_ladder": [0.2, "x", 0.05, 0.01]}, "eps_ladder"),
    ("bounds", {**UNIFORM_CFG, "g_tag": -1}, "g_tag"),
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
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 100,
               "eps_ladder": []}, "eps_ladder"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 100,
               "n_grid": [8, 4, 16]}, "n_grid"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 0}, "trials"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 100,
               "eps_ladder": [0.1, -0.05]}, "eps_ladder"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 100,
               "eps_ladder": [1.5]}, "eps_ladder"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "gaussian", "params": [1, 5]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "triangular", "params": [0.3, 9]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "gamma", "params": [math.inf]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "gaussian", "params": [math.nan]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "beta", "params": 2}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [[2], 3]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "gamma", "params": [180]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [600, 600]}}, "family"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [1.5, 1.5]},
                "g_tag": 3}, "g_tag"),
    ("renyi-curve", {**UNIFORM_CFG, "family": {"kind": "beta", "params": [1.5, 1.5]},
                     "g_tag": 3}, "g_tag"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "gamma", "params": [2]}, "g_tag": 2,
                "eps_ladder": [1, 0.5, 0.25, 0.125]}, "g_tag"),
    ("bounds", {**UNIFORM_CFG, "g_tag": math.nan}, "g_tag"),
    ("bounds", {**UNIFORM_CFG, "g_tag": ["power", 1.5]}, "g_tag"),
    ("rates", {**UNIFORM_CFG, "estimators": [{"kind": "min_shift"}], "trials": 100,
               "g_tag": "abs"}, "g_tag"),
    ("bounds", {**UNIFORM_CFG, "g_tag": True}, "g_tag"),
    ("bounds", {**UNIFORM_CFG, "family": {"kind": "gaussian"}, "eps_ladder": [40, 10, 5, 2]},
     "eps_ladder"),
], ids=["not-an-object", "theta-not-a-number", "theta-zero", "rates-theta-half",
        "short-rising-ladder", "beta-rising-ladder",
        "ladder-not-numbers", "power-not-positive", "s-grid-not-numbers",
        "trials-not-a-number", "rung-as-wide-as-support", "rates-ladder-not-numbers",
        "s-grid-falling", "s-grid-above-one", "s-grid-at-zero", "s-grid-repeated",
        "bounds-s-grid-16-points", "bounds-s-grid-above-one", "bounds-s-grid-negative",
        "lr-not-log-concave", "mle-not-log-concave", "max-shift-open-edge",
        "combo-open-edges", "rates-empty-ladder", "n-grid-falling", "no-trials",
        "rates-rung-negative", "rates-rung-wider-than-support", "gaussian-two-params",
        "triangular-two-params", "gamma-infinite-shape", "gaussian-nan-sigma",
        "params-not-a-list", "param-not-a-number", "gamma-amplitude-underflows",
        "beta-amplitude-overflows", "power-3-ratios-grow", "curve-power-3-ratios-grow",
        "log-g-zero-at-rung-1", "tag-nan", "legacy-power-list", "rates-legacy-abs-tag",
        "power-bool", "gaussian-rung-wider-than-window"])
def test_config_errors_exit_2(command, cfg, field, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


@pytest.mark.parametrize("family, spec", [
    (("gamma", (3,)), EstimatorSpec("min_shift")),
    (("gamma", (3,)), EstimatorSpec("shifted_min", eps=0.1)),
    (("beta", (2, 3)), EstimatorSpec("lr", eps=0.1)),
], ids=["min-shift-open-edge", "shifted-min-open-edge", "lr"])
def test_analytic_sides_nan_without_a_rate(family, spec):
    # an open edge has no order-statistic rate, and lr has no analytic one
    sides = cli._analytic_sides(make_family(*family), spec, 0.1)
    assert len(sides) == 2 and all(math.isnan(v) for v in sides)


def test_analytic_sides_read_the_rate_functions():
    beta = make_family("beta", (2, 3))
    r = order_stat_rates(beta, 0.1, lam=0.5)
    cells = {
        EstimatorSpec("min_shift"): (r.min_shift_plus, math.inf),
        EstimatorSpec("max_shift"): (math.inf, r.max_shift_minus),
        EstimatorSpec("shifted_min", eps=0.1): (order_stat_rates(beta, 0.2).min_shift_plus,
                                                math.inf),
        EstimatorSpec("convex_combo", lam=0.5): (r.combo_plus, r.combo_minus),
        EstimatorSpec("mle"): (mle_chernoff_rate(beta, 0.1, "plus"),
                               mle_chernoff_rate(beta, 0.1, "minus")),
    }
    for spec, want in cells.items():
        assert cli._analytic_sides(beta, spec, 0.1) == want, spec


def test_quick_lemma_suite_passes():
    code, text = record_goldens.verify_quick()
    assert code == 0, text
    assert record_goldens.verify_quick() == (0, text)  # byte-identical
    # and identical to a recorded run, so a moved slack shows
    assert text == (record_goldens.DATA / "verify_quick.txt").read_text()


def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    checks = [LemmaCheck("ok", True, 0.0, "fine"), LemmaCheck("broken", False, 1.0, "off")]
    monkeypatch.setattr(cli, "run_checks", lambda level: checks)
    assert main(["verify"]) == 1
    assert "FAIL broken" in capsys.readouterr().out


def test_rates_golden():
    code, text = record_goldens.rates_table()
    assert code == 0
    assert record_goldens.rates_table() == (0, text)  # byte-identical
    # and identical to a recorded run, so a moved Monte Carlo stream shows
    assert text == (record_goldens.DATA / "rates_beta_1.5_1.5.csv").read_text()


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


def test_bench_tables_golden():
    # the ladder-bounds tables of the benchmark, byte for byte as recorded
    want = json.loads((record_goldens.DATA / "bench_tables.json").read_text())
    assert record_goldens.bench_tables() == want
