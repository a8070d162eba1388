"""The command-line front end: golden `bounds` tables, byte-identical reruns
and config errors."""

import csv
import io
import json

import pytest

from ldshift.cli import main

# recorded before the Renyi kernel and the s-optimizers were merged
GOLDEN = {
    "uniform": {
        "family": "uniform", "regime": "kappa_one", "kappa": 1.0, "A1": 1.0, "A2": 1.0,
        "alpha1_bar_closed": 2.0, "alpha1_bar_numeric": 2.0000000092146704,
        "alpha2_bar_closed": 2.0, "alpha2_bar_numeric": 2.0000000092146704,
        "s_star1": 0.5, "s_star2": 0.5, "coincide_closed": "true",
        "coincide_numeric": "true", "symmetric_at_half": "true",
    },
    "beta": {
        "family": "beta", "regime": "power_mid", "kappa": 1.5,
        "A1": 2.546479089470326, "A2": 2.546479089470326,
        "alpha1_bar_closed": 6.295149861419181, "alpha1_bar_numeric": 6.292306516499547,
        "alpha2_bar_closed": 6.295149861419181, "alpha2_bar_numeric": 6.2923065162850955,
        "s_star1": 0.4999956297593924, "s_star2": 0.5, "coincide_closed": "true",
        "coincide_numeric": "true", "symmetric_at_half": "true",
    },
}
PARAMS = {"uniform": [], "beta": [1.5, 1.5]}


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


def test_bounds_config_without_seed(tmp_path, capsys):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"version": 1, "family": {"kind": "uniform"}}))
    code = main(["bounds", "--config", str(path)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
