"""Config file loading, env-var lookup, overrides."""

import json
from fractions import Fraction

import pytest

from normlogic.config import Config, load_config


def test_defaults():
    cfg = Config()
    assert cfg.m is None
    assert cfg.q_candidates[0] == Fraction(1, 8)
    assert cfg.r_grid_step == Fraction(1, 64)
    assert cfg.sample_budget == 100_000


def test_load_documented_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "M": 2, "qCandidates": ["1/10", "1/16"], "rGridStep": "1/128",
        "sampleBudget": 500, "seed": 9,
    }))
    cfg = load_config(str(path))
    assert cfg.m == 2
    assert cfg.q_candidates == (Fraction(1, 10), Fraction(1, 16))
    assert cfg.r_grid_step == Fraction(1, 128)
    assert cfg.sample_budget == 500
    assert cfg.seed == 9


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        load_config(str(path))
    # the tolerances are fixed, so they have no config keys
    for key in ("tolGeom", "tolLogic"):
        path.write_text(json.dumps({key: 1e-3}))
        with pytest.raises(ValueError, match=key):
            load_config(str(path))


def test_env_var_lookup(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 123}))
    monkeypatch.setenv("NORMLOGIC_CONFIG", str(path))
    assert load_config().seed == 123
    monkeypatch.delenv("NORMLOGIC_CONFIG")
    assert load_config().seed == 0


def test_override():
    cfg = Config().override(seed=5, m=None)
    assert cfg.seed == 5
    assert cfg.m is None  # None means "keep", and default was None anyway


@pytest.mark.parametrize("budget", [0, -5])
def test_sample_budget_below_one_rejected(tmp_path, budget):
    # a search of no samples would pass every unsat case of criterion 10
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sampleBudget": budget}))
    with pytest.raises(ValueError, match="sampleBudget"):
        load_config(str(path))
    path.write_text(json.dumps({"sampleBudget": 1}))
    assert load_config(str(path)).sample_budget == 1
