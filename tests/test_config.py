"""Config defaults, file parsing, precedence and validation."""

import json

import numpy as np
import pytest

from goalmix.config import ConfigError, TrainConfig, parse_config


def test_empty_file_yields_reference_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = parse_config(path)
    assert cfg.alpha == 0.5
    assert cfg.lam == 0.03
    assert cfg.lam_i == 0.001 and cfg.lam_e == 0.001 and cfg.lam_d == 0.001
    assert cfg.gamma == 0.99
    assert cfg.lr == 0.0005
    assert cfg.buffer_capacity == 5000
    assert cfg.batch_size == 32
    assert cfg.target_interval == 200
    assert cfg.eps_start == 1.0 and cfg.eps_end == 0.05
    assert cfg.eps_anneal_steps == 50000


def test_no_file_same_defaults():
    assert parse_config(None) == TrainConfig()


def test_alpha_out_of_range_rejected():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(None, {"alpha": 1.5})


def test_negative_lambda_rejected():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config(None, {"lam": -0.1})


@pytest.mark.parametrize("episodes", [0, -3])
def test_nonpositive_eval_episodes_rejected(episodes):
    with pytest.raises(ConfigError, match="eval_episodes"):
        parse_config(None, {"eval_episodes": episodes})


@pytest.mark.parametrize("key, value", [
    ("hidden_dim", 0), ("mixer_embed_dim", 0), ("repr_hidden_dim", 0),
    ("seed", -1), ("batch_size", 2.5), ("batch_size", True), ("eval_episodes", 2.0),
    ("rms_eps", 0.0), ("rms_decay", 1.5), ("rms_decay", -0.1),
    ("eps_start", -1.0), ("eps_end", 1.5), ("eval_interval", 0), ("max_env_steps", -1),
    ("lr", "fast"), ("share_params", 1), ("env", 3),
])
def test_invalid_field_value_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(None, {key: value})


def test_integral_and_real_values_accepted():
    cfg = parse_config(None, {"gamma": 0.9, "lr": 1, "batch_size": np.int64(8), "seed": 0})
    assert cfg.lr == 1 and cfg.batch_size == 8


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 0.03}))
    cfg = parse_config(path, {"lam": 0.05})
    assert cfg.lam == 0.05


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.25, "batch_size": 8}))
    cfg = parse_config(path)
    assert cfg.alpha == 0.25 and cfg.batch_size == 8


def test_lambda_alias_in_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 0.07}))
    assert parse_config(path).lam == 0.07


def test_unknown_key_lists_valid_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alhpa": 0.5}))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "alhpa" in str(err.value)
    assert "alpha" in str(err.value)  # the valid-keys listing


def test_unknown_enum_value_rejected():
    with pytest.raises(ConfigError, match="subgoal_mode"):
        parse_config(None, {"subgoal_mode": "greedy"})
    with pytest.raises(ConfigError, match="correction"):
        parse_config(None, {"correction": "sometimes"})


def test_none_overrides_are_ignored():
    cfg = parse_config(None, {"alpha": None, "seed": 3})
    assert cfg.alpha == 0.5 and cfg.seed == 3


def test_replace_validates():
    cfg = TrainConfig()
    with pytest.raises(ConfigError):
        cfg.replace(gamma=1.5)
