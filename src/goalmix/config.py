"""Training configuration: defaults, file parsing, validation.

Defaults follow the reference hyperparameters: alpha 0.5, lambda 0.03,
the three loss weights 0.001, gamma 0.99, RMSProp lr 5e-4, buffer 5000,
batch 32, target sync every 200 episodes, epsilon 1.0 -> 0.05 over
50000 steps. Precedence: defaults < config file (JSON) < flag overrides.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields, asdict


class ConfigError(ValueError):
    pass


SUBGOAL_MODES = ("value", "random", "local_only", "total_only")
CORRECTION_MODES = ("normal", "none", "over")
REWARD_MODES = ("sparse", "dense")

# config-file spellings that differ from the field names
KEY_ALIASES = {"lambda": "lam"}
FILE_KEYS = {field_name: key for key, field_name in KEY_ALIASES.items()}

# the values each annotated field type accepts (bool is excluded from the numbers)
FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}
# bounds of the numeric fields not checked one by one in TrainConfig.validate
AT_LEAST_ONE = ("buffer_capacity", "batch_size", "target_interval", "eps_anneal_steps",
                "hidden_dim", "mixer_embed_dim", "repr_hidden_dim", "eval_interval",
                "eval_episodes")
NON_NEGATIVE = ("lam", "lam_i", "lam_e", "lam_d", "max_env_steps", "seed")
UNIT_INTERVAL = ("alpha", "eps_start", "eps_end")


@dataclass
class TrainConfig:
    # subgoal and reward shaping
    alpha: float = 0.5
    lam: float = 0.03          # "lambda" in config files
    lam_i: float = 0.001
    lam_e: float = 0.001
    lam_d: float = 0.001
    subgoal_mode: str = "value"
    correction: str = "normal"
    disable_li: bool = False
    disable_repr: bool = False
    # TD learning
    gamma: float = 0.99
    lr: float = 0.0005
    rms_decay: float = 0.99
    rms_eps: float = 1e-5
    grad_clip_norm: float = 10.0
    buffer_capacity: int = 5000
    batch_size: int = 32
    target_interval: int = 200
    # exploration
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_anneal_steps: int = 50000
    # networks
    hidden_dim: int = 64
    mixer_embed_dim: int = 32
    repr_hidden_dim: int = 128
    share_params: bool = False
    # run control
    env: str = "skirmish-2v2"
    reward_mode: str = "sparse"
    max_env_steps: int = 50000
    seed: int = 0
    eval_interval: int = 100
    eval_episodes: int = 32
    subgoal_log: bool = False
    episode_log: bool = False

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, FIELD_KINDS[f.type]) or (
                    isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        checks = [(getattr(self, k) >= 1, k, ">= 1") for k in AT_LEAST_ONE]
        checks += [(getattr(self, k) >= 0, k, ">= 0") for k in NON_NEGATIVE]
        checks += [(0.0 <= getattr(self, k) <= 1.0, k, "in [0, 1]") for k in UNIT_INTERVAL]
        checks += [
            (0.0 < self.gamma < 1.0, "gamma", "in (0, 1)"),
            (self.lr > 0, "lr", "> 0"),
            (0.0 <= self.rms_decay < 1.0, "rms_decay", "in [0, 1)"),
            (self.rms_eps > 0, "rms_eps", "> 0"),
            (self.subgoal_mode in SUBGOAL_MODES, "subgoal_mode", f"one of {SUBGOAL_MODES}"),
            (self.correction in CORRECTION_MODES, "correction", f"one of {CORRECTION_MODES}"),
            (self.reward_mode in REWARD_MODES, "reward_mode", f"one of {REWARD_MODES}"),
        ]
        for ok, key, bound in checks:
            if not ok:
                name = FILE_KEYS.get(key, key)
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, key)!r}")
        return self

    def to_dict(self):
        return asdict(self)

    def replace(self, **kwargs):
        d = self.to_dict()
        d.update(kwargs)
        return TrainConfig(**d).validate()


def valid_keys():
    return sorted([f.name for f in fields(TrainConfig)] + list(KEY_ALIASES))


def _canon(key):
    return KEY_ALIASES.get(key, key)


def parse_config(path=None, overrides=None) -> TrainConfig:
    """Defaults, overridden by a JSON config file, overridden by flags."""
    data = {}
    if path is not None:
        with open(path) as fh:
            text = fh.read().strip()
        loaded = json.loads(text) if text else {}
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        data.update({_canon(k): v for k, v in loaded.items()})
    if overrides:
        data.update({_canon(k): v for k, v in overrides.items() if v is not None})
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(
            f"unknown config keys {unknown}; valid keys: {valid_keys()}"
        )
    return TrainConfig(**data).validate()
