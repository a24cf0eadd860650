"""Training configuration: defaults, file parsing, validation.

Defaults follow the reference hyperparameters: alpha 0.5, lambda 0.03,
the three loss weights 0.001, gamma 0.99, RMSProp lr 5e-4, buffer 5000,
batch 32, target sync every 200 episodes, epsilon 1.0 -> 0.05 over
50000 steps. Precedence: defaults < config file (JSON) < flag overrides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict


class ConfigError(ValueError):
    pass


SUBGOAL_MODES = ("value", "random", "local_only", "total_only")
CORRECTION_MODES = ("normal", "none", "over")
REWARD_MODES = ("sparse", "dense")

# config-file spellings that differ from the field names
KEY_ALIASES = {"lambda": "lam"}


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
        checks = [
            (0.0 <= self.alpha <= 1.0, f"alpha must be in [0, 1], got {self.alpha}"),
            (self.lam >= 0, f"lambda must be >= 0, got {self.lam}"),
            (self.lam_i >= 0, f"lam_i must be >= 0, got {self.lam_i}"),
            (self.lam_e >= 0, f"lam_e must be >= 0, got {self.lam_e}"),
            (self.lam_d >= 0, f"lam_d must be >= 0, got {self.lam_d}"),
            (0.0 < self.gamma < 1.0, f"gamma must be in (0, 1), got {self.gamma}"),
            (self.lr > 0, f"lr must be > 0, got {self.lr}"),
            (self.buffer_capacity >= 1, "buffer_capacity must be >= 1"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (self.target_interval >= 1, "target_interval must be >= 1"),
            (self.eps_anneal_steps >= 1, "eps_anneal_steps must be >= 1"),
            (self.eval_episodes >= 1, f"eval_episodes must be >= 1, got {self.eval_episodes}"),
            (self.subgoal_mode in SUBGOAL_MODES,
             f"subgoal_mode must be one of {SUBGOAL_MODES}, got {self.subgoal_mode!r}"),
            (self.correction in CORRECTION_MODES,
             f"correction must be one of {CORRECTION_MODES}, got {self.correction!r}"),
            (self.reward_mode in REWARD_MODES,
             f"reward_mode must be one of {REWARD_MODES}, got {self.reward_mode!r}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
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
