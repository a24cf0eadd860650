"""Cooperative multi-agent Q-learning with subgoals mined from replay.

Local recurrent utility networks are combined by a monotonic mixing
network (centralised training, decentralised execution). Each training
block selects per-agent subgoal observations from replayed episodes by
scoring timesteps with the frozen local and total Q estimates, shapes
intrinsic/proxy/individual rewards around them via a Q-based actionable
representation, and adds an entropy correction on the episode tail
after each subgoal. Ships with desk-scale skirmish gridworld
environments, verification oracles and a train/eval/ablate CLI.
"""

__version__ = "0.1.0"

from .agents import EpsilonSchedule, RecurrentQNet, act_epsilon_greedy, local_q
from .autodiff import Tensor
from .config import ConfigError, TrainConfig, parse_config
from .env import EnvConfig, SkirmishEnv, StepResult, preset
from .mixer import MonotonicMixer
from .nn import (
    ParamSet,
    RMSProp,
    load_checkpoint,
    save_checkpoint,
    sync_targets,
)
from .replay import Episode, ReplayBuffer
from .rewards import (
    ReprNet,
    actionable_distance,
    individual_rewards,
    intrinsic_rewards,
    proxy_reward,
    repr_loss,
    subgoal_distance,
)
from .subgoals import random_subgoals, select_subgoals, subgoal_scores
from .training import BlockReport, Trainer, TrainingDiverged, stack_episodes

__all__ = [
    "__version__",
    "Tensor",
    "EpsilonSchedule", "RecurrentQNet", "act_epsilon_greedy", "local_q",
    "ConfigError", "TrainConfig", "parse_config",
    "EnvConfig", "SkirmishEnv", "StepResult", "preset",
    "MonotonicMixer",
    "ParamSet", "RMSProp", "load_checkpoint", "save_checkpoint", "sync_targets",
    "Episode", "ReplayBuffer",
    "ReprNet", "actionable_distance", "individual_rewards",
    "intrinsic_rewards", "proxy_reward", "repr_loss", "subgoal_distance",
    "random_subgoals", "select_subgoals", "subgoal_scores",
    "BlockReport", "Trainer", "TrainingDiverged", "stack_episodes",
]
