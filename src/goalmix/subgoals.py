"""Subgoal selection from replayed episodes.

For every sampled episode m and every agent i, each valid timestep t is
scored as

    alpha * max_u Q_i(o_t^i, u)  +  (1 - alpha) * Q_tot(o_t, u_t) / N

with all Q values taken under the parameters at block start (hidden
states recomputed by unrolling from t=0, since those parameters differ
from the ones that collected the episode). The subgoal observation for
agent i is the stored observation at the argmax timestep; ties break
toward the earliest timestep. At alpha=0 the score is agent-independent,
so all agents share one subgoal timestep; at alpha=1 each agent greedily
picks its own best local-Q observation.

Every kernel works on a whole batch: per-agent arrays are (N, M, T, ...)
and per-episode arrays (M, T, ...), as built by
:func:`goalmix.training.stack_episodes`.
"""

from __future__ import annotations

import numpy as np


def subgoal_scores(q_max, q_tot, valid, alpha):
    """Scores of every agent at every step: (N, M, T).

    ``q_max`` (N, M, T) are the masked max local Q values, ``q_tot``
    (M, T) the mixed Q of the taken actions. Padded steps score -inf, so
    they never win the argmax.
    """
    n = q_max.shape[0]
    scores = alpha * q_max + (1.0 - alpha) * q_tot[None] / n
    return np.where(valid[None].astype(bool), scores, -np.inf)


def select_subgoals(q_max, q_tot, valid, alpha):
    """Argmax of :func:`subgoal_scores` over time: t_star (N, M) int;
    ties go to the earliest timestep."""
    return np.argmax(subgoal_scores(q_max, q_tot, valid, alpha), axis=2).astype(np.int64)


def random_subgoals(valid, n_agents, rng):
    """Ablation baseline: a uniform valid timestep per agent and episode, (N, M)."""
    lengths = valid.sum(axis=1).astype(np.int64)
    return np.stack([rng.integers(lengths) for _ in range(n_agents)]).astype(np.int64)


def at_subgoal(x, t_star):
    """The entries of per-agent sequences x (N, M, T, ...) at t_star (N, M):
    (N, M, ...), exact copies of the stored values."""
    idx = t_star.reshape(t_star.shape + (1,) * (x.ndim - 2))
    return np.take_along_axis(x, idx, axis=2)[:, :, 0]
