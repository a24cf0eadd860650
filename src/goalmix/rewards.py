"""Reward design: actionable distance, representation nets and shaped rewards.

The actionable distance between two observations is one minus the cosine
similarity of their Q-vectors under the block-start parameters. Each
agent's representation net phi is trained so the embedded distance to
its subgoal step, ||phi(o_t) - phi(o_g)|| (:func:`subgoal_distance`),
matches that actionable distance. The intrinsic reward is the negative
of the same distance; the proxy reward adds the averaged intrinsic
rewards to the extrinsic reward, and individual rewards split it by a
softmax over the agents' block-start max-Q values.

All distance targets, credit weights and reward scalars are computed
from the block-start parameters and enter the losses as constants.
Per-agent arrays carry the agents on their first axis, as in
:mod:`goalmix.subgoals`.
"""

from __future__ import annotations

import numpy as np

from .autodiff import moveaxis, sqrt, take_along_last
from .nn import affine, linear_params, weighted_sq_error


class ReprNet:
    """Observation -> action-dimensional embedding (one hidden layer).

    Slot-stacked params embed obs (N, rows, obs_dim) of every agent at once."""

    def __init__(self, obs_dim, n_actions, hidden_dim=128):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden_dim = hidden_dim

    def init_params(self, rng):
        p = linear_params(rng, self.obs_dim, self.hidden_dim, "h")
        p.update(linear_params(rng, self.hidden_dim, self.n_actions, "out"))
        return p

    def forward(self, params, obs):
        return affine(params, "out", affine(params, "h", obs, relu=True))


# ---------------------------------------------------------------------------
# actionable distance
# ---------------------------------------------------------------------------


def actionable_distance(q_seq, q_goal):
    """D_Q = 1 - cos(q_seq[..., t, :], q_goal[..., :]), in [0, 2].

    q_seq (..., T, U), q_goal (..., U) -> (..., T). A zero-norm vector is
    treated as orthogonal to everything (distance 1); this only occurs at
    degenerate initialisation.
    """
    dots = np.einsum("...tu,...u->...t", q_seq, q_goal)
    nt = np.linalg.norm(q_seq, axis=-1)
    ng = np.linalg.norm(q_goal, axis=-1)[..., None]
    denom = nt * ng
    cos = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return 1.0 - np.clip(cos, -1.0, 1.0)


# ---------------------------------------------------------------------------
# embedded subgoal distance, representation loss and rewards
# ---------------------------------------------------------------------------


def subgoal_distance(emb, t_star):
    """||phi_i(o_t) - phi_i(o_g)||_2 of every step to its agent's subgoal step.

    emb (N, M, T, E) are the embedded observations, t_star (N, M) -> (N, M, T).
    The goal embedding is gathered from ``emb``, so the distance at t_star is
    exactly 0. A graph node when ``emb`` is a Tensor; the zero-safe sqrt
    gives a zero gradient wherever the distance is 0.
    """
    n, m, t_len, e = emb.shape
    idx = np.broadcast_to(t_star[:, :, None], (n, m, e))
    emb_g = take_along_last(moveaxis(emb, 2, -1), idx)               # (N, M, E)
    diff = emb - emb_g.reshape(n, m, 1, e)
    return sqrt((diff * diff).sum(axis=-1))


def repr_loss(emb, t_star, dq_targets, weights):
    """Weighted sum over (i, m, t) of (||phi_i(o_t) - phi_i(o_g)||_2 - D_Q)^2.

    emb (N, M, T, E), t_star (N, M), dq_targets (N, M, T), weights (M, T).
    ``dq_targets`` are block-start constants; no gradient flows through
    them. Differentiable when ``emb`` is a Tensor.
    """
    return weighted_sq_error(subgoal_distance(emb, t_star), dq_targets, weights)


def intrinsic_rewards(emb, t_star):
    """Negative embedded distance to each agent's subgoal step (always <= 0),
    (N, M, T); exactly 0 at t_star."""
    return -subgoal_distance(emb, t_star)


def proxy_reward(r_ex, intrinsics, lam):
    """R = r_ex + lam * mean_i r_int_i, with agents on the first axis of
    ``intrinsics`` (trains the mixer)."""
    return r_ex + lam * np.mean(intrinsics, axis=0)


def softmax_credit(q_max):
    """Softmax over agents (first axis) of their max-Q values; positive, sums to 1."""
    q = np.asarray(q_max, dtype=np.float64)
    z = np.exp(q - q.max(axis=0, keepdims=True))
    return z / z.sum(axis=0, keepdims=True)


def individual_rewards(q_max, r_proxy, intrinsics, lam):
    """r^i = softmax_i(max Q_i) * R + lam * r_int_i, agents on the first axis.

    ``intrinsics`` is None when lam is 0 and no intrinsic reward was computed.
    """
    r = softmax_credit(q_max) * r_proxy
    return r if intrinsics is None else r + lam * intrinsics
