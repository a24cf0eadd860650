"""Per-agent recurrent utility networks and action selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, gru_cell, gru_sequence, relu
from .nn import affine, linear_params, uniform_init

GATES = ("z", "r", "n")  # the GRU's update, reset and candidate gates


class RecurrentQNet:
    """DRQN-style utility network: affine -> GRU -> affine, one Q per action.

    Observations already carry the agent's previous action one-hot (the
    environments append it), so the network input is the observation
    vector itself.
    """

    def __init__(self, obs_dim, n_actions, hidden_dim=64):
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.hidden_dim = hidden_dim

    def init_params(self, rng):
        hd = self.hidden_dim
        p = linear_params(rng, self.obs_dim, hd, "in")
        for gate in GATES:
            p.update(linear_params(rng, hd, hd, f"gru.x{gate}"))
            p[f"gru.h{gate}.w"] = uniform_init(rng, hd, (hd, hd))
        p.update(linear_params(rng, hd, self.n_actions, "out"))
        return p

    def initial_hidden(self, *lead):
        """Zero hidden state of shape (*lead, hidden)."""
        return np.zeros((*lead, self.hidden_dim))

    def step(self, params, obs, h):
        """One recurrent step on arrays -> (q, h'), for the rollout.
        Slot-stacked params take every agent at once: obs (N, B, obs_dim),
        h (N, B, hidden); a single net takes obs (B, obs_dim), h (B, hidden).
        It runs the same GRU step, :func:`~goalmix.autodiff.gru_cell`, as
        every step of :meth:`unroll`."""
        x = relu(affine(params, "in", obs))
        h2 = gru_cell(*(affine(params, f"gru.x{g}", x) for g in GATES), h,
                      *(params[f"gru.h{g}.w"] for g in GATES))[0]
        return affine(params, "out", h2), h2

    def unroll(self, params, obs_seq):
        """Run every sequence from a zero hidden state.

        Slot-stacked params take obs_seq (N, B, T, obs_dim) and return Q
        values (N, B, T, n_actions); a single net takes (B, T, obs_dim) and
        returns (B, T, n_actions). The result is a Tensor when ``params``
        are Tensors, an ndarray otherwise. The input-side projections of all
        gates are computed for every step in one batched matmul; the
        recurrence is :func:`~goalmix.autodiff.gru_sequence`, which in graph
        mode is a single node with a hand-written backward through time.
        """
        *lead, t_len, d = obs_seq.shape
        rows = (*lead[:-1], lead[-1] * t_len)  # each slot's (B * T) rows
        hd = self.hidden_dim
        x = relu(affine(params, "in", obs_seq.reshape(*rows, d)))
        hidden = gru_sequence(
            *(affine(params, f"gru.x{g}", x).reshape(*lead, t_len, hd) for g in GATES),
            *(params[f"gru.h{g}.w"] for g in GATES),
        ).reshape(*rows, hd)
        return affine(params, "out", hidden).reshape(*lead, t_len, self.n_actions)


def local_q(qnet, params, obs_history):
    """Q-vector after feeding an observation-history prefix (T, obs_dim)."""
    obs_history = np.asarray(obs_history, dtype=np.float64)
    if obs_history.ndim != 2 or obs_history.shape[0] < 1:
        raise ValueError("observation history must be a non-empty (T, obs_dim) array")
    q_seq = qnet.unroll(params, obs_history[None, :, :])
    q = q_seq[:, -1, :] if not isinstance(q_seq, Tensor) else q_seq.data[:, -1, :]
    return q[0]


def masked_argmax(q, mask):
    """Index of the largest Q among valid actions; ties -> lowest index."""
    q = np.asarray(q, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("no valid action in mask")
    scored = np.where(mask, q, -np.inf)
    return int(np.argmax(scored))


def act_epsilon_greedy(q, epsilon, rng, mask):
    """Greedy action with probability 1-eps, else uniform over valid actions."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("no valid action in mask")
    if rng.random() < epsilon:
        valid = np.flatnonzero(mask)
        return int(valid[rng.integers(len(valid))])
    return masked_argmax(q, mask)


@dataclass
class EpsilonSchedule:
    """Linear anneal from start to end over anneal_steps environment steps."""

    start: float = 1.0
    end: float = 0.05
    anneal_steps: int = 50_000

    def value(self, step):
        if self.anneal_steps <= 0:
            return self.end
        frac = min(1.0, step / self.anneal_steps)
        return self.start + frac * (self.end - self.start)
