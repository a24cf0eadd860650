"""Per-agent recurrent utility networks and action selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, relu, slice_time, stack
from .nn import GRUCell, affine, gru_update, linear_params


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
        self.cell = GRUCell(hidden_dim, hidden_dim)

    def init_params(self, rng):
        p = linear_params(rng, self.obs_dim, self.hidden_dim, "in")
        p.update(self.cell.init_params(rng))
        p.update(linear_params(rng, self.hidden_dim, self.n_actions, "out"))
        return p

    def initial_hidden(self, batch=1):
        return np.zeros((batch, self.hidden_dim))

    def step(self, params, obs, h):
        """One recurrent step. obs: (B, obs_dim), h: (B, hidden) -> (q, h')."""
        x = relu(affine(params, "in", obs))
        h2 = self.cell.step(params, x, h)
        q = affine(params, "out", h2)
        return q, h2

    def unroll(self, params, obs_seq):
        """Run the full sequence from a zero hidden state.

        obs_seq: (B, T, obs_dim) ndarray -> Q values (B, T, n_actions),
        a Tensor when ``params`` are Tensors, an ndarray otherwise.
        The input-side projections of all gates are computed for every
        step in one batched matmul; the loop only carries the hidden state.
        """
        b, t_len, d = obs_seq.shape
        hd = self.hidden_dim
        x = relu(affine(params, "in", obs_seq.reshape(b * t_len, d)))
        xz = affine(params, "gru.xz", x).reshape(b, t_len, hd)
        xr = affine(params, "gru.xr", x).reshape(b, t_len, hd)
        xn = affine(params, "gru.xn", x).reshape(b, t_len, hd)
        h = self.initial_hidden(b)
        hs = []
        for t in range(t_len):
            h = gru_update(params, slice_time(xz, t), slice_time(xr, t), slice_time(xn, t), h)
            hs.append(h)
        hidden = stack(hs, axis=1)  # (B, T, hidden)
        return affine(params, "out", hidden)


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
    current_step: int = 0

    def value(self, step=None):
        step = self.current_step if step is None else step
        if self.anneal_steps <= 0:
            return self.end
        frac = min(1.0, step / self.anneal_steps)
        return self.start + frac * (self.end - self.start)

    def advance(self, steps=1):
        self.current_step += steps
        return self.value()
