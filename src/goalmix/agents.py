"""Per-agent recurrent utility networks and action selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, gru_cell, gru_layer
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

    def policy(self, params, *lead):
        """One episode's :class:`Policy` for :meth:`step` on observations
        (*lead, obs_dim) from a zero state: lead is (N, B) for slot-stacked
        params, (B,) for a single net. It copies the weights, each bias as
        b[..., None, :] ((S, 1, n_out), or (1, n_out) for a single net), the
        three input-gate weights and biases side by side as one (S, H, 3H)
        projection, so it keeps acting on the parameters it was prepared
        from: a rollout prepares one per episode."""
        hd = self.hidden_dim

        def fused(kind):
            return np.concatenate([params[f"gru.x{g}.{kind}"] for g in GATES], axis=-1)

        return Policy(
            w_in=params["in.w"].copy(), b_in=params["in.b"][..., None, :].copy(),
            w_x=fused("w"), b_x=fused("b")[..., None, :],
            w_h=[params[f"gru.h{g}.w"].copy() for g in GATES],
            w_out=params["out.w"].copy(), b_out=params["out.b"][..., None, :].copy(),
            x=np.empty((*lead, hd)), xg=np.empty((*lead, 3 * hd)),
            h=np.zeros((*lead, hd)), cell=[np.empty((*lead, hd)) for _ in range(6)],
        )

    def step(self, policy, obs):
        """One step of a prepared policy: obs (*lead, obs_dim) -> Q values
        (*lead, n_actions), advancing ``policy.h``. The input affine and
        relu, one matmul for all three input gates, the GRU step of every
        :meth:`unroll` (:func:`~goalmix.autodiff.gru_cell`) on column views
        of its result, and the output affine all write into the policy's
        buffers; only the returned Q is allocated. Each fused column is its
        own gate's product, so the bits are those of one affine per gate."""
        p, hd = policy, self.hidden_dim
        x = np.maximum(np.add(np.matmul(obs, p.w_in, out=p.x), p.b_in, out=p.x), 0.0, out=p.x)
        xg = np.add(np.matmul(x, p.w_x, out=p.xg), p.b_x, out=p.xg)
        h_next, *gates = p.cell
        gru_cell(xg[..., :hd], xg[..., hd:2 * hd], xg[..., 2 * hd:], p.h, *p.w_h,
                 out=(h_next, *gates))
        p.cell[0], p.h = p.h, h_next  # the old state is the next step's output buffer
        q = np.matmul(h_next, p.w_out)
        return np.add(q, p.b_out, out=q)

    def unroll(self, params, obs_seq):
        """Run every sequence from a zero hidden state.

        Slot-stacked params take obs_seq (N, B, T, obs_dim) and return Q
        values (N, B, T, n_actions); a single net takes (B, T, obs_dim) and
        returns (B, T, n_actions). The result is a Tensor when ``params``
        are Tensors, an ndarray otherwise. The GRU is
        :func:`~goalmix.autodiff.gru_layer`: each gate's input projection
        for every step in one batched matmul, then the recurrence, which in
        graph mode is one node with a hand-written backward through time
        that keeps only the z, r and n gates and the hidden states.
        """
        *lead, t_len, d = obs_seq.shape
        rows = (*lead[:-1], lead[-1] * t_len)  # each slot's (B * T) rows
        x = affine(params, "in", obs_seq.reshape(*rows, d), relu=True)

        def gates(block):
            return [params[block.format(g)] for g in GATES]

        hidden = gru_layer(x, gates("gru.x{}.w"), gates("gru.x{}.b"), gates("gru.h{}.w"),
                           t_len).reshape(*rows, self.hidden_dim)
        return affine(params, "out", hidden).reshape(*lead, t_len, self.n_actions)


@dataclass(eq=False)
class Policy:
    """One episode's acting state of a :class:`RecurrentQNet`: weights in the
    step's layout, the hidden state ``h`` and the step's buffers."""

    w_in: np.ndarray
    b_in: np.ndarray
    w_x: np.ndarray  # the z | r | n input-gate weights side by side
    b_x: np.ndarray
    w_h: list  # the recurrent weights of the z, r and n gates
    w_out: np.ndarray
    b_out: np.ndarray
    x: np.ndarray  # the step's buffers
    xg: np.ndarray
    h: np.ndarray
    cell: list  # gru_cell's six outputs; the first becomes the next h


def local_q(qnet, params, obs_history):
    """Q-vector after feeding an observation-history prefix (T, obs_dim)."""
    obs_history = np.asarray(obs_history, dtype=np.float64)
    if obs_history.ndim != 2 or obs_history.shape[0] < 1:
        raise ValueError("observation history must be a non-empty (T, obs_dim) array")
    q_seq = qnet.unroll(params, obs_history[None, :, :])
    q = q_seq[:, -1, :] if not isinstance(q_seq, Tensor) else q_seq.data[:, -1, :]
    return q[0]


def masked_argmax(q, mask):
    """Index of the largest Q among valid actions along the last axis; ties
    -> lowest index. One row, q and mask (U,), gives an int; a batch of rows,
    (N, U), gives a list of N ints. Raises ValueError when a row has no valid
    action."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("no valid action in mask")
    return np.where(mask, q, -np.inf).argmax(axis=-1).tolist()


def act_epsilon_greedy(q, epsilon, rng, mask):
    """Per row, the greedy action with probability 1-eps, else uniform over
    the row's valid actions. Takes and returns the shapes of
    :func:`masked_argmax`. The draws go row by row, in row order: one
    ``rng.random()``, then ``rng.integers`` only when the row explores."""
    mask = np.asarray(mask, dtype=bool)
    greedy = masked_argmax(q, mask)
    if mask.ndim == 1:
        return _explore_or(greedy, mask, epsilon, rng)
    return [_explore_or(a, row, epsilon, rng) for a, row in zip(greedy, mask)]


def _explore_or(greedy, mask, epsilon, rng):
    if rng.random() < epsilon:
        valid = np.flatnonzero(mask)
        return int(valid[rng.integers(len(valid))])
    return greedy


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
