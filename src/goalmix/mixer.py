"""Monotonic mixing network: combines local Q-values into a total Q.

The mixing weights are produced by state-conditioned hypernetworks and
passed through an absolute value, so the total is non-decreasing in
every local Q input by construction (the derivative through both mixing
layers is a product of non-negative weights and positive ELU slopes).
Inputs carry the agents on their first axis, as everywhere in the
package; :meth:`MonotonicMixer.forward` alone lays them out as rows.
"""

from __future__ import annotations

import math

from .autodiff import absval, elu, moveaxis
from .nn import affine, linear_params


class MonotonicMixer:
    def __init__(self, n_agents, state_dim, embed_dim=32):
        self.n_agents = n_agents
        self.state_dim = state_dim
        self.embed_dim = embed_dim

    def init_params(self, rng):
        p = linear_params(rng, self.state_dim, self.n_agents * self.embed_dim, "hw1")
        p.update(linear_params(rng, self.state_dim, self.embed_dim, "hb1"))
        p.update(linear_params(rng, self.state_dim, self.embed_dim, "hw2"))
        p.update(linear_params(rng, self.state_dim, self.embed_dim, "v1"))
        p.update(linear_params(rng, self.embed_dim, 1, "v2"))
        return p

    def forward(self, params, q_locals, states):
        """q_locals (n_agents, *batch), states (*batch, state_dim) -> (*batch).

        The agents move to the last axis as C-contiguous data, so every
        call takes the same BLAS path. Works on ndarrays or Tensors (graph
        mode); q_locals may itself be a Tensor, to differentiate w.r.t. it.
        """
        batch = q_locals.shape[1:]
        b = math.prod(batch)
        qrow = moveaxis(q_locals, 0, -1).reshape(b, 1, self.n_agents)
        states = states.reshape(b, -1)
        w1 = absval(affine(params, "hw1", states)).reshape(b, self.n_agents, self.embed_dim)
        b1 = affine(params, "hb1", states).reshape(b, 1, self.embed_dim)
        hidden = elu(qrow @ w1 + b1)  # (B, 1, embed)
        w2 = absval(affine(params, "hw2", states)).reshape(b, self.embed_dim, 1)
        head = hidden @ w2  # (B, 1, 1)
        v = affine(params, "v2", elu(affine(params, "v1", states)))  # (B, 1)
        return head.reshape(batch) + v.reshape(batch)
