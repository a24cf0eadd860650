"""Monotonic mixing network: construction, monotonicity, gradient signs."""

import numpy as np
import pytest

from goalmix.autodiff import Tensor, moveaxis
from goalmix.mixer import MonotonicMixer
from goalmix.nn import as_tensors, gradient
from goalmix.oracles import slow_mix
from tests.conftest import assert_grads_close, zero_params


def identity_sum_params(mixer):
    """Hypernets forced constant: first layer routes q_i to channel i,
    second layer sums the first n channels; all biases zero."""
    p = zero_params(mixer.init_params(np.random.default_rng(0)))
    n, e = mixer.n_agents, mixer.embed_dim
    w1 = np.zeros((n, e))
    w1[np.arange(n), np.arange(n)] = 1.0
    p["hw1.b"] = w1.reshape(-1)
    w2 = np.zeros(e)
    w2[:n] = 1.0
    p["hw2.b"] = w2
    return p


def test_linear_reduction_sums_locals():
    mixer = MonotonicMixer(n_agents=3, state_dim=4, embed_dim=8)
    params = identity_sum_params(mixer)
    rng = np.random.default_rng(1)
    q = rng.uniform(0.0, 5.0, size=(10, 3))  # non-negative: ELU is identity
    states = rng.normal(size=(10, 4))
    out = mixer.forward(params, q.T, states)
    np.testing.assert_allclose(out, q.sum(axis=1), rtol=0, atol=1e-12)


def test_single_coordinate_increase_does_not_decrease_total(rng):
    mixer = MonotonicMixer(2, 4, 8)
    params = mixer.init_params(rng)
    q = rng.normal(size=(1, 2))
    s = rng.normal(size=(1, 4))
    base = mixer.forward(params, q.T, s)[0]
    q2 = q.copy()
    q2[0, 1] += 0.37
    assert mixer.forward(params, q2.T, s)[0] >= base - 1e-12


def test_sampled_monotonicity_ten_thousand_pairs(rng):
    mixer = MonotonicMixer(3, 5, 8)
    n_draws = 10_000
    per_param = 10
    for _ in range(n_draws // per_param):
        params = mixer.init_params(rng)
        q = rng.normal(size=(per_param, 3)) * 3
        dq = rng.uniform(0, 2, size=(per_param, 3))
        s = rng.normal(size=(per_param, 5))
        lo = mixer.forward(params, q.T, s)
        hi = mixer.forward(params, (q + dq).T, s)
        assert np.all(hi >= lo - 1e-12)


def test_gradient_sign_nonnegative_thousand_points(rng):
    mixer = MonotonicMixer(3, 5, 8)
    checked = 0
    while checked < 1000:
        params = mixer.init_params(rng)
        q = Tensor(rng.normal(size=(25, 3)) * 2)
        s = rng.normal(size=(25, 5))
        out = mixer.forward(params, moveaxis(q, 1, 0), s)
        out.sum().backward()
        assert np.all(q.grad >= 0.0)
        checked += 25


def test_forward_matches_slow_oracle(rng):
    mixer = MonotonicMixer(2, 4, 6)
    params = mixer.init_params(rng)
    for _ in range(20):
        q = rng.normal(size=2)
        s = rng.normal(size=4)
        fast = mixer.forward(params, q[:, None], s[None])[0]
        assert fast == pytest.approx(slow_mix(params, q, s), abs=1e-10)


def test_batch_axes_are_rows(rng):
    """Agents on the first axis, any batch shape: (N, M, T) locals with
    (M, T, S) states give bitwise the rows of the flattened batch."""
    mixer = MonotonicMixer(3, 4, 6)
    params = mixer.init_params(rng)
    q = rng.normal(size=(3, 5, 7))
    s = rng.normal(size=(5, 7, 4))
    out = mixer.forward(params, q, s)
    assert out.shape == (5, 7)
    flat = mixer.forward(params, q.reshape(3, 35), s.reshape(35, 4))
    np.testing.assert_array_equal(out, flat.reshape(5, 7))
    graph = mixer.forward(as_tensors(params), Tensor(q), s)
    np.testing.assert_array_equal(graph.data, out)


def test_mixer_differentiable_wrt_params(rng):
    from goalmix.oracles import finite_diff_grad

    mixer = MonotonicMixer(2, 3, 4)
    params = mixer.init_params(rng)
    q = rng.normal(size=(6, 2))
    s = rng.normal(size=(6, 3))

    def loss_fn(p):
        out = mixer.forward(p, q.T, s)
        return float((out * out).sum())

    tensors = as_tensors(params)
    out = mixer.forward(tensors, q.T, s)
    grads = gradient((out * out).sum(), tensors)
    fd = finite_diff_grad(loss_fn, params, step=1e-5)
    assert_grads_close(grads, fd)
