"""Actionable distance, representation loss, intrinsic/proxy/individual rewards."""

import math

import numpy as np
import pytest

from goalmix.nn import as_tensors, gradient, stack_slots
from goalmix.oracles import finite_diff_grad
from goalmix.rewards import (
    IdentityRepr,
    ReprNet,
    actionable_distance,
    individual_rewards,
    intrinsic_rewards,
    proxy_reward,
    repr_loss,
    softmax_credit,
)
from goalmix.training import loss_value
from tests.conftest import assert_grads_close, make_batch, make_stub_trainer


def distance(a, b):
    """D_Q of one pair of Q-vectors through the batched kernel (M=1, T=1)."""
    return float(actionable_distance(np.asarray(a, dtype=np.float64)[None],
                                     np.asarray(b, dtype=np.float64))[0])


# -- actionable distance -----------------------------------------------------


def test_distance_of_identical_vectors_is_zero():
    q = np.array([0.3, -1.2, 4.0, 0.0, 1.0, -0.5])
    assert distance(q, q) == pytest.approx(0.0, abs=1e-12)


def test_distance_of_orthogonal_unit_vectors_is_one():
    a = np.array([1.0, 0, 0, 0, 0, 0])
    b = np.array([0, 1.0, 0, 0, 0, 0])
    assert distance(a, b) == pytest.approx(1.0, abs=1e-15)


def test_distance_two_action_toy():
    # cos([1,1],[1,0]) = 1/sqrt(2)
    got = distance([1.0, 1.0], [1.0, 0.0])
    assert got == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-12)


def test_zero_norm_convention():
    assert distance(np.zeros(4), np.ones(4)) == 1.0
    assert distance(np.ones(4), np.zeros(4)) == 1.0
    assert distance(np.zeros(4), np.zeros(4)) == 1.0


def test_distance_range_symmetry_reflexivity(rng):
    a = rng.normal(size=(200, 1, 6)) * rng.uniform(0.1, 10, size=(200, 1, 1))
    b = rng.normal(size=(200, 1, 6)) * rng.uniform(0.1, 10, size=(200, 1, 1))
    d = actionable_distance(a, b[:, 0])
    assert d.shape == (200, 1)
    assert np.all((0.0 <= d) & (d <= 2.0))
    np.testing.assert_allclose(d, actionable_distance(b, a[:, 0]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(actionable_distance(a, a[:, 0]), 0.0, rtol=0, atol=1e-9)
    # a whole sequence against one goal equals the pairwise distances
    seq = a[:, 0][None]                                   # (1, 200, 6)
    for t in range(0, 200, 37):
        assert actionable_distance(seq, b[t, 0])[0, t] == pytest.approx(
            distance(a[t, 0], b[t, 0]), abs=1e-12)


def test_dq_targets_zero_at_subgoal_step(rng):
    trainer = make_stub_trainer()
    _, batch = make_batch(rng, 5)
    prep = trainer.prepare_block(batch)
    dq, t_star = prep["dq_targets"], prep["t_star"]
    valid = batch["valid"].astype(bool)
    for i in range(2):
        for m in range(dq.shape[1]):
            assert dq[i, m, t_star[i, m]] == pytest.approx(0.0, abs=1e-9)
        assert np.all(dq[i][valid] >= 0.0)
        assert np.all(dq[i][valid] <= 2.0)


# -- representation loss ------------------------------------------------------


def test_repr_loss_zero_when_distances_match():
    net = IdentityRepr(2)
    obs = np.array([[[[0.3, 0.0], [0.0, 0.4]]]])          # (N=1, M=1, T=2, D)
    goal = np.zeros((1, 1, 2))
    dq = np.array([[[0.3, 0.4]]])  # equals the embedded distances exactly
    loss = repr_loss(net, {}, obs, goal, dq, np.full((1, 2), 0.5))
    assert float(loss) == pytest.approx(0.0, abs=1e-12)


def test_repr_loss_single_pair_hand_value():
    # ||d_phi|| = 0.5 vs target 0.3 -> (0.2)^2 = 0.04
    net = IdentityRepr(2)
    obs = np.array([[[[0.5, 0.0]]]])
    loss = float(repr_loss(net, {}, obs, np.zeros((1, 1, 2)), np.array([[[0.3]]]),
                           np.ones((1, 1))))
    assert loss == pytest.approx(0.04, abs=1e-12)


def test_repr_loss_nonnegative(rng):
    net = ReprNet(5, 4, 6)
    params = stack_slots([net.init_params(rng) for _ in range(2)])
    for _ in range(20):
        obs = rng.normal(size=(2, 3, 7, 5))
        goal = rng.normal(size=(2, 3, 5))
        dq = rng.uniform(0, 2, size=(2, 3, 7))
        assert float(repr_loss(net, params, obs, goal, dq, np.full((3, 7), 1 / 7))) >= 0.0


def test_repr_loss_gradient_matches_finite_differences(rng):
    _check_repr_loss_gradient(rng, n_slots=2)


def test_repr_loss_gradient_matches_finite_differences_shared_params(rng):
    _check_repr_loss_gradient(rng, n_slots=1)


def _check_repr_loss_gradient(rng, n_slots):
    # two agents, each with its own slot or both sharing one
    net = ReprNet(4, 3, 5)
    params = stack_slots([net.init_params(rng) for _ in range(n_slots)])
    obs = rng.normal(size=(2, 2, 6, 4))
    goal = rng.normal(size=(2, 2, 4))
    dq = rng.uniform(0, 2, size=(2, 2, 6))
    weights = rng.uniform(0, 1, size=(2, 6))

    def loss_fn(p):
        return loss_value(repr_loss(net, p, obs, goal, dq, weights))

    tensors = as_tensors(params)
    grads = gradient(repr_loss(net, tensors, obs, goal, dq, weights), tensors)
    fd = finite_diff_grad(loss_fn, params, step=1e-5)
    assert_grads_close(grads, fd)


# -- intrinsic rewards ----------------------------------------------------------


def test_intrinsic_zero_at_goal(rng):
    emb = rng.normal(size=(2, 3, 5, 4))
    t_star = rng.integers(5, size=(2, 3))
    intr = intrinsic_rewards(emb, t_star)
    for i in range(2):
        for m in range(3):
            assert intr[i, m, t_star[i, m]] == 0.0  # exactly


def test_intrinsic_is_negative_norm():
    emb = np.zeros((1, 1, 2, 6))
    emb[0, 0, 1, :2] = [3.0, 4.0]
    intr = intrinsic_rewards(emb, np.zeros((1, 1), dtype=np.int64))
    assert intr[0, 0, 1] == pytest.approx(-5.0, abs=1e-12)


def test_intrinsic_never_positive(rng):
    emb = rng.normal(size=(3, 10, 5, 4))
    assert np.all(intrinsic_rewards(emb, rng.integers(5, size=(3, 10))) <= 0.0)


def test_intrinsic_seq_matches_pointwise(rng):
    net = ReprNet(5, 4, 6)
    params = [net.init_params(rng) for _ in range(2)]
    obs = rng.normal(size=(2, 3, 7, 5))                   # (N, M, T, D)
    t_star = rng.integers(7, size=(2, 3))
    emb = np.stack([net.forward(params[i], obs[i].reshape(21, 5)).reshape(3, 7, -1)
                    for i in range(2)])
    intr = intrinsic_rewards(emb, t_star)
    for i in range(2):
        for m in range(3):
            phi_g = net.forward(params[i], obs[i, m, t_star[i, m]][None])[0]
            for t in range(7):
                phi_t = net.forward(params[i], obs[i, m, t][None])[0]
                assert intr[i, m, t] == pytest.approx(-np.linalg.norm(phi_t - phi_g), abs=1e-12)


# -- proxy and individual rewards --------------------------------------------------


def test_proxy_reward_reduces_to_extrinsic():
    r_ex = np.array([[3.5, -1.0]])
    np.testing.assert_array_equal(proxy_reward(r_ex, np.zeros((2, 1, 2)), lam=0.03), r_ex)


def test_proxy_reward_hand_values():
    intr = np.array([[[-1.0, -1.0]], [[-1.0, -3.0]], [[-1.0, -2.0]]])  # (N=3, M=1, T=2)
    got = proxy_reward(np.array([[0.0, 10.0]]), intr, lam=0.03)
    np.testing.assert_allclose(got, [[-0.03, 9.94]], rtol=0, atol=1e-12)


def test_equal_maxq_gives_uniform_credit():
    w = softmax_credit(np.full((3, 2, 4), 0.7))
    np.testing.assert_allclose(w, 1 / 3, atol=1e-12)


def test_credit_hand_value_two_agents():
    q_max = np.array([1.0, 0.0])[:, None, None]
    w = softmax_credit(q_max)
    expected = math.e / (math.e + 1.0)
    assert w[0, 0, 0] == pytest.approx(expected, abs=1e-12)
    intr = np.array([-0.5, -0.25])[:, None, None]
    r = individual_rewards(q_max, np.array([[2.0]]), intr, lam=0.03)
    assert r[0, 0, 0] == pytest.approx(expected * 2.0 + 0.03 * -0.5, abs=1e-12)
    assert r[1, 0, 0] == pytest.approx((1 - expected) * 2.0 + 0.03 * -0.25, abs=1e-12)


def test_individual_rewards_sum_to_proxy_when_lambda_zero(rng):
    q_max = rng.normal(size=(4, 5, 6))
    r_proxy = rng.normal(size=(5, 6))
    r = individual_rewards(q_max, r_proxy, rng.normal(size=(4, 5, 6)), lam=0.0)
    np.testing.assert_allclose(r.sum(axis=0), r_proxy, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(individual_rewards(q_max, r_proxy, None, lam=0.03),
                                  softmax_credit(q_max) * r_proxy)


def test_credit_weights_positive_sum_one_shift_invariant(rng):
    qmax = rng.normal(size=(5, 10, 4)) * 3
    w = softmax_credit(qmax)
    assert np.all(w > 0)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w, softmax_credit(qmax + 42.0), atol=1e-12)
