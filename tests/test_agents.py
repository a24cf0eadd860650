"""Utility networks, epsilon-greedy selection and the anneal schedule."""

import numpy as np
import pytest

from goalmix.agents import (
    EpsilonSchedule,
    RecurrentQNet,
    act_epsilon_greedy,
    local_q,
    masked_argmax,
)
from goalmix.autodiff import Tensor, gru_cell, gru_layer, relu
from goalmix.env import SkirmishEnv, preset
from goalmix.nn import affine, as_tensors, gradient, stack_slots
from goalmix.oracles import TabularEnv, coordination_chain, finite_diff_grad
from tests.conftest import zero_params

# frozen on the first correct run (seed 99, the 3-step history below)
LOCAL_Q_GOLDEN = [-0.003602166539934393, 0.0017630257348572396, 0.009328768543314925]
HIST = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, -0.5, 0.25, 1.0], [1.0, 0.0, 0.0, -1.0]])


def test_local_q_zero_params_zero_qvector():
    qnet = RecurrentQNet(4, 3, 8)
    params = zero_params(qnet.init_params(np.random.default_rng(0)))
    np.testing.assert_array_equal(local_q(qnet, params, HIST), np.zeros(3))


def test_local_q_deterministic():
    qnet = RecurrentQNet(4, 3, 8)
    params = qnet.init_params(np.random.default_rng(5))
    np.testing.assert_array_equal(local_q(qnet, params, HIST), local_q(qnet, params, HIST))


def test_local_q_golden_value():
    qnet = RecurrentQNet(4, 3, 8)
    params = qnet.init_params(np.random.default_rng(99))
    np.testing.assert_allclose(local_q(qnet, params, HIST), LOCAL_Q_GOLDEN, atol=1e-15)


def test_local_q_requires_history():
    qnet = RecurrentQNet(4, 3, 8)
    params = qnet.init_params(np.random.default_rng(0))
    with pytest.raises(ValueError):
        local_q(qnet, params, np.zeros((0, 4)))


def test_unroll_matches_stepwise_evaluation():
    _check_unroll_against_steps(n_slots=None)


@pytest.mark.parametrize("n_slots", [3, 1])
def test_slot_stacked_unroll_matches_stepwise_evaluation(n_slots):
    _check_unroll_against_steps(n_slots)


def _check_unroll_against_steps(n_slots):
    # one net on (B, T, D), or three agents stepped in one call on slot-stacked
    # nets (N, B, T, D), each agent with its own slot or all sharing one
    rng = np.random.default_rng(8)
    qnet = RecurrentQNet(4, 3, 8)
    if n_slots is None:
        params = qnet.init_params(rng)
        obs = rng.normal(size=(2, 6, 4))
    else:
        params = stack_slots([qnet.init_params(rng) for _ in range(n_slots)])
        obs = rng.normal(size=(3, 2, 6, 4))
    q_seq = qnet.unroll(params, obs)
    policy = qnet.policy(params, *obs.shape[:-2])
    for t in range(6):
        q = qnet.step(policy, obs[..., t, :])
        np.testing.assert_allclose(q, q_seq[..., t, :], rtol=0, atol=1e-12)


# gru_layer's operands: x, then the three gates' input weights, input
# biases and recurrent weights, each in gate order z, r, n
GRU_ROLES = ("gru.x{}.w", "gru.x{}.b", "gru.h{}.w")
GRU_OPERANDS = ("x", *(role.format(g) for role in GRU_ROLES for g in "zrn"))


def _stacked_qnet_and_obs(n_slots, seed):
    # three agents on slot-stacked nets (S = 3) or sharing one slot (S = 1);
    # the second sequence ends after 3 of 5 steps and is zero-padded after
    rng = np.random.default_rng(seed)
    qnet = RecurrentQNet(4, 3, 5)
    params = stack_slots([qnet.init_params(rng) for _ in range(n_slots)])
    obs = rng.normal(size=(3, 2, 5, 4))
    obs[:, 1, 3:] = 0.0
    return rng, qnet, params, obs


@pytest.mark.parametrize("n_slots", [3, 1])
def test_gru_layer_gradient_matches_finite_differences(n_slots):
    rng, qnet, params, obs = _stacked_qnet_and_obs(n_slots, seed=21)
    operands = {"x": np.maximum(affine(params, "in", obs.reshape(3, 10, 4)), 0.0)}
    operands.update({k: params[k] for k in GRU_OPERANDS[1:]})
    # a squared loss, zero on the padded steps as in the TD losses
    weights = rng.uniform(0.5, 1.5, size=(3, 2, 5, 5))
    weights[:, 1, 3:] = 0.0

    def loss(p):
        hs = gru_layer(p["x"], *([p[role.format(g)] for g in "zrn"] for role in GRU_ROLES), 5)
        return (hs * hs * weights).sum()

    tensors = as_tensors(operands)
    grads = gradient(loss(tensors), tensors)
    fd = finite_diff_grad(lambda p: float(loss(p)), operands, step=1e-6)
    for name in GRU_OPERANDS:
        assert grads[name].shape == operands[name].shape
        np.testing.assert_allclose(grads[name], fd[name], rtol=1e-7, atol=2e-9, err_msg=name)
    gx = grads["x"].reshape(3, 2, 5, -1)  # (agent, sequence, step, H)
    np.testing.assert_array_equal(gx[:, 1, 3:], 0.0)
    assert np.abs(gx[:, 1, :3]).min() > 0.0


@pytest.mark.parametrize("n_slots", [None, 3, 1])
def test_graph_unroll_and_steps_equal_numpy_unroll(n_slots):
    if n_slots is None:
        rng = np.random.default_rng(22)
        qnet = RecurrentQNet(4, 3, 5)
        params = qnet.init_params(rng)
        obs = rng.normal(size=(2, 5, 4))
    else:
        _, qnet, params, obs = _stacked_qnet_and_obs(n_slots, seed=22)
    q_seq = qnet.unroll(params, obs)
    graph = qnet.unroll(as_tensors(params), obs)
    assert isinstance(graph, Tensor)
    np.testing.assert_array_equal(graph.data, q_seq)
    policy = qnet.policy(params, *obs.shape[:-2])
    for t in range(obs.shape[-2]):
        np.testing.assert_array_equal(qnet.step(policy, obs[..., t, :]), q_seq[..., t, :])


@pytest.mark.parametrize("env_name, n_slots, hidden, batch", [
    ("skirmish-2v2", 2, 64, 1),
    ("skirmish-3v3", 3, 64, 1),
    ("skirmish-3v3", 1, 64, 1),  # every agent on one shared slot
    ("chain", 2, 32, 1),
    ("skirmish-2v2", 2, 64, 4),
])
def test_policy_steps_at_production_shapes(env_name, n_slots, hidden, batch):
    env = TabularEnv(coordination_chain()) if env_name == "chain" else SkirmishEnv(preset(env_name))
    n, t_len = env.n_agents, 12
    rng = np.random.default_rng(23)
    qnet = RecurrentQNet(env.obs_dim, env.n_actions, hidden)
    params = stack_slots([qnet.init_params(rng) for _ in range(n_slots)])
    obs = rng.normal(size=(n, batch, t_len, env.obs_dim))
    q_seq = qnet.unroll(params, obs)
    policy = qnet.policy(params, n, batch)
    h = np.zeros((n, batch, hidden))
    for t in range(t_len):
        q = qnet.step(policy, obs[..., t, :])
        # the same step with one affine per input gate: each fused column is
        # the same product, so the bits agree
        x = relu(affine(params, "in", obs[..., t, :]))
        h = gru_cell(*(affine(params, f"gru.x{g}", x) for g in "zrn"), h,
                     *(params[f"gru.h{g}.w"] for g in "zrn"))[0]
        np.testing.assert_array_equal(policy.h, h)
        np.testing.assert_array_equal(q, affine(params, "out", h))
        if batch > 1:
            np.testing.assert_array_equal(q, q_seq[..., t, :])
        else:
            # a 1-row product takes BLAS's matrix-vector kernel, the unroll's
            # B * T rows the matrix-matrix one: they can differ in the last bit
            np.testing.assert_allclose(q, q_seq[..., t, :], rtol=0, atol=1e-12)


# -- action selection ------------------------------------------------------------


def test_greedy_action_at_epsilon_zero():
    q = np.array([0.0, 5.0, 1.0, 0.0, 0.0, 0.0])
    mask = np.ones(6, dtype=bool)
    act = act_epsilon_greedy(q, 0.0, np.random.default_rng(0), mask)
    assert act == 1


def test_greedy_tie_breaks_to_lowest_index():
    q = np.array([0.0, 0.0, 3.0, 1.0, 3.0, 0.0])
    mask = np.ones(6, dtype=bool)
    assert masked_argmax(q, mask) == 2


def test_greedy_respects_mask():
    q = np.array([0.0, 9.0, 1.0])
    mask = np.array([True, False, True])
    assert masked_argmax(q, mask) == 2


def test_greedy_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.normal(size=6)
        mask = rng.random(6) < 0.7
        mask[0] = True
        assert masked_argmax(q, mask) == masked_argmax(q + 13.7, mask)


def test_empty_mask_rejected():
    with pytest.raises(ValueError):
        act_epsilon_greedy(np.zeros(3), 0.5, np.random.default_rng(0), np.zeros(3, bool))


def row_wise_greedy(q_row, mask_row):
    """The selection rule written out: the lowest index among the valid
    actions of largest Q."""
    best = max(q_row[a] for a in range(len(q_row)) if mask_row[a])
    return next(a for a in range(len(q_row)) if mask_row[a] and q_row[a] == best)


def random_rows(rng, n, u):
    """(n, u) Q-values with many ties, and masks with a valid action per row."""
    q = rng.integers(-2, 3, size=(n, u)).astype(np.float64)
    mask = rng.random((n, u)) < 0.5
    mask[np.arange(n), rng.integers(u, size=n)] = True
    return q, mask


def test_batched_greedy_equals_row_wise_rule():
    rng = np.random.default_rng(5)
    for _ in range(200):
        q, mask = random_rows(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        expected = [row_wise_greedy(qr, mr) for qr, mr in zip(q, mask)]
        got = masked_argmax(q, mask)
        assert got == expected and all(type(a) is int for a in got)
        assert [masked_argmax(qr, mr) for qr, mr in zip(q, mask)] == expected
        assert act_epsilon_greedy(q, 0.0, np.random.default_rng(0), mask) == expected


def test_batched_greedy_ties_break_to_lowest_index():
    q = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [5.0, 5.0, 5.0]])
    assert masked_argmax(q, np.ones((3, 3), bool)) == [0, 1, 0]
    mask = np.array([[False, True, True], [True, False, True], [False, False, True]])
    assert masked_argmax(q, mask) == [1, 2, 2]


def test_batched_epsilon_greedy_draws_replay_row_by_row():
    rng = np.random.default_rng(6)
    for seed in range(200):
        q, mask = random_rows(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        gen, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        got = act_epsilon_greedy(q, 0.5, gen, mask)
        expected = []
        for qr, mr in zip(q, mask):
            if replay.random() < 0.5:
                valid = np.flatnonzero(mr)
                expected.append(int(valid[replay.integers(len(valid))]))
            else:
                expected.append(row_wise_greedy(qr, mr))
        assert got == expected and all(type(a) is int for a in got)
        assert gen.bit_generator.state == replay.bit_generator.state


def test_batched_row_without_valid_action_rejected():
    q = np.zeros((3, 4))
    mask = np.ones((3, 4), bool)
    mask[1] = False
    with pytest.raises(ValueError, match="no valid action"):
        masked_argmax(q, mask)
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="no valid action"):
        act_epsilon_greedy(q, 0.5, gen, mask)
    assert gen.bit_generator.state == state  # rejected before any draw


def test_epsilon_one_is_uniform_over_valid_actions():
    rng = np.random.default_rng(42)
    q = np.array([9.0, 1.0, 2.0, 3.0])
    mask = np.array([True, True, False, True])
    draws = 100_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[act_epsilon_greedy(q, 1.0, rng, mask)] += 1
    assert counts[2] == 0
    p = 1.0 / 3.0
    sigma = np.sqrt(p * (1 - p) / draws)
    for a in (0, 1, 3):
        assert abs(counts[a] / draws - p) < 3 * sigma


def test_epsilon_schedule_monotone_and_saturates():
    sched = EpsilonSchedule(1.0, 0.05, 50_000)
    values = [sched.value(s) for s in range(0, 120_000, 500)]
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert sched.value(50_000) == pytest.approx(0.05)
    assert sched.value(100_000) == pytest.approx(0.05)
