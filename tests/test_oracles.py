"""The slow reference implementations and the tabular game."""

import numpy as np
import pytest

from goalmix.mixer import MonotonicMixer
from goalmix.oracles import (
    TabularEnv,
    TabularGame,
    brute_force_subgoal,
    coordination_chain,
    finite_diff_grad,
    optimal_joint_actions,
    slow_mix,
    slow_q_seq,
    value_iteration,
)
from tests.conftest import make_batch, make_episode, make_nets, make_q_params, make_stub_trainer


# -- finite differences -----------------------------------------------------


def test_fd_square():
    fd = finite_diff_grad(lambda p: float(p["x"][0] ** 2), {"x": np.array([3.0])})
    assert fd["x"][0] == pytest.approx(6.0, abs=1e-8)


def test_fd_coordinate_restriction():
    params = {"x": np.arange(4.0)}
    fd = finite_diff_grad(lambda p: float((p["x"] ** 2).sum()), params,
                          coords={"x": [1, 3]})
    np.testing.assert_allclose(fd["x"], [0.0, 2.0, 0.0, 6.0], atol=1e-8)


def test_fd_leaves_params_unchanged():
    params = {"x": np.array([1.0, 2.0])}
    before = params["x"].copy()
    finite_diff_grad(lambda p: float(p["x"].sum()), params)
    np.testing.assert_array_equal(params["x"], before)


# -- slow forwards cross-check the fast kernels ----------------------------------


def test_slow_q_seq_matches_fast_unroll(rng):
    qnet, _, _ = make_nets()
    params = qnet.init_params(rng)
    obs = rng.normal(size=(6, 5))
    fast = qnet.unroll(params, obs[None])[0]
    slow = slow_q_seq(params, obs)
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10)


def test_slow_mix_matches_fast_forward(rng):
    mixer = MonotonicMixer(3, 4, 8)
    params = mixer.init_params(rng)
    for _ in range(10):
        q = rng.normal(size=3)
        s = rng.normal(size=4)
        assert mixer.forward(params, q[None], s[None])[0] == pytest.approx(
            slow_mix(params, q, s), abs=1e-10)


def test_brute_force_subgoal_single_step_episode(rng):
    qnet, mixer, _ = make_nets()
    agents, mixer_params = make_q_params(rng, qnet, mixer)
    episode = make_episode(rng, length=1)
    assert list(brute_force_subgoal(agents, mixer_params, episode, 0.5)) == [0, 0]


def test_brute_force_alpha_zero_agreement_across_agents(rng):
    qnet, mixer, _ = make_nets()
    for _ in range(10):
        agents, mixer_params = make_q_params(rng, qnet, mixer)
        episode = make_episode(rng)
        t_star = brute_force_subgoal(agents, mixer_params, episode, 0.0)
        assert t_star[0] == t_star[1]


def test_brute_force_agrees_with_engine(rng):
    trainer = make_stub_trainer()
    for _ in range(5):
        trainer.params.agent, trainer.params.mixer = make_q_params(
            rng, trainer.qnet, trainer.mixer)
        trainer.cfg = trainer.cfg.replace(alpha=float(rng.random()))
        episodes, batch = make_batch(rng, 5)
        t_star = trainer.prepare_block(batch)["t_star"]
        for m, episode in enumerate(episodes):
            np.testing.assert_array_equal(
                brute_force_subgoal(trainer.params.agent, trainer.params.mixer,
                                    episode, trainer.cfg.alpha),
                t_star[:, m],
            )


# -- value iteration -----------------------------------------------------------------


def test_value_iteration_zero_rewards():
    game = TabularGame(transitions=np.zeros((2, 2, 2), dtype=np.int64),
                       rewards=np.zeros((2, 2, 2)))
    np.testing.assert_array_equal(value_iteration(game, 0.99), np.zeros((2, 2, 2)))


def test_value_iteration_geometric_series():
    # s0 -> absorbing s1 on any action; reward 1 only in s1
    transitions = np.ones((2, 2, 2), dtype=np.int64)
    rewards = np.zeros((2, 2, 2))
    rewards[1] = 1.0
    game = TabularGame(transitions=transitions, rewards=rewards)
    gamma = 0.99
    q = value_iteration(game, gamma, tol=1e-12)
    np.testing.assert_allclose(q[1], 1.0 / (1.0 - gamma), rtol=1e-9)
    np.testing.assert_allclose(q[0], gamma / (1.0 - gamma), rtol=1e-9)


def test_value_iteration_bellman_residual():
    game = coordination_chain()
    gamma = 0.99
    q = value_iteration(game, gamma, tol=1e-10)
    v = q.reshape(game.n_states, -1).max(axis=1)
    residual = np.abs(game.rewards + gamma * v[game.transitions] - q).max()
    assert residual <= 1e-9


def test_value_iteration_rejects_bad_gamma():
    with pytest.raises(ValueError):
        value_iteration(coordination_chain(), 1.0)


def test_coordination_chain_optimum_is_joint_advance():
    opt = optimal_joint_actions(coordination_chain(), 0.99)
    assert opt == [{(1, 1)}, {(1, 1)}, {(1, 1)}]


# -- tabular environment adapter -----------------------------------------------------


def test_tabular_env_protocol(rng):
    env = TabularEnv(coordination_chain(), episode_limit=6)
    obs, state = env.reset(rng)
    assert obs.shape == (2, env.obs_dim)
    assert state.shape == (env.state_dim,)
    assert env.avail_actions().all()
    steps = 0
    while True:
        r = env.step([1, 1])
        steps += 1
        if r.done:
            assert r.won  # reached the absorbing goal by always advancing
            break
    assert steps == 6
    with pytest.raises(RuntimeError):
        env.step([0, 0])


def test_tabular_env_rewards_follow_table(rng):
    game = coordination_chain()
    env = TabularEnv(game, episode_limit=4)
    env.reset(rng)
    r = env.step([1, 0])
    assert r.reward == pytest.approx(0.05)
    assert env.s == 0  # no joint advance
    r = env.step([1, 1])
    assert r.reward == pytest.approx(0.1)
    assert env.s == 1
