"""Subgoal scoring/selection kernels against hand arithmetic and the slow oracle."""

import numpy as np
import pytest

from goalmix.oracles import brute_force_subgoal, slow_mix, slow_q_seq
from goalmix.subgoals import at_subgoal, random_subgoals, select_subgoals, subgoal_scores
from goalmix.training import stack_episodes
from tests.conftest import (
    make_batch,
    make_episode,
    make_q_params,
    make_stub_trainer,
    make_trainer,
    slot_net,
    zero_trainer,
)


@pytest.fixture
def setup(rng):
    trainer = make_stub_trainer()
    trainer.params.agent, trainer.params.mixer = make_q_params(rng, trainer.qnet, trainer.mixer)
    episodes, batch = make_batch(rng, 4)
    return trainer, episodes, batch


def slow_tables(trainer, episodes):
    """max_u Q_i (N, M, T) and Q_tot of the taken actions (M, T), from the
    slow oracle forwards; zeros on padded steps."""
    n, m, t_len = trainer.n_agents, len(episodes), episodes[0].max_length
    q_max = np.zeros((n, m, t_len))
    q_tot = np.zeros((m, t_len))
    for j, ep in enumerate(episodes):
        tables = [slow_q_seq(slot_net(trainer.params.agent, i), ep.obs[i]) for i in range(n)]
        for t in range(ep.length):
            for i in range(n):
                q_max[i, j, t] = max(tables[i][t][u] for u in range(tables[i].shape[1])
                                     if ep.avail[i, t, u])
            q_taken = [tables[i][t][ep.actions[i, t]] for i in range(n)]
            q_tot[j, t] = slow_mix(trainer.params.mixer, q_taken, ep.states[t])
    return q_max, q_tot


def test_alpha_one_score_is_local_max(setup):
    trainer, episodes, batch = setup
    q_max, q_tot = slow_tables(trainer, episodes)
    valid = batch["valid"].astype(bool)
    prep = trainer.prepare_block(batch)
    np.testing.assert_allclose(prep["q_max_snapshot"][:, valid], q_max[:, valid],
                               rtol=0, atol=1e-9)
    scores = subgoal_scores(q_max, q_tot, batch["valid"], 1.0)
    np.testing.assert_array_equal(scores[:, valid], q_max[:, valid])


def test_alpha_zero_score_is_agent_independent(setup):
    trainer, episodes, batch = setup
    q_max, q_tot = slow_tables(trainer, episodes)
    scores = subgoal_scores(q_max, q_tot, batch["valid"], 0.0)
    np.testing.assert_array_equal(scores[0], scores[1])
    trainer.cfg = trainer.cfg.replace(subgoal_mode="total_only")
    t_star = trainer.prepare_block(batch)["t_star"]
    np.testing.assert_array_equal(t_star[0], t_star[1])


def test_score_matches_hand_evaluation_from_q_tables(setup):
    """Direct arithmetic: extract Q tables with the slow oracle and evaluate
    alpha*max_u Q_i + (1-alpha)*Q_tot/N by hand."""
    trainer, episodes, batch = setup
    alpha = 0.3
    n = trainer.n_agents
    q_max, q_tot = slow_tables(trainer, episodes)
    # the fast path: the trainer's block-start max-Q and the mixer on the
    # unrolled Q values of the taken actions
    q_seq = trainer.qnet.unroll(trainer.params.agent, batch["obs"])
    taken = np.take_along_axis(q_seq, batch["actions"][..., None], axis=-1)[..., 0]
    m, t_len = batch["rewards"].shape
    q_tot_fast = trainer.mixer.forward(
        trainer.params.mixer, np.moveaxis(taken, 0, -1).reshape(m * t_len, n),
        batch["states"].reshape(m * t_len, -1)).reshape(m, t_len)
    scores = subgoal_scores(trainer.prepare_block(batch)["q_max_snapshot"], q_tot_fast,
                            batch["valid"], alpha)
    for j, ep in enumerate(episodes):
        for i in range(n):
            for t in range(ep.length):
                by_hand = alpha * q_max[i, j, t] + (1 - alpha) * q_tot[j, t] / n
                assert scores[i, j, t] == pytest.approx(by_hand, abs=1e-9)


def test_padded_steps_never_selected(rng):
    _, batch = make_batch(rng, 50)
    valid = batch["valid"]
    lengths = valid.sum(axis=1)
    q_max = rng.normal(size=(2,) + valid.shape)
    q_max[:, valid == 0] = 1e6  # padded steps would win if they were scored
    q_tot = rng.normal(size=valid.shape)
    q_tot[valid == 0] = 1e6
    for alpha in (0.0, 0.5, 1.0):
        scores = subgoal_scores(q_max, q_tot, valid, alpha)
        assert np.all(scores[:, valid == 0] == -np.inf)
        assert np.all(select_subgoals(q_max, q_tot, valid, alpha) < lengths)
    for mode in ("value", "random"):
        trainer = make_stub_trainer(subgoal_mode=mode)
        assert np.all(trainer.prepare_block(batch)["t_star"] < lengths)


def test_constant_scores_tie_break_to_earliest(rng):
    trainer = zero_trainer()
    _, batch = make_batch(rng, 6)
    np.testing.assert_array_equal(trainer.prepare_block(batch)["t_star"], 0)


def test_per_agent_argmax_can_differ_at_alpha_one(rng):
    trainer = make_stub_trainer(alpha=1.0)
    found = False
    for trial in range(8):
        trainer.params.agent, trainer.params.mixer = make_q_params(
            rng, trainer.qnet, trainer.mixer)
        episodes, batch = make_batch(rng, 5, length=6)
        t_star = trainer.prepare_block(batch)["t_star"]
        for m, episode in enumerate(episodes):
            oracle = brute_force_subgoal(trainer.params.agent, trainer.params.mixer,
                                         episode, 1.0)
            np.testing.assert_array_equal(t_star[:, m], oracle)
        found |= bool(np.any(t_star[0] != t_star[1]))
    assert found, "alpha=1 never produced distinct per-agent subgoal timesteps"


def test_subgoal_observation_is_bitwise_stored_observation(setup):
    trainer, episodes, batch = setup
    prep = trainer.prepare_block(batch)
    for i in range(2):
        for m, episode in enumerate(episodes):
            t = prep["t_star"][i, m]
            assert 0 <= t < episode.length
            np.testing.assert_array_equal(prep["goal_obs"][i, m], episode.obs[i, t])


def test_prepare_block_matches_train_block_prep():
    """The trainer's snapshot: parameters change only after the gradient
    step, so the prep train_block builds from the graph unroll is bitwise
    the prep of a separate evaluation at block start."""
    trainer = make_trainer(seed=0)
    for _ in range(5):
        trainer.train_block()
    seen = {}
    prepare = trainer.prepare_block

    def spy(batch, q_seq=None):
        seen["direct"] = prepare(batch)
        seen["trained"] = prepare(batch, q_seq=q_seq)
        return seen["trained"]

    trainer.prepare_block = spy
    trainer.train_block()
    assert seen["direct"].keys() == seen["trained"].keys()
    for key, value in seen["trained"].items():
        assert np.array_equal(seen["direct"][key], value), key


def test_oracle_equivalence_sweep(rng):
    trainer = make_stub_trainer()
    for trial in range(10):
        trainer.params.agent, trainer.params.mixer = make_q_params(
            rng, trainer.qnet, trainer.mixer)
        trainer.cfg = trainer.cfg.replace(alpha=float(rng.random()))
        episodes, batch = make_batch(rng, 6)
        t_star = trainer.prepare_block(batch)["t_star"]
        for m, episode in enumerate(episodes):
            slow = brute_force_subgoal(trainer.params.agent, trainer.params.mixer,
                                       episode, trainer.cfg.alpha)
            np.testing.assert_array_equal(t_star[:, m], slow)


# -- random subgoals ----------------------------------------------------------


def test_random_single_timestep_episode(rng):
    batch = stack_episodes([make_episode(rng, length=1) for _ in range(3)])
    t_star = random_subgoals(batch["valid"], 2, np.random.default_rng(0))
    np.testing.assert_array_equal(t_star, np.zeros((2, 3)))


def test_random_uniform_distribution(rng):
    draws = 100_000
    valid = np.zeros((draws, 6))
    valid[:, :5] = 1.0
    t_star = random_subgoals(valid, 1, np.random.default_rng(77))
    counts = np.bincount(t_star[0], minlength=6)
    assert counts[5] == 0
    p = 0.2
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts[:5] / draws - p) < 3 * sigma)


def test_random_fixed_seed_reproducible(rng):
    _, batch = make_batch(rng, 4, length=4)
    a = random_subgoals(batch["valid"], 2, np.random.default_rng(5))
    b = random_subgoals(batch["valid"], 2, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(at_subgoal(batch["obs"], a), at_subgoal(batch["obs"], b))
