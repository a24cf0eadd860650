"""Loss terms against hand arithmetic, the training loop, and reductions."""

import math

import numpy as np
import pytest

from goalmix.autodiff import Tensor, moveaxis, take_along_last
from goalmix.cli import ABLATION_VARIANTS
from goalmix.config import TrainConfig
from goalmix.mixer import MonotonicMixer
from goalmix.nn import ParamSet, as_tensors, gradient, weighted_sq_error
from goalmix.oracles import TabularEnv, coordination_chain, finite_diff_grad, slow_mix, slow_q_seq
from goalmix.subgoals import select_subgoals
from goalmix.training import (
    Trainer,
    correction_window,
    entropy_correction,
    loss_value,
    stack_episodes,
)
from tests.conftest import (
    assert_grads_close,
    make_batch,
    make_episode,
    make_nets,
    make_q_params,
    make_stub_trainer,
    make_trainer,
    slot_net,
    zero_params,
    zero_trainer,
)
from tests.reference_qmix import reference_qmix_block


def losses(tr, episodes, **prep):
    """Trainer.block_losses on the batch of ``episodes`` with a hand-set
    prep (rewards as (M, T) / (N, M, T) arrays)."""
    batch = stack_episodes(episodes)
    return tr.block_losses(tr._wrap_online(), batch, prep)


def block_losses(tr, batch):
    """Trainer.block_losses on a batch with the trainer's own prep."""
    return tr.block_losses(tr._wrap_online(), batch, tr.prepare_block(batch))


# -- individual TD loss (one agent, so sum_Li is that agent's loss) -------------


def test_individual_td_zero_when_q_equals_target(rng):
    tr = zero_trainer(n_agents=1, lam_e=0.0, lam_d=0.0)
    episode = make_episode(rng, n_agents=1, length=4, reward_scale=0.0)
    _, parts = losses(tr, [episode], proxy=np.zeros((1, 6)), r_individual=np.zeros((1, 1, 6)))
    assert parts["sum_Li"] == pytest.approx(0.0, abs=1e-12)


def test_individual_td_terminal_contribution(rng):
    tr = zero_trainer(n_agents=1, lam_e=0.0, lam_d=0.0)
    episode = make_episode(rng, n_agents=1, t_max=4, length=1)
    r_i = np.array([[[1.0, 0, 0, 0]]])
    _, parts = losses(tr, [episode], proxy=np.zeros((1, 4)), r_individual=r_i)
    assert parts["sum_Li"] == pytest.approx(1.0, abs=1e-12)


def test_individual_td_matches_hand_evaluation(rng):
    gamma = 0.9
    tr = make_stub_trainer(n_agents=1, lam_e=0.0, lam_d=0.0, gamma=gamma)
    params = slot_net(tr.params.agent, 0)
    tr.params.target_agent = {k: v[None] for k, v in tr.qnet.init_params(rng).items()}
    targets = slot_net(tr.params.target_agent, 0)
    episode = make_episode(rng, n_agents=1, t_max=4, length=2)
    r_i = np.array([0.5, -1.0, 0.0, 0.0])
    q = slow_q_seq(params, episode.obs[0, :2])
    tq = slow_q_seq(targets, episode.obs[0, :2])
    d0 = r_i[0] + gamma * max(tq[1][episode.avail[0, 1]]) - q[0, episode.actions[0, 0]]
    d1 = r_i[1] - q[1, episode.actions[0, 1]]  # terminal: no bootstrap
    by_hand = (d0 ** 2 + d1 ** 2) / 2.0
    _, parts = losses(tr, [episode], proxy=np.zeros((1, 4)), r_individual=r_i[None, None])
    assert parts["sum_Li"] == pytest.approx(by_hand, abs=1e-9)


# -- total TD loss -----------------------------------------------------------------


def test_total_td_zero_when_equal(rng):
    tr = zero_trainer(lam_i=0.0, lam_e=0.0, lam_d=0.0)
    episode = make_episode(rng, length=3, reward_scale=0.0)
    _, parts = losses(tr, [episode], proxy=np.zeros((1, 6)))
    assert parts["L_TD"] == pytest.approx(0.0, abs=1e-12)


def test_total_td_terminal_only_hand_value(rng):
    tr = zero_trainer(lam_i=0.0, lam_e=0.0, lam_d=0.0)
    episode = make_episode(rng, t_max=3, length=1)
    _, parts = losses(tr, [episode], proxy=np.array([[-0.03, 0, 0]]))
    assert parts["L_TD"] == pytest.approx(0.0009, abs=1e-12)


def test_total_td_nonnegative_and_matches_hand(rng):
    gamma = 0.95
    tr = make_stub_trainer(lam_i=0.0, lam_e=0.0, lam_d=0.0, gamma=gamma)
    ps = tr.params
    ps.target_agent = make_q_params(rng, tr.qnet, tr.mixer)[0]
    ps.target_mixer = tr.mixer.init_params(rng)
    episodes = [make_episode(rng, t_max=4, length=2), make_episode(rng, t_max=4, length=3)]
    proxy = np.array([[0.3, -0.2, 0.0, 0.0], [0.1, 0.5, -1.0, 0.0]])
    _, parts = losses(tr, episodes, proxy=proxy)
    assert parts["L_TD"] >= 0.0
    # hand evaluation via the slow oracle: per-episode means, summed
    by_hand = 0.0
    for m, episode in enumerate(episodes):
        length = episode.length
        q = [slow_q_seq(slot_net(ps.agent, i), episode.obs[i, :length]) for i in range(2)]
        tq = [slow_q_seq(slot_net(ps.target_agent, i), episode.obs[i, :length]) for i in range(2)]
        deltas = []
        for t in range(length):
            q_taken = [q[i][t, episode.actions[i, t]] for i in range(2)]
            tot = slow_mix(ps.mixer, q_taken, episode.states[t])
            if episode.dones[t]:
                y = proxy[m, t]
            else:
                nxt = [max(tq[i][t + 1][episode.avail[i, t + 1]]) for i in range(2)]
                y = proxy[m, t] + gamma * slow_mix(ps.target_mixer, nxt, episode.states[t + 1])
            deltas.append((tot - y) ** 2)
        by_hand += float(np.mean(deltas))
    assert parts["L_TD"] == pytest.approx(by_hand, abs=1e-9)


# -- entropy correction ---------------------------------------------------------------


def window_at(t_star, episode, mode="normal"):
    """The trainer's correction window for one agent of a one-episode batch."""
    valid = episode.valid[None].astype(np.float64)
    return correction_window(np.array([[t_star]]), valid, mode)[0]


def test_entropy_correction_zero_for_uniform_q(rng):
    qnet, _, _ = make_nets()
    params = zero_params(qnet.init_params(rng))
    episode = make_episode(rng, length=5)
    q = qnet.unroll(params, episode.obs[0][None])
    assert loss_value(entropy_correction(q, window_at(0, episode))) == pytest.approx(0.0, abs=1e-12)


def test_entropy_correction_two_action_hand_value(rng):
    qnet, _, _ = make_nets(n_actions=2)
    params = zero_params(qnet.init_params(rng))
    params["out.b"] = np.array([1.0, 0.0])  # Q = [1, 0] at every step
    episode = make_episode(rng, t_max=3, length=1, n_actions=2)
    # direct evaluation: softmax([1,0]) = (e/(1+e), 1/(1+e)); KL = ln2 - H
    p = math.e / (1.0 + math.e)
    by_hand = math.log(2.0) + p * math.log(p) + (1 - p) * math.log(1 - p)
    assert by_hand == pytest.approx(0.11094407167172737, abs=1e-15)
    for q in (qnet.unroll(params, episode.obs[0][None]),
              qnet.unroll(as_tensors(params), episode.obs[0][None])):
        loss = entropy_correction(q, window_at(0, episode))
        assert loss_value(loss) == pytest.approx(by_hand, abs=1e-12)


def test_entropy_correction_window_modes(rng):
    qnet, _, _ = make_nets()
    params = qnet.init_params(rng)
    episode = make_episode(rng, length=5)
    q = qnet.unroll(params, episode.obs[0][None])

    def corr(t_star, mode="normal"):
        return loss_value(entropy_correction(q, window_at(t_star, episode, mode)))

    per_t = [corr(t) - corr(t + 1) for t in range(4)]
    assert all(v >= -1e-12 for v in per_t)  # each step's KL is non-negative
    assert corr(2, "over") == pytest.approx(corr(0), abs=1e-12)  # from t=0 regardless of t*
    assert corr(2, "over") >= corr(2) - 1e-12
    assert corr(4) >= -1e-12
    assert corr(5) == 0.0  # the window never covers padded steps


def test_entropy_identity_kl_equals_logu_minus_entropy(rng):
    qnet, _, _ = make_nets(n_actions=5)
    params = qnet.init_params(rng)
    episode = make_episode(rng, t_max=1, length=1, n_actions=5)
    kl = loss_value(entropy_correction(qnet.unroll(params, episode.obs[0][None]),
                                       window_at(0, episode)))
    q = slow_q_seq(params, episode.obs[0, :1])[0]
    z = np.exp(q - q.max())
    pi = z / z.sum()
    entropy = -(pi * np.log(pi)).sum()
    assert kl == pytest.approx(np.log(5) - entropy, abs=1e-9)


# -- composite -----------------------------------------------------------------------


def test_composite_weighted_sum_hand_value(rng):
    tr = make_stub_trainer(lam_i=0.25, lam_e=0.5, lam_d=2.0)
    _, batch = make_batch(rng, 3)
    total, parts = block_losses(tr, batch)
    weighted = (parts["L_TD"] + 0.25 * parts["sum_Li"] + 0.5 * parts["sum_LE"]
                + 2.0 * parts["sum_LD"])
    assert min(parts.values()) > 0.0
    assert total.item() == pytest.approx(weighted, rel=1e-12)


def test_composite_all_zero(rng):
    # zero nets and zero rewards: every TD error vanishes and Q is uniform
    tr = zero_trainer(lam_d=0.0)
    _, batch = make_batch(rng, 3, reward_scale=0.0)
    total, parts = block_losses(tr, batch)
    assert parts["L_TD"] == 0.0
    assert parts["sum_Li"] == 0.0
    assert total.item() == pytest.approx(0.0, abs=1e-12)


def test_composite_zero_weights_is_plain_td(rng):
    tr = make_stub_trainer(lam_i=0.0, lam_e=0.0, lam_d=0.0)
    _, batch = make_batch(rng, 3)
    total, parts = block_losses(tr, batch)
    assert total.item() == parts["L_TD"]
    assert parts["sum_Li"] == parts["sum_LE"] == parts["sum_LD"] == 0.0


# -- gradient fidelity of the loss kernels ------------------------------------------


def test_loss_gradients_match_finite_differences(rng):
    _check_loss_gradients(rng, share_params=False)


def test_loss_gradients_match_finite_differences_shared_params(rng):
    # the one shared slot's gradient is the sum over every agent's use of it
    _check_loss_gradients(rng, share_params=True)


def _check_loss_gradients(rng, share_params):
    tr = make_stub_trainer(obs_dim=4, n_actions=3, hidden=4, embed=3,
                           lam_i=0.0, lam_e=0.0, lam_d=0.0, share_params=share_params)
    _, batch = make_batch(rng, 2, t_max=4, obs_dim=4, n_actions=3)
    obs, actions = batch["obs"], batch["actions"]
    y = rng.normal(size=(2, 2, 4))
    w = batch["valid"] / batch["valid"].sum(axis=1)[:, None]
    window = correction_window(np.array([[1, 0], [2, 3]]), batch["valid"], "normal")

    def li(p):
        return weighted_sq_error(take_along_last(tr.qnet.unroll(p, obs), actions), y, w)

    def le(p):
        return entropy_correction(tr.qnet.unroll(p, obs), window)

    for build in (li, le):
        tensors = as_tensors(tr.params.agent)
        grads = gradient(build(tensors), tensors)
        fd = finite_diff_grad(lambda p: loss_value(build(p)), tr.params.agent, step=1e-5)
        assert_grads_close(grads, fd)

    prep = {"proxy": rng.normal(size=(2, 4))}

    def ltd(agent, mixer):
        return tr.block_losses(ParamSet(agent=agent, mixer=mixer), batch, prep)[0]

    # L_TD w.r.t. the (possibly shared) agent slots, then the mixer
    tensors = as_tensors(tr.params.agent)
    grads = gradient(ltd(tensors, as_tensors(tr.params.mixer)), tensors)
    fd = finite_diff_grad(lambda p: ltd(as_tensors(p), as_tensors(tr.params.mixer)).item(),
                          tr.params.agent, step=1e-5)
    assert_grads_close(grads, fd)
    agents = as_tensors(tr.params.agent)

    def ltd_mixer(p):
        return ltd(agents, p)

    tensors = as_tensors(tr.params.mixer)
    grads = gradient(ltd_mixer(tensors), tensors)
    fd = finite_diff_grad(lambda p: ltd_mixer(as_tensors(p)).item(), tr.params.mixer, step=1e-5)
    assert_grads_close(grads, fd)


# -- trainer behaviour -----------------------------------------------------------------


def test_trainer_deterministic_across_runs():
    a = make_trainer(seed=3, max_env_steps=400, eval_interval=5)
    b = make_trainer(seed=3, max_env_steps=400, eval_interval=5)
    for _ in range(6):
        ra = a.train_block()
        rb = b.train_block()
        assert ra == rb


def test_trainer_seeds_buffer_when_empty():
    tr = make_trainer(seed=1)
    assert len(tr.buffer) == 0
    tr.train_block()
    assert len(tr.buffer) >= 2  # seeded episode plus the block's collection


def test_qmix_reduction_bitwise():
    cfg = dict(lam=0.0, lam_i=0.0, lam_e=0.0, lam_d=0.0, max_env_steps=10_000)
    a = make_trainer(seed=11, **cfg)
    b = make_trainer(seed=11, **cfg)
    a.collect_episode()
    b.collect_episode()
    a.train_block()
    reference_qmix_block(b.qnet, b.mixer, b.params, b.opt, b.buffer, b.cfg, b.rng)
    named_a = dict(a.params.named_online())
    named_b = dict(b.params.named_online())
    assert named_a.keys() == named_b.keys()
    for name in named_a:
        np.testing.assert_array_equal(named_a[name], named_b[name]), name


def test_target_sync_cadence():
    tr = make_trainer(seed=5, target_interval=3)
    tr.collect_episode()
    snapshots = []
    for _ in range(8):
        tr.train_block()
        snapshots.append((tr.episodes_collected,
                          tr.params.target_agent["in.w"][0].copy()))
    online_changes = 0
    for k in range(1, len(snapshots)):
        changed = not np.array_equal(snapshots[k][1], snapshots[k - 1][1])
        count = snapshots[k - 1][0]  # count before this block's collection
        if changed:
            assert count % 3 == 0, f"targets changed off-cadence at {count}"
            online_changes += 1
    assert online_changes >= 2


def test_correction_window_in_trainer_modes():
    for mode, lam_e in [("normal", 0.0), ("over", 0.001), ("normal", 0.001)]:
        tr = make_trainer(seed=2, correction=mode, lam_e=lam_e)
        tr.collect_episode()
        episodes = tr.buffer.sample(tr.cfg.batch_size, tr.rng)
        batch = stack_episodes(episodes)
        prep = tr.prepare_block(batch)
        if lam_e == 0:
            assert "correction_window" not in prep
            continue
        window = prep["correction_window"]
        valid = batch["valid"].astype(bool)
        if mode == "over":
            np.testing.assert_array_equal(window.astype(bool), np.broadcast_to(valid, window.shape))
        else:
            for i in range(window.shape[0]):
                for m in range(window.shape[1]):
                    t_star = prep["t_star"][i, m]
                    expect = valid[m] & (np.arange(window.shape[2]) >= t_star)
                    np.testing.assert_array_equal(window[i, m].astype(bool), expect)


@pytest.mark.parametrize("name", ABLATION_VARIANTS)
def test_ablation_variant_is_a_coefficient_setting(name, rng):
    cfg = TrainConfig().replace(**ABLATION_VARIANTS[name])
    others = [TrainConfig().replace(**v) for k, v in ABLATION_VARIANTS.items() if k != name]
    assert cfg not in others
    if name in ("local_only", "total_only"):
        assert cfg.alpha == {"local_only": 1.0, "total_only": 0.0}[name]
    tr = make_stub_trainer(seed=3, **ABLATION_VARIANTS[name])
    _, batch = make_batch(rng, 4)
    prep = tr.prepare_block(batch)
    # a term is built exactly when its weight is nonzero
    assert ("intrinsics" in prep) == (cfg.lam > 0)
    assert ("r_individual" in prep) == (cfg.lam_i > 0)
    assert ("correction_window" in prep) == (cfg.lam_e > 0)
    assert ("dq_targets" in prep) == (cfg.lam_d > 0 and not cfg.disable_repr)
    if cfg.subgoal_mode == "value":
        q_seq = tr.qnet.unroll(tr.params.agent, batch["obs"])
        taken = np.take_along_axis(q_seq, batch["actions"][..., None], axis=-1)[..., 0]
        m, t_len = batch["rewards"].shape
        q_tot = tr.mixer.forward(tr.params.mixer, moveaxis(taken, 0, -1).reshape(m * t_len, -1),
                                 batch["states"].reshape(m * t_len, -1)).reshape(m, t_len)
        expect = select_subgoals(prep["q_max_snapshot"], q_tot, batch["valid"], cfg.alpha)
        np.testing.assert_array_equal(prep["t_star"], expect)


def test_mixer_inputs_contiguous_and_prepare_qtot_is_the_trained_one(monkeypatch):
    """Subgoals are scored with the Q_tot that L_TD trains: every mixer input
    is C-contiguous (so every call takes the same BLAS path), and
    prepare_block's Q_tot equals the graph's bitwise."""
    calls = []
    forward = MonotonicMixer.forward

    def spy(self, params, q_locals, states):
        out = forward(self, params, q_locals, states)
        calls.append((q_locals, out))
        return out

    monkeypatch.setattr(MonotonicMixer, "forward", spy)
    tr = make_trainer(seed=0, batch_size=8)
    for _ in range(3):
        calls.clear()
        tr.train_block()
        # prepare_block, the target bootstrap, then the graph's Q_tot
        (q_prep, qtot_prep), _, (q_graph, qtot_graph) = calls
        assert isinstance(q_graph, Tensor) and not isinstance(q_prep, Tensor)
        for q, _ in calls:
            assert (q.data if isinstance(q, Tensor) else q).flags.c_contiguous
        np.testing.assert_array_equal(qtot_prep, qtot_graph.data)


def test_intrinsic_reward_zero_at_subgoal_step():
    tr = make_trainer(seed=4)
    tr.collect_episode()
    episodes = tr.buffer.sample(tr.cfg.batch_size, tr.rng)
    batch = stack_episodes(episodes)
    prep = tr.prepare_block(batch)
    intr = prep["intrinsics"]
    for i in range(tr.n_agents):
        for m in range(intr.shape[1]):
            assert intr[i, m, prep["t_star"][i, m]] == 0.0  # exactly
    assert np.all(intr <= 0.0)


def test_divergence_raises_with_report():
    from goalmix.training import TrainingDiverged

    tr = make_trainer(seed=6)
    tr.collect_episode()
    tr.params.agent["in.w"][0] = np.nan
    with pytest.raises(TrainingDiverged):
        tr.train_block()


def test_run_writes_metrics_and_final_eval(tmp_path):
    tr = make_trainer(seed=7, max_env_steps=120, eval_interval=2, eval_episodes=2)
    path = tmp_path / "metrics.csv"
    win = tr.run(metrics_path=path)
    assert 0.0 <= win <= 1.0
    rows = path.read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header == ["env_steps", "block", "eval_win_rate", "L_TD",
                      "sum_Li", "sum_LE", "sum_LD", "mean_Rt", "epsilon"]
    assert len(rows) > 1
    for row in rows[1:]:
        values = [float(x) for x in row.split(",")]
        assert all(np.isfinite(values))


def test_run_zero_step_budget_trains_nothing():
    tr = make_trainer(seed=7, max_env_steps=60, eval_episodes=1)
    tr.run(max_env_steps=0)
    assert tr.block == 0


def test_always_noop_policy_never_wins():
    tr = make_trainer(seed=8, eval_episodes=8)
    for v in tr.params.agent.values():
        v[:] = 0.0  # all Q equal -> greedy tie-break picks no-op
    assert tr.evaluate(8) == 0.0


def test_evaluate_episode_count():
    tr = make_trainer(seed=8, eval_episodes=2)
    calls = []
    rollout = tr._rollout
    tr._rollout = lambda *a, **k: calls.append(1) or rollout(*a, **k)
    tr.evaluate()
    assert len(calls) == 2
    for bad in (0, -3):
        with pytest.raises(ValueError):
            tr.evaluate(bad)
    assert len(calls) == 2


def test_share_params_trains_single_network():
    tr = make_trainer(seed=9, share_params=True)
    assert all(len(v) == 1 for v in tr.params.agent.values())
    tr.collect_episode()
    rep = tr.train_block()
    assert np.isfinite(rep.loss_total)
    names = [n for n, _ in tr.params.named_online()]
    assert not any(n.startswith("agent.1.") for n in names)


def test_graph_size_does_not_grow_with_episode_length(monkeypatch):
    """The GRU recurrence is one graph node, so a block builds as many
    Tensors on episodes of 10 steps as on episodes of 5."""
    built = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built[-1] += 1
        init(self, *args, **kwargs)

    for limit in (5, 10):
        cfg = TrainConfig(seed=0, hidden_dim=32, eps_anneal_steps=6000).validate()
        trainer = Trainer(cfg, lambda: TabularEnv(coordination_chain(), episode_limit=limit),
                          rng=np.random.default_rng(0))
        trainer.collect_episode()
        built.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "__init__", counting_init)
            trainer.train_block()
    assert built[0] == built[1] > 0
