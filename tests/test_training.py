"""Loss terms against hand arithmetic, the training loop, and reductions."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from goalmix.agents import RecurrentQNet
from goalmix.autodiff import Tensor, take_along_last
from goalmix.cli import ABLATION_VARIANTS
from goalmix.config import TrainConfig
from goalmix.mixer import MonotonicMixer
from goalmix.nn import (
    ParamSet,
    as_tensors,
    gradient,
    load_checkpoint,
    save_checkpoint,
    sync_targets,
    weighted_sq_error,
)
from goalmix.oracles import finite_diff_grad, slow_mix, slow_q_seq
from goalmix.rewards import ReprNet
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
    chain_trainer,
    make_batch,
    make_episode,
    make_nets,
    make_q_params,
    make_stub_trainer,
    make_trainer,
    prepare,
    slot_net,
    zero_params,
    zero_trainer,
)
from tests.reference_qmix import reference_qmix_block


def losses(tr, episodes, **prep):
    """Trainer.block_losses on the batch of ``episodes`` with a hand-set
    prep (rewards as (M, T) / (N, M, T) arrays)."""
    batch = stack_episodes(episodes)
    bootstrap = tr.batch_bootstrap(batch)
    return tr.block_losses(batch, prep, tr.forward(tr._wrap_online(), batch), bootstrap)


def block_losses(tr, batch):
    """Trainer.block_losses on a batch with the trainer's own prep, both
    from one graph forward, and the batch's bootstrap from before it, as
    in train_block."""
    bootstrap = tr.batch_bootstrap(batch)
    online = tr.forward(tr._wrap_online(), batch)
    return tr.block_losses(batch, tr.prepare_block(batch, online), online, bootstrap)


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
    # zero nets and zero rewards: every TD error vanishes and Q is uniform;
    # the zero repr nets embed every observation at the same point, so the
    # intrinsic reward is zero too, and only L_D (distance 0 against D_Q = 1
    # of the zero Q-vectors) is left
    tr = zero_trainer()
    _, batch = make_batch(rng, 3, reward_scale=0.0)
    total, parts = block_losses(tr, batch)
    assert parts["L_TD"] == 0.0
    assert parts["sum_Li"] == 0.0
    assert parts["sum_LE"] == pytest.approx(0.0, abs=1e-12)
    assert parts["sum_LD"] == pytest.approx(6.0, rel=1e-12)  # 1 per agent and episode
    assert total.item() == pytest.approx(tr.cfg.lam_d * parts["sum_LD"], abs=1e-12)


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
        online = tr.forward(ParamSet(agent=agent, mixer=mixer, repr=tr.params.repr), batch)
        return tr.block_losses(batch, prep, online, tr.batch_bootstrap(batch))[0]

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


def test_trainer_on_round_tripped_params_trains_bitwise(tmp_path):
    """The arrays a checkpoint loads are slices of one buffer; in-place
    RMSProp steps and a target sync on them must not reach each other."""
    src = make_trainer(seed=21, batch_size=4, target_interval=3)
    copy = make_trainer(seed=21, batch_size=4, target_interval=3)
    save_checkpoint(tmp_path / "ck.npz", src.params)
    copy.params = load_checkpoint(tmp_path / "ck.npz")[0]
    assert len({id(arr.base) for _, arr in copy.params.named_all()}) == 1
    for _ in range(5):
        assert src.train_block() == copy.train_block()
        for (name, a), (_, b) in zip(src.params.named_all(), copy.params.named_all()):
            np.testing.assert_array_equal(a, b, err_msg=name)
    assert src.episodes_collected > 3  # the blocks passed a target sync


def assert_same_params(a, b):
    for (name, x), (_, y) in zip(a.params.named_all(), b.params.named_all(), strict=True):
        np.testing.assert_array_equal(x, y, err_msg=name)


def test_parameters_put_in_place_between_blocks_are_trained(tmp_path):
    """A ParamSet, a group or one array assigned to a trainer between
    blocks is what the next block steps: the trainer packs it afresh
    instead of stepping the vectors it packed before."""
    twin = make_trainer(seed=22, batch_size=4, target_interval=3)
    tr = make_trainer(seed=22, batch_size=4, target_interval=3)

    def zero_mixer(trainer):
        for v in trainer.params.mixer.values():
            v[...] = 0.0

    def round_trip(trainer):
        save_checkpoint(tmp_path / "ck.npz", trainer.params)
        trainer.params = load_checkpoint(tmp_path / "ck.npz")[0]

    swaps = [
        round_trip,
        lambda t: setattr(t.params, "repr", {k: v.copy() for k, v in t.params.repr.items()}),
        lambda t: t.params.agent.update({"out.w": t.params.agent["out.w"].copy()}),
        lambda t: setattr(t.params, "target_mixer",
                          {k: v.copy() for k, v in t.params.target_mixer.items()}),
        lambda t: setattr(t.params, "mixer", zero_params(t.params.mixer)),
    ]
    for swap in swaps:
        assert tr.train_block() == twin.train_block()
        before = dict(tr.params.named_online())
        swap(tr)
        if swap is swaps[-1]:
            zero_mixer(twin)
        assert tr.train_block() == twin.train_block()
        assert_same_params(tr, twin)
        assert any(not np.array_equal(before[n], a) for n, a in tr.params.named_online())
    assert tr.episodes_collected > 3  # the blocks passed a target sync


def test_non_finite_gradient_names_its_array_and_leaves_the_parameters(monkeypatch):
    import goalmix.training as training
    from goalmix.training import TrainingDiverged

    tr = make_trainer(seed=6, batch_size=4)
    tr.collect_episode()
    before = [(name, arr.copy()) for name, arr in tr.params.named_all()]
    real_gradient = training.gradient

    def poisoned(loss, tensors):
        grads = real_gradient(loss, tensors)
        g = grads.agent["gru.hz.w"].copy()
        g[1, 2, 3] = np.inf
        grads.agent["gru.hz.w"] = g
        return grads

    monkeypatch.setattr(training, "gradient", poisoned)
    with pytest.raises(TrainingDiverged, match=r"entries in agent\.1\.gru\.hz\.w$") as err:
        tr.train_block()
    assert err.value.report.block == 0
    for (name, a), (_, b) in zip(before, tr.params.named_all(), strict=True):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert tr.opt.sq is None


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


# -- the target bootstrap, once per episode and target generation ---------------------


def buffer_batch(tr, m):
    """A batch sampled from the trainer's buffer that carries its episodes,
    as train_block builds it."""
    episodes = tr.buffer.sample(m, tr.rng)
    batch = stack_episodes(episodes)
    return batch


def count_target_rows(monkeypatch, tr):
    """Patch the trainer so each batch_bootstrap call appends
    (rows the target nets ran on, rows in the batch, its result, a fresh
    full-batch bootstrap under the same target nets) to the returned list."""
    calls, ran = [], []
    fresh = tr.target_bootstrap

    def counting(obs, avail, states):
        ran.append(obs.shape[1])
        return fresh(obs, avail, states)

    def recording(batch):
        ran.clear()
        got = Trainer.batch_bootstrap(tr, batch)
        calls.append((sum(ran), batch["obs"].shape[1], got,
                      fresh(batch["obs"], batch["avail"], batch["states"])))
        return got

    monkeypatch.setattr(tr, "target_bootstrap", counting)
    monkeypatch.setattr(tr, "batch_bootstrap", recording)
    return calls


@pytest.mark.parametrize("build", [
    lambda: make_trainer(seed=12, batch_size=8, target_interval=5),
    lambda: chain_trainer(batch_size=8, target_interval=5),
    lambda: make_trainer(seed=13, batch_size=8, target_interval=5, share_params=True),
], ids=["skirmish", "chain", "share_params"])
def test_cached_bootstrap_matches_a_full_batch_bootstrap(monkeypatch, build):
    import goalmix.training as training

    tr = build()
    tr.collect_episode()
    calls = count_target_rows(monkeypatch, tr)
    # a block's sync is a call of sync_targets (the first block's packing
    # also gives the target groups new arrays, but is no sync)
    synced = []
    monkeypatch.setattr(training, "sync_targets",
                        lambda ps, sync=training.sync_targets: synced.append(ps) or sync(ps))
    syncs = []
    for _ in range(18):
        before = len(synced)
        tr.train_block()
        syncs.append(len(synced) > before)
    assert sum(syncs) >= 3
    for k, (ran, m, (tq, tot), (fresh_tq, fresh_tot)) in enumerate(calls):
        if k == 0 or syncs[k - 1]:
            assert ran == m, f"block {k} after a sync reused an entry"
        for got, want in ((tq, fresh_tq), (tot, fresh_tot)):
            if ran == m:
                np.testing.assert_array_equal(got, want)
            else:  # a sub-batch may take other BLAS kernels: last-bit differences
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    assert any(ran < m for ran, m, *_ in calls), "no block reused an entry"


def test_cached_rows_skip_the_target_nets(monkeypatch):
    """Target unrolls are numpy unrolls: a block whose rows are all cached
    runs none, and the first block after a sync runs one on all M rows."""
    target_rows = []
    unroll = RecurrentQNet.unroll

    def spy(self, params, obs_seq):
        if not isinstance(next(iter(params.values())), Tensor):
            target_rows[-1].append(obs_seq.shape[1])
        return unroll(self, params, obs_seq)

    monkeypatch.setattr(RecurrentQNet, "unroll", spy)
    tr = make_trainer(seed=0, batch_size=8, target_interval=6)
    for _ in range(4):
        tr.collect_episode()
    rows = tr.buffer.episodes() * 2
    monkeypatch.setattr(tr.buffer, "sample", lambda m, rng: list(rows))
    for _ in range(5):
        target_rows.append([])
        tr.train_block()
    # blocks 1-2 reuse block 0's entries; block 2 syncs (6 episodes collected)
    assert target_rows == [[8], [], [], [8], []]


def test_a_block_bootstraps_once_before_its_online_graph(monkeypatch):
    """train_block computes the batch's target bootstrap once, before the
    online forward builds the graph, and the losses take that one; so a
    block after a sync never runs its full-batch target unroll beside the
    live graph."""
    tr = make_trainer(seed=0, batch_size=8, target_interval=3)
    tr.collect_episode()
    calls = []
    bootstrap, forward = tr.batch_bootstrap, tr.forward
    monkeypatch.setattr(tr, "batch_bootstrap",
                        lambda batch: calls.append("bootstrap") or bootstrap(batch))
    monkeypatch.setattr(tr, "forward",
                        lambda params, batch: calls.append("forward") or forward(params, batch))
    for _ in range(5):  # crosses a sync
        calls.clear()
        tr.train_block()
        assert calls == ["bootstrap", "forward"]


@pytest.mark.parametrize("build", [
    lambda: make_trainer(seed=12, batch_size=8, target_interval=4),
    lambda: chain_trainer(batch_size=8, target_interval=4),
], ids=["skirmish", "chain"])
def test_no_stale_entry_survives_a_sync(build):
    """After every block, each bootstrap the buffer still caches belongs to
    the current target generation: a sync drops the entries it makes stale."""
    tr = build()
    tr.collect_episode()
    generations, cached = [], 0
    for _ in range(12):  # syncs after the blocks that bring the count to 4, 8 and 12
        tr.train_block()
        generations.append(tr.params.packed().generation)
        kept = [ep for ep in tr.buffer.episodes() if ep.bootstrap is not None]
        assert all(ep.token is generations[-1] for ep in kept)
        cached += len(kept)
    assert sum(a is not b for a, b in zip(generations, generations[1:])) >= 2
    assert cached > 0


def test_no_stale_bootstrap_after_the_target_nets_change(tmp_path, monkeypatch):
    import goalmix.training as training

    tr = make_trainer(seed=14, batch_size=6, target_interval=3)
    for _ in range(3):
        tr.collect_episode()
    batch = buffer_batch(tr, 6)
    calls = count_target_rows(monkeypatch, tr)

    def bootstrap_all_rows():
        """The next bootstrap recomputes every row, bitwise the full batch's."""
        tr.batch_bootstrap(batch)
        ran, m, got, fresh = calls[-1]
        assert ran == m
        for g, f in zip(got, fresh):
            np.testing.assert_array_equal(g, f)

    bootstrap_all_rows()
    tr.batch_bootstrap(batch)
    assert calls[-1][0] == 0
    save_checkpoint(tmp_path / "other.npz", make_trainer(seed=15).params)

    # a sync that writes the targets in place still starts a new generation
    def sync_in_place(ps):
        for online, target in ((ps.agent, ps.target_agent), (ps.mixer, ps.target_mixer)):
            for k, v in online.items():
                np.copyto(target[k], v)
        return ps

    monkeypatch.setattr(training, "sync_targets", sync_in_place)
    monkeypatch.setattr(tr.buffer, "sample", lambda m, rng: list(batch["episodes"]))
    tr.train_block()  # 3 episodes collected: the gradient step, then a sync
    bootstrap_all_rows()

    # a checkpoint of other parameters loaded into the live trainer
    tr.params = load_checkpoint(tmp_path / "other.npz")[0]
    bootstrap_all_rows()

    # a reassigned target group
    tr.params.target_mixer = tr.mixer.init_params(np.random.default_rng(16))
    bootstrap_all_rows()
    tr.params.target_agent = make_q_params(np.random.default_rng(17), tr.qnet, tr.mixer)[0]
    bootstrap_all_rows()


@pytest.mark.parametrize("packed", [False, True])
def test_sync_targets_starts_a_new_bootstrap_generation(monkeypatch, packed):
    """sync_targets gives the target groups new arrays, packed or not, so
    the next bootstrap recomputes every row, even outside train_block."""
    tr = make_trainer(seed=23, batch_size=6)
    for _ in range(3):
        tr.collect_episode()
    if packed:
        tr.params.packed()
    batch = buffer_batch(tr, 6)
    calls = count_target_rows(monkeypatch, tr)
    tr.batch_bootstrap(batch)
    tr.batch_bootstrap(batch)
    old = [*tr.params.target_agent.values(), *tr.params.target_mixer.values()]
    sync_targets(tr.params)
    new = [*tr.params.target_agent.values(), *tr.params.target_mixer.values()]
    assert all(a is not b for a, b in zip(old, new, strict=True))
    tr.batch_bootstrap(batch)
    assert [ran for ran, m, _, _ in calls] == [6, 0, 6]


def test_block_losses_on_a_plain_stacked_batch_caches_its_bootstrap(monkeypatch):
    """The losses of a stack_episodes batch, as the tests and criteria
    build them, bootstrap by running the target nets on all M rows once and
    on none the next time, and both bootstraps are bitwise the whole
    batch's."""
    tr = make_trainer(seed=24, batch_size=6)
    for _ in range(3):
        tr.collect_episode()
    batch = stack_episodes(tr.buffer.sample(6, tr.rng))
    calls = count_target_rows(monkeypatch, tr)
    block_losses(tr, batch)
    block_losses(tr, batch)
    assert [(ran, m) for ran, m, _, _ in calls] == [(6, 6), (0, 6)]
    for _, _, got, fresh in calls:
        for g, f in zip(got, fresh, strict=True):
            np.testing.assert_array_equal(g, f)


def test_trainers_sharing_episodes_never_read_each_others_entries():
    a, b = make_trainer(seed=18, batch_size=4), make_trainer(seed=19, batch_size=4)
    a.collect_episode()
    a.collect_episode()
    batch = buffer_batch(a, 4)
    for tr in (a, b, a, b):
        got = tr.batch_bootstrap(batch)
        fresh = tr.target_bootstrap(batch["obs"], batch["avail"], batch["states"])
        for g, f in zip(got, fresh):
            np.testing.assert_array_equal(g, f)


def test_correction_window_in_trainer_modes():
    for mode, lam_e in [("normal", 0.0), ("over", 0.001), ("normal", 0.001)]:
        tr = make_trainer(seed=2, correction=mode, lam_e=lam_e)
        tr.collect_episode()
        episodes = tr.buffer.sample(tr.cfg.batch_size, tr.rng)
        batch = stack_episodes(episodes)
        prep = prepare(tr, batch)
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
    prep = prepare(tr, batch)
    # a term is built exactly when its weight is nonzero
    assert ("intrinsics" in prep) == (cfg.lam > 0)
    assert ("r_individual" in prep) == (cfg.lam_i > 0)
    assert ("correction_window" in prep) == (cfg.lam_e > 0)
    assert ("dq_targets" in prep) == (cfg.lam_d > 0)
    # repr nets exist exactly where L_D trains them
    assert (tr.repr_net is not None) == bool(tr.params.repr) == (cfg.lam_d > 0)
    if cfg.subgoal_mode == "value":
        q_seq = tr.qnet.unroll(tr.params.agent, batch["obs"])
        taken = np.take_along_axis(q_seq, batch["actions"][..., None], axis=-1)[..., 0]
        q_tot = tr.mixer.forward(tr.params.mixer, taken, batch["states"])
        expect = select_subgoals(prep["q_max_snapshot"], q_tot, batch["valid"], cfg.alpha)
        np.testing.assert_array_equal(prep["t_star"], expect)


def test_qmix_reduction_holds_no_repr_nets(tmp_path):
    tr = make_trainer(seed=4, **ABLATION_VARIANTS["qmix"])
    assert tr.repr_net is None and tr.params.repr == {}
    # skirmish-2v2: 2 utility-net slots and the mixer, no repr entries
    assert tr.params.packed().online.size == 56_557
    tr.collect_episode()
    tr.train_block()
    path = tmp_path / "qmix.npz"
    save_checkpoint(path, tr.params)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
    assert (header["n_agents"], header["n_reprs"]) == (2, 0)
    assert all(group != "repr" for group, _, _ in header["layout"])


def test_one_online_forward_per_block(monkeypatch):
    """A block evaluates each online net once, in graph mode; prepare_block
    reads the data of those nodes. Besides them only the target bootstrap
    runs, on arrays, and only when a row has no cached entry: the mixer and
    the utility nets once each in graph mode plus at most once on arrays
    (every mixer input C-contiguous), the representation net once."""
    calls = {"mixer": [], "repr": 0, "unroll": 0}
    mixer_forward, repr_forward, unroll = (
        MonotonicMixer.forward, ReprNet.forward, RecurrentQNet.unroll)

    def mixer_spy(self, params, q_locals, states):
        calls["mixer"].append((q_locals, states))
        return mixer_forward(self, params, q_locals, states)

    def repr_spy(self, params, obs):
        calls["repr"] += 1
        return repr_forward(self, params, obs)

    def unroll_spy(self, params, obs_seq):
        calls["unroll"] += 1
        return unroll(self, params, obs_seq)

    monkeypatch.setattr(MonotonicMixer, "forward", mixer_spy)
    monkeypatch.setattr(ReprNet, "forward", repr_spy)
    monkeypatch.setattr(RecurrentQNet, "unroll", unroll_spy)
    tr = make_trainer(seed=0, batch_size=8)
    tr.collect_episode()
    for _ in range(3):
        calls.update(mixer=[], repr=0, unroll=0)
        tr.train_block()
        graph = [isinstance(q, Tensor) for q, _ in calls["mixer"]]
        assert graph.count(True) == 1 and calls["repr"] == 1
        assert graph.count(False) <= 1 and calls["unroll"] == 1 + graph.count(False)
        for q, states in calls["mixer"]:
            assert (q.data if isinstance(q, Tensor) else q).flags.c_contiguous
            assert states.flags.c_contiguous


def test_intrinsic_reward_zero_at_subgoal_step():
    tr = make_trainer(seed=4)
    tr.collect_episode()
    episodes = tr.buffer.sample(tr.cfg.batch_size, tr.rng)
    batch = stack_episodes(episodes)
    prep = prepare(tr, batch)
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
    reset = tr.eval_env.reset
    tr.eval_env.reset = lambda *a, **k: calls.append(1) or reset(*a, **k)
    tr.evaluate()
    assert len(calls) == 2
    tr.evaluate(3)
    assert len(calls) == 5
    for bad in (0, -3):
        with pytest.raises(ValueError):
            tr.evaluate(bad)
    assert len(calls) == 5


def test_greedy_rollout_records_nothing():
    tr = make_trainer(seed=8, eval_episodes=2)
    ep = tr.collect_episode()
    counts = (tr.env_steps, tr.episodes_collected)
    tr.evaluate(2)
    assert (tr.env_steps, tr.episodes_collected) == counts == (ep.length, 1)
    assert len(tr.buffer) == 1 and tr.buffer.episodes()[0] is ep


def test_evaluate_draws_one_value_from_the_training_rng():
    """However many episodes one call runs, evaluation seeds its episodes
    from a single draw of ``self.rng``. Giving evaluation a seed stream of
    its own changes this on purpose."""
    one, five = make_trainer(seed=8), make_trainer(seed=8)
    one.evaluate(1)
    five.evaluate(5)
    assert one.rng.bit_generator.state == five.rng.bit_generator.state
    fresh = make_trainer(seed=8)
    fresh.rng.integers(2**63)
    assert one.rng.bit_generator.state == fresh.rng.bit_generator.state


def test_policy_acts_on_its_parameters_and_each_episode_reads_the_update(monkeypatch):
    """A policy copies the parameters it is prepared from, so one prepared
    before a gradient step still gives the pre-step Q values; the block's
    collection prepares its own after the step and acts on the new ones."""
    tr = make_trainer(seed=3, batch_size=4)
    tr.collect_episode()
    tr.train_block()  # from here on the parameters are views of one packed vector
    ep = tr.buffer.episodes()[-1]
    n, t_len = ep.obs.shape[0], ep.length
    seq = ep.obs[:, None, :t_len]  # (agents, batch of 1, T, obs)
    before = {k: v.copy() for k, v in tr.params.agent.items()}
    kept = tr.qnet.policy(tr.params.agent, n, 1)

    seen_obs, seen_q = [], []
    step = tr.qnet.step

    def spy(policy, obs):
        q = step(policy, obs)
        seen_obs.append(obs.copy())
        seen_q.append(q)
        return q

    monkeypatch.setattr(tr.qnet, "step", spy)
    tr.train_block()  # the gradient step, then one collected episode
    monkeypatch.undo()
    assert not all(np.array_equal(before[k], v) for k, v in tr.params.agent.items())

    fresh = tr.qnet.policy(before, n, 1)
    for t in range(t_len):
        np.testing.assert_array_equal(tr.qnet.step(kept, seq[..., t, :]),
                                      tr.qnet.step(fresh, seq[..., t, :]))

    collected = np.stack(seen_obs, axis=-2)  # (agents, 1, T', obs)
    q_new = tr.qnet.unroll(tr.params.agent, collected)
    q_old = tr.qnet.unroll(before, collected)
    # 1-row steps and the unroll's T-row products may differ in the last bit
    np.testing.assert_allclose(np.stack(seen_q, axis=-2), q_new, rtol=0, atol=1e-12)
    assert np.abs(q_new - q_old).max() > 1e-9


def test_share_params_trains_single_network():
    tr = make_trainer(seed=9, share_params=True)
    assert all(len(v) == 1 for v in tr.params.agent.values())
    tr.collect_episode()
    rep = tr.train_block()
    assert np.isfinite(rep.loss_total)
    names = [n for n, _ in tr.params.named_online()]
    assert not any(n.startswith("agent.1.") for n in names)


def tensors_per_block(monkeypatch, trainer):
    """How many Tensors one ``train_block`` of ``trainer`` constructs."""
    built = [0]
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Tensor, "__init__", counting_init)
        trainer.train_block()
    return built[0]


def test_graph_size_does_not_grow_with_episode_length(monkeypatch):
    """The GRU recurrence is one graph node, so a block builds as many
    Tensors on episodes of 10 steps as on episodes of 5."""
    built = []
    for limit in (5, 10):
        trainer = chain_trainer(seed=0, episode_limit=limit)
        trainer.collect_episode()
        built.append(tensors_per_block(monkeypatch, trainer))
    assert built[0] == built[1] > 0


# Tensors one train block builds: the size of its graph, which a change to
# how the autodiff ops build their nodes must keep
GRAPH_SIZES = {
    "skirmish-2v2": (lambda: make_trainer(seed=0), 94),
    "qmix": (lambda: make_trainer(seed=0, lam=0.0, lam_i=0.0, lam_e=0.0, lam_d=0.0), 53),
    "train-chain": (lambda: chain_trainer(seed=0), 94),
}


@pytest.mark.parametrize("config", list(GRAPH_SIZES))
def test_tensors_per_block_are_pinned(monkeypatch, config):
    factory, expected = GRAPH_SIZES[config]
    trainer = factory()
    trainer.collect_episode()
    assert tensors_per_block(monkeypatch, trainer) == expected


def graph_nodes(root):
    """Every Tensor of the graph that ``root`` was computed from."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                todo.append(parent)
    return list(seen.values())


@pytest.mark.parametrize("config", list(GRAPH_SIZES))
def test_after_backward_only_leaves_hold_gradients(config):
    """A block's backward leaves a gradient on every parameter leaf it reaches
    and on no inner node, so no upstream gradient outlives its use."""
    trainer = GRAPH_SIZES[config][0]()
    trainer.collect_episode()
    batch = stack_episodes(trainer.buffer.sample(trainer.cfg.batch_size, trainer.rng))
    bootstrap = trainer.batch_bootstrap(batch)
    tensors = trainer._wrap_online()
    online = trainer.forward(tensors, batch)
    loss, _ = trainer.block_losses(batch, trainer.prepare_block(batch, online), online, bootstrap)
    gradient(loss, tensors)
    nodes = graph_nodes(loss)
    leaves = [t for t in nodes if t._backward is None]
    params = [t for group in (tensors.agent, tensors.mixer, tensors.repr) for t in group.values()]
    assert {id(t) for t in leaves} == {id(t) for t in params}
    assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
    assert all(t.grad is None for t in nodes if t._backward is not None)


# the traced peak of one default skirmish-2v2 block above its start, in MiB
BLOCK_PEAK_MIB = 20


def traced_block_peak_mib(post_sync):
    """The traced peak of the second block of a default skirmish-2v2 run
    above its start, in MiB; with ``post_sync``, the block runs right after
    a sync, so every sampled row misses its cached bootstrap."""
    trainer = make_trainer(seed=0)
    trainer.collect_episode()
    trainer.train_block()  # warm-up: first-block packing and the bootstrap cache
    if post_sync:
        sync_targets(trainer.params)  # a new target generation: every entry is stale
        token = trainer.params.packed().generation
        assert all(ep.token is not token for ep in trainer.buffer.episodes())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trainer.train_block()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / 2**20


def test_train_block_traced_peak_is_bounded():
    """numpy reports its buffers to tracemalloc, so the traced peak of a
    block depends only on the code path. A graph that kept every affine's
    pre-bias product, every relu's pre-activation and every inner node's
    gradient to the end of the backward peaked at 40.8 MiB; one that also
    kept the GRU's input projections, a time-major copy of its hidden
    states and r * h peaked at 22.5 MiB."""
    assert traced_block_peak_mib(post_sync=False) <= BLOCK_PEAK_MIB


def test_post_sync_train_block_traced_peak_is_bounded():
    """Right after a sync the target nets run on every sampled row. A block
    that ran that target unroll beside its live online graph peaked at
    24.5 MiB; run before the graph is built, it stays under the bound."""
    assert traced_block_peak_mib(post_sync=True) <= BLOCK_PEAK_MIB
