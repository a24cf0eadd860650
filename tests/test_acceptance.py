"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria 1-6 and 9 run in the default selection. Criteria 7 and 8 are
directional training experiments with a documented multi-hour budget;
they carry the `slow` marker and run with `pytest -m slow` (see the
README for the protocol and recorded results).
"""

import math

import numpy as np
import pytest

from goalmix.agents import masked_argmax
from goalmix.autodiff import take_along_last
from goalmix.config import TrainConfig
from goalmix.env import SkirmishEnv, preset
from goalmix.mixer import MonotonicMixer
from goalmix.nn import ParamSet, as_tensors, gradient, weighted_sq_error
from goalmix.oracles import (
    TabularEnv,
    brute_force_subgoal,
    coordination_chain,
    finite_diff_grad,
    optimal_joint_actions,
)
from goalmix.rewards import (
    IdentityRepr,
    actionable_distance,
    individual_rewards,
    proxy_reward,
    repr_loss,
    softmax_credit,
)
from goalmix.training import (
    Trainer,
    correction_window,
    entropy_correction,
    loss_value,
    stack_episodes,
    td_targets,
)
from tests.conftest import (
    make_batch,
    make_episode,
    make_nets,
    make_q_params,
    make_stub_trainer,
    zero_params,
    zero_trainer,
)
from tests.reference_qmix import reference_qmix_block

TOL = 1e-9


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {name}"


def _per_agent(values):
    """Per-agent scalars as an (N, M=1, T=1) array."""
    return np.asarray(values, dtype=np.float64)[:, None, None]


# -- criterion 1: equation exactness -------------------------------------------------


def test_criterion_1_equation_exactness(rng):
    """Hand values of every equation, evaluated through the batched kernels
    the trainer calls, at M=1."""
    checks = []

    # actionable distance: one Q-vector sequence (T=1) against a goal
    def dq(a, b):
        return float(actionable_distance(np.asarray(a, dtype=np.float64)[None],
                                         np.asarray(b, dtype=np.float64))[0])

    q = np.array([0.3, -1.2, 4.0, 0.0, 1.0, -0.5])
    checks.append(abs(dq(q, q) - 0.0) < TOL)
    e1, e2 = np.eye(6)[0], np.eye(6)[1]
    checks.append(abs(dq(e1, e2) - 1.0) < TOL)
    checks.append(abs(dq([1.0, 1.0], [1.0, 0.0]) - (1.0 - 1.0 / math.sqrt(2.0))) < TOL)

    # proxy reward
    def proxy(r_ex, intrinsics, lam):
        return float(proxy_reward(np.array([[r_ex]]), _per_agent(intrinsics), lam)[0, 0])

    checks.append(abs(proxy(3.5, [0.0, 0.0], 0.03) - 3.5) < TOL)
    checks.append(abs(proxy(0.0, [-1.0, -1.0, -1.0], 0.03) - (-0.03)) < TOL)
    checks.append(abs(proxy(10.0, [-1.0, -3.0], 0.03) - 9.94) < TOL)

    # individual reward
    w = softmax_credit(_per_agent([0.7, 0.7, 0.7]))
    checks.append(np.abs(w - 1.0 / 3.0).max() < TOL)
    w2 = softmax_credit(_per_agent([1.0, 0.0]))
    e_frac = math.e / (math.e + 1.0)
    checks.append(abs(w2[0, 0, 0] - e_frac) < TOL)
    r_ind = individual_rewards(_per_agent([1.0, 0.0]), np.array([[2.0]]),
                               _per_agent([-0.5, -0.25]), 0.03)
    checks.append(abs(r_ind[0, 0, 0] - (e_frac * 2.0 + 0.03 * -0.5)) < TOL)
    r_zero = individual_rewards(_per_agent([0.3, -1.2]), np.array([[1.7]]),
                                _per_agent([-1.0, -2.0]), 0.0)
    checks.append(abs(r_zero.sum() - 1.7) < TOL)

    # representation loss
    ident, one = IdentityRepr(2), np.ones((1, 1))
    checks.append(abs(float(repr_loss(ident, {}, np.array([[[[0.3, 0.0]]]]),
                                      np.zeros((1, 1, 2)), np.array([[[0.3]]]), one))) < TOL)
    checks.append(abs(float(repr_loss(ident, {}, np.array([[[[0.5, 0.0]]]]),
                                      np.zeros((1, 1, 2)), np.array([[[0.3]]]), one)) - 0.04) < TOL)

    # entropy correction over the window from t*=0
    def corr(q_seq, episode):
        window = correction_window(np.zeros((1, 1), dtype=np.int64),
                                   episode.valid[None].astype(np.float64), "normal")[0]
        return loss_value(entropy_correction(q_seq, window))

    qnet2, _, _ = make_nets(n_actions=2)
    zp = zero_params(qnet2.init_params(rng))
    ep_u = make_episode(rng, length=3, n_actions=2)
    checks.append(abs(corr(qnet2.unroll(zp, ep_u.obs[0][None]), ep_u)) < TOL)
    zp["out.b"] = np.array([1.0, 0.0])
    ep1 = make_episode(rng, t_max=3, length=1, n_actions=2)
    p = math.e / (1.0 + math.e)
    kl_hand = math.log(2.0) + p * math.log(p) + (1 - p) * math.log(1 - p)
    checks.append(abs(corr(qnet2.unroll(zp, ep1.obs[0][None]), ep1) - kl_hand) < TOL)

    # TD losses and their weighted assembly, through Trainer.block_losses on
    # a one-episode, one-step batch: all nets are zero, so every Q value,
    # Q_tot, bootstrap and embedding is 0 and each loss is (target)^2
    tr = zero_trainer(lam_i=0.001, lam_e=0.001, lam_d=0.001)
    batch = stack_episodes([make_episode(rng, t_max=3, length=1)])
    t_star = np.zeros((2, 1), dtype=np.int64)

    def block(proxy_r, r_agent0, dq_agent0):
        prep = {
            "proxy": np.array([[proxy_r, 0.0, 0.0]]),
            "r_individual": np.array([[[r_agent0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]]),
            "correction_window": correction_window(t_star, batch["valid"], "normal"),
            "goal_obs": batch["obs"][:, :, 0],
            "dq_targets": np.array([[[dq_agent0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]]),
        }
        total, parts = tr.block_losses(tr._wrap_online(), batch, prep)
        return total.item(), parts

    total, parts = block(-0.03, 1.0, 1.0)
    checks.append(abs(parts["L_TD"] - 0.0009) < TOL)
    checks.append(abs(parts["sum_Li"] - 1.0) < TOL)
    checks.append(abs(parts["sum_LE"]) < TOL)
    checks.append(abs(parts["sum_LD"] - 1.0) < TOL)
    checks.append(abs(total - (0.0009 + 0.001 * 1.0 + 0.001 * 1.0)) < TOL)
    total, parts = block(0.0, 0.0, 0.0)
    checks.append(abs(total) < TOL)

    report(1, "equation exactness", all(checks))


# -- criterion 2: subgoal oracle equivalence ------------------------------------------


def test_criterion_2_subgoal_oracle_equivalence():
    """The trainer's t_star (Trainer.prepare_block on batches of M=8)
    against the exhaustive scan of the slow oracle."""
    rng = np.random.default_rng(2024)
    trainer = make_stub_trainer()
    mismatches = 0
    alpha_zero_violations = 0
    cases = 1000
    m = 8
    for _ in range(cases // m):
        trainer.params.agent, trainer.params.mixer = make_q_params(
            rng, trainer.qnet, trainer.mixer)
        episodes, batch = make_batch(rng, m)
        alpha = float(rng.random())
        trainer.cfg = trainer.cfg.replace(alpha=alpha)
        t_star = trainer.prepare_block(batch)["t_star"]
        for j, episode in enumerate(episodes):
            slow = brute_force_subgoal(trainer.params.agent, trainer.params.mixer,
                                       episode, alpha)
            mismatches += int(not np.array_equal(t_star[:, j], slow))
        trainer.cfg = trainer.cfg.replace(alpha=0.0)
        shared = trainer.prepare_block(batch)["t_star"]
        alpha_zero_violations += int((shared != shared[0]).any(axis=0).sum())
    report(2, f"oracle equivalence ({cases} cases, {mismatches} mismatches, "
              f"{alpha_zero_violations} alpha=0 violations)",
           mismatches == 0 and alpha_zero_violations == 0)


# -- criterion 3: gradient fidelity ----------------------------------------------------


def _sample_coords(rng, params, n):
    """Spread n coordinate probes across all arrays of a parameter dict."""
    names = sorted(params)
    n = min(n, sum(params[k].size for k in names))
    coords = {k: set() for k in names}
    total = 0
    while total < n:
        name = names[int(rng.integers(len(names)))]
        idx = int(rng.integers(params[name].size))
        if idx not in coords[name]:
            coords[name].add(idx)
            total += 1
    return {k: sorted(v) for k, v in coords.items()}


def _check_component(rng, params, build_loss, n_coords=110, rtol=1e-4, groups=None):
    """Analytic vs central differences on sampled coordinates; near-zero
    coordinates (below the finite-difference noise floor) must agree
    absolutely. With ``groups`` (name prefixes), n_coords are sampled in
    each group and each group must carry a gradient above the floor."""
    tensors = as_tensors(params)
    grads = gradient(build_loss(tensors), tensors)
    if groups is None:
        coords = _sample_coords(rng, params, n_coords)
    else:
        coords = {}
        for g in groups:
            coords.update(_sample_coords(
                rng, {k: v for k, v in params.items() if k.startswith(g + ".")}, n_coords))
    fd = finite_diff_grad(lambda p: loss_value(build_loss(as_tensors(p))), params,
                          step=1e-5, coords=coords)
    worst = 0.0
    live = set()
    for name, idxs in coords.items():
        for idx in idxs:
            a = grads[name].reshape(-1)[idx]
            f = fd[name].reshape(-1)[idx]
            scale = max(abs(a), abs(f))
            if scale < 1e-6:
                assert abs(a - f) < 1e-8
                continue
            live.update(g for g in groups or () if name.startswith(g + "."))
            worst = max(worst, abs(a - f) / scale)
    assert live == set(groups or ()), f"groups without a live gradient: {set(groups) - live}"
    assert worst < rtol, f"max relative error {worst:.3e}"
    return worst


def test_criterion_3_gradient_fidelity(rng):
    _criterion_3(rng, share_params=False)


def test_criterion_3_gradient_fidelity_shared_params(rng):
    _criterion_3(rng, share_params=True)


def _criterion_3(rng, share_params):
    """Trainer.block_losses against central differences with every shaping
    weight on and the trainer's prep held constant, then each loss kernel
    alone; with share_params the one shared slot sums every agent's gradient."""
    lams = dict(lam=0.5, lam_i=0.3, lam_e=0.2, lam_d=0.4, share_params=share_params)
    tr = make_stub_trainer(obs_dim=4, n_actions=3, hidden=5, embed=4, repr_hidden=16, **lams)
    slots = range(1 if share_params else 2)
    tr.params.target_agent, tr.params.target_mixer = make_q_params(
        rng, tr.qnet, tr.mixer, n_agents=len(slots))
    _, batch = make_batch(rng, 3, t_max=5, obs_dim=4, n_actions=3)
    prep = tr.prepare_block(batch)
    flat = dict(tr.params.named_online())
    groups = (*(f"agent.{i}" for i in slots), "mixer", *(f"repr.{i}" for i in slots))

    def composite(p):
        return tr.block_losses(ParamSet.from_named(p.items()), batch, prep)[0]

    worst = [_check_component(rng, flat, composite, n_coords=30, groups=groups)]

    # L_TD alone: the same trainer with every shaping weight at zero
    plain = make_stub_trainer(obs_dim=4, n_actions=3, hidden=5, embed=4, repr_hidden=16,
                              lam=0.0, lam_i=0.0, lam_e=0.0, lam_d=0.0,
                              share_params=share_params)
    plain.params = tr.params
    plain_prep = plain.prepare_block(batch)
    worst.append(_check_component(
        rng, {k: v for k, v in flat.items() if not k.startswith("repr.")},
        lambda p: plain.block_losses(ParamSet.from_named(p.items()), batch, plain_prep)[0],
        n_coords=30, groups=[g for g in groups if not g.startswith("repr.")]))

    # the shaping terms alone, through the kernels block_losses calls
    obs, actions = batch["obs"], batch["actions"]
    w_ep = batch["valid"] / batch["valid"].sum(axis=1)[:, None]
    y_i = td_targets(prep["r_individual"], batch["dones"], rng.normal(size=actions.shape),
                     tr.cfg.gamma)
    worst.append(_check_component(
        rng, tr.params.agent,
        lambda p: weighted_sq_error(take_along_last(tr.qnet.unroll(p, obs), actions), y_i, w_ep)))
    worst.append(_check_component(
        rng, tr.params.agent,
        lambda p: entropy_correction(tr.qnet.unroll(p, obs), prep["correction_window"])))
    worst.append(_check_component(
        rng, tr.params.repr,
        lambda p: repr_loss(tr.repr_net, p, obs, prep["goal_obs"], prep["dq_targets"], w_ep)))

    report(3, f"gradient fidelity (max rel err {max(worst):.2e}; block_losses with all "
              f"weights on over {len(groups)} groups, L_TD, L_i, L_E, L_D)",
           max(worst) < 1e-4)


# -- criterion 4: mixer monotonicity ---------------------------------------------------


def test_criterion_4_mixer_monotonicity():
    rng = np.random.default_rng(44)
    mixer = MonotonicMixer(3, 5, 8)
    violations = 0
    per_batch = 50
    for _ in range(10_000 // per_batch):
        params = mixer.init_params(rng)
        q = rng.normal(size=(per_batch, 3)) * 3
        dq = rng.uniform(0, 2, size=(per_batch, 3))
        s = rng.normal(size=(per_batch, 5))
        lo = mixer.forward(params, q, s)
        hi = mixer.forward(params, q + dq, s)
        violations += int((hi < lo - 1e-12).sum())

    grad_bad = 0
    from goalmix.autodiff import Tensor

    for _ in range(1000 // per_batch):
        params = mixer.init_params(rng)
        q = Tensor(rng.normal(size=(per_batch, 3)) * 2)
        s = rng.normal(size=(per_batch, 5))
        mixer.forward(params, q, s).sum().backward()
        grad_bad += int((q.grad < 0.0).sum())

    report(4, f"monotonicity ({violations} pair violations, {grad_bad} negative gradients)",
           violations == 0 and grad_bad == 0)


# -- criterion 5: QMIX reduction bitwise ----------------------------------------------


def test_criterion_5_qmix_reduction_bitwise():
    def build(seed):
        cfg = TrainConfig(seed=seed, lam=0.0, lam_i=0.0, lam_e=0.0, lam_d=0.0,
                          eval_episodes=2).validate()
        return Trainer(cfg, lambda: SkirmishEnv(preset("skirmish-2v2")),
                       rng=np.random.default_rng(seed))

    a, b = build(31), build(31)
    a.collect_episode()
    b.collect_episode()
    a.train_block()
    reference_qmix_block(b.qnet, b.mixer, b.params, b.opt, b.buffer, b.cfg, b.rng)
    named_a = dict(a.params.named_online())
    named_b = dict(b.params.named_online())
    identical = named_a.keys() == named_b.keys() and all(
        np.array_equal(named_a[k], named_b[k]) for k in named_a
    )
    report(5, "QMIX reduction bitwise", identical)


# -- criterion 6: tabular end-to-end ---------------------------------------------------


def _greedy_visits(trainer, game):
    env = TabularEnv(game, episode_limit=10)
    obs, _ = env.reset(np.random.default_rng(0))
    hidden = trainer.qnet.initial_hidden(2, 1)
    visits = {}
    while True:
        s = env.s
        q, hidden = trainer.qnet.step(trainer.params.agent, obs[:, None], hidden)
        acts = [masked_argmax(q[i, 0], env.avail_actions()[i]) for i in range(2)]
        visits.setdefault(s, tuple(acts))
        result = env.step(acts)
        obs = result.obs
        if result.done:
            return visits


def test_criterion_6_tabular_end_to_end():
    game = coordination_chain()
    optimal = optimal_joint_actions(game, 0.99)
    passed = 0
    seeds = range(5)
    for seed in seeds:
        cfg = TrainConfig(seed=seed, hidden_dim=32, eps_anneal_steps=6000,
                          max_env_steps=16000, eval_interval=10**9).validate()
        trainer = Trainer(cfg, lambda: TabularEnv(game, episode_limit=10),
                          rng=np.random.default_rng(seed))
        trainer.collect_episode()
        while trainer.env_steps < cfg.max_env_steps:
            trainer.train_block()
        visits = _greedy_visits(trainer, game)
        ok = len(visits) == game.n_states and all(
            visits[s] in optimal[s] for s in visits
        )
        passed += ok
    report(6, f"tabular policy match ({passed}/5 seeds within 16k steps)", passed == 5)


# -- criterion 9: bitwise reproducibility of the pinned computations -------------------


def _representative_fingerprint():
    """A digest of the seed-pinned computations behind criteria 1-6."""
    rng = np.random.default_rng(909)
    stub = make_stub_trainer(seed=909, alpha=0.37)
    _, batch = make_batch(rng, 4)
    prep = stub.prepare_block(batch)

    cfg = TrainConfig(seed=909, eval_episodes=2).validate()
    trainer = Trainer(cfg, lambda: SkirmishEnv(preset("skirmish-2v2")),
                      rng=np.random.default_rng(909))
    trainer.collect_episode()
    r1 = trainer.train_block()
    r2 = trainer.train_block()
    params = dict(trainer.params.named_online())
    return (
        prep["t_star"].tobytes(),
        prep["goal_obs"].tobytes(),
        r1.loss_total, r1.loss_td, r2.loss_total, r2.mean_proxy_reward,
        {k: v.tobytes() for k, v in params.items()},
        {k: v.tobytes() for k, v in prep.items()},
    )


def test_criterion_9_bitwise_stability():
    first = _representative_fingerprint()
    second = _representative_fingerprint()
    same = first == second
    report(9, "bitwise stability across two runs", same)


# -- criteria 7 and 8: directional desk-scale experiments (slow) -----------------------

EXPERIMENT_STEPS = 36_000
EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)


def _final_win_rates(variants, env_name, out_dir, seeds=EXPERIMENT_SEEDS,
                     steps=EXPERIMENT_STEPS):
    from goalmix.cli import run_ablation_matrix

    base = TrainConfig(env=env_name, reward_mode="sparse", max_env_steps=steps,
                       eval_interval=200, eval_episodes=64).validate()
    _, results = run_ablation_matrix(base, list(seeds), variants, out_dir, jobs=2)
    wins = {v: [] for v in variants}
    for variant, seed, win, status in results:
        assert status == "ok", f"{variant} seed {seed}: {status}"
        wins[variant].append(win)
    return {v: np.median(w) for v, w in wins.items()}, wins


@pytest.mark.slow
def test_criterion_7_skirmish_directional(tmp_path):
    medians, wins = _final_win_rates(["full", "qmix", "random_subgoal"],
                                     "skirmish-2v2", tmp_path / "c7")
    print(f"criterion 7 win rates: {wins}")
    ok = medians["full"] > medians["qmix"] and medians["full"] > medians["random_subgoal"]
    report(7, f"skirmish direction (medians full={medians['full']:.3f}, "
              f"qmix={medians['qmix']:.3f}, random={medians['random_subgoal']:.3f})", ok)


@pytest.mark.slow
def test_criterion_8_cliff_representation(tmp_path):
    medians, wins = _final_win_rates(["full", "no_repr"], "cliff-2v2",
                                     tmp_path / "c8", steps=80_000)
    print(f"criterion 8 win rates: {wins}")
    ok = medians["full"] > medians["no_repr"]
    report(8, f"cliff direction (medians repr={medians['full']:.3f}, "
              f"no_repr={medians['no_repr']:.3f})", ok)
