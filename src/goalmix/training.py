"""Blockwise training loop and the composite loss.

One block = one gradient step: sample M episodes and run the online
nets on them once (:meth:`Trainer.forward`, in graph mode). The data of
that forward are the block-start values from which subgoals and shaped
rewards are picked (:meth:`Trainer.prepare_block`); its nodes build

    L = L_TD + sum_i [ lam_i * L_i + lam_e * sum_{t>=t*} L_corr + lam_d * L_repr ]

summed over the M episodes (:meth:`Trainer.block_losses`). Then take one
RMSProp step on every online parameter, sync the target copies on the
configured episode cadence, and collect one fresh epsilon-greedy episode.
The parameters live in one float64 vector per role
(:meth:`ParamSet.packed`), so the clip, the optimiser step, the finite
checks and the sync each run over a whole vector.

The TD targets bootstrap from the frozen target nets, which change only
at a sync. An episode's bootstrap, max_u Q̄_i(o_{t+1}, u) and
Q̄_tot(s_{t+1}) (:meth:`Trainer.target_bootstrap`), is therefore computed
once per target generation, kept in the trainer's ``bootstraps`` dict
under the episode, and reused by every block that samples the episode
again before the next sync, which empties the dict; a block runs the
target nets only on its rows without an entry, and before its online
forward, so that unroll never adds to the live graph.

Each equation is one batched kernel: the subgoal score, D_Q, the
embedded distance and the shaped rewards live in :mod:`goalmix.subgoals`
and :mod:`goalmix.rewards`; the TD targets and the entropy correction
are below. Zero-weighted loss components are skipped entirely, so with
lam = lam_i = lam_e = lam_d = 0 a block reduces bitwise to a plain
monotonic-mixing TD step (the QMIX baseline used by the ablations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .agents import EpsilonSchedule, RecurrentQNet, act_epsilon_greedy, masked_argmax
from .autodiff import Tensor, exp, logsumexp_last, take_along_last
from .mixer import MonotonicMixer
from .nn import (
    NonFiniteGradientError,
    ParamSet,
    RMSProp,
    as_tensors,
    clip_grads_global,
    flatten,
    gradient,
    stack_slots,
    sync_targets,
    weighted_sq_error,
)
from .replay import Episode, ReplayBuffer, stack_records
from .rewards import (
    ReprNet,
    actionable_distance,
    individual_rewards,
    intrinsic_rewards,
    proxy_reward,
    repr_loss,
)
from .subgoals import at_subgoal, random_subgoals, select_subgoals

class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient turns non-finite; carries the block report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class BlockReport:
    block: int
    env_steps: int
    episodes_collected: int
    epsilon: float
    loss_total: float
    loss_td: float
    loss_individual: float
    loss_correction: float
    loss_repr: float
    mean_proxy_reward: float
    subgoal_t_mean: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# batched episode arrays
# ---------------------------------------------------------------------------


def stack_episodes(episodes):
    """Stack M equally padded episodes into contiguous batch arrays
    (:func:`goalmix.replay.stack_records`): obs (N, M, T, D), actions
    (N, M, T), avail (N, M, T, U), states (M, T, S), rewards (M, T), and
    dones and valid (M, T) as float64. The batch also carries the list
    itself, whose episodes key the trainer's cached target bootstraps
    (:meth:`Trainer.batch_bootstrap`)."""
    return {**stack_records(episodes), "episodes": episodes}


def _masked_max(q, avail):
    return np.max(np.where(avail, q, -np.inf), axis=-1)


def _data(x):
    """The values of a graph node, or the array itself."""
    return x.data if isinstance(x, Tensor) else x


# ---------------------------------------------------------------------------
# loss kernels (Tensors in graph mode, ndarrays otherwise)
# ---------------------------------------------------------------------------


def loss_value(x):
    """Scalar float of a loss, whether it is a Tensor or an ndarray."""
    return float(x.data) if isinstance(x, Tensor) else float(x)


def td_targets(rewards, dones, next_values, gamma):
    """y_t = r_t + gamma * (1 - done_t) * V_{t+1}; no bootstrap on terminal steps."""
    return rewards + gamma * (1.0 - dones) * next_values


def entropy_correction(q, window):
    """Sum over the window of KL(softmax(Q) || uniform) = sum_u pi log pi + log U.

    q (..., T, U), window (..., T) of 0/1 weights.
    """
    shape = q.shape
    ls = q - logsumexp_last(q).reshape(*shape[:-1], 1)
    kl = (exp(ls) * ls).sum(axis=-1) + np.log(shape[-1])
    return (kl * window).sum()


def correction_window(t_star, valid, mode):
    """0/1 weights (N, M, T) of the steps the entropy correction covers:
    the valid steps at and after t_star for "normal", every valid step
    for "over"."""
    if mode == "over":
        window = np.broadcast_to(valid[None], t_star.shape + valid.shape[1:])
    else:
        window = (np.arange(valid.shape[1]) >= t_star[:, :, None]) * valid[None]
    return window.astype(np.float64)


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------


class Trainer:
    """Owns parameters, optimiser state, the replay buffer, the target
    bootstrap cache and both envs."""

    def __init__(self, config, env_factory, rng=None):
        self.cfg = config
        self.env = env_factory()
        self.eval_env = env_factory()
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)

        n = self.env.n_agents
        self.n_agents = n
        self.qnet = RecurrentQNet(self.env.obs_dim, self.env.n_actions, config.hidden_dim)
        self.mixer = MonotonicMixer(n, self.env.state_dim, config.mixer_embed_dim)
        # representation nets exist only where L_D trains them
        self.repr_net = (ReprNet(self.env.obs_dim, self.env.n_actions, config.repr_hidden_dim)
                         if config.lam_d > 0 else None)

        # one slot per agent, or one slot that broadcasting shares
        slots = 1 if config.share_params else n
        self.params = ParamSet(
            agent=stack_slots([self.qnet.init_params(self.rng) for _ in range(slots)]),
            mixer=self.mixer.init_params(self.rng),
            repr=stack_slots([] if self.repr_net is None
                             else [self.repr_net.init_params(self.rng) for _ in range(slots)]),
        )
        sync_targets(self.params)

        self.opt = RMSProp(lr=config.lr, decay=config.rms_decay, eps=config.rms_eps)
        self.buffer = ReplayBuffer(config.buffer_capacity)
        self.schedule = EpsilonSchedule(
            config.eps_start, config.eps_end, config.eps_anneal_steps
        )
        self.env_steps = 0
        self.episodes_collected = 0
        self.block = 0
        self._next_sync = config.target_interval
        # each replayed episode's target bootstrap, a read-only (N + 1, T)
        # array, computed under the target vector ``bootstrap_target``
        self.bootstraps = {}
        self.bootstrap_target = None
        # an open text file that train_block writes each block's subgoals to
        self.subgoal_log = None

    # -- data collection ----------------------------------------------------

    def collect_episode(self):
        """Roll out one epsilon-greedy episode, record its histories into an
        :class:`Episode` and push it to the buffer."""
        env = self.env
        n, t_max = env.n_agents, env.episode_limit
        obs_hist = np.zeros((n, t_max, env.obs_dim))
        act_hist = np.zeros((n, t_max), dtype=np.int64)
        avail_hist = np.zeros((n, t_max, env.n_actions), dtype=bool)
        state_hist = np.zeros((t_max, env.state_dim))
        rew_hist = np.zeros(t_max)
        done_hist = np.zeros(t_max, dtype=bool)

        obs, state = env.reset(self.rng)
        # prepared after any gradient step, so it acts on the current parameters
        policy = self.qnet.policy(self.params.agent, n, 1)
        t = 0
        while True:
            avail = env.avail_actions()
            obs_hist[:, t] = obs
            state_hist[t] = state
            avail_hist[:, t] = avail
            q = self.qnet.step(policy, obs[:, None])
            actions = act_epsilon_greedy(q[:, 0], self.schedule.value(self.env_steps), self.rng, avail)
            result = env.step(actions)
            act_hist[:, t] = actions
            rew_hist[t] = result.reward
            done_hist[t] = result.done
            self.env_steps += 1
            obs, state = result.obs, result.state
            t += 1
            if result.done:
                break
        valid = np.zeros(t_max, dtype=bool)
        valid[:t] = True
        avail_hist[:, t:, 0] = True  # padded steps: no-op only, keeps maxes finite
        ep = Episode(
            obs=obs_hist, actions=act_hist, avail=avail_hist, states=state_hist,
            rewards=rew_hist, dones=done_hist, valid=valid, length=t,
            uid=self.episodes_collected,
        )
        self.buffer.push(ep)
        self.episodes_collected += 1
        return ep

    def evaluate(self, n_episodes=None):
        """Greedy decentralised execution on ``eval_env``, which records
        nothing; returns the win fraction."""
        if n_episodes is None:
            n_episodes = self.cfg.eval_episodes
        if n_episodes < 1:
            raise ValueError(f"n_episodes must be at least 1, got {n_episodes}")
        eval_rng = np.random.default_rng(int(self.rng.integers(2**63)))
        env = self.eval_env
        wins = 0
        for _ in range(n_episodes):
            obs, _ = env.reset(eval_rng)
            policy = self.qnet.policy(self.params.agent, env.n_agents, 1)
            done = False
            while not done:
                avail = env.avail_actions()
                q = self.qnet.step(policy, obs[:, None])
                result = env.step(masked_argmax(q[:, 0], avail))
                obs, done = result.obs, result.done
            wins += int(result.won)
        return wins / n_episodes

    # -- the online forward (block-start values and graph nodes alike) -------

    def forward(self, params, batch):
        """One evaluation of the online nets (a ParamSet) on a batch: ``q``
        (N, M, T, U), ``q_taken`` (N, M, T), ``q_tot`` (M, T) and, when a block
        needs it, ``emb`` (N, M, T, E), phi of the observations (the
        observations themselves when lam_d = 0). Arrays in give arrays out;
        Tensors in give graph nodes, whose data are the block-start values."""
        n, m, t_len, d = batch["obs"].shape
        q = self.qnet.unroll(params.agent, batch["obs"])
        q_taken = take_along_last(q, batch["actions"])
        out = {"q": q, "q_taken": q_taken,
               "q_tot": self.mixer.forward(params.mixer, q_taken, batch["states"])}
        if self.repr_net is not None:  # L_D, and the intrinsic reward if lam > 0
            emb = self.repr_net.forward(params.repr, batch["obs"].reshape(n, m * t_len, d))
            out["emb"] = emb.reshape(n, m, t_len, -1)
        elif self.cfg.lam > 0:  # the intrinsic reward under phi = identity
            out["emb"] = batch["obs"]
        return out

    # -- block preparation (block-start side, no gradients) ------------------

    def prepare_block(self, batch, online):
        """Subgoals, distance targets and shaped rewards for a sampled batch,
        from ``online``, the :meth:`forward` of the block-start parameters."""
        cfg = self.cfg
        q_seq, q_tot = _data(online["q"]), _data(online["q_tot"])
        valid = batch["valid"]
        q_max = _masked_max(q_seq, batch["avail"])                       # (N, M, T)

        if cfg.subgoal_mode == "random":
            t_star = random_subgoals(valid, self.n_agents, self.rng)
        else:
            t_star = select_subgoals(q_max, q_tot, valid, cfg.alpha)     # (N, M)

        out = {"t_star": t_star, "q_max_snapshot": q_max}

        intr = None
        if cfg.lam > 0:
            intr = intrinsic_rewards(_data(online["emb"]), t_star)
            out["intrinsics"] = intr
            out["proxy"] = proxy_reward(batch["rewards"], intr, cfg.lam)
        else:
            out["proxy"] = batch["rewards"].copy()

        if cfg.lam_i > 0:
            out["r_individual"] = individual_rewards(q_max, out["proxy"], intr, cfg.lam)

        if cfg.lam_d > 0:
            out["dq_targets"] = actionable_distance(q_seq, at_subgoal(q_seq, t_star))

        if cfg.lam_e > 0:
            out["correction_window"] = correction_window(t_star, valid, cfg.correction)

        return out

    # -- loss (gradient side) ------------------------------------------------

    def block_losses(self, batch, prep, online, bootstrap):
        """Composite loss over the batch as a scalar, plus parts.

        ``online`` is the :meth:`forward` that ``prep`` was built from; the
        loss is a Tensor when its values are graph nodes. ``bootstrap`` is
        the batch's :meth:`batch_bootstrap`, the constants of the TD
        targets, which :meth:`train_block` computes before the online
        forward.
        """
        cfg = self.cfg
        n_valid = batch["valid"].sum(axis=1)
        w_ep = batch["valid"] / n_valid[:, None]                         # (M, T)
        gamma, dones = cfg.gamma, batch["dones"]
        tq_next, tot_next = bootstrap

        loss_td = weighted_sq_error(
            online["q_tot"], td_targets(prep["proxy"], dones, tot_next, gamma), w_ep)

        total = loss_td
        parts = {"L_TD": loss_td.item(), "sum_Li": 0.0, "sum_LE": 0.0, "sum_LD": 0.0}

        if cfg.lam_i > 0:
            y_i = td_targets(prep["r_individual"], dones, tq_next, gamma)
            loss_i = weighted_sq_error(online["q_taken"], y_i, w_ep)
            total = total + cfg.lam_i * loss_i
            parts["sum_Li"] = loss_i.item()

        if cfg.lam_e > 0:
            loss_e = entropy_correction(online["q"], prep["correction_window"])
            total = total + cfg.lam_e * loss_e
            parts["sum_LE"] = loss_e.item()

        if cfg.lam_d > 0:
            loss_d = repr_loss(online["emb"], prep["t_star"], prep["dq_targets"], w_ep)
            total = total + cfg.lam_d * loss_d
            parts["sum_LD"] = loss_d.item()

        return total, parts

    # -- the target bootstrap (constants of the TD targets) ------------------

    def target_bootstrap(self, obs, avail, states):
        """The bootstraps of the TD targets under the target nets, for M
        episodes: ``tq_next`` (N, M, T), max_u Q̄_i(o_{t+1}, u) over the
        available actions, and ``tot_next`` (M, T), Q̄_tot of those values at
        s_{t+1}; both 0 at the last step. ``obs`` (N, M, T, D), ``avail``
        (N, M, T, U) and ``states`` (M, T, S) are batch arrays."""
        tq_max = _masked_max(self.qnet.unroll(self.params.target_agent, obs), avail)
        tq_next = np.zeros_like(tq_max)
        tq_next[:, :, :-1] = tq_max[:, :, 1:]
        states_next = np.zeros_like(states)
        states_next[:, :-1] = states[:, 1:]
        return tq_next, self.mixer.forward(self.params.target_mixer, tq_next, states_next)

    def batch_bootstrap(self, batch):
        """:meth:`target_bootstrap` of a :func:`stack_episodes` batch. Each
        episode's entry in ``bootstraps`` is reused; the target nets run
        once, in batch order, on the rows without one, and store their
        entries. The entries hold while ``params.packed().target`` (so an
        unpacked set is packed here) is ``bootstrap_target``: every packing
        and every packed :func:`sync_targets` makes a new target vector, so
        a new one empties the dict, and so does :meth:`train_block`'s sync."""
        episodes, cache = batch["episodes"], self.bootstraps
        target = self.params.packed().target
        if target is not self.bootstrap_target:  # repacked, or synced outside a block
            cache.clear()
            self.bootstrap_target = target
        tq_next = np.empty(batch["obs"].shape[:3])                      # (N, M, T)
        tot_next = np.empty(batch["states"].shape[:2])                   # (M, T)
        hit = [ep in cache for ep in episodes]
        rows = [m for m, h in enumerate(hit) if h]
        miss = [m for m, h in enumerate(hit) if not h]
        if rows:
            cached = np.concatenate([cache[episodes[m]] for m in rows]).reshape(
                len(rows), -1, tq_next.shape[2])                       # (H, N + 1, T)
            tq_next[:, rows] = cached[:, :-1].swapaxes(0, 1)
            tot_next[rows] = cached[:, -1]
        if miss:
            # np.take keeps the sub-batch C-contiguous, like a stacked batch
            fresh_tq, fresh_tot = self.target_bootstrap(
                np.take(batch["obs"], miss, axis=1), np.take(batch["avail"], miss, axis=1),
                np.take(batch["states"], miss, axis=0))
            tq_next[:, miss], tot_next[miss] = fresh_tq, fresh_tot
            for j, m in enumerate(miss):
                entry = np.concatenate([fresh_tq[:, j], fresh_tot[j][None]])
                entry.flags.writeable = False
                cache[episodes[m]] = entry
        return tq_next, tot_next

    # -- one block ----------------------------------------------------------

    def _wrap_online(self):
        """The online groups as Tensors, for graph mode."""
        p = self.params
        return ParamSet(agent=p.agent, mixer=p.mixer, repr=p.repr).map(as_tensors)

    def train_block(self) -> BlockReport:
        cfg = self.cfg
        flat = self.params.packed()
        if len(self.buffer) == 0:
            self.collect_episode()

        episodes = self.buffer.sample(cfg.batch_size, self.rng)
        batch = stack_episodes(episodes)
        # the target bootstrap first: the rows that miss their cached entry
        # (all of them after a sync) run the target nets before the online
        # graph exists, so the two never peak together
        bootstrap = self.batch_bootstrap(batch)
        tensors = self._wrap_online()
        # one online forward: its data are the block-start values the prep
        # needs (parameters change only after the gradient step below), its
        # nodes are what the losses differentiate
        online = self.forward(tensors, batch)
        prep = self.prepare_block(batch, online)
        loss, parts = self.block_losses(batch, prep, online, bootstrap)

        valid = batch["valid"].astype(bool)
        report = BlockReport(
            block=self.block,
            env_steps=self.env_steps,
            episodes_collected=self.episodes_collected,
            epsilon=self.schedule.value(self.env_steps),
            loss_total=loss.item(),
            loss_td=parts["L_TD"],
            loss_individual=parts["sum_Li"],
            loss_correction=parts["sum_LE"],
            loss_repr=parts["sum_LD"],
            mean_proxy_reward=float(prep["proxy"][valid].mean()),
            subgoal_t_mean=prep["t_star"].mean(axis=1).tolist(),
        )
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at block {self.block}", report)
        try:
            grads = gradient(loss, tensors)
            grad = clip_grads_global(flatten([grads.agent, grads.mixer, grads.repr]),
                                     cfg.grad_clip_norm, flat.views)
            self.opt.step(flat.online, grad, flat.views)
        except NonFiniteGradientError as err:
            raise TrainingDiverged(str(err), report) from err
        if not flat.all_finite():
            raise TrainingDiverged(f"non-finite parameters after block {self.block}", report)

        if self.episodes_collected >= self._next_sync:
            sync_targets(self.params)
            self.bootstraps.clear()  # stale, however the sync wrote the targets
            self._next_sync += cfg.target_interval

        self._log_subgoals(batch, prep)
        self.collect_episode()
        self.block += 1
        return report

    def _log_subgoals(self, batch, prep):
        if self.subgoal_log is None:
            return
        for (i, m_idx), t_star in np.ndenumerate(prep["t_star"]):
            row = {"block": self.block, "episode_uid": int(batch["episodes"][m_idx].uid),
                   "agent": i, "t_star": int(t_star)}
            self.subgoal_log.write(json.dumps(row) + "\n")
