"""Blockwise training loop and the composite loss.

One block = one gradient step: sample M episodes, pick subgoals and
shape rewards for the whole batch under the block-start parameters
(:meth:`Trainer.prepare_block`), build

    L = L_TD + sum_i [ lam_i * L_i + lam_e * sum_{t>=t*} L_corr + lam_d * L_repr ]

summed over the M episodes (:meth:`Trainer.block_losses`), take one
RMSProp step on every online parameter, sync the target copies on the
configured episode cadence, then collect one fresh epsilon-greedy
episode into the buffer. Parameters change only after the gradient
step, so everything computed before it sees the block-start values.

Each equation is one batched kernel: the subgoal score, D_Q and the
shaped rewards live in :mod:`goalmix.subgoals` and
:mod:`goalmix.rewards`; the TD targets and the entropy correction are
below. Zero-weighted loss components are skipped entirely, so with
lam = lam_i = lam_e = lam_d = 0 a block reduces bitwise to a plain
monotonic-mixing TD step (the QMIX baseline used by the ablations).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .agents import EpsilonSchedule, RecurrentQNet, act_epsilon_greedy, masked_argmax
from .autodiff import Tensor, exp, logsumexp_last, moveaxis, take_along_last
from .mixer import MonotonicMixer
from .nn import (
    NonFiniteGradientError,
    ParamSet,
    RMSProp,
    as_tensors,
    clip_grads_global,
    gradient,
    stack_slots,
    sync_targets,
    weighted_sq_error,
)
from .replay import Episode, ReplayBuffer
from .rewards import (
    IdentityRepr,
    ReprNet,
    actionable_distance,
    individual_rewards,
    intrinsic_rewards,
    proxy_reward,
    repr_loss,
)
from .subgoals import at_subgoal, random_subgoals, select_subgoals

METRICS_COLUMNS = [
    "env_steps", "block", "eval_win_rate", "L_TD",
    "sum_Li", "sum_LE", "sum_LD", "mean_Rt", "epsilon",
]


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
    """Stack M equally padded episodes into contiguous batch arrays."""
    return {
        "obs": np.stack([e.obs for e in episodes], axis=1),        # (N, M, T, D)
        "actions": np.stack([e.actions for e in episodes], axis=1),
        "avail": np.stack([e.avail for e in episodes], axis=1),
        "states": np.stack([e.states for e in episodes]),          # (M, T, S)
        "rewards": np.stack([e.rewards for e in episodes]),        # (M, T)
        "dones": np.stack([e.dones for e in episodes]).astype(np.float64),
        "valid": np.stack([e.valid for e in episodes]).astype(np.float64),
        "uids": np.array([e.uid for e in episodes], dtype=np.int64),
    }


def _masked_max(q, avail):
    return np.max(np.where(avail, q, -np.inf), axis=-1)


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
    """Owns parameters, optimiser state, the replay buffer and both envs."""

    def __init__(self, config, env_factory, rng=None):
        self.cfg = config
        self.env = env_factory()
        self.eval_env = env_factory()
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)

        n = self.env.n_agents
        self.n_agents = n
        self.qnet = RecurrentQNet(self.env.obs_dim, self.env.n_actions, config.hidden_dim)
        self.mixer = MonotonicMixer(n, self.env.state_dim, config.mixer_embed_dim)
        if config.disable_repr:
            self.repr_net = IdentityRepr(self.env.obs_dim)
        else:
            self.repr_net = ReprNet(self.env.obs_dim, self.env.n_actions, config.repr_hidden_dim)

        # one slot per agent, or one slot that broadcasting shares
        slots = 1 if config.share_params else n
        self.params = ParamSet(
            agent=stack_slots([self.qnet.init_params(self.rng) for _ in range(slots)]),
            mixer=self.mixer.init_params(self.rng),
            repr=stack_slots([] if config.disable_repr
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
        self._subgoal_log_fh = None

    # -- data collection ----------------------------------------------------

    def collect_episode(self):
        """Roll out one epsilon-greedy episode and push it to the buffer."""
        ep, _ = self._rollout(self.env, self.rng, greedy=False)
        self.buffer.push(ep)
        self.episodes_collected += 1
        return ep

    def _rollout(self, env, rng, greedy):
        n, t_max = env.n_agents, env.episode_limit
        obs_hist = np.zeros((n, t_max, env.obs_dim))
        act_hist = np.zeros((n, t_max), dtype=np.int64)
        avail_hist = np.zeros((n, t_max, env.n_actions), dtype=bool)
        state_hist = np.zeros((t_max, env.state_dim))
        rew_hist = np.zeros(t_max)
        done_hist = np.zeros(t_max, dtype=bool)

        obs, state = env.reset(rng)
        hidden = self.qnet.initial_hidden(n, 1)
        won = False
        t = 0
        while True:
            avail = env.avail_actions()
            obs_hist[:, t] = obs
            state_hist[t] = state
            avail_hist[:, t] = avail
            eps = 0.0 if greedy else self.schedule.value(self.env_steps)
            q, hidden = self.qnet.step(self.params.agent, obs[:, None], hidden)
            if greedy:
                actions = [masked_argmax(q[i, 0], avail[i]) for i in range(n)]
            else:
                actions = [act_epsilon_greedy(q[i, 0], eps, rng, avail[i]) for i in range(n)]
            result = env.step(actions)
            act_hist[:, t] = actions
            rew_hist[t] = result.reward
            done_hist[t] = result.done
            obs, state = result.obs, result.state
            if not greedy:
                self.env_steps += 1
            t += 1
            if result.done:
                won = result.won
                break
        valid = np.zeros(t_max, dtype=bool)
        valid[:t] = True
        avail_hist[:, t:, 0] = True  # padded steps: no-op only, keeps maxes finite
        ep = Episode(
            obs=obs_hist, actions=act_hist, avail=avail_hist, states=state_hist,
            rewards=rew_hist, dones=done_hist, valid=valid, length=t,
            uid=self.episodes_collected,
        )
        return ep, won

    def evaluate(self, n_episodes=None):
        """Greedy decentralised execution; returns the win fraction."""
        if n_episodes is None:
            n_episodes = self.cfg.eval_episodes
        if n_episodes < 1:
            raise ValueError(f"n_episodes must be at least 1, got {n_episodes}")
        eval_rng = np.random.default_rng(int(self.rng.integers(2**63)))
        wins = 0
        for _ in range(n_episodes):
            _, won = self._rollout(self.eval_env, eval_rng, greedy=True)
            wins += int(won)
        return wins / n_episodes

    # -- block preparation (block-start side, no gradients) ------------------

    def prepare_block(self, batch, q_seq=None):
        """Subgoals, distance targets and shaped rewards for a sampled batch.

        ``q_seq`` (N, M, T, U) are the block-start Q values of every agent;
        the trainer passes the data of the online graph unroll (identical to
        a separate evaluation and cheaper), tests may omit it.
        """
        cfg = self.cfg
        n = self.n_agents

        if q_seq is None:
            q_seq = self.qnet.unroll(self.params.agent, batch["obs"])      # (N, M, T, U)
        _, m, t_len, _ = q_seq.shape
        valid = batch["valid"]
        q_max = _masked_max(q_seq, batch["avail"])                       # (N, M, T)
        q_taken = np.take_along_axis(q_seq, batch["actions"][..., None], axis=-1)[..., 0]
        q_tot = self.mixer.forward(
            self.params.mixer,
            np.moveaxis(q_taken, 0, -1).reshape(m * t_len, n),
            batch["states"].reshape(m * t_len, -1),
        ).reshape(m, t_len)

        if cfg.subgoal_mode == "random":
            t_star = random_subgoals(valid, n, self.rng)
        else:
            alpha = {"value": cfg.alpha, "local_only": 1.0, "total_only": 0.0}[cfg.subgoal_mode]
            t_star = select_subgoals(q_max, q_tot, valid, alpha)         # (N, M)

        out = {"t_star": t_star, "goal_obs": at_subgoal(batch["obs"], t_star),
               "q_max_snapshot": q_max}

        intr = None
        if cfg.lam > 0:
            emb = self.repr_net.forward(self.params.repr, batch["obs"].reshape(n, m * t_len, -1))
            intr = intrinsic_rewards(emb.reshape(n, m, t_len, -1), t_star)
            out["intrinsics"] = intr
            out["proxy"] = proxy_reward(batch["rewards"], intr, cfg.lam)
        else:
            out["proxy"] = batch["rewards"].copy()

        if cfg.lam_i > 0 and not cfg.disable_li:
            out["r_individual"] = individual_rewards(q_max, out["proxy"], intr, cfg.lam)

        if cfg.lam_d > 0 and not cfg.disable_repr:
            out["dq_targets"] = actionable_distance(q_seq, at_subgoal(q_seq, t_star))

        if cfg.lam_e > 0 and cfg.correction != "none":
            out["correction_window"] = correction_window(t_star, valid, cfg.correction)

        return out

    # -- loss (gradient side) ------------------------------------------------

    def block_losses(self, tensors, batch, prep, q_online=None):
        """Composite loss over the batch as a scalar Tensor, plus parts.

        ``tensors`` is a ParamSet of the online groups wrapped as Tensors;
        ``q_online`` (N, M, T, U), their unroll on ``batch``, is recomputed
        when omitted.
        """
        cfg = self.cfg
        n, m, t_len, _ = batch["obs"].shape
        n_valid = batch["valid"].sum(axis=1)
        w_ep = batch["valid"] / n_valid[:, None]                         # (M, T)
        gamma, dones = cfg.gamma, batch["dones"]

        # target-side bootstraps (constants)
        tq_seq = self.qnet.unroll(self.params.target_agent, batch["obs"])
        tq_max = _masked_max(tq_seq, batch["avail"])                     # (N, M, T)
        tq_next = np.zeros_like(tq_max)
        tq_next[:, :, :-1] = tq_max[:, :, 1:]
        states_next = np.zeros_like(batch["states"])
        states_next[:, :-1] = batch["states"][:, 1:]
        tot_next = self.mixer.forward(
            self.params.target_mixer,
            np.moveaxis(tq_next, 0, -1).reshape(m * t_len, n),
            states_next.reshape(m * t_len, -1),
        ).reshape(m, t_len)

        # online unroll (graph mode), shared by every loss component
        if q_online is None:
            q_online = self.qnet.unroll(tensors.agent, batch["obs"])
        q_taken = take_along_last(q_online, batch["actions"])            # (N, M, T)

        qtot_online = self.mixer.forward(
            tensors.mixer, moveaxis(q_taken, 0, -1).reshape(m * t_len, n),
            batch["states"].reshape(m * t_len, -1))
        loss_td = weighted_sq_error(
            qtot_online.reshape(m, t_len), td_targets(prep["proxy"], dones, tot_next, gamma), w_ep
        )

        total = loss_td
        parts = {"L_TD": loss_td.item(), "sum_Li": 0.0, "sum_LE": 0.0, "sum_LD": 0.0}

        if cfg.lam_i > 0 and not cfg.disable_li:
            y_i = td_targets(prep["r_individual"], dones, tq_next, gamma)
            loss_i = weighted_sq_error(q_taken, y_i, w_ep)
            total = total + cfg.lam_i * loss_i
            parts["sum_Li"] = loss_i.item()

        if cfg.lam_e > 0 and cfg.correction != "none":
            loss_e = entropy_correction(q_online, prep["correction_window"])
            total = total + cfg.lam_e * loss_e
            parts["sum_LE"] = loss_e.item()

        if cfg.lam_d > 0 and not cfg.disable_repr:
            loss_d = repr_loss(self.repr_net, tensors.repr, batch["obs"],
                               prep["goal_obs"], prep["dq_targets"], w_ep)
            total = total + cfg.lam_d * loss_d
            parts["sum_LD"] = loss_d.item()

        return total, parts

    # -- one block ----------------------------------------------------------

    def _wrap_online(self):
        """The online groups as Tensors, for graph mode."""
        p = self.params
        return ParamSet(agent=p.agent, mixer=p.mixer, repr=p.repr).map(as_tensors)

    def train_block(self) -> BlockReport:
        cfg = self.cfg
        if len(self.buffer) == 0:
            self.collect_episode()

        episodes = self.buffer.sample(cfg.batch_size, self.rng)
        batch = stack_episodes(episodes)
        tensors = self._wrap_online()
        # the online unroll doubles as the block-start snapshot evaluation:
        # parameters are only mutated after the gradient step below
        q_online = self.qnet.unroll(tensors.agent, batch["obs"])
        prep = self.prepare_block(batch, q_seq=q_online.data)
        loss, parts = self.block_losses(tensors, batch, prep, q_online=q_online)

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
            grads = dict(gradient(loss, tensors).named_online())
            grads = clip_grads_global(grads, cfg.grad_clip_norm)
            self.opt.step(self.params.named_online(), grads)
        except NonFiniteGradientError as err:
            raise TrainingDiverged(str(err), report) from err
        if not self.params.all_finite():
            raise TrainingDiverged(f"non-finite parameters after block {self.block}", report)

        if self.episodes_collected >= self._next_sync:
            sync_targets(self.params)
            self._next_sync += cfg.target_interval

        self._log_subgoals(batch, prep)
        self.collect_episode()
        self.block += 1
        return report

    def _log_subgoals(self, batch, prep):
        if self._subgoal_log_fh is None:
            return
        for (i, m_idx), t_star in np.ndenumerate(prep["t_star"]):
            row = {"block": self.block, "episode_uid": int(batch["uids"][m_idx]),
                   "agent": i, "t_star": int(t_star)}
            self._subgoal_log_fh.write(json.dumps(row) + "\n")

    # -- full run -------------------------------------------------------------

    def run(self, max_env_steps=None, metrics_path=None, subgoal_log_path=None):
        """Train until the environment-step budget is exhausted.

        Writes one metrics row per block (eval_win_rate carries the most
        recent periodic evaluation forward). Returns the final win rate.
        """
        cfg = self.cfg
        if max_env_steps is None:
            max_env_steps = cfg.max_env_steps
        writer = fh = None
        if metrics_path is not None:
            fh = open(metrics_path, "w", newline="")
            writer = csv.writer(fh)
            writer.writerow(METRICS_COLUMNS)
        if subgoal_log_path is not None:
            self._subgoal_log_fh = open(subgoal_log_path, "w")
        try:
            if len(self.buffer) == 0:
                self.collect_episode()
            win_rate = self.evaluate()
            next_eval = cfg.eval_interval
            while self.env_steps < max_env_steps:
                report = self.train_block()
                if self.episodes_collected >= next_eval:
                    win_rate = self.evaluate()
                    next_eval += cfg.eval_interval
                if writer is not None:
                    writer.writerow([
                        report.env_steps, report.block, repr(win_rate),
                        repr(report.loss_td), repr(report.loss_individual),
                        repr(report.loss_correction), repr(report.loss_repr),
                        repr(report.mean_proxy_reward), repr(report.epsilon),
                    ])
            win_rate = self.evaluate()
            return win_rate
        finally:
            if fh is not None:
                fh.close()
            if self._subgoal_log_fh is not None:
                self._subgoal_log_fh.close()
                self._subgoal_log_fh = None
