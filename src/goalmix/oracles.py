"""Independent, deliberately slow reference implementations for tests.

Nothing here is used on a training hot path. The forward passes are
re-derived with explicit per-step loops (no code shared with the fast
modules beyond the parameter layout and the domain dataclasses), so
they double as cross-checks of the fast kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# slow network evaluation (independent of goalmix.agents / goalmix.mixer)
# ---------------------------------------------------------------------------


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def slow_q_seq(params, obs_seq):
    """Recurrent utility net forward, one step at a time: (T, D) -> (T, U)."""
    hidden = params["in.w"].shape[1]
    h = np.zeros(hidden)
    out = []
    for t in range(obs_seq.shape[0]):
        x = np.maximum(obs_seq[t] @ params["in.w"] + params["in.b"], 0.0)
        z = _sig(x @ params["gru.xz.w"] + params["gru.xz.b"] + h @ params["gru.hz.w"])
        r = _sig(x @ params["gru.xr.w"] + params["gru.xr.b"] + h @ params["gru.hr.w"])
        cand = np.tanh(x @ params["gru.xn.w"] + params["gru.xn.b"] + (r * h) @ params["gru.hn.w"])
        h = (1.0 - z) * cand + z * h
        out.append(h @ params["out.w"] + params["out.b"])
    return np.stack(out)


def slow_mix(params, q_locals, state):
    """Monotonic mixer forward for one (q, state) pair."""
    n = len(q_locals)
    embed = params["hb1.w"].shape[1]
    w1 = np.abs(state @ params["hw1.w"] + params["hw1.b"]).reshape(n, embed)
    b1 = state @ params["hb1.w"] + params["hb1.b"]
    pre = np.asarray(q_locals) @ w1 + b1
    hidden = np.where(pre > 0, pre, np.expm1(pre))
    w2 = np.abs(state @ params["hw2.w"] + params["hw2.b"])
    v_pre = state @ params["v1.w"] + params["v1.b"]
    v_hid = np.where(v_pre > 0, v_pre, np.expm1(v_pre))
    v = v_hid @ params["v2.w"] + params["v2.b"]
    return float(hidden @ w2 + v[0])


# ---------------------------------------------------------------------------
# exhaustive subgoal search
# ---------------------------------------------------------------------------


def brute_force_subgoal(agent_params, mixer_params, episode, alpha):
    """Evaluate the subgoal score at every valid timestep by direct
    computation and scan for the per-agent argmax (earliest tie wins).

    ``agent_params`` are slot-stacked utility-net parameters with one slot
    per agent. Returns t_star, (n_agents,) int.
    """
    n = episode.n_agents
    q_seqs = [slow_q_seq({k: v[i] for k, v in agent_params.items()}, episode.obs[i])
              for i in range(n)]
    t_star = np.zeros(n, dtype=np.int64)
    for i in range(n):
        best, best_t = None, None
        for t in range(episode.length):
            q_max = max(
                q_seqs[i][t][u]
                for u in range(q_seqs[i].shape[1])
                if episode.avail[i, t, u]
            )
            q_taken = [q_seqs[j][t][episode.actions[j, t]] for j in range(n)]
            q_tot = slow_mix(mixer_params, q_taken, episode.states[t])
            score = alpha * q_max + (1.0 - alpha) * q_tot / n
            if best is None or score > best:
                best, best_t = score, t
        t_star[i] = best_t
    return t_star


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_diff_grad(loss_fn, params, step=1e-5, coords=None):
    """Central-difference gradient of ``loss_fn(params)`` per coordinate.

    ``coords`` restricts the evaluation to {name: [flat indices]} when
    full sweeps are too slow; unevaluated entries stay zero.
    """
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    work = {k: v.copy() for k, v in params.items()}
    for name, arr in work.items():
        flat = arr.reshape(-1)
        idx_list = range(flat.size) if coords is None else coords.get(name, ())
        for idx in idx_list:
            orig = flat[idx]
            flat[idx] = orig + step
            up = loss_fn(work)
            flat[idx] = orig - step
            down = loss_fn(work)
            flat[idx] = orig
            grads[name].reshape(-1)[idx] = (up - down) / (2.0 * step)
    return grads


# ---------------------------------------------------------------------------
# exactly solvable tabular game
# ---------------------------------------------------------------------------


@dataclass
class TabularGame:
    """Two agents, two actions, a handful of states, known tables.

    transitions[s, u1, u2] -> next state; rewards[s, u1, u2] -> shared reward.
    """

    transitions: np.ndarray
    rewards: np.ndarray
    start_state: int = 0

    @property
    def n_states(self):
        return self.transitions.shape[0]

    @property
    def n_actions(self):
        return self.transitions.shape[1]


def coordination_chain() -> TabularGame:
    """Three-state chain: the pair advances only on the joint action (1, 1);
    each '1' also earns a small individual bonus; the final state is
    absorbing and pays 1 per step. The optimal joint action is (1, 1) in
    every state, uniquely."""
    s = 3
    transitions = np.zeros((s, 2, 2), dtype=np.int64)
    rewards = np.zeros((s, 2, 2))
    for st in range(s):
        for u1 in range(2):
            for u2 in range(2):
                rewards[st, u1, u2] = 0.05 * u1 + 0.05 * u2
                if st < s - 1:
                    transitions[st, u1, u2] = st + 1 if (u1 == 1 and u2 == 1) else st
                else:
                    transitions[st, u1, u2] = st
    rewards[s - 1] += 1.0
    return TabularGame(transitions=transitions, rewards=rewards)


def value_iteration(game: TabularGame, gamma, tol=1e-10, max_iters=1_000_000):
    """Exact joint Q table of the infinite-horizon game, to sup-norm tol."""
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must be in (0, 1)")
    q = np.zeros_like(game.rewards)
    for _ in range(max_iters):
        v = q.reshape(game.n_states, -1).max(axis=1)
        q_new = game.rewards + gamma * v[game.transitions]
        if np.max(np.abs(q_new - q)) <= tol:
            return q_new
        q = q_new
    raise RuntimeError("value iteration did not converge")


def optimal_joint_actions(game: TabularGame, gamma, tol=1e-9):
    """Set of optimal (u1, u2) per state, within tol of the best value."""
    q = value_iteration(game, gamma)
    out = []
    for s in range(game.n_states):
        best = q[s].max()
        out.append({
            (u1, u2)
            for u1 in range(game.n_actions)
            for u2 in range(game.n_actions)
            if q[s, u1, u2] >= best - tol
        })
    return out


class TabularEnv:
    """Trainer-compatible adapter around a TabularGame.

    Observations are one-hot state plus the agent's previous action
    one-hot (full observability, shared by both agents); the global
    state is the one-hot state.
    """

    def __init__(self, game: TabularGame, episode_limit=10):
        self.game = game
        self.n_agents = 2
        self.n_actions = game.n_actions
        self.episode_limit = episode_limit
        self.obs_dim = game.n_states + game.n_actions
        self.state_dim = game.n_states
        self._live = False

    def _obs(self):
        obs = np.zeros((self.n_agents, self.obs_dim))
        for i in range(self.n_agents):
            obs[i, self.s] = 1.0
            if self.last_action[i] >= 0:
                obs[i, self.game.n_states + self.last_action[i]] = 1.0
        return obs

    def _state(self):
        state = np.zeros(self.state_dim)
        state[self.s] = 1.0
        return state

    def reset(self, rng):
        self.s = self.game.start_state
        self.t = 0
        self.last_action = [-1] * self.n_agents
        self._live = True
        return self._obs(), self._state()

    def avail_actions(self):
        return np.ones((self.n_agents, self.n_actions), dtype=bool)

    def step(self, actions):
        from .env import StepResult

        if not self._live:
            raise RuntimeError("step() called on a terminated episode; call reset() first")
        u1, u2 = int(actions[0]), int(actions[1])
        reward = float(self.game.rewards[self.s, u1, u2])
        self.s = int(self.game.transitions[self.s, u1, u2])
        self.last_action = [u1, u2]
        self.t += 1
        done = self.t >= self.episode_limit
        won = done and self.s == self.game.n_states - 1
        if done:
            self._live = False
        return StepResult(self._obs(), self._state(), reward, done, won, {})
