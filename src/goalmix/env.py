"""Desk-scale cooperative skirmish gridworlds (Dec-POMDP style).

Two teams of units on a small grid. Allied units are the learning
agents; enemy units follow a deterministic scripted policy. Rewards
come in a sparse mode (win/kill/death events only) and a dense mode
(events plus per-step health deltas). A cliff variant blocks the map
with an impassable row that has a one-cell gap.

Actions (6): 0 no-op, 1 move-N, 2 move-S, 3 move-E, 4 move-W,
5 attack-nearest-visible-enemy (only available with a target in range).
Distances are Manhattan. Moves resolve in unit-index order (allies
first), then all attacks resolve simultaneously.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

N_ACTIONS = 6
NOOP, MOVE_N, MOVE_S, MOVE_E, MOVE_W, ATTACK = range(6)
MOVE_DELTAS = {MOVE_N: (0, -1), MOVE_S: (0, 1), MOVE_E: (1, 0), MOVE_W: (-1, 0)}

REWARD_WIN = 200.0
REWARD_ENEMY_KILL = 10.0
REWARD_ALLY_DEATH = -5.0


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# scalar EnvConfig fields: (names, test of a value, what the test asks for)
FIELD_RULES = (
    (("width", "height", "n_allies", "n_enemies", "episode_limit"),
     lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (("sight_range", "attack_range"), lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    (("ally_health", "enemy_health"), lambda v: _is_number(v) and v > 0, "a positive number"),
    (("ally_damage", "enemy_damage", "health_scale"),
     lambda v: _is_number(v) and v >= 0, "a non-negative number"),
)


@dataclass
class EnvConfig:
    name: str = "skirmish-2v2"
    width: int = 7
    height: int = 7
    n_allies: int = 2
    n_enemies: int = 2
    episode_limit: int = 30
    sight_range: int = 3
    attack_range: int = 1
    ally_health: float = 6.0
    enemy_health: float = 6.0
    ally_damage: float = 2.0
    enemy_damage: float = 1.0
    # spawn rectangles, inclusive (x0, y0, x1, y1)
    ally_spawn: tuple = (0, 0, 1, 6)
    enemy_spawn: tuple = (5, 0, 6, 6)
    cliff_cells: list = field(default_factory=list)
    reward_mode: str = "sparse"
    health_scale: float = 1.0

    def to_dict(self):
        d = asdict(self)
        d["ally_spawn"] = list(d["ally_spawn"])
        d["enemy_spawn"] = list(d["enemy_spawn"])
        d["cliff_cells"] = [list(c) for c in d["cliff_cells"]]
        return d

    def validate(self):
        """Raise ValueError unless the env can run and every reset can place
        every unit: integer sizes and ranges, positive healths, non-negative
        damages, cliff cells inside the grid, and spawn rectangles
        (x0, y0, x1, y1) with enough free cells. Allies are placed first,
        anywhere in their rectangle, so the enemies' rectangle must hold
        their team even after the allies took the most of it they can.
        Returns self."""
        for keys, ok, kind in FIELD_RULES:
            for key in keys:
                value = getattr(self, key)
                if not ok(value):
                    raise ValueError(f"{key} must be {kind}, got {value!r}")
        cliff = set()
        for cell in self.cliff_cells:
            cell = tuple(cell)
            if (len(cell) != 2 or not all(map(_is_int, cell))
                    or not (0 <= cell[0] < self.width and 0 <= cell[1] < self.height)):
                raise ValueError(f"cliff cell {list(cell)} is not a cell of the "
                                 f"{self.width}x{self.height} grid")
            cliff.add(cell)
        free = []
        for key, team in (("ally_spawn", self.n_allies), ("enemy_spawn", self.n_enemies)):
            rect = tuple(getattr(self, key))
            if len(rect) != 4 or not all(map(_is_int, rect)) or rect[0] > rect[2] or rect[1] > rect[3]:
                raise ValueError(f"{key} must be 4 integers x0, y0, x1, y1 with x0 <= x1 "
                                 f"and y0 <= y1, got {list(rect)}")
            x0, y0, x1, y1 = rect
            cells = {(x, y) for x in range(max(x0, 0), min(x1, self.width - 1) + 1)
                     for y in range(max(y0, 0), min(y1, self.height - 1) + 1)} - cliff
            if len(cells) < team:
                raise ValueError(f"{key} {list(rect)} has {len(cells)} free cells "
                                 f"for {team} units")
            free.append(cells)
        allies, enemies = free
        left = len(enemies) - min(self.n_allies, len(allies & enemies))
        if left < self.n_enemies:
            raise ValueError(f"enemy_spawn {list(self.enemy_spawn)} has {left} free cells for "
                             f"{self.n_enemies} units once the allies are placed in ally_spawn "
                             f"{list(self.ally_spawn)}")
        return self

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown environment keys: {sorted(unknown)}; valid: {sorted(known)}")
        if "ally_spawn" in d:
            d["ally_spawn"] = tuple(d["ally_spawn"])
        if "enemy_spawn" in d:
            d["enemy_spawn"] = tuple(d["enemy_spawn"])
        if "cliff_cells" in d:
            d["cliff_cells"] = [tuple(c) for c in d["cliff_cells"]]
        return cls(**d)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _cliff_row(width, row, gap_x):
    return [(x, row) for x in range(width) if x != gap_x]


def preset(name: str) -> EnvConfig:
    """Named desk-scale configurations."""
    if name == "skirmish-2v2":
        return EnvConfig()
    if name == "skirmish-3v3":
        return EnvConfig(
            name=name, width=9, height=9, n_allies=3, n_enemies=3,
            episode_limit=40, ally_spawn=(0, 0, 1, 8), enemy_spawn=(7, 0, 8, 8),
        )
    if name == "cliff-2v2":
        # both teams spawn on the west side; the only crossing is at the far
        # east edge, so the straight path toward the other team dead-ends at
        # the cliff wall. The horizon is stretched to fit the detour plus a
        # fight.
        return EnvConfig(
            name=name,
            episode_limit=40,
            ally_spawn=(0, 0, 2, 1),
            enemy_spawn=(0, 5, 2, 6),
            cliff_cells=_cliff_row(7, 3, 6),
        )
    raise ValueError(f"unknown environment preset '{name}' "
                     "(available: skirmish-2v2, skirmish-3v3, cliff-2v2)")


@dataclass
class StepResult:
    obs: np.ndarray          # (n_allies, obs_dim)
    state: np.ndarray        # (state_dim,)
    reward: float            # extrinsic, in the configured mode
    done: bool
    won: bool
    info: dict


class SkirmishEnv:
    """One self-contained environment instance (single-threaded)."""

    def __init__(self, config: EnvConfig):
        self.cfg = config
        self.n_agents = config.n_allies
        self.n_actions = N_ACTIONS
        self.n_units = config.n_allies + config.n_enemies
        self.episode_limit = config.episode_limit
        self._cliff = set(config.validate().cliff_cells)
        # per entity slot: rel x, rel y, normalised health, side flag
        self._ent_feats = 4
        self.obs_dim = 7 + N_ACTIONS + self._ent_feats * (self.n_units - 1)
        self.state_dim = 4 * self.n_units + 1
        self._live = False
        self.t = 0

    # -- geometry -------------------------------------------------------

    def _in_bounds(self, cell):
        x, y = cell
        return 0 <= x < self.cfg.width and 0 <= y < self.cfg.height

    def _blocked(self, cell):
        return not self._in_bounds(cell) or cell in self._cliff

    @staticmethod
    def _dist(a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    # -- unit helpers -----------------------------------------------------

    def _is_ally(self, u):
        return u < self.cfg.n_allies

    def _max_health(self, u):
        return self.cfg.ally_health if self._is_ally(u) else self.cfg.enemy_health

    def _damage_of(self, u):
        return self.cfg.ally_damage if self._is_ally(u) else self.cfg.enemy_damage

    def _foes(self, u):
        if self._is_ally(u):
            return range(self.cfg.n_allies, self.n_units)
        return range(self.cfg.n_allies)

    def _nearest_visible_foe(self, u, max_range):
        """Nearest alive opposing unit within max_range; ties -> lower index."""
        best, best_d = None, None
        for v in self._foes(u):
            if not self.alive[v]:
                continue
            d = self._dist(self.pos[u], self.pos[v])
            if d <= max_range and (best_d is None or d < best_d):
                best, best_d = v, d
        return best

    # -- lifecycle --------------------------------------------------------

    def reset(self, rng):
        """Place all units in their spawn rectangles; full health; t=0."""
        self.pos = [None] * self.n_units
        self.health = np.array([self._max_health(u) for u in range(self.n_units)])
        self.alive = np.ones(self.n_units, dtype=bool)
        self.last_action = np.full(self.cfg.n_allies, -1, dtype=np.int64)
        self.t = 0
        self._live = True
        self._won = False
        taken = set(self._cliff)
        for u in range(self.n_units):
            rect = self.cfg.ally_spawn if self._is_ally(u) else self.cfg.enemy_spawn
            x0, y0, x1, y1 = rect
            cells = [
                (x, y)
                for x in range(x0, x1 + 1)
                for y in range(y0, y1 + 1)
                if (x, y) not in taken and self._in_bounds((x, y))
            ]
            if not cells:
                raise ValueError(f"spawn region {rect} has no free cells")
            cell = cells[int(rng.integers(len(cells)))]
            self.pos[u] = cell
            taken.add(cell)
        return self._observe_all(), self._global_state()

    # -- scripted opponent --------------------------------------------------

    def scripted_enemy_actions(self):
        """Deterministic enemy policy: attack nearest visible ally in range,
        else step toward the nearest visible ally, else hold."""
        actions = []
        for e in range(self.cfg.n_allies, self.n_units):
            if not self.alive[e]:
                actions.append(NOOP)
                continue
            if self._nearest_visible_foe(e, self.cfg.attack_range) is not None:
                actions.append(ATTACK)
                continue
            target = self._nearest_visible_foe(e, self.cfg.sight_range)
            if target is None:
                actions.append(NOOP)
                continue
            actions.append(self._step_toward(e, self.pos[target]))
        return actions

    def _step_toward(self, u, goal):
        """First move in N/S/E/W order that strictly shrinks the Manhattan
        distance and is not statically blocked; NOOP if none."""
        here = self.pos[u]
        d0 = self._dist(here, goal)
        occupied = {self.pos[v] for v in range(self.n_units) if self.alive[v] and v != u}
        for act in (MOVE_N, MOVE_S, MOVE_E, MOVE_W):
            dx, dy = MOVE_DELTAS[act]
            cell = (here[0] + dx, here[1] + dy)
            if self._blocked(cell) or cell in occupied:
                continue
            if self._dist(cell, goal) < d0:
                return act
        return NOOP

    # -- stepping -------------------------------------------------------------

    def step(self, actions) -> StepResult:
        if not self._live:
            raise RuntimeError("step() called on a terminated episode; call reset() first")
        actions = [int(a) for a in actions]
        if len(actions) != self.cfg.n_allies:
            raise ValueError(f"expected {self.cfg.n_allies} actions, got {len(actions)}")
        enemy_actions = self.scripted_enemy_actions()
        all_actions = list(actions) + enemy_actions
        # dead units cannot act
        for u in range(self.n_units):
            if not self.alive[u]:
                all_actions[u] = NOOP

        # movement, resolved sequentially by unit index
        occupied = {self.pos[u]: u for u in range(self.n_units) if self.alive[u]}
        for u in range(self.n_units):
            act = all_actions[u]
            if not self.alive[u] or act not in MOVE_DELTAS:
                continue
            dx, dy = MOVE_DELTAS[act]
            cell = (self.pos[u][0] + dx, self.pos[u][1] + dy)
            if self._blocked(cell) or cell in occupied:
                continue
            del occupied[self.pos[u]]
            self.pos[u] = cell
            occupied[cell] = u

        # attacks: all computed on post-move positions, applied simultaneously
        damage = np.zeros(self.n_units)
        for u in range(self.n_units):
            if not self.alive[u] or all_actions[u] != ATTACK:
                continue
            target = self._nearest_visible_foe(u, self.cfg.attack_range)
            if target is not None:
                damage[target] += self._damage_of(u)

        dealt = np.minimum(damage, self.health)  # actual health reduction
        self.health = self.health - dealt
        died = self.alive & (self.health <= 0)
        self.alive = self.alive & (self.health > 0)

        ally_slice = slice(0, self.cfg.n_allies)
        enemy_slice = slice(self.cfg.n_allies, self.n_units)
        enemy_deaths = int(died[enemy_slice].sum())
        ally_deaths = int(died[ally_slice].sum())
        dmg_to_enemies = float(dealt[enemy_slice].sum())
        dmg_to_allies = float(dealt[ally_slice].sum())

        self.t += 1
        enemies_alive = bool(self.alive[enemy_slice].any())
        allies_alive = bool(self.alive[ally_slice].any())
        won = not enemies_alive
        done = won or not allies_alive or self.t >= self.cfg.episode_limit

        reward_sparse = (
            REWARD_WIN * float(won)
            + REWARD_ENEMY_KILL * enemy_deaths
            + REWARD_ALLY_DEATH * ally_deaths
        )
        reward_dense = reward_sparse + self.cfg.health_scale * (dmg_to_enemies - dmg_to_allies)
        reward = reward_sparse if self.cfg.reward_mode == "sparse" else reward_dense

        for i in range(self.cfg.n_allies):
            self.last_action[i] = all_actions[i]
        if done:
            self._live = False
            self._won = won

        info = {
            "enemy_deaths": enemy_deaths,
            "ally_deaths": ally_deaths,
            "damage_to_enemies": dmg_to_enemies,
            "damage_to_allies": dmg_to_allies,
            "reward_sparse": reward_sparse,
            "reward_dense": reward_dense,
        }
        return StepResult(self._observe_all(), self._global_state(), reward, done, won, info)

    # -- action masks -------------------------------------------------------

    def avail_actions(self):
        """(n_allies, 6) bool; dead agents may only no-op, attack needs a
        visible target in range, moves need an unblocked cell."""
        masks = np.zeros((self.cfg.n_allies, N_ACTIONS), dtype=bool)
        masks[:, NOOP] = True
        for i in range(self.cfg.n_allies):
            if not self.alive[i]:
                continue
            for act, (dx, dy) in MOVE_DELTAS.items():
                cell = (self.pos[i][0] + dx, self.pos[i][1] + dy)
                masks[i, act] = not self._blocked(cell)
            if self._nearest_visible_foe(i, self.cfg.attack_range) is not None:
                masks[i, ATTACK] = True
        return masks

    # -- observations ---------------------------------------------------------

    def _observe_all(self):
        return np.stack([self._observe(i) for i in range(self.cfg.n_allies)])

    def _observe(self, i):
        """Fixed-length local view for agent i; all entries in [-1, 1].

        Own health, own position, four adjacent-cell blocked flags
        (SMAC-style pathing cues), own last-action one-hot, then one slot
        per other unit with relative position / health / side when visible.
        """
        obs = np.zeros(self.obs_dim)
        if not self.alive[i]:
            return obs
        x, y = self.pos[i]
        w, h = self.cfg.width, self.cfg.height
        obs[0] = self.health[i] / self._max_health(i)
        obs[1] = 2.0 * x / (w - 1) - 1.0 if w > 1 else 0.0
        obs[2] = 2.0 * y / (h - 1) - 1.0 if h > 1 else 0.0
        for k, act in enumerate((MOVE_N, MOVE_S, MOVE_E, MOVE_W)):
            dx, dy = MOVE_DELTAS[act]
            obs[3 + k] = 1.0 if self._blocked((x + dx, y + dy)) else 0.0
        if self.last_action[i] >= 0:
            obs[7 + self.last_action[i]] = 1.0
        base = 7 + N_ACTIONS
        slot = 0
        sight = self.cfg.sight_range
        for u in range(self.n_units):
            if u == i:
                continue
            off = base + slot * self._ent_feats
            slot += 1
            if not self.alive[u]:
                continue
            d = self._dist(self.pos[i], self.pos[u])
            if d > sight:
                continue
            ux, uy = self.pos[u]
            obs[off + 0] = (ux - x) / sight
            obs[off + 1] = (uy - y) / sight
            obs[off + 2] = self.health[u] / self._max_health(u)
            obs[off + 3] = 1.0 if self._is_ally(u) else -1.0
        return obs

    def _global_state(self):
        state = np.zeros(self.state_dim)
        w, h = self.cfg.width, self.cfg.height
        for u in range(self.n_units):
            off = 4 * u
            if self.alive[u]:
                x, y = self.pos[u]
                state[off + 0] = 2.0 * x / (w - 1) - 1.0 if w > 1 else 0.0
                state[off + 1] = 2.0 * y / (h - 1) - 1.0 if h > 1 else 0.0
                state[off + 2] = self.health[u] / self._max_health(u)
                state[off + 3] = 1.0
        state[-1] = self.t / self.cfg.episode_limit
        return state


# ---------------------------------------------------------------------------
# episode logs (line-delimited JSON, one timestep per line)
# ---------------------------------------------------------------------------


def write_episode_log(fh, episode):
    """Append one episode to an open text file, one JSON object per step:
    {"t", "obs", "actions", "r_ex", "done"}."""
    for t in range(episode.length):
        row = {
            "t": t,
            "obs": [episode.obs[i, t].tolist() for i in range(episode.obs.shape[0])],
            "actions": episode.actions[:, t].tolist(),
            "r_ex": float(episode.rewards[t]),
            "done": bool(episode.dones[t]),
        }
        fh.write(json.dumps(row) + "\n")
