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

import functools
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

N_ACTIONS = 6
NOOP, MOVE_N, MOVE_S, MOVE_E, MOVE_W, ATTACK = range(6)
MOVE_DELTAS = {MOVE_N: (0, -1), MOVE_S: (0, 1), MOVE_E: (1, 0), MOVE_W: (-1, 0)}
MOVES = tuple(MOVE_DELTAS)  # N, S, E, W: the order of every per-move table

REWARD_MODES = ("sparse", "dense")  # events only; events plus health deltas
REWARD_WIN = 200.0
REWARD_ENEMY_KILL = 10.0
REWARD_ALLY_DEATH = -5.0


_FLOAT64, _BOOL = np.dtype(np.float64), np.dtype(bool)  # the dtypes a step leaves
_NOOP_ONLY = (True,) + (False,) * (N_ACTIONS - 1)
_NO_ENTITY = (0.0,) * 4
# last-action one-hots; index -1 (no action yet) is the all-zero row
_ONE_HOT = [tuple(float(k == a) for k in range(N_ACTIONS)) for a in range(N_ACTIONS + 1)]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def checked_actions(actions, n_agents, n_actions):
    """``actions`` as a list of Python ints, one per agent; a wrong count,
    or any value that is not an integer (Python or numpy) in
    ``range(n_actions)``, raises ValueError."""
    actions = list(actions)
    if len(actions) != n_agents:
        raise ValueError(f"expected {n_agents} actions, got {len(actions)}")
    for i, a in enumerate(actions):
        if not (_is_int(a) or isinstance(a, np.integer)) or not 0 <= a < n_actions:
            raise ValueError(f"agent {i}: action {a!r} is not an integer in range({n_actions})")
    return [int(a) for a in actions]


# scalar EnvConfig fields: (names, test of a value, what the test asks for)
FIELD_RULES = (
    (("width", "height", "n_allies", "n_enemies", "episode_limit"),
     lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (("sight_range", "attack_range"), lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    (("ally_health", "enemy_health"), lambda v: _is_number(v) and v > 0, "a positive number"),
    (("ally_damage", "enemy_damage", "health_scale"),
     lambda v: _is_number(v) and v >= 0, "a non-negative number"),
    (("reward_mode",), lambda v: v in REWARD_MODES, f"one of {REWARD_MODES}"),
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
        damages, a known reward mode, cliff cells inside the grid, and spawn
        rectangles (x0, y0, x1, y1) with enough free cells. Allies are
        placed first, anywhere in their rectangle, so the enemies' rectangle
        must hold their team even after the allies took the most of it they
        can. Returns self."""
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
        if not isinstance(d, dict):
            raise ValueError(f"an env spec must be a JSON object, got {type(d).__name__}")
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


@functools.lru_cache(maxsize=16)
def _grid_tables(width, height, cliff):
    """Read-only per-cell tables of a width x height grid whose cliff cells
    are ``cliff`` (a frozenset), shared by every env on that grid. Each maps
    a cell to: the cell each move (N, S, E, W) leads to, None where blocked;
    observation entries 1-6 (normalised x and y, the four neighbours'
    blocked flags); mask entries 0-4 (no-op, the four moves)."""
    open_cells = {(x, y) for x in range(width) for y in range(height)} - cliff
    moves, obs, mask = {}, {}, {}
    for x in range(width):
        for y in range(height):
            targets = tuple(c if c in open_cells else None
                            for c in ((x + dx, y + dy) for dx, dy in MOVE_DELTAS.values()))
            moves[x, y] = targets
            obs[x, y] = (2.0 * x / (width - 1) - 1.0 if width > 1 else 0.0,
                         2.0 * y / (height - 1) - 1.0 if height > 1 else 0.0,
                         *(1.0 if c is None else 0.0 for c in targets))
            mask[x, y] = (True, *(c is not None for c in targets))
    return moves, obs, mask


class SkirmishEnv:
    """One self-contained environment instance (single-threaded).

    ``pos`` (a list of (x, y) tuples), ``health``, ``alive``, ``t`` and
    ``last_action`` are the whole game state and may be read or assigned
    between calls. The ally-to-unit distance table is a pure function of
    ``pos`` and is reused only for the same positions tuple: a step's
    pre-move table is the previous step's post-move one, and
    ``avail_actions`` after a step reads the step's, while assigning to
    ``pos`` (the list or one entry) measures a new table. A step where no
    attack lands skips the health update when ``health`` and ``alive`` are
    as a step leaves them, where it would change nothing.
    """

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
        # per unit: maximum health, damage per attack, side flag
        units = range(self.n_units)
        self._max_hp = [config.ally_health if self._is_ally(u) else config.enemy_health
                        for u in units]
        self._damage = [config.ally_damage if self._is_ally(u) else config.enemy_damage
                        for u in units]
        self._side = [1.0 if self._is_ally(u) else -1.0 for u in units]
        self._moves, self._cell_obs, self._cell_mask = _grid_tables(
            config.width, config.height, frozenset(self._cliff))
        self._dist_key = self._dist_table = None  # see _distances

    # -- geometry -------------------------------------------------------

    def _in_bounds(self, cell):
        x, y = cell
        return 0 <= x < self.cfg.width and 0 <= y < self.cfg.height

    @staticmethod
    def _dist(a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    def _distances(self):
        """Manhattan distance from each ally (rows) to every unit (columns)
        at the current ``pos``: a read-only table, kept for as long as
        ``tuple(pos)`` stays equal to the positions it was measured at."""
        key = tuple(self.pos)
        if key != self._dist_key:
            self._dist_key = key
            self._dist_table = [[abs(x - ux) + abs(y - uy) for ux, uy in key]
                                for x, y in key[:self.cfg.n_allies]]
        return self._dist_table

    def _nearest_foe(self, u, dist, alive):
        """(nearest alive opposing unit, its distance), ties -> lower index;
        (None, inf) when every foe is dead. ``dist`` is a :meth:`_distances`
        table and ``alive`` a list of flags."""
        n_allies = self.cfg.n_allies
        if self._is_ally(u):
            first, dists = n_allies, dist[u][n_allies:]
        else:
            first, dists = 0, [row[u] for row in dist]
        best, best_d = None, math.inf
        for k, d in enumerate(dists):
            if d < best_d and alive[first + k]:
                best, best_d = first + k, d
        return best, best_d

    # -- unit helpers -----------------------------------------------------

    def _is_ally(self, u):
        return u < self.cfg.n_allies

    # -- lifecycle --------------------------------------------------------

    def reset(self, rng):
        """Place all units in their spawn rectangles; full health; t=0."""
        self.pos = [None] * self.n_units
        self.health = np.array(self._max_hp)
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
        return self._observe(self._distances())

    # -- scripted opponent --------------------------------------------------

    def scripted_enemy_actions(self):
        """Deterministic enemy policy: attack nearest visible ally in range,
        else step toward the nearest visible ally, else hold."""
        return self._enemy_actions(self._distances(), self.alive.tolist())

    def _enemy_actions(self, dist, alive):
        actions = []
        for e in range(self.cfg.n_allies, self.n_units):
            target, d = self._nearest_foe(e, dist, alive) if alive[e] else (None, math.inf)
            if d <= self.cfg.attack_range:
                actions.append(ATTACK)
            elif d <= self.cfg.sight_range:
                actions.append(self._step_toward(e, self.pos[target]))
            else:
                actions.append(NOOP)
        return actions

    def _step_toward(self, u, goal):
        """First move in N/S/E/W order that strictly shrinks the Manhattan
        distance and is not statically blocked; NOOP if none."""
        here = self.pos[u]
        d0 = self._dist(here, goal)
        occupied = {cell for v, (cell, live) in enumerate(zip(self.pos, self.alive.tolist()))
                    if live and v != u}
        for act, cell in zip(MOVES, self._moves[here]):
            if cell is None or cell in occupied:
                continue
            if self._dist(cell, goal) < d0:
                return act
        return NOOP

    # -- stepping -------------------------------------------------------------

    def step(self, actions) -> StepResult:
        """Advance one step on the allies' actions, integers in
        ``range(N_ACTIONS)``; any other value raises ValueError."""
        if not self._live:
            raise RuntimeError("step() called on a terminated episode; call reset() first")
        n_allies, n_units = self.cfg.n_allies, self.n_units
        actions = checked_actions(actions, n_allies, N_ACTIONS)
        alive = self.alive.tolist()
        all_actions = actions + self._enemy_actions(self._distances(), alive)
        # dead units cannot act
        all_actions = [a if live else NOOP for a, live in zip(all_actions, alive)]

        # movement, resolved sequentially by unit index
        pos = self.pos
        occupied = {pos[u]: u for u in range(n_units) if alive[u]}
        for u, act in enumerate(all_actions):
            if act not in MOVE_DELTAS:
                continue
            cell = self._moves[pos[u]][act - MOVE_N]
            if cell is None or cell in occupied:
                continue
            del occupied[pos[u]]
            pos[u] = cell
            occupied[cell] = u

        # attacks: all computed on post-move positions, applied simultaneously
        dist = self._distances()
        damage = [0.0] * n_units
        landed = False
        for u, act in enumerate(all_actions):
            if act == ATTACK:
                target, d = self._nearest_foe(u, dist, alive)
                if d <= self.cfg.attack_range:
                    damage[target] += self._damage[u]
                    landed = True

        if landed or not self._settled(alive):
            dealt = np.minimum(damage, self.health)  # actual health reduction
            self.health = self.health - dealt
            self.alive = self.alive & (self.health > 0)
            # numpy's sums: their summation order sets the totals' rounding
            dmg_to_allies = float(dealt[:n_allies].sum())
            dmg_to_enemies = float(dealt[n_allies:].sum())
            survived = self.alive.tolist()
        else:  # the update above would deal 0.0 and leave health and alive as they are
            dmg_to_allies = dmg_to_enemies = 0.0
            survived = alive
        died = [was and not now for was, now in zip(alive, survived)]
        ally_deaths, enemy_deaths = sum(died[:n_allies]), sum(died[n_allies:])

        self.t += 1
        won = not any(survived[n_allies:])
        done = won or not any(survived[:n_allies]) or self.t >= self.cfg.episode_limit

        reward_sparse = (
            REWARD_WIN * float(won)
            + REWARD_ENEMY_KILL * enemy_deaths
            + REWARD_ALLY_DEATH * ally_deaths
        )
        reward_dense = reward_sparse + self.cfg.health_scale * (dmg_to_enemies - dmg_to_allies)
        reward = reward_sparse if self.cfg.reward_mode == "sparse" else reward_dense

        self.last_action[:] = all_actions[:n_allies]
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
        return StepResult(*self._observe(dist), reward, done, won, info)

    def _settled(self, alive):
        """Whether ``health`` and ``alive`` are in a state that a step leaves:
        float64 and bool arrays of one entry per unit, every live unit's
        health above 0 and every dead unit's above 0 or +0.0. From such a
        state, a step where no attack lands deals 0.0 and changes neither.
        ``alive`` is ``self.alive`` as a list."""
        health, shape = self.health, (self.n_units,)
        if not (type(health) is np.ndarray and health.dtype is _FLOAT64 and health.shape == shape
                and self.alive.dtype is _BOOL and self.alive.shape == shape):
            return False
        for h, live in zip(health.tolist(), alive):
            if not (h > 0.0 or (h == 0.0 and not live and math.copysign(1.0, h) > 0.0)):
                return False
        return True

    # -- action masks -------------------------------------------------------

    def avail_actions(self):
        """(n_allies, 6) bool; dead agents may only no-op, attack needs a
        visible target in range, moves need an unblocked cell."""
        dist, alive = self._distances(), self.alive.tolist()
        masks = [
            (*self._cell_mask[self.pos[i]],
             self._nearest_foe(i, dist, alive)[1] <= self.cfg.attack_range)
            if alive[i] else _NOOP_ONLY
            for i in range(self.cfg.n_allies)
        ]
        return np.array(masks, dtype=bool)

    # -- observations ---------------------------------------------------------

    def _observe(self, dist):
        """(obs (n_allies, obs_dim), state (state_dim,)) of the current
        game; ``dist`` is the :meth:`_distances` table of the current ``pos``.

        Observations, all entries in [-1, 1]: each live agent sees its own
        health, own position, four adjacent-cell blocked flags (SMAC-style
        pathing cues), its own last-action one-hot, then one slot per other
        unit with relative position / health / side when visible. A dead
        agent sees zeros. The state holds each unit's position, health and
        alive flag (zeros when dead), then the elapsed fraction of the
        episode.
        """
        pos, sight = self.pos, self.cfg.sight_range
        alive = self.alive.tolist()
        hp = [h / m for h, m in zip(self.health.tolist(), self._max_hp)]
        rows = []
        for i, last in enumerate(self.last_action.tolist()):
            if not alive[i]:
                rows.append([0.0] * self.obs_dim)
                continue
            x, y = pos[i]
            row = [hp[i], *self._cell_obs[x, y], *_ONE_HOT[last]]
            for u, ((ux, uy), d) in enumerate(zip(pos, dist[i])):
                if u == i:
                    continue
                if alive[u] and d <= sight:
                    row += ((ux - x) / sight, (uy - y) / sight, hp[u], self._side[u])
                else:
                    row += _NO_ENTITY
            rows.append(row)
        state = []
        for cell, live, h in zip(pos, alive, hp):
            state += (*self._cell_obs[cell][:2], h, 1.0) if live else _NO_ENTITY
        state.append(self.t / self.cfg.episode_limit)
        return np.array(rows, dtype=np.float64), np.array(state, dtype=np.float64)
