"""Skirmish gridworld: placement, stepping, rewards, masks, invariants."""

import json
import math
import re

import numpy as np
import pytest

from goalmix.cli import write_episode_log
from goalmix.env import (
    ATTACK,
    MOVE_E,
    MOVE_N,
    MOVE_W,
    NOOP,
    EnvConfig,
    SkirmishEnv,
    preset,
)


def fixed_duel_config(**kw):
    """Spawn rectangles exactly the size of each team -> deterministic layout.
    Allies at (1,1),(1,2); enemies at (2,1),(2,2)."""
    base = dict(
        name="duel", width=5, height=5, n_allies=2, n_enemies=2,
        episode_limit=20, sight_range=3, attack_range=1,
        ally_spawn=(1, 1, 1, 2), enemy_spawn=(2, 1, 2, 2),
        ally_health=6.0, enemy_health=6.0, ally_damage=2.0, enemy_damage=2.0,
    )
    base.update(kw)
    return EnvConfig(**base)


def canonical_duel(env, rng=None):
    obs, state = env.reset(rng or np.random.default_rng(0))
    # exact-fit spawns: positions are the rectangle cells in some order
    assert sorted(env.pos[:2]) == [(1, 1), (1, 2)]
    assert sorted(env.pos[2:]) == [(2, 1), (2, 2)]
    return obs, state


# -- reset ------------------------------------------------------------------


def test_reset_places_full_teams():
    env = SkirmishEnv(preset("skirmish-2v2"))
    env.reset(np.random.default_rng(0))
    assert env.alive.sum() == 4
    assert np.all(env.health[:2] == env.cfg.ally_health)
    assert np.all(env.health[2:] == env.cfg.enemy_health)
    assert env.t == 0


def test_reset_deterministic_for_fixed_seed():
    env1 = SkirmishEnv(preset("skirmish-2v2"))
    env2 = SkirmishEnv(preset("skirmish-2v2"))
    env1.reset(np.random.default_rng(7))
    env2.reset(np.random.default_rng(7))
    assert env1.pos == env2.pos


def test_cliff_cells_unoccupied_at_reset():
    env = SkirmishEnv(preset("cliff-2v2"))
    for seed in range(20):
        env.reset(np.random.default_rng(seed))
        assert not (set(env.pos) & set(env.cfg.cliff_cells))


# -- rewards ----------------------------------------------------------------


def test_sparse_moves_only_zero_reward():
    env = SkirmishEnv(fixed_duel_config(enemy_spawn=(3, 3, 3, 4), reward_mode="sparse"))
    env.reset(np.random.default_rng(0))
    r = env.step([NOOP, MOVE_N])
    assert r.reward == 0.0


def test_one_enemy_kill_is_plus_ten():
    env = SkirmishEnv(fixed_duel_config(enemy_health=2.0, enemy_damage=0.0))
    canonical_duel(env)
    # ally0 at (1,1) attacks its nearest enemy (2,1); ally1 holds
    r = env.step([ATTACK, NOOP])
    assert r.info["enemy_deaths"] == 1
    assert not r.done
    assert r.reward == 10.0


def test_last_enemy_kill_stacks_win_bonus_plus_210():
    env = SkirmishEnv(fixed_duel_config(enemy_health=2.0, enemy_damage=0.0))
    canonical_duel(env)
    env.step([ATTACK, NOOP])          # kills (2,1)
    r = env.step([NOOP, ATTACK])      # ally1 at (1,2) kills (2,2)
    assert r.won and r.done
    assert r.reward == 210.0


def test_ally_death_is_minus_five():
    env = SkirmishEnv(fixed_duel_config(ally_health=2.0, ally_damage=0.0,
                                        enemy_damage=2.0))
    canonical_duel(env)
    r = env.step([NOOP, NOOP])  # both enemies attack; each kills its neighbour
    assert r.info["ally_deaths"] == 2
    assert r.reward == -10.0
    assert r.done and not r.won


def test_dense_reward_adds_health_deltas():
    env = SkirmishEnv(fixed_duel_config(reward_mode="dense"))
    canonical_duel(env)
    r = env.step([ATTACK, ATTACK])
    # both sides fully engaged: allies deal 2+2, enemies deal 2+2
    assert r.info["damage_to_enemies"] == 4.0
    assert r.info["damage_to_allies"] == 4.0
    assert r.reward == r.info["reward_sparse"] + 0.0  # deltas cancel
    assert r.info["reward_dense"] == r.info["reward_sparse"] + (4.0 - 4.0)


def test_reward_mode_agreement_along_random_trajectories():
    cfg = preset("skirmish-2v2")
    env = SkirmishEnv(cfg)
    rng = np.random.default_rng(3)
    for _ in range(10):
        env.reset(rng)
        done = False
        while not done:
            masks = env.avail_actions()
            actions = [int(rng.choice(np.flatnonzero(m))) for m in masks]
            r = env.step(actions)
            expected = r.info["reward_dense"] - cfg.health_scale * (
                r.info["damage_to_enemies"] - r.info["damage_to_allies"]
            )
            assert r.info["reward_sparse"] == pytest.approx(expected, abs=1e-12)
            done = r.done


# -- termination and stepping ------------------------------------------------


def test_step_on_terminal_state_raises():
    env = SkirmishEnv(fixed_duel_config(episode_limit=1))
    canonical_duel(env)
    r = env.step([NOOP, NOOP])
    assert r.done
    with pytest.raises(RuntimeError):
        env.step([NOOP, NOOP])


@pytest.mark.parametrize("agent, bad", [(0, 7), (0, -3), (0, 100), (1, 6), (0, 1.0),
                                        (1, True), (0, "1")])
def test_step_rejects_actions_outside_the_action_range(agent, bad):
    env = SkirmishEnv(fixed_duel_config())
    canonical_duel(env)
    actions = [NOOP, NOOP]
    actions[agent] = bad
    with pytest.raises(ValueError, match=re.escape(f"agent {agent}: action {bad!r}")):
        env.step(actions)
    assert env.t == 0 and list(env.last_action) == [-1, -1]
    env.step(np.array([MOVE_E, NOOP]))  # numpy integers are integers
    assert env.t == 1 and list(env.last_action) == [MOVE_E, NOOP]


def test_episode_ends_by_limit_and_win_iff_enemies_dead():
    env = SkirmishEnv(preset("skirmish-2v2"))
    rng = np.random.default_rng(11)
    for _ in range(15):
        env.reset(rng)
        steps = 0
        while True:
            masks = env.avail_actions()
            actions = [int(rng.choice(np.flatnonzero(m))) for m in masks]
            r = env.step(actions)
            steps += 1
            if r.done:
                assert steps <= env.cfg.episode_limit
                assert r.won == (not env.alive[2:].any())
                break


def test_health_never_increases_and_matches_damage():
    env = SkirmishEnv(preset("skirmish-2v2"))
    rng = np.random.default_rng(5)
    env.reset(rng)
    prev = env.health.copy()
    done = False
    while not done:
        masks = env.avail_actions()
        actions = [int(rng.choice(np.flatnonzero(m))) for m in masks]
        r = env.step(actions)
        drop = prev - env.health
        assert np.all(drop >= 0)
        assert drop[2:].sum() == pytest.approx(r.info["damage_to_enemies"])
        assert drop[:2].sum() == pytest.approx(r.info["damage_to_allies"])
        prev = env.health.copy()
        done = r.done


def test_cliff_never_occupied():
    env = SkirmishEnv(preset("cliff-2v2"))
    rng = np.random.default_rng(9)
    cliff = set(env.cfg.cliff_cells)
    for _ in range(5)          :
        env.reset(rng)
        done = False
        while not done:
            masks = env.avail_actions()
            actions = [int(rng.choice(np.flatnonzero(m))) for m in masks]
            r = env.step(actions)
            live_cells = {env.pos[u] for u in range(env.n_units) if env.alive[u]}
            assert not (live_cells & cliff)
            done = r.done


# -- scripted enemy ------------------------------------------------------------


def test_enemy_attacks_adjacent_ally():
    env = SkirmishEnv(fixed_duel_config())
    canonical_duel(env)
    assert env.scripted_enemy_actions() == [ATTACK, ATTACK]


def test_enemy_holds_when_no_ally_visible():
    env = SkirmishEnv(fixed_duel_config(width=9, height=9, sight_range=2,
                                        ally_spawn=(0, 0, 0, 1),
                                        enemy_spawn=(8, 7, 8, 8)))
    env.reset(np.random.default_rng(0))
    assert env.scripted_enemy_actions() == [NOOP, NOOP]


def test_enemy_targets_lower_indexed_of_equidistant_allies():
    env = SkirmishEnv(fixed_duel_config(ally_spawn=(1, 1, 1, 2),
                                        enemy_spawn=(3, 1, 3, 2),
                                        enemy_damage=1.0))
    env.reset(np.random.default_rng(0))
    env.pos = [(2, 0), (2, 2), (2, 1), (4, 4)]  # both allies at distance 1 of enemy0
    before = env.health.copy()
    env.step([NOOP, NOOP])
    # enemy0 attacked the lower-indexed ally (unit 0)
    assert env.health[0] == before[0] - 1.0
    assert env.health[1] == before[1]


def test_enemy_moves_toward_nearest_visible_ally():
    env = SkirmishEnv(fixed_duel_config(ally_spawn=(0, 2, 0, 3),
                                        enemy_spawn=(3, 2, 3, 3)))
    env.reset(np.random.default_rng(0))
    assert env.scripted_enemy_actions() == [MOVE_W, MOVE_W]
    env.step([NOOP, NOOP])
    assert env.pos[2:] == [(2, 3), (2, 2)]  # both closed in by one column


# -- observations and masks ------------------------------------------------------


def test_observation_bounds_and_fixed_dimension():
    env = SkirmishEnv(preset("skirmish-2v2"))
    rng = np.random.default_rng(2)
    obs, state = env.reset(rng)
    assert obs.shape == (2, env.obs_dim)
    done = False
    while not done:
        masks = env.avail_actions()
        actions = [int(rng.choice(np.flatnonzero(m))) for m in masks]
        r = env.step(actions)
        assert r.obs.shape == (2, env.obs_dim)
        assert np.all(r.obs >= -1.0 - 1e-12) and np.all(r.obs <= 1.0 + 1e-12)
        assert np.all(r.state >= -1.0 - 1e-12) and np.all(r.state <= 1.0 + 1e-12)
        done = r.done


def test_dead_agent_mask_noop_only():
    env = SkirmishEnv(fixed_duel_config(ally_health=2.0))
    canonical_duel(env)
    env.step([NOOP, NOOP])  # enemies deal 2 to each ally -> both die
    masks = env.avail_actions()
    assert not env.alive[0]
    np.testing.assert_array_equal(masks[0], [True, False, False, False, False, False])


def test_attack_only_available_in_range():
    env = SkirmishEnv(fixed_duel_config(enemy_spawn=(4, 1, 4, 2)))
    env.reset(np.random.default_rng(0))
    masks = env.avail_actions()
    assert not masks[0, ATTACK] and not masks[1, ATTACK]


def test_move_masked_at_walls():
    env = SkirmishEnv(fixed_duel_config(ally_spawn=(0, 0, 0, 1)))
    env.reset(np.random.default_rng(0))
    masks = env.avail_actions()
    agent_at_corner = 0 if env.pos[0] == (0, 0) else 1
    assert not masks[agent_at_corner, MOVE_N]  # y-1 off grid
    assert not masks[agent_at_corner, 4]       # move W off grid


def test_movement_conflict_resolved_by_unit_index():
    env = SkirmishEnv(fixed_duel_config(ally_spawn=(0, 1, 0, 2),
                                        enemy_spawn=(4, 1, 4, 2)))
    env.reset(np.random.default_rng(0))
    env.pos = [(0, 1), (2, 1), (4, 1), (4, 2)]
    env.step([MOVE_E, 4])              # both allies try to enter (1, 1)
    assert env.pos[0] == (1, 1)        # lower index wins
    assert env.pos[1] == (2, 1)        # blocked, stays


def test_assigned_positions_are_read_fresh_by_every_call():
    """Masks, the enemy script and the next observation follow an
    assignment to ``pos`` made mid-episode (5x5 grid, sight 3, range 1)."""
    env = SkirmishEnv(fixed_duel_config(enemy_damage=0.0))
    canonical_duel(env)
    env.step([NOOP, NOOP])
    env.avail_actions()
    env.pos = [(0, 0), (4, 4), (3, 0), (0, 4)]
    # corner allies: no foe within range 1, moves only into the grid
    np.testing.assert_array_equal(env.avail_actions(), [
        [True, False, True, True, False, False],
        [True, True, False, False, True, False],
    ])
    # enemy 0 sees ally 0 at distance 3 and steps west; enemy 1 sees no ally
    assert env.scripted_enemy_actions() == [MOVE_W, NOOP]
    r = env.step([MOVE_E, NOOP])
    assert env.pos == [(1, 0), (4, 4), (2, 0), (0, 4)]
    np.testing.assert_array_equal(r.obs[0], [
        1.0, -0.5, -1.0, 1.0, 0.0, 0.0, 0.0,   # health, x, y, blocked N/S/E/W
        0.0, 0.0, 0.0, 1.0, 0.0, 0.0,          # last action: move E
        0.0, 0.0, 0.0, 0.0,                    # ally 1 out of sight (7)
        1 / 3, 0.0, 1.0, -1.0,                 # enemy 0 adjacent
        0.0, 0.0, 0.0, 0.0,                    # enemy 1 out of sight (5)
    ])
    np.testing.assert_array_equal(r.obs[1], [
        1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0,
        1.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        *[0.0] * 12,                           # nobody within 3
    ])
    np.testing.assert_array_equal(r.state, [
        -0.5, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        0.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 2 / 20,
    ])
    np.testing.assert_array_equal(env.avail_actions()[0], [True, False, True, True, True, True])


def fresh_twin(env):
    """A newly built env of ``env``'s config, reset and then put into
    ``env``'s game state (positions, health, alive flags, last actions, t)."""
    twin = SkirmishEnv(env.cfg)
    twin.reset(np.random.default_rng(0))
    twin.pos = list(env.pos)
    twin.health, twin.alive = env.health.copy(), env.alive.copy()
    twin.last_action, twin.t = env.last_action.copy(), env.t
    return twin


def assert_same_step(got, want):
    """Two StepResults are bit for bit the same."""
    assert got.obs.tobytes() == want.obs.tobytes()
    assert got.state.tobytes() == want.state.tobytes()
    assert (got.reward, got.done, got.won, got.info) == (want.reward, want.done, want.won, want.info)


@pytest.mark.parametrize("whole_list", [True, False], ids=["new-list", "one-entry"])
def test_reused_distances_match_a_fresh_env_after_assignments(whole_list):
    """Masks, the enemy script and the step after an assignment to ``pos``
    (a new list, or one entry in place) and after unassigned steps, which
    reuse the previous step's distances, equal a fresh env's in that state."""
    cfg = preset("skirmish-3v3")
    env = SkirmishEnv(cfg)
    rng = np.random.default_rng(4)
    cells = [(x, y) for x in range(cfg.width) for y in range(cfg.height)]
    assigned = 0
    for _ in range(8):
        env.reset(rng)
        done = False
        while not done:
            env.avail_actions()  # distances of the positions before any assignment
            if rng.random() < 0.5:
                assigned += 1
                if whole_list:
                    env.pos = [cells[k] for k in rng.choice(len(cells), env.n_units, replace=False)]
                else:
                    free = [c for c in cells if c not in env.pos]
                    env.pos[int(rng.integers(env.n_units))] = free[int(rng.integers(len(free)))]
            twin = fresh_twin(env)
            masks = env.avail_actions()
            np.testing.assert_array_equal(masks, twin.avail_actions())
            assert env.scripted_enemy_actions() == twin.scripted_enemy_actions()
            actions = [int(rng.choice(np.flatnonzero(m))) for m in masks]
            result = env.step(actions)
            assert_same_step(result, twin.step(actions))
            assert env.pos == twin.pos
            np.testing.assert_array_equal(env.avail_actions(), twin.avail_actions())
            done = result.done
    assert assigned > 50


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("unit, live, value", [
    (0, True, 0.0), (1, True, -2.0), (2, False, -2.0), (0, True, -0.0), (3, False, -0.0),
    (1, True, NAN), (2, False, NAN),                  # states no step leaves
    (3, False, 0.0), (2, False, 4.0), (0, True, INF),  # states a step may leave
])
def test_step_without_damage_gives_the_numpy_health_update(unit, live, value):
    """Whatever health and alive flags were assigned, a step where no attack
    lands gives the bits of the numpy update: health - minimum(0, health),
    alive & (health > 0), and numpy sums of what was dealt."""
    env = SkirmishEnv(fixed_duel_config())
    canonical_duel(env)
    env.pos = [(0, 0), (0, 4), (4, 0), (4, 4)]  # nobody within sight 3: all hold
    health, alive = env.health.copy(), env.alive.copy()
    health[unit], alive[unit] = value, live
    env.health, env.alive = health, alive
    dealt = np.minimum([0.0] * env.n_units, health)
    want_health = health - dealt
    want_alive = alive & (want_health > 0)
    result = env.step([NOOP, NOOP])
    assert env.health.tobytes() == want_health.tobytes()
    assert env.alive.tolist() == want_alive.tolist()
    died = alive & ~want_alive
    assert (result.info["ally_deaths"], result.info["enemy_deaths"]) == (died[:2].sum(), died[2:].sum())
    for key, part in (("damage_to_allies", dealt[:2]), ("damage_to_enemies", dealt[2:])):
        assert np.float64(result.info[key]).tobytes() == part.sum().tobytes()


def test_damage_free_step_reports_python_float_zeros():
    env = SkirmishEnv(fixed_duel_config(reward_mode="dense"))
    canonical_duel(env)
    env.pos = [(0, 0), (0, 4), (4, 0), (4, 4)]
    info = env.step([NOOP, NOOP]).info
    for key in ("damage_to_allies", "damage_to_enemies", "reward_dense"):
        assert type(info[key]) is float and info[key] == 0.0 and math.copysign(1.0, info[key]) == 1.0


# -- hand policy: the default skirmish is solvable -------------------------------


def hand_policy(env):
    """Focus-fire micro: march in lockstep, take distinct flank cells
    around the lowest-indexed live enemy, attack whenever in range."""
    masks = env.avail_actions()
    targets = [u for u in range(env.cfg.n_allies, env.n_units) if env.alive[u]]
    allies = [i for i in range(env.cfg.n_allies) if env.alive[i]]
    actions = [NOOP] * env.cfg.n_allies
    if not targets:
        return actions
    tx, ty = env.pos[targets[0]]
    flanks = [c for c in env._moves[tx, ty] if c is not None]  # N, S, E, W
    assigned, taken = {}, set()
    for i in allies:
        best = None
        for f in flanks:
            if f in taken:
                continue
            if best is None or env._dist(env.pos[i], f) < env._dist(env.pos[i], best):
                best = f
        if best is not None:
            assigned[i] = best
            taken.add(best)
    for i in allies:
        if masks[i, ATTACK]:
            actions[i] = ATTACK
            continue
        if len(allies) == 2:
            other = allies[1] if i == allies[0] else allies[0]
            if env._dist(env.pos[i], env.pos[other]) > 2:
                # stay together: the leader waits, the partner catches up
                actions[i] = NOOP if i == allies[0] else env._step_toward(i, env.pos[allies[0]])
                continue
        actions[i] = env._step_toward(i, assigned.get(i, (tx, ty)))
    return actions


def test_hand_policy_wins_default_skirmish():
    env = SkirmishEnv(preset("skirmish-2v2"))
    rng = np.random.default_rng(17)
    wins = 0
    n = 40
    for _ in range(n):
        env.reset(rng)
        while True:
            r = env.step(hand_policy(env))
            if r.done:
                wins += r.won
                break
    assert wins == n, f"hand policy won only {wins}/{n}"


# -- config and log files ----------------------------------------------------------


def test_env_config_roundtrip(tmp_path):
    cfg = preset("cliff-2v2")
    path = tmp_path / "env.json"
    cfg.save(path)
    loaded = EnvConfig.load(path)
    assert loaded == cfg


def test_env_config_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown environment keys"):
        EnvConfig.from_dict({"widht": 5})


@pytest.mark.parametrize("spec", [[7, 7], [["width", 5]], "width", 5])
def test_env_config_that_is_no_object_rejected(spec):
    with pytest.raises(ValueError, match="an env spec must be a JSON object, got "):
        EnvConfig.from_dict(spec)


@pytest.mark.parametrize("mode", ["sprase", "Sparse", "", None, 0])
def test_unknown_reward_mode_rejected(mode):
    with pytest.raises(ValueError, match="reward_mode must be one of"):
        SkirmishEnv(EnvConfig(reward_mode=mode))


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown environment preset"):
        preset("skirmish-9v9")


def test_episode_log_format(tmp_path):
    from tests.conftest import make_episode

    ep = make_episode(np.random.default_rng(0), length=3)
    path = tmp_path / "log.jsonl"
    with open(path, "w") as fh:
        write_episode_log(fh, ep)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    row = json.loads(lines[0])
    assert set(row) == {"t", "obs", "actions", "r_ex", "done"}
    assert row["t"] == 0
    np.testing.assert_allclose(row["obs"][1], ep.obs[1, 0])
