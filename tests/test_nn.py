"""Blocks, gradients, RMSProp, target sync and checkpoint IO."""

import json
import math
import warnings

import numpy as np
import pytest

from goalmix.agents import RecurrentQNet
from goalmix.autodiff import Tensor, relu
from goalmix.nn import (
    GROUPS,
    ConfigurationError,
    NonFiniteGradientError,
    ParamSet,
    RMSProp,
    affine,
    as_tensors,
    clip_grads_global,
    gradient,
    linear_params,
    load_checkpoint,
    n_slots,
    save_checkpoint,
    stack_slots,
    sync_targets,
    uniform_init,
)
from goalmix.oracles import finite_diff_grad
from tests.conftest import (MALFORMED_CHECKPOINTS, assert_grads_close, header_bytes, make_nets,
                            make_paramset, make_stub_trainer, write_malformed_checkpoint,
                            zero_params)

# frozen on the first correct run (seed 42, input [0.5, -1, 2])
TWO_LAYER_GOLDEN = [0.2520150121511014, 0.10127670374834144]


def test_affine_identity():
    p = {"l.w": np.eye(2), "l.b": np.zeros(2)}
    out = affine(p, "l", np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_affine_dimension_mismatch_is_configuration_error():
    p = {"l.w": np.eye(2), "l.b": np.zeros(2)}
    with pytest.raises(ConfigurationError):
        affine(p, "l", np.ones((1, 3)))


def test_gru_zero_params_zero_hidden_gives_zero():
    qnet = RecurrentQNet(3, 2, 3)
    params = zero_params(qnet.init_params(np.random.default_rng(0)))
    policy = qnet.policy(params, 2)
    q = qnet.step(policy, np.random.default_rng(1).normal(size=(2, 3)))
    np.testing.assert_array_equal(policy.h, np.zeros((2, 3)))
    np.testing.assert_array_equal(q, np.zeros((2, 2)))


def test_two_layer_block_golden_value():
    rng = np.random.default_rng(42)
    p = linear_params(rng, 3, 4, "l1")
    p.update(linear_params(rng, 4, 2, "l2"))
    out = affine(p, "l2", relu(affine(p, "l1", np.array([[0.5, -1.0, 2.0]]))))
    np.testing.assert_allclose(out[0], TWO_LAYER_GOLDEN, rtol=0, atol=1e-15)


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(3)
    qnet = RecurrentQNet(4, 3, 8)
    params = qnet.init_params(rng)
    obs = rng.normal(size=(2, 5, 4))
    np.testing.assert_array_equal(qnet.unroll(params, obs), qnet.unroll(params, obs))


def test_uniform_init_bounds():
    rng = np.random.default_rng(0)
    w = uniform_init(rng, 16, (16, 64))
    assert np.all(np.abs(w) <= 1 / 4)


# -- gradient ----------------------------------------------------------------


def test_gradient_square():
    p = Tensor(3.0)
    grads = gradient(p * p, {"p": p})
    assert grads["p"] == pytest.approx(6.0)


def test_gradient_constant_in_param_is_zero():
    p = Tensor(np.ones(3))
    other = Tensor(1.5)
    grads = gradient(other * other, {"p": p, "other": other})
    assert np.all(grads["p"] == 0.0)


def test_gradient_non_scalar_rejected():
    p = Tensor(np.ones(3))
    with pytest.raises(ConfigurationError):
        gradient(p * p, {"p": p})


def test_small_network_gradient_matches_finite_differences():
    _check_small_network_gradient(n_slots=None)


@pytest.mark.parametrize("n_slots", [2, 1])
def test_slot_stacked_network_gradient_matches_finite_differences(n_slots):
    _check_small_network_gradient(n_slots)


def _check_small_network_gradient(n_slots):
    # one net on (B, T, D), or two agents' slot-stacked nets on (N, B, T, D),
    # each agent with its own slot or both sharing one
    rng = np.random.default_rng(11)
    qnet = RecurrentQNet(3, 2, 4)
    if n_slots is None:
        params = qnet.init_params(rng)
        obs = rng.normal(size=(2, 4, 3))
    else:
        params = stack_slots([qnet.init_params(rng) for _ in range(n_slots)])
        obs = rng.normal(size=(2, 2, 4, 3))
    w = rng.normal(size=obs.shape[:-1] + (2,))

    def loss_fn(p):
        q = qnet.unroll(p, obs)
        return float((q * q * w).sum())

    tensors = as_tensors(params)
    q = qnet.unroll(tensors, obs)
    grads = gradient((q * q * w).sum(), tensors)
    fd = finite_diff_grad(loss_fn, params, step=1e-5)
    assert_grads_close(grads, fd)


# -- RMSProp -------------------------------------------------------------------


def one_view(p):
    """``views`` for a vector that holds one named array."""
    return [("p", 0, p.size)]


def test_rmsprop_zero_gradient_leaves_params():
    p = np.array([1.0, -2.0])
    opt = RMSProp()
    opt.step(p, np.zeros(2), one_view(p))
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_rmsprop_symmetry():
    p = np.array([0.7, 0.7])
    opt = RMSProp(lr=0.01)
    opt.step(p, np.array([0.3, 0.3]), one_view(p))
    assert p[0] == p[1]


def test_rmsprop_single_step_hand_evaluated():
    # p=1, g=1, fresh accumulator, lr=0.0005: evaluate the recurrence once
    s = 0.99 * 0.0 + 0.01 * 1.0 * 1.0
    expected = 1.0 - 0.0005 * 1.0 / (math.sqrt(s) + 1e-5)
    assert expected == pytest.approx(0.995000499950005, abs=1e-15)
    p = np.array([1.0])
    opt = RMSProp(lr=0.0005, decay=0.99, eps=1e-5)
    opt.step(p, np.array([1.0]), one_view(p))
    assert p[0] == pytest.approx(expected, abs=1e-15)


def test_rmsprop_accumulator_persists():
    p1 = np.array([1.0])
    opt1 = RMSProp(lr=0.1)
    opt1.step(p1, np.array([1.0]), one_view(p1))
    after_one = p1.copy()
    opt1.step(p1, np.array([1.0]), one_view(p1))
    # a fresh optimiser applied to the one-step value gives a different result
    p2 = after_one.copy()
    opt2 = RMSProp(lr=0.1)
    opt2.step(p2, np.array([1.0]), one_view(p2))
    assert p1[0] != p2[0]


def test_rmsprop_accumulator_restarts_for_another_layout():
    p, g = np.array([1.0, 2.0]), np.array([1.0, 0.5])
    opt = RMSProp(lr=0.1)
    opt.step(p, g, [("p", 0, 1), ("q", 1, 2)])
    after_one = p.copy()
    other = [("q", 0, 1), ("p", 1, 2)]
    opt.step(p, g, other)
    RMSProp(lr=0.1).step(after_one, g, other)
    np.testing.assert_array_equal(p, after_one)


def test_rmsprop_rejects_non_finite_and_leaves_params_untouched():
    for bad in (np.nan, np.inf, -np.inf):
        p = np.array([1.0, 2.0, 3.0])
        opt = RMSProp()
        with pytest.raises(NonFiniteGradientError, match="entries in q$"):
            opt.step(p, np.array([0.1, 0.1, bad]), [("p", 0, 2), ("q", 2, 3)])
        np.testing.assert_array_equal(p, [1.0, 2.0, 3.0])
        assert opt.sq is None


def test_rmsprop_rejects_a_gradient_of_another_shape():
    p = np.zeros(3)
    with pytest.raises(ConfigurationError, match="gradient of shape"):
        RMSProp().step(p, np.zeros(2), one_view(p))


AB_VIEWS = [("a", 0, 2), ("b", 2, 3)]


def test_clip_grads_global_norm():
    grads = np.array([3.0, 0.0, 4.0])  # a = [3, 0], b = [4]
    clipped = clip_grads_global(grads, 1.0, AB_VIEWS)
    assert np.sqrt(np.sum(clipped ** 2)) == pytest.approx(1.0)
    np.testing.assert_allclose(clipped[:2] / clipped[2], [0.75, 0.0])
    same = clip_grads_global(grads, 100.0, AB_VIEWS)
    np.testing.assert_array_equal(same, grads)


def test_clip_grads_global_keeps_the_bits_of_the_plain_norm(rng):
    arrays = [rng.normal(size=(3, 4)) * 40.0, rng.normal(size=5)]
    scale = 10.0 / np.sqrt(sum(float(np.sum(g * g)) for g in arrays))
    grads = np.concatenate([g.ravel() for g in arrays])
    clipped = clip_grads_global(grads, 10.0, [("a", 0, 12), ("b", 12, 17)])
    np.testing.assert_array_equal(clipped, grads * scale)


def test_clip_grads_global_scales_finite_gradients_whose_squares_overflow():
    grads = np.array([1e200, 1.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped = clip_grads_global(grads, 10.0, AB_VIEWS)
    np.testing.assert_allclose(clipped, [10.0, 1e-199, 3e-199], rtol=1e-15)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_grads_global_leaves_nonfinite_gradients_to_rmsprop(bad):
    grads = np.array([1e200, bad, 3.0])
    clipped = clip_grads_global(grads, 10.0, AB_VIEWS)
    assert clipped[2] == 3.0
    p = np.zeros(3)
    with pytest.raises(NonFiniteGradientError, match="entries in a$"):
        RMSProp().step(p, clipped, AB_VIEWS)
    np.testing.assert_array_equal(p, [0.0, 0.0, 0.0])


# -- target sync ----------------------------------------------------------------


def test_sync_targets_exact_and_idempotent(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    ps.agent["in.w"][0] += 1.0
    sync_targets(ps)
    for k in ps.agent:
        np.testing.assert_array_equal(ps.agent[k], ps.target_agent[k])
    snap = {k: v.copy() for k, v in ps.target_agent.items()}
    sync_targets(ps)
    for k in snap:
        np.testing.assert_array_equal(snap[k], ps.target_agent[k])


def test_targets_follow_online_after_step_then_sync(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    opt = RMSProp(lr=0.01)
    flat = ps.packed()
    opt.step(flat.online, np.ones_like(flat.online), flat.views)
    # targets stale now, equal again after sync
    assert not np.array_equal(ps.agent["in.w"], ps.target_agent["in.w"])
    sync_targets(ps)
    np.testing.assert_array_equal(ps.agent["in.w"], ps.target_agent["in.w"])


def test_packed_generation_is_new_at_each_packing_and_sync(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    # a target generation is the identity of the packed target vector
    first = ps.packed().target
    assert ps.packed().target is first
    ps.agent["in.w"][0] += 1.0  # writing into a view is no new packing
    assert ps.packed().target is first
    sync_targets(ps)
    synced = ps.packed().target
    assert synced is not first
    assert ps.packed().target is synced
    ps.target_mixer = {k: v.copy() for k, v in ps.target_mixer.items()}
    repacked = ps.packed().target
    assert repacked is not synced and repacked is not first
    ps.agent = {k: v.copy() for k, v in ps.agent.items()}
    assert ps.packed().target is not repacked


@pytest.mark.parametrize("n_agents", [1, 2])
def test_packing_keeps_values_and_makes_every_array_a_view(rng, n_agents):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net, n_agents=n_agents)
    before = [(name, arr.copy()) for name, arr in ps.named_all()]
    flat = ps.packed()
    assert ps.packed() is flat
    named = list(ps.named_online())
    assert [name for name, _, _ in flat.views] == [name for name, _ in named]
    for (_, start, stop), (name, arr) in zip(flat.views, named, strict=True):
        np.testing.assert_array_equal(flat.online[start:stop], arr.ravel(), err_msg=name)
        assert np.shares_memory(flat.online[start:stop], arr)
    for (name, a), (_, b) in zip(before, ps.named_all(), strict=True):
        np.testing.assert_array_equal(a, b, err_msg=name)
    flat.online[:] = 1.0
    flat.target[:] = 2.0
    assert all(np.all(arr == 1.0) for _, arr in ps.named_online())
    assert all(np.all(v == 2.0) for g in (ps.target_agent, ps.target_mixer) for v in g.values())
    ps.mixer = dict(ps.mixer)  # the same arrays in a new dict: still packed
    assert ps.packed() is flat
    ps.mixer["hb1.b"] = ps.mixer["hb1.b"].copy()
    assert ps.packed() is not flat


def test_named_views_write_through_to_slots(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    named = dict(ps.named_online())
    named["agent.1.in.w"] += 1.0
    named["repr.0.h.b"] -= 2.0
    np.testing.assert_array_equal(ps.agent["in.w"][1], named["agent.1.in.w"])
    np.testing.assert_array_equal(ps.repr["h.b"][0], -2.0)
    rebuilt = ParamSet.from_named(ps.named_all())
    for name, arr in ps.named_all():
        np.testing.assert_array_equal(dict(rebuilt.named_all())[name], arr)


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps, meta={"note": "test", "n": 3})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "test", "n": 3}
    orig = dict(ps.named_all())
    new = dict(loaded.named_all())
    assert orig.keys() == new.keys()
    for k in orig:
        np.testing.assert_array_equal(orig[k], new[k])


# the arrays of one agent slot of make_nets(), in this order
AGENT_SHAPES = [
    ("in.w", (5, 8)), ("in.b", (8,)),
    ("gru.xz.w", (8, 8)), ("gru.xz.b", (8,)), ("gru.hz.w", (8, 8)),
    ("gru.xr.w", (8, 8)), ("gru.xr.b", (8,)), ("gru.hr.w", (8, 8)),
    ("gru.xn.w", (8, 8)), ("gru.xn.b", (8,)), ("gru.hn.w", (8, 8)),
    ("out.w", (8, 4)), ("out.b", (4,)),
]
MIXER_SHAPES = [
    ("hw1.w", (4, 8)), ("hw1.b", (8,)), ("hb1.w", (4, 4)), ("hb1.b", (4,)),
    ("hw2.w", (4, 4)), ("hw2.b", (4,)), ("v1.w", (4, 4)), ("v1.b", (4,)),
    ("v2.w", (4, 1)), ("v2.b", (1,)),
]
REPR_SHAPES = [("h.w", (5, 6)), ("h.b", (6,)), ("out.w", (6, 4)), ("out.b", (4,))]


# the header layout of a version-2 checkpoint: [group, key, shape] in GROUPS
# order, slot-stacked groups with their leading slot axis of 2
FILE_LAYOUT = [
    [group, k, [*slots, *shape]]
    for group, slots, shapes in (("agent", [2], AGENT_SHAPES), ("mixer", [], MIXER_SHAPES),
                                 ("repr", [2], REPR_SHAPES),
                                 ("target_agent", [2], AGENT_SHAPES),
                                 ("target_mixer", [], MIXER_SHAPES))
    for k, shape in shapes
]


def test_checkpoint_file_layout_pinned(tmp_path, rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps)
    with np.load(path) as data:
        members = data.files
        header = json.loads(bytes(data["header"]).decode())
        params = data["params"]
    assert members == ["header", "params"]
    assert header["version"] == 2
    assert header["layout"] == FILE_LAYOUT
    assert (header["n_agents"], header["n_reprs"]) == (2, 2)
    assert params.dtype == np.float64
    assert params.shape == (sum(math.prod(shape) for *_, shape in FILE_LAYOUT),)


def test_checkpoint_array_rebuilt_with_numpy_load(tmp_path, rng):
    # the README's recipe: one array from the header's layout and the params vector
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps)
    with np.load(path) as data:
        layout = json.loads(bytes(data["header"]).decode())["layout"]
        sizes = [math.prod(shape) for _, _, shape in layout]
        i = next(i for i, (g, k, _) in enumerate(layout) if (g, k) == ("mixer", "hw1.w"))
        arr = data["params"][sum(sizes[:i]):sum(sizes[:i + 1])].reshape(layout[i][2])
    np.testing.assert_array_equal(arr, ps.mixer["hw1.w"])


@pytest.mark.parametrize("share_params, without_repr, slots",
                         [(True, False, (1, 1)), (False, True, (2, 0))])
def test_checkpoint_roundtrip_bitwise_shared_and_without_repr(tmp_path, share_params,
                                                              without_repr, slots):
    tr = make_stub_trainer(share_params=share_params, lam_d=0.0 if without_repr else 0.001)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, tr.params)
    loaded, _ = load_checkpoint(path)
    for group in GROUPS:
        src, new = getattr(tr.params, group), getattr(loaded, group)
        assert list(src) == list(new)
        for k in src:
            assert new[k].dtype == src[k].dtype
            np.testing.assert_array_equal(new[k], src[k])
    assert (n_slots(loaded.agent), n_slots(loaded.repr)) == slots


def test_checkpoint_write_is_atomic(tmp_path, rng, monkeypatch):
    qnet, mixer, repr_net = make_nets()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, make_paramset(rng, qnet, mixer, repr_net))
    before = path.read_bytes()

    def savez_then_fail(fh, **arrays):
        fh.write(b"PK partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, make_paramset(rng, qnet, mixer, repr_net))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz"]


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_is_configuration_error(tmp_path, rng, case):
    qnet, mixer, repr_net = make_nets()
    path = tmp_path / "bad.npz"
    write_malformed_checkpoint(path, case, make_paramset(rng, qnet, mixer, repr_net))
    with pytest.raises(ConfigurationError, match=MALFORMED_CHECKPOINTS[case]) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_missing_checkpoint_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.npz")


def test_checkpoint_with_repr_slots_but_no_repr_group_is_configuration_error(tmp_path, rng):
    qnet, mixer, _ = make_nets()
    path = tmp_path / "bad.npz"
    save_checkpoint(path, make_paramset(rng, qnet, mixer))  # no repr nets
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    assert header["n_reprs"] == 0
    arrays["header"] = header_bytes({**header, "n_reprs": 2})
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError, match="n_reprs 2, but the repr group is empty"):
        load_checkpoint(path)


# version-1 member sets, each of which a version-1 reader would have to
# reject on its own, next to a valid mixer
W, B = np.ones((3, 4)), np.zeros(4)
MALFORMED_V1 = {
    "unknown group": {"critic.w": np.ones(2)},
    "slot gap": {"agent.0.in.w": W, "agent.2.in.w": W},
    "no key": {"agent": W},
    "slot not a number": {"agent.x.in.w": W},
    "ragged slots": {"agent.0.in.w": W, "agent.1.in.w": W[:2]},
    "slot counts differ": {"agent.0.in.w": W, "agent.1.in.w": W, "agent.0.in.b": B},
    "aliased slot": {"agent.0.in.w": W, "agent.1.in.w": W, "agent.01.in.w": W},
}


@pytest.mark.parametrize("case", list(MALFORMED_V1))
def test_malformed_version_1_checkpoint_is_configuration_error(tmp_path, case):
    # the version is checked before any member is read, so every one of them
    # gets the unknown-version error and none leaks another exception
    header = {"version": 1, "n_agents": 2, "n_reprs": 0, "meta": {}}
    path = tmp_path / "old.npz"
    with open(path, "wb") as fh:
        np.savez(fh, header=header_bytes(header), **{"param/mixer.v2.b": np.zeros(1)},
                 **{f"param/{name}": arr for name, arr in MALFORMED_V1[case].items()})
    with pytest.raises(ConfigurationError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"unsupported checkpoint version 1 in {path}"


@pytest.mark.parametrize("field, value", [(2, [2.5]), (2, [True]), (2, [-1]), (2, [-2, -3]),
                                          (2, "ab"), (2, None), (0, ["agent"]), (1, ["in.w"]),
                                          (1, 5)])
def test_version_2_layout_entry_of_wrong_type_is_configuration_error(tmp_path, rng, field,
                                                                     value):
    qnet, mixer, repr_net = make_nets()
    path = tmp_path / "ck.npz"
    save_checkpoint(path, make_paramset(rng, qnet, mixer, repr_net))
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["layout"][0][field] = value
    arrays["header"] = header_bytes(header)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError, match="malformed checkpoint .*two strings and a list "
                                                 "of non-negative integers"):
        load_checkpoint(path)


def test_checkpoint_version_guard(tmp_path, rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps)

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["version"] = 999
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)
