"""Gradient engine checks against finite differences and hand derivatives."""

import functools
import itertools
import operator

import numpy as np
import pytest

from goalmix.autodiff import (
    Tensor, _unbroadcast, absval, affine, elu, exp, gru_layer, log, logsumexp_last,
    moveaxis, relu, sqrt, stack, take_along_last,
)
from goalmix.nn import gradient
from goalmix.oracles import finite_diff_grad, strided_gru_sequence


def test_square_gradient():
    p = Tensor(3.0)
    loss = p * p
    loss.backward()
    assert p.grad == pytest.approx(6.0, abs=1e-12)


def test_constant_loss_zero_gradient():
    p = Tensor(np.ones(4))
    q = Tensor(2.0)
    loss = q * q
    grads = gradient(loss, {"p": p, "q": q})
    assert np.all(grads["p"] == 0.0)
    assert grads["q"] == pytest.approx(4.0)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.backward()


def test_tensor_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor(1.0) / Tensor(2.0)


def test_sqrt_zero_subgradient():
    x = Tensor(np.array([0.0, 4.0]))
    y = sqrt(x).sum()
    y.backward()
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(0.25)


def test_broadcast_add_backward():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=3))
    x = rng.normal(size=(5, 3))

    def loss_fn(params):
        return float((((x + params["b"]) ** 2)).sum())

    loss = ((x + b) * (x + b)).sum()
    loss.backward()
    fd = finite_diff_grad(lambda p: loss_fn(p), {"b": b.data}, step=1e-6)
    np.testing.assert_allclose(b.grad, fd["b"], rtol=1e-6, atol=1e-8)


# The relu and elu rows keep the ids they had when sigmoid was row 0.
@pytest.mark.parametrize("op,np_ref", [
    pytest.param(relu, lambda x: np.maximum(x, 0), id="op-<lambda>1"),
    pytest.param(elu, lambda x: np.where(x > 0, x, np.expm1(x)),
                 id="op-<lambda>2"),
    (absval, np.abs),
    (exp, np.exp),
])
def test_unary_ops_match_numpy_and_fd(op, np_ref):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3)) + 0.1  # keep away from relu/abs kinks
    t = Tensor(x)
    out = op(t)
    np.testing.assert_allclose(out.data, np_ref(x), rtol=1e-12)
    w = rng.normal(size=(4, 3))
    (out * w).sum().backward()
    fd = finite_diff_grad(
        lambda p: float((np_ref(p["x"]) * w).sum()), {"x": x}, step=1e-6
    )
    np.testing.assert_allclose(t.grad, fd["x"], rtol=1e-5, atol=1e-8)


def test_log_backward():
    x = np.array([0.5, 2.0, 3.0])
    t = Tensor(x)
    log(t).sum().backward()
    np.testing.assert_allclose(t.grad, 1.0 / x, rtol=1e-12)


def test_matmul_param_on_right_fd():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 5, 3))  # batched constant input
    w = Tensor(rng.normal(size=(3, 4)))
    out = (a @ w)
    (out * out).sum().backward()
    fd = finite_diff_grad(
        lambda p: float(((a @ p["w"]) ** 2).sum()), {"w": w.data}, step=1e-6
    )
    np.testing.assert_allclose(w.grad, fd["w"], rtol=1e-6, atol=1e-8)


def test_batched_matmul_both_sides_fd():
    rng = np.random.default_rng(4)
    a0 = rng.normal(size=(6, 1, 3))
    b0 = rng.normal(size=(6, 3, 2))

    def loss_np(p):
        return float(((p["a"] @ p["b"]) ** 2).sum())

    a, b = Tensor(a0), Tensor(b0)
    out = a @ b
    (out * out).sum().backward()
    fd = finite_diff_grad(loss_np, {"a": a0, "b": b0}, step=1e-6)
    np.testing.assert_allclose(a.grad, fd["a"], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, fd["b"], rtol=1e-6, atol=1e-8)


def test_stack_take_slice_reshape_backward():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(3, 4))
    y0 = rng.normal(size=(3, 4))
    idx = rng.integers(2, size=(3,))

    def loss_np(p):
        s = np.stack([p["x"], p["y"]], axis=1)      # (3, 2, 4)
        first = s[:, 0]                              # slice_time
        picked = np.take_along_axis(
            first.reshape(3, 4), np.stack([idx] * 4, axis=1)[:, :1], axis=1
        )[:, 0]
        return float((picked ** 2).sum() + (s ** 2).sum())

    x, y = Tensor(x0), Tensor(y0)
    s = stack([x, y], axis=1)
    first = (s * np.array([1.0, 0.0])[:, None]).sum(axis=1)  # s[:, 0] by a constant mask
    picked = take_along_last(first.reshape(3, 4), np.stack([idx] * 4, axis=1)[:, 0])
    loss = (picked * picked).sum() + (s * s).sum()
    loss.backward()
    fd = finite_diff_grad(loss_np, {"x": x0, "y": y0}, step=1e-6)
    np.testing.assert_allclose(x.grad, fd["x"], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(y.grad, fd["y"], rtol=1e-6, atol=1e-8)


def test_moveaxis_and_later_axis_slice_backward():
    # agents first (N, M, T, U): slice a time step, move the agent axis last
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(2, 3, 4, 5))
    w = rng.normal(size=(3, 5, 2))

    def loss_np(p):
        moved = np.moveaxis(p["x"][..., 1, :], 0, -1)          # (3, 5, 2)
        return float((moved * w).sum() + (p["x"][..., 3, :] ** 2).sum())

    x = Tensor(x0)
    at_step = np.eye(4)[:, :, None]  # at_step[t]: one-hot mask of time step t, (4, 1)
    moved = moveaxis((x * at_step[1]).sum(axis=-2), 0, -1)
    assert moved.data.flags["C_CONTIGUOUS"]
    last = (x * at_step[3]).sum(axis=-2)
    loss = (moved * w).sum() + (last * last).sum()
    loss.backward()
    fd = finite_diff_grad(loss_np, {"x": x0}, step=1e-6)
    np.testing.assert_allclose(x.grad, fd["x"], rtol=1e-6, atol=1e-8)
    np.testing.assert_array_equal(moveaxis(x0, 0, -1), np.moveaxis(x0, 0, -1))


def test_logsumexp_matches_reference_and_fd():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(5, 3)) * 4
    ref = np.log(np.exp(x0).sum(axis=-1))
    t = Tensor(x0)
    out = logsumexp_last(t)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)
    np.testing.assert_array_equal(logsumexp_last(x0), out.data)  # numpy mode, same bits
    out.sum().backward()
    fd = finite_diff_grad(
        lambda p: float(np.log(np.exp(p["x"]).sum(axis=-1)).sum()),
        {"x": x0}, step=1e-6,
    )
    np.testing.assert_allclose(t.grad, fd["x"], rtol=1e-5, atol=1e-8)


def test_sum_axis_keepdims_backward():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    out = x.sum(axis=1)
    (out * np.array([1.0, 2.0, 3.0])).sum().backward()
    expected = np.repeat(np.array([[1.0], [2.0], [3.0]]), 4, axis=1)
    np.testing.assert_array_equal(x.grad, expected)


def test_gradient_accumulates_through_reuse():
    p = Tensor(2.0)
    loss = p * p + p * 3.0
    loss.backward()
    assert p.grad == pytest.approx(7.0)


# -- binary ops: each operand's gradient, bit for bit ------------------------------

# each op: its numpy value, and the gradients of the left and right operands
# from the upstream g, in the numpy expressions the backward forms
BINARY = {
    "+": (operator.add, lambda g, a, b: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))),
    "-": (operator.sub, lambda g, a, b: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))),
    "*": (operator.mul,
          lambda g, a, b: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))),
    "@": (operator.matmul,
          lambda g, a, b: (_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
                           _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))),
}
# operand shapes: equal, then broadcast on one side or both; () is a Python float
ELEMENTWISE_SHAPES = [((4, 3), (4, 3)), ((2, 4, 3), (3,)), ((4, 1), (2, 1, 3)), ((4, 3), ())]
MATMUL_SHAPES = [((4, 3), (3, 2)), ((2, 4, 3), (3, 2)), ((5, 3), (2, 3, 4)),
                 ((1, 4, 3), (2, 3, 2))]
# which operands are Tensors; a constant minus a Tensor is no op (no __rsub__)
SIDES = {"tensor-tensor": (True, True), "tensor-constant": (True, False),
         "constant-tensor": (False, True)}


def shape_id(shapes):
    return "x".join("float" if s == () else ".".join(map(str, s)) for s in shapes)


BINARY_CASES = [
    pytest.param(op, shapes, sides, id=f"{op}-{shape_id(shapes)}-{sides}")
    for op in BINARY
    for shapes in (MATMUL_SHAPES if op == "@" else ELEMENTWISE_SHAPES)
    for sides in SIDES
    if (op, sides) != ("-", "constant-tensor")
]


def operand(rng, shape, tensor):
    value = rng.normal(size=shape)
    value = float(value) if shape == () else value
    return np.asarray(value, dtype=np.float64), (Tensor(value) if tensor else value)


@pytest.mark.parametrize("op, shapes, sides", BINARY_CASES)
def test_binary_op_gradients_are_bitwise_the_numpy_formulas(op, shapes, sides):
    rng = np.random.default_rng(13)
    fn, vjp = BINARY[op]
    (a, left), (b, right) = (operand(rng, s, t) for s, t in zip(shapes, SIDES[sides]))
    out = fn(left, right)
    assert isinstance(out, Tensor)
    np.testing.assert_array_equal(out.data, fn(a, b))
    g = rng.normal(size=out.shape)
    (out * g).sum().backward()  # hands the node exactly g
    for arg, grad in zip((left, right), vjp(g, a, b)):
        if isinstance(arg, Tensor):
            assert arg.grad.shape == arg.shape
            np.testing.assert_array_equal(arg.grad, grad)


def test_constant_minus_tensor_is_rejected():
    with pytest.raises(TypeError):
        np.ones(3) - Tensor(np.ones(3))


# the same Tensor as both operands: each op, and the sum of its two gradients
SAME_OPERAND = {
    "x-x": (lambda x: x - x, lambda g, x: g + -g),
    "x+x": (lambda x: x + x, lambda g, x: g + g),
    "x*x": (lambda x: x * x, lambda g, x: g * x + g * x),
    "x@x": (lambda x: x @ x, lambda g, x: g @ x.T + x.T @ g),
    "stack-x-x": (lambda x: stack([x, x]), lambda g, x: g[0] + g[1]),
}


@pytest.mark.parametrize("case", list(SAME_OPERAND))
def test_same_tensor_on_both_sides_gets_both_gradients(case):
    rng = np.random.default_rng(14)
    fn, grad = SAME_OPERAND[case]
    x0 = rng.normal(size=(3, 3))
    x = Tensor(x0)
    out = fn(x)
    g = rng.normal(size=out.shape)
    (out * g).sum().backward()
    np.testing.assert_array_equal(x.grad, grad(g, x0))
    if case == "x-x":
        assert not x.grad.any()


# -- the affine node against the composite of @, reshape and + --------------------

# (x, w) shapes, the bias being (n_out,) or (S, n_out): the mixer's 2-D weights,
# slot-stacked weights with S = N, and one shared slot (S = 1) for N = 2
AFFINE_SHAPES = {
    "2-D": ((6, 4), (4, 3)),
    "slots": ((2, 5, 4), (2, 4, 3)),
    "shared-slot": ((2, 5, 4), (1, 4, 3)),
}
# which of x, w and b are Tensors: a constant x (observations, states), a
# Tensor x (hidden layers), and array weights with a Tensor x (criterion 4)
AFFINE_TENSORS = {"all": "xwb", "constant-x": "wb", "array-weights": "x", "none": ""}


def composite_affine(x, w, b):
    """x @ w + b as separate @, reshape and + ops, the bias of slot-stacked
    weights reshaped to (S, 1, n_out)."""
    if len(w.shape) == 3:
        b = b.reshape(b.shape[0], 1, b.shape[1])
    return x @ w + b


def affine_operands(values, tensors):
    return [Tensor(v) if name in tensors else v for name, v in zip("xwb", values)]


def assert_affine_is_the_composite(values, tensors, relu_layer):
    """``affine`` and the composite (under ``relu`` for a relu layer) on the
    same values: equal outputs and, for each Tensor operand, equal gradients."""
    fused = affine_operands(values, tensors)
    split = affine_operands(values, tensors)
    out = affine(*fused, relu=relu_layer)
    ref = composite_affine(*split)
    ref = relu(ref) if relu_layer else ref
    assert isinstance(out, Tensor) == bool(tensors)
    if not tensors:
        np.testing.assert_array_equal(out, ref)
        return
    np.testing.assert_array_equal(out.data, ref.data)
    g = np.random.default_rng(16).normal(size=out.shape)
    (out * g).sum().backward()  # hands each node exactly g
    (ref * g).sum().backward()
    for mine, theirs in zip(fused, split):
        if isinstance(mine, Tensor):
            assert mine.grad.shape == mine.shape
            np.testing.assert_array_equal(mine.grad, theirs.grad)


@pytest.mark.parametrize("tensors", list(AFFINE_TENSORS))
@pytest.mark.parametrize("shape", list(AFFINE_SHAPES))
def test_affine_is_bitwise_the_composite(shape, tensors):
    rng = np.random.default_rng(15)
    x_shape, w_shape = AFFINE_SHAPES[shape]
    values = [rng.normal(size=x_shape), rng.normal(size=w_shape),
              rng.normal(size=(*w_shape[:-2], w_shape[-1]))]
    assert_affine_is_the_composite(values, AFFINE_TENSORS[tensors], relu_layer=False)


@pytest.mark.parametrize("tensors", list(AFFINE_TENSORS))
@pytest.mark.parametrize("shape", list(AFFINE_SHAPES))
def test_relu_affine_is_bitwise_relu_of_the_composite(shape, tensors):
    """Small integers make many pre-activations exactly 0.0, where the relu's
    mask and its value meet; x and b hold 0.0 and -0.0 entries (a matmul sums
    from +0.0, so no pre-activation is -0.0 itself)."""
    rng = np.random.default_rng(17)
    x_shape, w_shape = AFFINE_SHAPES[shape]
    x, w = (rng.integers(-2, 3, size=s).astype(np.float64) for s in (x_shape, w_shape))
    b = rng.integers(-2, 3, size=(*w_shape[:-2], w_shape[-1])).astype(np.float64)
    x.flat[::5], x.flat[1::5] = 0.0, -0.0
    b.flat[::2] = -0.0
    pre = composite_affine(x, w, b)
    assert (pre == 0.0).sum() >= 2 and (pre > 0).any() and (pre < 0).any()
    assert_affine_is_the_composite([x, w, b], AFFINE_TENSORS[tensors], relu_layer=True)


def test_only_leaves_keep_their_gradient_after_backward():
    rng = np.random.default_rng(18)
    w, b, v = (Tensor(rng.normal(size=s)) for s in ((3, 4), (4,), (4, 2)))
    hidden = affine(rng.normal(size=(5, 3)), w, b, relu=True)
    out = hidden @ v
    loss = (out * out).sum()
    loss.backward()
    assert all(leaf.grad is not None for leaf in (w, b, v))
    assert all(node.grad is None for node in (hidden, out, loss))


# -- the GRU layer against three affines and the strided reference -----------------

# (lead, slots, T, H); slots None is a single net with (H, H) weights
GRU_SHAPES = {
    "skirmish": ((2, 32), 2, 30, 64),
    "chain": ((2, 32), 2, 10, 32),
    "shared-slot": ((3, 4), 1, 6, 5),
    "single-net": ((4,), None, 6, 5),
    "one-step": ((2, 3), 2, 1, 5),
}
# which of the recurrence's operands, (gate inputs, w_hz, w_hr, w_hn), are Tensors
GRU_TENSORS = {"all": range(4), "weights": range(1, 4), "inputs": (0,), "none": ()}


@pytest.mark.parametrize("tensors", list(GRU_TENSORS))
@pytest.mark.parametrize("shape", list(GRU_SHAPES))
def test_gru_layer_recurrence_is_bitwise_the_strided_reference(shape, tensors):
    """The recurrence alone: x is the z, r and n gate inputs side by side and
    each gate's input weight selects its own third (the projections are then
    x's own bits), so gru_layer must give strided_gru_sequence's hidden
    states, its recurrent weights' gradients and, in x's thirds, its three
    input gradients."""
    lead, slots, t_len, hd = GRU_SHAPES[shape]
    rng = np.random.default_rng(11)
    w_lead = () if slots is None else (slots,)
    gate_x = [rng.normal(size=(*lead, t_len, hd)) for _ in range(3)]
    w_h = [rng.normal(scale=hd ** -0.5, size=(*w_lead, hd, hd)) for _ in range(3)]
    g = rng.normal(size=(*lead, t_len, hd))
    hs_ref, grads_ref = strided_gru_sequence(*gate_x, *w_h, g)
    x = np.concatenate(gate_x, axis=-1).reshape(*lead[:-1], lead[-1] * t_len, 3 * hd)
    select = np.eye(3 * hd).reshape(3 * hd, 3, hd)
    w_x = [np.broadcast_to(select[:, k], (*w_lead, 3 * hd, hd)).copy() for k in range(3)]
    b_x = [np.zeros((*w_lead, hd)) for _ in range(3)]
    before = [o.copy() for o in (x, *w_h)]

    args = [Tensor(o) if i in GRU_TENSORS[tensors] else o for i, o in enumerate((x, *w_h))]
    hs = gru_layer(args[0], w_x, b_x, args[1:], t_len)
    assert isinstance(hs, Tensor) == bool(GRU_TENSORS[tensors])
    if isinstance(hs, Tensor):
        (hs * g).sum().backward()  # hands the node exactly g
        hs = hs.data
    assert hs.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(hs, hs_ref)
    if isinstance(args[0], Tensor):
        dx = args[0].grad.reshape(*lead, t_len, 3, hd)
        for k in range(3):
            assert np.array_equal(dx[..., k, :], grads_ref[k]), f"gate input {k}"
    for i, (arg, ref) in enumerate(zip(args[1:], grads_ref[3:])):
        if isinstance(arg, Tensor):
            assert arg.grad.shape == ref.shape
            assert np.array_equal(arg.grad, ref), f"recurrent weight {i}"
    for operand, copy in zip((x, *w_h), before):  # the layer writes only its own buffers
        np.testing.assert_array_equal(operand, copy)

# the layer's operands by role, (x, w_x, b_x, w_h) in its argument order,
# as indices into the flat list [x, w_xz, w_xr, w_xn, b_xz, b_xr, b_xn, w_hz, w_hr, w_hn]
GRU_LAYER_ROLES = {"x": (0,), "w_x": (1, 2, 3), "b_x": (4, 5, 6), "w_h": (7, 8, 9)}


@functools.lru_cache(maxsize=None)
def gru_layer_case(shape):
    """Operands, an upstream gradient and the reference of a GRU layer at one
    of GRU_SHAPES: each gate's projection is ``affine(x, w, b)``, the
    recurrence is ``strided_gru_sequence``, and each gate's affine node,
    handed its projection's gradient, gives that gate's bias and weight
    gradients; x's is the three gates' summed z, then r, then n. Returns
    (operands, g, hidden states, the ten operands' gradients)."""
    lead, slots, t_len, hd = GRU_SHAPES[shape]
    n_in = hd + 3
    w_lead = () if slots is None else (slots,)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(*lead[:-1], lead[-1] * t_len, n_in))
    w_x = [rng.normal(scale=n_in ** -0.5, size=(*w_lead, n_in, hd)) for _ in range(3)]
    b_x = [rng.normal(size=(*w_lead, hd)) for _ in range(3)]
    w_h = [rng.normal(scale=hd ** -0.5, size=(*w_lead, hd, hd)) for _ in range(3)]
    g = rng.normal(size=(*lead, t_len, hd))
    projections = [affine(x, w, b).reshape(*lead, t_len, hd) for w, b in zip(w_x, b_x)]
    hs, (*d_proj, dw_hz, dw_hr, dw_hn) = strided_gru_sequence(*projections, *w_h, g)
    dx, dw_x, db_x = None, [], []
    for w, b, d in zip(w_x, b_x, d_proj):
        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        out = affine(xt, wt, bt)
        (out * d.reshape(out.shape)).sum().backward()  # hands the node exactly d
        dx = xt.grad if dx is None else dx + xt.grad
        dw_x.append(wt.grad)
        db_x.append(bt.grad)
    return [x, *w_x, *b_x, *w_h], g, hs, [dx, *dw_x, *db_x, dw_hz, dw_hr, dw_hn]


def assert_gru_layer_is_the_reference(shape, tensors):
    """gru_layer with the operands at ``tensors`` (indices) as Tensors: the
    reference's hidden states and, for each Tensor operand, its gradient,
    bit for bit; no operand written."""
    operands, g, hs_ref, grads_ref = gru_layer_case(shape)
    before = [o.copy() for o in operands]
    args = [Tensor(o) if i in tensors else o for i, o in enumerate(operands)]
    hs = gru_layer(args[0], args[1:4], args[4:7], args[7:], GRU_SHAPES[shape][2])
    assert isinstance(hs, Tensor) == bool(tensors)
    if isinstance(hs, Tensor):
        (hs * g).sum().backward()  # hands the node exactly g
        hs = hs.data
    assert hs.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(hs, hs_ref)
    for i, (arg, ref) in enumerate(zip(args, grads_ref)):
        if isinstance(arg, Tensor):
            assert arg.grad.shape == ref.shape
            assert np.array_equal(arg.grad, ref), f"operand {i}"
    for operand, copy in zip(operands, before):
        np.testing.assert_array_equal(operand, copy)


@pytest.mark.parametrize("roles", [
    "+".join(combo) or "none"
    for k in range(len(GRU_LAYER_ROLES) + 1)
    for combo in itertools.combinations(GRU_LAYER_ROLES, k)
])
@pytest.mark.parametrize("shape", list(GRU_SHAPES))
def test_gru_layer_is_bitwise_three_affines_and_the_strided_reference(shape, roles):
    tensors = {i for role in roles.split("+") for i in GRU_LAYER_ROLES.get(role, ())}
    assert_gru_layer_is_the_reference(shape, tensors)


@pytest.mark.parametrize("shape", ["shared-slot", "single-net", "one-step"])
def test_gru_layer_is_the_reference_under_every_operand_mix(shape):
    """Each of the 2**10 ways to make some of the ten operands Tensors,
    gates mixed within a role too."""
    for mask in range(2 ** 10):
        assert_gru_layer_is_the_reference(shape, {i for i in range(10) if mask >> i & 1})
