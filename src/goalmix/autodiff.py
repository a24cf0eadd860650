"""Minimal reverse-mode differentiation over numpy arrays.

Deliberately restricted to the operations the training losses need:
``+``, ``*`` and ``@`` (a constant may stand on either side), ``-`` (a
Tensor on the left), the activations, ``exp``, ``log``, ``sqrt``,
reshape, sum, stack, gathers (``take_along_last``), ``moveaxis``,
``logsumexp_last``, ``affine``, a whole affine layer ``x @ w + b`` (with
an optional relu) as one node, ``gru_cell``, one GRU step on arrays, and
``gru_layer``, a whole GRU layer (the three gates' input affines and the
recurrence) as one node that caches only the gates z, r and n and its
output, and whose backward is hand-written backpropagation through time;
no negation or division. Everything is float64.

A :class:`Tensor` wraps an ndarray. Every op builds its node with one
call, ``Tensor(value, parents, back)``: the op's value, its Tensor
operands, and a closure ``back(g)`` that hands each of them its
vector-Jacobian product of the upstream gradient ``g``. A constant operand
is not a parent and gets no gradient. ``Tensor.backward()`` walks the
graph in reverse topological order and accumulates gradients into
``.grad``; an inner node's ``.grad`` is dropped as soon as its ``back``
has run, so once ``backward()`` returns only leaves (Tensors built from a
value alone, such as wrapped parameters) hold one.

Plain ndarrays and Python floats are constants in these expressions (no
graph nodes are created for them). The same network code therefore runs
in "graph mode" when the parameters are Tensors and as plain numpy when
they are arrays; see :mod:`goalmix.nn`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "stack",
    "take_along_last",
    "relu",
    "elu",
    "absval",
    "exp",
    "log",
    "sqrt",
    "logsumexp_last",
    "affine",
    "gru_cell",
    "gru_layer",
]


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    # Keep numpy from absorbing Tensor operands into object arrays; with
    # this set, ndarray <op> Tensor falls through to the reflected method.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from a scalar through the recorded graph. Every
        inner node's ``.grad`` is None again once its ``back`` has run;
        leaves keep the gradients they accumulated."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        order = []
        visited = set()
        stack_ = [(self, False)]
        while stack_:
            node, done = stack_.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack_.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack_.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        a, b = self.data, _value(other)

        def back(g):
            self._accum(_unbroadcast(g, a.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(g, b.shape))
        return Tensor(a + b, _parents(self, other), back)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self.data, _value(other)

        def back(g):
            self._accum(_unbroadcast(g, a.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(-g, b.shape))
        return Tensor(a - b, _parents(self, other), back)

    def __mul__(self, other):
        a, b = self.data, _value(other)

        def back(g):
            self._accum(_unbroadcast(g * b, a.shape))
            if isinstance(other, Tensor):
                other._accum(_unbroadcast(g * a, b.shape))
        return Tensor(a * b, _parents(self, other), back)

    __rmul__ = __mul__

    def __matmul__(self, other):
        a, b = self.data, _value(other)

        def back(g):
            self._accum(_matmul_grad_left(g, a, b))
            if isinstance(other, Tensor):
                other._accum(_matmul_grad_right(g, a, b))
        return Tensor(a @ b, _parents(self, other), back)

    def __rmatmul__(self, other):
        # constant @ Tensor
        a, b = _value(other), self.data

        def back(g):
            self._accum(_matmul_grad_right(g, a, b))
        return Tensor(a @ b, (self,), back)

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.data.shape

        def back(g):
            self._accum(g.reshape(src))
        return Tensor(self.data.reshape(shape), (self,), back)

    def sum(self, axis=None, keepdims=False):
        src = self.data.shape

        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, src))
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), back)

    def square(self):
        return self * self


def _value(x):
    """A Tensor's data, or a constant as a float64 array."""
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _parents(a, b):
    """The Tensor operands of a binary op whose left operand ``a`` is a Tensor."""
    return (a, b) if isinstance(b, Tensor) else (a,)


def _matmul_grad_left(g, a, b):
    if b.ndim == 1:
        raise ValueError("matmul operands must be at least 2-D")
    ga = g @ np.swapaxes(b, -1, -2)
    return _unbroadcast(ga, a.shape)


def _matmul_grad_right(g, a, b):
    gb = np.swapaxes(a, -1, -2) @ g
    return _unbroadcast(gb, b.shape)


def _wrap_unary(fn_val, fn_grad):
    """Build a dual-mode unary op: numpy in, numpy out; Tensor in, node out."""

    def op(x):
        if not isinstance(x, Tensor):
            return fn_val(np.asarray(x, dtype=np.float64))
        y = fn_val(x.data)

        def back(g):
            x._accum(g * fn_grad(x.data, y))
        return Tensor(y, (x,), back)

    return op


def _sigmoid_(a):
    """a <- 1 / (1 + exp(-a)) in place, in the operand order of that expression."""
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.add(1.0, a, out=a)
    return np.divide(1.0, a, out=a)


# the boolean mask multiplies as 0.0/1.0, bitwise as a float64 mask would
relu = _wrap_unary(lambda x: np.maximum(x, 0.0), lambda x, y: x > 0)

elu = _wrap_unary(
    lambda x: np.where(x > 0, x, np.expm1(x)),
    lambda x, y: np.where(x > 0, 1.0, np.exp(x)),
)

absval = _wrap_unary(np.abs, lambda x, y: np.sign(x))

exp = _wrap_unary(np.exp, lambda x, y: y)

log = _wrap_unary(np.log, lambda x, y: 1.0 / x)

# Zero-safe square root: the subgradient at 0 is taken as 0, which is the
# true derivative wherever sqrt appears under an outer square (norms).
sqrt = _wrap_unary(
    np.sqrt,
    lambda x, y: np.where(y > 0, 0.5 / np.where(y > 0, y, 1.0), 0.0),
)


def stack(tensors, axis=0):
    """Stack Tensors (or constants) along a new axis."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.stack(tensors, axis=axis)

    def back(g):
        for t, gs in zip(tensors, np.moveaxis(g, axis, 0)):
            if isinstance(t, Tensor):
                t._accum(np.ascontiguousarray(gs))
    return Tensor(np.stack([_value(t) for t in tensors], axis=axis),
                  tuple(t for t in tensors if isinstance(t, Tensor)), back)


def take_along_last(x, idx):
    """Select one entry per row along the last axis (differentiable gather)."""
    idx = np.asarray(idx)
    if not isinstance(x, Tensor):
        return np.take_along_axis(np.asarray(x), idx[..., None], axis=-1)[..., 0]
    src = x.data.shape

    def back(g):
        full = np.zeros(src)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        x._accum(full)
    return Tensor(np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0], (x,), back)


def moveaxis(x, source, destination):
    """np.moveaxis with C-contiguous data (so a later matmul can use BLAS);
    a graph node when x is a Tensor."""
    if not isinstance(x, Tensor):
        return np.ascontiguousarray(np.moveaxis(x, source, destination))

    def back(g):
        x._accum(np.ascontiguousarray(np.moveaxis(g, destination, source)))
    return Tensor(np.ascontiguousarray(np.moveaxis(x.data, source, destination)), (x,), back)


def logsumexp_last(x):
    """log(sum(exp(x), axis=-1)), stabilised by a constant max shift;
    numpy or graph mode, as ``log`` and ``exp`` are."""
    c = _value(x).max(axis=-1, keepdims=True)
    return log(exp(x - c).sum(axis=-1)) + c[..., 0]


def _affine_value(xd, wd, bd):
    """``xd @ wd`` with the bias added in place, and the shape the bias
    broadcasts as: (S, 1, n_out) under slot-stacked weights."""
    b_shape = (bd.shape[0], 1, bd.shape[1]) if wd.ndim == 3 else bd.shape
    y = xd @ wd
    np.add(y, bd.reshape(b_shape), out=y)
    return y, b_shape


def _affine_back(g, x, w, b, b_shape):
    """The backward of ``x @ w + b`` for the upstream gradient ``g``, each
    gradient as the add, reshape and matmul nodes of the composite would
    form it: hands a Tensor bias and a Tensor w theirs, and returns x's (a
    new array), or None when x is a constant."""
    xd, wd = _value(x), _value(w)
    if isinstance(b, Tensor):
        b._accum(_unbroadcast(g, b_shape).reshape(b.shape))
    if isinstance(w, Tensor):
        w._accum(_matmul_grad_right(g, xd, wd))
    return _matmul_grad_left(g, xd, wd) if isinstance(x, Tensor) else None


def affine(x, w, b, relu=False):
    """``x @ w + b``, or ``relu(x @ w + b)`` with ``relu``, as one op. Weights
    (n_in, n_out) take a bias (n_out,); slot-stacked weights (S, n_in, n_out)
    take a bias (S, n_out), added to every row of its slot as (S, 1, n_out).

    The bias and the relu act in place on the product, so the value has the
    bits of the composite while no pre-bias or pre-activation array is
    kept. Plain operands give an array; if any is a Tensor the layer is one
    graph node, and a relu layer keeps only its boolean mask for the
    backward. That hands out the bias gradient, then x's and w's, each as
    the add, reshape and matmul nodes of the composite would.
    """
    y, b_shape = _affine_value(_value(x), _value(w), _value(b))
    if relu:
        np.maximum(y, 0.0, out=y)
    parents = tuple(o for o in (x, w, b) if isinstance(o, Tensor))
    if not parents:
        return y
    # the boolean mask multiplies as 0.0/1.0, bitwise as a float64 mask would
    mask = y > 0 if relu else None

    def back(g):
        gx = _affine_back(g * mask if relu else g, x, w, b, b_shape)
        if gx is not None:
            x._accum(gx)
    return Tensor(y, parents, back)


def gru_cell(xz, xr, xn, h, w_hz, w_hr, w_hn, out=None):
    """One GRU step on arrays: the update, reset and candidate gates from
    their input projections xz, xr, xn and the previous state h. ``h @ w``
    broadcasts over a leading slot axis of slot-stacked weights (S, H, H).
    Returns (h', z, r, r * h, n): the next state and its intermediates.

    ``out`` is six arrays of xz's shape: the results are written into the
    first five and the sixth is scratch. Without it the step allocates
    them. Every op runs in place in the operand order of
    ``z = 1 / (1 + exp(-(xz + h @ w_hz)))``, ``n = tanh(xn + (r * h) @ w_hn)``
    and ``h' = (1 - z) * n + z * h``, so both ways give the same bits."""
    if out is None:
        out = [np.empty(xz.shape) for _ in range(6)]
    h_next, z, r, rh, n, work = out
    _sigmoid_(np.add(xz, np.matmul(h, w_hz, out=z), out=z))
    _sigmoid_(np.add(xr, np.matmul(h, w_hr, out=r), out=r))
    np.multiply(r, h, out=rh)
    np.tanh(np.add(xn, np.matmul(rh, w_hn, out=n), out=n), out=n)
    np.multiply(np.subtract(1.0, z, out=h_next), n, out=h_next)
    np.add(h_next, np.multiply(z, h, out=work), out=h_next)
    return h_next, z, r, rh, n


def _gru_forward(xs, w_h, graph):
    """The GRU recurrence from a zero state over ``xs``, the z, r and n input
    projections as time-major (T, ..., H) arrays, with recurrent weight
    arrays ``w_h``; empties ``xs`` once read. Returns the hidden states
    (..., T, H) and, in graph mode, the time-major z, r and n of every step
    (None otherwise). Each step is one :func:`gru_cell` writing into
    preallocated buffers; r * h and the cell's scratch are one step's."""
    t_len, *step = xs[0].shape
    hs = np.empty(xs[0].shape)
    gates = [np.empty(hs.shape if graph else step) for _ in range(3)]  # z, r, n
    rh, work = np.empty(step), np.empty(step)
    h = np.zeros(step)
    for t in range(t_len):
        z, r, n = (g[t] for g in gates) if graph else gates
        h = gru_cell(xs[0][t], xs[1][t], xs[2][t], h, *w_h, out=(hs[t], z, r, rh, n, work))[0]
    xs.clear()
    return np.ascontiguousarray(np.moveaxis(hs, 0, -2)), gates if graph else None


def _gru_backward(g, hs, gates, w_h):
    """Backpropagation through time of the upstream gradient ``g`` (..., T, H)
    of :func:`_gru_forward`'s hidden states ``hs`` and gates. Hands each
    Tensor among the recurrent weights ``w_h`` its gradient and returns
    those of the z, r and n input projections, (..., T, H) each."""
    # per step, dL/d(pre-activation) of n and z is dh times c_n and c_z,
    # and that of r is d(r * h) times c_r:
    # c_n = (1 - z)(1 - n^2), c_z = (h_{t-1} - n) z (1 - z), c_r = h_{t-1} r (1 - r)
    *lead, t_len, hd = hs.shape
    z, r, n = gates
    hz_t, hr_t, hn_t = (np.ascontiguousarray(np.swapaxes(_value(w), -1, -2)) for w in w_h)
    dxz, dxr, dxn = np.empty(hs.shape), np.empty(hs.shape), np.empty(hs.shape)
    c_n, c_z, c_r, d = (np.empty((*lead, hd)) for _ in range(4))
    dh, h0 = np.zeros((*lead, hd)), np.zeros((*lead, hd))
    for t in range(t_len - 1, -1, -1):
        h_prev, z_t, r_t, n_t = hs[..., t - 1, :] if t else h0, z[t], r[t], n[t]
        np.subtract(1.0, z_t, out=d)
        np.multiply(d, np.subtract(1.0, np.multiply(n_t, n_t, out=c_n), out=c_n), out=c_n)
        np.multiply(np.multiply(np.subtract(h_prev, n_t, out=c_z), z_t, out=c_z), d, out=c_z)
        np.multiply(np.multiply(h_prev, r_t, out=c_r), np.subtract(1.0, r_t, out=d), out=c_r)
        np.add(dh, g[..., t, :], out=dh)  # dL/dh_t: its own output plus step t + 1
        d_an = np.multiply(dh, c_n, out=dxn[..., t, :])
        d_az = np.multiply(dh, c_z, out=dxz[..., t, :])
        d_rh = np.matmul(d_an, hn_t, out=d)
        d_ar = np.multiply(d_rh, c_r, out=dxr[..., t, :])
        # dh <- dh * z + d_rh * r + d_az @ hz^T + d_ar @ hr^T, summed left to right
        np.multiply(dh, z_t, out=dh)
        np.add(dh, np.multiply(d_rh, r_t, out=d), out=dh)
        np.add(dh, np.matmul(d_az, hz_t, out=d), out=dh)
        np.add(dh, np.matmul(d_ar, hr_t, out=d), out=dh)
    # each recurrent-weight gradient is one (H, rows) @ (rows, H) product per
    # slot; one (..., T, H) array holds h_{t-1} for w_hz and w_hr, then
    # (times r, in place: the bits of the forward's r * h) r * h_{t-1} for w_hn
    if not any(isinstance(w, Tensor) for w in w_h):
        return dxz, dxr, dxn
    left = np.empty(hs.shape)
    left[..., 0, :] = 0.0
    left[..., 1:, :] = hs[..., :-1, :]
    rows = (*lead[:-1], -1, hd)
    for k, (w, grad) in enumerate(zip(w_h, (dxz, dxr, dxn))):
        if k == 2:
            np.multiply(left, np.moveaxis(r, 0, -2), out=left)
        if isinstance(w, Tensor):
            w_grad = np.swapaxes(left.reshape(rows), -1, -2) @ grad.reshape(rows)
            w._accum(_unbroadcast(w_grad, w.shape))
    return dxz, dxr, dxn


def gru_layer(x, w_x, b_x, w_h, t_len):
    """A whole GRU layer over sequences of ``t_len`` steps: the input
    projections ``x @ w + b`` of the z, r and n gates (``w_x`` and ``b_x``,
    three weights and biases as :func:`affine` takes them), then the GRU
    recurrence from a zero state over them with the three recurrent
    weights ``w_h``, (H, H) or slot-stacked (S, H, H). x is
    (..., B * T, n_in), each sequence's T steps in consecutive rows; the
    result is the hidden states (..., B, T, H).

    Each projection is the bits of :func:`affine`'s: one ``x @ w`` over the
    batch-major rows, then ``+= b``. It is copied once time-major for the
    recurrence (:func:`_gru_forward`, one :func:`gru_cell` per step into
    preallocated buffers) and dropped. Plain operands give an array. If
    any operand is a Tensor the layer is one graph node that keeps only
    its hidden states and time-major caches of z, r and n. Its backward
    runs :func:`_gru_backward`, then each gate's, z, r and n in turn, as
    the gate's :func:`affine` node would, dropping the gate's input
    gradient once used; x gets the sum of the three gates' gradients,
    added in that order in place, which is what three affine nodes
    accumulate into an x that nothing else reads. Neither pass writes
    into its operands.
    """
    operands = (x, *w_x, *b_x, *w_h)
    xd = _value(x)
    lead = (*xd.shape[:-2], xd.shape[-2] // t_len)
    xs, b_shapes = [], []
    for w, b in zip(w_x, b_x):
        proj, b_shape = _affine_value(xd, _value(w), _value(b))
        xs.append(np.ascontiguousarray(np.moveaxis(proj.reshape(*lead, t_len, -1), -2, 0)))
        b_shapes.append(b_shape)
        del proj
    graph = any(isinstance(o, Tensor) for o in operands)
    hs, gates = _gru_forward(xs, [_value(w) for w in w_h], graph)
    if not graph:
        return hs

    def back(g):
        grads, gx = list(_gru_backward(g, hs, gates, w_h)), None
        for k, (w, b, b_shape) in enumerate(zip(w_x, b_x, b_shapes)):
            grad, grads[k] = grads[k].reshape(*xd.shape[:-1], -1), None
            gate_gx = _affine_back(grad, x, w, b, b_shape)
            gx = gate_gx if gx is None else np.add(gx, gate_gx, out=gx)
        if gx is not None:
            x._accum(gx)
    return Tensor(hs, tuple(o for o in operands if isinstance(o, Tensor)), back)
