"""Forward operations with their adjoint rules.

Every op accepts ``Tensor`` or array-like inputs, computes the forward result
with numpy, and, when a graph is active and an input requires gradients,
records the adjoint rule on the tape. Broadcasting follows numpy semantics;
adjoints are summed back over broadcast axes.

An adjoint rule's closure captures only what the rule reads: shapes where
that is all it needs, and an operand's data only when an adjoint that reads
it will be computed. It never captures a ``Tensor``, so the tape keeps no
array alive that backward does not read.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from ..errors import NumcoreError, ShapeError
from .tensor import Graph, Node, Tensor, as_tensor, fork_join, _active_graph

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

ACTIVATIONS = ("relu", "gelu", "elu")
INIT_SCHEMES = ("uniform_fan", "zeros", "ones")


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    graph = _active_graph()
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires and graph is not None)
    if graph is not None and requires:
        graph.record(Node(inputs, out, backward_fn), inputs)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def param_init(shape: Sequence[int], scheme: str, seed: int = 0) -> Tensor:
    """Create a trainable parameter tensor.

    ``uniform_fan`` draws from U(-1/sqrt(fan_in), 1/sqrt(fan_in)) where
    fan_in is the product of all but the last extent (the input width of the
    linear map the tensor implements). ``zeros``/``ones`` are constant fills.
    Deterministic for a fixed (shape, scheme, seed).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ShapeError("param_init needs a non-empty shape")
    if any(s <= 0 for s in shape):
        raise ShapeError(f"param_init extents must be positive, got {shape}")
    if scheme == "zeros":
        data = np.zeros(shape)
    elif scheme == "ones":
        data = np.ones(shape)
    elif scheme == "uniform_fan":
        fan_in = shape[0] if len(shape) == 1 else int(np.prod(shape[:-1]))
        bound = 1.0 / math.sqrt(fan_in)
        rng = np.random.default_rng(seed)
        data = rng.uniform(-bound, bound, size=shape)
    else:
        raise NumcoreError(f"unknown init scheme {scheme!r}; expected one of {INIT_SCHEMES}")
    return Tensor(data, requires_grad=True)


def _operands(a, b) -> tuple:
    """Both operands as tensors. A constant (anything not a ``Tensor``)
    takes the dtype of the tensor beside it, so a Python scale cannot
    promote float32 to float64."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def astype(a, dtype) -> Tensor:
    """``a`` cast to ``dtype`` (float32 or float64); the adjoint is cast
    back to ``a``'s dtype."""
    a = as_tensor(a)
    source = a.data.dtype

    def bw(g):
        return (g.astype(source),)

    return _record((a,), a.data.astype(dtype), bw)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record((a, b), out, bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None   # read only by grad_b
    b_data = b.data if a.requires_grad else None   # read only by grad_a

    def bw(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _record((a, b), out, bw)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's stacked-matmul broadcasting.

    Adjoints: grad_a = g @ b^T, grad_b = a^T @ g (transposes on the last two
    axes, summed back over broadcast leading axes).

    When ``b`` is 2-D (a weight matrix), ``a`` is viewed as one
    ``(rows, d_in)`` matrix, so the forward product and both adjoints are one
    BLAS GEMM each, and grad_b is summed over all rows inside that GEMM.
    Otherwise (attention scores, weighted values, pooling) the product runs
    stacked over the leading axes. Either way an operand that does not
    require gradients gets no adjoint computed, and the tape keeps each
    operand's data only when the other operand's adjoint reads it.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if b.requires_grad else None   # read only by grad_b
    b_data = b.data if a.requires_grad else None   # read only by grad_a
    if b.ndim == 2:
        rows, (d_in, d_out) = math.prod(a_shape[:-1]), b_shape
        out = (a.data.reshape(rows, d_in) @ b.data).reshape(a_shape[:-1] + (d_out,))

        def bw(g):
            g2 = g.reshape(rows, d_out)
            return (None if b_data is None else (g2 @ b_data.T).reshape(a_shape),
                    None if a_data is None else a_data.reshape(rows, d_in).T @ g2)

        return _record((a, b), out, bw)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul broadcast failure: {a.shape} @ {b.shape}") from exc

    def bw(g):
        ga = None if b_data is None else np.matmul(g, np.swapaxes(b_data, -1, -2))
        gb = None if a_data is None else np.matmul(np.swapaxes(a_data, -1, -2), g)
        return (None if ga is None else _unbroadcast(ga, a_shape),
                None if gb is None else _unbroadcast(gb, b_shape))

    return _record((a, b), out, bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    a_shape = a.shape

    def bw(g):
        return (g.reshape(a_shape),)

    return _record((a,), out, bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)

    def bw(g):
        return (g.transpose(inverse),)

    return _record((a,), out, bw)


def _split_adjoint(parts: Sequence[Tensor], axis: int):
    """Adjoint of concatenating ``parts``: one slice of ``g`` per part."""
    splits = np.cumsum([t.shape[axis] for t in parts])[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return bw


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    return _record(tuple(ts), out, _split_adjoint(ts, axis))


def _on_tape(fn: Callable[[], Tensor]) -> tuple:
    with Graph() as tape:
        head = as_tensor(fn())
    return tape, head


def parallel_concat(branches: Sequence[Callable[[], Tensor]], axis: int = -1) -> Tensor:
    """``concat`` of the outputs of two zero-argument callables, run on two
    threads by ``fork_join``: branch 0 on the calling thread, branch 1 on
    numcore's worker thread.

    Inside a graph each branch records on its own sub-tape and the op records
    one node holding both sub-tapes. Its backward splits the adjoint, walks
    the two sub-tapes on two threads again and sums the adjoints of the
    tensors the branches read (shared weights) in branch order, so a tensor
    that each branch reads once gets the same bits as from ``concat`` of the
    branches run in sequence. Its closure holds the branch outputs that seed
    the walks until it runs. Outside a graph the branches only run
    concurrently. Branches must not read each other's outputs.
    """
    if len(branches) != 2:
        raise NumcoreError(f"parallel_concat takes two branches, got {len(branches)}")
    graph = _active_graph()
    if graph is None:
        heads = [as_tensor(h) for h in fork_join(*branches)]
        return Tensor(np.concatenate([h.data for h in heads], axis=axis))
    tapes, heads = zip(*fork_join(*(partial(_on_tape, fn) for fn in branches)))
    out = Tensor(np.concatenate([h.data for h in heads], axis=axis))
    reads = {}
    for tape, head in zip(tapes, heads):
        for t in (*tape.leaves(), head):
            if t.requires_grad and not tape.produced(t):
                reads.setdefault(t.key, t)
    if not reads:
        return out
    keys, split = tuple(reads), _split_adjoint(heads, axis)

    def bw(g):
        nonlocal heads
        walks = [partial(tape.propagate, head, part)
                 for tape, head, part in zip(tapes, heads, split(g))]
        heads = ()
        found = fork_join(*walks)
        grads = []
        for key in keys:
            total = None
            for leaves in found:
                hit = leaves.get(key)
                if hit is not None:
                    total = hit[1] if total is None else total + hit[1]
            grads.append(total)
        return tuple(grads)

    out.requires_grad = True
    inputs = tuple(reads.values())
    graph.record(Node(inputs, out, bw, tapes), inputs)
    return out


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    a_shape = a.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a_shape).copy(),)

    return _record((a,), out, bw)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sums along the last axis, keeping it, as one GEMV against ones."""
    n = a.shape[-1]
    return (a.reshape(-1, n) @ np.ones(n, dtype=a.dtype)).reshape(a.shape[:-1] + (1,))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching rows along the last axis, keeping it."""
    return np.vecdot(a, b)[..., None]


def softmax(a, key_gone=None, scale: float = 1.0) -> Tensor:
    """Softmax over the last axis of ``scale * a``; entries where the
    boolean ``key_gone`` (broadcast to ``a``) is True get weight 0, as do
    -inf entries of ``a``.

    The mask is applied by adding a 0 / -inf bias of ``key_gone``'s shape,
    which gives the bits of setting those entries to -inf for every finite
    score. A non-finite score in a masked column (+inf or NaN) yields NaN
    instead, which ``fit``'s non-finite-loss check then reports.

    One output buffer: scale, add the bias, subtract the row max, exp in
    place, divide by the row sum (a GEMV). The adjoint reads only the
    output: ``scale * out * (g - sum(g * out))``.
    """
    a = as_tensor(a)
    out = np.multiply(a.data, np.asarray(scale, dtype=a.data.dtype))
    if key_gone is not None:
        out += np.where(key_gone, -np.inf, 0.0).astype(out.dtype, copy=False)
    out -= np.max(out, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= _row_sum(out)

    def bw(g):
        gx = g - _row_dot(g, out)
        gx *= out
        if scale != 1.0:
            gx *= np.asarray(scale, dtype=gx.dtype)
        return (gx,)

    return _record((a,), out, bw)


def layer_norm(x, gain, bias, eps: float = 1e-5, branch=None, rate: float = 0.0,
               rng: Optional[np.random.Generator] = None) -> Tensor:
    """Zero mean / unit variance along the last axis, then affine gain/bias,
    of ``x``, or of the residual sum ``x + dropout(branch, rate, rng)`` when
    a ``branch`` is given (dropout is on only with a generator and a
    positive rate). The adjoint gives ``gx`` to ``x`` and
    ``gx * keep / (1 - rate)`` to ``branch``."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm needs a non-empty feature axis")
    inputs, keep, scale = (x, gain, bias), None, 1.0
    if branch is None:
        xhat = x.data - _row_sum(x.data) / d
    else:
        branch = as_tensor(branch)
        if branch.shape != x.shape:
            raise ShapeError(f"layer_norm branch {branch.shape} does not match x {x.shape}")
        inputs += (branch,)
        keep = _keep_mask(rng, branch.shape, rate)
        if keep is None:
            xhat = x.data + branch.data
        else:
            scale = 1.0 / (1.0 - rate)
            xhat = branch.data * keep
            xhat *= scale
            xhat += x.data
        xhat -= _row_sum(xhat) / d
    # xhat is centred now and scaled in place below
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / d + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data
    gain_data, bias_shape = gain.data, bias.shape   # x itself is not read
    has_branch = branch is not None

    def bw(g):
        gx = g * gain_data
        m1 = _row_sum(gx) / d
        m2 = _row_dot(gx, xhat) / d
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        lead = tuple(range(g.ndim - gain_data.ndim))
        ggain = (g * xhat).sum(axis=lead) if lead else g * xhat
        gbias = g.sum(axis=lead) if lead else g.copy()
        grads = (gx, _unbroadcast(ggain, gain_data.shape), _unbroadcast(gbias, bias_shape))
        if not has_branch:
            return grads
        if keep is None:
            return grads + (gx,)
        gb = gx * keep
        gb *= scale
        return grads + (gb,)

    return _record(inputs, out, bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):   # out > 0 exactly where a > 0, so a itself need not stay alive
        return (g * (out > 0.0),)

    return _record((a,), out, bw)


def gelu(a) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    a = as_tensor(a)
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * phi_cdf

    def bw(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return (g * (phi_cdf + x * pdf),)

    return _record((a,), out, bw)


def elu(a) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1)."""
    a = as_tensor(a)
    x = a.data
    neg_part = np.expm1(np.minimum(x, 0.0))
    out = np.where(x > 0.0, x, neg_part)

    def bw(g):
        return (g * np.where(x > 0.0, 1.0, neg_part + 1.0),)

    return _record((a,), out, bw)


def activation(a, kind: str) -> Tensor:
    if kind == "relu":
        return relu(a)
    if kind == "gelu":
        return gelu(a)
    if kind == "elu":
        return elu(a)
    raise NumcoreError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so no ``exp`` overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _record((a,), out, bw)


def bce_with_logits(z, labels) -> Tensor:
    """Mean binary cross-entropy of logits ``z`` against 0/1 ``labels``.

    Computed as mean(max(z, 0) - y*z + log1p(exp(-|z|))), which is finite for
    every finite logit; the adjoint (sigmoid(z) - y) / n stays non-zero on a
    confident mistake. Labels are constants and get no gradient. The loss is
    computed and returned in float64 whatever the dtype of ``z``; the
    adjoint comes back in ``z``'s dtype.
    """
    z = as_tensor(z)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != z.shape:
        raise ShapeError(f"bce_with_logits: labels {y.shape} do not match logits {z.shape}")
    z64 = z.data.astype(np.float64, copy=False)
    out = np.mean(np.maximum(z64, 0.0) - y * z64 + np.log1p(np.exp(-np.abs(z64))))
    n, dtype = z.size, z.data.dtype

    def bw(g):
        return ((g * (_sigmoid(z64) - y) / n).astype(dtype, copy=False),)

    return _record((z,), out, bw)


def _keep_mask(rng: Optional[np.random.Generator], shape: tuple, rate: float):
    """The boolean keep-mask of every dropout, or None when dropout is off
    (no generator, or rate 0).

    One uniform uint16 per element, cut from the generator's raw 64-bit
    output, is kept when it is at least ``round(rate * 65536)``: the drop
    rate is exact to 2**-17 and the mask does not depend on the
    activations' dtype.
    """
    if not 0.0 <= rate < 1.0:
        raise NumcoreError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    n = math.prod(shape)
    bits = rng.bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return (bits >= round(rate * 65536)).reshape(shape)


def dropout(x, rate: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate), drawing the mask from ``rng`` only. Identity without a
    generator (inference) or at rate 0."""
    x = as_tensor(x)
    keep = _keep_mask(rng, x.shape, rate)
    if keep is None:
        return x
    scale = 1.0 / (1.0 - rate)
    out = x.data * keep
    out *= scale

    def bw(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _record((x,), out, bw)
