"""Forward operations with their adjoint rules.

Every op accepts ``Tensor`` or array-like inputs, computes the forward result
with numpy, and, when a graph is active and an input requires gradients,
records the adjoint rule on the tape. Broadcasting follows numpy semantics;
adjoints are summed back over broadcast axes.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from ..errors import NumcoreError, ShapeError
from .tensor import BranchNode, Graph, Node, Tensor, as_tensor, fork_join, _active_graph

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

ACTIVATIONS = ("relu", "gelu", "elu")
INIT_SCHEMES = ("uniform_fan", "zeros", "ones")


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    graph = _active_graph()
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires and graph is not None)
    if graph is not None and requires:
        graph.record(Node(inputs, out, backward_fn))
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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _record((a, b), out, bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _record((a, b), out, bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record((a, b), out, bw)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def bw(g):
        return (-g,)

    return _record((a,), -a.data, bw)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's stacked-matmul broadcasting.

    Adjoints: grad_a = g @ b^T, grad_b = a^T @ g (transposes on the last two
    axes, summed back over broadcast leading axes).

    When ``b`` is 2-D (a weight matrix), ``a`` is viewed as one
    ``(rows, d_in)`` matrix, so the forward product and both adjoints are one
    BLAS GEMM each, and grad_b is summed over all rows inside that GEMM.
    Otherwise (attention scores, weighted values, pooling) the product runs
    stacked over the leading axes. Either way an operand that does not
    require gradients gets no adjoint computed.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if b.ndim == 2:
        rows, (d_in, d_out) = math.prod(a.shape[:-1]), b.shape
        out = (a.data.reshape(rows, d_in) @ b.data).reshape(a.shape[:-1] + (d_out,))

        def bw(g):
            g2 = g.reshape(rows, d_out)
            return ((g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None,
                    a.data.reshape(rows, d_in).T @ g2 if b.requires_grad else None)

        return _record((a, b), out, bw)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul broadcast failure: {a.shape} @ {b.shape}") from exc

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) if b.requires_grad else None
        return (None if ga is None else _unbroadcast(ga, a.shape),
                None if gb is None else _unbroadcast(gb, b.shape))

    return _record((a, b), out, bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.shape),)

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
    one ``BranchNode``. Its backward splits the adjoint, walks the two
    sub-tapes on two threads again and sums the adjoints of the tensors the
    branches read (shared weights) in branch order, so a tensor that each
    branch reads once gets the same bits as from ``concat`` of the branches
    run in sequence. Outside a graph the branches only run concurrently.
    Branches must not read each other's outputs.
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
        for t in (*tape.reads(), head):
            if t.requires_grad and not tape.produced(t):
                reads.setdefault(id(t), t)
    if reads:
        out.requires_grad = True
        graph.record(BranchNode(reads.values(), out, _split_adjoint(heads, axis), tapes, heads))
    return out


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record((a,), out, bw)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax; tolerates -inf entries (they get weight 0)."""
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _record((a,), out, bw)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Zero mean / unit variance along the last axis, then affine gain/bias."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm needs a non-empty feature axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu              # centred here, scaled in place below
    var = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bw(g):
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        lead = tuple(range(g.ndim - gain.data.ndim))
        ggain = (g * xhat).sum(axis=lead) if lead else g * xhat
        gbias = g.sum(axis=lead) if lead else g.copy()
        return gx, _unbroadcast(ggain, gain.shape), _unbroadcast(gbias, bias.shape)

    return _record((x, gain, bias), out, bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):
        return (g * (a.data > 0.0),)

    return _record((a,), out, bw)


def gelu(a) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    a = as_tensor(a)
    phi_cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = a.data * phi_cdf

    def bw(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (phi_cdf + a.data * pdf),)

    return _record((a,), out, bw)


def elu(a) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1)."""
    a = as_tensor(a)
    neg_part = np.expm1(np.minimum(a.data, 0.0))
    out = np.where(a.data > 0.0, a.data, neg_part)

    def bw(g):
        return (g * np.where(a.data > 0.0, 1.0, neg_part + 1.0),)

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
    confident mistake. Labels are constants and get no gradient.
    """
    z = as_tensor(z)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != z.shape:
        raise ShapeError(f"bce_with_logits: labels {y.shape} do not match logits {z.shape}")
    out = np.mean(np.maximum(z.data, 0.0) - y * z.data + np.log1p(np.exp(-np.abs(z.data))))

    def bw(g):
        return (g * (_sigmoid(z.data) - y) / z.size,)

    return _record((z,), out, bw)


def masked_fill(a, mask, value: float) -> Tensor:
    """Set entries where ``mask`` is True to ``value``; their gradient is zero."""
    a = as_tensor(a)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out = np.where(mask, value, a.data)

    def bw(g):
        return (np.where(mask, 0.0, g),)

    return _record((a,), out, bw)


def dropout(x, rate: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate), drawing the mask from ``rng`` only. Identity without a
    generator (inference) or at rate 0."""
    x = as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise NumcoreError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = np.where(keep, x.data * scale, 0.0)

    def bw(g):
        return (np.where(keep, g * scale, 0.0),)

    return _record((x,), out, bw)
