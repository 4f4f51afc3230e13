"""Forward operations with their adjoint rules.

Every op accepts ``Tensor`` or array-like inputs, computes the forward result
with numpy, and, when a graph is active and an input requires gradients,
records the adjoint rule on the tape. Broadcasting follows numpy semantics;
adjoints are summed back over broadcast axes.

An adjoint rule's closure captures only what the rule reads: shapes where
that is all it needs, and an operand's data only when an adjoint that reads
it will be computed. It never captures a ``Tensor``, so the tape keeps no
array alive that backward does not read. Where an operand carries a
``remake`` (see ``Tensor``), ``matmul`` keeps that instead of the data.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import NumcoreError, ShapeError
from .tensor import Graph, Node, Tensor, as_tensor, fork_join, _active_graph

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

ACTIVATIONS = ("relu", "gelu", "elu")


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    graph = _active_graph()
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires and graph is not None)
    if graph is not None and requires:
        graph.record(Node(inputs, out, backward_fn), inputs)
    return out


def _reader(t: Tensor) -> Callable[[], np.ndarray]:
    """What an adjoint keeps to read ``t``'s data in backward: ``t.remake``
    when it has one, so the data need not stay on the tape; else the
    data."""
    if t.remake is not None:
        return t.remake
    data = t.data
    return lambda: data


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
    operand's data only when the other operand's adjoint reads it; for
    ``a``, it keeps ``a.remake`` instead when ``a`` has one.
    """
    a, b = _operands(a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    a_shape, b_shape = a.shape, b.shape
    read_a = _reader(a) if b.requires_grad else None   # read only by grad_b
    b_data = b.data if a.requires_grad else None       # read only by grad_a
    if b.ndim == 2:
        rows, (d_in, d_out) = math.prod(a_shape[:-1]), b_shape
        out = (a.data.reshape(rows, d_in) @ b.data).reshape(a_shape[:-1] + (d_out,))

        def bw(g):
            g2 = g.reshape(rows, d_out)
            return (None if b_data is None else (g2 @ b_data.T).reshape(a_shape),
                    None if read_a is None else read_a().reshape(rows, d_in).T @ g2)

        return _record((a, b), out, bw)
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul broadcast failure: {a.shape} @ {b.shape}") from exc

    def bw(g):
        ga = None if b_data is None else np.matmul(g, np.swapaxes(b_data, -1, -2))
        gb = None if read_a is None else np.matmul(np.swapaxes(read_a(), -1, -2), g)
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
    splits = list(itertools.accumulate(t.shape[axis] for t in parts))[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return bw


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    """Join along ``axis``."""
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


def _col_sum(a: np.ndarray) -> np.ndarray:
    """Sums over every axis but the last, as one GEMV against ones."""
    n = a.shape[-1]
    rows = a.reshape(-1, n)
    return np.ones(rows.shape[0], dtype=a.dtype) @ rows


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching rows along the last axis, keeping it."""
    return np.vecdot(a, b)[..., None]


def _mask_bias(key_gone, dtype):
    """The 0 / -inf additive bias of a boolean ``key_gone``, or None."""
    if key_gone is None:
        return None
    return np.where(key_gone, -np.inf, 0.0).astype(dtype, copy=False)


def _exp_rows(s: np.ndarray, bias, shift: bool) -> np.ndarray:
    """Add ``bias`` (if any) to ``s``, subtract each row's max when
    ``shift``, exponentiate in place and return the row sums (a GEMV)."""
    if bias is not None:
        s += bias
    if shift:
        s -= np.max(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    return _row_sum(s)


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
    out /= _exp_rows(out, _mask_bias(key_gone, out.dtype), shift=True)

    def bw(g):
        gx = g - _row_dot(g, out)
        gx *= out
        if scale != 1.0:
            gx *= np.asarray(scale, dtype=gx.dtype)
        return (gx,)

    return _record((a,), out, bw)


_ROW_SUM_FLOOR = 2.0 ** -64   # attention's unshifted row sums below this take the row max


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """A (B, N, n_heads * dk) array as a (B, n_heads, N, dk) view (a copy
    only when ``x`` is not C-contiguous)."""
    b, n, width = x.shape
    return x.reshape(b, n, n_heads, width // n_heads).transpose(0, 2, 1, 3)


def attention(qkv, key_gone, n_heads: int, rate: float = 0.0,
              rng: Optional[np.random.Generator] = None) -> Tensor:
    """Multi-head scaled dot-product attention as one op: from the
    (B, N, 3d) projection ``qkv`` (queries, keys and values side by side,
    each cut into ``n_heads`` heads of dk = d / n_heads) to the (B, N, d)
    context, the heads side by side.

    ``key_gone`` is None or a boolean (B, N): True where a key gets weight
    0 in every query row. With a generator and a positive ``rate`` the
    (B, n_heads, N, N) weights go through inverted dropout, with the mask
    ``dropout`` would draw for them. The result is that of the chain
    ``softmax(q @ k^T, key_gone, 1/sqrt(dk))``, ``dropout``, ``@ v`` to
    float rounding.

    The heads are strided views of ``qkv``; the context and the adjoint's
    (B, N, 3d) gradient are written through strided views, so nothing is
    reshaped or transposed into a copy. The scaled, masked scores are
    exponentiated in place without subtracting the row max. When any row
    sum is non-finite or below 2**-64 (a score beyond exp's range, such as
    one above 88.7 in float32; a row whose every score lies below about
    -44; a +inf or NaN score), the whole call computes the scores again and
    takes ``softmax``'s row-max path, so a +inf or NaN score in a masked
    column still yields NaN.

    The adjoint reads ``qkv`` and the softmax weights. With dropout it
    draws the keep mask again (``_keep_mask``) and remakes the dropped-out
    weights with the forward's two passes, so neither stays on the tape.
    On a tape the output carries a ``remake``: the forward's own
    dropped-out weights times the values, written into the strided heads,
    so the output projection's weight gradient need not keep the context.
    The remake hands the mask and dropped-out weights it made on to the
    adjoint, which runs next, so backward draws each mask once.
    """
    qkv = as_tensor(qkv)
    if qkv.ndim != 3 or qkv.shape[-1] % (3 * n_heads):
        raise ShapeError(f"attention needs (B, N, 3 * {n_heads} * dk) projections, got {qkv.shape}")
    data, dtype = qkv.data, qkv.data.dtype
    b, n, width = data.shape
    scale = 1.0 / math.sqrt(width // (3 * n_heads))

    def split(x):
        heads = _heads(x, 3 * n_heads)
        return heads[:, :n_heads], heads[:, n_heads:2 * n_heads], heads[:, 2 * n_heads:]

    q, k, v = split(data)
    bias = None if key_gone is None else _mask_bias(np.asarray(key_gone)[:, None, None, :], dtype)
    w = np.matmul(q, k.swapaxes(-1, -2))
    w *= scale
    with np.errstate(over="ignore", invalid="ignore"):
        total = _exp_rows(w, bias, shift=False)
    if not (total.min() >= _ROW_SUM_FLOOR and total.max() < np.inf):
        w = np.matmul(q, k.swapaxes(-1, -2))
        w *= scale
        total = _exp_rows(w, bias, shift=True)
    w /= total
    keep, redraw = _keep_mask(rng, w.shape, rate)
    drop_scale = 1.0 / (1.0 - rate)

    def dropped(keep):
        return w if keep is None else _kept(w, keep, drop_scale)

    def context(weights):
        out = np.empty((b, n, width // 3), dtype)
        np.matmul(weights, v, out=_heads(out, n_heads))
        return out

    def dropped_again():
        """(keep mask or None, dropped-out weights) of the forward, made
        again."""
        keep = None if redraw is None else redraw()
        return keep, dropped(keep)

    # Backward runs the output projection's adjoint, which calls the
    # context's remake, right before this op's: the remake hands the pair
    # it made on, so the mask is not drawn twice.
    handed = []

    def remake():
        handed[:] = [dropped_again()]
        return context(handed[0][1])

    def bw(g):
        keep, weights = handed.pop() if handed else dropped_again()
        gh = _heads(g, n_heads)
        grad = np.empty((b, n, width), dtype)
        gq, gk, gv = split(grad)
        np.matmul(weights.swapaxes(-1, -2), gh, out=gv)
        del weights
        gw = np.matmul(gh, v.swapaxes(-1, -2))
        if keep is not None:
            gw *= keep
            gw *= drop_scale
        gw -= _row_dot(gw, w)
        gw *= w
        gw *= scale
        np.matmul(gw, k, out=gq)
        np.matmul(gw.swapaxes(-1, -2), q, out=gk)
        return (grad,)

    out = _record((qkv,), context(dropped(keep)), bw)
    if out.requires_grad:   # recorded; outside a tape the remake would keep w alive
        out.remake = remake
    return out


def layer_norm(x, gain, bias, eps: float = 1e-5, branch=None, rate: float = 0.0,
               rng: Optional[np.random.Generator] = None) -> Tensor:
    """Zero mean / unit variance along the last axis, then affine gain/bias,
    of ``x``, or of the residual sum ``x + dropout(branch, rate, rng)`` when
    a ``branch`` is given (dropout is on only with a generator and a
    positive rate). The adjoint gives ``gx`` to ``x`` and
    ``gx * keep / (1 - rate)`` to ``branch``, drawing the keep mask again
    (``_keep_mask``) instead of holding it; the gain and bias gradients
    are sums over every row, one GEMV against ones each (``gain`` and
    ``bias`` hold one value per feature).

    On a tape the output carries a ``remake``: the same two passes
    (``_affine``) over the normalised ``xhat`` that the adjoint keeps, so
    an adjoint that reads the output (``matmul``'s) need not keep it."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm needs a non-empty feature axis")
    inputs, redraw, scale = (x, gain, bias), None, 1.0
    if branch is None:
        xhat = x.data - _row_sum(x.data) / d
    else:
        branch = as_tensor(branch)
        if branch.shape != x.shape:
            raise ShapeError(f"layer_norm branch {branch.shape} does not match x {x.shape}")
        inputs += (branch,)
        keep, redraw = _keep_mask(rng, branch.shape, rate)
        if keep is None:
            xhat = x.data + branch.data
        else:
            scale = 1.0 / (1.0 - rate)
            xhat = _kept(branch.data, keep, scale)
            xhat += x.data
        xhat -= _row_sum(xhat) / d
    # xhat is centred now and scaled in place below
    inv = 1.0 / np.sqrt(_row_dot(xhat, xhat) / d + eps)
    xhat *= inv
    gain_data, bias_data = gain.data, bias.data   # x itself is not read
    bias_shape, has_branch = bias.shape, branch is not None

    def bw(g):
        gx = g * gain_data
        m1 = _row_sum(gx) / d
        m2 = _row_dot(gx, xhat) / d
        gx -= m1
        gx -= xhat * m2
        gx *= inv
        grads = (gx, _col_sum(g * xhat).reshape(gain_data.shape), _col_sum(g).reshape(bias_shape))
        if not has_branch:
            return grads
        if redraw is None:
            return grads + (gx,)
        return grads + (_kept(gx, redraw(), scale),)

    out = _record(inputs, _affine(xhat, gain_data, bias_data), bw)
    if out.requires_grad:   # recorded; outside a tape the remake would keep xhat alive
        out.remake = lambda: _affine(xhat, gain_data, bias_data)
    return out


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``xhat * gain + bias`` in two passes: ``layer_norm``'s output and,
    by the same operations, its remake."""
    out = xhat * gain
    out += bias
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def bw(g):   # out > 0 exactly where a > 0, so a itself need not stay alive
        return (g * (out > 0.0),)

    return _record((a,), out, bw)


def gelu(a) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    from scipy.special import erf   # loaded on first use: no other op needs scipy

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


def _keep_mask(rng: Optional[np.random.Generator], shape: tuple, rate: float) -> tuple:
    """(mask, redraw): the 0/1 keep-mask of every dropout, one byte per
    element, and a zero-argument function that draws it again, bit for
    bit; (None, None) when dropout is off (no generator, or rate 0).

    One uniform uint16 per element, cut from the generator's raw 64-bit
    output, is kept when it is at least ``round(rate * 65536)``: the drop
    rate is exact to 2**-17 and the mask does not depend on the
    activations' dtype. The mask is the boolean comparison viewed as
    ``uint8``: a product with it has the bits of one with the boolean.

    The generator's state is saved before the draw. ``redraw`` sets a new
    bit generator of the same type to that state and draws from it, so an
    adjoint keeps a few integers instead of the mask, and ``rng`` is never
    touched again.
    """
    if not 0.0 <= rate < 1.0:
        raise NumcoreError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None, None
    kind, state = type(rng.bit_generator), rng.bit_generator.state
    threshold = round(rate * 65536)

    def redraw():
        bit_generator = kind(0)
        bit_generator.state = state
        return _draw_mask(bit_generator, shape, threshold)

    return _draw_mask(rng.bit_generator, shape, threshold), redraw


def _draw_mask(bit_generator, shape: tuple, threshold: int) -> np.ndarray:
    n = math.prod(shape)
    bits = bit_generator.random_raw(-(-n // 4)).view(np.uint16)[:n]
    return (bits >= threshold).view(np.uint8).reshape(shape)


def dropout(x, rate: float, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by
    1/(1-rate), drawing the mask from ``rng`` only. Identity without a
    generator (inference) or at rate 0. The adjoint draws the mask again
    (``_keep_mask``), so the tape holds no mask."""
    x = as_tensor(x)
    keep, redraw = _keep_mask(rng, x.shape, rate)
    if keep is None:
        return x
    scale = 1.0 / (1.0 - rate)

    def bw(g):
        return (_kept(g, redraw(), scale),)

    return _record((x,), _kept(x.data, keep, scale), bw)


def _kept(x: np.ndarray, keep: np.ndarray, scale: float) -> np.ndarray:
    """``x * keep * scale`` in two passes, as every dropout and its adjoint
    compute it."""
    out = x * keep
    out *= scale
    return out
