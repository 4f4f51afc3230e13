"""The patch-transformer network.

Each channel is processed independently: per-sequence standardisation over
observed samples, segmentation into patches, linear patch embedding plus a
learned positional table, a stack of post-norm encoder layers whose attention
ignores mostly-missing patches, masked global average pooling, and finally a
linear head that emits one logit from the two concatenated channel summaries;
only ``predict_scores`` applies the sigmoid. The two channels share no
activation before the head, so ``forward_batch`` runs them on two threads.

The parameters are float64. A training pass computes in float32
(``TRAIN_DTYPE``) on a working copy of them, after Micikevicius et al.,
"Mixed Precision Training" (arXiv:1710.03740), and the optimizer updates
the float64 parameters in float64. ``fit``'s optimizer keeps that copy
(``model.working_copy``) and refreshes it after each step; a pass reads it
as the leaves of its tape, and the gradients stay float32 until the step.
Given float64 parameters, ``forward_batch`` casts a copy at its top
instead, and the gradients reach the float64 parameters. Inference
computes in the dtype of the parameters it is given, and so does every
function below ``forward_batch``; ``predict_scores`` takes the sigmoid in
float64 either way.

Attention runs as one numcore op per layer and channel. One product by
the layer's (d, 3d) ``w_qkv`` gives the (B, N, 3d) query, key and value
projection, and ``numcore.attention`` takes it to
the (B, N, d) context: the heads are strided views of the projection, and
the scores are exponentiated without subtracting the row max unless a row
sum leaves [2**-64, inf), when the op takes softmax's row-max path. Its
adjoint holds only the projection and the softmax weights: with attention
dropout it draws the keep mask again from the generator state saved at the
draw, and remakes the dropped-out weights from the mask and the weights.
The context leaves the tape as well: the output projection's weight
gradient remakes it from those same arrays.

No dropout mask stays on the tape. Each mask is drawn again in backward
from a saved generator state (as FlashAttention does, Dao et al.,
arXiv:2205.14135) on a bit generator of its own, so the generator a pass
draws from is left where the forward left it.

A layer norm's output leaves the tape too: the products that read it (the
FFN's first matmul, and the next layer's Q/K/V projection) keep its
``remake``, which rebuilds it bit for bit from the ``xhat`` the norm's own
adjoint keeps. So of the layers' inputs only the first one's stays on the
tape, and every result is bit for bit that of holding the outputs and
the masks.

Every operation takes a leading batch axis; one trace is a batch of one.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..data import stack_traces
from ..errors import ModelError
from ..numcore import (
    Tensor,
    activation,
    attention as attention_op,
    dropout,
    layer_norm,
    matmul,
    parallel_concat,
    reshape,
)
from ..numcore.ops import _sigmoid
from .config import ModelConfig
from .params import Backbone, LayerParams, ModelParams, cast_params

INSTANCE_NORM_EPS = 1e-8
LAYER_NORM_EPS = 1e-5
FORWARD_BUDGET_BYTES = 240 << 20   # sizes a training chunk; see max_forward_chunk
TRAIN_DTYPE = np.float32           # compute dtype of a training pass


def instance_normalize(values: np.ndarray, mask: np.ndarray):
    """Standardise each row's observed samples to zero mean, unit variance;
    masked positions stay 0. Statistics are recomputed per call, so inference
    uses each sequence's own mean and variance. Returns (normalized, mu, sigma)
    with shapes (B, L), (B,), (B,)."""
    counts = mask.sum(axis=1)
    if np.any(counts < 2):
        raise ModelError("instance normalization needs at least 2 observed samples per channel")
    masked_vals = np.where(mask, values, 0.0)
    mu = masked_vals.sum(axis=1) / counts
    centered = np.where(mask, values - mu[:, None], 0.0)
    sigma = np.sqrt((centered ** 2).sum(axis=1) / counts)
    sigma = np.maximum(sigma, INSTANCE_NORM_EPS)
    return centered / sigma[:, None], mu, sigma


def _patch_indices(seq_len: int, patch_len: int, stride: int) -> np.ndarray:
    if patch_len > seq_len:
        raise ModelError(f"patch_len {patch_len} exceeds sequence length {seq_len}")
    n = (seq_len - patch_len) // stride + 1
    return np.arange(n)[:, None] * stride + np.arange(patch_len)[None, :]


def make_patches(values: np.ndarray, mask: np.ndarray, patch_len: int, stride: int):
    """Cut (B, L) channels into patches of ``patch_len`` every ``stride``
    samples. Returns (patches (B, N, P), patch_mask (B, N)); a patch is
    attended unless more than half of its samples are masked out."""
    idx = _patch_indices(values.shape[1], patch_len, stride)
    patches = values[:, idx]                       # (B, N, P)
    missing = (~mask)[:, idx].sum(axis=2)          # (B, N)
    patch_mask = missing <= patch_len * 0.5
    return patches, patch_mask


def embed_patches(patches: np.ndarray, w_patch: Tensor, w_pos: Tensor) -> Tensor:
    """Project (B, N, P) patches, in the weights' dtype, into the latent
    width and add positional rows. Masked patches are embedded too; masking
    is enforced inside attention."""
    n = patches.shape[-2]
    if w_pos.shape[0] != n:
        raise ModelError(f"positional table has {w_pos.shape[0]} rows, need {n}")
    return matmul(patches, w_patch) + w_pos


def attention(e: Tensor, w_qkv: Tensor, w_o: Tensor, patch_mask: np.ndarray, n_heads: int,
              attn_dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Multi-head self-attention with masked key columns: one (B, N, 3d)
    projection by ``w_qkv``, numcore's ``attention`` op,
    then the output projection ``w_o``.

    Masked patches get weight exactly zero in every row, so unmasked rows
    match what physical deletion of the masked keys/values would give.
    ``e`` is (B, N, d), ``patch_mask`` (B, N).
    """
    d = e.shape[-1]
    if d % n_heads != 0:
        raise ModelError(f"width {d} not divisible by {n_heads} heads")
    if not patch_mask.any(axis=1).all():
        raise ModelError("attention saw a sequence with every patch masked")
    ctx = attention_op(matmul(e, w_qkv), ~patch_mask, n_heads, attn_dropout, rng)
    return matmul(ctx, w_o)


def ffn(h: Tensor, layer: LayerParams, kind: str) -> Tensor:
    """Position-wise feed-forward: act(h W1 + b1) W2 + b2."""
    return matmul(activation(matmul(h, layer.w_ffn1) + layer.b_ffn1, kind), layer.w_ffn2) + layer.b_ffn2


def encoder_layer(e: Tensor, layer: LayerParams, patch_mask: np.ndarray, cfg: ModelConfig,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Post-norm block: LN(e + Drop(Attn(e))) then LN(. + Drop(FFN(.)));
    dropout is on only with a generator ``rng``."""
    a = attention(e, layer.w_qkv, layer.w_o, patch_mask, cfg.n_heads, cfg.attn_dropout, rng)
    e1 = layer_norm(e, layer.ln1_gain, layer.ln1_bias, LAYER_NORM_EPS, a, cfg.dropout, rng)
    f = ffn(e1, layer, cfg.activation)
    return layer_norm(e1, layer.ln2_gain, layer.ln2_bias, LAYER_NORM_EPS, f, cfg.dropout, rng)


def run_encoder(e: Tensor, backbone: Backbone, patch_mask: np.ndarray, cfg: ModelConfig,
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """The backbone's encoder layers over ``e``."""
    for layer in backbone.layers:
        e = encoder_layer(e, layer, patch_mask, cfg, rng)
    return e


def encode_channel(values: np.ndarray, mask: np.ndarray, cfg: ModelConfig,
                   backbone: Backbone, rng: Optional[np.random.Generator] = None):
    """Encode (B, L) channels to their (B, N, d) patch representations.
    Returns (encoded, patch_mask)."""
    normalized, _, _ = instance_normalize(values, mask)
    patches, patch_mask = make_patches(normalized, mask, cfg.patch_len, cfg.stride)
    e = embed_patches(patches, backbone.w_patch, backbone.w_pos)
    return run_encoder(e, backbone, patch_mask, cfg, rng), patch_mask


def pool_channel(e: Tensor, patch_mask: np.ndarray) -> Tensor:
    """Mean of the attended patch representations: (B, N, d) -> (B, d)."""
    counts = patch_mask.sum(axis=1)
    if np.any(counts == 0):
        raise ModelError("cannot pool a sequence with every patch masked")
    weights = (patch_mask / counts[:, None])[:, None, :]   # (B, 1, N)
    return reshape(matmul(weights, e), (e.shape[0], e.shape[2]))


def classify(fused: Tensor, w_head: Tensor, b_head: Tensor,
             fc_dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
    """(B,) logits, no sigmoid, from the fused (B, 2d) channel summaries
    (FHR then TOCO)."""
    fused = dropout(fused, fc_dropout, rng)
    logit = matmul(fused, w_head) + b_head
    return reshape(logit, (logit.shape[0],))


def forward_batch(batch: dict, cfg: ModelConfig, params: ModelParams,
                  training: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
    """(B,) logits for a stacked batch (see ``data.stack_traces``).

    FHR and TOCO are encoded and pooled on two threads by
    ``parallel_concat``. A training pass computes in ``TRAIN_DTYPE`` on one
    working copy of ``params`` that both channels read: float64 ``params``
    are cast at the top (``cast_params``), and ``TRAIN_DTYPE`` ones, such
    as ``fit``'s working copy, are read as they are. It draws every dropout
    mask from ``rng`` and raises ``ModelError`` without one. Inference runs
    in the dtype of the ``params`` given (float64 for the master
    parameters, float32 for a ``cast_params`` copy) and ignores ``rng``.
    With encoder dropout each channel draws its masks from its own
    generator, seeded from two draws on ``rng`` (no draw without encoder
    dropout); the head's dropout draws from ``rng``.
    """
    if not training:
        rng = None
    elif rng is None:
        raise ModelError("a training pass needs a generator (rng) for its dropout masks")
    else:
        params = cast_params(params, TRAIN_DTYPE)
    rngs = (None, None)
    if rng is not None and (cfg.dropout > 0 or cfg.attn_dropout > 0):
        rngs = [np.random.default_rng(s) for s in rng.integers(2 ** 63, size=2)]
    fused = fuse_channels(batch, cfg, params, rngs)
    return classify(fused, params.w_head, params.b_head, cfg.fc_dropout, rng)


def fuse_channels(batch: dict, cfg: ModelConfig, params: ModelParams,
                  rngs=(None, None)) -> Tensor:
    """(B, 2d) pooled summaries of a stacked batch, FHR then TOCO, encoded
    on two threads by ``parallel_concat``; channel ``c`` draws its dropout
    masks from ``rngs[c]``."""
    def channel(c: int, vals: str, mask: str) -> Tensor:
        e, patch_mask = encode_channel(batch[vals], batch[mask], cfg, params.backbone_for(c),
                                       rngs[c])
        return pool_channel(e, patch_mask)

    return parallel_concat([partial(channel, 0, "fhr", "fhr_mask"),
                            partial(channel, 1, "toco", "toco_mask")], axis=-1)


_FFN_HIDDEN_ARRAYS = {"relu": 1, "gelu": 3, "elu": 3}   # (N, d_ff) arrays the activation's adjoint reads


def tape_bytes(cfg: ModelConfig) -> tuple:
    """(per_trace, fixed): a training forward pass of ``cfg`` on B traces
    leaves exactly ``per_trace * B + fixed`` bytes on its tape, as
    ``Graph.held_bytes`` counts them.

    Per trace, for each layer and channel: five token-sized (N, d) arrays
    (the (N, 3d) Q/K/V projection that the ``attention`` op reads and the
    two layer norms' ``xhat``; the context is remade from the projection
    and the softmax weights, and the layer input and the FFN input are
    layer norm outputs that their matmuls remake from an ``xhat``), the FFN
    hidden array (relu keeps its output; gelu and elu keep their input and
    one more), the ``attention`` op's softmax weights and the layer norms'
    (N, 1) inverse deviations, all in ``TRAIN_DTYPE``. Then per channel the
    first layer's input, the patches, the pooling weights and the pooled
    summary, and in the head the dropped-out fused summaries. No dropout
    mask is held (backward draws each again), so the sizes do not depend
    on any dropout rate. Fixed: the ``TRAIN_DTYPE`` weights that the
    matmul and layer norm adjoints and the remakes read, one set per
    backbone (each layer's (d, 3d) ``w_qkv``, ``w_o``, the FFN weights,
    the layer norm gains and every layer norm bias but the last layer's
    second, whose output only the pooling reads), and the head weight. The
    loss (``bce_with_logits``) and ``train_epoch``'s chunk weighting add
    16 bytes a trace and 8 more.
    """
    n, d, dff, heads = cfg.n_patches, cfg.d_model, cfg.d_ff, cfg.n_heads
    item = np.dtype(TRAIN_DTYPE).itemsize
    layer = 5 * n * d + _FFN_HIDDEN_ARRAYS[cfg.activation] * n * dff + heads * n * n + 2 * n
    channel = cfg.n_layers * layer + n * d + n * cfg.patch_len + n + d
    fused = cfg.channels * d
    per_trace = item * (cfg.channels * channel + fused)
    n_backbones = 1 if cfg.share_backbone else cfg.channels
    weights = cfg.n_layers * (4 * d * d + 2 * d * dff + 4 * d) - d
    return per_trace, item * (n_backbones * weights + fused)


def max_forward_chunk(cfg: ModelConfig) -> int:
    """Largest trace count one training forward pass may carry: the most
    traces whose tape (``tape_bytes``) fits ``FORWARD_BUDGET_BYTES``, at
    least 1. ``paper-best`` gets 25 traces (8.3 MiB a trace plus 27.0 MiB
    of weight copies, 234.5 MiB in all), the acceptance config 240. The
    budget, 240 MiB, keeps ``paper-best`` at 25 traces, as the budgets
    before it did when a trace held 13.8 and then 10.6 MiB: 26 traces
    would need 242.8 MiB, and a larger chunk raised peak memory and bought
    no speed. Depends only on the config, so chunked runs stay
    deterministic.
    """
    per_trace, fixed = tape_bytes(cfg)
    return max(1, (FORWARD_BUDGET_BYTES - fixed) // per_trace)


def predict_scores(traces, cfg: ModelConfig, params: ModelParams,
                   batch_size: int = 256) -> np.ndarray:
    """Inference probabilities (sigmoid of the logits) for a list of traces,
    batched, no tape. The logits come in the dtype of ``params`` and the
    sigmoid is taken in float64: a float32 sigmoid rounds to exactly 1.0
    from a logit of about 16.6 (a float64 one from about 36.7), and such
    ties would change an AUC.

    The channels are encoded ``min(batch_size, max_forward_chunk(cfg))``
    traces at a time and the head runs once over all the summaries. The
    head is a one-column product, and BLAS computes its rows in blocks: run
    per chunk, a trace's logit would depend on its place in its chunk (with
    OpenBLAS 0.3.31 a 25 + 7 split of 32 traces moved the last bits of
    about one logit in twenty). So on one BLAS thread a score does not
    depend on the step. On more, BLAS splits the rows of the layer norms'
    row sums between threads at a row set by the chunk's size, and a trace
    at a chunk's end can still move by an ulp.
    """
    if not traces:
        return np.empty(0)
    step = min(batch_size, max_forward_chunk(cfg))
    fused = np.concatenate([fuse_channels(stack_traces(traces[lo:lo + step]), cfg, params).data
                            for lo in range(0, len(traces), step)])
    logits = classify(Tensor(fused), params.w_head, params.b_head)
    return _sigmoid(logits.data.astype(np.float64))
