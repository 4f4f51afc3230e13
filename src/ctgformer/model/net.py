"""The patch-transformer network.

Each channel is processed independently: per-sequence standardisation over
observed samples, segmentation into patches, linear patch embedding plus a
learned positional table, a stack of post-norm encoder layers whose attention
ignores mostly-missing patches, masked global average pooling, and finally a
linear head that emits one logit from the two concatenated channel summaries;
only ``predict_scores`` applies the sigmoid. The two channels share no
activation before the head, so ``forward_batch`` runs them on two threads.

Every operation takes a leading batch axis; one trace is a batch of one.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from ..errors import ModelError
from ..numcore import (
    Tensor,
    activation,
    dropout,
    layer_norm,
    masked_fill,
    matmul,
    parallel_concat,
    reshape,
    sigmoid,
    softmax,
    transpose,
)
from .config import ModelConfig
from .params import Backbone, LayerParams, ModelParams

INSTANCE_NORM_EPS = 1e-8
LAYER_NORM_EPS = 1e-5
FORWARD_BUDGET_BYTES = 384 << 20   # taped activations of one training forward pass


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


def patch_count(seq_len: int, patch_len: int, stride: int) -> int:
    return _patch_indices(seq_len, patch_len, stride).shape[0]


def embed_patches(patches: np.ndarray, w_patch: Tensor, w_pos: Tensor) -> Tensor:
    """Project (B, N, P) patches into the latent width and add positional
    rows. Masked patches are embedded too; masking is enforced inside
    attention."""
    n = patches.shape[-2]
    if w_pos.shape[0] != n:
        raise ModelError(f"positional table has {w_pos.shape[0]} rows, need {n}")
    return matmul(Tensor(patches), w_patch) + w_pos


def attention(e: Tensor, layer: LayerParams, patch_mask: np.ndarray, n_heads: int,
              attn_dropout: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Multi-head self-attention with masked key columns.

    Masked patches receive -inf logits in every row, so their weight is
    exactly zero and unmasked rows match what physical deletion of the
    masked keys/values would give. ``e`` is (B, N, d), ``patch_mask`` (B, N).
    """
    b, n, d = e.shape
    if d % n_heads != 0:
        raise ModelError(f"width {d} not divisible by {n_heads} heads")
    if not patch_mask.any(axis=1).all():
        raise ModelError("attention saw a sequence with every patch masked")
    dk = d // n_heads

    def heads(x):
        return transpose(reshape(x, (b, n, n_heads, dk)), (0, 2, 1, 3))

    q, k, v = heads(matmul(e, layer.w_q)), heads(matmul(e, layer.w_k)), heads(matmul(e, layer.w_v))
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
    key_gone = (~patch_mask)[:, None, None, :]     # broadcast over heads and query rows
    weights = softmax(masked_fill(scores, key_gone, -np.inf), axis=-1)
    weights = dropout(weights, attn_dropout, rng)
    ctx = reshape(transpose(matmul(weights, v), (0, 2, 1, 3)), (b, n, d))
    return matmul(ctx, layer.w_o)


def ffn(h: Tensor, layer: LayerParams, kind: str) -> Tensor:
    """Position-wise feed-forward: act(h W1 + b1) W2 + b2."""
    return matmul(activation(matmul(h, layer.w_ffn1) + layer.b_ffn1, kind), layer.w_ffn2) + layer.b_ffn2


def encoder_layer(e: Tensor, layer: LayerParams, patch_mask: np.ndarray, cfg: ModelConfig,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Post-norm block: LN(e + Drop(Attn(e))) then LN(. + Drop(FFN(.)));
    dropout is on only with a generator ``rng``."""
    a = attention(e, layer, patch_mask, cfg.n_heads, cfg.attn_dropout, rng)
    e1 = layer_norm(e + dropout(a, cfg.dropout, rng),
                    layer.ln1_gain, layer.ln1_bias, eps=LAYER_NORM_EPS)
    f = ffn(e1, layer, cfg.activation)
    return layer_norm(e1 + dropout(f, cfg.dropout, rng),
                      layer.ln2_gain, layer.ln2_bias, eps=LAYER_NORM_EPS)


def run_encoder(e: Tensor, backbone: Backbone, patch_mask: np.ndarray, cfg: ModelConfig,
                rng: Optional[np.random.Generator] = None) -> Tensor:
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
    weights = Tensor((patch_mask / counts[:, None])[:, None, :])   # (B, 1, N)
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
    ``parallel_concat``. A training pass draws every dropout mask from
    ``rng`` and raises ``ModelError`` without one; inference ignores it.
    With encoder dropout each channel draws its masks from its own
    generator, seeded from two draws on ``rng`` (no draw without encoder
    dropout); the head's dropout draws from ``rng``.
    """
    if not training:
        rng = None
    elif rng is None:
        raise ModelError("a training pass needs a generator (rng) for its dropout masks")
    rngs = (None, None)
    if rng is not None and (cfg.dropout > 0 or cfg.attn_dropout > 0):
        rngs = [np.random.default_rng(s) for s in rng.integers(2 ** 63, size=2)]

    def channel(c: int, vals: str, mask: str) -> Tensor:
        e, patch_mask = encode_channel(batch[vals], batch[mask], cfg,
                                       params.backbone_for(c), rngs[c])
        return pool_channel(e, patch_mask)

    fused = parallel_concat([partial(channel, 0, "fhr", "fhr_mask"),
                             partial(channel, 1, "toco", "toco_mask")], axis=-1)
    return classify(fused, params.w_head, params.b_head, cfg.fc_dropout, rng)


def max_forward_chunk(cfg: ModelConfig) -> int:
    """Largest trace count one training forward pass may carry without the
    taped activations outgrowing the memory budget.

    The tape keeps every layer's intermediates alive until backward: per
    trace and layer roughly six attention-score-sized arrays
    (heads x N x N) plus about fourteen token-sized ones (N x width),
    float64. Depends only on the config, so chunked runs stay deterministic.
    """
    n = cfg.n_patches
    per_layer = 6 * cfg.n_heads * n * n + 14 * n * max(cfg.d_model, cfg.d_ff)
    per_trace = cfg.n_layers * per_layer * 8
    return max(1, FORWARD_BUDGET_BYTES // per_trace)


def predict_scores(traces, cfg: ModelConfig, params: ModelParams,
                   batch_size: int = 256) -> np.ndarray:
    """Inference probabilities (sigmoid of the logits) for a list of traces,
    batched, no tape."""
    from ..data import stack_traces

    step = min(batch_size, max_forward_chunk(cfg))
    scores = np.empty(len(traces))
    for lo in range(0, len(traces), step):
        chunk = stack_traces(traces[lo:lo + step])
        scores[lo:lo + step] = sigmoid(forward_batch(chunk, cfg, params)).data
    return scores
