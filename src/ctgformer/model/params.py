"""Learnable weights and their deterministic initialization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelError
from ..numcore import Tensor, astype
from .config import ModelConfig


@dataclass
class LayerParams:
    w_qkv: Tensor     # (d, 3d) query, key and value projections side by side
    w_o: Tensor
    w_ffn1: Tensor
    b_ffn1: Tensor
    w_ffn2: Tensor
    b_ffn2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class Backbone:
    w_patch: Tensor   # (P, d) patch projection
    w_pos: Tensor     # (N, d) learned positional table
    layers: list = field(default_factory=list)


@dataclass
class ModelParams:
    backbones: list            # one entry if shared, one per channel otherwise
    w_head: Tensor             # (2d, 1) on the concatenated pooled channels
    b_head: Tensor             # (1,)

    def backbone_for(self, channel: int) -> Backbone:
        return self.backbones[0] if len(self.backbones) == 1 else self.backbones[channel]


def init_params(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Each weight matrix drawn from U(-b, b), b = 1/sqrt(rows), by its own
    generator; zeros for biases and the positional table; ones for
    layer-norm gains. Deterministic per seed: the i-th weight matrix gets
    the i-th word of ``SeedSequence(seed).generate_state``, and a shorter
    state is a prefix of a longer one, so sizing the state to the
    config's weight count leaves every matrix's seed where it was."""
    fills = []

    def count(shape, fill):
        fills.append(fill)
        return np.empty(shape)

    build_params(cfg, count)
    seeds = iter(np.random.SeedSequence(seed).generate_state(fills.count(None)).tolist())

    def make(shape, fill):
        if fill is not None:
            return np.full(shape, fill)
        bound = 1.0 / math.sqrt(shape[0])
        return np.random.default_rng(next(seeds)).uniform(-bound, bound, size=shape)

    return build_params(cfg, make)


def build_params(cfg: ModelConfig, make) -> ModelParams:
    """Every tensor ``cfg`` implies, in a fixed order, each a leaf holding
    ``make(shape, fill)``: ``fill`` is None for a weight matrix and the
    starting value (0.0 or 1.0) of a bias, gain or the positional table.
    A layer's (d, 3d) ``w_qkv`` is three (d, d) weight matrices side by
    side, each made by its own call."""
    d, dff = cfg.d_model, cfg.d_ff

    def leaf(shape, fill=None):
        return Tensor(make(shape, fill), requires_grad=True)

    def qkv_leaf():
        return Tensor(np.concatenate([make((d, d), None) for _ in range(3)], axis=1),
                      requires_grad=True)

    def make_backbone():
        layers = [
            LayerParams(
                w_qkv=qkv_leaf(), w_o=leaf((d, d)),
                w_ffn1=leaf((d, dff)), b_ffn1=leaf((dff,), 0.0),
                w_ffn2=leaf((dff, d)), b_ffn2=leaf((d,), 0.0),
                ln1_gain=leaf((d,), 1.0), ln1_bias=leaf((d,), 0.0),
                ln2_gain=leaf((d,), 1.0), ln2_bias=leaf((d,), 0.0),
            )
            for _ in range(cfg.n_layers)
        ]
        return Backbone(w_patch=leaf((cfg.patch_len, d)), w_pos=leaf((cfg.n_patches, d), 0.0),
                        layers=layers)

    n_backbones = 1 if cfg.share_backbone else cfg.channels
    return ModelParams(
        backbones=[make_backbone() for _ in range(n_backbones)],
        w_head=leaf((cfg.channels * d, 1)),
        b_head=leaf((1,), 0.0),
    )


def _map_params(params: ModelParams, fn) -> ModelParams:
    """``params`` with every tensor replaced by ``fn(tensor)``."""
    def map_backbone(bb: Backbone) -> Backbone:
        return Backbone(w_patch=fn(bb.w_patch), w_pos=fn(bb.w_pos),
                        layers=[LayerParams(**{k: fn(t) for k, t in vars(layer).items()})
                                for layer in bb.layers])

    return ModelParams(backbones=[map_backbone(bb) for bb in params.backbones],
                       w_head=fn(params.w_head), b_head=fn(params.b_head))


def cast_params(params: ModelParams, dtype) -> ModelParams:
    """A working copy of ``params`` in ``dtype``, each tensor made by one
    ``astype`` op, so on a tape the copy's gradients reach ``params`` in
    their own dtype. Parameters already in ``dtype`` are returned as they
    are, and a tape reads them as its leaves."""
    if all(t.data.dtype == dtype for t in named_tensors(params).values()):
        return params
    return _map_params(params, lambda t: astype(t, dtype))


def working_copy(params: ModelParams, dtype) -> ModelParams:
    """A copy of ``params`` in ``dtype`` whose tensors are leaves of their
    own: a tape that reads them gives them gradients in ``dtype``, and none
    reach ``params``. The optimizer refreshes it after each step."""
    return _map_params(params, lambda t: Tensor(t.data.astype(dtype), requires_grad=True))


def named_tensors(params: ModelParams) -> dict:
    """Stable name -> Tensor mapping used by the optimizer and checkpoints."""
    out = {}
    for bi, bb in enumerate(params.backbones):
        prefix = f"backbone{bi}"
        out[f"{prefix}.w_patch"] = bb.w_patch
        out[f"{prefix}.w_pos"] = bb.w_pos
        for li, layer in enumerate(bb.layers):
            for name, t in vars(layer).items():
                out[f"{prefix}.layer{li}.{name}"] = t
    out["head.w"] = params.w_head
    out["head.b"] = params.b_head
    return out


def clone_param_data(params: ModelParams) -> dict:
    return {name: t.data.copy() for name, t in named_tensors(params).items()}


def load_param_data(params: ModelParams, snapshot: dict) -> None:
    """Copy ``snapshot`` (from ``clone_param_data``) into the tensors'
    arrays, in place."""
    named = named_tensors(params)
    if set(named) != set(snapshot):
        missing = set(named) ^ set(snapshot)
        raise ModelError(f"parameter name mismatch: {sorted(missing)[:4]}")
    for name, t in named.items():
        arr = snapshot[name]
        if arr.shape != t.data.shape:
            raise ModelError(f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}")
        t.data[...] = arr
        t.grad = None
