"""Micro-benchmarks of a training pass's layers, in float32 as it runs them:
``matmul`` forward plus backward at the model's weight-product shapes; the
``attention`` op forward plus backward (with ``paper-best``'s attention
dropout and a quarter of the keys masked); and one whole ``encoder_layer``
forward plus backward with every dropout on, whose backward remakes the
layer norm's output, the attention context and the dropped-out attention
weights and draws every dropout mask again, and its twin with dropout
off, which draws no mask: the difference is what the masks cost. The
last three run at the acceptance config's 48-trace batch and at
``paper-best``'s one forward chunk. Last, ``paper-best``'s optimizer step:
``Adam.step`` on the float64 parameters and their float32 working copy,
from the sum of two float32 chunk gradients that ``BatchGrads`` carries,
alone and together with the ``BatchGrads`` additions.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it by naming the file:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_matmul.py
"""

from dataclasses import replace

import numpy as np
import pytest

from ctgformer import numcore as nc
from ctgformer.hpo import preset_configs
from ctgformer.model import ModelConfig, init_params, named_tensors, working_copy
from ctgformer.model.net import TRAIN_DTYPE, encoder_layer, max_forward_chunk
from ctgformer.numcore import Graph, Tensor, backward
from ctgformer.train import Adam, BatchGrads


def scalar_loss(t):
    """The sum of ``t``'s entries as a (1, 1) tensor; its adjoint is exactly ones."""
    return nc.matmul(nc.reshape(t, (1, t.size)), np.ones((t.size, 1)))


WIDE = ModelConfig(**preset_configs("paper-best")[0])
WIDE_CHUNK = max_forward_chunk(WIDE)

SHAPES = {
    # paper-best (d_model 512, d_ff 128), one full forward chunk of 60 patches
    "wide-qkvo": ((WIDE_CHUNK, WIDE.n_patches, WIDE.d_model), (WIDE.d_model, WIDE.d_model)),
    "wide-ffn1": ((WIDE_CHUNK, WIDE.n_patches, WIDE.d_model), (WIDE.d_model, WIDE.d_ff)),
    # acceptance config (d_model 128), one 48-trace batch per chunk
    "small-qkvo": ((48, 60, 128), (128, 128)),
}

# (traces, patches, d_model, heads) of one forward chunk
ATTENTION_SHAPES = {
    "small": (48, WIDE.n_patches, 128, WIDE.n_heads),
    "wide": (WIDE_CHUNK, WIDE.n_patches, WIDE.d_model, WIDE.n_heads),
}

# (config, traces) of one forward chunk: the acceptance config and paper-best
LAYERS = {
    "small": (ModelConfig(**{**preset_configs("paper-best")[0], "d_model": 128, "n_layers": 2}), 48),
    "wide": (WIDE, WIDE_CHUNK),
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_matmul_forward_backward(benchmark, name):
    a_shape, b_shape = SHAPES[name]
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=a_shape).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=b_shape).astype(np.float32), requires_grad=True)
    g_out = Tensor(rng.normal(size=a_shape[:-1] + b_shape[-1:]).astype(np.float32))

    def step():
        a.zero_grad()
        b.zero_grad()
        with Graph() as g:
            loss = scalar_loss(nc.mul(nc.matmul(a, b), g_out))
        backward(loss, g)
        return b.grad

    grad_b = benchmark(step)
    assert grad_b.shape == b_shape and grad_b.dtype == np.float32


@pytest.mark.parametrize("name", list(ATTENTION_SHAPES))
def test_attention_forward_backward(benchmark, name):
    b, n, d, heads = ATTENTION_SHAPES[name]
    rng = np.random.default_rng(0)
    qkv = Tensor(rng.normal(size=(b, n, 3 * d)).astype(np.float32), requires_grad=True)
    g_out = Tensor(rng.normal(size=(b, n, d)).astype(np.float32))
    key_gone = rng.random((b, n)) < 0.25
    key_gone[:, 0] = False

    def step():
        qkv.zero_grad()
        with Graph() as g:
            ctx = nc.attention(qkv, key_gone, heads, WIDE.attn_dropout, np.random.default_rng(1))
            loss = scalar_loss(nc.mul(ctx, g_out))
        backward(loss, g)
        return qkv.grad

    grad = benchmark(step)
    assert grad.shape == qkv.shape and grad.dtype == np.float32


def encoder_layer_step(benchmark, cfg, b):
    """Time one ``encoder_layer`` forward plus backward of ``cfg`` on ``b``
    traces."""
    layer = working_copy(init_params(cfg, 0), TRAIN_DTYPE).backbones[0].layers[0]
    rng = np.random.default_rng(0)
    e = Tensor(rng.normal(size=(b, cfg.n_patches, cfg.d_model)).astype(np.float32),
               requires_grad=True)
    g_out = Tensor(rng.normal(size=e.shape).astype(np.float32))
    patch_mask = rng.random((b, cfg.n_patches)) >= 0.25
    patch_mask[:, 0] = True

    def step():
        e.zero_grad()
        with Graph() as g:
            out = encoder_layer(e, layer, patch_mask, cfg, np.random.default_rng(1))
            loss = scalar_loss(nc.mul(out, g_out))
        backward(loss, g)
        return e.grad

    grad = benchmark(step)
    assert grad.shape == e.shape and grad.dtype == np.float32


@pytest.mark.parametrize("name", list(LAYERS))
def test_encoder_layer_forward_backward(benchmark, name):
    encoder_layer_step(benchmark, *LAYERS[name])


@pytest.mark.parametrize("name", list(LAYERS))
def test_encoder_layer_forward_backward_without_dropout(benchmark, name):
    cfg, b = LAYERS[name]
    encoder_layer_step(benchmark, replace(cfg, dropout=0.0, attn_dropout=0.0), b)


@pytest.mark.parametrize("with_batch_grads", [False, True], ids=["adam", "batch-grads-and-adam"])
def test_adam_step(benchmark, with_batch_grads):
    params = init_params(WIDE, 0)
    named = named_tensors(params)
    opt = Adam(named, lr=1e-4, working=named_tensors(working_copy(params, TRAIN_DTYPE)))
    rng = np.random.default_rng(0)
    chunks = [{k: rng.normal(size=t.shape).astype(np.float32) for k, t in named.items()}
              for _ in range(2)]

    def batch_grads():
        grads = BatchGrads()
        for c in chunks:
            grads.add(dict(c))
        return grads.grads

    grads = batch_grads()
    benchmark(lambda: opt.step(batch_grads() if with_batch_grads else grads))
    assert opt.t > 0 and all(np.isfinite(t.data).all() for t in named.values())
