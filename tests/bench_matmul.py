"""Micro-benchmarks of a training pass's layers, in float32 as it runs them:
``matmul`` forward plus backward at the model's weight-product shapes, and
the ``attention`` op forward plus backward (with ``paper-best``'s attention
dropout and a quarter of the keys masked) at the acceptance config's
48-trace batch and at ``paper-best``'s one forward chunk.

Not part of the test suite (the file name does not match ``test_*.py``).
Run it by naming the file:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest tests/bench_matmul.py
"""

import numpy as np
import pytest

from ctgformer import numcore as nc
from ctgformer.hpo import preset_configs
from ctgformer.model import ModelConfig
from ctgformer.model.net import max_forward_chunk
from ctgformer.numcore import Graph, Tensor, backward

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
            loss = nc.tsum(nc.mul(nc.matmul(a, b), g_out))
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
            loss = nc.tsum(nc.mul(ctx, g_out))
        backward(loss, g)
        return qkv.grad

    grad = benchmark(step)
    assert grad.shape == qkv.shape and grad.dtype == np.float32
