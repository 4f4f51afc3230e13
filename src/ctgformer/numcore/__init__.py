"""Minimal dense-tensor engine with reverse-mode automatic differentiation."""

from .tensor import Graph, Tensor, as_tensor, backward
from .gradcheck import GradCheckReport, grad_check
from .ops import (
    ACTIVATIONS,
    activation,
    add,
    astype,
    attention,
    bce_with_logits,
    dropout,
    elu,
    gelu,
    layer_norm,
    matmul,
    mul,
    parallel_concat,
    relu,
    reshape,
)

__all__ = [
    "ACTIVATIONS",
    "Graph",
    "GradCheckReport",
    "Tensor",
    "activation",
    "add",
    "as_tensor",
    "astype",
    "attention",
    "backward",
    "bce_with_logits",
    "dropout",
    "elu",
    "gelu",
    "grad_check",
    "layer_norm",
    "matmul",
    "mul",
    "parallel_concat",
    "relu",
    "reshape",
]
