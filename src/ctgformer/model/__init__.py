"""Patch-transformer model: config, parameters, network, checkpoints."""

from .config import ModelConfig
from .params import (
    Backbone,
    LayerParams,
    ModelParams,
    cast_params,
    clone_param_data,
    init_params,
    load_param_data,
    named_tensors,
    working_copy,
)
from .net import (
    attention,
    classify,
    embed_patches,
    encode_channel,
    encoder_layer,
    ffn,
    forward_batch,
    instance_normalize,
    make_patches,
    pool_channel,
    predict_scores,
    run_encoder,
)
from .checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint

__all__ = [
    "Backbone",
    "FORMAT_VERSION",
    "LayerParams",
    "ModelConfig",
    "ModelParams",
    "attention",
    "cast_params",
    "classify",
    "clone_param_data",
    "embed_patches",
    "encode_channel",
    "encoder_layer",
    "ffn",
    "forward_batch",
    "init_params",
    "instance_normalize",
    "load_checkpoint",
    "load_param_data",
    "make_patches",
    "named_tensors",
    "pool_channel",
    "predict_scores",
    "run_encoder",
    "save_checkpoint",
    "working_copy",
]
