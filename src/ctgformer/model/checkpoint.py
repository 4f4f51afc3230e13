"""Self-describing binary checkpoints.

Layout: magic ``CTGF``, little-endian uint32 format version, uint64 header
length, a JSON header carrying the model config and the ordered tensor
manifest (name, shape), then each tensor's float64 little-endian row-major
bytes. Save followed by load is bit-exact. Version 2 stores each layer's
query, key and value weights as one (d, 3d) tensor, ``w_qkv``; a version 1
file, with three (d, d) ones, is refused.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..errors import CheckpointError
from .config import ModelConfig
from .params import ModelParams, build_params, named_tensors

MAGIC = b"CTGF"
FORMAT_VERSION = 2


def save_checkpoint(params: ModelParams, cfg: ModelConfig, path) -> None:
    named = named_tensors(params)
    manifest = [{"name": name, "shape": list(t.data.shape)} for name, t in named.items()]
    header = json.dumps({"config": cfg.as_dict(), "tensors": manifest},
                        sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for t in named.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple:
    """Returns (params, config); every tensor exactly as saved."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported "
                              f"(expected {FORMAT_VERSION})")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header_end = 16 + header_len
    if len(blob) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:header_end].decode())
        cfg = ModelConfig.from_dict(header["config"])
        manifest = [(m["name"], tuple(m["shape"])) for m in header["tensors"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc

    # every value is overwritten below, so no tensor needs a draw or a fill
    params = build_params(cfg, lambda shape, fill: np.empty(shape))
    named = named_tensors(params)
    if [name for name, _ in manifest] != list(named.keys()):
        raise CheckpointError(f"{path}: tensor manifest does not match the stored config")
    offset = header_end
    for name, shape in manifest:
        t = named[name]
        if shape != t.data.shape:
            raise CheckpointError(f"{path}: tensor {name} has shape {shape}, "
                                  f"config implies {t.data.shape}")
        nbytes = int(np.prod(shape)) * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated tensor data at {name}")
        t.data[...] = np.frombuffer(blob, dtype="<f8", count=int(np.prod(shape)),
                                    offset=offset).reshape(shape)
        t.grad = None
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return params, cfg
