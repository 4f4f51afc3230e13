"""Architecture hyperparameters."""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields

from ..errors import ModelError
from ..numcore import ACTIVATIONS
from ..signal import WINDOW_LEN


# declared field type -> (what a value must be an instance of, its name)
_FIELD_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
                "bool": (bool, "true or false"), "str": (str, "a string")}


def check_field_types(obj, error) -> None:
    """Raise ``error`` naming the first field of dataclass ``obj`` whose value
    is not of its declared type. A bool counts only in a bool field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind, noun = _FIELD_KINDS[f.type]
        if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
            raise error(f"{f.name} must be {noun}, got {value!r}")


@dataclass
class ModelConfig:
    seq_len: int = WINDOW_LEN
    patch_len: int = 16
    stride: int = 16
    n_layers: int = 6
    n_heads: int = 4
    d_model: int = 512
    d_ff: int = 128
    dropout: float = 0.1
    fc_dropout: float = 0.4
    attn_dropout: float = 0.2
    activation: str = "relu"
    channels: int = 2
    share_backbone: bool = True
    # listed alongside the tuned hyperparameters but unused by this
    # architecture; carried for configuration fidelity only
    kernel_size: int = 15

    def __post_init__(self):
        check_field_types(self, ModelError)
        if not 1 <= self.patch_len <= self.seq_len:
            raise ModelError(f"patch_len must lie in [1, seq_len], got {self.patch_len}")
        for name in ("stride", "n_layers", "n_heads", "d_model", "d_ff"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ModelError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("dropout", "fc_dropout", "attn_dropout"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ModelError(f"{name} must lie in [0, 1), got {rate}")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"activation must be one of {ACTIVATIONS}, "
                             f"got {self.activation!r}")
        if self.channels != 2:
            raise ModelError("this model processes exactly 2 channels")

    @property
    def n_patches(self) -> int:
        return (self.seq_len - self.patch_len) // self.stride + 1

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ModelError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)
