"""Training: binary cross-entropy minimisation with adaptive-moment updates,
validation-AUC early stopping, checkpointing, and the pretrain-then-finetune
workflow.

Everything is deterministic for a fixed (seed, data, config): parameter init,
batch shuffling and dropout all draw from streams derived from the one seed.
The per-epoch wall-clock field is the only nondeterministic part of a training
log and is excluded from determinism comparisons.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import TrainError
from .evaluation import Prediction, auc
from .data import stack_traces
from .model import (
    ModelConfig,
    ModelParams,
    clone_param_data,
    forward_batch,
    init_params,
    load_checkpoint,
    load_param_data,
    named_tensors,
    predict_scores,
)
from .model.net import max_forward_chunk
from .numcore import Graph, Tensor, backward, bce_with_logits

PROB_CLAMP = 1e-12
IMPROVE_DELTA = 1e-6   # val AUC must beat the best by this to reset patience


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 48
    max_epochs: int = 50
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise TrainError(f"learning_rate must be non-negative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.patience < 1:
            raise TrainError(f"patience must be at least 1, got {self.patience}")
        if self.max_epochs < 0:
            raise TrainError(f"max_epochs must be non-negative, got {self.max_epochs}")


# TrainConfig fields a preset, a config file or a command-line flag may set.
TRAIN_KEYS = ("learning_rate", "batch_size", "max_epochs", "patience")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_auc: float
    seconds: float


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)
    stop_reason: str = "max_epochs"   # max_epochs | early_stop | pruned
    best_epoch: int = 0
    best_val_auc: float = math.nan

    def key(self) -> tuple:
        """Deterministic content (wall time excluded)."""
        return (tuple((e.epoch, e.train_loss, e.val_auc) for e in self.epochs),
                self.stop_reason, self.best_epoch, self.best_val_auc)

    def to_lines(self) -> list:
        lines = ["epoch,loss,val_auc,seconds"]
        lines += [f"{e.epoch},{e.train_loss!r},{e.val_auc!r},{e.seconds:.3f}"
                  for e in self.epochs]
        return lines


def write_train_log(log: TrainLog, path) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(log.to_lines()) + "\n")


def bce_loss(y_hat: float, y: int) -> float:
    """Binary cross-entropy of one prediction, clamped away from log(0)."""
    p = min(max(float(y_hat), PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(y * math.log(p) + (1 - y) * math.log(1.0 - p))


def bce_loss_batch(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean BCE over a batch of logits, differentiable through ``logits``."""
    return bce_with_logits(logits, labels)


class Adam:
    """Adaptive-moment optimizer (beta1=0.9, beta2=0.999, eps=1e-8) that also
    zeroes gradients after applying them."""

    def __init__(self, named: dict, lr: float):
        self.named = named
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in named.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in named.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, tensor in self.named.items():
            g = tensor.grad
            if g is None:
                continue
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * (g * g)
            update = self.lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
            tensor.data = tensor.data - update
            tensor.grad = None


def predictions_for(traces: Sequence, cfg: ModelConfig, params: ModelParams,
                    batch_size: int = 256) -> list:
    scores = predict_scores(list(traces), cfg, params, batch_size=batch_size)
    return [Prediction(t.trace_id, float(s), t.label, t.days_to_delivery)
            for t, s in zip(traces, scores)]


def _slice_batch(stacked: dict, idx: np.ndarray) -> dict:
    return {k: stacked[k][idx] for k in ("fhr", "fhr_mask", "toco", "toco_mask", "labels")}


def train_epoch(params: ModelParams, cfg: ModelConfig, train_cfg: TrainConfig,
                stacked: dict, rng: np.random.Generator, optimizer: Adam,
                epoch: int = 1) -> float:
    """One shuffled pass over the training set; returns the mean batch loss.

    A logical batch larger than the attention memory budget is split into
    forward chunks whose gradients accumulate before the single optimizer
    step, so the update still averages the whole batch. A non-finite chunk
    loss raises ``TrainError`` naming ``epoch`` and the batch index."""
    n = len(stacked["labels"])
    if n == 0:
        raise TrainError("training set is empty")
    chunk = min(train_cfg.batch_size, max_forward_chunk(cfg))
    order = rng.permutation(n)
    losses = []
    for b, lo in enumerate(range(0, n, train_cfg.batch_size)):
        batch_idx = order[lo:lo + train_cfg.batch_size]
        batch_loss = 0.0
        for co in range(0, len(batch_idx), chunk):
            piece = _slice_batch(stacked, batch_idx[co:co + chunk])
            weight = len(piece["labels"]) / len(batch_idx)
            with Graph() as g:
                logits = forward_batch(piece, cfg, params, training=True, rng=rng)
                loss = weight * bce_loss_batch(logits, piece["labels"])
            chunk_loss = loss.item()
            if not math.isfinite(chunk_loss):
                raise TrainError(f"non-finite loss {chunk_loss!r} at epoch {epoch}, batch {b}")
            backward(loss, g, retain_intermediate_grads=False)
            batch_loss += chunk_loss
        optimizer.step()
        losses.append(batch_loss)
    return float(np.mean(losses))


def _val_auc(params, cfg, val_traces) -> float:
    return auc(predictions_for(val_traces, cfg, params))


def fit(cfg: ModelConfig, train_cfg: TrainConfig, train_traces: Sequence,
        val_traces: Sequence, init: Optional[ModelParams] = None,
        stop_hook: Optional[Callable[[int, float], bool]] = None,
        verbose: bool = False) -> tuple:
    """Train with early stopping on validation AUC.

    Keeps the parameters of the best epoch (first epoch attaining the best
    AUC) and returns (best_params, TrainLog). ``stop_hook(epoch, val_auc)``
    may end training early, e.g. for trial pruning; such runs are marked
    ``pruned`` in the log.
    """
    if not train_traces or not val_traces:
        raise TrainError("need non-empty train and validation sets")
    train_ids = {t.trace_id for t in train_traces}
    if train_ids & {t.trace_id for t in val_traces}:
        raise TrainError("train and validation sets overlap")

    seeds = np.random.SeedSequence(train_cfg.seed).generate_state(2).tolist()
    params = init if init is not None else init_params(cfg, seed=int(seeds[0]))
    rng = np.random.default_rng(int(seeds[1]))
    stacked = stack_traces(list(train_traces))
    optimizer = Adam(named_tensors(params), lr=train_cfg.learning_rate)

    log = TrainLog()
    if train_cfg.max_epochs == 0:
        log.best_val_auc = _val_auc(params, cfg, val_traces)
        log.best_epoch = 0
        return params, log

    best_auc = -math.inf
    best_snapshot = None
    for epoch in range(1, train_cfg.max_epochs + 1):
        tic = time.perf_counter()
        mean_loss = train_epoch(params, cfg, train_cfg, stacked, rng, optimizer, epoch)
        val_auc = _val_auc(params, cfg, val_traces)
        log.epochs.append(EpochRecord(epoch, mean_loss, val_auc,
                                      time.perf_counter() - tic))
        if verbose:
            print(f"epoch {epoch}: loss {mean_loss:.4f} val_auc {val_auc:.4f}")
        if val_auc > best_auc + IMPROVE_DELTA or best_snapshot is None:
            best_auc = val_auc
            log.best_epoch = epoch
            best_snapshot = clone_param_data(params)
        if stop_hook is not None and stop_hook(epoch, val_auc):
            log.stop_reason = "pruned"
            break
        if epoch - log.best_epoch >= train_cfg.patience:
            log.stop_reason = "early_stop"
            break
    else:
        log.stop_reason = "max_epochs"

    log.best_val_auc = best_auc
    load_param_data(params, best_snapshot)
    return params, log


def finetune(checkpoint_path, train_traces: Sequence, val_traces: Sequence,
             train_cfg: TrainConfig, expect_config: Optional[ModelConfig] = None,
             verbose: bool = False) -> tuple:
    """Resume from a checkpoint with all layers trainable.

    Returns (params, TrainLog, config). ``expect_config``, when given, must
    match the checkpoint's stored config exactly.
    """
    params, cfg = load_checkpoint(checkpoint_path)
    if expect_config is not None and expect_config != cfg:
        raise TrainError(f"checkpoint config does not match: checkpoint has "
                         f"{cfg}, caller expected {expect_config}")
    params, log = fit(cfg, train_cfg, train_traces, val_traces, init=params,
                      verbose=verbose)
    return params, log, cfg
