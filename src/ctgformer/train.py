"""Training: binary cross-entropy minimisation with adaptive-moment updates
and validation-AUC early stopping. ``fit`` is the one training entry point;
finetuning is ``fit(..., init=params)`` with the parameters of
``model.load_checkpoint``.

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
    cast_params,
    clone_param_data,
    forward_batch,
    init_params,
    load_param_data,
    named_tensors,
    predict_scores,
    working_copy,
)
from .model.config import check_field_types
from .model.net import TRAIN_DTYPE, max_forward_chunk
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
        check_field_types(self, TrainError)
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise TrainError(f"learning_rate must be finite and non-negative, "
                             f"got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.patience < 1:
            raise TrainError(f"patience must be at least 1, got {self.patience}")
        if self.max_epochs < 0:
            raise TrainError(f"max_epochs must be non-negative, got {self.max_epochs}")
        if self.seed < 0:
            raise TrainError(f"seed must be non-negative, got {self.seed}")


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


def take_grads(named: dict) -> dict:
    """Each tensor's ``grad`` by name (None where it has none), which is
    then cleared, so the next backward pass starts from nothing."""
    grads = {name: t.grad for name, t in named.items()}
    for t in named.values():
        t.grad = None
    return grads


class BatchGrads:
    """The gradients of one batch's forward chunks, added up for its
    optimizer step. A tensor's first gradient is kept as it comes, in its
    own dtype (float32 from ``fit``'s working copy); from its second on, it
    is carried as one float64 sum, ``f64(g1) + f64(g2)``, then ``+= g3`` and
    so on in chunk order. So a batch carries at most one float64 array per
    tensor, however many chunks it has."""

    def __init__(self):
        self.grads = {}
        self._summed = set()   # names whose gradient is a float64 sum made here

    def add(self, grads: dict) -> None:
        """Adds one chunk's gradients (see ``take_grads``), taking each out
        of ``grads`` as it goes."""
        for name in list(grads):
            g = grads.pop(name)
            acc = self.grads.get(name)
            if g is None:
                continue
            if acc is None:
                self.grads[name] = g
            elif name in self._summed:
                acc += g
            else:
                self.grads[name] = np.add(acc, g, dtype=np.float64)
                self._summed.add(name)


class Adam:
    """Adaptive-moment optimizer (beta1=0.9, beta2=0.999, eps=1e-8) over the
    float64 tensors ``named``. ``working``, if given, maps the same names to
    a ``TRAIN_DTYPE`` copy of them (``model.working_copy``), which each
    step refreshes in place."""

    def __init__(self, named: dict, lr: float, working: Optional[dict] = None):
        self.named = named
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in named.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in named.items()}
        self.working = working

    def step(self, grads: Optional[dict] = None, at: str = "") -> None:
        """One update from ``grads``, a name -> gradient dict in any float
        dtype (``BatchGrads.grads``); without it, each tensor's ``grad``,
        which is then cleared. A tensor's gradient is used in float64, and
        a tensor without one is left as it is.

        A non-finite gradient raises ``TrainError`` naming the first such
        tensor in ``named`` order and ``at`` (say, the epoch and batch),
        before any tensor or moment changes."""
        if grads is None:
            grads = take_grads(self.named)
        for name in self.named:
            g = grads.get(name)
            if g is not None and not np.isfinite(g).all():
                raise TrainError(f"non-finite gradient in {name} at {at or f'step {self.t + 1}'}")
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, t in self.named.items():
            g = grads.get(name)
            if g is None:
                continue
            g = g.astype(np.float64, copy=False)
            # in place, with the IEEE operations of
            # m = b1*m + (1-b1)*g; data -= lr*(m/bias1) / (sqrt(v/bias2) + eps)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = m / bias1
            update *= self.lr
            update /= np.sqrt(v / bias2) + eps
            t.data -= update
            if self.working is not None:
                np.copyto(self.working[name].data, t.data, casting="same_kind")


def predictions_for(traces: Sequence, cfg: ModelConfig, params: ModelParams) -> list:
    """Validation predictions as ``fit`` scores them after every epoch: the
    logits of a ``TRAIN_DTYPE`` copy of ``params`` (``cast_params``; ``fit``
    passes its working copy, which is scored as it is), the sigmoid in
    float64 (``predict_scores``). Scores of the float64 parameters
    themselves come from ``predict_scores``."""
    scores = predict_scores(list(traces), cfg, cast_params(params, TRAIN_DTYPE))
    return [Prediction(t.trace_id, float(s), t.label, t.days_to_delivery)
            for t, s in zip(traces, scores)]


def _slice_batch(stacked: dict, idx: np.ndarray) -> dict:
    return {k: v[idx] for k, v in stacked.items()}


def train_epoch(params: ModelParams, cfg: ModelConfig, train_cfg: TrainConfig,
                stacked: dict, rng: np.random.Generator, optimizer: Adam,
                epoch: int = 1) -> float:
    """One shuffled pass over the training set; returns the mean batch loss.

    The forward passes read ``params``: the float64 parameters the
    optimizer updates, or, as in ``fit``, the optimizer's ``TRAIN_DTYPE``
    working copy, which ``forward_batch`` reads as it is. A logical batch
    larger than the attention memory budget is split into forward chunks.
    The chunks' gradients of ``params`` are added up in a ``BatchGrads``
    for the single optimizer step, so the update still averages the whole
    batch. A non-finite chunk loss, or
    gradient, raises ``TrainError`` naming ``epoch`` and the batch index."""
    n = len(stacked["labels"])
    if n == 0:
        raise TrainError("training set is empty")
    chunk = min(train_cfg.batch_size, max_forward_chunk(cfg))
    named = named_tensors(params)
    order = rng.permutation(n)
    losses = []
    for b, lo in enumerate(range(0, n, train_cfg.batch_size)):
        batch_idx = order[lo:lo + train_cfg.batch_size]
        batch_loss, grads = 0.0, BatchGrads()
        for co in range(0, len(batch_idx), chunk):
            piece = _slice_batch(stacked, batch_idx[co:co + chunk])
            weight = len(piece["labels"]) / len(batch_idx)
            with Graph() as g:
                logits = forward_batch(piece, cfg, params, training=True, rng=rng)
                loss = weight * bce_loss_batch(logits, piece["labels"])
            chunk_loss = loss.item()
            if not math.isfinite(chunk_loss):
                raise TrainError(f"non-finite loss {chunk_loss!r} at epoch {epoch}, batch {b}")
            backward(loss, g)
            grads.add(take_grads(named))
            batch_loss += chunk_loss
        optimizer.step(grads.grads, at=f"epoch {epoch}, batch {b}")
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

    The best epoch's parameters are copied only when another epoch runs,
    before its first forward pass, and copied back only when a later epoch
    ran: when the best epoch is the last one, they are the parameters as
    they stand.
    """
    if not train_traces or not val_traces:
        raise TrainError("need non-empty train and validation sets")
    train_ids = {t.trace_id for t in train_traces}
    if train_ids & {t.trace_id for t in val_traces}:
        raise TrainError("train and validation sets overlap")
    for label in (0, 1):
        if all(t.label != label for t in val_traces):
            raise TrainError(f"validation set has no trace with label {label}; "
                             f"its AUC needs both classes")

    stacked = stack_traces(list(train_traces))
    if stacked["fhr"].shape[1] != cfg.seq_len:
        raise TrainError(f"config seq_len {cfg.seq_len} does not match the "
                         f"{stacked['fhr'].shape[1]}-sample traces")

    seeds = np.random.SeedSequence(train_cfg.seed).generate_state(2).tolist()
    params = init if init is not None else init_params(cfg, seed=int(seeds[0]))
    rng = np.random.default_rng(int(seeds[1]))
    # every forward pass, and validation, reads this copy; each step refreshes it
    working = working_copy(params, TRAIN_DTYPE)
    optimizer = Adam(named_tensors(params), lr=train_cfg.learning_rate,
                     working=named_tensors(working))

    log = TrainLog()
    if train_cfg.max_epochs == 0:
        log.best_val_auc = _val_auc(working, cfg, val_traces)
        log.best_epoch = 0
        return params, log

    best_auc = -math.inf
    best_snapshot, best_is_live = None, False
    for epoch in range(1, train_cfg.max_epochs + 1):
        if best_is_live:   # this epoch overwrites the best epoch's parameters
            best_snapshot, best_is_live = clone_param_data(params), False
        tic = time.perf_counter()
        mean_loss = train_epoch(working, cfg, train_cfg, stacked, rng, optimizer, epoch)
        val_auc = _val_auc(working, cfg, val_traces)
        log.epochs.append(EpochRecord(epoch, mean_loss, val_auc,
                                      time.perf_counter() - tic))
        if verbose:
            print(f"epoch {epoch}: loss {mean_loss:.4f} val_auc {val_auc:.4f}")
        if val_auc > best_auc + IMPROVE_DELTA or log.best_epoch == 0:
            best_auc = val_auc
            log.best_epoch = epoch
            best_is_live = True
        if stop_hook is not None and stop_hook(epoch, val_auc):
            log.stop_reason = "pruned"
            break
        if epoch - log.best_epoch >= train_cfg.patience:
            log.stop_reason = "early_stop"
            break

    log.best_val_auc = best_auc
    if not best_is_live:
        load_param_data(params, best_snapshot)
    return params, log

