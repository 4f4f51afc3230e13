"""Seeded random hyperparameter search with per-trial early stopping and
optional cross-trial median pruning.

The search space reproduces the published tuning grids exactly; the winning
configuration from that study ships as the ``paper-best`` preset. Trials are
independent draws, deterministic per (master seed, trial index), so a
sequential search is bit-reproducible.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CtgformerError, HpoError
from .model import ModelConfig
from .signal import WINDOW_LEN
from .train import TRAIN_KEYS, TrainConfig, TrainLog, fit

# Winning configuration of the published 100-trial search; kernel_size is
# carried for fidelity but unused by the architecture.
PAPER_BEST = {
    "n_layers": 6,
    "n_heads": 4,
    "d_model": 512,
    "d_ff": 128,
    "dropout": 0.1,
    "fc_dropout": 0.4,
    "attn_dropout": 0.2,
    "patch_len": 16,
    "stride": 16,
    "kernel_size": 15,
    "activation": "relu",
    "batch_size": 48,
    "learning_rate": 1e-4,
}

PRESETS = {"paper-best": PAPER_BEST}

def preset_configs(name: str) -> tuple:
    """(ModelConfig kwargs, TrainConfig kwargs) for a named preset."""
    if name not in PRESETS:
        raise HpoError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    preset = dict(PRESETS[name])
    train_kwargs = {k: preset.pop(k) for k in TRAIN_KEYS if k in preset}
    return preset, train_kwargs


@dataclass
class SearchSpace:
    seq_len: int = WINDOW_LEN
    n_layers: tuple = (3, 4, 5, 6)
    n_heads: tuple = (4, 8, 16, 32)
    d_model: tuple = (64, 128, 192, 256, 384, 512, 640)
    d_ff: tuple = (128, 192, 256, 320, 384, 512, 640)
    dropout_range: tuple = (0.1, 0.5)    # dropout, fc_dropout and attn_dropout
    learning_rate: tuple = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3)
    batch_size: tuple = (16, 32, 48, 64)
    patch_len: tuple = (4, 8, 16, 32)
    stride: tuple = (4, 8, 16)
    activation: tuple = ("relu", "gelu", "elu")


@dataclass
class TrialRecord:
    index: int
    model_config: ModelConfig
    learning_rate: float
    batch_size: int
    status: str = "completed"            # completed | pruned | failed
    best_val_auc: Optional[float] = None
    log: Optional[TrainLog] = None
    error: Optional[str] = None


def sample_trial(space: SearchSpace, seed: int, index: int) -> tuple:
    """One independent uniform draw per dimension, deterministic per
    (seed, index). Head/width pairs violating divisibility are resampled."""
    if seed < 0:
        raise HpoError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng([seed, index])

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    n_layers = pick(space.n_layers)
    n_heads = pick(space.n_heads)
    d_model = pick(space.d_model)
    while d_model % n_heads != 0:
        n_heads = pick(space.n_heads)
        d_model = pick(space.d_model)
    lo, hi = space.dropout_range
    cfg = ModelConfig(
        seq_len=space.seq_len,
        n_layers=n_layers,
        n_heads=n_heads,
        d_model=d_model,
        d_ff=pick(space.d_ff),
        dropout=float(rng.uniform(lo, hi)),
        fc_dropout=float(rng.uniform(lo, hi)),
        attn_dropout=float(rng.uniform(lo, hi)),
        patch_len=pick(space.patch_len),
        stride=pick(space.stride),
        activation=pick(space.activation),
    )
    return cfg, float(pick(space.learning_rate)), int(pick(space.batch_size))


PRUNE_MIN_EPOCH = 10   # the pruner never stops a trial before this epoch


class MedianPruner:
    """Stop a trial whose validation AUC at epoch k falls below the median of
    completed trials at that epoch; inactive before ``PRUNE_MIN_EPOCH``."""

    def __init__(self):
        self._completed: list = []   # one {epoch: val_auc} per completed trial

    def should_prune(self, epoch: int, val_auc: float) -> bool:
        if epoch < PRUNE_MIN_EPOCH:
            return False
        at_epoch = [h[epoch] for h in self._completed if epoch in h]
        return bool(at_epoch) and val_auc < statistics.median(at_epoch)

    def record_completed(self, log: TrainLog) -> None:
        self._completed.append({e.epoch: e.val_auc for e in log.epochs})


def run_search(space: SearchSpace, train_traces: Sequence, val_traces: Sequence,
               n_trials: int = 100, max_epochs: int = 60, patience: int = 10,
               seed: int = 0, prune: bool = False, verbose: bool = False) -> list:
    """Sequential random search; returns one TrialRecord per trial."""
    if n_trials < 1:
        raise HpoError("n_trials must be at least 1")
    pruner = MedianPruner() if prune else None
    trials = []
    for index in range(n_trials):
        cfg, lr, batch_size = sample_trial(space, seed, index)
        trial_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        train_cfg = TrainConfig(learning_rate=lr, batch_size=batch_size,
                                max_epochs=max_epochs, patience=patience,
                                seed=trial_seed)
        record = TrialRecord(index=index, model_config=cfg,
                             learning_rate=lr, batch_size=batch_size)
        hook = pruner.should_prune if pruner is not None else None
        try:
            _, log = fit(cfg, train_cfg, train_traces, val_traces, stop_hook=hook)
        except CtgformerError as exc:
            record.status = "failed"
            record.error = str(exc)
        else:
            record.log = log
            record.best_val_auc = log.best_val_auc
            record.status = "pruned" if log.stop_reason == "pruned" else "completed"
            if pruner is not None and record.status == "completed":
                pruner.record_completed(log)
        if verbose:
            print(f"trial {index}: {record.status} "
                  f"auc={record.best_val_auc if record.best_val_auc is not None else '-'}")
        trials.append(record)
    if all(t.status == "failed" for t in trials):
        raise HpoError("every trial failed; last error: " + str(trials[-1].error))
    return trials


def best_trial(trials: Sequence[TrialRecord]) -> TrialRecord:
    """Highest validation AUC among completed trials, ties to the earlier
    trial; pruned trials are eligible only when nothing completed."""
    completed = [t for t in trials if t.status == "completed"]
    pool = completed or [t for t in trials if t.status == "pruned"]
    if not pool:
        raise HpoError("no usable trials")
    return max(pool, key=lambda t: (t.best_val_auc, -t.index))


# the sampled ModelConfig fields, in leaderboard column order
CONFIG_COLUMNS = ("n_layers", "n_heads", "d_model", "d_ff", "dropout", "fc_dropout",
                  "attn_dropout", "patch_len", "stride", "activation")

LEADERBOARD_FIELDS = ["rank", "trial", "status", "best_val_auc", "best_epoch",
                      "epochs_run", *CONFIG_COLUMNS, "learning_rate", "batch_size"]


def leaderboard_rows(trials: Sequence[TrialRecord]) -> list:
    scored = [t for t in trials if t.best_val_auc is not None]
    failed = [t for t in trials if t.best_val_auc is None]
    ordered = sorted(scored, key=lambda t: (-t.best_val_auc, t.index)) + failed
    # the csv module writes a float as its repr, so values go in unformatted
    return [{"rank": rank, "trial": t.index, "status": t.status,
             "best_val_auc": "" if t.best_val_auc is None else t.best_val_auc,
             "best_epoch": t.log.best_epoch if t.log else "",
             "epochs_run": len(t.log.epochs) if t.log else "",
             **{k: getattr(t.model_config, k) for k in CONFIG_COLUMNS},
             "learning_rate": t.learning_rate, "batch_size": t.batch_size}
            for rank, t in enumerate(ordered, start=1)]


def write_leaderboard(trials: Sequence[TrialRecord], path) -> None:
    if not trials:
        raise HpoError("cannot report an empty trial list")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LEADERBOARD_FIELDS)
        writer.writeheader()
        for row in leaderboard_rows(trials):
            writer.writerow(row)
