"""Trace preprocessing. ``preprocess`` is the one entry point: it clips a raw
recording to the physiological ranges, rescales both channels to [0, 1],
cuts it into 960-sample windows (one hour) with observation masks, and drops
windows missing more than 30% of their heart-rate signal.

Raw traces carry fetal heart rate in beats/minute and contraction pressure in
relative units, with -1 marking missing samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SignalError

WINDOW_LEN = 960
FHR_RANGE = (50.0, 250.0)
TOCO_RANGE = (0.0, 100.0)
MISSING = -1.0
MAX_MISSING_FRACTION = 0.30


def _as_channel(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise SignalError(f"{name} must be a 1-d sequence, got shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        raise SignalError(f"{name} contains non-finite samples at index {int(np.flatnonzero(bad)[0])}")
    negative = (arr < 0) & (arr != MISSING)
    if np.any(negative):
        idx = int(np.flatnonzero(negative)[0])
        raise SignalError(f"{name} sample {arr[idx]} at index {idx} is negative but not "
                          f"the missing sentinel {MISSING}")
    return arr


def _check_days_to_delivery(days: float) -> None:
    if not (np.isfinite(days) and days >= 0):
        raise SignalError(f"days_to_delivery must be finite and non-negative, got {days}")


@dataclass
class RawTrace:
    """Unprocessed two-channel recording of arbitrary length."""

    trace_id: str
    fhr: np.ndarray
    toco: np.ndarray
    label: int
    days_to_delivery: float

    def __post_init__(self):
        self.fhr = _as_channel(self.fhr, "fhr")
        self.toco = _as_channel(self.toco, "toco")
        if len(self.fhr) != len(self.toco):
            raise SignalError(f"channel lengths differ: fhr={len(self.fhr)} toco={len(self.toco)}")
        if len(self.fhr) < 1:
            raise SignalError("trace is empty")
        if self.label not in (0, 1):
            raise SignalError(f"label must be 0 or 1, got {self.label}")
        _check_days_to_delivery(self.days_to_delivery)


@dataclass
class Trace:
    """One preprocessed 960-sample window, unit-scaled with observation masks."""

    trace_id: str
    fhr: np.ndarray
    toco: np.ndarray
    fhr_mask: np.ndarray
    toco_mask: np.ndarray
    label: int
    days_to_delivery: float
    window_index: int = 0

    def __post_init__(self):
        for name in ("fhr", "toco"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (WINDOW_LEN,):
                raise SignalError(f"{name} must have exactly {WINDOW_LEN} samples, got {arr.shape}")
            setattr(self, name, arr)
        for name in ("fhr_mask", "toco_mask"):
            m = np.asarray(getattr(self, name), dtype=bool)
            if m.shape != (WINDOW_LEN,):
                raise SignalError(f"{name} must have exactly {WINDOW_LEN} entries")
            setattr(self, name, m)
        for vals, mask, name in ((self.fhr, self.fhr_mask, "fhr"), (self.toco, self.toco_mask, "toco")):
            if np.any(vals[~mask] != 0.0):
                raise SignalError(f"masked {name} positions must hold value 0.0")
            obs = vals[mask]
            # negated, so that NaN (which fails every comparison) is rejected
            if obs.size and not (obs.min() >= 0.0 and obs.max() <= 1.0):
                raise SignalError(f"observed {name} values must be finite and lie in [0, 1]")
        if self.label not in (0, 1):
            raise SignalError(f"label must be 0 or 1, got {self.label}")
        _check_days_to_delivery(self.days_to_delivery)


def window_count(n_samples: int) -> int:
    """Windows an ``n_samples``-long recording is cut into, the last one
    right-padded; ``preprocess`` keeps those that pass the 30% rule."""
    return -(-n_samples // WINDOW_LEN)


def _scaled_windows(arr: np.ndarray, bounds: tuple, n_windows: int):
    """Clip one channel to ``bounds``, map it onto [0, 1] and right-pad it to
    whole windows. Returns (values, mask), each (n_windows, WINDOW_LEN): the
    mask is True where a sample lies inside the recording and is not the
    missing sentinel, and every other position holds 0.0."""
    lo, hi = bounds
    padded = np.full(n_windows * WINDOW_LEN, MISSING)
    padded[:len(arr)] = np.where(arr == MISSING, MISSING, (np.clip(arr, lo, hi) - lo) / (hi - lo))
    mask = padded != MISSING
    shape = (n_windows, WINDOW_LEN)
    return np.where(mask, padded, 0.0).reshape(shape), mask.reshape(shape)


def preprocess(raw: RawTrace) -> list[Trace]:
    """Clip, unit-scale and window one recording.

    Observed heart rate is clamped to [50, 250] bpm and mapped by
    (v - 50) / 200, contractions to [0, 100] and mapped by v / 100. The
    recording is cut into consecutive 960-sample windows and the last one is
    right-padded. A window is dropped when more than ``MAX_MISSING_FRACTION``
    (30%) of the heart-rate samples inside its unpadded extent are missing;
    padding does not count against it. A recording of one window keeps its
    id, a longer one gives ``<id>:w<j>``.
    """
    n = len(raw.fhr)
    n_windows = window_count(n)
    fhr, fhr_mask = _scaled_windows(raw.fhr, FHR_RANGE, n_windows)
    toco, toco_mask = _scaled_windows(raw.toco, TOCO_RANGE, n_windows)
    extent = np.minimum(WINDOW_LEN, n - WINDOW_LEN * np.arange(n_windows))
    missing_frac = (extent - fhr_mask.sum(axis=1)) / extent
    return [Trace(trace_id=raw.trace_id if n_windows == 1 else f"{raw.trace_id}:w{j}",
                  fhr=fhr[j], toco=toco[j], fhr_mask=fhr_mask[j], toco_mask=toco_mask[j],
                  label=raw.label, days_to_delivery=raw.days_to_delivery, window_index=j)
            for j in range(n_windows) if missing_frac[j] <= MAX_MISSING_FRACTION]


def trace_to_raw(trace: Trace) -> RawTrace:
    """Invert unit scaling back to instrument units, writing -1 at masked
    positions.

    For a window ``t`` that ``preprocess`` emitted without padding,
    ``preprocess(trace_to_raw(t))`` is one window with ``t``'s id and masks,
    values within 1 ulp of ``t``'s (equal from the second round trip on) and
    ``window_index`` 0. A tail window's padding comes back as missing heart
    rate, so the 30% rule can drop it: the tail of a 1460-sample recording
    comes back as ``[]``."""
    fhr = np.where(trace.fhr_mask,
                   trace.fhr * (FHR_RANGE[1] - FHR_RANGE[0]) + FHR_RANGE[0], MISSING)
    toco = np.where(trace.toco_mask, trace.toco * TOCO_RANGE[1], MISSING)
    return RawTrace(trace_id=trace.trace_id, fhr=fhr, toco=toco,
                    label=trace.label, days_to_delivery=trace.days_to_delivery)
