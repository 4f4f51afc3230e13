"""Trace preprocessing: range clipping, unit scaling, fixed-length windowing
and missing-value mask construction.

Raw traces carry fetal heart rate in beats/minute and contraction pressure in
relative units, with -1 marking missing samples. The pipeline clips to the
physiological ranges, rescales both channels to [0, 1], cuts the recording
into non-overlapping 960-sample windows (one hour), right-pads the final
partial window, and drops windows missing more than 30% of their heart-rate
signal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def clip_ranges(raw: RawTrace) -> RawTrace:
    """Clamp observed heart rate to [50, 250] bpm and contractions to [0, 100];
    missing sentinels pass through untouched."""
    fhr = np.where(raw.fhr == MISSING, MISSING, np.clip(raw.fhr, *FHR_RANGE))
    toco = np.where(raw.toco == MISSING, MISSING, np.clip(raw.toco, *TOCO_RANGE))
    return replace(raw, fhr=fhr, toco=toco)


def scale_unit(raw: RawTrace) -> RawTrace:
    """Map clipped ranges onto [0, 1]: fhr via (v - 50) / 200, toco via v / 100."""
    for arr, (lo, hi), name in ((raw.fhr, FHR_RANGE, "fhr"), (raw.toco, TOCO_RANGE, "toco")):
        observed = arr[arr != MISSING]
        if observed.size and (observed.min() < lo or observed.max() > hi):
            raise SignalError(f"unclipped {name} value outside [{lo}, {hi}]; run clip_ranges first")
    fhr = np.where(raw.fhr == MISSING, MISSING,
                   (raw.fhr - FHR_RANGE[0]) / (FHR_RANGE[1] - FHR_RANGE[0]))
    toco = np.where(raw.toco == MISSING, MISSING, raw.toco / TOCO_RANGE[1])
    return replace(raw, fhr=fhr, toco=toco)


def build_mask(window_values: np.ndarray):
    """Pad a window of up to 960 samples and derive its observation mask.

    Mask is True where the sample is inside the original extent and not the
    missing sentinel; every masked-out position carries value 0.0.
    """
    vals = np.asarray(window_values, dtype=np.float64)
    if len(vals) > WINDOW_LEN:
        raise SignalError(f"window longer than {WINDOW_LEN} samples")
    padded = np.zeros(WINDOW_LEN)
    mask = np.zeros(WINDOW_LEN, dtype=bool)
    observed = vals != MISSING
    padded[: len(vals)][observed] = vals[observed]
    mask[: len(vals)] = observed
    return padded, mask


def window_pad(raw: RawTrace) -> list[Trace]:
    """Cut a scaled trace into consecutive 960-sample windows.

    The final partial window is right-padded with missing samples. A window is
    dropped when more than ``MAX_MISSING_FRACTION`` (30%) of the heart-rate
    samples inside its original (unpadded) extent are missing; padding itself
    does not count against the window.
    """
    n = len(raw.fhr)
    if n == 0:
        raise SignalError("cannot window an empty trace")
    for arr, name in ((raw.fhr, "fhr"), (raw.toco, "toco")):
        observed = arr[arr != MISSING]
        if observed.size and (observed.min() < 0.0 or observed.max() > 1.0):
            raise SignalError(f"{name} not unit-scaled; run scale_unit first")

    traces = []
    n_windows = (n + WINDOW_LEN - 1) // WINDOW_LEN
    for j in range(n_windows):
        lo, hi = j * WINDOW_LEN, min((j + 1) * WINDOW_LEN, n)
        fhr_seg, toco_seg = raw.fhr[lo:hi], raw.toco[lo:hi]
        missing_frac = np.mean(fhr_seg == MISSING)
        if missing_frac > MAX_MISSING_FRACTION:
            continue
        fhr, fhr_mask = build_mask(fhr_seg)
        toco, toco_mask = build_mask(toco_seg)
        trace_id = raw.trace_id if n_windows == 1 else f"{raw.trace_id}:w{j}"
        traces.append(Trace(trace_id=trace_id, fhr=fhr, toco=toco,
                            fhr_mask=fhr_mask, toco_mask=toco_mask,
                            label=raw.label, days_to_delivery=raw.days_to_delivery,
                            window_index=j))
    return traces


def preprocess(raw: RawTrace) -> list[Trace]:
    """Full pipeline: clip -> scale -> window/pad/mask."""
    return window_pad(scale_unit(clip_ranges(raw)))


def trace_to_raw(trace: Trace) -> RawTrace:
    """Invert unit scaling back to instrument units, writing -1 at masked
    positions. ``preprocess(trace_to_raw(t))`` reproduces ``t`` exactly."""
    fhr = np.where(trace.fhr_mask,
                   trace.fhr * (FHR_RANGE[1] - FHR_RANGE[0]) + FHR_RANGE[0], MISSING)
    toco = np.where(trace.toco_mask, trace.toco * TOCO_RANGE[1], MISSING)
    return RawTrace(trace_id=trace.trace_id, fhr=fhr, toco=toco,
                    label=trace.label, days_to_delivery=trace.days_to_delivery)
