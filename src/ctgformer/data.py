"""Cohort file IO, deterministic stratified splits, day-band filtering, and a
synthetic two-channel CTG generator.

The generator builds class-conditioned traces from clinically motivated
motifs: controls (label 0) get a steady baseline with pronounced short-term
variability and accelerations; cases (label 1) get reduced variability and
decelerations that lag contraction peaks. An effect-drift slope ties the
strength of the adverse pattern to days-to-delivery, so recordings taken close
to delivery show subtler patterns than those taken days earlier. Everything is
deterministic in the generator spec, with per-trace derived seeds.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CtgformerError, DataError
from .signal import MISSING, RawTrace, Trace, WINDOW_LEN, preprocess

COHORT_HEADER = "#ctg-cohort v1"
RAW_HEADER = "#ctg-raw v1"
_WINDOW_ID = re.compile(r".*:w(\d+)$")

# Generator motifs. Rates are events/hour.
BASELINE_RANGE = (115.0, 155.0)
NPO_VARIABILITY = (10.0, 22.0)   # short-term variability amplitude, bpm
APO_VARIABILITY = (2.0, 6.0)
NPO_ACCEL_RATE = 5.0
APO_ACCEL_RATE = 1.0
NPO_DECEL_RATE = 0.5
APO_DECEL_RATE = 0.0             # APO decels come from contraction coupling
DECEL_LAG_RANGE = (8.0, 16.0)    # samples between contraction peak and nadir
COUPLING_PROB = 0.85             # chance a contraction triggers a late decel
DRIFT_INTERCEPT = 0.25           # adverse strength s = intercept + slope * dtd
DRIFT_SLOPE = 0.107
MISSING_BURST_CAP = 0.25         # a channel's missing share, kept under the 30% rule


@dataclass
class GenSpec:
    """The settings a caller chooses for the synthetic cohort generator. Rates
    are events/hour; the motif shapes are the module constants above."""

    n_per_class: int = 100
    seed: int = 0
    contraction_rate: float = 10.0
    missing_rate: float = 0.04
    dtd_days: tuple = (0, 7)                # inclusive integer range

    def __post_init__(self):
        for name in ("contraction_rate", "missing_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DataError(f"{name} must be finite and non-negative, got {value!r}")
        if self.n_per_class < 1:
            raise DataError("n_per_class must be at least 1")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")
        days = self.dtd_days
        if not (isinstance(days, (tuple, list)) and len(days) == 2
                and all(isinstance(d, (int, np.integer)) for d in days)
                and 0 <= days[0] <= days[1]):
            raise DataError(f"dtd_days must be two integers with 0 <= low <= high, "
                            f"got {self.dtd_days!r}")

    def adverse_strength(self, dtd: float) -> float:
        return float(np.clip(DRIFT_INTERCEPT + DRIFT_SLOPE * dtd, 0.0, 1.0))

    def expected_stv_margin(self) -> float:
        """Conservative lower bound on the class gap in mean short-term
        variability (scaled units).

        The variability component is amp * 0.5 * MA3(gaussian noise), whose
        successive differences have std amp * sqrt(2)/6 and mean magnitude
        amp * 0.188. Case amplitude is pulled toward the control midpoint by
        (1 - strength); a 0.6 safety factor absorbs the other motifs.
        """
        npo_mid = 0.5 * sum(NPO_VARIABILITY)
        apo_mid = 0.5 * sum(APO_VARIABILITY)
        days = range(int(self.dtd_days[0]), int(self.dtd_days[1]) + 1)
        mean_s = float(np.mean([self.adverse_strength(d) for d in days]))
        eff_apo = apo_mid + (npo_mid - apo_mid) * (1.0 - mean_s)
        return 0.6 * 0.188 * (npo_mid - eff_apo) / 200.0


@dataclass
class Cohort:
    traces: list

    def __post_init__(self):
        ids = [t.trace_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise DataError("trace ids must be unique within a cohort")

    @property
    def class_counts(self) -> tuple:
        pos = sum(1 for t in self.traces if t.label == 1)
        return (len(self.traces) - pos, pos)

    def digest(self) -> str:
        h = hashlib.sha256()
        for t in self.traces:
            h.update(t.trace_id.encode())
            h.update(bytes([t.label]))
            h.update(np.float64(t.days_to_delivery).tobytes())
            h.update(t.fhr.tobytes())
            h.update(t.toco.tobytes())
            h.update(np.packbits(t.fhr_mask).tobytes())
            h.update(np.packbits(t.toco_mask).tobytes())
        return h.hexdigest()


def _bumps(n: int, times: np.ndarray, amps: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Sum of Gaussian bumps evaluated on the sample grid."""
    out = np.zeros(n)
    t = np.arange(n)
    for c, a, s in zip(times, amps, sigmas):
        out += a * np.exp(-0.5 * ((t - c) / s) ** 2)
    return out


def _missing_bursts(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Boolean missing mask built from short dropout bursts, capped so no
    window ever violates the 30% preprocessing rule."""
    missing = np.zeros(n, dtype=bool)
    if rate <= 0:
        return missing
    n_bursts = rng.poisson(rate * n / 4.0)
    for _ in range(n_bursts):
        start = int(rng.integers(0, n))
        length = 1 + int(rng.geometric(0.25))
        stop = min(n, start + length)
        if (missing.sum() + (stop - start)) / n > MISSING_BURST_CAP:
            break
        missing[start:stop] = True
    return missing


def _synth_trace(spec: GenSpec, label: int, index: int) -> RawTrace:
    rng = np.random.default_rng([spec.seed, label, index])
    n = WINDOW_LEN
    dtd = int(rng.integers(spec.dtd_days[0], spec.dtd_days[1] + 1))
    strength = spec.adverse_strength(dtd) if label == 1 else 0.0

    baseline = rng.uniform(*BASELINE_RANGE)
    t = np.arange(n)
    wander = np.zeros(n)
    for _ in range(2):
        period = rng.uniform(150, 450)
        wander += rng.uniform(1.0, 4.0) * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))

    # Short-term variability: smoothed noise with class-conditional amplitude.
    # Case variability is pulled toward the control range as strength fades,
    # so near-delivery cases are the subtle ones.
    if label == 0:
        stv_amp = rng.uniform(*NPO_VARIABILITY)
    else:
        base = rng.uniform(*APO_VARIABILITY)
        npo_mid = 0.5 * (NPO_VARIABILITY[0] + NPO_VARIABILITY[1])
        stv_amp = base + (npo_mid - base) * (1.0 - strength)
    noise = rng.normal(size=n)
    kernel = np.ones(3) / 3.0
    smooth = np.convolve(noise, kernel, mode="same")
    variability = stv_amp * 0.5 * smooth

    hours = 1.0
    n_accels = rng.poisson((NPO_ACCEL_RATE if label == 0 else APO_ACCEL_RATE) * hours)
    accels = _bumps(n, rng.uniform(0, n, n_accels), rng.uniform(10, 25, n_accels),
                    rng.uniform(2.5, 5.0, n_accels))

    # Uterine activity: baseline tone plus contraction bumps.
    n_contr = rng.poisson(spec.contraction_rate * hours)
    contr_times = np.sort(rng.uniform(0, n, n_contr))
    contr_amps = rng.uniform(30, 70, n_contr)
    contr_sigmas = rng.uniform(6, 12, n_contr)
    toco = rng.uniform(5, 12) + 2.0 * np.convolve(rng.normal(size=n), kernel, mode="same")
    toco += _bumps(n, contr_times, contr_amps, contr_sigmas)

    decels = np.zeros(n)
    n_spont = rng.poisson(NPO_DECEL_RATE * hours if label == 0 else APO_DECEL_RATE * hours)
    decels -= _bumps(n, rng.uniform(0, n, n_spont), rng.uniform(10, 20, n_spont),
                     rng.uniform(3, 6, n_spont))
    if label == 1:
        # late decelerations: nadir trails each contraction peak by the lag
        depth_scale = 0.35 + 0.65 * strength
        for c in contr_times:
            if rng.random() < COUPLING_PROB:
                lag = rng.uniform(*DECEL_LAG_RANGE)
                decels -= _bumps(n, np.array([c + lag]),
                                 np.array([rng.uniform(20, 45) * depth_scale]),
                                 np.array([rng.uniform(4, 8)]))

    fhr = baseline + wander + variability + accels + decels
    fhr = np.clip(fhr, 55.0, 245.0)   # strictly inside the clip range: no clipping losses
    toco = np.clip(toco, 0.0, 95.0)

    fhr[_missing_bursts(rng, n, spec.missing_rate)] = MISSING
    toco[_missing_bursts(rng, n, spec.missing_rate * 0.5)] = MISSING

    trace_id = f"syn{spec.seed}-{'apo' if label else 'npo'}-{index:05d}"
    return RawTrace(trace_id=trace_id, fhr=fhr, toco=toco, label=label,
                    days_to_delivery=float(dtd))


def generate_cohort(spec: GenSpec) -> Cohort:
    """Balanced synthetic cohort, one 960-sample window per trace, already
    preprocessed. Deterministic in ``spec``."""
    traces = []
    for label in (0, 1):
        for i in range(spec.n_per_class):
            windows = preprocess(_synth_trace(spec, label, i))
            if len(windows) != 1:
                raise DataError(f"generator produced {len(windows)} windows for one trace; "
                                "missing-data cap violated")
            traces.append(windows[0])
    return Cohort(traces)


def short_term_variability(values: np.ndarray, mask: np.ndarray) -> float:
    """Mean absolute successive difference over observed sample pairs."""
    both = mask[:-1] & mask[1:]
    if not both.any():
        return 0.0
    return float(np.abs(np.diff(values))[both].mean())


def _write_records(path, header: str, records: Sequence, numbers: Callable) -> None:
    """Write ``header``, then one line per record: its trace id and the
    ``repr`` of each of ``numbers(record)``. Every id is checked before the
    file is opened."""
    for r in records:
        if r.trace_id != r.trace_id.strip() or any(c in r.trace_id for c in ",\r\n"):
            raise DataError(f"trace id {r.trace_id!r} cannot be written: an id may not "
                            "contain a comma, CR or LF, nor start or end with whitespace")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in records:
            fh.write(",".join([r.trace_id, *map(repr, numbers(r))]) + "\n")


def _read_records(path, header: str, parse: Callable) -> list:
    """Check ``header``, then ``parse`` the comma-separated fields of every
    non-blank line. Any failure becomes a ``DataError`` naming ``path:lineno``."""
    records = []
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise DataError(f"{path}: expected header {header!r}, got {first!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(line.split(",")))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
            except CtgformerError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_cohort(cohort: Cohort, path) -> None:
    """One trace per line: id, label, days to delivery, 960 fhr then 960 toco
    values with -1 at unobserved positions."""
    _write_records(path, COHORT_HEADER, cohort.traces, lambda t: [
        int(t.label), float(t.days_to_delivery),
        *np.where(t.fhr_mask, t.fhr, MISSING).tolist(),
        *np.where(t.toco_mask, t.toco, MISSING).tolist()])


def _parse_cohort_record(fields: list) -> Trace:
    if len(fields) != 3 + 2 * WINDOW_LEN:
        raise DataError(f"expected {3 + 2 * WINDOW_LEN} fields, got {len(fields)}")
    label, dtd = int(fields[1]), float(fields[2])
    values = np.array([float(v) for v in fields[3:]], dtype=np.float64)
    fhr_raw, toco_raw = values[:WINDOW_LEN], values[WINDOW_LEN:]
    fhr_mask, toco_mask = fhr_raw != MISSING, toco_raw != MISSING
    window = _WINDOW_ID.match(fields[0])
    return Trace(trace_id=fields[0],
                 fhr=np.where(fhr_mask, fhr_raw, 0.0),
                 toco=np.where(toco_mask, toco_raw, 0.0),
                 fhr_mask=fhr_mask, toco_mask=toco_mask,
                 label=label, days_to_delivery=dtd,
                 window_index=int(window.group(1)) if window else 0)


def read_cohort(path) -> Cohort:
    return Cohort(_read_records(path, COHORT_HEADER, _parse_cohort_record))


def write_raw_traces(raws: Sequence[RawTrace], path) -> None:
    """Variable-length raw traces: id, label, dtd, length, fhr values, toco values."""
    _write_records(path, RAW_HEADER, raws, lambda r: [
        int(r.label), float(r.days_to_delivery), len(r.fhr), *r.fhr.tolist(), *r.toco.tolist()])


def _parse_raw_record(fields: list) -> RawTrace:
    if len(fields) < 4:
        raise DataError("truncated record")
    label, dtd, n = int(fields[1]), float(fields[2]), int(fields[3])
    if len(fields) != 4 + 2 * n:
        raise DataError(f"expected {4 + 2 * n} fields for length {n}, got {len(fields)}")
    values = np.array([float(v) for v in fields[4:]], dtype=np.float64)
    return RawTrace(trace_id=fields[0], fhr=values[:n], toco=values[n:],
                    label=label, days_to_delivery=dtd)


def read_raw_traces(path) -> list:
    return _read_records(path, RAW_HEADER, _parse_raw_record)


def split(cohort: Cohort, fraction: float = 0.8, seed: int = 0) -> tuple:
    """Label-stratified partition into (train, val), deterministic per seed."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must lie in (0, 1), got {fraction}")
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    train, val = [], []
    for label in (0, 1):
        members = [t for t in cohort.traces if t.label == label]
        if len(members) < 2:
            raise DataError(f"class {label} has {len(members)} traces; need at least 2 to split")
        order = rng.permutation(len(members))
        n_train = int(round(fraction * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        for pos, idx in enumerate(order):
            (train if pos < n_train else val).append(members[idx])
    return Cohort(train), Cohort(val)


def filter_dtd(cohort: Cohort, band) -> Cohort:
    """Restrict case traces to the inclusive (low, high) days-to-delivery
    ``band``; controls are kept."""
    try:
        lo, hi = map(float, band)
    except (TypeError, ValueError) as exc:
        raise DataError(f"days-to-delivery band must be a (low, high) pair, got {band!r}") from exc
    if lo > hi or lo < 0:
        raise DataError(f"invalid days-to-delivery band [{lo}, {hi}]")
    kept = [t for t in cohort.traces
            if t.label == 0 or lo <= t.days_to_delivery <= hi]
    if not any(t.label == 1 for t in kept):
        raise DataError(f"no case traces inside days-to-delivery band [{lo}, {hi}]")
    return Cohort(kept)


def stack_traces(traces: Sequence[Trace]) -> dict:
    """Batch traces into contiguous arrays for the model."""
    if not traces:
        raise DataError("cannot stack an empty trace list")
    return {
        "fhr": np.stack([t.fhr for t in traces]),
        "toco": np.stack([t.toco for t in traces]),
        "fhr_mask": np.stack([t.fhr_mask for t in traces]),
        "toco_mask": np.stack([t.toco_mask for t in traces]),
        "labels": np.array([t.label for t in traces], dtype=np.float64),
    }
