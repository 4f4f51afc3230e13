"""ROC analysis: exact AUC, confusion matrices, and named operating thresholds.

Two independent AUC routes are kept deliberately: ``auc`` uses the midrank
(Mann-Whitney) statistic with half credit for ties, while ``RocAnalysis``
integrates the ROC polygon with the trapezoid rule. They agree to ~1e-15 and
cross-check each other in the test suite.

A prediction is counted positive when score >= threshold, everywhere.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EvalError

DEFAULT_THRESHOLD = 0.5
DEFAULT_SENS_TARGET = 0.90
DEFAULT_SPEC_TARGET = 0.90

PREDICTIONS_HEADER = ["trace_id", "score", "label", "days_to_delivery"]


@dataclass(frozen=True)
class Prediction:
    trace_id: str
    score: float
    label: int
    days_to_delivery: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "score", float(self.score))
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "days_to_delivery", float(self.days_to_delivery))
        if not 0.0 <= self.score <= 1.0:
            raise EvalError(f"score must lie in [0, 1], got {self.score}")
        if self.label not in (0, 1):
            raise EvalError(f"label must be 0 or 1, got {self.label}")
        if not (math.isfinite(self.days_to_delivery) and self.days_to_delivery >= 0):
            raise EvalError(f"days_to_delivery must be finite and non-negative, "
                            f"got {self.days_to_delivery}")


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
    """Six standard binary-classifier metrics; NaN marks an undefined ratio."""

    sensitivity: float
    specificity: float
    ppv: float
    npv: float
    f1: float
    accuracy: float

    def as_dict(self) -> dict:
        return {k: (None if math.isnan(v) else v) for k, v in self.__dict__.items()}


@dataclass
class ThresholdReport:
    name: str
    threshold: Optional[float]
    attained: bool
    confusion: Optional[Confusion] = None
    metrics: Optional[Metrics] = None


@dataclass
class RocAnalysis:
    points: list  # (fpr, tpr) pairs, monotone in both coordinates
    auc: float
    thresholds: dict = field(default_factory=dict)  # name -> ThresholdReport


def _arrays(preds: Sequence[Prediction]):
    scores = np.array([p.score for p in preds], dtype=float)
    return scores, np.array([p.label for p in preds], dtype=int)


def _split_classes(preds: Sequence[Prediction]):
    scores, labels = _arrays(preds)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvalError("need at least one positive and one negative label")
    return scores, labels, n_pos, n_neg


def auc(preds: Sequence[Prediction]) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 * P(tie), computed from
    midranks so ties get exactly half credit."""
    scores, labels, n_pos, n_neg = _split_classes(preds)
    order = np.argsort(scores, kind="mergesort")
    starts = np.flatnonzero(np.diff(scores[order], prepend=np.nan))   # tie-group starts
    ends = np.append(starts[1:], len(scores))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)   # midranks
    rank_sum_pos = float(ranks[labels == 1].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _cut_table(preds: Sequence[Prediction]):
    """Descending distinct score cuts with the cumulative true- and
    false-positive counts of predicting positive at score >= cut."""
    scores, labels, n_pos, n_neg = _split_classes(preds)
    order = np.argsort(-scores, kind="mergesort")
    s, l = scores[order], labels[order]
    group_ends = np.append(np.flatnonzero(np.diff(s)) + 1, len(s))   # tie-group ends
    tp = np.cumsum(l)[group_ends - 1]
    fp = group_ends - tp
    return s[group_ends - 1], tp, fp, n_pos, n_neg


def roc_points(preds: Sequence[Prediction]) -> list:
    """ROC polygon with one vertex per distinct score cut, from (0,0) to (1,1)."""
    _, tp, fp, n_pos, n_neg = _cut_table(preds)
    return [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))


def trapezoid_auc(points: Sequence) -> float:
    """Area under the polygon through ``points``, (x, y) pairs in order."""
    xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return float(np.trapezoid(xy[:, 1], xy[:, 0]))


def confusion_at(preds: Sequence[Prediction], threshold: float) -> Confusion:
    if not 0.0 <= threshold <= 1.0:
        raise EvalError(f"threshold must lie in [0, 1], got {threshold}")
    scores, labels = _arrays(preds)
    predicted, positive = scores >= threshold, labels == 1
    return Confusion(tp=int(np.sum(predicted & positive)), fp=int(np.sum(predicted & ~positive)),
                     tn=int(np.sum(~predicted & ~positive)), fn=int(np.sum(~predicted & positive)))


def _ratio(num: int, den: int) -> float:
    return num / den if den else math.nan


def metrics(c: Confusion) -> Metrics:
    sens = _ratio(c.tp, c.tp + c.fn)
    spec = _ratio(c.tn, c.tn + c.fp)
    ppv = _ratio(c.tp, c.tp + c.fp)
    npv = _ratio(c.tn, c.tn + c.fn)
    if math.isnan(ppv) or math.isnan(sens) or (ppv + sens) == 0:
        f1 = math.nan
    else:
        f1 = 2.0 * ppv * sens / (ppv + sens)
    acc = _ratio(c.tp + c.tn, c.total)
    return Metrics(sensitivity=sens, specificity=spec, ppv=ppv, npv=npv, f1=f1, accuracy=acc)


def _sens_spec_table(preds: Sequence[Prediction]):
    """Ascending distinct score cuts with the sensitivity and specificity of
    predicting positive at score >= cut."""
    cuts, tp, fp, n_pos, n_neg = _cut_table(preds)
    return cuts[::-1], (tp / n_pos)[::-1], ((n_neg - fp) / n_neg)[::-1]


def youden_threshold(preds: Sequence[Prediction]) -> float:
    """Cut maximising J = sensitivity + specificity - 1; ties go to the
    smaller threshold."""
    cuts, sens, spec = _sens_spec_table(preds)
    j = sens + spec - 1.0
    return float(cuts[int(np.argmax(j))])    # argmax takes the first (smallest cut)


def target_threshold(preds: Sequence[Prediction], kind: str,
                     target: float = DEFAULT_SENS_TARGET) -> Optional[float]:
    """Constrained operating point.

    high_sensitivity: largest threshold whose sensitivity still reaches the
    target (maximising specificity under the constraint). high_specificity is
    symmetric: smallest threshold whose specificity reaches the target,
    allowing the everything-negative cut just above the top score. Returns
    None when no cut attains the target.
    """
    cuts, sens, spec = _sens_spec_table(preds)
    if kind == "high_sensitivity":
        feasible = np.flatnonzero(sens >= target)
        return float(cuts[feasible[-1]]) if feasible.size else None
    if kind == "high_specificity":
        feasible = np.flatnonzero(spec >= target)
        if feasible.size:
            return float(cuts[feasible[0]])
        if cuts[-1] < 1.0 and 1.0 >= target:   # predict everything negative
            return float((cuts[-1] + 1.0) / 2.0)
        return None
    raise EvalError(f"unknown threshold kind {kind!r}")


def _threshold_report(preds, name, threshold) -> ThresholdReport:
    if threshold is None:
        return ThresholdReport(name=name, threshold=None, attained=False)
    c = confusion_at(preds, threshold)
    return ThresholdReport(name=name, threshold=threshold, attained=True,
                           confusion=c, metrics=metrics(c))


def analyze(preds: Sequence[Prediction], sens_target: float = DEFAULT_SENS_TARGET,
            spec_target: float = DEFAULT_SPEC_TARGET) -> RocAnalysis:
    """Full ROC analysis with the four named operating thresholds."""
    points = roc_points(preds)
    analysis = RocAnalysis(points=points, auc=trapezoid_auc(points))
    analysis.thresholds["default"] = _threshold_report(preds, "default", DEFAULT_THRESHOLD)
    analysis.thresholds["youden"] = _threshold_report(preds, "youden", youden_threshold(preds))
    analysis.thresholds["high_sensitivity"] = _threshold_report(
        preds, "high_sensitivity", target_threshold(preds, "high_sensitivity", sens_target))
    analysis.thresholds["high_specificity"] = _threshold_report(
        preds, "high_specificity", target_threshold(preds, "high_specificity", spec_target))
    return analysis


def filter_by_dtd(preds: Sequence[Prediction], max_days: float) -> list:
    """Keep positives recorded within ``max_days`` of delivery; controls stay."""
    kept = [p for p in preds if p.label == 0 or p.days_to_delivery <= max_days]
    if not any(p.label == 1 for p in kept):
        raise EvalError(f"no positive predictions within {max_days} days of delivery")
    return kept


def evaluate_by_dtd(preds: Sequence[Prediction], max_days: float,
                    sens_target: float = DEFAULT_SENS_TARGET,
                    spec_target: float = DEFAULT_SPEC_TARGET) -> RocAnalysis:
    return analyze(filter_by_dtd(preds, max_days), sens_target, spec_target)


def write_predictions(preds: Iterable[Prediction], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PREDICTIONS_HEADER)
        for p in preds:
            w.writerow([p.trace_id, repr(p.score), p.label, repr(p.days_to_delivery)])


def read_predictions(path) -> list:
    preds = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != PREDICTIONS_HEADER:
            raise EvalError(f"{path}: expected header {','.join(PREDICTIONS_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise EvalError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                preds.append(Prediction(trace_id=row[0], score=float(row[1]),
                                        label=int(row[2]), days_to_delivery=float(row[3])))
            except (ValueError, EvalError) as exc:
                raise EvalError(f"{path}:{lineno}: {exc}") from exc
    return preds


def write_report(analysis: RocAnalysis, path) -> None:
    payload = {
        "auc": analysis.auc,
        "n_points": len(analysis.points),
        "thresholds": {
            name: {
                "threshold": rep.threshold,
                "attained": rep.attained,
                "confusion": (rep.confusion.__dict__ if rep.confusion else None),
                "metrics": (rep.metrics.as_dict() if rep.metrics else None),
            }
            for name, rep in analysis.thresholds.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_roc_points(analysis: RocAnalysis, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fpr", "tpr"])
        for fpr, tpr in analysis.points:
            w.writerow([repr(fpr), repr(tpr)])
