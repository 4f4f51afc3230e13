import math

import numpy as np
import pytest

from ctgformer.errors import EvalError
from ctgformer import evaluation as ev
from ctgformer.evaluation import (
    Confusion,
    Prediction,
    analyze,
    auc,
    confusion_at,
    evaluate_by_dtd,
    filter_by_dtd,
    metrics,
    read_predictions,
    roc_points,
    target_threshold,
    trapezoid_auc,
    write_predictions,
    youden_threshold,
)


def preds_from(scores, labels, dtds=None):
    dtds = dtds if dtds is not None else [0.0] * len(scores)
    return [Prediction(f"t{i}", float(s), int(l), float(d))
            for i, (s, l, d) in enumerate(zip(scores, labels, dtds))]


def pair_count_auc(preds):
    """O(n^2) brute-force oracle: count positive-over-negative pairs."""
    pos = np.array([p.score for p in preds if p.label == 1])
    neg = np.array([p.score for p in preds if p.label == 0])
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def random_preds(rng, n, tie_prob=0.3):
    scores = rng.random(n)
    if tie_prob:
        # coarsen a fraction of scores to force ties
        coarse = rng.random(n) < tie_prob
        scores[coarse] = np.round(scores[coarse], 1)
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return preds_from(scores, labels)


class TestAuc:
    def test_perfect_separation(self):
        p = preds_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(p) == 1.0

    def test_perfectly_inverted(self):
        p = preds_from([0.2, 0.8], [1, 0])
        assert auc(p) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(EvalError):
            auc(preds_from([0.5, 0.6], [1, 1]))

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            p = random_preds(rng, int(rng.integers(2, 200)))
            assert abs(auc(p) - pair_count_auc(p)) <= 1e-12

    def test_trapezoid_equals_mann_whitney(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            p = random_preds(rng, int(rng.integers(2, 150)))
            assert abs(trapezoid_auc(roc_points(p)) - auc(p)) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        p = random_preds(rng, 100, tie_prob=0.0)
        cubed = [Prediction(q.trace_id, q.score ** 3, q.label) for q in p]
        assert abs(auc(p) - auc(cubed)) <= 1e-12

    def test_random_labels_near_half(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            p = preds_from(rng.random(10_000), rng.integers(0, 2, 10_000))
            assert 0.46 <= auc(p) <= 0.54


class TestRocPoints:
    def test_monotone_and_endpoints(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = roc_points(random_preds(rng, int(rng.integers(2, 100))))
            assert pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)
            xs, ys = zip(*pts)
            assert all(a <= b for a, b in zip(xs, xs[1:]))
            assert all(a <= b for a, b in zip(ys, ys[1:]))


class TestConfusion:
    def test_threshold_zero_all_positive(self):
        c = confusion_at(preds_from([0.1, 0.9, 0.4], [1, 0, 1]), 0.0)
        assert c.fn == 0 and c.tn == 0
        assert c.tp == 2 and c.fp == 1

    def test_threshold_above_max_all_negative(self):
        c = confusion_at(preds_from([0.1, 0.4], [1, 0]), 0.5)
        assert c.tp == 0 and c.fp == 0

    def test_matches_direct_count(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            p = random_preds(rng, int(rng.integers(2, 120)))
            t = float(rng.random())
            c = confusion_at(p, t)
            tp = sum(1 for q in p if q.label == 1 and q.score >= t)
            fp = sum(1 for q in p if q.label == 0 and q.score >= t)
            fn = sum(1 for q in p if q.label == 1 and q.score < t)
            tn = sum(1 for q in p if q.label == 0 and q.score < t)
            assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
            assert c.total == len(p)


class TestMetrics:
    def test_perfect_classifier(self):
        m = metrics(Confusion(tp=1, fp=0, tn=1, fn=0))
        assert all(v == 1.0 for v in m.__dict__.values())

    def test_undefined_marked_nan(self):
        m = metrics(Confusion(tp=0, fp=0, tn=5, fn=5))
        assert math.isnan(m.ppv) and math.isnan(m.f1)
        assert m.specificity == 1.0

    def test_hand_case_57_88(self):
        m = metrics(Confusion(tp=57, fn=43, tn=88, fp=12))
        assert m.sensitivity == 0.57
        assert m.specificity == 0.88
        assert abs(m.ppv - 57 / 69) < 1e-12
        assert abs(m.ppv - 0.826) < 1e-3

    def test_integer_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 50, 4))
            c = Confusion(tp, fp, tn, fn)
            m = metrics(c)
            if not math.isnan(m.sensitivity):
                assert m.sensitivity * (tp + fn) == pytest.approx(tp, abs=1e-9)
            if not math.isnan(m.specificity):
                assert m.specificity * (tn + fp) == pytest.approx(tn, abs=1e-9)
            if not math.isnan(m.ppv):
                assert m.ppv * (tp + fp) == pytest.approx(tp, abs=1e-9)
            if not math.isnan(m.npv):
                assert m.npv * (tn + fn) == pytest.approx(tn, abs=1e-9)
            if not math.isnan(m.accuracy):
                assert m.accuracy * c.total == pytest.approx(tp + tn, abs=1e-9)


def exhaustive_youden(preds):
    best_cut, best_j = None, -math.inf
    for cut in sorted({p.score for p in preds}):
        m = metrics(confusion_at(preds, cut))
        j = m.sensitivity + m.specificity - 1.0
        if j > best_j:
            best_cut, best_j = cut, j
    return best_cut, best_j


class TestYouden:
    def test_separable_gives_j_one(self):
        p = preds_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        cut = youden_threshold(p)
        m = metrics(confusion_at(p, cut))
        assert m.sensitivity + m.specificity - 1.0 == 1.0

    def test_five_point_case_matches_exhaustive(self):
        p = preds_from([0.9, 0.8, 0.7, 0.6, 0.5], [1, 1, 0, 1, 0])
        cut = youden_threshold(p)
        oracle_cut, oracle_j = exhaustive_youden(p)
        assert cut == oracle_cut
        m = metrics(confusion_at(p, cut))
        assert m.sensitivity + m.specificity - 1.0 == pytest.approx(oracle_j)

    def test_rank_statistic_invariance(self):
        rng = np.random.default_rng(3)
        p = random_preds(rng, 60)
        c1 = confusion_at(p, youden_threshold(p))
        cubed = [Prediction(q.trace_id, q.score ** 3, q.label, q.days_to_delivery) for q in p]
        c2 = confusion_at(cubed, youden_threshold(cubed))
        assert (c1.tp, c1.fp, c1.tn, c1.fn) == (c2.tp, c2.fp, c2.tn, c2.fn)

    def test_matches_exhaustive_oracle_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = random_preds(rng, int(rng.integers(2, 200)))
            cut = youden_threshold(p)
            oracle_cut, oracle_j = exhaustive_youden(p)
            assert cut == oracle_cut
            m = metrics(confusion_at(p, cut))
            assert m.sensitivity + m.specificity - 1.0 == pytest.approx(oracle_j, abs=1e-12)


class TestTargetThreshold:
    def test_degenerate_targets(self):
        p = preds_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        t_spec = target_threshold(p, "high_specificity", target=0.0)
        assert t_spec is not None
        t_sens = target_threshold(p, "high_sensitivity", target=0.0)
        assert t_sens is not None
        assert metrics(confusion_at(p, t_sens)).sensitivity >= 0.0

    def test_separable_target_met_with_perfect_complement(self):
        p = preds_from([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        t = target_threshold(p, "high_sensitivity", target=0.9)
        m = metrics(confusion_at(p, t))
        assert m.sensitivity >= 0.9 and m.specificity == 1.0
        t2 = target_threshold(p, "high_specificity", target=0.9)
        m2 = metrics(confusion_at(p, t2))
        assert m2.specificity >= 0.9 and m2.sensitivity == 1.0

    def test_matches_constrained_search_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p = random_preds(rng, 50)
            t = target_threshold(p, "high_sensitivity", target=0.9)
            cuts = sorted({q.score for q in p})
            feasible = [c for c in cuts
                        if metrics(confusion_at(p, c)).sensitivity >= 0.9]
            assert t == (max(feasible) if feasible else None)
            t2 = target_threshold(p, "high_specificity", target=0.9)
            if t2 is not None:
                m2 = metrics(confusion_at(p, t2))
                assert m2.specificity >= 0.9
                # no smaller candidate cut satisfies the constraint
                for c in cuts:
                    if c < t2:
                        assert metrics(confusion_at(p, c)).specificity < 0.9

    def test_unattainable_returns_none(self):
        p = preds_from([0.5, 0.5], [1, 0])  # one tie; sens and spec move together
        assert target_threshold(p, "high_sensitivity", target=1.5) is None

    def test_unknown_kind(self):
        with pytest.raises(EvalError):
            target_threshold(preds_from([0.5, 0.6], [0, 1]), "balanced")

    def test_high_specificity_falls_back_above_the_top_score(self):
        # a negative holds the top score, so no cut reaches specificity 1
        p = preds_from([0.9, 0.8, 0.2], [0, 1, 0])
        t = target_threshold(p, "high_specificity", target=1.0)
        assert t == pytest.approx(0.95)
        m = metrics(confusion_at(p, t))
        assert m.specificity == 1.0 and m.sensitivity == 0.0

    def test_high_specificity_none_when_top_score_is_one(self):
        p = preds_from([1.0, 0.5], [0, 1])
        assert target_threshold(p, "high_specificity", target=1.0) is None


class TestAnalyze:
    def test_four_thresholds_present(self):
        rng = np.random.default_rng(2)
        a = analyze(random_preds(rng, 100))
        assert set(a.thresholds) == {"default", "youden", "high_sensitivity", "high_specificity"}
        assert a.thresholds["default"].threshold == 0.5
        for rep in a.thresholds.values():
            if rep.attained:
                assert rep.metrics is not None and rep.confusion is not None

    def test_auc_consistent(self):
        rng = np.random.default_rng(4)
        p = random_preds(rng, 150)
        assert abs(analyze(p).auc - auc(p)) <= 1e-12


class TestDtdFiltering:
    def make_cohort_preds(self):
        rng = np.random.default_rng(6)
        n = 80
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        labels[:5] = 1
        labels[5:10] = 0
        dtds = rng.integers(0, 8, n)
        return preds_from(scores, labels, dtds)

    def test_max_days_seven_keeps_all_when_within(self):
        p = self.make_cohort_preds()
        assert all(q.days_to_delivery <= 7 for q in p)
        full = analyze(p)
        filtered = evaluate_by_dtd(p, 7)
        assert filtered.auc == full.auc

    def test_empty_subset_error(self):
        p = preds_from([0.2, 0.9], [0, 1], [0.0, 5.0])
        with pytest.raises(EvalError):
            evaluate_by_dtd(p, 0)

    def test_nested_subsets(self):
        p = self.make_cohort_preds()
        ids2 = {q.trace_id for q in filter_by_dtd(p, 2) if q.label == 1}
        ids7 = {q.trace_id for q in filter_by_dtd(p, 7) if q.label == 1}
        assert ids2 <= ids7

    @pytest.mark.parametrize("dtd", [-4.0, float("nan"), float("inf")])
    def test_bad_days_to_delivery_rejected(self, dtd):
        # accepted, a NaN-dated positive would silently leave every subset
        # and a negative one would count as near delivery
        with pytest.raises(EvalError, match="days_to_delivery"):
            Prediction("t0", 0.9, 1, dtd)

    def test_counts_match_direct_scan(self):
        p = self.make_cohort_preds()
        for d in range(1, 8):
            kept = filter_by_dtd(p, d)
            expect = sum(1 for q in p if q.label == 0 or q.days_to_delivery <= d)
            assert len(kept) == expect


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        p = random_preds(rng, 50)
        path = tmp_path / "preds.csv"
        write_predictions(p, path)
        again = read_predictions(path)
        assert again == p

    def test_bad_header(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(EvalError, match="header"):
            read_predictions(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("trace_id,score,label,days_to_delivery\nx,0.5,1,2.0\ny,oops,0,1\n")
        with pytest.raises(EvalError, match=":3"):
            read_predictions(path)

    @pytest.mark.parametrize("dtd", ["-4.0", "nan"])
    def test_bad_days_to_delivery_reports_line(self, tmp_path, dtd):
        path = tmp_path / "preds.csv"
        path.write_text(f"trace_id,score,label,days_to_delivery\nx,0.5,1,2.0\ny,0.9,1,{dtd}\n")
        with pytest.raises(EvalError, match=":3: days_to_delivery"):
            read_predictions(path)

    def test_report_files(self, tmp_path):
        rng = np.random.default_rng(15)
        a = analyze(random_preds(rng, 60))
        ev.write_report(a, tmp_path / "report.json")
        ev.write_roc_points(a, tmp_path / "roc.csv")
        import json

        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["auc"] == a.auc
        assert set(payload["thresholds"]) == set(a.thresholds)
        lines = (tmp_path / "roc.csv").read_text().strip().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == len(a.points) + 1
