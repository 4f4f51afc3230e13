import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctgformer.errors import SignalError
from ctgformer.signal import (
    FHR_RANGE,
    MISSING,
    RawTrace,
    TOCO_RANGE,
    Trace,
    WINDOW_LEN,
    preprocess,
    trace_to_raw,
    window_count,
)


def make_raw(n=WINDOW_LEN, fhr_value=140.0, toco_value=20.0, label=0, dtd=3.0, trace_id="t0"):
    return RawTrace(trace_id=trace_id, fhr=np.full(n, fhr_value), toco=np.full(n, toco_value),
                    label=label, days_to_delivery=dtd)


class TestRawTraceValidation:
    def test_length_mismatch(self):
        with pytest.raises(SignalError):
            RawTrace("x", np.ones(5) * 100, np.ones(4) * 10, 0, 1.0)

    def test_non_sentinel_negative_rejected(self):
        with pytest.raises(SignalError, match="missing sentinel"):
            RawTrace("x", np.array([100.0, -5.0]), np.array([10.0, 10.0]), 0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(SignalError):
            RawTrace("x", np.array([100.0, np.nan]), np.array([10.0, 10.0]), 0, 1.0)

    def test_bad_label(self):
        with pytest.raises(SignalError):
            make_raw(label=2)

    @pytest.mark.parametrize("dtd", [-3.0, float("nan"), float("inf")])
    def test_bad_days_to_delivery(self, dtd):
        with pytest.raises(SignalError, match="days_to_delivery"):
            make_raw(dtd=dtd)


def scaled_window(fhr, toco):
    """The single window preprocess makes of a recording of at most 960 samples."""
    (window,) = preprocess(RawTrace("x", np.asarray(fhr, dtype=float),
                                    np.asarray(toco, dtype=float), 0, 1.0))
    return window


class TestClipRanges:
    def test_fhr_upper_clamp(self):
        assert np.all(preprocess(make_raw(4, fhr_value=300.0))[0].fhr[:4] == 1.0)  # 250 bpm

    def test_missing_preserved(self):
        t = scaled_window([MISSING, 40.0, 150.0, 150.0], [MISSING, 120.0, 50.0, 50.0])
        assert not t.fhr_mask[0] and not t.toco_mask[0]
        assert t.fhr[0] == 0.0 and t.toco[0] == 0.0
        assert t.fhr[1] == 0.0  # below range clamps up to 50 bpm
        assert t.toco[1] == 1.0  # above range clamps down to 100


class TestScaleUnit:
    def test_midpoint(self):
        assert np.allclose(preprocess(make_raw(4, fhr_value=150.0))[0].fhr[:4], 0.5)

    def test_endpoints(self):
        t = scaled_window([50.0, 250.0], [0.0, 100.0])
        assert np.array_equal(t.fhr[:2], [0.0, 1.0])
        assert np.array_equal(t.toco[:2], [0.0, 1.0])

    def test_toco_hand_value(self):
        assert np.allclose(preprocess(make_raw(4, toco_value=37.0))[0].toco[:4], 0.37)

    def test_missing_stays_missing(self):
        t = scaled_window([MISSING, 150.0, 150.0, 150.0], [MISSING, 50.0, 50.0, 50.0])
        assert list(t.fhr_mask[:2]) == [False, True] and list(t.toco_mask[:2]) == [False, True]
        assert t.fhr[1] == 0.5 and t.toco[1] == 0.5


class TestWindowPad:
    @pytest.mark.parametrize("n", [1, 959, 960, 961, 1920, 2400])
    def test_window_count_is_what_preprocess_cuts(self, n):
        assert window_count(n) == len(range(0, n, WINDOW_LEN))
        assert len(preprocess(make_raw(n))) == window_count(n)   # nothing missing

    def test_exact_length_single_window(self):
        traces = preprocess(make_raw(WINDOW_LEN))
        assert len(traces) == 1
        assert traces[0].window_index == 0
        assert traces[0].trace_id == "t0"  # single window keeps plain id
        assert np.all(traces[0].fhr_mask)

    def test_2400_samples_three_windows(self):
        traces = preprocess(make_raw(2400))
        assert [t.window_index for t in traces] == [0, 1, 2]
        assert [t.trace_id for t in traces] == ["t0:w0", "t0:w1", "t0:w2"]
        last = traces[2]
        assert last.fhr_mask[:480].all() and not last.fhr_mask[480:].any()
        assert np.all(last.fhr[480:] == 0.0)

    def test_thirty_percent_rule_drops_window(self):
        fhr = np.full(WINDOW_LEN, 140.0)
        fhr[:400] = MISSING  # 400/960 = 41.7% missing
        raw = RawTrace("x", fhr, np.full(WINDOW_LEN, 20.0), 0, 1.0)
        assert preprocess(raw) == []

    def test_thirty_percent_rule_boundary_kept(self):
        fhr = np.full(WINDOW_LEN, 140.0)
        fhr[:288] = MISSING  # exactly 30% missing is kept (> threshold drops)
        raw = RawTrace("x", fhr, np.full(WINDOW_LEN, 20.0), 0, 1.0)
        assert len(preprocess(raw)) == 1

    def test_padding_not_counted_as_missing(self):
        # 480 fully-observed samples pad to 960 and survive the 30% rule
        traces = preprocess(make_raw(480))
        assert len(traces) == 1
        assert traces[0].fhr_mask.sum() == 480


class TestBuildMask:
    def test_all_observed(self):
        t = scaled_window(np.linspace(50, 250, WINDOW_LEN), np.linspace(0, 100, WINDOW_LEN))
        assert t.fhr_mask.all() and t.toco_mask.all()

    def test_missing_position(self):
        fhr = np.full(10, 150.0)
        fhr[5] = MISSING
        t = scaled_window(fhr, np.full(10, 50.0))
        assert not t.fhr_mask[5] and t.fhr[5] == 0.0
        assert t.fhr_mask[:5].all() and t.toco_mask[:10].all()

    def test_padding_extent(self):
        t = scaled_window(np.full(480, 100.0), np.full(480, 25.0))
        for vals, mask in ((t.fhr, t.fhr_mask), (t.toco, t.toco_mask)):
            assert mask[:480].all() and not mask[480:].any()
            assert np.all(vals[:480] == 0.25) and np.all(vals[480:] == 0.0)


class TestPipelineProperties:
    def test_idempotence_integer_bpm_sweep(self):
        # every integer instrument value round-trips exactly
        fhr = np.arange(50.0, 250.0 + 1)
        toco = np.linspace(0, 100, len(fhr)).round()
        raw = RawTrace("sweep", np.resize(fhr, WINDOW_LEN), np.resize(toco, WINDOW_LEN), 0, 2.0)
        first = preprocess(raw)[0]
        second = preprocess(trace_to_raw(first))[0]
        assert np.array_equal(first.fhr, second.fhr)
        assert np.array_equal(first.toco, second.toco)
        assert np.array_equal(first.fhr_mask, second.fhr_mask)
        assert np.array_equal(first.toco_mask, second.toco_mask)

    def test_idempotence_continuous_values(self):
        rng = np.random.default_rng(7)
        fhr = rng.uniform(50, 250, WINDOW_LEN)
        toco = rng.uniform(0, 100, WINDOW_LEN)
        fhr[rng.random(WINDOW_LEN) < 0.05] = MISSING
        raw = RawTrace("cont", fhr, toco, 1, 4.0)
        first = preprocess(raw)[0]
        second = preprocess(trace_to_raw(first))[0]
        assert np.array_equal(first.fhr, second.fhr)
        assert np.array_equal(first.toco, second.toco)
        assert np.array_equal(first.fhr_mask, second.fhr_mask)

    def test_output_ranges_and_mask_zeroing(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(100, 3000))
            fhr = rng.uniform(30, 300, n)  # deliberately out of range, gets clipped
            toco = rng.uniform(0, 130, n)
            fhr[rng.random(n) < 0.1] = MISSING
            toco[rng.random(n) < 0.1] = MISSING
            raw = RawTrace("r", fhr, toco, 0, 1.0)
            for t in preprocess(raw):
                for vals, mask in ((t.fhr, t.fhr_mask), (t.toco, t.toco_mask)):
                    assert vals.min() >= 0.0 and vals.max() <= 1.0
                    assert np.all(vals[~mask] == 0.0)

    def test_window_count_and_sample_conservation(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 4000))
            fhr = rng.uniform(60, 240, n)
            miss = rng.random(n) < rng.uniform(0, 0.5)
            fhr[miss] = MISSING
            raw = RawTrace("c", fhr, rng.uniform(0, 100, n), 0, 1.0)
            kept = preprocess(raw)
            n_windows = -(-n // WINDOW_LEN)  # ceil
            # count how many windows the 30% rule drops, by direct scan
            dropped = 0
            for j in range(n_windows):
                seg = raw.fhr[j * WINDOW_LEN:(j + 1) * WINDOW_LEN]
                if np.mean(seg == MISSING) > 0.30:
                    dropped += 1
            assert len(kept) == n_windows - dropped
            # observed samples conserved over the kept + dropped partition
            observed_in_kept = sum(int(t.fhr_mask.sum()) for t in kept)
            observed_in_dropped = 0
            kept_idx = {t.window_index for t in kept}
            for j in range(n_windows):
                if j not in kept_idx:
                    seg = raw.fhr[j * WINDOW_LEN:(j + 1) * WINDOW_LEN]
                    observed_in_dropped += int(np.sum(seg != MISSING))
            assert observed_in_kept + observed_in_dropped == int(np.sum(raw.fhr != MISSING))

    def test_padded_tail_window_does_not_come_back(self):
        # 500 samples in the tail, 460 of padding: the round trip reads the
        # padding as missing heart rate and drops the window
        tail = preprocess(make_raw(1460))[1]
        assert tail.trace_id == "t0:w1" and tail.fhr_mask.sum() == 500
        assert preprocess(trace_to_raw(tail)) == []

    def test_round_trip_resets_window_index(self):
        rng = np.random.default_rng(3)
        n = 2 * WINDOW_LEN
        fhr = rng.uniform(40, 260, n)  # continuous values, some clipped
        fhr[rng.random(n) < 0.1] = MISSING
        second = preprocess(RawTrace("x", fhr, rng.uniform(0, 100, n), 1, 2.0))[1]
        (once,) = preprocess(trace_to_raw(second))
        assert (once.trace_id, once.window_index) == ("x:w1", 0)
        assert np.array_equal(once.fhr_mask, second.fhr_mask)
        assert np.array_equal(once.toco_mask, second.toco_mask)
        for back, orig in ((once.fhr, second.fhr), (once.toco, second.toco)):
            assert np.all(np.abs(back - orig) <= np.spacing(orig))  # within 1 ulp
        (twice,) = preprocess(trace_to_raw(once))
        assert np.array_equal(twice.fhr, once.fhr) and np.array_equal(twice.toco, once.toco)


def clip_scaled(v, lo, hi):
    return (min(max(v, lo), hi) - lo) / (hi - lo)


@st.composite
def raw_recordings(draw):
    """Lengths 1-4000, biased toward 960k + 1..15, with out-of-range values,
    integer or continuous samples, and bursts of missing samples."""
    n = draw(st.one_of(st.integers(1, 4000),
                       st.builds(lambda k, r: WINDOW_LEN * k + r,
                                 st.integers(0, 4), st.integers(1, 15))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fhr, toco = rng.uniform(0, 400, n), rng.uniform(0, 150, n)
    if draw(st.booleans()):
        fhr, toco = fhr.round(), toco.round()
    for arr in (fhr, toco):
        for start, length in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                     st.integers(1, 600)), max_size=4)):
            arr[start:start + length] = MISSING
    return RawTrace("p", fhr, toco, 1, 3.0)


@settings(max_examples=150, deadline=None)
@given(raw_recordings())
def test_preprocess_matches_sample_by_sample_oracle(raw):
    n = len(raw.fhr)
    n_windows = -(-n // WINDOW_LEN)
    kept = []
    for j in range(n_windows):
        extent = slice(j * WINDOW_LEN, min((j + 1) * WINDOW_LEN, n))
        if np.mean(raw.fhr[extent] == MISSING) <= 0.30:
            kept.append((j, extent))
    windows = preprocess(raw)
    assert [(t.trace_id, t.window_index) for t in windows] == \
        [("p" if n_windows == 1 else f"p:w{j}", j) for j, _ in kept]
    for t, (_, extent) in zip(windows, kept):
        for vals, mask, raw_vals, (lo, hi) in ((t.fhr, t.fhr_mask, raw.fhr[extent], FHR_RANGE),
                                                (t.toco, t.toco_mask, raw.toco[extent], TOCO_RANGE)):
            observed = raw_vals != MISSING
            assert np.array_equal(mask[:len(raw_vals)], observed) and not mask[len(raw_vals):].any()
            expected = [clip_scaled(v, lo, hi) if o else 0.0 for v, o in zip(raw_vals, observed)]
            assert vals[:len(raw_vals)].tolist() == expected
            assert not vals[len(raw_vals):].any()


class TestTraceValidation:
    def test_masked_positions_must_be_zero(self):
        fhr = np.full(WINDOW_LEN, 0.5)
        mask = np.ones(WINDOW_LEN, dtype=bool)
        mask[0] = False  # value left at 0.5 -> invalid
        with pytest.raises(SignalError, match="masked"):
            Trace("t", fhr, np.zeros(WINDOW_LEN), mask, np.ones(WINDOW_LEN, dtype=bool), 0, 1.0)

    @pytest.mark.parametrize("channel", ["fhr", "toco"])
    def test_nan_observed_sample_rejected(self, channel):
        # NaN fails every comparison, so a plain range check lets it through
        values = {"fhr": np.full(WINDOW_LEN, 0.5), "toco": np.full(WINDOW_LEN, 0.5)}
        values[channel][7] = np.nan
        ones = np.ones(WINDOW_LEN, dtype=bool)
        with pytest.raises(SignalError, match=f"observed {channel} values must be finite"):
            Trace("t", values["fhr"], values["toco"], ones, ones, 0, 1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(SignalError):
            Trace("t", np.zeros(100), np.zeros(100),
                  np.ones(100, dtype=bool), np.ones(100, dtype=bool), 0, 1.0)

    @pytest.mark.parametrize("dtd", [-3.0, float("nan"), float("inf")])
    def test_bad_days_to_delivery(self, dtd):
        # the same rule as RawTrace, so a window never carries a bad date
        ones = np.ones(WINDOW_LEN, dtype=bool)
        with pytest.raises(SignalError, match="days_to_delivery"):
            Trace("t", np.zeros(WINDOW_LEN), np.zeros(WINDOW_LEN), ones, ones, 1, dtd)
