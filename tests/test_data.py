import re
from dataclasses import replace

import numpy as np
import pytest

from ctgformer.errors import DataError
from ctgformer.data import (
    Cohort,
    GenSpec,
    filter_dtd,
    generate_cohort,
    read_cohort,
    read_raw_traces,
    short_term_variability,
    split,
    stack_traces,
    write_cohort,
    write_raw_traces,
)
from ctgformer.signal import MISSING, RawTrace, WINDOW_LEN, preprocess


class TestGenerator:
    def test_deterministic(self):
        a = generate_cohort(GenSpec(n_per_class=20, seed=3))
        b = generate_cohort(GenSpec(n_per_class=20, seed=3))
        assert a.digest() == b.digest()

    def test_seed_changes_output(self):
        a = generate_cohort(GenSpec(n_per_class=10, seed=3))
        b = generate_cohort(GenSpec(n_per_class=10, seed=4))
        assert a.digest() != b.digest()

    def test_balanced(self):
        c = generate_cohort(GenSpec(n_per_class=100, seed=0))
        assert len(c.traces) == 200
        assert c.class_counts == (100, 100)

    def test_zero_per_class_rejected(self):
        with pytest.raises(DataError):
            GenSpec(n_per_class=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["contraction_rate", "missing_rate"])
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(DataError, match=f"{name} must be finite"):
            GenSpec(**{name: value})

    @pytest.mark.parametrize("days", [(7, 0), (-3, 1), (0.5, 2), (1, 2, 3), 7])
    def test_bad_dtd_days_rejected(self, days):
        with pytest.raises(DataError, match="dtd_days"):
            GenSpec(dtd_days=days)

    def test_single_day_band(self):
        c = generate_cohort(GenSpec(n_per_class=5, seed=1, dtd_days=(4, 4)))
        assert {t.days_to_delivery for t in c.traces} == {4.0}

    def test_class_separability_in_short_term_variability(self):
        spec = GenSpec(n_per_class=500, seed=11)
        c = generate_cohort(spec)
        npo = np.mean([short_term_variability(t.fhr, t.fhr_mask)
                       for t in c.traces if t.label == 0])
        apo = np.mean([short_term_variability(t.fhr, t.fhr_mask)
                       for t in c.traces if t.label == 1])
        assert npo > apo + spec.expected_stv_margin()

    def test_dtd_drift_makes_near_delivery_cases_subtler(self):
        c = generate_cohort(GenSpec(n_per_class=400, seed=5))
        near = [short_term_variability(t.fhr, t.fhr_mask)
                for t in c.traces if t.label == 1 and t.days_to_delivery <= 2]
        far = [short_term_variability(t.fhr, t.fhr_mask)
               for t in c.traces if t.label == 1 and t.days_to_delivery >= 3]
        assert np.mean(near) > np.mean(far)  # weaker reduction near delivery

    def test_traces_survive_preprocessing_unchanged(self):
        # The pipeline is a projection: generator values land within 1 ulp on
        # the first pass through instrument units and are bit-stable after it.
        from ctgformer.signal import trace_to_raw

        c = generate_cohort(GenSpec(n_per_class=25, seed=9))
        for t in c.traces:
            once = preprocess(trace_to_raw(t))
            assert len(once) == 1
            assert np.allclose(once[0].fhr, t.fhr, rtol=0, atol=1e-15)
            assert np.array_equal(once[0].fhr_mask, t.fhr_mask)
            twice = preprocess(trace_to_raw(once[0]))
            assert np.array_equal(twice[0].fhr, once[0].fhr)
            assert np.array_equal(twice[0].toco, once[0].toco)
            assert np.array_equal(twice[0].fhr_mask, once[0].fhr_mask)

    def test_dtd_in_range(self):
        c = generate_cohort(GenSpec(n_per_class=50, seed=2))
        for t in c.traces:
            assert 0 <= t.days_to_delivery <= 7
            assert float(t.days_to_delivery).is_integer()


class TestCohortIO:
    def test_round_trip(self, tmp_path):
        c = generate_cohort(GenSpec(n_per_class=10, seed=7))
        path = tmp_path / "cohort.csv"
        write_cohort(c, path)
        again = read_cohort(path)
        assert again.digest() == c.digest()
        assert [t.window_index for t in again.traces] == [t.window_index for t in c.traces]

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("#nope\n")
        with pytest.raises(DataError, match="header"):
            read_cohort(path)

    def test_short_line_reports_lineno(self, tmp_path):
        c = generate_cohort(GenSpec(n_per_class=2, seed=1))
        path = tmp_path / "c.csv"
        write_cohort(c, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join(fields[:-1])  # drop one toco value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":3"):
            read_cohort(path)

    def test_non_numeric_field(self, tmp_path):
        c = generate_cohort(GenSpec(n_per_class=2, seed=1))
        path = tmp_path / "c.csv"
        write_cohort(c, path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[10] = "abc"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_cohort(path)

    def test_nan_sample_reports_lineno(self, tmp_path):
        c = generate_cohort(GenSpec(n_per_class=2, seed=1))
        path = tmp_path / "c.csv"
        write_cohort(c, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3 + 100] = "nan"   # an fhr sample
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"c\.csv:3: observed fhr values must be finite"):
            read_cohort(path)

    @pytest.mark.parametrize("dtd", ["-3.0", "nan", "inf"])
    def test_bad_days_to_delivery_reports_lineno(self, tmp_path, dtd):
        c = generate_cohort(GenSpec(n_per_class=2, seed=1))
        path = tmp_path / "c.csv"
        write_cohort(c, path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[2] = dtd
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"c\.csv:3: days_to_delivery"):
            read_cohort(path)

    @pytest.mark.parametrize("bad", ["a,b", " a", "a ", "a\nb", "a\rb", "a\t"])
    def test_writers_reject_ids_the_format_cannot_carry(self, tmp_path, bad):
        c = generate_cohort(GenSpec(n_per_class=2, seed=1))
        traces = [replace(c.traces[0], trace_id=bad)] + c.traces[1:]
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            write_cohort(Cohort(traces), tmp_path / "c.csv")
        raws = [RawTrace(bad, np.full(4, 140.0), np.full(4, 20.0), 0, 1.0)]
        with pytest.raises(DataError, match=re.escape(repr(bad))):
            write_raw_traces(raws, tmp_path / "r.csv")
        assert not (tmp_path / "c.csv").exists() and not (tmp_path / "r.csv").exists()

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        rows = []
        for tid, label, dtd, fv, tv in (("a", 0, 3.0, 0.25, 0.5),
                                        ("b", 1, 1.0, 0.75, 0.1),
                                        ("c", 1, 6.0, 0.5, 0.9)):
            fields = [tid, str(label), repr(dtd)]
            fields += [repr(fv)] * WINDOW_LEN + [repr(tv)] * WINDOW_LEN
            rows.append(",".join(fields))
        path.write_text("#ctg-cohort v1\n" + "\n".join(rows) + "\n")
        c = read_cohort(path)
        assert [t.trace_id for t in c.traces] == ["a", "b", "c"]
        assert [t.label for t in c.traces] == [0, 1, 1]
        assert [t.days_to_delivery for t in c.traces] == [3.0, 1.0, 6.0]
        assert np.all(c.traces[0].fhr == 0.25)

    def test_missing_round_trips_to_masked_zero(self, tmp_path):
        c = generate_cohort(GenSpec(n_per_class=5, seed=13, missing_rate=0.15))
        path = tmp_path / "c.csv"
        write_cohort(c, path)
        again = read_cohort(path)
        for t0, t1 in zip(c.traces, again.traces):
            assert np.array_equal(t0.fhr_mask, t1.fhr_mask)
            assert np.all(t1.fhr[~t1.fhr_mask] == 0.0)

    def test_raw_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        raws = []
        for i, n in enumerate((500, 960, 2301)):
            fhr = rng.uniform(60, 240, n)
            fhr[rng.random(n) < 0.05] = MISSING
            raws.append(RawTrace(f"r{i}", fhr, rng.uniform(0, 100, n), i % 2, float(i)))
        path = tmp_path / "raw.csv"
        write_raw_traces(raws, path)
        again = read_raw_traces(path)
        for a, b in zip(raws, again):
            assert a.trace_id == b.trace_id and a.label == b.label
            assert np.array_equal(a.fhr, b.fhr)
            assert np.array_equal(a.toco, b.toco)


class TestRawFileErrors:
    @staticmethod
    def write(tmp_path, *records, header="#ctg-raw v1"):
        path = tmp_path / "raw.csv"
        path.write_text("\n".join([header, "ok,0,1.0,2,140.0,141.0,20.0,21.0", *records]) + "\n")
        return path

    def test_wrong_header(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            read_raw_traces(self.write(tmp_path, header="#ctg-cohort v1"))

    def test_truncated_record(self, tmp_path):
        with pytest.raises(DataError, match=r"raw\.csv:3: truncated"):
            read_raw_traces(self.write(tmp_path, "x,0,1.0"))

    @pytest.mark.parametrize("record", ["x,0,1.0,2,140.0,141.0,20.0",
                                        "x,0,1.0,1,140.0,141.0,20.0,21.0"])
    def test_field_count_must_match_length(self, tmp_path, record):
        with pytest.raises(DataError, match=r"raw\.csv:3: expected \d+ fields"):
            read_raw_traces(self.write(tmp_path, record))

    @pytest.mark.parametrize("record", ["x,one,1.0,1,140.0,20.0",
                                        "x,0,1.0,two,140.0,20.0",
                                        "x,0,1.0,1,abc,20.0"])
    def test_non_numeric_field(self, tmp_path, record):
        with pytest.raises(DataError, match=r"raw\.csv:3: non-numeric"):
            read_raw_traces(self.write(tmp_path, record))

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        with pytest.raises(DataError, match=r"raw\.csv:4: truncated"):
            read_raw_traces(self.write(tmp_path, "", "x,0"))
        assert [r.trace_id for r in read_raw_traces(self.write(tmp_path, ""))] == ["ok"]


class TestSplit:
    def test_balanced_200_gives_160_40(self):
        c = generate_cohort(GenSpec(n_per_class=100, seed=21))
        train, val = split(c, fraction=0.8, seed=1)
        assert len(train.traces) == 160 and len(val.traces) == 40
        assert train.class_counts == (80, 80)
        assert val.class_counts == (20, 20)

    def test_deterministic(self):
        c = generate_cohort(GenSpec(n_per_class=30, seed=21))
        a = split(c, seed=5)
        b = split(c, seed=5)
        assert [t.trace_id for t in a[0].traces] == [t.trace_id for t in b[0].traces]

    def test_partition_property(self):
        c = generate_cohort(GenSpec(n_per_class=37, seed=8))
        train, val = split(c, fraction=0.8, seed=2)
        all_ids = {t.trace_id for t in c.traces}
        train_ids = {t.trace_id for t in train.traces}
        val_ids = {t.trace_id for t in val.traces}
        assert train_ids | val_ids == all_ids
        assert not train_ids & val_ids

    def test_stratification_within_one_trace(self):
        c = generate_cohort(GenSpec(n_per_class=33, seed=8))
        train, _ = split(c, fraction=0.7, seed=3)
        for label in (0, 1):
            n_train = sum(1 for t in train.traces if t.label == label)
            assert abs(n_train - 0.7 * 33) <= 1

    def test_tiny_class_rejected(self):
        c = generate_cohort(GenSpec(n_per_class=10, seed=1))
        solo = Cohort(traces=[t for t in c.traces if t.label == 0][:5]
                      + [t for t in c.traces if t.label == 1][:1])
        with pytest.raises(DataError):
            split(solo)


class TestFilterDtd:
    def test_full_band_is_identity(self):
        c = generate_cohort(GenSpec(n_per_class=40, seed=6))
        f = filter_dtd(c, (0, 7))
        assert [t.trace_id for t in f.traces] == [t.trace_id for t in c.traces]

    def test_bands_partition_cases(self):
        c = generate_cohort(GenSpec(n_per_class=60, seed=6))
        near = {t.trace_id for t in filter_dtd(c, (0, 2)).traces if t.label == 1}
        far = {t.trace_id for t in filter_dtd(c, (3, 7)).traces if t.label == 1}
        all_cases = {t.trace_id for t in c.traces if t.label == 1}
        assert near | far == all_cases
        assert not near & far

    def test_controls_kept(self):
        c = generate_cohort(GenSpec(n_per_class=30, seed=6))
        f = filter_dtd(c, (0, 1))
        assert sum(1 for t in f.traces if t.label == 0) == 30

    def test_counts_match_scan(self):
        c = generate_cohort(GenSpec(n_per_class=45, seed=16))
        for hi in range(0, 8):
            try:
                f = filter_dtd(c, (0, hi))
            except DataError:
                expect = 0
            else:
                expect = len(f.traces) - 45
            scan = sum(1 for t in c.traces if t.label == 1 and t.days_to_delivery <= hi)
            assert expect == scan or (expect == 0 and scan == 0)

    def test_scalar_band_rejected(self):
        c = generate_cohort(GenSpec(n_per_class=4, seed=3))
        with pytest.raises(DataError, match="pair"):
            filter_dtd(c, 2)

    def test_empty_band_error(self):
        c = generate_cohort(GenSpec(n_per_class=10, seed=3, dtd_days=(3, 7)))
        with pytest.raises(DataError, match="band"):
            filter_dtd(c, (0, 2))


def test_stack_traces_shapes():
    c = generate_cohort(GenSpec(n_per_class=4, seed=2))
    batch = stack_traces(c.traces)
    assert set(batch) == {"fhr", "fhr_mask", "toco", "toco_mask", "labels"}
    assert batch["fhr"].shape == (8, WINDOW_LEN)
    assert batch["labels"].tolist() == [0.0] * 4 + [1.0] * 4
    assert batch["fhr_mask"].dtype == bool


def test_duplicate_ids_rejected():
    c = generate_cohort(GenSpec(n_per_class=2, seed=2))
    with pytest.raises(DataError, match="unique"):
        Cohort(traces=c.traces + [c.traces[0]])
