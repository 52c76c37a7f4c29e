"""Tests of the benchmark's own arithmetic: span self time, percentiles,
host-speed scaling."""

import random

import numpy as np
import pytest

import benchstats
import spans


def rows(*spans_):
    """(id, start, end, parent) tuples padded to full records."""
    return [(sid, start, end, parent, 0, -1)
            for sid, start, end, parent in spans_]


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert spans.self_times(rows((0, 1.0, 4.0, -1))) == {0: 3.0}

    def test_nested_children_subtract_once(self):
        # 0 [0,10] > 1 [1,6] > 2 [2,5]: the grandchild only reduces 1.
        got = spans.self_times(rows(
            (0, 0.0, 10.0, -1), (1, 1.0, 6.0, 0), (2, 2.0, 5.0, 1)))
        assert got == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0})

    def test_overlapping_children_are_merged(self):
        # Children [1,3] and [2,5] overlap: together they cover [1,5].
        got = spans.self_times(rows(
            (0, 0.0, 10.0, -1), (1, 1.0, 3.0, 0), (2, 2.0, 5.0, 0)))
        assert got[0] == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        got = spans.self_times(rows((0, 0.0, 10.0, -1), (1, 8.0, 12.0, 0)))
        assert got[0] == pytest.approx(8.0)

    def test_child_of_unrecorded_parent_subtracts_from_nothing(self):
        got = spans.self_times(rows((0, 0.0, 1.0, 7)))
        assert got == {0: 1.0}

    def test_vectorised_form_matches_reference(self):
        rng = random.Random(3)
        records, open_ = [], [(-1, 0.0, 1000.0)]
        for sid in range(400):
            parent, lo, hi = rng.choice(open_)
            start = rng.uniform(lo, hi)
            end = rng.uniform(start, hi + (5.0 if sid % 7 == 0 else 0.0))
            records.append((sid, start, end, parent, 0, -1))
            open_.append((sid, start, end))
        rng.shuffle(records)
        exact = spans.self_times(records)
        fast = spans.self_times_fast(np.array(records, dtype=np.float64))
        for row, value in zip(records, fast):
            assert value == pytest.approx(exact[row[0]], abs=1e-9)

    def test_recorder_attributes_self_time_to_layers(self):
        rec = spans.SpanRecorder()

        def inner():
            return 42

        outer = rec.wrap(lambda: rec.wrap(inner, "inner", "cache")(),
                         "outer", "dma")
        assert outer() == 42
        summary = spans.summarize(rec)
        totals = spans.layer_totals(summary["names"])
        assert totals["cache"]["calls"] == 1 and totals["dma"]["calls"] == 1
        incl = summary["names"]["outer"]["incl_s"]
        assert (totals["cache"]["self_s"] + totals["dma"]["self_s"]
                == pytest.approx(incl))
        assert len(summary["roots"]) == 1


class TestPercentileRule:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert benchstats.rank(50, 100) == 50
        assert benchstats.percentile(samples, 50) == 50
        assert benchstats.percentile(samples, 90) == 90

    def test_p99_needs_ten_samples_beyond_it(self):
        assert benchstats.beyond(99, 1000) == 10
        assert benchstats.beyond(99, 999) == 9
        benchstats.percentile(list(range(1000)), 99)
        with pytest.raises(ValueError):
            benchstats.percentile(list(range(999)), 99)

    def test_highest_supported_percentile(self):
        assert benchstats.highest_percentile(list(range(1000)))[0] == 99.0
        assert benchstats.highest_percentile(list(range(200)))[0] == 95.0
        assert benchstats.highest_percentile(list(range(20)))[0] == 50.0
        assert benchstats.highest_percentile(list(range(19))) is None


class TestHostSpeedScaling:
    def test_stretch_is_scaled_by_the_mean_calibration(self):
        import sweep_pass

        times = iter([2e-3, 1e-3])
        stretch = sweep_pass.Stretches(lambda: next(times), 1.5e-3)
        stretch.begin()
        wall_s, scale = stretch.end()
        assert wall_s >= 0.0
        assert scale == pytest.approx(1.0)
        assert stretch.calibrations == [2e-3, 1e-3]
        assert len(stretch.windows) == 1

    def test_io_calibration_reads_a_fixed_file(self, tmp_path):
        path = str(tmp_path / "calibration.json")
        benchstats.write_io_calibration(path)
        first = open(path, encoding="utf-8").read()
        benchstats.write_io_calibration(path)
        assert open(path, encoding="utf-8").read() == first
        assert benchstats.calibrate_io(path) > 0.0
