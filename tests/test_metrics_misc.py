"""Tests for counting, classification and latency metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError
from repro.metrics.classify import BinaryMetrics, binary_metrics, confusion_counts
from repro.metrics.counting import CountSummary, count_detected_objects, count_summary
from repro.metrics.latency import summarize_latencies


def _gt(boxes, labels, image_id="img"):
    return GroundTruth(image_id, np.asarray(boxes, float), np.asarray(labels))


def _dets(boxes, scores, labels, image_id="img"):
    return Detections(image_id, np.asarray(boxes, float), np.asarray(scores, float), np.asarray(labels), detector="t")


class TestCounting:
    def test_counts_true_positives_only(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0.9, 0.8], [0, 0])]
        assert count_detected_objects(dets, gts) == 1

    def test_summary_fraction(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.9, 0.9]], [0, 1])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        summary = count_summary(dets, gts)
        assert summary.detected == 1 and summary.total_ground_truth == 2
        assert summary.detected_fraction == pytest.approx(0.5)

    def test_ratio_to(self):
        ours = CountSummary(detected=94, total_ground_truth=120)
        big = CountSummary(detected=100, total_ground_truth=120)
        assert ours.ratio_to(big) == pytest.approx(94.0)

    def test_ratio_to_zero_reference(self):
        assert CountSummary(5, 10).ratio_to(CountSummary(0, 10)) == 0.0

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            count_detected_objects([Detections.empty("a")], [])

    @pytest.mark.parametrize("count", [count_detected_objects, count_summary])
    @pytest.mark.parametrize("iou_threshold", [0.0, -0.1, 1.0000001, 2.0, float("nan")])
    def test_invalid_iou_threshold_rejected_on_empty_truth(self, count, iou_threshold):
        # No image has both detections and truth, so no matching would run.
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        gts = [_gt(np.zeros((0, 4)), np.zeros(0, dtype=int))]
        with pytest.raises(ConfigurationError, match="iou_threshold"):
            count(dets, gts, iou_threshold=iou_threshold)

    @pytest.mark.parametrize("count", [count_detected_objects, count_summary])
    @pytest.mark.parametrize("score_threshold", [-0.1, 1.5, float("nan"), float("inf"), float("-inf")])
    def test_invalid_score_threshold_rejected(self, count, score_threshold):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        with pytest.raises(ConfigurationError, match="score_threshold"):
            count(dets, gts, score_threshold=score_threshold)

    def test_threshold_bounds_accepted(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        assert count_detected_objects(dets, gts, score_threshold=0.0, iou_threshold=1.0) == 1
        assert count_detected_objects(dets, gts, score_threshold=1.0) == 0


class TestBinaryMetrics:
    def test_known_confusion(self):
        predicted = [True, True, False, False, True]
        actual = [True, False, False, True, True]
        assert confusion_counts(predicted, actual) == (2, 1, 1, 1)

    def test_perfect_classifier(self):
        metrics = binary_metrics([True, False], [True, False])
        assert metrics.accuracy == 1.0 and metrics.f1 == 1.0

    def test_all_negative_prediction(self):
        metrics = binary_metrics([False, False], [True, False])
        assert metrics.precision == 0.0 and metrics.recall == 0.0 and metrics.f1 == 0.0

    def test_as_row_percentages(self):
        row = binary_metrics([True, True], [True, False]).as_row()
        assert row["accuracy"] == pytest.approx(50.0)
        assert row["precision"] == pytest.approx(50.0)
        assert row["recall"] == pytest.approx(100.0)

    def test_empty_sample(self):
        metrics = BinaryMetrics(0, 0, 0, 0)
        assert metrics.accuracy == 0.0 and metrics.total == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            binary_metrics([True], [True, False])

    @settings(max_examples=50)
    @given(
        n=st.integers(1, 60),
        seed=st.integers(0, 10_000),
    )
    def test_f1_between_precision_and_recall_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.uniform(size=n) < 0.5
        actual = rng.uniform(size=n) < 0.5
        metrics = binary_metrics(predicted, actual)
        assert 0.0 <= metrics.f1 <= 1.0
        if metrics.precision > 0 and metrics.recall > 0:
            assert metrics.f1 <= max(metrics.precision, metrics.recall) + 1e-12
            assert metrics.f1 >= min(metrics.precision, metrics.recall) - 1e-12


class TestLatencySummary:
    def test_total_and_mean(self):
        summary = summarize_latencies([1.0, 2.0, 3.0])
        assert summary.total == pytest.approx(6.0)
        assert summary.mean == pytest.approx(2.0)
        assert summary.count == 3

    def test_percentiles_ordered(self):
        summary = summarize_latencies(np.linspace(0.01, 1.0, 100))
        assert summary.p50 <= summary.p90 <= summary.p99

    def test_empty(self):
        summary = summarize_latencies([])
        assert summary.total == 0.0 and summary.count == 0

    def test_saving_and_speedup(self):
        ours = summarize_latencies([1.0] * 10)
        cloud = summarize_latencies([2.0] * 10)
        assert ours.saving_over(cloud) == pytest.approx(0.5)
        assert ours.speedup_over(cloud) == pytest.approx(2.0)
