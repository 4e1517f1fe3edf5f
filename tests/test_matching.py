"""Tests for detection-to-ground-truth matching (the VOC protocol)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import greedy_match_arrays, match_batch, match_detections, true_positive_count
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError


def _gt(boxes, labels):
    return GroundTruth("img", np.asarray(boxes, float), np.asarray(labels))


def _dets(boxes, scores, labels):
    return Detections("img", np.asarray(boxes, float), np.asarray(scores, float), np.asarray(labels), detector="t")


class TestMatchDetections:
    def test_perfect_match(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [3])
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [3])
        result = match_detections(dets, gt)
        assert result.num_tp == 1 and result.num_fp == 0 and result.num_missed == 0
        assert result.matched_gt.tolist() == [0]

    def test_wrong_class_not_matched(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [3])
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [4])
        result = match_detections(dets, gt)
        assert result.num_tp == 0 and result.num_missed == 1

    def test_class_agnostic_mode(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [3])
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [4])
        result = match_detections(dets, gt, class_aware=False)
        assert result.num_tp == 1

    def test_each_gt_claimed_once(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        dets = _dets([[0.1, 0.1, 0.4, 0.4], [0.12, 0.1, 0.42, 0.4]], [0.9, 0.8], [0, 0])
        result = match_detections(dets, gt)
        assert result.num_tp == 1 and result.num_fp == 1

    def test_higher_score_claims_first(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        dets = _dets([[0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4]], [0.7, 0.95], [0, 0])
        result = match_detections(dets, gt)
        # Detections sorted by score: the 0.95 one is rank 0 and claims the GT.
        assert result.is_tp.tolist() == [True, False]

    def test_iou_below_threshold_not_matched(self):
        gt = _gt([[0.0, 0.0, 0.2, 0.2]], [0])
        dets = _dets([[0.15, 0.15, 0.35, 0.35]], [0.9], [0])
        result = match_detections(dets, gt, iou_threshold=0.5)
        assert result.num_tp == 0

    def test_empty_detections(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        result = match_detections(Detections.empty("img"), gt)
        assert result.num_tp == 0 and result.num_missed == 1

    def test_empty_ground_truth(self):
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])
        gt = _gt(np.zeros((0, 4)), np.zeros(0, dtype=int))
        result = match_detections(dets, gt)
        assert result.num_fp == 1 and result.gt_detected.shape == (0,)

    def test_invalid_threshold_rejected(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        with pytest.raises(ConfigurationError):
            match_detections(Detections.empty("img"), gt, iou_threshold=0.0)


class TestTruePositiveCount:
    def test_score_threshold_applied(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0, 1])
        dets = _dets([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0.9, 0.4], [0, 1])
        # Only the 0.9 box passes the 0.5 serving threshold.
        assert true_positive_count(dets, gt) == 1
        assert true_positive_count(dets, gt, score_threshold=0.3) == 2

    def test_counts_bounded_by_gt(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        dets = _dets(
            [[0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4]],
            [0.9, 0.8, 0.7],
            [0, 0, 0],
        )
        assert true_positive_count(dets, gt) == 1


# --------------------------------------------------------------------- #
# the split-level matcher against the one-image oracle
# --------------------------------------------------------------------- #
#: Half-width boxes at quarter steps: neighbours overlap at IoU exactly 1/3,
#: so a box between two others ties them, and repeats tie outright.
_SHIFTED = tuple([x, 0.0, x + 0.5, 0.5] for x in (0.0, 0.25, 0.5))


@st.composite
def _box(draw):
    if draw(st.integers(0, 7)):
        return draw(st.sampled_from(_SHIFTED))
    x0, x1 = sorted(draw(st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.75))) for _ in range(2))
    y0, y1 = sorted(draw(st.sampled_from((0.0, 0.25, 0.5))) for _ in range(2))
    return [x0, y0, x1, y1]


@st.composite
def _image(draw):
    """One image: score-descending detections and annotations, either side
    possibly empty, with mixed labels and duplicate boxes."""
    gt = draw(st.lists(st.tuples(_box(), st.integers(0, 1)), max_size=5))
    dets = draw(st.lists(st.tuples(_box(), st.sampled_from((0.2, 0.5, 0.9)), st.integers(0, 1)), max_size=6))
    dets.sort(key=lambda det: -det[1])
    return dets, gt


def _batches(images):
    det_counts = [len(dets) for dets, _ in images]
    det_rows = [det for dets, _ in images for det in dets]
    detections = DetectionBatch(
        image_ids=tuple(f"img{index}" for index in range(len(images))),
        boxes=np.asarray([det[0] for det in det_rows], float).reshape(-1, 4),
        scores=np.asarray([det[1] for det in det_rows], float),
        labels=np.asarray([det[2] for det in det_rows], np.int64),
        offsets=np.concatenate([[0], np.cumsum(det_counts, dtype=np.int64)]),
    )
    gt_counts = [len(gt) for _, gt in images]
    gt_rows = [box for _, gt in images for box in gt]
    truth = GroundTruthBatch(
        image_ids=tuple(f"img{index}" for index in range(len(images))),
        boxes=np.asarray([box[0] for box in gt_rows], float).reshape(-1, 4),
        labels=np.asarray([box[1] for box in gt_rows], np.int64),
        offsets=np.concatenate([[0], np.cumsum(gt_counts, dtype=np.int64)]),
    )
    return detections, truth


def _oracle(detections, truth, records, iou_threshold):
    """Per-frame TP counts and per-row flags, image by image."""
    frame_tp, row_tp = [], []
    for frame, record in enumerate(records):
        lo, hi = detections.offsets[frame], detections.offsets[frame + 1]
        gt_lo, gt_hi = truth.offsets[record], truth.offsets[record + 1]
        result = greedy_match_arrays(
            detections.boxes[lo:hi],
            detections.labels[lo:hi],
            truth.boxes[gt_lo:gt_hi],
            truth.labels[gt_lo:gt_hi],
            iou_threshold=iou_threshold,
        )
        frame_tp.append(result.num_tp)
        row_tp.extend(result.is_tp.tolist())
    return frame_tp, row_tp


#: Low thresholds let partial overlaps (and their IoU ties) claim.
_THRESHOLDS = st.one_of(
    st.sampled_from((1.0, 0.5, 1 / 3, 0.25, 1e-9)),
    st.floats(0.0, 0.4, exclude_min=True),
    st.floats(0.0, 1.0, exclude_min=True),
)


class TestMatchBatch:
    @settings(max_examples=200, deadline=None)
    @given(images=st.lists(_image(), max_size=8), iou_threshold=_THRESHOLDS)
    def test_equals_per_image_greedy(self, images, iou_threshold):
        detections, truth = _batches(images)
        frame_tp, row_tp = match_batch(detections, truth, iou_threshold=iou_threshold)
        oracle_tp, oracle_rows = _oracle(detections, truth, range(len(images)), iou_threshold)
        assert frame_tp.tolist() == oracle_tp
        assert row_tp.tolist() == oracle_rows

    @settings(max_examples=100, deadline=None)
    @given(images=st.lists(_image(), min_size=1, max_size=6), data=st.data(), iou_threshold=_THRESHOLDS)
    def test_frames_replaying_records(self, images, data, iou_threshold):
        # A stream's frames: each owns a detection segment, and one
        # annotation may be replayed by several frames or by none.
        size = len(images)
        records = np.asarray(data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)), np.int64)
        detections, truth = _batches(images)
        counts = np.diff(detections.offsets)
        frame_tp, row_tp = match_batch(
            detections, truth, iou_threshold=iou_threshold, frames=(detections.offsets[:-1], counts, records)
        )
        oracle_tp, oracle_rows = _oracle(detections, truth, records.tolist(), iou_threshold)
        assert frame_tp.tolist() == oracle_tp
        assert row_tp.tolist() == oracle_rows

    def test_identical_ground_truth_ties_go_to_lowest_index(self):
        box = [0.1, 0.1, 0.4, 0.4]
        detections, truth = _batches([([(box, 0.9, 1), (box, 0.8, 1), (box, 0.7, 1)], [(box, 1), (box, 1)])])
        frame_tp, row_tp = match_batch(detections, truth)
        assert frame_tp.tolist() == [2] and row_tp.tolist() == [True, True, False]
        oracle = greedy_match_arrays(detections.boxes, detections.labels, truth.boxes, truth.labels)
        assert oracle.matched_gt.tolist() == [0, 1, -1]

    def test_equal_iou_tie_goes_to_lowest_index(self):
        # The first detection overlaps both (distinct) boxes at IoU 1/3; it
        # must claim box 0, which leaves the second detection unmatched.
        left, right = [0.0, 0.0, 0.5, 0.5], [0.5, 0.0, 1.0, 0.5]
        image = ([([0.25, 0.0, 0.75, 0.5], 0.9, 0), (left, 0.8, 0)], [(left, 0), (right, 0)])
        detections, truth = _batches([image])
        frame_tp, row_tp = match_batch(detections, truth, iou_threshold=0.3)
        assert frame_tp.tolist() == [1] and row_tp.tolist() == [True, False]
        swapped, swapped_truth = _batches([(image[0], image[1][::-1])])
        assert match_batch(swapped, swapped_truth, iou_threshold=0.3)[0].tolist() == [2]

    def test_image_count_mismatch_rejected(self):
        detections, _ = _batches([([], []), ([], [])])
        with pytest.raises(ConfigurationError):
            match_batch(detections, GroundTruthBatch.from_truths([]))

    @pytest.mark.parametrize("iou_threshold", [0.0, -0.5, 1.5, 2.0, float("nan")])
    def test_invalid_iou_threshold_rejected_without_work(self, iou_threshold):
        # Rejected even when no image has both detections and truth.
        detections, truth = _batches([([], [])])
        with pytest.raises(ConfigurationError):
            match_batch(detections, truth, iou_threshold=iou_threshold)
