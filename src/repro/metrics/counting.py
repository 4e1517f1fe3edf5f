"""Detected-object counting — the paper's second headline metric.

Tables IV/VI/VIII/X/XI/XIII/XV/XVII all report "the number of detected
objects": how many annotated objects a scheme's served detections correctly
find at serving threshold 0.5.  We count true positives (class-aware,
IoU >= 0.5) rather than raw box counts so that false positives cannot inflate
the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import check_iou_threshold, match_batch
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError

__all__ = ["CountSummary", "count_detected_objects", "count_summary"]


def _check_thresholds(score_threshold: float, iou_threshold: float) -> None:
    """Reject a score threshold outside ``[0, 1]`` (NaN included) and an IoU
    threshold outside ``(0, 1]``."""
    if not 0.0 <= score_threshold <= 1.0:
        raise ConfigurationError(f"score_threshold must be in [0, 1], got {score_threshold}")
    check_iou_threshold(iou_threshold)


@dataclass(frozen=True)
class CountSummary:
    """Aggregate detection counts of one scheme over one split."""

    detected: int
    total_ground_truth: int

    @property
    def detected_fraction(self) -> float:
        """Share of annotated objects detected (0 when the split is empty)."""
        if self.total_ground_truth == 0:
            return 0.0
        return self.detected / self.total_ground_truth

    def ratio_to(self, other: "CountSummary") -> float:
        """This scheme's count relative to ``other``'s, in percent.

        This is the paper's "End-to-end / Big model (%)" column.
        """
        if other.detected == 0:
            return 0.0
        return 100.0 * self.detected / other.detected


def count_detected_objects(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    *,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> int:
    """Total true-positive count over a split.

    The serving filter is one pass over the flat detection arrays, and the
    whole split matches in one :func:`~repro.detection.matching.match_batch`
    call.  Thresholds are checked before any work.
    """
    _check_thresholds(score_threshold, iou_threshold)
    served = DetectionBatch.coerce(detections).above(score_threshold)
    frame_tp, _ = match_batch(served, GroundTruthBatch.coerce(truths), iou_threshold=iou_threshold)
    return int(frame_tp.sum())


def count_summary(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    *,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> CountSummary:
    """Detected-object count plus the split's ground-truth total."""
    _check_thresholds(score_threshold, iou_threshold)
    gt = GroundTruthBatch.coerce(truths)
    detected = count_detected_objects(
        detections,
        gt,
        score_threshold=score_threshold,
        iou_threshold=iou_threshold,
    )
    return CountSummary(detected=detected, total_ground_truth=gt.total_objects)
