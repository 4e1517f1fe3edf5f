"""PASCAL VOC average-precision evaluation.

Implements both the classic 11-point interpolated AP (VOC2007 devkit, the
protocol behind every mAP number in the paper) and the all-point variant
(VOC2010+/COCO-style area under the interpolated PR curve).  Greedy matching
is the split-level :func:`~repro.detection.matching.match_batch`, the same
kernel counting and rolling stream quality run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import check_iou_threshold, match_batch
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError

__all__ = [
    "PRCurve",
    "EvalResult",
    "voc_ap_from_pr",
    "precision_recall_curve",
    "evaluate_detections",
    "mean_average_precision",
]


@dataclass(frozen=True)
class PRCurve:
    """A precision/recall curve for one class, sorted by descending score."""

    recall: np.ndarray
    precision: np.ndarray
    scores: np.ndarray
    num_gt: int

    def ap(self, *, use_07_metric: bool = True) -> float:
        """Average precision of this curve."""
        return voc_ap_from_pr(self.recall, self.precision, use_07_metric=use_07_metric)


@dataclass(frozen=True)
class EvalResult:
    """Full evaluation of one detector over one dataset split."""

    per_class_ap: dict[int, float]
    per_class_curves: dict[int, PRCurve] = field(repr=False)
    use_07_metric: bool = True

    @property
    def map(self) -> float:
        """Mean average precision over classes that have ground truth."""
        if not self.per_class_ap:
            return 0.0
        return float(np.mean(list(self.per_class_ap.values())))

    @property
    def map_percent(self) -> float:
        """mAP expressed in percent, as the paper's tables report it."""
        return 100.0 * self.map


def voc_ap_from_pr(recall: np.ndarray, precision: np.ndarray, *, use_07_metric: bool = True) -> float:
    """Average precision from a PR curve.

    With ``use_07_metric`` the 11-point interpolation of the VOC2007 devkit
    is used (mean of interpolated precision at recall 0, 0.1, ..., 1.0);
    otherwise the exact area under the monotonised curve.
    """
    recall = np.asarray(recall, dtype=np.float64).reshape(-1)
    precision = np.asarray(precision, dtype=np.float64).reshape(-1)
    if recall.shape != precision.shape:
        raise ConfigurationError("recall and precision must have equal length")
    if recall.size == 0:
        return 0.0
    if use_07_metric:
        points = np.linspace(0.0, 1.0, 11)
        if np.all(recall[1:] >= recall[:-1]):
            # Sorted recall (every PR curve): the interpolated precision at
            # each point is a suffix maximum, found by one reversed running
            # max plus a searchsorted — no per-point boolean scans.
            suffix_max = np.maximum.accumulate(precision[::-1])[::-1]
            first = np.searchsorted(recall, points, side="left")
            interpolated = np.where(
                first < recall.size,
                suffix_max[np.minimum(first, recall.size - 1)],
                0.0,
            )
        else:
            interpolated = np.array(
                [
                    precision[recall >= point].max() if (recall >= point).any() else 0.0
                    for point in points
                ]
            )
        ap = 0.0
        for p in interpolated:
            ap += float(p) / 11.0
        return ap
    # All-point metric: monotonise precision from the right, then integrate.
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    changes = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[changes] - mrec[changes - 1]) * mpre[changes]))


def _class_pr_curve(scores: np.ndarray, row_tp: np.ndarray, num_gt: int) -> PRCurve:
    """PR curve of one class from its pooled scores and true-positive flags.

    The flags come from one :func:`~repro.detection.matching.match_batch`
    pass over the split; ranking them by score (stable, so ties keep split
    order) is the VOC pooled greedy protocol.
    """
    num_det = int(scores.shape[0])
    if num_det == 0:
        return PRCurve(recall=np.zeros(0), precision=np.zeros(0), scores=np.zeros(0), num_gt=num_gt)
    order = np.argsort(-scores, kind="stable")
    tp_flags = row_tp[order]
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / num_gt if num_gt > 0 else np.zeros(num_det)
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    return PRCurve(recall=recall, precision=precision, scores=scores[order], num_gt=num_gt)


def _split_matches(detections, truths, iou_threshold: float) -> tuple[DetectionBatch, GroundTruthBatch, np.ndarray]:
    """Coerce both sides and match the whole split once: the batch, the
    annotations and every detection's true-positive flag."""
    check_iou_threshold(iou_threshold)
    batch = DetectionBatch.coerce(detections)
    gt = GroundTruthBatch.coerce(truths)
    _, row_tp = match_batch(batch, gt, iou_threshold=iou_threshold)
    return batch, gt, row_tp


def precision_recall_curve(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    label: int,
    *,
    iou_threshold: float = 0.5,
) -> PRCurve:
    """Dataset-wide PR curve for one class.

    Pools every detection of class ``label`` across images, sorts by score,
    and greedily matches against unclaimed ground truth per the VOC protocol.
    Annotations arrive pre-flattened when a :class:`GroundTruthBatch` (or a
    ``Dataset`` with its cached batch) is passed.
    """
    batch, gt, row_tp = _split_matches(detections, truths, iou_threshold)
    det_mask = batch.labels == label
    return _class_pr_curve(batch.scores[det_mask], row_tp[det_mask], int(np.count_nonzero(gt.labels == label)))


def evaluate_detections(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    num_classes: int,
    *,
    iou_threshold: float = 0.5,
    use_07_metric: bool = True,
) -> EvalResult:
    """Evaluate a detector over a split: per-class AP and mAP.

    Classes with no ground-truth instances in the split are skipped, matching
    the VOC devkit behaviour.  The split is matched once; each class then
    ranks its masked true-positive flags by score.
    """
    batch, gt, row_tp = _split_matches(detections, truths, iou_threshold)
    per_class_ap: dict[int, float] = {}
    per_class_curves: dict[int, PRCurve] = {}
    for label in range(num_classes):
        num_gt = int(np.count_nonzero(gt.labels == label))
        if num_gt == 0:
            continue
        det_mask = batch.labels == label
        curve = _class_pr_curve(batch.scores[det_mask], row_tp[det_mask], num_gt)
        per_class_curves[label] = curve
        per_class_ap[label] = curve.ap(use_07_metric=use_07_metric)
    return EvalResult(
        per_class_ap=per_class_ap,
        per_class_curves=per_class_curves,
        use_07_metric=use_07_metric,
    )


def mean_average_precision(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    num_classes: int,
    *,
    iou_threshold: float = 0.5,
    use_07_metric: bool = True,
) -> float:
    """Convenience wrapper returning the mAP in percent."""
    result = evaluate_detections(
        detections,
        truths,
        num_classes,
        iou_threshold=iou_threshold,
        use_07_metric=use_07_metric,
    )
    return result.map_percent
