"""Greedy matching of detections to ground truth.

This is the standard PASCAL VOC protocol: detections are visited in order of
descending score; each claims the highest-IoU unclaimed ground-truth box of
the same class, provided the IoU passes the threshold (0.5 for VOC).  The
result drives both the AP computation and the paper's "number of detected
objects" metric.

:func:`greedy_match_arrays` matches one image; :func:`match_batch` matches
a whole split (or a stream's frames) in one block-diagonal pass and is what
counting, AP evaluation and rolling stream quality all run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.boxes import iou_matrix, pairwise_iou
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError

__all__ = [
    "MatchResult",
    "check_iou_threshold",
    "greedy_match_arrays",
    "match_batch",
    "match_detections",
    "true_positive_count",
]


def check_iou_threshold(iou_threshold: float) -> None:
    """Reject a matching IoU threshold outside ``(0, 1]`` (NaN included)."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one image's detections against its annotation.

    Attributes
    ----------
    is_tp:
        ``(num_detections,)`` boolean, aligned with the detections'
        score-descending order.
    matched_gt:
        ``(num_detections,)`` index of the claimed ground-truth box, or -1.
    gt_detected:
        ``(num_gt,)`` boolean: was this annotated object found?
    """

    is_tp: np.ndarray
    matched_gt: np.ndarray
    gt_detected: np.ndarray

    @property
    def num_tp(self) -> int:
        """Number of true-positive detections."""
        return int(np.count_nonzero(self.is_tp))

    @property
    def num_fp(self) -> int:
        """Number of false-positive detections."""
        return int(self.is_tp.shape[0] - self.num_tp)

    @property
    def num_missed(self) -> int:
        """Number of annotated objects no detection claimed."""
        return int(np.count_nonzero(~self.gt_detected))


def greedy_match_arrays(
    det_boxes: np.ndarray,
    det_labels: np.ndarray,
    gt_boxes: np.ndarray,
    gt_labels: np.ndarray,
    *,
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> MatchResult:
    """Array-level greedy VOC matching (no container construction).

    ``det_boxes``/``det_labels`` must already be in score-descending order —
    the invariant both :class:`Detections` and
    :class:`~repro.detection.batch.DetectionBatch` segments maintain.
    """
    check_iou_threshold(iou_threshold)
    num_det = int(det_boxes.shape[0])
    num_gt = int(gt_boxes.shape[0])
    is_tp = np.zeros(num_det, dtype=bool)
    matched_gt = np.full(num_det, -1, dtype=np.int64)
    gt_detected = np.zeros(num_gt, dtype=bool)
    if num_det == 0 or num_gt == 0:
        return MatchResult(is_tp=is_tp, matched_gt=matched_gt, gt_detected=gt_detected)

    iou = iou_matrix(det_boxes, gt_boxes)
    if class_aware:
        same_class = det_labels[:, None] == gt_labels[None, :]
        iou = np.where(same_class, iou, 0.0)

    claimed = np.zeros(num_gt, dtype=bool)
    for det_idx in range(num_det):
        candidates = iou[det_idx].copy()
        candidates[claimed] = 0.0
        best_gt = int(np.argmax(candidates))
        if candidates[best_gt] >= iou_threshold:
            claimed[best_gt] = True
            is_tp[det_idx] = True
            matched_gt[det_idx] = best_gt
    return MatchResult(is_tp=is_tp, matched_gt=matched_gt, gt_detected=claimed)


def match_batch(
    detections: DetectionBatch,
    truth: GroundTruthBatch,
    *,
    iou_threshold: float = 0.5,
    frames: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy VOC matching of every image of a split in one pass.

    By default image ``i``'s segment of ``detections`` is matched against
    image ``i`` of ``truth``.  ``frames=(starts, counts, records)`` instead
    matches rows ``starts[f]:starts[f] + counts[f]`` against annotation
    ``records[f]`` for every frame ``f`` (a stream replays records and
    serves sub-segments).  Returns ``(frame_tp, row_tp)``: per-image (or
    per-frame) true-positive counts and per-row true-positive flags over
    ``detections``' flat rows.

    Exactly :func:`greedy_match_arrays` run image by image: detections visit
    in segment (score-descending) order and each claims the highest-IoU
    unclaimed same-class ground-truth box at or above the threshold, the
    lowest index winning ties.  Every (image, detection, ground-truth) pair
    is built in one flat block-diagonal gather; only same-class pairs get an
    IoU, and only those at or above the threshold can ever claim.  A pair
    whose detection and ground-truth box have no other such pair is a true
    positive outright; only contended pairs replay the greedy order.

    Images never share ground truth, so the class-restricted claim order
    inside an image is the same whether images are visited alone or
    interleaved by score across a split: the row flags serve the per-class
    PR curves of VOC AP as well as the counts.
    """
    check_iou_threshold(iou_threshold)
    if frames is None:
        if len(detections) != len(truth):
            raise ConfigurationError(f"got {len(detections)} detection sets for {len(truth)} images")
        starts = detections.offsets[:-1]
        counts = np.diff(detections.offsets)
        records = np.arange(len(truth), dtype=np.int64)
    else:
        starts, counts, records = frames
    frame_tp = np.zeros(counts.shape[0], dtype=np.int64)
    row_tp = np.zeros(detections.num_boxes, dtype=bool)
    gt_counts = truth.counts()[records]
    active = np.flatnonzero((counts > 0) & (gt_counts > 0))
    if active.size == 0:
        return frame_tp, row_tp
    gt_per_frame = gt_counts[active]
    pair_counts = counts[active] * gt_per_frame
    bases = np.zeros(active.size, dtype=np.int64)
    np.cumsum(pair_counts[:-1], out=bases[1:])
    pair_frame = np.repeat(np.arange(active.size, dtype=np.int64), pair_counts)
    local = np.arange(int(pair_counts.sum()), dtype=np.int64) - bases[pair_frame]
    det_local, gt_local = np.divmod(local, gt_per_frame[pair_frame])
    det_rows = starts[active][pair_frame] + det_local
    gt_rows = truth.offsets[:-1][records[active]][pair_frame] + gt_local
    same = np.flatnonzero(detections.labels[det_rows] == truth.labels[gt_rows])
    iou = pairwise_iou(detections.boxes[det_rows[same]], truth.boxes[gt_rows[same]])
    passing = iou >= iou_threshold
    candidates = same[passing]
    iou = iou[passing]
    # Candidates stay ordered by (frame, detection, ground truth).  A claim
    # is keyed by the frame's ground-truth box: its first pair's index.
    cand_frame = pair_frame[candidates]
    cand_det = det_local[candidates]
    cand_claim = bases[cand_frame] + gt_local[candidates]
    first = np.ones(candidates.size, dtype=bool)
    first[1:] = (cand_frame[1:] != cand_frame[:-1]) | (cand_det[1:] != cand_det[:-1])
    last = np.ones(candidates.size, dtype=bool)
    last[:-1] = first[1:]
    cand_tp = first & last & (np.bincount(cand_claim)[cand_claim] == 1)
    contended = np.flatnonzero(~cand_tp)
    if contended.size:
        claimed: set[int] = set()
        starts_group = first[contended].tolist()
        claims = cand_claim[contended].tolist()
        ious = iou[contended].tolist()
        winners: list[int] = []
        index, num_pairs = 0, len(claims)
        while index < num_pairs:
            best_iou, best = 0.0, -1
            # strict ">" over ascending ground-truth order keeps the lowest
            # index on IoU ties, like argmax
            while True:
                if ious[index] > best_iou and claims[index] not in claimed:
                    best_iou, best = ious[index], index
                index += 1
                if index == num_pairs or starts_group[index]:
                    break
            if best >= 0:
                claimed.add(claims[best])
                winners.append(best)
        cand_tp[contended[winners]] = True
    row_tp[det_rows[candidates[cand_tp]]] = True
    frame_tp[active] = np.bincount(cand_frame[cand_tp], minlength=active.size)
    return frame_tp, row_tp


def match_detections(
    detections: Detections,
    truth: GroundTruth,
    *,
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> MatchResult:
    """Greedily match ``detections`` to ``truth``.

    Parameters
    ----------
    iou_threshold:
        Minimum IoU for a detection to claim a ground-truth box (VOC: 0.5).
    class_aware:
        When true (the VOC protocol), a detection may only claim a
        ground-truth box of its own class.
    """
    # Detections are already score-descending (Detections sorts on init).
    return greedy_match_arrays(
        detections.boxes,
        detections.labels,
        truth.boxes,
        truth.labels,
        iou_threshold=iou_threshold,
        class_aware=class_aware,
    )


def true_positive_count(
    detections: Detections,
    truth: GroundTruth,
    *,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> int:
    """The paper's "number of detected objects" for one image.

    Counts detections that (a) pass the serving score threshold (0.5
    throughout the paper) and (b) correctly claim a ground-truth object of
    their class at the VOC IoU threshold.
    """
    served = detections.above(score_threshold)
    result = match_detections(served, truth, iou_threshold=iou_threshold)
    return result.num_tp
