"""Non-maximum suppression and score filtering.

The simulated detectors emit raw per-object boxes plus noise boxes; NMS is
applied per class exactly as a real SSD/YOLO post-processing stage would, so
duplicate suppression behaviour (and its failure modes) are part of the
pipeline rather than assumed away.
"""

from __future__ import annotations

import numpy as np

from repro.detection.boxes import iou_matrix
from repro.detection.types import Detections
from repro.errors import ConfigurationError

__all__ = ["nms_indices", "class_aware_nms", "filter_by_score"]


def nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy NMS over one class.

    Returns the indices of kept boxes, ordered by descending score.  Ties are
    broken by original index for determinism.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    count = boxes.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    iou = iou_matrix(boxes, boxes)
    suppressed = np.zeros(count, dtype=bool)
    keep: list[int] = []
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= iou[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)


def class_aware_nms(detections: Detections, iou_threshold: float = 0.45) -> Detections:
    """Apply greedy NMS independently within each predicted class.

    This mirrors SSD's deployment-time post-processing (per-class NMS with an
    IoU threshold of 0.45).  One greedy pass over the whole image, with IoU
    masked to same-class pairs, gives exactly the per-class result of
    :func:`nms_indices`: ``Detections`` keeps its boxes stably sorted by
    descending score, which is the order ``nms_indices`` visits each class
    in.  Returns ``detections`` itself when nothing is suppressed.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    labels = detections.labels
    if len(set(labels.tolist())) == labels.size:
        return detections
    boxes = detections.boxes
    suppresses = (iou_matrix(boxes, boxes) > iou_threshold) & (labels[:, None] == labels[None, :])
    keep = np.ones(labels.size, dtype=bool)
    for idx in range(labels.size):
        if keep[idx]:
            keep[idx + 1 :] &= ~suppresses[idx, idx + 1 :]
    if keep.all():
        return detections
    return Detections(
        image_id=detections.image_id,
        boxes=boxes[keep],
        scores=detections.scores[keep],
        labels=labels[keep],
        detector=detections.detector,
        extras=detections.extras,
    )


def filter_by_score(detections: Detections, threshold: float) -> Detections:
    """Keep detections scoring at least ``threshold``.

    Equivalent to :meth:`Detections.above`; provided as a free function for
    pipeline composition.
    """
    return detections.above(threshold)
