"""Profile calibration: solve the capability scale for a recall target.

The paper's count tables (IV, VI, VIII, X, XI) pin down each model's recall
at serving threshold 0.5 on each dataset (detected objects / annotated
objects).  Calibration turns those published recalls into ``base_recall``
values:

1. an *analytic* bisection matches the expected per-object detection
   probability to the target, then
2. two *measured* secant corrections run the full simulator on a sample and
   absorb the residual losses (NMS suppression, localisation jitter pushing
   IoU below 0.5, class confusion).

Everything is deterministic in the experiment seed.
"""

from __future__ import annotations

import numpy as np

from repro._rng import DEFAULT_SEED
from repro.data.datasets import Dataset
from repro.errors import CalibrationError, ConfigurationError
from repro.metrics.counting import count_detected_objects
from repro.simulate.detector import SimulatedDetector
from repro.simulate.profile import DetectorProfile, combine_terms, crowd_term, quality_term

__all__ = ["expected_recall", "solve_base_recall", "calibrate_profile"]

#: Upper bound for the capability scale during bisection.
_MAX_BASE_RECALL = 25.0


def expected_recall(profile: DetectorProfile, dataset: Dataset) -> float:
    """Mean per-object detection probability over a split (analytic).

    Evaluated on the split's cached :attr:`~repro.data.datasets.Dataset.object_columns`
    in one vectorised pass, bit-identical to summing
    :func:`~repro.simulate.profile.detection_probability` image by image:

    * the area term is elementwise; the crowd and quality terms are Python
      floats (``**`` on Python floats) per distinct object count and image
      quality, gathered per object;
    * the product keeps the order ``base_recall * area * crowd * quality``
      before the cap;
    * each image's probabilities are summed as one row of a
      ``(images, count)`` block of equal-count images (``sum(axis=1)``
      reduces each row exactly as ``p.sum()`` reduces that image's array;
      ``np.add.reduceat`` does not);
    * the images' sums are accumulated sequentially in record order
      (``np.cumsum``), as a running ``+=`` would.

    Calibration bisects on this value, so a 1-ulp change here can move a
    calibrated ``base_recall`` and every detection built on it.
    """
    columns = dataset.object_columns
    if columns.areas.size == 0:
        raise CalibrationError("dataset has no objects to calibrate on")
    if (columns.areas <= 0.0).any():
        raise ConfigurationError("object areas must be positive")
    if ((columns.qualities <= 0.0) | (columns.qualities > 1.0)).any():
        raise ConfigurationError("image qualities must be in (0, 1]")
    crowd = np.empty_like(columns.areas)
    for count, _, rows in columns.groups:
        crowd[rows] = crowd_term(profile, count)
    quality = np.array([quality_term(profile, q) for q in columns.qualities.tolist()])[columns.quality_index]
    p = combine_terms(profile, columns.areas, crowd, quality)
    per_image = np.empty(columns.counts.size)
    for _, positions, rows in columns.groups:
        per_image[positions] = p[rows].sum(axis=1)
    return float(np.cumsum(per_image)[-1]) / columns.areas.size


def solve_base_recall(
    profile: DetectorProfile,
    dataset: Dataset,
    target: float,
    *,
    tolerance: float = 1e-4,
    max_iterations: int = 60,
) -> DetectorProfile:
    """Bisection on ``base_recall`` so the analytic recall hits ``target``.

    The per-object probability is monotone in ``base_recall`` (until every
    object saturates at the cap), so bisection is exact.  Raises
    :class:`~repro.errors.CalibrationError` when the target is unreachable
    even at the maximum scale (e.g. a dataset of exclusively tiny objects).
    """
    if not 0.0 < target < 1.0:
        raise CalibrationError(f"target recall must be in (0, 1), got {target}")
    hi_profile = profile.with_base_recall(_MAX_BASE_RECALL)
    reachable = expected_recall(hi_profile, dataset)
    if reachable < target:
        raise CalibrationError(
            f"target recall {target:.3f} unreachable: even at maximum "
            f"capability the expected recall is {reachable:.3f}"
        )
    lo, hi = 1e-4, _MAX_BASE_RECALL
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        value = expected_recall(profile.with_base_recall(mid), dataset)
        if abs(value - target) < tolerance:
            return profile.with_base_recall(mid)
        if value < target:
            lo = mid
        else:
            hi = mid
    return profile.with_base_recall((lo + hi) / 2.0)


def calibrate_profile(
    profile: DetectorProfile,
    dataset: Dataset,
    target_recall: float,
    *,
    num_classes: int,
    seed: int = DEFAULT_SEED,
    sample_size: int = 1000,
    measured_rounds: int = 2,
) -> DetectorProfile:
    """Full calibration: analytic solve plus measured loss-factor estimation.

    The analytic solve runs over the whole ``dataset``: each bisection probe
    is one vectorised :func:`expected_recall` pass over the split's cached
    object columns.  The *loss factor* — how much measured true-positive
    recall falls short of the analytic expectation because of NMS
    suppression, localisation jitter and class confusion — is estimated by
    running the detector on a ``sample_size`` subset, as
    ``measured / expected`` *on the same subset*, so subset sampling bias
    cancels out of the final profile.  Each measured round runs the full
    simulator over the sample, which is most of calibration's cost, and
    counts the round's true positives with one split-level
    :func:`~repro.detection.matching.match_batch` call.

    Parameters
    ----------
    dataset:
        The split to calibrate against (a train split in the experiments).
    target_recall:
        Detected-objects / annotated-objects ratio to reproduce, taken from
        the paper's count tables.
    sample_size:
        Number of images used to estimate the simulation loss factor.
    """
    # A sample covering the whole split is the split itself, so its cached
    # object columns and truth batch are built once, not twice.
    sample = dataset if sample_size >= len(dataset) else dataset.subset(sample_size)
    loss_factor = 1.0
    calibrated = profile
    for _ in range(measured_rounds + 1):
        analytic_target = min(0.995, target_recall / loss_factor)
        calibrated = solve_base_recall(calibrated, dataset, analytic_target)
        detector = SimulatedDetector(profile=calibrated, num_classes=num_classes, seed=seed)
        detections = detector.detect_split(sample)
        measured = count_detected_objects(detections, sample.truth_batch) / max(sample.total_objects, 1)
        if measured <= 0.0:
            raise CalibrationError("measured recall collapsed to zero")
        expected_on_sample = expected_recall(calibrated, sample)
        new_loss = float(np.clip(measured / expected_on_sample, 0.5, 1.0))
        if abs(new_loss - loss_factor) < 0.005:
            loss_factor = new_loss
            break
        loss_factor = new_loss
    return calibrated
