"""Detector capability profiles.

A :class:`DetectorProfile` is the statistical stand-in for a trained
detector's weights: it determines, per object, the probability that the
detector finds the object, how confident it is, how tight its boxes are and
how much noise it emits.  The functional form encodes the paper's own
analysis (Sec. IV.B / Fig. 4):

* detection probability *falls with the object's area ratio* — small models,
  having lost the 38x38 feature map (66 % of the default boxes), degrade
  much earlier than the big model;
* detection probability *falls with scene crowding* — fewer default boxes
  also means crowded images lose objects;
* degraded imagery (blur, low light) lowers detection probability through
  the profile's quality sensitivity.

Everything downstream — mAP, detected-object counts, difficult-case labels —
is *measured* from the boxes these profiles emit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DetectorProfile", "detection_probability", "crowd_term", "quality_term", "combine_terms"]

#: Detection probability is capped here: no detector is perfect.
_MAX_DETECTION_PROBABILITY = 0.995


@dataclass(frozen=True)
class DetectorProfile:
    """Capability parameters of one simulated detector.

    Attributes
    ----------
    name:
        Identifier; detections are deterministic in ``(seed, name, image)``.
    base_recall:
        Capability scale.  Values above 1 saturate large easy objects at the
        cap — the signature of a strong model.  This is the single knob the
        calibration module solves for.
    area_half:
        Object area ratio at which detection probability halves.  Small
        models have large values (they miss small objects early); big models
        have tiny values.
    area_gamma:
        Steepness of the area response (in log-area).
    crowd_half:
        Scene object count at which the crowding factor halves.
    crowd_gamma:
        Steepness of the crowding response.
    quality_sensitivity:
        Exponent translating image quality (0, 1] into a recall penalty.
    loc_sigma:
        Localisation noise: relative jitter of box centre and size.
    miss_visibility:
        Probability that a *missed* object still emits a sub-threshold box —
        the Fig. 6 phenomenon (the missed dog still scored 0.2507).  This is
        the signal the discriminator's noise-filter threshold taps.
    miss_score_lo / miss_score_hi:
        Score range of those sub-threshold boxes.
    score_sharpness:
        Concentration of served-detection scores around the object's
        difficulty (higher = better-ranked PR curves).
    fp_rate:
        Poisson mean of spurious noise boxes per image.
    fp_score_scale:
        Exponential scale of noise-box scores (most score far below 0.5).
    class_confusion:
        Probability that a detected object is reported with a wrong label.
    """

    name: str
    base_recall: float = 1.0
    area_half: float = 0.02
    area_gamma: float = 1.2
    crowd_half: float = 12.0
    crowd_gamma: float = 1.6
    quality_sensitivity: float = 1.0
    loc_sigma: float = 0.05
    miss_visibility: float = 0.75
    miss_score_lo: float = 0.10
    miss_score_hi: float = 0.45
    score_sharpness: float = 5.0
    fp_rate: float = 0.7
    fp_score_scale: float = 0.06
    class_confusion: float = 0.03

    def __post_init__(self) -> None:
        if self.base_recall <= 0.0:
            raise ConfigurationError("base_recall must be > 0")
        if self.area_half <= 0.0 or self.area_gamma <= 0.0:
            raise ConfigurationError("area response parameters must be > 0")
        if self.crowd_half <= 0.0 or self.crowd_gamma <= 0.0:
            raise ConfigurationError("crowd response parameters must be > 0")
        if not 0.0 <= self.miss_visibility <= 1.0:
            raise ConfigurationError("miss_visibility must be in [0, 1]")
        if not 0.0 < self.miss_score_lo < self.miss_score_hi < 0.5:
            raise ConfigurationError("miss score range must satisfy 0 < lo < hi < 0.5 (sub-threshold)")
        if self.fp_rate < 0.0 or self.fp_score_scale <= 0.0:
            raise ConfigurationError("false-positive parameters out of range")
        if not 0.0 <= self.class_confusion < 1.0:
            raise ConfigurationError("class_confusion must be in [0, 1)")

    def with_base_recall(self, base_recall: float) -> "DetectorProfile":
        """A copy with a different capability scale (used by calibration)."""
        return replace(self, base_recall=base_recall)


def detection_probability(
    profile: DetectorProfile,
    areas: np.ndarray,
    num_objects: int,
    quality: float = 1.0,
) -> np.ndarray:
    """Per-object detection probability under ``profile``.

    ``p = cap(base_recall * area_term * crowd_term * quality_term)`` with

    * ``area_term  = 1 / (1 + (area_half / area) ** area_gamma)``
    * ``crowd_term = 1 / (1 + (count / crowd_half) ** crowd_gamma)``
    * ``quality_term = quality ** quality_sensitivity``
    """
    areas = np.asarray(areas, dtype=np.float64).reshape(-1)
    if (areas <= 0.0).any():
        raise ConfigurationError("object areas must be positive")
    if num_objects < areas.shape[0]:
        raise ConfigurationError(f"num_objects={num_objects} smaller than the {areas.shape[0]} areas given")
    if not 0.0 < quality <= 1.0:
        raise ConfigurationError(f"quality must be in (0, 1], got {quality}")
    return combine_terms(profile, areas, crowd_term(profile, num_objects), quality_term(profile, quality))


def crowd_term(profile: DetectorProfile, num_objects: int) -> float:
    """The crowding factor of an image holding ``num_objects`` objects."""
    return 1.0 / (1.0 + (num_objects / profile.crowd_half) ** profile.crowd_gamma)


def quality_term(profile: DetectorProfile, quality: float) -> float:
    """The recall penalty of an image of the given quality."""
    return quality**profile.quality_sensitivity


def combine_terms(
    profile: DetectorProfile,
    areas: np.ndarray,
    crowd: float | np.ndarray,
    quality: float | np.ndarray,
) -> np.ndarray:
    """``cap(base_recall * area_term * crowd * quality)``, unvalidated.

    ``crowd`` and ``quality`` are either one image's scalar terms or
    per-object arrays aligned with ``areas``; every step is elementwise and
    the product is taken in this order, so both forms give bit-identical
    probabilities.
    """
    area_term = 1.0 / (1.0 + (profile.area_half / areas) ** profile.area_gamma)
    raw = profile.base_recall * area_term * crowd * quality
    return np.clip(raw, 0.0, _MAX_DETECTION_PROBABILITY)
