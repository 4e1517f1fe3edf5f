"""Exact pins of split-level matching: detected-object counts and VOC AP.

Counting (the paper's count tables and calibration's measured rounds) and
AP evaluation both run greedy VOC matching over a whole split.  These values
were recorded with the per-image matching loops that preceded the shared
block-diagonal matcher, so they prove it exact: counts by ``==``, every AP
by ``float.hex()``.  Any change that moves one must re-pin here and say why.
"""

from __future__ import annotations

import pytest

from repro.data.datasets import DATASET_SETTINGS, load_dataset
from repro.detection.batch import DetectionBatch
from repro.metrics.counting import count_detected_objects
from repro.metrics.voc_ap import evaluate_detections
from repro.simulate import presets
from repro.simulate.presets import make_detector

IMAGES = 400

#: (model, split) -> {(score_threshold, iou_threshold): detected objects}
#: over the first 400 voc07 images, detectors at ``calibration_images=200``.
COUNTS = {
    ("small1", "train"): {
        (0.05, 0.5): 713,
        (0.05, 0.75): 378,
        (0.3, 0.5): 539,
        (0.3, 0.75): 315,
        (0.5, 0.5): 407,
        (0.5, 0.75): 273,
    },
    ("small1", "test"): {
        (0.05, 0.5): 642,
        (0.05, 0.75): 347,
        (0.3, 0.5): 488,
        (0.3, 0.75): 294,
        (0.5, 0.5): 370,
        (0.5, 0.75): 254,
    },
    ("ssd", "train"): {
        (0.05, 0.5): 938,
        (0.05, 0.75): 878,
        (0.3, 0.5): 857,
        (0.3, 0.75): 818,
        (0.5, 0.5): 789,
        (0.5, 0.75): 763,
    },
    ("ssd", "test"): {
        (0.05, 0.5): 863,
        (0.05, 0.75): 804,
        (0.3, 0.5): 777,
        (0.3, 0.75): 734,
        (0.5, 0.5): 721,
        (0.5, 0.75): 695,
    },
}

#: (model, split) -> ``float.hex()`` of the 11-point AP of classes 0..19 at IoU 0.5.
# fmt: off
PER_CLASS_AP = {
    ("small1", "train"): (
        "0x1.43f87e8e201a0p-1", "0x1.45d1745d1745ep-1", "0x1.41ce3e9879fb4p-1", "0x1.3ffffffffffffp-1",
        "0x1.45d1745d1745ep-1", "0x1.39bdca68496d5p-1", "0x1.735f91154ac52p-1", "0x1.4436920e71f4dp-1",
        "0x1.129e4129e412ap-1", "0x1.67df5767506cdp-1", "0x1.26af90f1b5b0dp-1", "0x1.6d77cfbb0b34ap-1",
        "0x1.347951b376489p-1", "0x1.45d1745d1745ep-1", "0x1.45d1745d1745ep-1", "0x1.42b7142b7142cp-1",
        "0x1.3873873873874p-1", "0x1.65f4eaf197d3cp-1", "0x1.45d1745d1745ep-1", "0x1.45d1745d1745ep-1",
    ),
    ("small1", "test"): (
        "0x1.457515d457516p-1", "0x1.41fe1650f9f16p-1", "0x1.3eea0047bddcfp-1", "0x1.6abe73609beadp-1",
        "0x1.4451144511446p-1", "0x1.129e4129e412ap-1", "0x1.6f96f96f96f97p-1", "0x1.1745d1745d175p-1",
        "0x1.3b3d5af9a7240p-1", "0x1.1745d1745d175p-1", "0x1.08ba2e8ba2e8bp-1", "0x1.93c8253c8253cp-1",
        "0x1.129e4129e412ap-1", "0x1.3a22dd0b973a2p-1", "0x1.67109f959c429p-1", "0x1.cf7089045507fp-2",
        "0x1.96f0b4dcc2294p-1", "0x1.084cd0f75fdb8p-1", "0x1.8b5bfb912d700p-2", "0x1.1e45a4a8aefbbp-1",
    ),
    ("ssd", "train"): (
        "0x1.a009812e0d4ecp-1", "0x1.a2795dbe5079ep-1", "0x1.9cc0d1f4ceb6ep-1", "0x1.ced4ed4ed4ed5p-1",
        "0x1.a2e8ba2e8ba30p-1", "0x1.d1745d1745d19p-1", "0x1.a2e8ba2e8ba30p-1", "0x1.cd04e5be72147p-1",
        "0x1.999999999999ap-1", "0x1.cd7705fc02a90p-1", "0x1.c1f07c1f07c21p-1", "0x1.a2e8ba2e8ba30p-1",
        "0x1.a2e8ba2e8ba30p-1", "0x1.9439a0b150e68p-1", "0x1.9f76166928832p-1", "0x1.d1745d1745d19p-1",
        "0x1.c04e6470b0620p-1", "0x1.9219dbcc48676p-1", "0x1.af523af523af4p-1", "0x1.c54fefcf6e4aep-1",
    ),
    ("ssd", "test"): (
        "0x1.a2e8ba2e8ba30p-1", "0x1.c9f7dcd8c733ap-1", "0x1.d1745d1745d19p-1", "0x1.cc48676f3121ap-1",
        "0x1.a2e8ba2e8ba30p-1", "0x1.d1745d1745d19p-1", "0x1.ce6b41c54fefep-1", "0x1.9340bd91231f0p-1",
        "0x1.9866198661988p-1", "0x1.d042d5a1b732dp-1", "0x1.a2e8ba2e8ba30p-1", "0x1.a2e8ba2e8ba30p-1",
        "0x1.d1745d1745d19p-1", "0x1.a0cb1b810ecf7p-1", "0x1.b219dbcc48676p-1", "0x1.a2e8ba2e8ba30p-1",
        "0x1.9a4088b69587cp-1", "0x1.d69e191c6f8d6p-1", "0x1.745d1745d1747p-1", "0x1.cba2e8ba2e8bcp-1",
    ),
}
# fmt: on

#: (model, split) -> ``float.hex()`` of the all-point mAP (fraction) at IoU 0.75.
ALL_POINT_MAP_075 = {
    ("small1", "train"): "0x1.18aa7fe406035p-2",
    ("small1", "test"): "0x1.1512b270f2846p-2",
    ("ssd", "train"): "0x1.93f133b4f6dfcp-1",
    ("ssd", "test"): "0x1.a13cebad6fff8p-1",
}


@pytest.fixture(scope="module")
def slices():
    """(model, split) -> (raw detections, dataset) over the first 400 images."""
    out = {}
    saved = presets._DETECTOR_CACHE
    # Private cache: these 200-image calibrations stay out of the
    # process-wide detector cache (keyed without calibration_images).
    presets._DETECTOR_CACHE = {}
    try:
        for model in ("small1", "ssd"):
            detector = make_detector(model, "voc07", calibration_images=200)
            for split in ("train", "test"):
                entry = DATASET_SETTINGS["voc07"]
                size = entry.train_size if split == "train" else entry.test_size
                dataset = load_dataset("voc07", split, fraction=IMAGES / size)
                out[model, split] = (DetectionBatch.coerce(detector.detect_split(dataset)), dataset)
    finally:
        presets._DETECTOR_CACHE = saved
    return out


@pytest.mark.parametrize("case", sorted(COUNTS), ids="@".join)
def test_count_detected_objects_pinned(slices, case):
    batch, dataset = slices[case]
    counts = {
        key: count_detected_objects(batch, dataset.truth_batch, score_threshold=key[0], iou_threshold=key[1])
        for key in COUNTS[case]
    }
    assert counts == COUNTS[case]


@pytest.mark.parametrize("case", sorted(PER_CLASS_AP), ids="@".join)
def test_per_class_ap_pinned(slices, case):
    batch, dataset = slices[case]
    result = evaluate_detections(batch, dataset.truth_batch, dataset.num_classes)
    assert sorted(result.per_class_ap) == list(range(len(PER_CLASS_AP[case])))
    hexes = tuple(float(result.per_class_ap[label]).hex() for label in sorted(result.per_class_ap))
    assert hexes == PER_CLASS_AP[case]


@pytest.mark.parametrize("case", sorted(ALL_POINT_MAP_075), ids="@".join)
def test_all_point_map_pinned(slices, case):
    batch, dataset = slices[case]
    result = evaluate_detections(
        batch, dataset.truth_batch, dataset.num_classes, iou_threshold=0.75, use_07_metric=False
    )
    assert float(result.map).hex() == ALL_POINT_MAP_075[case]
