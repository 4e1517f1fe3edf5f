"""Golden pins of detector calibration.

Calibration bisects on :func:`expected_recall`, so a last-bit change in its
arithmetic can move a calibrated ``base_recall`` and with it every cached
detection and table.  These pins are exact: any change to calibration that
moves a value by one ulp must re-pin here and say why.
"""

from __future__ import annotations

import pytest

from repro.data.datasets import load_dataset
from repro.simulate import presets
from repro.simulate.calibrate import expected_recall
from repro.simulate.presets import SHAPE_PRESETS, available_pairs, make_detector
from repro.simulate.profile import DetectorProfile

#: ``base_recall.hex()`` of every pair calibrated at ``calibration_images=200``.
CALIBRATED_BASE_RECALL = {
    ("small-yolo", "voc07"): "0x1.a38e1fbe76c8cp+0",
    ("small-yolo", "voc07+12"): "0x1.8cb425bc01a37p+0",
    ("small1", "coco18"): "0x1.e9809b22d0e56p-1",
    ("small1", "helmet"): "0x1.b5e6d41205bbfp+1",
    ("small1", "voc07"): "0x1.1176460aa64c3p+0",
    ("small1", "voc07++12"): "0x1.43da38d4fdf3cp+0",
    ("small1", "voc07+12"): "0x1.508c35810624fp+0",
    ("small2", "coco18"): "0x1.2d643eb851eb8p+0",
    ("small2", "voc07"): "0x1.41693978d4fe0p+0",
    ("small2", "voc07++12"): "0x1.6a542ebedfa44p+0",
    ("small2", "voc07+12"): "0x1.669e2fb7e9100p+0",
    ("small3", "coco18"): "0x1.4d3a365fd8adcp+0",
    ("small3", "voc07"): "0x1.406f39ba5e354p+0",
    ("small3", "voc07++12"): "0x1.695a2f0068db8p+0",
    ("small3", "voc07+12"): "0x1.bc8e1930be0dep+0",
    ("ssd", "coco18"): "0x1.6096bf06f6944p-1",
    ("ssd", "helmet"): "0x1.ccf614e3bcd35p+0",
    ("ssd", "voc07"): "0x1.f99d96e978d50p-1",
    ("ssd", "voc07++12"): "0x1.02f5c9d7dbf48p+0",
    ("ssd", "voc07+12"): "0x1.1176460aa64c3p+0",
    ("yolov4", "voc07"): "0x1.1914440b78034p+0",
    ("yolov4", "voc07+12"): "0x1.437638ef34d6bp+0",
}

#: ``expected_recall(profile, voc_mini).hex()`` by (shape, base_recall).
EXPECTED_RECALL = {
    ("default", 0.05): "0x1.0a99ded10be09p-5",
    ("default", 0.3): "0x1.8fe6ce3991d0dp-3",
    ("default", 1.0): "0x1.4d4056854ed90p-1",
    ("default", 1.5): "0x1.b4608cd996854p-1",
    ("default", 4.0): "0x1.f93c188527655p-1",
    ("default", 25.0): "0x1.fd70a3d70a3e1p-1",
    ("small1", 0.5): "0x1.8d57784a2f5e7p-3",
    ("small1", 1.3): "0x1.f8173ea6ba37fp-2",
    ("small1", 3.0): "0x1.80e8c951ecbd6p-1",
}


def test_pins_cover_every_pair():
    assert sorted(CALIBRATED_BASE_RECALL) == available_pairs()


@pytest.mark.parametrize("pair", sorted(CALIBRATED_BASE_RECALL), ids="@".join)
def test_calibrated_base_recall_pinned(pair, monkeypatch):
    # The process-wide detector cache is keyed without calibration_images;
    # a private cache keeps these 200-image calibrations out of it.
    monkeypatch.setattr(presets, "_DETECTOR_CACHE", {})
    detector = make_detector(*pair, calibration_images=200)
    assert detector.profile.base_recall.hex() == CALIBRATED_BASE_RECALL[pair]


@pytest.fixture(scope="module")
def voc_mini():
    return load_dataset("voc07", "test", fraction=0.02)


@pytest.mark.parametrize("shape, base_recall", sorted(EXPECTED_RECALL))
def test_expected_recall_pinned(voc_mini, shape, base_recall):
    profile = DetectorProfile(name="test") if shape == "default" else SHAPE_PRESETS[shape]
    value = expected_recall(profile.with_base_recall(base_recall), voc_mini)
    assert value.hex() == EXPECTED_RECALL[(shape, base_recall)]
