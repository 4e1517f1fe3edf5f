"""Micro-benchmarks of the library's hot paths.

Unlike the table/figure benches (one-shot, full-scale), these measure
steady-state throughput of the kernels every experiment leans on: IoU, NMS,
detection simulation (one image and a 4000-image split), scene synthesis,
calibration's analytic recall and measured-round count, per-image
discrimination, split-level mAP evaluation, and the structure-of-arrays batch operations (construction,
feature extraction, split verdicts) that back them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import extract_feature_arrays
from repro.data.datasets import DATASET_SETTINGS, load_dataset
from repro.detection.batch import DetectionBatch, DetectionBatchBuilder
from repro.detection.boxes import iou_matrix
from repro.detection.nms import class_aware_nms, nms_indices
from repro.experiments import Harness, HarnessConfig
from repro.metrics.counting import count_detected_objects
from repro.metrics.voc_ap import mean_average_precision
from repro.simulate import detector as detector_module
from repro.simulate.calibrate import expected_recall


@pytest.fixture(scope="module")
def random_boxes():
    rng = np.random.default_rng(0)
    mins = rng.uniform(0, 0.7, size=(200, 2))
    sizes = rng.uniform(0.02, 0.3, size=(200, 2))
    boxes = np.concatenate([mins, np.minimum(mins + sizes, 1.0)], axis=1)
    scores = rng.uniform(0.05, 1.0, size=200)
    return boxes, scores


def test_micro_iou_matrix_200x200(benchmark, random_boxes):
    boxes, _ = random_boxes
    result = benchmark(iou_matrix, boxes, boxes)
    assert result.shape == (200, 200)


def test_micro_nms_200_boxes(benchmark, random_boxes):
    boxes, scores = random_boxes
    keep = benchmark(nms_indices, boxes, scores, 0.45)
    assert keep.size >= 1


def test_micro_detect_one_image(benchmark, harness):
    detector = harness.detector("small1", "voc07")
    record = harness.dataset("voc07", "test").records[0]
    detections = benchmark(detector.detect, record)
    assert detections.image_id == record.image_id


def _calibration_fraction() -> float:
    """Fraction of the voc07 train split that is its 4000-image calibration sample."""
    return 4000 / DATASET_SETTINGS["voc07"].train_size


def test_micro_detect_split_4000_images(benchmark, harness):
    """One measured calibration round: the calibrated small1 detector over
    the 4000-image voc07 calibration sample, into one batch."""
    detector = harness.detector("small1", "voc07")
    sample = load_dataset("voc07", "train", seed=harness.config.seed, fraction=_calibration_fraction())
    batch = benchmark(detector.detect_split, sample)
    assert len(batch) == 4000


def test_micro_count_detected_objects_4000_images(benchmark, harness):
    """The count of one measured calibration round: the calibrated small1
    detector's output over the 4000-image voc07 calibration sample, matched
    against its annotations at serving threshold 0.5."""
    detector = harness.detector("small1", "voc07")
    sample = load_dataset("voc07", "train", seed=harness.config.seed, fraction=_calibration_fraction())
    batch = detector.detect_split(sample)
    detected = benchmark(count_detected_objects, batch, sample.truth_batch)
    assert 0 < detected <= sample.total_objects


def test_micro_load_dataset_4000_images(benchmark, harness):
    """Scene synthesis of the 4000-image voc07 calibration sample."""
    dataset = benchmark(load_dataset, "voc07", "train", seed=harness.config.seed, fraction=_calibration_fraction())
    assert len(dataset) == 4000


def test_micro_class_aware_nms_per_image(benchmark, harness, monkeypatch):
    """NMS of one realistic raw detector output: the largest pre-NMS output
    of small1 over the first 100 voc07 test images (it has classes with
    several boxes, so the masked-IoU pass runs, not the fast path)."""
    raw = []
    monkeypatch.setattr(detector_module, "class_aware_nms", lambda dets: raw.append(dets) or class_aware_nms(dets))
    detector = harness.detector("small1", "voc07")
    for record in harness.dataset("voc07", "test").records[:100]:
        detector.detect(record)
    largest = max(raw, key=len)
    assert np.unique(largest.labels).size < len(largest)
    kept = benchmark(class_aware_nms, largest)
    assert 0 < len(kept) <= len(largest)


def test_micro_expected_recall_4000_images(benchmark, harness):
    """One bisection probe of calibration: the analytic recall of the
    calibrated small1 profile over the 4000-image voc07 calibration sample."""
    profile = harness.detector("small1", "voc07").profile
    sample = load_dataset("voc07", "train", seed=harness.config.seed, fraction=_calibration_fraction())
    expected_recall(profile, sample)  # builds the split's cached object columns
    value = benchmark(expected_recall, profile, sample)
    assert 0.0 < value < 1.0


def test_micro_discriminator_decide(benchmark, harness):
    discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
    detections = harness.detections("small1", "voc07", "test")[0]
    verdict = benchmark(discriminator.decide, detections)
    assert verdict in (True, False)


def test_micro_map_500_images(benchmark, harness):
    dataset = harness.dataset("voc07", "test").subset(500)
    served = harness.detections("ssd", "voc07", "test")[:500].above(0.5)
    value = benchmark.pedantic(
        mean_average_precision,
        args=(served, dataset.truths, dataset.num_classes),
        rounds=3,
        iterations=1,
    )
    assert 0.0 < value < 100.0


def test_micro_batch_from_list(benchmark, harness):
    detections = harness.detections("ssd", "voc07", "test")[:500].to_list()
    batch = benchmark(DetectionBatch.from_list, detections)
    assert len(batch) == 500


def test_micro_builder_append_500_images(benchmark, harness):
    """Streaming accumulation throughput: per-image raw-array appends into
    the amortised-growth builder (the shard-worker / stream-collector path)."""
    batch = harness.detections("ssd", "voc07", "test")[:500]
    segments = [(d.image_id, d.boxes, d.scores, d.labels) for d in batch]

    def accumulate():
        builder = DetectionBatchBuilder(detector=batch.detector)
        for image_id, boxes, scores, labels in segments:
            builder.append(image_id, boxes, scores, labels)
        return builder.build()

    result = benchmark(accumulate)
    assert len(result) == 500
    assert result.num_boxes == batch.num_boxes


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_micro_detections_cold_cache(benchmark, workers, tmp_path_factory):
    """End-to-end `Harness.detections` wall time on a cold disk cache at
    1/2/4 workers (quick-config split sizes; dataset pre-materialised so the
    timing isolates detection production + cache persistence)."""
    base = HarnessConfig.quick()

    def setup():
        cache = tmp_path_factory.mktemp(f"cold-cache-{workers}")
        config = HarnessConfig(
            seed=base.seed,
            train_images=base.train_images,
            test_fraction=base.test_fraction,
            cache_dir=str(cache),
            workers=workers,
        )
        cold = Harness(config)
        cold.dataset("voc07", "test")
        cold.detector("small1", "voc07")
        return (cold,), {}

    def produce(cold):
        # Context-managed so each round's worker pool is reaped, not leaked
        # into the rest of the benchmark session.
        with cold:
            return cold.detections("small1", "voc07", "test")

    batch = benchmark.pedantic(produce, setup=setup, rounds=3, iterations=1)
    assert len(batch) == 397  # quick-config voc07 test split


def test_micro_features_batched_500_images(benchmark, harness):
    batch = harness.detections("small1", "voc07", "test")[:500]
    n_predict, n_estimated, min_area = benchmark(extract_feature_arrays, batch, 0.2)
    assert n_predict.shape == n_estimated.shape == min_area.shape == (500,)


def test_micro_decide_split_batched_500_images(benchmark, harness):
    discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
    batch = harness.detections("small1", "voc07", "test")[:500]
    verdicts = benchmark(discriminator.decide_split, batch)
    assert verdicts.shape == (500,)
