"""One repetition of a workload, run in a fresh Python process by ``run.py``.

Usage (normally only from ``run.py``)::

    python3 perfbench/child.py '<json request>'

The request names the role (``probe``, ``pipeline``, ``build`` or
``fleet``), the seed, the cache directory, the worker count, whether to
trace, the monotonic instant the parent spawned this process and the file to
write the JSON result to.  The child imports ``repro`` from ``PYTHONPATH``
and calls only its public entry points; with tracing on it first installs
the wrappers of :mod:`tracing`.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro.core as core
import repro.data as data
import repro.experiments as experiments
import repro.metrics as metrics
import repro.runtime as runtime
import repro.simulate as simulate
from repro import DEFAULT_SEED
from repro.core.discriminator import DiscriminatorPolicy
from repro.detection import DetectionBatch
from repro.experiments.fleet import FLEET_CAMERAS, FLEET_FRESHNESS_S, FLEET_SETTING, FLEET_WINDOW_S

import tracing

PIPELINE_SETTING = "voc07"
SMALL, BIG = "small1", "ssd"
SPLITS = ("train", "test")
FLEET_DURATION_S = 3600.0
FLEET_CALIBRATION_IMAGES = 200
FLEET_TRACE = "lte_like"
#: Seed of the fleet's deployed system; the traffic follows the run's seed.
SYSTEM_SEED = DEFAULT_SEED


def timed_region(recorder):
    """The span around a workload's timed region (nothing when untraced)."""
    return contextlib.nullcontext(-1) if recorder is None else recorder.region("workload")


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def window_outcomes(windows, report) -> dict:
    """Rolling mAP, freshness, and the windows' accounting against the report.

    The windows tile the run from time 0, so together they must hold every
    offered frame and every frame the report did not serve.
    """
    seen = [w for w in windows if w.frames]
    frames = sum(w.frames for w in windows)
    return {
        "sim_rolling_map": float(np.mean([w.map_percent for w in seen])) if seen else 0.0,
        "sim_fresh_pct": 100.0 * sum(w.served for w in windows) / frames if frames else 0.0,
        "detected_objects": sum(w.detected_objects for w in windows),
        "true_objects": sum(w.true_objects for w in windows),
        "windows_cover_offered": frames == report.frames_offered,
        "windows_match_unserved": sum(w.dropped for w in windows) == report.frames_offered - report.frames_served,
        "windows_consistent": all(
            0 <= w.served <= w.frames and w.stale >= 0 and w.frames == w.served + w.dropped + w.stale
            for w in windows
        ),
    }


def report_outcomes(report) -> dict:
    """Latency percentiles and frame accounting of a fleet report."""
    return {
        "sim_latency_p50_s": float(report.latency.p50),
        "sim_latency_p99_s": float(report.latency.p99),
        "frames_offered": report.frames_offered,
        "frames_served": report.frames_served,
        "frames_dropped": report.frames_dropped,
        "frames_shed": report.frames_shed,
        "frames_uploaded": report.frames_uploaded,
    }


# --------------------------------------------------------------------- #
# pipelines
# --------------------------------------------------------------------- #
def pipeline(request: dict, recorder) -> dict:
    """Reproduce the small1 -> ssd operating point on voc07 at full scale."""
    seed = request["seed"]
    cache_dir = Path(request["cache_dir"])
    bytes_before = tree_bytes(cache_dir)
    config = experiments.HarnessConfig(seed=seed, cache_dir=str(cache_dir), workers=request["workers"])
    with timed_region(recorder) as root, experiments.Harness(config) as harness:
        start, cpu_start = time.perf_counter(), cpu_seconds()
        for model in (SMALL, BIG):
            simulate.make_detector(model, PIPELINE_SETTING, seed=seed)
        for split in SPLITS:
            harness.dataset(PIPELINE_SETTING, split)
        artifacts = [(model, PIPELINE_SETTING, split) for model in (SMALL, BIG) for split in SPLITS]
        experiments.prefetch_detections(harness, artifacts)
        discriminator, _ = harness.discriminator(SMALL, BIG, PIPELINE_SETTING)
        run = harness.system_run(SMALL, BIG, PIPELINE_SETTING)
        e2e_map = run.end_to_end_map()
        cloud_map = harness.model_map(BIG, PIPELINE_SETTING)
        e2e_counts = run.end_to_end_counts()
        cloud_counts = harness.model_counts(BIG, PIPELINE_SETTING)
        # The served test split under the fleet experiments' traffic, for
        # as long as the fleet takes to offer the split once.
        test = harness.dataset(PIPELINE_SETTING, "test")
        traffic = experiments.fleet_config()
        traffic = replace(traffic, duration_s=len(test) / (FLEET_CAMERAS * traffic.fps))
        spec = runtime.FleetSpec(
            scheme=runtime.collaborative_scheme(DiscriminatorPolicy(discriminator), name="discriminator"),
            config=traffic,
            cameras=FLEET_CAMERAS,
            mask=run.uploaded,
            detections=run.final_batch(),
            small_detections=harness.detections(SMALL, PIPELINE_SETTING, "test"),
        )
        deployment = experiments.fleet_deployment(test.num_classes)
        report = runtime.serve_fleet(deployment, test, spec, seed=seed)
        windows = metrics.rolling_quality(
            report, test, window_s=FLEET_WINDOW_S, duration_s=traffic.duration_s, freshness_s=FLEET_FRESHNESS_S
        )
        pool = harness.pool()
        workers = pool.workers if pool.parallel else 0
        images = sum(len(harness.dataset(PIPELINE_SETTING, split)) for split in SPLITS)
        harness.close()
        wall = time.perf_counter() - start
    return {
        "trace_root": root,
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu_start,
        "images": images,
        "workers": workers,
        "upload_pct": 100.0 * run.upload_ratio,
        "e2e_detected": e2e_counts.detected,
        "cloud_detected": cloud_counts.detected,
        "ground_truth": e2e_counts.total_ground_truth,
        "objects_pct_of_cloud": e2e_counts.ratio_to(cloud_counts),
        "e2e_map": e2e_map,
        "cloud_map": cloud_map,
        "map_pct_of_cloud": 100.0 * e2e_map / cloud_map,
        "leaked_segments": list(runtime.leaked_segments(f"repro-{os.getpid()}-")),
        "cache_bytes_written": tree_bytes(cache_dir) - bytes_before,
        **report_outcomes(report),
        **window_outcomes(windows, report),
    }


# --------------------------------------------------------------------- #
# fleet
# --------------------------------------------------------------------- #
def tiled_schedule(name: str, duration_s: float) -> runtime.RateSchedule:
    """A bundled bandwidth trace repeated end to end over ``duration_s``.

    The trace's last sample holds for one sampling interval before the next
    copy starts.
    """
    trace = runtime.bundled_trace(name)
    period = trace.times[-1] + (trace.times[-1] - trace.times[-2])
    tiles = int(np.ceil(duration_s / period))
    times = [tile * period + t for tile in range(tiles) for t in trace.times]
    rates = list(trace.rates_mbps) * tiles
    return runtime.RateSchedule.from_trace(times, rates)


def build(request: dict) -> dict:
    """Set-up of fleet-serve: build the deployed system and pickle it.

    The system (scenes, calibrated detectors, fitted discriminator) comes
    from the library's default seed; the run's seed drives only the traffic,
    in :func:`fleet`.
    """
    start = time.perf_counter()
    options = {"seed": SYSTEM_SEED, "calibration_images": FLEET_CALIBRATION_IMAGES}
    small = simulate.make_detector(SMALL, FLEET_SETTING, **options)
    big = simulate.make_detector(BIG, FLEET_SETTING, **options)
    train = data.load_dataset(FLEET_SETTING, "train", seed=SYSTEM_SEED)
    test = data.load_dataset(FLEET_SETTING, "test", seed=SYSTEM_SEED)
    small_train = DetectionBatch.coerce(small.detect_split(train))
    big_train = DetectionBatch.coerce(big.detect_split(train))
    small_test = DetectionBatch.coerce(small.detect_split(test))
    big_test = DetectionBatch.coerce(big.detect_split(test))
    discriminator, _ = core.DifficultCaseDiscriminator.fit(small_train, big_train, train.truth_batch)
    mask = np.asarray(discriminator.decide_split(small_test), dtype=bool)
    base = experiments.fleet_deployment(test.num_classes)
    system = {
        "deployment": replace(base, link=base.link.with_rate_schedule(tiled_schedule(FLEET_TRACE, FLEET_DURATION_S))),
        "test": test,
        "spec": runtime.FleetSpec(
            scheme=runtime.collaborative_scheme(DiscriminatorPolicy(discriminator), name="discriminator"),
            config=replace(experiments.fleet_config(), duration_s=FLEET_DURATION_S),
            cameras=FLEET_CAMERAS,
            mask=mask,
            detections=DetectionBatch.where(mask, big_test, small_test),
            small_detections=small_test,
            admission=runtime.EstimatedDeadlineAware(freshness_s=FLEET_FRESHNESS_S, schedule_aware=True),
        ),
        "cloud_map": metrics.mean_average_precision(big_test.above(0.5), test.truth_batch, test.num_classes),
        "cloud_recall": metrics.count_summary(big_test, test.truth_batch).detected_fraction,
    }
    Path(request["system_file"]).write_bytes(pickle.dumps(system))
    return {"setup_in_process_s": time.perf_counter() - start}


def fleet(request: dict, recorder) -> dict:
    """Serve the Table XXII helmet site for an hour of simulated time."""
    system = pickle.loads(Path(request["system_file"]).read_bytes())
    test = system["test"]
    with timed_region(recorder) as root:
        start, cpu_start = time.perf_counter(), cpu_seconds()
        report = runtime.serve_fleet(system["deployment"], test, system["spec"], seed=request["seed"])
        windows = metrics.rolling_quality(
            report, test, window_s=FLEET_WINDOW_S, duration_s=FLEET_DURATION_S, freshness_s=FLEET_FRESHNESS_S
        )
        wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu_start
    outcomes = window_outcomes(windows, report)
    served_recall = outcomes["detected_objects"] / max(outcomes["true_objects"], 1)
    return {
        "trace_root": root,
        "wall_s": wall,
        "cpu_s": cpu,
        "images": report.frames_offered,
        "workers": 0,
        "upload_pct": 100.0 * report.frames_uploaded / max(report.frames_served, 1),
        "objects_pct_of_cloud": 100.0 * served_recall / system["cloud_recall"],
        "cloud_map": system["cloud_map"],
        "map_pct_of_cloud": 100.0 * outcomes["sim_rolling_map"] / system["cloud_map"],
        "leaked_segments": list(runtime.leaked_segments(f"repro-{os.getpid()}-")),
        **report_outcomes(report),
        **outcomes,
    }


ROLES = {"pipeline": pipeline, "fleet": fleet}


def main() -> int:
    request = json.loads(sys.argv[1])
    ready = time.monotonic()
    result: dict = {"ready_s": ready - request["spawned"]}
    recorder = None
    if request.get("trace"):
        recorder = tracing.Recorder()
        tracing.install(recorder)
    if request["role"] == "probe":
        pass
    elif request["role"] == "build":
        result.update(build(request))
    else:
        result.update(ROLES[request["role"]](request, recorder))
    if recorder is not None:
        recorder.dump(Path(request["spans_file"]))
    result["peak_rss_mb"] = peak_rss_mb()
    Path(request["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
