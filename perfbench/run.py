"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-cold [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs ``perfbench/child.py`` in a fresh Python process with
``PYTHONPATH=src``, a per-run temporary cache directory inside the checkout
and the ``REPRO_*`` environment variables cleared.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it records the machine, the code, the workload's rationale and every
repetition's raw figures.

The workloads (see ``perfbench/workloads.json``):

* ``pipeline-cold`` — the small1 -> ssd operating point on voc07 at full
  scale, two workers, a fresh empty cache per repetition.
* ``fleet-serve`` — the Table XXII helmet site for one simulated hour, on a
  system a set-up process builds (twice, for the set-up median).

Repetitions start until ``--seconds`` have passed, with a floor per
workload (two for pipeline-cold, three for fleet-serve) and a cap on the
run's length (``REPEAT_BUDGET_S``); the end-to-end metrics are medians over
them.  With ``--trace 1`` a run makes a fixed
number of untraced repetitions (one for pipeline-cold, three for
fleet-serve) and then one traced repetition with the wrappers of
``perfbench/tracing.py`` installed; the per-layer metrics are the traced
repetition's self times and counts, and the tracing overhead is its
``wall_s`` minus the untraced median.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from importlib import metadata
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPEC = json.loads((HERE / "workloads.json").read_text())
#: A run stops its children and fails once this much wall time has passed.
RUN_LIMIT_S = 170.0
#: Detection workers of pipeline-cold (at most the machine's cores).
COLD_WORKERS = 2
#: Untraced repetitions per run, at least (more while --seconds last).
MIN_REPS = {"pipeline": 2, "fleet": 3}
#: Untraced repetitions of a traced run: the baseline of the tracing overhead.
TRACED_RUN_REPS = {"pipeline": 1, "fleet": 3}
#: fleet-serve system builds per run; set-up_s is their median.
FLEET_BUILDS = 2
#: No repetition starts that would, at the length of the one before, end
#: more than this many seconds after the first started: on a slow host a
#: pipeline-cold run then makes one repetition and keeps within the budget
#: of the whole benchmark.
REPEAT_BUDGET_S = 90.0


def machine() -> dict:
    """The hardware and software a result was measured on."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def code_identity() -> dict:
    """The commit when the checkout is a git repository, and a source digest."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


class Runner:
    """Spawns child repetitions and keeps the operation tally of one run."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reps: list[dict] = []
        #: Children started and not yet reaped.
        self.live: list[subprocess.Popen] = []
        self._serial = 0
        self.env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))

    def fresh_dir(self, label: str) -> str:
        path = self.workdir / f"{label}-{self._serial}"
        self._serial += 1
        path.mkdir()
        return str(path)

    def spawn(self, role: str, **fields) -> tuple[subprocess.Popen, dict]:
        """Start one child; returns the process and its request."""
        self._serial += 1
        request = {
            "role": role,
            "seed": self.args.seed,
            "out": str(self.workdir / f"result-{self._serial}.json"),
            "spans_file": str(self.workdir / f"spans-{self._serial}.json"),
            **fields,
        }
        request["spawned"] = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(request)],
            cwd=str(ROOT),
            env=self.env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        self.live.append(process)
        return process, request

    def wait(self, process: subprocess.Popen, request: dict) -> dict | None:
        """Wait for a child (killing its process group at the deadline)."""
        try:
            process.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        self.stop(process)
        self.attempted += 1
        if process.returncode != 0:
            self.failures.append(f"{request['role']} child exited with code {process.returncode}")
            self.failed += 1
            return None
        result = json.loads(Path(request["out"]).read_text())
        result["role"] = request["role"]
        if request.get("trace"):
            result["spans_file"] = request["spans_file"]
        self.reps.append(result)
        return result

    def run(self, role: str, **fields) -> dict | None:
        return self.wait(*self.spawn(role, **fields))

    def stop(self, process: subprocess.Popen) -> None:
        """Kill a child's process group and reap the child.

        The child leads its own session: this also stops any worker a
        crashed, timed-out or interrupted child left behind.
        """
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
        self.live.remove(process)

    def stop_all(self) -> None:
        for process in list(self.live):
            self.stop(process)

    def check(self, label: str, ok: bool) -> None:
        """Record a failed output check."""
        if not ok:
            self.failures.append(label)

    @contextlib.contextmanager
    def operation(self):
        """Scope one repetition's checks: any failure fails that operation."""
        before = len(self.failures)
        yield
        if len(self.failures) > before:
            self.failed += 1


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
#: Outcome metrics: deterministic for a seed, checked against the record.
OUTCOMES = (
    "upload_pct",
    "objects_pct_of_cloud",
    "map_pct_of_cloud",
    "sim_latency_p50_s",
    "sim_latency_p99_s",
    "sim_rolling_map",
    "sim_fresh_pct",
)


def check_rep(runner: Runner, workload: str, rep: dict) -> None:
    """Serving invariants, cache isolation, and outcomes against the record."""
    kind = WORKLOADS[workload][0]
    runner.check(
        "served + shed + refused != offered",
        rep["frames_served"] + rep["frames_dropped"] == rep["frames_offered"]
        and 0 <= rep["frames_shed"] <= rep["frames_dropped"],
    )
    runner.check("p50 > p99", rep["sim_latency_p50_s"] <= rep["sim_latency_p99_s"])
    runner.check("the rolling windows do not hold every offered frame", rep["windows_cover_offered"])
    runner.check("the rolling windows' dropped frames != offered - served", rep["windows_match_unserved"])
    runner.check("a rolling window has stale < 0 or served > frames", rep["windows_consistent"])
    runner.check(f"leaked shared-memory segments {rep['leaked_segments']}", not rep["leaked_segments"])
    if kind == "pipeline":
        runner.check(
            "detected objects exceed ground truth",
            max(rep["e2e_detected"], rep["cloud_detected"]) <= rep["ground_truth"],
        )
    if workload == "pipeline-cold":
        runner.check("cold run stored no cache shards", rep["cache_bytes_written"] > 0)
    recorded = SPEC["recorded"].get(str(runner.args.seed), {}).get(kind)
    for name in OUTCOMES:
        value = rep[name]
        if recorded is not None:
            expected = recorded[name]
            ok = abs(value - expected) <= SPEC["recorded_rel_tolerance"] * abs(expected)
            runner.check(f"{name} {value!r} != recorded {expected!r}", ok)
        else:
            low, high = SPEC["bands"][kind][name]
            runner.check(f"{name} {value!r} outside [{low}, {high}]", low <= value <= high)


# --------------------------------------------------------------------- #
# workloads: each returns (untraced repetitions, set-up seconds, traced one)
# --------------------------------------------------------------------- #
def repeat(runner: Runner, kind: str, traced: bool, fields: Callable[[], dict]) -> tuple[list[dict], dict | None]:
    """Untraced repetitions until ``--seconds`` pass, then the traced one.

    ``fields`` gives each repetition's request fields.  A traced run makes
    ``TRACED_RUN_REPS`` untraced repetitions, whatever ``--seconds`` says.
    """
    floor = TRACED_RUN_REPS[kind] if traced else MIN_REPS[kind]
    reps: list[dict] = []
    started = time.monotonic()
    while len(reps) < floor or (not traced and time.monotonic() - started < runner.args.seconds):
        if reps and time.monotonic() - started + last > REPEAT_BUDGET_S:
            break
        began = time.monotonic()
        rep = runner.run(kind, **fields())
        if rep is None:
            return reps, None
        reps.append(rep)
        last = time.monotonic() - began
    traced_rep = runner.run(kind, trace=True, **fields()) if traced else None
    return reps, traced_rep


def pipeline_cold(runner: Runner, traced: bool) -> tuple[list[dict], list[float], dict | None]:
    # Set-up is process start plus imports; a probe adds a sample for its median.
    probes = [runner.run("probe")]
    workers = min(COLD_WORKERS, os.cpu_count() or 1)
    reps, traced_rep = repeat(
        runner, "pipeline", traced, fields=lambda: {"cache_dir": runner.fresh_dir("cold"), "workers": workers}
    )
    setups = [p["ready_s"] for p in probes if p is not None] + [rep["ready_s"] for rep in reps]
    return reps, setups, traced_rep


def fleet_serve(runner: Runner, traced: bool) -> tuple[list[dict], list[float], dict | None]:
    system_file = str(runner.workdir / "fleet-system.pickle")
    setups = []
    for _ in range(FLEET_BUILDS):
        built = runner.run("build", system_file=system_file)
        if built is None:
            return [], setups, None
        setups.append(built["ready_s"] + built["setup_in_process_s"])
    reps, traced_rep = repeat(runner, "fleet", traced, fields=lambda: {"system_file": system_file})
    return reps, setups, traced_rep


WORKLOADS = {
    "pipeline-cold": ("pipeline", pipeline_cold),
    "fleet-serve": ("fleet", fleet_serve),
}


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    """Median of each end-to-end metric over the untraced repetitions."""

    def median(key):
        return statistics.median(key(rep) for rep in reps)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda r: r["wall_s"]),
        "images_per_s": median(lambda r: r["images"] / r["wall_s"]),
        "sim_frames_per_s": median(lambda r: r["frames_offered"] / r["wall_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        **{name: median(lambda r, n=name: r[n]) for name in OUTCOMES},
    }


def per_layer(runner: Runner, workload: str, untraced_wall: float, traced: dict) -> dict[str, float]:
    """Self times and counts of the traced repetition's timed region.

    ``untraced_wall`` is the median ``wall_s`` of the run's untraced
    repetitions; the traced one's excess over it is the tracing overhead.
    """
    dump = json.loads(Path(traced["spans_file"]).read_text())
    spans = dump["spans"]
    root = traced["trace_root"]
    table = tracing.layer_table(spans, root)
    counts = dump["region_counts"].get("workload", {})
    fired = {span[0] for span in spans} | set(dump["counts"])
    for name in SPEC["workloads"][workload]["required_spans"]:
        runner.check(f"traced layer {name} never fired", name in fired)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    calibrating = {span[3] for span in spans[root:] if span[0] == "simulate.calibrate_profile"}
    built = sum(spans[index][0] == "simulate.make_detector" for index in calibrating)
    images = counts.get("simulate.detect_split.images", 0)
    detect_total = table.get("simulate.detect_split", {}).get("total_s", 0.0)
    requested = counts.get("experiments.cache.shards_requested", 0)
    loaded = counts.get("experiments.cache.shards_loaded", 0)
    offered = traced["frames_offered"]
    values = {
        "simulate.make_detector.calls": built,
        "simulate.detect_split.images": images,
        "simulate.detect.s_per_image": detect_total / images if images else 0.0,
        "data.load_dataset.images": counts.get("data.load_dataset.images", 0),
        "experiments.cache.shards_stored": counts.get("experiments.cache.shards_stored", 0),
        "experiments.cache.shards_loaded": loaded,
        "experiments.cache.bytes_written": traced.get("cache_bytes_written", 0),
        "experiments.cache.hit_ratio": loaded / requested if requested else 0.0,
        "runtime.pool.workers": traced["workers"],
        "runtime.shm.leaked_segments": len(traced["leaked_segments"]),
        "runtime.frames_offered": offered,
        "runtime.frames_served": traced["frames_served"],
        "runtime.frames_uploaded": traced["frames_uploaded"],
        "runtime.served_ratio": traced["frames_served"] / offered if offered else 0.0,
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced["wall_s"] - untraced_wall,
        "trace.unattributed_s": self_s("workload"),
        "trace.spans": sum(row["calls"] for row in table.values()),
    }
    for metric in SPEC["per_layer_sources"]["self_s"]:
        values[metric + ".s"] = self_s(metric)
    for metric in SPEC["per_layer_sources"]["calls"]:
        values[metric + ".calls"] = calls(metric)
    for metric in SPEC["per_layer_sources"]["counts"]:
        values[metric] = counts.get(metric, 0)
    if workload == "pipeline-cold":
        runner.check("cold run loaded cache shards", loaded == 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload][1]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    spans_kept = scratch / "spans" / f"{args.workload}-seed{args.seed}.json"
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    runner = Runner(args, workdir)
    # A terminated run unwinds through the ``finally`` below, which stops
    # every child it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        reps, setups, traced_rep = workload(runner, bool(args.trace))
        if not reps or (args.trace and traced_rep is None):
            print(f"perfbench: no repetition completed: {runner.failures}", file=sys.stderr)
            return 1
        for rep in reps:
            with runner.operation():
                check_rep(runner, args.workload, rep)
        if args.trace:
            with runner.operation():
                check_rep(runner, args.workload, traced_rep)
                untraced_wall = statistics.median(rep["wall_s"] for rep in reps)
                values = per_layer(runner, args.workload, untraced_wall, traced_rep)
            declared = bench["per_layer"]
            spans_kept.parent.mkdir(exist_ok=True)
            shutil.copyfile(traced_rep["spans_file"], spans_kept)
        else:
            values = end_to_end(reps, setups)
            declared = bench["end_to_end"]
    finally:
        runner.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "code": code_identity(),
        "spec": SPEC["workloads"][args.workload],
        "predictions": [p for p in SPEC["predictions"] if args.workload in p["workloads"]],
        "setups_s": setups,
        "repetitions": runner.reps,
        "failures": runner.failures,
        "spans_file": str(spans_kept.relative_to(ROOT)) if args.trace else None,
    }
    print(json.dumps({"perfbench": info}))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
