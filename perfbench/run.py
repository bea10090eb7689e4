#!/usr/bin/env python3
"""Layered benchmark of the PBQP planner.

Run from the repository root::

    python3 perfbench/run.py --workload cold-plan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload warm-replan --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload execute --steadiness 5
    python3 perfbench/run.py --write-expected

Workloads (``design.json`` lists their keys and why each exists):
``cold-plan``, ``warm-replan``, ``service-mixed`` and ``execute``.

``--trace 0`` times every op from outside with no wrappers installed and
reports the end-to-end metrics.  ``--trace 1`` measures half the time
untraced and half with a span around each layer's public entry point, and
reports the per-layer metrics, each layer's self-time share per op key, and
the tracing overhead.  Either way every op's output is checked; a failed
check counts in ``failed`` instead of stopping the run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are scaled to a reference host speed: a fixed pure-Python probe loop
runs between ops (``workloads.HostProbe``), and each op time is multiplied by
the reference probe time over the probe time measured around it.  On a
shared host whole runs slow down by 20-60% at once; the scaling cancels that
common slowdown and keeps two sets of runs comparable.  The unscaled figure
is printed beside the scaled one.

``--steadiness N`` runs the workload (or ``all``) N times with seeds
``seed .. seed+N-1`` and prints, per end-to-end metric, the median,
quartiles, min/max and whether the quartile spread fits the metric's bound
in ``BENCHMARK.json``; ``--sets 2`` repeats that with fresh seeds and checks
that the second medians are within bound of the first.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The environment every run executes under, so runs compare.  Plans are
#: selected for one thread, so numpy's BLAS runs on one thread too (a second
#: BLAS thread also makes execute times swing with whatever holds the other
#: core).  glibc gives each new thread of the service its own malloc arena,
#: which makes peak RSS swing by 10-20% between runs; two arenas keep it
#: within 1%.
PINNED_ENVIRONMENT = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_ARENA_MAX": "2",
}

if __name__ == "__main__" and any(
    os.environ.get(name) != value for name, value in PINNED_ENVIRONMENT.items()
):
    # The C libraries read these once, at start-up: restart under them.
    os.environ.update(PINNED_ENVIRONMENT)
    os.execv(sys.executable, [sys.executable] + sys.argv)

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, HostProbe  # noqa: E402

#: How many times set-up runs in one invocation (``setup_s`` is the median).
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(measurement, setup_times, tail_q: float) -> dict:
    """The end-to-end metrics; times are scaled to the reference host speed."""
    samples = measurement.scaled
    if not samples:
        raise RuntimeError("no op completed")
    medians = {key: statistics.median(times) for key, times in samples.items()}
    ratios = [t / medians[key] for key, times in samples.items() for t in times]
    op_ms = 1e3 * geomean(medians.values())
    raw_op_ms = 1e3 * geomean(statistics.median(t) for t in measurement.samples.values())
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms": op_ms,
        "op_tail_ms": op_ms * quantile(ratios, tail_q),
        "ops_per_s": measurement.ops / measurement.load_s,
        "raw_op_ms": raw_op_ms,
    }


# ---------------------------------------------------------------------------
# Host fingerprint and calibration
# ---------------------------------------------------------------------------


def host_fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
    }


def calibrate() -> dict:
    """A fixed numpy GEMM and a fixed pure-Python loop, median of 5 each."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)
    a @ b  # the first product loads and initializes the BLAS library
    gemm, loop = [], []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            a @ b
        gemm.append(time.perf_counter() - start)
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        loop.append(time.perf_counter() - start)
    return {
        "gemm_256x20_ms": 1e3 * statistics.median(gemm),
        "py_loop_200k_ms": 1e3 * statistics.median(loop),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def span_self_test(spec: dict, recorder, hit_keys) -> list:
    """Layers that never fired on their workload, or fired where they never run.

    ``design.json`` names, per workload, the layers it loads, the layers it
    bypasses, and (service) the layers a cache hit bypasses.  A wrapper bound
    to a stale imported name never fires; a cache that stopped working fires
    where it should not.
    """
    counts = tracing.layer_counts(recorder)
    problems = [f"{layer} never fired" for layer in spec["loads"] if not counts[layer]]
    problems += [
        f"{layer} fired {counts[layer]} times" for layer in spec["bypasses"] if counts[layer]
    ]
    on_hits = set(spec.get("bypassed_by_hits", ()))
    hit_spans = sum(1 for span in recorder.spans if span.layer in on_hits and span.op in hit_keys)
    if hit_spans:
        problems.append(f"{hit_spans} planner spans on service hits")
    return problems


def run_once(args) -> int:
    design = json.loads((HERE / "design.json").read_text())
    spec = design["workloads"][args.workload]
    checker = checks.Checker(checks.load_expected())
    workload = WORKLOADS[args.workload](design, args.seed, checker)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - start
            probe = HostProbe()
            probe.run(10)
            setup_times.append(elapsed * probe.speed())
        workload.prepare()
        problems = []
        if not checks.self_test():
            problems.append("check self-test: injected faults were not counted")
        gc.collect()
        # Calibrated after set-up: a process's first second of BLAS calls can
        # run at a tenth of the steady rate.
        calibration = {"start": calibrate()}
        if args.trace:
            values, units, span_problems = traced_run(args, spec, workload, setup_times)
            problems += span_problems
        else:
            measurement = workload.measure(args.seconds)
            values = end_to_end(
                measurement, setup_times, spec["tail_quantile"]
            )
            units = dict(END_TO_END)
            report_end_to_end(args, spec, measurement, values, checker)
    finally:
        workload.close()
    calibration["end"] = calibrate()

    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    print("calibration " + json.dumps(calibration, sort_keys=True))
    print(f"setup_s runs: {', '.join(f'{t:.3f}' for t in setup_times)}")
    attempted, failed = checker.attempted, checker.failed
    print(f"error_rate {failed / max(1, attempted):.4f} ({failed} of {attempted} ops failed)")
    for message, count in checker.reasons.most_common(10):
        print(f"  failed x{count}: {message}")
    for problem in problems:
        print(f"  self-test: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def traced_run(args, spec, workload, setup_times):
    """Half the time untraced, half with spans; returns the per-layer metrics."""
    untraced = workload.measure(args.seconds / 2)
    recorder = tracing.Recorder(workload.label_request)
    before = workload.counters()
    uninstall = tracing.install(recorder)
    try:
        traced = workload.measure(args.seconds / 2, recorder)
    finally:
        uninstall()
    after = workload.counters()
    extra = {name: (after[name] - before[name]) / max(1, traced.ops) for name in after}
    documents = extra.get("service.app.doc_hits", 0) + extra.get("service.app.doc_misses", 0)
    if documents:
        extra["service.app.doc_hit_ratio"] = extra["service.app.doc_hits"] / documents
    base = end_to_end(untraced, setup_times, spec["tail_quantile"])["op_ms"]
    with_spans = end_to_end(traced, setup_times, spec["tail_quantile"])["op_ms"]
    extra["trace.overhead_pct"] = 100.0 * (with_spans / base - 1.0)
    values = tracing.per_layer_metrics(recorder, traced.samples, extra)
    report_trace(args, traced, tracing.key_shares(recorder, traced.samples), values)
    problems = [
        f"span self-test: {problem}"
        for problem in span_self_test(spec, recorder, getattr(workload, "grid", {}))
    ]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return values, units, problems


def report_end_to_end(args, spec, measurement, values, checker) -> None:
    print(f"workload {args.workload}  seed {args.seed}  {measurement.ops} ops in "
          f"{measurement.wall_s:.1f} s  (tail quantile p{round(100 * spec['tail_quantile'])})")
    print(f"  {'op key':44s} {'n':>6s} {'median ms':>10s} {'p90 ms':>10s}")
    for key in sorted(measurement.samples):
        times = measurement.samples[key]
        print(
            f"  {key:44s} {len(times):6d} {1e3 * statistics.median(times):10.3f} "
            f"{1e3 * quantile(times, 0.9):10.3f}"
        )
    print(f"  host speed {measurement.speed:.3f} of the reference; unscaled op_ms "
          f"{values['raw_op_ms']:.4f} ms")
    for name, unit in END_TO_END:
        alias = spec["aliases"].get(name)
        note = f"  ({alias})" if alias else ""
        print(f"  {name:12s} {values[name]:12.4f} {unit}{note}")
    if checker.plan_costs:
        # Deterministic, so it is a check (stored totals) rather than a metric.
        cost = geomean(checker.plan_costs.values())
        print(f"  plan_cost_ms {cost:12.4f} ms  (geometric mean of the checked plans' total_ms)")


def report_trace(args, traced, shares, values) -> None:
    print(f"workload {args.workload}  seed {args.seed}  traced {traced.ops} ops")
    print("  self-time share per op key (layers above 0.5%), and the unattributed remainder")
    for key in sorted(shares):
        row = shares[key]
        parts = [
            f"{layer} {100 * share:.1f}%"
            for layer, share in sorted(row.items(), key=lambda item: -item[1])
            if layer != "unattributed" and share >= 0.005
        ]
        median = 1e3 * statistics.median(traced.samples[key])
        print(f"  {key:44s} {median:9.3f} ms  " + ", ".join(parts)
              + f"; unattributed {100 * row['unattributed']:.1f}%")
    for name, unit, _ in tracing.PER_LAYER:
        if values[name]:
            print(f"  {name:42s} {values[name]:14.4f} {unit}")


# ---------------------------------------------------------------------------
# Steadiness mode
# ---------------------------------------------------------------------------


def steadiness(args) -> int:
    """Run each workload N times per set; print spreads against the bounds."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        first = None
        for index in range(args.sets):
            seeds = [args.seed + 1000 * index + i for i in range(args.steadiness)]
            runs = []
            for seed in seeds:
                command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(command, capture_output=True, text=True, timeout=600)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    print(f"{name} seed {seed}: exit {done.returncode}, result {result}")
                    print(done.stderr[-2000:])
                    status = 1
                    continue
                runs.append({key: value["value"] for key, value in result["metrics"].items()})
            if len(runs) < 2:
                continue
            print(f"{name} set {index + 1}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
            print(f"  {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'min':>11s} "
                  f"{'max':>11s} {'spread':>7s} {'bound':>6s}")
            medians = {}
            for metric in metrics:
                metric_name, bound = metric["name"], metric["bound"]
                series = [run[metric_name] for run in runs]
                q1, q2, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / q2
                medians[metric_name] = q2
                verdict = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
                if metric_name == "setup_s":
                    verdict += " (spread not gated)"
                print(f"  {metric_name:12s} {q2:11.4f} {q1:11.4f} {q3:11.4f} {min(series):11.4f} "
                      f"{max(series):11.4f} {spread:7.3f} {bound:6.2f}  {verdict}")
            if first is None:
                first = medians
                continue
            for metric in metrics:
                metric_name, bound = metric["name"], metric["bound"]
                change = medians[metric_name] / first[metric_name] - 1.0
                worse = change if metric["better"] == "lower" else -change
                verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
                print(f"  set {index + 1} against set 1: {metric_name:12s} "
                      f"{100 * change:+7.2f}%  {verdict}")
                if worse > bound:
                    status = 1
    return status


# ---------------------------------------------------------------------------
# Stored plans
# ---------------------------------------------------------------------------


def write_expected() -> int:
    """Regenerate expected.json from this tree (plans, totals, frontier sizes)."""
    from repro.cost.serialize import plan_to_dict

    design = json.loads((HERE / "design.json").read_text())
    session = repro.Session()
    expected = {}
    for spec in design["workloads"].values():
        for key in spec["keys"]:
            model, platform_name, dtype, batch = key
            plan = session.plan(model, platform_name, dtype=dtype, batch=batch)
            document = plan_to_dict(plan.network_plan)
            expected[checks.key_label(key)] = {
                "digest": checks.plan_digest(document),
                "total_ms": document["total_ms"],
            }
        for key in spec.get("frontier_keys", ()):
            model, platform_name, dtype, batch = key
            frontier = session.plan_frontier(model, platform_name, batch=batch, dtypes=(dtype,))
            expected[f"frontier:{checks.key_label(key)}"] = {"points": len(frontier.points)}
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} entries to {checks.EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="cold-plan")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run the workload N times with consecutive seeds")
    parser.add_argument("--sets", type=int, default=1,
                        help="with --steadiness: repeat the N runs this many times")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json from this tree and exit")
    args = parser.parse_args(argv)
    if args.write_expected:
        return write_expected()
    if args.steadiness:
        return steadiness(args)
    if args.workload == "all":
        parser.error("--workload all needs --steadiness")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
