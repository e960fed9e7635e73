"""Closed-loop benchmark of the served auction service.

Run one workload and print its metrics as the last line of output::

    python3 perfbench/run.py --workload rw-durable --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans around the calls into
each layer and prints the per-layer metrics instead.  Every reply and
the final state are checked against the model in ``oracle.py``; a
mismatch makes ``correct`` false and the exit code 1.

Check how steady the end-to-end metrics are across seeds::

    python3 perfbench/run.py --steadiness --runs 10 --sets 2 [--workload NAME] [--first-seed N]

runs each workload ``--runs`` times in each set (set 1 on seeds 1..10,
set 2 on seeds 11..20, interleaved), each run in its own process, and
prints every metric's median, quartiles and spread beside its bound, and
how far the second set's median moved from the first's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from stats import percentile, samples_needed, spread  # noqa: E402
from workloads import WORKLOADS, Served  # noqa: E402

from repro.loadgen.workload import OP_CLASSES  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: The read-class tail percentile of the end-to-end metrics.  On a
#: shared two-core host the 99th percentile lands among requests hit by
#: host stalls and its spread across seeds exceeded the largest allowed
#: bound, so it is a per-layer figure (``frontend.read_p99_ms``).
READ_TAIL = 90.0
#: Read-class replies a timed phase collects at least, so that the
#: traced run's 99th percentile has ten samples beyond it.
MIN_READS = samples_needed(99.0)


def work_directory() -> str:
    """Scratch space for durable stores, inside the checkout."""
    path = os.path.join(os.getcwd(), ".perfbench-work", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def set_up(spec, seed: int, workdir: str):
    """Build the workload :data:`SETUPS` times; keep the last one.

    Returns the served workload and the median set-up time."""
    times = []
    served = None
    for index in range(SETUPS):
        if served is not None:
            # Drop the discarded set-up, reference cycles included, so
            # that no two stores are resident at once and no collector
            # pass over its remains falls inside the next timing.
            served.remove()
            served = None
            gc.collect()
        start = time.perf_counter()
        served = Served(spec, seed, os.path.join(workdir, f"setup-{index}"))
        times.append(time.perf_counter() - start)
    return served, statistics.median(times)


def timed_phase(served, seconds: float, tracer=None) -> dict:
    """Run whole rounds of operations (:class:`workloads.Rounds`) for
    *seconds*.

    The phase also runs until it holds :data:`MIN_READS` read-class
    replies.  The process's peak resident memory is read when it ends,
    before the checks build the model and recover the directory."""
    first = len(served.replies)
    reads = 0
    if tracer is not None:
        tracer.start(served)
    start = time.perf_counter()
    while True:
        for op in served.rounds.next_round():
            if tracer is not None:
                tracer.begin_request()
            reply = served.call(op)
            if tracer is not None:
                tracer.end_request(reply)
            if OP_CLASSES[op.name] == "read":
                reads += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and reads >= MIN_READS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.stop(served)
    return {
        "elapsed": elapsed,
        "replies": served.replies[first:],
        "peak_rss_mb": peak_rss_mb,
    }


def end_to_end(phase: dict, setup_s: float) -> dict:
    replies = phase["replies"]
    reads = sorted(
        reply.seconds * 1000.0
        for reply in replies
        if OP_CLASSES[reply.op.name] == "read"
    )
    return {
        "ops_per_s": (len(replies) / phase["elapsed"], "ops/s"),
        "read_p50_ms": (percentile(reads, 50.0), "ms"),
        "read_p90_ms": (percentile(reads, READ_TAIL), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (phase["peak_rss_mb"], "MB"),
    }


def run(args) -> int:
    spec = WORKLOADS[args.workload]
    workdir = work_directory()
    tracer = layers.LayerTrace() if args.trace else None
    served = None
    try:
        if tracer is not None:
            tracer.install()
        served, setup_s = set_up(spec, args.seed, workdir)
        phase = timed_phase(served, args.seconds, tracer)
        failures = [r for r in phase["replies"] if r.error is not None]
        for reply in failures[:5]:
            print(f"# {spec.name}: {reply.op.name} failed: {reply.error}",
                  file=sys.stderr)
        model = served.new_model()
        try:
            served.check_replies(model)
            checked = served.final_checks(model)
        except AssertionError as exc:  # OracleError, or a diverged fleet
            checked = None
            print(f"# {spec.name}: incorrect: {exc}", file=sys.stderr)
        if tracer is not None:
            metrics = tracer.metrics(phase)
        else:
            metrics = end_to_end(phase, setup_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if served is not None:
            served.close()
            served = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it
    print(
        f"# {spec.name}: seed {args.seed}, {len(phase['replies'])} timed "
        f"ops in {phase['elapsed']:.2f} s, {model.checked} replies "
        f"checked, final checks {sorted(checked or ())}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": checked is not None,
        "attempted": len(phase["replies"]),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if checked is not None else 1


def steadiness(args) -> int:
    """Run each workload ``--runs`` times in each of ``--sets`` sets and
    report each metric's spread beside its bound from ``BENCHMARK.json``,
    then how far each later set's median moved from the first set's.

    The sets are interleaved run by run (set 1 seed 1, set 2 seed 11,
    set 1 seed 2, ...), so a drift of the host's speed falls on every
    set alike."""
    bench = benchmark_json()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [args.workload] if args.workload else [
        w["name"] for w in bench["workloads"]
    ]
    worst = setup = (0.0, "")
    for name in names:
        sets = [{"values": {}, "attempted": 0, "failed": 0}
                for _ in range(args.sets)]
        for index in range(args.runs):
            for number, record in enumerate(sets):
                seed = args.first_seed + number * args.runs + index
                result = run_once(name, seed, args.seconds)
                record["attempted"] += result["attempted"]
                record["failed"] += result["failed"]
                for metric, entry in result["metrics"].items():
                    record["values"].setdefault(metric, []).append(
                        entry["value"]
                    )
                print(
                    f"  set {number + 1} seed {seed}: " + " ".join(
                        f"{metric}={entry['value']:.4g}"
                        for metric, entry in result["metrics"].items()
                    ),
                    flush=True,
                )
        medians = []
        for number, record in enumerate(sets):
            print(
                f"{name} set {number + 1}: {args.runs} runs, "
                f"{record['attempted']} ops, {record['failed']} failed"
            )
            print(
                f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
                f"{'spread':>9}{'bound':>8}"
            )
            medians.append({})
            for metric, series in record["values"].items():
                s = spread(series)
                bound = bounds[metric]["bound"]
                medians[-1][metric] = s["median"]
                if metric == "setup_s":
                    # Set-up is gated on its median alone, not its spread.
                    setup = max(setup, (s["spread"] / bound, name))
                else:
                    worst = max(worst, (s["spread"] / bound,
                                        f"{name} {metric}"))
                print(
                    f"  {metric:<14}{s['median']:>12.4f}{s['q1']:>12.4f}"
                    f"{s['q3']:>12.4f}{s['spread']:>9.3f}{bound:>8.2f}"
                )
        for number in range(1, len(sets)):
            print(f"{name} set {number + 1} against set 1 (median, worse by):")
            for metric, first in medians[0].items():
                later = medians[number][metric]
                change = (later - first) / first
                if bounds[metric]["better"] == "higher":
                    change = -change
                worst = max(worst, (change / bounds[metric]["bound"],
                                    f"{name} {metric} median"))
                print(
                    f"  {metric:<14}{first:>12.4f}{later:>12.4f}"
                    f"{change:>+9.3f}{bounds[metric]['bound']:>8.2f}"
                )
    print(f"largest spread or median change over its bound: "
          f"{worst[0]:.2f} ({worst[1]})")
    print(f"largest setup_s spread over its bound: "
          f"{setup[0]:.2f} ({setup[1]})")
    return 0


def run_once(name: str, seed: int, seconds: float) -> dict:
    """One run of the benchmark command in its own process."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed}: incorrect output")
    return result


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        help="length of the timed phase (default: BENCHMARK.json's)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_json()["run_seconds"]
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
