"""plstab benchmark driver.

    python3 perfbench/run.py --workload {count,sweep,cotype} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  One client, one process, one thread, closed loop: the driver
builds the seeded request stream of the workload, then replays it pass
after pass for ``--seconds`` and checks every reply.  Each request's
latency is the median over its repeats of its wall time scaled to a nominal
machine speed by ``speed.SpeedTrack``, which times a fixed kernel between
requests; this keeps the shared VM's drift in speed out of the figures.
Set-up times are scaled the same way.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (see README.md); with ``--trace 1`` they are the per-layer
figures of traced passes, wrapped from outside by ``layers.Tracer``.  The
line before it carries the details: input and reply fingerprints, the tail
percentile and its sample count, the error rate, and the unscaled wall-time
figures beside the median probe time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import layers
import speed
import workloads

SETUP_REPEATS = 5
SETUP_PROBES = 3         # speed probes on each side of a set-up
TAIL_BEYOND = 10        # samples the tail percentile must leave beyond it
PERCENTILES = (99.99, 99.9, 99, 95, 90, 75, 50)
MAX_REASONS = 5         # failure reasons echoed in the details line


class Replay:
    """Replays a stream and keeps per-request latencies and reply digests."""

    def __init__(self, stream: workloads.Stream):
        self.ops = stream.ops
        self.latencies: list[list[float]] = [[] for _ in self.ops]
        self.spans: list[list[tuple[float, float]]] = [[] for _ in self.ops]
        self.speed = speed.SpeedTrack()
        self.digests: list[str | None] = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, seconds: float) -> list[float]:
        """Replay whole passes; stop at the deadline once one pass is done.

        Returns the busy time of each complete pass.
        """
        deadline = time.perf_counter() + seconds
        pass_times = []
        while True:
            busy = 0.0
            for i, op in enumerate(self.ops):
                if pass_times and time.perf_counter() >= deadline:
                    return pass_times
                busy += self._request(i, op)
            pass_times.append(busy)

    def _request(self, i: int, op: workloads.Op) -> float:
        self.speed.maybe_probe()
        start = time.perf_counter()
        try:
            reply = op.call()
        except Exception as exc:  # a crash is a failed request, not a stop
            elapsed = time.perf_counter() - start
            reply, why = repr(exc), f"raised {exc!r}"
        else:
            elapsed = time.perf_counter() - start
            try:
                why = op.check(reply)
            except (KeyError, TypeError, ValueError) as exc:
                why = f"malformed reply: {exc!r}"
        digest = hashlib.sha256(workloads.reply_bytes(reply)).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif self.digests[i] != digest and why is None:
            why = "reply differs from its first run"
        self.attempted += 1
        self.latencies[i].append(elapsed)
        self.spans[i].append((start, start + elapsed))
        if why is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{op.name}: {why}")
        return elapsed

    def medians(self) -> list[float]:
        return [statistics.median(samples) for samples in self.latencies]

    def paced_medians(self) -> list[float]:
        """Per-request median latency scaled to the nominal machine speed."""
        self.speed.probe()  # the last requests get probes on both sides
        return [statistics.median(
                    elapsed * self.speed.scale(start, end)
                    for elapsed, (start, end) in zip(samples, spans))
                for samples, spans in zip(self.latencies, self.spans)]

    def replies_digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def _setup(workload: str, seed: int):
    start = time.perf_counter()
    lib = workloads.import_plstab()
    stream = workloads.BUILDERS[workload](lib, seed)
    return time.perf_counter() - start, lib, stream


def _latency_figures(medians: list[float]):
    """ops_per_s, op_p50_ms, op_tail_ms and the tail percentile."""
    medians = sorted(medians)
    n = len(medians)
    # highest listed percentile with at least TAIL_BEYOND requests beyond it
    tail = next((p for p in PERCENTILES if n * (100 - p) / 100 >= TAIL_BEYOND),
                PERCENTILES[-1])
    tail_rank = max(1, math.ceil(n * tail / 100))  # nearest-rank percentile
    return (n / sum(medians), 1000 * statistics.median(medians),
            1000 * medians[tail_rank - 1], tail, tail_rank)


def _end_to_end(replay: Replay, setup_times: list[float]):
    ops, p50, tail_ms, tail, tail_rank = _latency_figures(replay.paced_medians())
    n = len(replay.ops)
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    wall = _latency_figures(replay.medians())
    details = {
        "op_tail_percentile": tail,
        "op_tail_samples": n,
        "op_tail_beyond": n - tail_rank,
        "wall_ops_per_s": wall[0],
        "wall_op_p50_ms": wall[1],
        "wall_op_tail_ms": wall[2],
        "speed_probes": len(replay.speed.took),
        "median_probe_s": replay.speed.median_probe_s(),
    }
    return metrics, details


def _traced(replay: Replay, lib, workload: str, seed: int, seconds: float):
    """Per-layer figures from traced passes that alternate with untraced ones.

    Alternating keeps drift in the machine's speed out of the overhead ratio.
    """
    tracer = layers.Tracer()
    tracer.install()
    try:
        workloads.BUILDERS[workload](lib, seed)  # traced set-up, same files
    finally:
        tracer.uninstall()
    setup_stats = tracer.take()
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        untraced += replay.run(0)  # one whole pass
        tracer.install()
        try:
            traced += replay.run(0)
        finally:
            tracer.uninstall()
        passes.append(tracer.take())
    problems = []
    counts = [layers.exact_counts(stats) for stats in passes]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    loads = sum(op.loads_map for op in replay.ops)
    certified = counts[0].get("simplicial.certify_map.calls", 0)
    if certified != loads:
        problems.append(f"certify_map ran {certified} times for {loads} map loads")
    for stats in passes:
        stats["batch.cells"]["setup_s"] = setup_stats["batch.cells"]["time_s"]
    per_pass = [layers.per_layer_metrics(stats) for stats in passes]
    # counts and ratios repeat exactly (checked above); times take the median
    metrics = {name: (statistics.median(p[name][0] for p in per_pass)
                      if unit == "s" else value, unit)
               for name, (value, unit) in per_pass[0].items()}
    # traced requests per second over untraced, from whole-pass busy times
    metrics["trace.overhead_ratio"] = (
        statistics.median(untraced) / statistics.median(traced), "ratio")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "plstab" / "__init__.py").is_file():
        print(f"no plstab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)  # argv in the stream names files relative to here
    try:
        details, line = _run(args)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(line))
    return 0


def _run(args):
    wrong = checks.self_test()
    setup_times, pace = [], speed.SpeedTrack()
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            pace.probe()
        start = time.perf_counter()
        elapsed, lib, stream = _setup(args.workload, args.seed)
        for _ in range(SETUP_PROBES):
            pace.probe()
        setup_times.append(elapsed * pace.scale(start, start + elapsed))
    replay = Replay(stream)
    problems = [f"checker self-test misjudged: {name}" for name in wrong]
    if args.trace:
        metrics, found = _traced(replay, lib, args.workload, args.seed,
                                 args.seconds)
        problems += found
        extra = {}
    else:
        replay.run(args.seconds)
        metrics, extra = _end_to_end(replay, setup_times)
    runs = min(len(samples) for samples in replay.latencies)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs_sha256": stream.inputs.hexdigest(),
        "replies_sha256": replay.replies_digest(),
        "requests_per_pass": len(replay.ops),
        "complete_passes": runs,
        "error_rate": replay.failed / replay.attempted,
        "setup_runs_s": setup_times,
        "failures": replay.reasons,
        "problems": problems,
        **extra,
    }
    line = {
        "correct": replay.failed == 0 and not problems,
        "attempted": replay.attempted,
        "failed": replay.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return details, line


if __name__ == "__main__":
    sys.exit(main())
