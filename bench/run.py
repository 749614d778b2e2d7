"""contractlab benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload verify-batch --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.

With ``--trace 0`` the run sets up its inputs at least three times and for
at least a second (``setup_s`` is the median), then runs the workload's
fixed batches for ``--seconds`` (see workloads.py), checking every output,
and prints the end-to-end metrics with times in reference seconds (see
speed.py).  The tail latency is the highest percentile of TAIL_LADDER that
has at least ten samples above it.

With ``--trace 1`` it runs a fixed number of batches untraced and then the
same batches traced, and prints the per-layer metrics (see tracer.py).

Counters and a digest of the first batch's outputs are printed next to the
timings and kept in ``.bench_out/`` under the hash of the code; a later run
of the same code and seed that disagrees with them fails.  The process exits
0 whenever it could measure; a wrong output shows as ``"correct": false``
and in ``failed``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
WORKLOAD_NAMES = ("verify-batch", "solve-search", "lab-exhaustive")


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive definition)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reconcile(record: dict, workload: str, seed: int, kind: str) -> bool:
    """Keep the record for this code, workload and seed; False if an earlier one differs."""
    path = OUT / "counters" / f"{workload}-seed{seed}-{kind}-{code_hash()}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8")) == record
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return True


class Tally:
    """Ops attempted and failed, with the first batch's counters and digest."""

    def __init__(self, digest_of):
        self.attempted = 0
        self.failed = 0
        self.first = None
        self._digest_of = digest_of
        self.notes: list[str] = []

    def record(self, checked) -> dict:
        return {"counters": dict(sorted(checked.counters.items())), "digest": self._digest_of(checked.digest)}

    def add(self, checked) -> dict:
        self.attempted += len(checked.ok)
        self.failed += checked.ok.count(False)
        record = self.record(checked)
        if self.first is None:
            self.first = record
        return record

    def mismatch(self, ops: int, why: str) -> None:
        self.failed += ops
        self.notes.append(why)


def reference_seconds(speed, timing):
    """Batch wall and per-op latencies of a Timing, in reference seconds."""
    wall = (timing.end - timing.start) * speed.factor(timing.start, timing.end)
    lat = [x * speed.factor(t, t + x) for t, x in zip(timing.op_starts, timing.op_seconds)]
    return wall, lat


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_LADDER with at least ten of n samples above it."""
    return max((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), default=50.0)


def timed_run(wl, seed: int, seconds: int, tally: Tally) -> tuple[dict, dict]:
    count = wl.batches(seconds)
    with SpeedSampler() as speed:
        setups = []
        while len(setups) < SETUP_REPEATS or setups[-1][1] - setups[0][0] < SETUP_MIN_S:
            t0 = time.perf_counter()
            batches = wl.setup(seed, seconds)
            setups.append((t0, time.perf_counter()))
        # The inputs stay alive for the whole run; keep them out of the
        # program's garbage collections.
        gc.collect()
        gc.freeze()

        timings = []
        ops = 0
        for index in range(count):
            batch = batches[0] if wl.repeats_batches else batches[index]
            outputs, timing = wl.run(batch)
            checked = wl.check(batch, outputs)
            tally.add(checked)
            ops += len(checked.ok)
            timings.append(timing)

    if not wl.repeats_batches:
        # Run the first batch again: the same inputs must give the same outputs.
        outputs, _ = wl.run(batches[0])
        checked = wl.check(batches[0], outputs)
        if tally.record(checked) != tally.first:
            tally.mismatch(len(checked.ok), "first batch gave different outputs when run again")

    setup_times = [(b - a) * speed.factor(a, b) for a, b in setups]
    walls, per_batch = [], []
    for timing in timings:
        wall, lat = reference_seconds(speed, timing)
        walls.append(wall)
        per_batch.append(lat)
    if wl.repeats_batches:
        # Every batch repeats the same ops, so an op's latency is the median
        # of its readings.
        full = max(len(lat) for lat in per_batch)
        latencies = [statistics.median(xs) for xs in zip(*(lat for lat in per_batch if len(lat) == full))]
    else:
        latencies = [x for lat in per_batch for x in lat]
    if not latencies:
        raise RuntimeError("no op completed")
    tail_pct = tail_percentile(len(latencies))
    tail = percentile(latencies, tail_pct)
    info = {
        "batches": len(walls),
        "ops": ops,
        "latency_samples": len(latencies),
        "tail": f"p{tail_pct:g}",
        "beyond_tail": sum(1 for x in latencies if x > tail),
        "setup_runs": len(setups),
        "speed_samples": len(speed.costs),
        "kernel_median_s": f"{statistics.median(speed.costs):.3g}",
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (ops / sum(walls), "1/s"),
        "op_p50_ms": (percentile(latencies, 50.0) * 1000.0, "ms"),
        "op_tail_ms": (tail * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, info


def traced_run(wl, seed: int, seconds: int, tally: Tally, workload: str) -> tuple[dict, dict]:
    from tracer import Tracer, metric_units

    batches = wl.setup(seed, seconds)[: wl.trace_batches]
    gc.collect()
    gc.freeze()

    def run_all(tracer=None):
        records, timings = [], []
        for batch in batches:
            if tracer is not None:
                tracer.active = True
            outputs, timing = wl.run(batch)
            if tracer is not None:
                tracer.active = False
            timings.append(timing)
            records.append(tally.add(wl.check(batch, outputs)))
        return records, timings

    with SpeedSampler() as speed:
        plain, untraced = run_all()
        with Tracer() as tracer:
            traced_records, traced = run_all(tracer)
    if traced_records != plain:
        tally.mismatch(1, "traced outputs differ from untraced outputs")
    overhead = sum(reference_seconds(speed, t)[0] for t in traced) / sum(
        reference_seconds(speed, t)[0] for t in untraced
    )
    values = tracer.metrics(sum(t.end - t.start for t in traced), overhead - 1.0)
    calls = {k: v for k, v in values.items() if k.endswith(".calls")}
    if not reconcile(calls, workload, seed, "calls"):
        tally.mismatch(1, "call counts differ from an earlier traced run of this code")
    tracer.write_spans(OUT / f"spans-{workload}.jsonl")
    units = metric_units()
    metrics = {name: (values[name], units[name]) for name in units}
    info = {"batches": len(batches), "spans": len(tracer.spans)}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"cannot import contractlab from {ROOT / 'src'}: {exc}\n")
        return 2

    wl = workloads.WORKLOADS[args.workload](OUT)
    tally = Tally(workloads.digest_of)
    try:
        if args.trace:
            metrics, info = traced_run(wl, args.seed, args.seconds, tally, args.workload)
        else:
            metrics, info = timed_run(wl, args.seed, args.seconds, tally)
    finally:
        wl.close()
    if not reconcile(tally.first, args.workload, args.seed, "outputs"):
        tally.mismatch(1, "counters or digest differ from an earlier run of this code")

    print(f"{args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<48} {tally.failed / max(tally.attempted, 1):>14.6g} ratio ({tally.failed}/{tally.attempted})")
    print(f"  counters {json.dumps(tally.first['counters'], sort_keys=True)}")
    print(f"  digest {tally.first['digest']}")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
