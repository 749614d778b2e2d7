"""The benchmark's three workloads: inputs, timed work and output checks.

Each workload turns a seed into a list of batches in ``setup`` (the program
then sees only those inputs), runs one batch in ``run`` and checks what the
program returned in ``check``.  ``run`` returns the outputs and a Timing of
the batch and of each op, with only calls into contractlab inside those
timings; the runner turns them into reference seconds (see speed.py).
``check`` runs afterwards, untimed, and returns one verdict per op plus
deterministic counters and digest lines.

The work of a run is fixed by the seed and ``--seconds``: ``batches(seconds)``
batches, sized so that a run measures about that long on the 2-core machine
the benchmark was tuned on.  It does not depend on how fast the machine is,
so every run of a seed measures exactly the same ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import contractlab as cl
from contractlab import cli

F = Fraction


@dataclass
class Checked:
    ok: list[bool]
    counters: Counter
    digest: list[str]


@dataclass
class Timing:
    """Measured perf_counter times of one batch.

    ``op_seconds`` are wall times, except on the lab, where they are the
    CPU time of the worker thread that made each report.
    """

    start: float
    end: float
    op_starts: list[float]
    op_seconds: list[float]


def digest_of(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------------
# Random inputs.  Every batch has its own random.Random seeded from the run
# seed and the batch index, so batch i is the same whatever the run length.
# ----------------------------------------------------------------------------


def batch_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def random_connected(rng: random.Random, n: int, m: int, weight) -> cl.Graph:
    """Random spanning tree plus m - n + 1 distinct extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    pairs.update(rng.sample(rest, m - (n - 1)))
    return cl.Graph(n, tuple((u, v, weight(rng)) for u, v in sorted(pairs)))


def unit(rng: random.Random) -> Fraction:
    return F(1)


def rational(rng: random.Random) -> Fraction:
    return F(rng.randint(1, 4), rng.randint(1, 3))


# ----------------------------------------------------------------------------
# Independent oracle: Floyd-Warshall on integer-scaled weights.
# ----------------------------------------------------------------------------


def scaled_apsp(g: cl.Graph, scale: int, mask: int) -> list[list[int]]:
    n = g.vertex_count
    weights = [0 if (mask >> e) & 1 else int(w * scale) for e, (_, _, w) in enumerate(g.edges)]
    big = sum(weights) + 1
    d = [[big] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for (u, v, _), w in zip(g.edges, weights):
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def oracle_violation(g, ids, tol, weak, base, dc, scale):
    """None when valid, else 'not-proper-subset' or the first failing (u, v)."""
    if weak and len(ids) == g.edge_count:
        return "not-proper-subset"
    p, q = tol.alpha.numerator, tol.alpha.denominator
    r, s = tol.beta.numerator, tol.beta.denominator
    n = g.vertex_count
    for u in range(n):
        for v in range(u + 1, n):
            if weak and dc[u][v] == 0:
                continue
            if p * s * dc[u][v] < q * s * base[u][v] - p * r * scale:
                return (u, v)
    return None


def witness_matches(witness, expected, base, dc, scale) -> bool:
    if expected is None:
        return witness is None
    if witness is None:
        return False
    if expected == "not-proper-subset":
        return witness.kind == "not-proper-subset"
    u, v = expected
    return (
        witness.kind == "pair"
        and (witness.u, witness.v) == (u, v)
        and witness.distance == F(base[u][v], scale)
        and witness.contracted_distance == F(dc[u][v], scale)
    )


# ----------------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------------


class Workload:
    name = ""
    repeats_batches = False  # True when every batch is the same work
    batches_per_second = 1.0
    trace_batches = 1

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def batches(self, seconds: int) -> int:
        """Batches in a run of the given length."""
        return max(1, round(seconds * self.batches_per_second))

    def close(self) -> None:
        pass


class OpWorkload(Workload):
    """A workload whose ops are separate calls, each timed from outside."""

    def setup(self, seed: int, seconds: int) -> list:
        return [self._batch(batch_rng(seed, self.name, i)) for i in range(self.batches(seconds))]

    def run(self, batch):
        outputs, starts, seconds = [], [], []
        clock = time.perf_counter
        batch_start = clock()
        for item in batch:
            t0 = clock()
            try:
                out = self._op(item)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            seconds.append(clock() - t0)
            starts.append(t0)
            outputs.append(out)
        return outputs, Timing(batch_start, clock(), starts, seconds)


# ----------------------------------------------------------------------------
# verify-batch
# ----------------------------------------------------------------------------

VERIFY_TOLERANCES = (
    cl.Tolerance(F(1), F(1)),
    cl.Tolerance(F(1), F(2)),
    cl.Tolerance(F(3, 2), F(1)),
    cl.Tolerance(F(2), F(0)),
    cl.Tolerance(F(5, 4), F(1, 3)),
)


class VerifyBatch(OpWorkload):
    """Many small graphs, each parsed from text and verified a few times.

    An op is one graph: parse_graph, then for each trial is_contraction,
    is_weak_contraction, violation_witness for each rejected mode and one
    contracted_distance.  Graphs alternate unit and rational weights so both
    distance engines of ToleranceCheck run.
    """

    name = "verify-batch"
    graphs_per_batch = 100
    trials_per_graph = 3
    batches_per_second = 3
    trace_batches = 10

    def _batch(self, rng: random.Random) -> list:
        ops = []
        for k in range(self.graphs_per_batch):
            n = rng.randint(4, 10)
            m = rng.randint(n - 1, min(16, n * (n - 1) // 2))
            g = random_connected(rng, n, m, rational if k % 2 else unit)
            trials = []
            for _ in range(self.trials_per_graph):
                if rng.randrange(8) == 0:
                    ids = tuple(range(m))
                else:
                    ids = tuple(e for e in range(m) if rng.randrange(3) == 0)
                u, v = rng.sample(range(n), 2)
                trials.append((ids, rng.choice(VERIFY_TOLERANCES), u, v))
            ops.append((cl.render_graph(g), g, tuple(trials)))
        return ops

    @staticmethod
    def _op(item):
        text, _, trials = item
        g = cl.parse_graph(text)
        results = []
        for ids, tol, u, v in trials:
            strong = cl.is_contraction(g, ids, tol)
            weak = cl.is_weak_contraction(g, ids, tol)
            w_strong = None if strong else cl.violation_witness(g, ids, tol, weak=False)
            w_weak = None if weak else cl.violation_witness(g, ids, tol, weak=True)
            dist = cl.contracted_distance(g, ids, u, v)
            results.append((strong, weak, w_strong, w_weak, dist))
        return g, results

    def check(self, batch, outputs) -> Checked:
        ok, counters, digest = [], Counter(), []
        for (_, expected_graph, trials), out in zip(batch, outputs):
            counters["ops"] += 1
            good = not isinstance(out, Exception) and out[0] == expected_graph
            if good:
                g, results = out
                counters["rational_graphs"] += not g.has_unit_weights()
                scale = math.lcm(1, *(w.denominator for _, _, w in g.edges))
                base = scaled_apsp(g, scale, 0)
                for (ids, tol, u, v), res in zip(trials, results):
                    good = good and self._trial_ok(g, ids, tol, u, v, res, base, scale, counters)
            ok.append(good)
            digest.append(repr(out))
        return Checked(ok, counters, digest)

    @staticmethod
    def _trial_ok(g, ids, tol, u, v, res, base, scale, counters) -> bool:
        strong, weak, w_strong, w_weak, dist = res
        mask = sum(1 << e for e in ids)
        dc = scaled_apsp(g, scale, mask)
        exp_strong = oracle_violation(g, ids, tol, False, base, dc, scale)
        exp_weak = oracle_violation(g, ids, tol, True, base, dc, scale)
        counters["trials"] += 1
        counters["strong_valid"] += strong is True
        counters["weak_valid"] += weak is True
        counters["pair_witnesses"] += (w_strong is not None) + (
            w_weak is not None and w_weak.kind == "pair"
        )
        # violation_witness must be None exactly when the verifier accepts,
        # so the accepted modes are asked for one here as well.
        if strong:
            w_strong = cl.violation_witness(g, ids, tol, weak=False)
        if weak:
            w_weak = cl.violation_witness(g, ids, tol, weak=True)
        return (
            strong is (exp_strong is None)
            and weak is (exp_weak is None)
            and witness_matches(w_strong, exp_strong, base, dc, scale)
            and witness_matches(w_weak, exp_weak, base, dc, scale)
            and dist == F(dc[u][v], scale)
        )


# ----------------------------------------------------------------------------
# solve-search
# ----------------------------------------------------------------------------


class SolveSearch(OpWorkload):
    """Search-heavy exact solves; an op is one solver call.

    A round holds two full weak enumerations at (1,1) on pendant gadgets of
    3x4 cores with 10 edges (17 gadget edges); five strong solves at (1,2) on
    unit graphs with n=12, m=16; three at (3/2,1) on rational graphs with
    n=14, m=18; four weak solves at (3/2,1) on unit trees with n=14; and the
    two biclique solvers on a planted 20x20 graph.

    The search work of a random instance varies about 2x either way from one
    seed to the next, so a run holds many mid-sized solves rather than a few
    large ones: that keeps the spread between seeds near a tenth.  The
    enumerations are the most even ops and the largest, so the tail
    percentile falls among them.
    """

    name = "solve-search"
    batches_per_second = 0.32
    trace_batches = 2

    @staticmethod
    def _batch(rng: random.Random) -> list:
        strong = cl.Tolerance(F(1), F(2))
        relaxed = cl.Tolerance(F(3, 2), F(1))
        cells = [(l, r) for l in range(3) for r in range(4)]
        ops = []
        for _ in range(2):
            dropped = set(rng.sample(range(len(cells)), 2))
            core = cl.BipartiteGraph(3, 4, tuple(c for i, c in enumerate(cells) if i not in dropped))
            ops.append(("enum", cl.build_gadget(core, 1).combined, cl.Tolerance(F(1), F(1))))
        ops += [("strong", random_connected(rng, 12, 16, unit), strong) for _ in range(5)]
        ops += [("strong", random_connected(rng, 14, 18, rational), relaxed) for _ in range(3)]
        ops += [("weak", random_connected(rng, 14, 13, unit), relaxed) for _ in range(4)]
        host, _ = cl.generate_planted_biclique(20, 20, 6, 6, F(1, 2), rng.randrange(1 << 30))
        ops += [("meb", host, None), ("mbb", host, None)]
        return ops

    @staticmethod
    def _op(item):
        kind, g, tol = item
        if kind == "strong":
            return cl.max_contraction_exact(g, tol)
        if kind == "weak":
            return cl.max_weak_contraction_exact(g, tol)
        if kind == "enum":
            return list(cl.enumerate_valid_weak_contractions(g, tol))
        if kind == "meb":
            return cl.max_edge_biclique_exact(g)
        return cl.max_balanced_biclique_exact(g)

    def check(self, batch, outputs) -> Checked:
        ok, counters, digest = [], Counter(), []
        for (kind, g, tol), out in zip(batch, outputs):
            counters[f"{kind}_ops"] += 1
            good = not isinstance(out, Exception) and self._output_ok(kind, g, tol, out)
            if good and kind == "enum":
                counters["valid_sets"] += len(out)
                digest.append(repr(out))
            elif good:
                counters["nodes"] += out.explored
                counters["objective_sum"] += out.objective
                digest.append(repr((out.objective, out.witness, out.explored)))
            else:
                digest.append(repr(out))
            ok.append(good)
        return Checked(ok, counters, digest)

    @staticmethod
    def _output_ok(kind, g, tol, out) -> bool:
        if kind == "enum":
            check = cl.ToleranceCheck(g, tol)
            return all(a < b for a, b in zip(out, out[1:])) and all(
                list(s) == sorted(set(s))
                and check.is_valid(sum(1 << e for e in s), weak=True)
                for s in out
            )
        if kind in ("meb", "mbb"):
            try:
                out.witness.validate_in(g)
            except ValueError:
                return False
            if kind == "meb":
                return out.objective == out.witness.edge_count
            return out.objective == len(out.witness.left) == len(out.witness.right)
        verifier = cl.is_contraction if kind == "strong" else cl.is_weak_contraction
        return out.objective == len(out.witness) and verifier(g, out.witness, tol)


# ----------------------------------------------------------------------------
# lab-exhaustive
# ----------------------------------------------------------------------------

PATH_CLAIMS = ["path-lemma", "path-lemma-shortest"]
GADGET_CLAIMS = ["biclique-lemma", "thm6-soundness", "thm6-completeness", "lemma2-lift"]


def report_key(payload: dict) -> str:
    """A report without its wall time, as canonical JSON."""
    stats = {k: v for k, v in payload["stats"].items() if k != "elapsed_ms"}
    return json.dumps(dict(payload, stats=stats), sort_keys=True)


LAB_CHECKS = (
    "check_path_lemma", "check_biclique_lemma", "check_theorem6",
    "check_corollary_scaling", "check_lemma2",
)


def report_id(claim: str, instance: dict) -> str:
    return json.dumps([claim, instance], sort_keys=True, default=str)


@contextlib.contextmanager
def check_cpu_times():
    """Record the thread CPU time of every outermost lab check call.

    The suite runner looks the check functions up in ``contractlab.lab`` at
    call time, so wrapping them there times each report from outside on the
    worker thread that makes it.  Thread CPU time leaves out the turns the
    other worker takes at the interpreter lock: a report's wall time at
    --threads 2 depends on how the two workers happen to interleave, and its
    readings varied by 25% between identical runs.  Yields a dict from a report's
    (claim, instance) to (perf_counter start, CPU seconds) of the calls that
    returned it, in call order; the two reports of check_theorem6 share their
    call's reading.
    """
    times: dict = {}
    local = threading.local()
    saved = {name: getattr(cl.lab, name) for name in LAB_CHECKS}

    def wrap(fn):
        def timed(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.perf_counter()
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                local.depth = depth
            if depth == 0:
                reading = (start, time.thread_time() - t0)
                for rep in result if isinstance(result, tuple) else (result,):
                    times.setdefault(report_id(rep.claim, rep.instance), []).append(reading)
            return result

        return timed

    for name, fn in saved.items():
        setattr(cl.lab, name, wrap(fn))
    try:
        yield times
    finally:
        for name, fn in saved.items():
            setattr(cl.lab, name, fn)


class LabExhaustive(Workload):
    """``contractlab lab --threads 2`` through cli.main, against pinned goldens.

    A batch is one lab run over the whole suite and an op is one report.  The
    suite is the default suite, all-bipartite 3x4 and 2x6 with the six path
    and gadget claims, and corollary-scaling on seeded random-bipartite 3x3
    graphs.  Set-up pins the goldens with a --threads 1 run whose reports are
    the reference every later run must reproduce.  Every batch runs the same
    suite.  One lab call yields every report, so an op's latency is timed
    around the lab's check functions instead (see check_cpu_times).
    """

    name = "lab-exhaustive"
    batches_per_second = 0.2
    threads = 2
    corollary_instances = 4
    repeats_batches = True

    def __init__(self, work_dir: Path):
        super().__init__(work_dir)
        self.dir = work_dir / f"lab-{os.getpid()}"
        self.reference: list[str] | None = None

    def setup(self, seed: int, seconds: int) -> list:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        suite = self.dir / "suite.json"
        suite.write_text(json.dumps(self._suite(seed), indent=1), encoding="utf-8")
        code, payloads, stderr, _, _ = self._call(suite, threads=1)
        if code != 0:
            raise RuntimeError(f"golden pinning run failed with {code!r}: {stderr}")
        reference = [report_key(p) for p in payloads]
        if self.reference is not None and reference != self.reference:
            raise RuntimeError("golden pinning runs of one seed gave different reports")
        self.reference = reference
        return [suite]

    def _suite(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}:{seed}")
        config = cl.default_suite_config()
        config["instances"] += [
            {"family": "all-bipartite", "left": 3, "right": 4, "claims": PATH_CLAIMS + GADGET_CLAIMS},
            {"family": "all-bipartite", "left": 2, "right": 6, "claims": PATH_CLAIMS + GADGET_CLAIMS},
        ]
        added = 0
        while added < self.corollary_instances:
            s = rng.randrange(1 << 30)
            if not cl.is_connected(cl.generate_random_bipartite(3, 3, F(1, 2), s).to_graph()):
                continue  # a gadget needs a connected core
            config["instances"].append(
                {
                    "family": "random-bipartite", "left": 3, "right": 3, "prob": "1/2",
                    "seed": s, "claims": ["corollary-scaling"],
                    "betas": ["1/2", "1", "3"], "trials": 25,
                }
            )
            added += 1
        return config

    def _call(self, suite: Path, threads: int):
        """One in-process ``contractlab lab`` run: (exit code, reports, stderr, start, end)."""
        out = self.dir / f"out-{threads}"
        argv = [
            "lab", "--suite", str(suite), "--out", str(out),
            "--goldens", str(self.dir / "goldens"), "--threads", str(threads),
        ]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # reported as failed reports by check()
                code = exc
            end = time.perf_counter()
        payloads = json.loads((out / "reports.json").read_text(encoding="utf-8")) if code == 0 else []
        return code, payloads, err.getvalue(), start, end

    def run(self, batch):
        with check_cpu_times() as times:
            code, payloads, stderr, start, end = self._call(batch, self.threads)
        # A report no check call returned (an error report) keeps its own
        # elapsed_ms; it fails its op anyway.
        starts, seconds = [], []
        for p in payloads:
            readings = times.get(report_id(p["claim"], p["instance"]))
            t, cpu = readings.pop(0) if readings else (start, p["stats"]["elapsed_ms"] / 1000.0)
            starts.append(t)
            seconds.append(cpu)
        return (code, payloads, stderr), Timing(start, end, starts, seconds)

    def check(self, batch, outputs) -> Checked:
        code, payloads, stderr = outputs
        keys = [report_key(p) for p in payloads]
        # A failed exit (a regression against the goldens or a crash) or a
        # report list that differs from the --threads 1 reference fails the
        # whole run; otherwise each report fails on its own error verdict.
        if code != 0 or len(keys) != len(self.reference):
            n = max(len(self.reference), 1)
            return Checked([False] * n, Counter(bad_runs=1), [repr(code), stderr])
        ok = [k == ref and p["verdict"] != cl.lab.ERROR for k, ref, p in zip(keys, self.reference, payloads)]
        counters = Counter(reports=len(payloads))
        iso = set()
        for p in payloads:
            counters[p["verdict"]] += 1
            counters["enumerated"] += p["stats"]["enumerated"]
            inst = p["instance"]
            if inst["family"] == "all-bipartite":
                params = inst["params"]
                iso.add((params["left"], params["right"], params["index"]))
        counters["iso_classes"] = len(iso)
        return Checked(ok, counters, keys)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (VerifyBatch, SolveSearch, LabExhaustive)}
