"""Tests of the benchmark itself: its checks, its counters and its tracer.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import contractlab as cl
from contractlab import contraction, graphs, lab, solvers

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent


def small_lab(tmp_path):
    wl = workloads.LabExhaustive(tmp_path)
    wl._suite = lambda seed: cl.default_suite_config()
    return wl


def test_wrong_verdict_counts_as_failed_op(tmp_path, monkeypatch):
    wl = workloads.VerifyBatch(tmp_path)
    batch = wl.setup(seed=3, seconds=1)[0][:20]
    outputs, _ = wl.run(batch)
    assert all(wl.check(batch, outputs).ok)

    original = cl.is_contraction
    monkeypatch.setattr(cl, "is_contraction", lambda g, ids, tol: not original(g, ids, tol))
    outputs, _ = wl.run(batch)
    assert not any(wl.check(batch, outputs).ok)


def test_wrong_solver_witness_counts_as_failed_op(tmp_path, monkeypatch):
    wl = workloads.SolveSearch(tmp_path)
    batch = [item for item in wl.setup(seed=3, seconds=1)[0] if item[0] == "weak"]
    original = cl.max_weak_contraction_exact

    def padded(g, tol):
        r = original(g, tol)
        return cl.SolveResult(r.objective + 1, r.witness, r.explored, r.elapsed)

    monkeypatch.setattr(cl, "max_weak_contraction_exact", padded)
    outputs, _ = wl.run(batch)
    assert wl.check(batch, outputs).ok == [False] * len(batch)


def test_lab_golden_regression_fails_every_report(tmp_path, monkeypatch):
    wl = small_lab(tmp_path)
    (suite,) = wl.setup(seed=0, seconds=1)
    outputs, _ = wl.run(suite)
    checked = wl.check(suite, outputs)
    assert checked.ok and all(checked.ok)  # --threads 2 reproduces the --threads 1 pin

    original = lab.check_lemma2

    def flipped(*args, **kwargs):
        rep = original(*args, **kwargs)
        verdict = lab.COUNTEREXAMPLE if rep.verdict != lab.COUNTEREXAMPLE else lab.HOLDS
        return lab.LabReport(rep.claim, rep.instance, verdict, rep.witness, rep.stats)

    monkeypatch.setattr(lab, "check_lemma2", flipped)
    outputs, _ = wl.run(suite)
    assert not any(wl.check(suite, outputs).ok)
    wl.close()


def test_lab_reports_are_timed_by_their_check_calls(tmp_path):
    wl = small_lab(tmp_path)
    (suite,) = wl.setup(seed=0, seconds=1)
    checks = {name: getattr(lab, name) for name in workloads.LAB_CHECKS}
    (code, payloads, _), timing = wl.run(suite)
    wl.close()
    assert code == 0 and len(timing.op_seconds) == len(payloads) > 0
    # Every report got a reading from a check call inside the lab run.
    assert all(timing.start < t < timing.end for t in timing.op_starts)
    assert all(0 < x <= timing.end - timing.start for x in timing.op_seconds)
    assert {name: getattr(lab, name) for name in workloads.LAB_CHECKS} == checks


def test_counters_and_digest_repeat(tmp_path):
    wl = workloads.SolveSearch(tmp_path)
    batch = wl.setup(seed=5, seconds=1)[0]
    batch = [item for item in batch if item[0] != "strong"]
    first = wl.check(batch, wl.run(batch)[0])
    second = wl.check(batch, wl.run(batch)[0])
    assert first.counters == second.counters and first.counters["valid_sets"] > 0
    assert workloads.digest_of(first.digest) == workloads.digest_of(second.digest)
    assert wl.setup(seed=5, seconds=1)[0][0][1] == wl.setup(seed=5, seconds=3)[0][0][1]


def test_tracer_patches_every_namespace_and_restores():
    originals = (graphs.is_connected, cl.is_weak_contraction, contraction.ToleranceCheck.__init__)
    with Tracer():
        assert contraction.is_connected is solvers.is_connected is lab.is_connected
        assert contraction.is_connected is not originals[0]
        assert cl.is_weak_contraction is solvers.is_weak_contraction
        assert cl.is_weak_contraction is not originals[1]
    assert (graphs.is_connected, cl.is_weak_contraction, contraction.ToleranceCheck.__init__) == originals
    assert solvers.is_connected is originals[0]


def test_generator_spans_exclude_consumer_work():
    g = cl.path_graph(6)
    with Tracer() as tracer:
        tracer.active = True
        start = time.perf_counter()
        for _ in cl.enumerate_valid_weak_contractions(g, cl.Tolerance(1, 1)):
            time.sleep(0.01)
        wall = time.perf_counter() - start
        tracer.active = False
    m = tracer.metrics(wall, 0.0)
    assert m["solvers.enumerate_valid_weak_contractions.calls"] == 1
    assert m["solvers.valid_sets"] >= 5
    assert m["solvers.enumerate_valid_weak_contractions.self_ms"] < 10.0
    assert m["trace.remainder_ms"] >= 50.0
    assert m["contraction.ToleranceCheck.calls"] == 1


def test_self_time_splits_overlapping_threads():
    tracer = Tracer()
    main, w1, w2 = 1, 2, 3
    tracer.spans = [
        ["lab.run_suite", main, None, 0.0, 10.0, True],
        ["lab.check_lemma2", w1, 0, 1.0, 5.0, True],
        ["lab.check_path_lemma", w2, 0, 2.0, 6.0, True],
        ["contraction.ToleranceCheck", w2, 2, 3.0, 4.0, True],
    ]
    charged = tracer.self_times()
    assert charged[0] == pytest.approx(5.0)  # before, between and after the workers
    assert charged[1] == pytest.approx(1.0 + 0.5 + 0.5 + 0.5)
    assert charged[2] == pytest.approx(0.5 + 0.5 + 1.0)
    assert charged[3] == pytest.approx(0.5)
    assert sum(charged.values()) == pytest.approx(10.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "verify-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
