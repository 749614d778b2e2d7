"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the contractlab modules from outside the
package.  Modules bind their imports with ``from .contraction import ...``, so
a function is replaced in every module namespace that holds it, not only in
its defining module.  ``ToleranceCheck`` methods are replaced on the class,
which every importer shares.

Each wrapped call records a span (name, thread id, parent span, start, end)
in memory.  Generator functions get one span per resumption, so the
consumer's work between yields is not charged to the generator.  Self time
is computed after the run by a sweep over all span boundaries: at every
instant the innermost open span of each thread is charged, and when several
threads are inside spans at once (the lab's worker pool) the instant is
split evenly between them.  A span whose cross-thread child is open (the
suite runner while it waits on its pool) is not charged.  The self times
therefore add up to the time during which any wrapped call was open; the
rest of the traced wall time is the benchmark's own code, reported as the
untraced remainder.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import contractlab
from contractlab import cli, contraction, graphs, lab, reductions, solvers

NAMESPACES = (contractlab, graphs, contraction, solvers, reductions, lab, cli)
MODULES = {
    "graphs": graphs,
    "contraction": contraction,
    "solvers": solvers,
    "reductions": reductions,
    "lab": lab,
    "cli": cli,
}

# Wrapped callables as "<module>.<attribute>"; "contraction.ToleranceCheck"
# is the constructor, "contraction.ToleranceCheck.<method>" a method.
FUNCTIONS = (
    "graphs.parse_graph",
    "graphs.shortest_distances",
    "graphs.is_connected",
    "contraction.ToleranceCheck",
    "contraction.ToleranceCheck.failing_pairs",
    "contraction.ToleranceCheck.first_violation",
    "contraction.ToleranceCheck.is_valid",
    "contraction.is_contraction",
    "contraction.is_weak_contraction",
    "contraction.violation_witness",
    "contraction.contract",
    "contraction.contracted_distance",
    "solvers.max_contraction_exact",
    "solvers.max_weak_contraction_exact",
    "solvers.enumerate_valid_weak_contractions",
    "solvers.max_edge_biclique_exact",
    "solvers.max_balanced_biclique_exact",
    "reductions.build_gadget",
    "reductions.build_tensor_square",
    "reductions.contraction_to_biclique",
    "reductions.biclique_to_contraction",
    "reductions.lift_biclique",
    "reductions.project_biclique",
    "lab.enumerate_connected_bipartite",
    "lab.check_path_lemma",
    "lab.check_biclique_lemma",
    "lab.check_theorem6",
    "lab.check_corollary_scaling",
    "lab.check_lemma2",
    "lab.run_suite",
    "cli.main",
)

GENERATORS = {"solvers.enumerate_valid_weak_contractions"}

DERIVED = (
    ("contraction.repeat_check_frac", "ratio"),
    ("contraction.repeat_partition_frac", "ratio"),
    ("solvers.nodes", "count"),
    ("solvers.valid_sets", "count"),
    ("solvers.valid_per_node", "ratio"),
    ("lab.iso_classes", "count"),
    ("lab.reports", "count"),
    ("lab.error_reports", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.remainder_ms", "ms"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(DERIVED)
    return units


def _partition_key(g, mask: int) -> tuple[int, ...]:
    """Vertex partition induced by the edge-id bitmask, as min-vertex labels."""
    parent = list(range(g.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid, (u, v, _) in enumerate(g.edges):
        if (mask >> eid) & 1:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
    return tuple(find(x) for x in range(g.vertex_count))


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, thread, parent, start, end, is_call]
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._check_keys: set = set()
        self._check_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.counts: Counter = Counter()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name in FUNCTIONS:
            module_name, _, attr = name.partition(".")
            module = MODULES[module_name]
            cls_name, _, method = attr.partition(".")
            if cls_name == "ToleranceCheck":
                cls = module.ToleranceCheck
                method = method or "__init__"
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in NAMESPACES:
                if ns.__dict__.get(attr) is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------

    def _open(self, name: str, is_call: bool) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main)
            parent = main_stack[-1] if tid != self._main and main_stack else None
        span = [name, tid, parent, 0.0, 0.0, is_call]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span[3] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self.spans[idx][4] = end
        self._stacks[threading.get_ident()].pop()

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        if name in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.active:
                    return inner
                return _TracedIterator(tracer, name, inner)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(name, True)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- counters fed by the wrappers -----------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _distance_evaluation(self, check, mask: int) -> None:
        key = _partition_key(check.graph, mask)
        with self._lock:
            seen = self._check_seen.setdefault(check, set())
            self.counts["distance_evals"] += 1
            if key in seen:
                self.counts["repeat_partitions"] += 1
            seen.add(key)

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Seconds charged to each span index by the sweep described above."""
        events = []
        for idx, (_, _, _, start, end, _) in enumerate(self.spans):
            events.append((start, 1, idx))
            events.append((end, 0, idx))
        events.sort()
        stacks: dict[int, list[int]] = defaultdict(list)
        open_children: Counter = Counter()
        charged: dict[int, float] = defaultdict(float)
        prev = None
        for t, opening, idx in events:
            if prev is not None and t > prev:
                tops = [s[-1] for s in stacks.values() if s and not open_children[s[-1]]]
                if tops:
                    share = (t - prev) / len(tops)
                    for top in tops:
                        charged[top] += share
            prev = t
            _, tid, parent, _, _, _ = self.spans[idx]
            cross = parent is not None and self.spans[parent][1] != tid
            if opening:
                stacks[tid].append(idx)
                if cross:
                    open_children[parent] += 1
            else:
                stacks[tid].pop()
                if cross:
                    open_children[parent] -= 1
        return charged

    def metrics(self, traced_wall_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics for the spans recorded so far.

        ``traced_wall_s`` is the measured wall time of the traced work;
        ``overhead_frac`` compares it with the same work untraced.
        """
        charged = self.self_times()
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        enum_nodes = 0
        for idx, (name, _, parent, _, _, is_call) in enumerate(self.spans):
            calls[name] += is_call
            self_ms[name] += charged.get(idx, 0.0) * 1000.0
            if (
                name == "contraction.ToleranceCheck.failing_pairs"
                and parent is not None
                and self.spans[parent][0] == "solvers.enumerate_valid_weak_contractions"
            ):
                enum_nodes += 1
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        c = self.counts
        out["contraction.repeat_check_frac"] = _share(c["repeat_checks"], calls["contraction.ToleranceCheck"])
        out["contraction.repeat_partition_frac"] = _share(c["repeat_partitions"], c["distance_evals"])
        out["solvers.nodes"] = c["explored"] + enum_nodes
        out["solvers.valid_sets"] = c["valid_sets"]
        out["solvers.valid_per_node"] = _share(c["valid_sets"], enum_nodes)
        out["lab.iso_classes"] = c["iso_classes"]
        out["lab.reports"] = c["reports"]
        out["lab.error_reports"] = c["error_reports"]
        wall_ms = traced_wall_s * 1000.0
        out["trace.overhead_frac"] = overhead_frac
        out["trace.wall_ms"] = wall_ms
        out["trace.remainder_ms"] = wall_ms - sum(self_ms.values())
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as JSON lines, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as fh:
            for idx, (name, tid, parent, start, end, is_call) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        [idx, name, tid, parent, round(start - origin, 9), round(end - origin, 9), is_call]
                    )
                    + "\n"
                )


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class _TracedIterator:
    """Times each resumption of a wrapped generator as its own span."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._first = True

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._inner)
        idx = tracer._open(self._name, self._first)
        self._first = False
        try:
            item = next(self._inner)
        finally:
            tracer._close(idx)
        tracer._count("valid_sets")
        return item


# Hooks run outside the span, so their cost shows in the overhead, not in a layer.


def _before_check(tracer: Tracer, args, kwargs) -> None:
    g = args[1]
    tolerance = args[2] if len(args) > 2 else kwargs["tolerance"]
    key = (g.vertex_count, g.edges, tolerance)
    with tracer._lock:
        if key in tracer._check_keys:
            tracer.counts["repeat_checks"] += 1
        tracer._check_keys.add(key)


def _after_check(tracer: Tracer, args, result) -> None:
    # The constructor evaluates base distances: the empty mask's partition.
    tracer._distance_evaluation(args[0], 0)


def _before_first_violation(tracer: Tracer, args, kwargs) -> None:
    check, mask = args[0], args[1]
    weak = args[2] if len(args) > 2 else kwargs.get("weak")
    if not (weak and mask == check.full_mask):
        tracer._distance_evaluation(check, mask)


def _before_failing_pairs(tracer: Tracer, args, kwargs) -> None:
    dc = args[3] if len(args) > 3 else kwargs.get("dc")
    if dc is None:
        tracer._distance_evaluation(args[0], args[1])


def _after_solve(tracer: Tracer, args, result) -> None:
    tracer._count("explored", result.explored)


def _after_enumerate_bipartite(tracer: Tracer, args, result) -> None:
    tracer._count("iso_classes", len(result))


def _after_run_suite(tracer: Tracer, args, result) -> None:
    tracer._count("reports", len(result))
    tracer._count("error_reports", sum(1 for r in result if r.verdict == lab.ERROR))


_BEFORE = {
    "contraction.ToleranceCheck": _before_check,
    "contraction.ToleranceCheck.first_violation": _before_first_violation,
    "contraction.ToleranceCheck.failing_pairs": _before_failing_pairs,
}
_AFTER = {
    "contraction.ToleranceCheck": _after_check,
    "solvers.max_contraction_exact": _after_solve,
    "solvers.max_weak_contraction_exact": _after_solve,
    "solvers.max_edge_biclique_exact": _after_solve,
    "solvers.max_balanced_biclique_exact": _after_solve,
    "lab.enumerate_connected_bipartite": _after_enumerate_bipartite,
    "lab.run_suite": _after_run_suite,
}
