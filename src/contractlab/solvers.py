"""Exact maximization for contraction and biclique problems, plus a seeded greedy.

The contraction solvers walk the subset lattice of edge ids depth-first in
lexicographic order (include an edge before skipping it), so the first
optimum found is automatically the lexicographically smallest witness.  Two
prunes are used, both backed by the monotone fact that adding edges never
increases an induced distance:

* strong mode: a failing pair has a fixed positive right-hand side and its
  induced distance can only shrink, so every superset of an invalid set is
  invalid and the branch dies;
* weak mode: a failing pair can only be rescued by merging it, so a branch
  dies as soon as some failing pair is disconnected even in the union of the
  chosen edges and every edge still undecided.

Validity itself is not monotone in weak mode (NB merging exempts pairs), so
no other shortcut is taken; equivalence with plain power-set filtering is
part of the test suite.  Induced distances, and so the failing pairs, depend
only on the vertex partition a set induces, so each search evaluates a
partition once and reuses the result for every other set inducing it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

from .graphs import Biclique, BipartiteGraph, DisconnectedGraphError, Graph, is_connected
from .contraction import Tolerance, ToleranceCheck, is_weak_contraction

DEFAULT_EDGE_CAP = 20
DEFAULT_SIDE_CAP = 20


class CapExceededError(ValueError):
    """Exact search refused because the instance exceeds the enumeration cap."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``witness`` is a sorted tuple of edge ids (contraction problems) or a
    Biclique; ``explored`` counts search nodes and is deterministic,
    ``elapsed`` is wall time in seconds and is never compared.
    """

    objective: int
    witness: tuple[int, ...] | Biclique
    explored: int
    elapsed: float


def _require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError(
            "solver requires a connected graph; split into components first"
        )


def _require_cap(m: int, cap: int, what: str) -> None:
    if m > cap:
        raise CapExceededError(f"{what} {m} exceeds the enumeration cap ({cap})")


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _suffix_labels(g: Graph) -> list[tuple[int, ...]]:
    """labels[i][v] = min vertex of v's component in (V, edges[i:]).

    Each labels array is idempotent (label[label[v]] == label[v]), so it can
    seed a fresh union-find when a node's chosen edges get merged in.
    """
    n = g.vertex_count
    m = g.edge_count
    parent = list(range(n))
    out: list[tuple[int, ...]] = [()] * (m + 1)
    out[m] = tuple(range(n))
    for i in range(m - 1, -1, -1):
        u, v, _ = g.edges[i]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru
        out[i] = tuple(_find(parent, x) for x in range(n))
    return out


def _mergeable(labels: tuple[int, ...], g: Graph, chosen: list[int], pairs) -> bool:
    """Can every pair be joined using the chosen edges plus the labelled suffix?"""
    parent = list(labels)
    for e in chosen:
        u, v, _ = g.edges[e]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[rv] = ru
    return all(_find(parent, u) == _find(parent, v) for u, v in pairs)


class _PartitionMemo:
    """Failing pairs per vertex partition, for the nodes of one search.

    A node's partition is carried as its min-vertex labels.  ``step`` derives
    a child's labels and failing pairs from its parent's: an edge inside a
    block changes neither, and a partition met before costs no distance run.
    Weak mode keeps every failing pair, which ``_mergeable`` needs; strong mode
    prunes on any failing pair, so it keeps at most the first and its scan
    stops there.  The owner clears ``seen`` when its search ends.
    """

    def __init__(self, check: ToleranceCheck, weak: bool):
        self.check = check
        self.weak = weak
        self.edges = check.graph.edges
        self.seen: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def evaluate(self, mask: int) -> list[tuple[int, int]]:
        if self.weak:
            return self.check.failing_pairs(mask, True)
        w = self.check.first_violation(mask, False)
        return [] if w is None else [(w.u, w.v)]

    def root(self) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        return tuple(range(self.check.n)), self.evaluate(0)

    def step(
        self, labels: tuple[int, ...], failing: list[tuple[int, int]], mask: int, e: int
    ) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
        """Labels and failing pairs of the child set ``mask``, which adds edge e."""
        u, v, _ = self.edges[e]
        a, b = labels[u], labels[v]
        if a == b:
            return labels, failing
        if a > b:
            a, b = b, a
        labels = tuple(a if x == b else x for x in labels)
        failing = self.seen.get(labels)
        if failing is None:
            failing = self.seen[labels] = self.evaluate(mask)
        return labels, failing


def _search_max_contraction(check: ToleranceCheck, weak: bool) -> tuple[tuple[int, ...] | None, int]:
    g = check.graph
    m = check.m
    full = check.full_mask
    suffix = _suffix_labels(g)
    memo = _PartitionMemo(check, weak)
    best_set: tuple[int, ...] | None = None
    best_size = -1
    explored = 0

    def visit(
        cset: list[int], mask: int, start: int, labels: tuple[int, ...], failing: list
    ) -> None:
        nonlocal best_set, best_size, explored
        explored += 1
        if not failing and (not weak or mask != full):
            if len(cset) > best_size:
                best_size = len(cset)
                best_set = tuple(cset)
        if start == m:
            return
        if failing:
            if not weak:
                return
            if not _mergeable(suffix[start], g, cset, failing):
                return
        base = len(cset)
        for j in range(start, m):
            if base + m - j <= best_size:
                break
            cset.append(j)
            child = mask | (1 << j)
            visit(cset, child, j + 1, *memo.step(labels, failing, child, j))
            cset.pop()

    # visit is a reference cycle: without the clear, the memo outlives the
    # search until the next full garbage collection
    visit([], 0, 0, *memo.root())
    memo.seen.clear()
    return best_set, explored


def max_contraction_exact(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP
) -> SolveResult:
    """Largest edge set whose contraction keeps every pair within tolerance.

    Ties break to the lexicographically smallest sorted id tuple.  Refuses
    graphs over the edge cap.
    """
    _require_connected(g)
    _require_cap(g.edge_count, cap, "edge count")
    t0 = time.perf_counter()
    check = ToleranceCheck(g, tolerance)
    best, explored = _search_max_contraction(check, weak=False)
    if best is None:
        raise ValueError(
            "no valid contraction set exists for this tolerance "
            "(possible only when alpha < 1)"
        )
    return SolveResult(len(best), best, explored, time.perf_counter() - t0)


def max_weak_contraction_exact(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP
) -> SolveResult:
    """Largest proper edge subset valid in weak mode (merged pairs exempt)."""
    _require_connected(g)
    if g.edge_count == 0:
        raise ValueError(
            "weak contraction needs at least one edge: no proper subset exists"
        )
    _require_cap(g.edge_count, cap, "edge count")
    t0 = time.perf_counter()
    check = ToleranceCheck(g, tolerance)
    best, explored = _search_max_contraction(check, weak=True)
    if best is None:
        raise ValueError(
            "no valid weak contraction exists for this tolerance "
            "(possible only when alpha < 1)"
        )
    return SolveResult(len(best), best, explored, time.perf_counter() - t0)


def enumerate_valid_weak_contractions(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP
) -> Iterator[tuple[int, ...]]:
    """Yield exactly the valid proper subsets, in lexicographic order.

    Subsets compare as sorted tuples, so the stream starts (), (0,), (0, 1),
    ... whenever those are valid.  Branches that provably contain no valid
    superset (a failing pair that can never be merged) are skipped.
    """
    _require_connected(g)
    _require_cap(g.edge_count, cap, "edge count")
    check = ToleranceCheck(g, tolerance)
    m = check.m
    full = check.full_mask
    suffix = _suffix_labels(g)
    memo = _PartitionMemo(check, weak=True)

    def visit(
        cset: list[int], mask: int, start: int, labels: tuple[int, ...], failing: list
    ) -> Iterator[tuple[int, ...]]:
        if not failing and mask != full:
            yield tuple(cset)
        if start == m:
            return
        if failing and not _mergeable(suffix[start], g, cset, failing):
            return
        for j in range(start, m):
            cset.append(j)
            child = mask | (1 << j)
            yield from visit(cset, child, j + 1, *memo.step(labels, failing, child, j))
            cset.pop()

    try:
        yield from visit([], 0, 0, *memo.root())
    finally:
        memo.seen.clear()


def greedy_weak_contraction(
    g: Graph, tolerance: Tolerance, seed: int
) -> SolveResult:
    """Seeded greedy heuristic: try edges in shuffled order, keep what stays valid.

    The returned witness is re-verified with the public verifier before it is
    returned, so the result is always a valid weak contraction (never better
    than the exact optimum, no ratio guarantee).
    """
    _require_connected(g)
    if g.edge_count == 0:
        raise ValueError(
            "weak contraction needs at least one edge: no proper subset exists"
        )
    t0 = time.perf_counter()
    check = ToleranceCheck(g, tolerance)
    order = list(range(g.edge_count))
    random.Random(seed).shuffle(order)
    mask = 0
    chosen: list[int] = []
    for e in order:
        trial = mask | (1 << e)
        if check.is_valid(trial, weak=True):
            mask = trial
            chosen.append(e)
    chosen.sort()
    if not is_weak_contraction(g, chosen, tolerance):
        raise ValueError(
            "no valid weak contraction exists for this tolerance "
            "(possible only when alpha < 1)"
        )
    return SolveResult(len(chosen), tuple(chosen), g.edge_count, time.perf_counter() - t0)


# ----------------------------------------------------------------------------
# Bicliques.  Enumeration runs over subsets of the smaller side (left wins
# ties); the partner side is always the full common neighborhood, held as a
# bitmask.  Include-first depth-first order makes the first optimum the
# lexicographically smallest subset of the enumeration side.
# ----------------------------------------------------------------------------


def _enumeration_side(b: BipartiteGraph) -> tuple[bool, int, int, list[int]]:
    """(enumerating left?, side size, other size, neighbor bitmasks)."""
    enum_left = b.left_count <= b.right_count
    if enum_left:
        k, other = b.left_count, b.right_count
        nbr = [0] * k
        for l, r, _ in b.edges:
            nbr[l] |= 1 << r
    else:
        k, other = b.right_count, b.left_count
        nbr = [0] * k
        for l, r, _ in b.edges:
            nbr[r] |= 1 << l
    return enum_left, k, other, nbr


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _orient(enum_left: bool, subset: tuple[int, ...], partner: tuple[int, ...]) -> Biclique:
    return Biclique(subset, partner) if enum_left else Biclique(partner, subset)


def max_edge_biclique_exact(b: BipartiteGraph, cap: int = DEFAULT_SIDE_CAP) -> SolveResult:
    """Complete bipartite subgraph with the maximum number of edges."""
    enum_left, k, other, nbr = _enumeration_side(b)
    _require_cap(k, cap, "smaller side size")
    t0 = time.perf_counter()
    best_obj = 0
    best = Biclique((), ())
    explored = 0
    full_other = (1 << other) - 1

    def visit(s: list[int], tmask: int, start: int) -> None:
        nonlocal best_obj, best, explored
        explored += 1
        if s:
            obj = len(s) * tmask.bit_count()
            if obj > best_obj:
                best_obj = obj
                best = _orient(enum_left, tuple(s), _bits(tmask))
        for j in range(start, k):
            nt = tmask & nbr[j]
            if (len(s) + 1 + (k - j - 1)) * nt.bit_count() <= best_obj:
                continue
            s.append(j)
            visit(s, nt, j + 1)
            s.pop()

    visit([], full_other, 0)
    return SolveResult(best_obj, best, explored, time.perf_counter() - t0)


def max_balanced_biclique_exact(b: BipartiteGraph, cap: int = DEFAULT_SIDE_CAP) -> SolveResult:
    """Largest t such that a complete balanced biclique with t vertices per side exists.

    The witness is the lexicographically smallest size-t subset of the
    enumeration side together with the smallest t vertices of its common
    neighborhood.
    """
    enum_left, k, other, nbr = _enumeration_side(b)
    _require_cap(k, cap, "smaller side size")
    t0 = time.perf_counter()
    best_t = 0
    explored = 0
    full_other = (1 << other) - 1

    def search(size: int, tmask: int, start: int) -> None:
        nonlocal best_t, explored
        explored += 1
        if size:
            best_t = max(best_t, min(size, tmask.bit_count()))
        for j in range(start, k):
            nt = tmask & nbr[j]
            if min(size + (k - j), nt.bit_count()) <= best_t:
                continue
            search(size + 1, nt, j + 1)

    search(0, full_other, 0)

    if best_t == 0:
        return SolveResult(0, Biclique((), ()), explored, time.perf_counter() - t0)

    def witness(s: list[int], tmask: int, start: int) -> tuple[tuple[int, ...], int] | None:
        nonlocal explored
        explored += 1
        if len(s) == best_t:
            return tuple(s), tmask
        for j in range(start, k - (best_t - len(s)) + 1):
            nt = tmask & nbr[j]
            if nt.bit_count() < best_t:
                continue
            s.append(j)
            found = witness(s, nt, j + 1)
            if found is not None:
                return found
            s.pop()
        return None

    found = witness([], full_other, 0)
    assert found is not None
    subset, tmask = found
    partner = _bits(tmask)[:best_t]
    return SolveResult(
        best_t, _orient(enum_left, subset, partner), explored, time.perf_counter() - t0
    )
