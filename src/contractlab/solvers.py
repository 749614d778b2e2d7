"""Exact maximization for contraction and biclique problems, plus a seeded greedy.

The contraction problems share one depth-first walker over the subset
lattice of edge ids, in lexicographic order (include an edge before skipping
it).  It yields the valid sets longer than a floor its caller owns: the two
maximizers raise the floor to each set they receive, so the last one is the
lexicographically smallest optimum, and the enumerator never raises it.  Two
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
partition once and reuses the result for every other set inducing it.  A
child's induced rows are derived from its parent's, so a search runs no BFS
or Dijkstra.  Rows are packed one int per row (``graphs.RowPacking``): field
y of row u, ``width`` bits wide, holds d(u, y) under a guard bit, and width
is chosen from the largest base distance D so that the merge update's sums
c + m[y] <= 2*D stay below the guard bit (2*D < 2**(width-1)).  So a row
is derived (``graphs.MergedRows``) and tested against the tolerance
(``ToleranceCheck``) with a few big-int operations rather than a loop per
entry.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Generator, Iterator

from .graphs import Biclique, BipartiteGraph, DisconnectedGraphError, Graph, MergedRows, is_connected
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


def _valid_sets(
    check: ToleranceCheck, weak: bool, floor: list[int]
) -> Generator[tuple[int, ...], None, int]:
    """Yield the valid sets longer than ``floor[0]`` in lexicographic order,
    then return the number of search nodes visited.

    The caller owns ``floor`` and may raise it between sets; a child loop
    stops once taking every remaining edge could not get past it.

    A node carries its partition as min-vertex labels, next to its packed
    induced rows and failing pairs, starting from the packed base rows.  An
    edge inside a block changes none of them.  Otherwise the child's rows
    are a ``MergedRows`` over the parent's, read only as far as the scan
    goes, and its failing pairs are memoised by labels, so a partition met
    before costs no scan.  Weak mode keeps every failing pair, which
    ``_mergeable`` needs; strong mode prunes on any failing pair, so it
    keeps at most the first and its scan stops there.
    """
    g = check.graph
    m = check.m
    full = check.full_mask
    suffix = _suffix_labels(g)
    seen: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    explored = 0

    def scan(mask: int, rows) -> list[tuple[int, int]]:
        if weak:
            return check.failing_pairs(mask, True, rows)
        w = check.first_violation(mask, False, rows)
        return [] if w is None else [(w.u, w.v)]

    def visit(
        cset: list[int], mask: int, start: int, labels: tuple[int, ...], rows, failing: list
    ) -> Iterator[tuple[int, ...]]:
        nonlocal explored
        explored += 1
        if not failing and (not weak or mask != full) and len(cset) > floor[0]:
            yield tuple(cset)
        if start == m:
            return
        if failing and (not weak or not _mergeable(suffix[start], g, cset, failing)):
            return
        reach = len(cset) + m
        for j in range(start, m):
            if reach - j <= floor[0]:
                break
            child = mask | (1 << j)
            u, v, _ = g.edges[j]
            a, b = labels[u], labels[v]
            node = labels, rows, failing
            if a != b:
                if a > b:
                    a, b = b, a
                merged = tuple([a if x == b else x for x in labels])
                merged_rows = MergedRows(rows, a, b, merged, packing)
                merged_failing = seen.get(merged)
                if merged_failing is None:
                    merged_failing = seen[merged] = scan(child, merged_rows)
                node = merged, merged_rows, merged_failing
            cset.append(j)
            yield from visit(cset, child, j + 1, *node)
            cset.pop()

    packing = g.distances.packed
    base = packing.rows
    # visit is a reference cycle: without the clear, the memo outlives the
    # search until the next full garbage collection
    try:
        yield from visit([], 0, 0, tuple(range(check.n)), base, scan(0, base))
    finally:
        seen.clear()
    return explored


def _max_valid_set(g: Graph, tolerance: Tolerance, cap: int, weak: bool) -> SolveResult:
    _require_connected(g)
    if weak and g.edge_count == 0:
        raise ValueError(
            "weak contraction needs at least one edge: no proper subset exists"
        )
    _require_cap(g.edge_count, cap, "edge count")
    t0 = time.perf_counter()
    floor = [-1]
    walk = _valid_sets(ToleranceCheck(g, tolerance), weak, floor)
    best = None
    try:
        while True:
            best = next(walk)
            floor[0] = len(best)
    except StopIteration as done:
        explored = done.value
    if best is None:
        what = "weak contraction" if weak else "contraction set"
        raise ValueError(
            f"no valid {what} exists for this tolerance "
            "(possible only when alpha < 1)"
        )
    return SolveResult(len(best), best, explored, time.perf_counter() - t0)


def max_contraction_exact(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP
) -> SolveResult:
    """Largest edge set whose contraction keeps every pair within tolerance.

    Ties break to the lexicographically smallest sorted id tuple.  Refuses
    graphs over the edge cap.
    """
    return _max_valid_set(g, tolerance, cap, weak=False)


def max_weak_contraction_exact(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP
) -> SolveResult:
    """Largest proper edge subset valid in weak mode (merged pairs exempt)."""
    return _max_valid_set(g, tolerance, cap, weak=True)


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
    yield from _valid_sets(ToleranceCheck(g, tolerance), True, [-1])


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
