"""Exact maximization for contraction and biclique problems.

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
or Dijkstra.

The searches hold a distance row as one Python int (``RowPacking``): each
vertex's distance in a fixed-width field under a guard bit.  Deriving a row
after a merge (``MergedRows``) and testing it against the tolerance (the
walker's scan, ``_row_scan``) are then a few big-int operations rather than
a loop per entry.  This module is the only one that knows the format.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Generator, Iterator, NamedTuple

from .graphs import Biclique, BipartiteGraph, DisconnectedGraphError, Graph, is_connected
# is_weak_contraction is not called here; kept as solvers.is_weak_contraction, which bench/ reads
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


class RowPacking(NamedTuple):
    """Distance rows packed one Python int per row (SWAR, SIMD within a
    register: Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975).

    Field i of a row is ``width`` bits wide, starts at bit ``i * width`` and
    holds the row's distance to vertex i in its low ``width - 1`` bits; its
    top bit is a guard bit, clear in every packed row.  With D the largest
    base distance, ``width = (2*D + 1).bit_length() + 1``, so every value up
    to 2*D + 1 fits below the guard.  ``ones`` has a 1 in every field and
    ``guards`` every guard bit set, and ``top`` is D + 1, above every
    distance a row of the graph holds.  For packed x and y, ``((x | guards) - y)
    & guards`` (``ge``) has field i's guard set exactly where x[i] >= y[i]:
    with the guards set first no field borrows from the next.  Shifting ge
    down by ``width - 1`` and subtracting turns each set guard into a mask
    of its field's value bits, so ``x ^ ((x ^ y) & (ge - (ge >> (width -
    1))))`` is the fieldwise minimum (``MergedRows``).  The same guarded
    subtraction compares a row with a row of thresholds (``_row_scan``).
    Each is a few big-int operations per row.
    """

    width: int
    ones: int
    guards: int
    top: int

    @classmethod
    def for_rows(cls, base: list[list[int]]) -> RowPacking:
        """The packing that fits a connected graph's scaled ``base`` rows
        (an unreachable -1 cannot be packed)."""
        top = max(map(max, base), default=0) + 1
        width = (2 * top - 1).bit_length() + 1
        ones = sum(1 << (y * width) for y in range(len(base)))
        return cls(width, ones, ones << (width - 1), top)

    def pack(self, values) -> int:
        """One packed row of non-negative values below ``2**(width-1)``."""
        width = self.width
        return sum(d << (i * width) for i, d in enumerate(values))


class MergedRows:
    """The packed induced rows one merge below a parent's, derived on first use.

    ``parent`` is the parent's source of packed rows (``parent[u]``: the
    packed base rows or another ``MergedRows``); the child merges the
    blocks of a and b.  With m the fieldwise minimum of the parent's rows a
    and b (the merged block's row) and c = min(d(u,a), d(u,b)) = m[u], the
    child's row u is m when c == 0 and otherwise min(d(u,y), c + m[y]) for
    every y.  This is exact: d'(u,y) = min(d(u,y), d(u,a) + d(b,y),
    d(u,b) + d(a,y)), and the two cross terms the formula adds are at least
    d(u,y) by the triangle inequality.  No search runs; each row costs a few
    big-int operations on whole packed rows: ``m + c * ones`` adds c to every
    field, which cannot carry into a guard bit because c + m[y] <= 2*D <
    2**(width-1), and the fieldwise minimum is the guarded subtraction
    described in ``RowPacking``.

    ``labels[v]`` names v's block in the child (vertices with equal labels
    have equal rows, and labels lie in ``range(len(labels))``), so one row is
    derived per block and shared by the block.  The parent's rows are only
    read.  The update assumes a connected graph, with no -1 (unreachable) in
    any parent row.
    """

    __slots__ = ("_parent", "_a", "_b", "labels", "_packing", "_merged", "_rows")

    def __init__(self, parent, a: int, b: int, labels, packing: RowPacking):
        self._parent = parent
        self._a = a
        self._b = b
        self.labels = labels
        self._packing = packing
        self._merged: int | None = None
        self._rows: list = [None] * len(labels)

    def __getitem__(self, u: int) -> int:
        key = self.labels[u]
        row = self._rows[key]
        if row is None:
            # the hot path of the searches: the fieldwise minimum (see
            # RowPacking) and the read of field u are written out in place
            parent = self._parent
            width, ones, guards, _ = self._packing
            m = self._merged
            if m is None:
                x, y = parent[self._a], parent[self._b]
                ge = ((x | guards) - y) & guards
                m = self._merged = x ^ ((x ^ y) & (ge - (ge >> (width - 1))))
            c = (m >> (u * width)) & ((1 << (width - 1)) - 1)
            if c == 0:
                row = m
            else:
                x, y = parent[u], m + c * ones
                ge = ((x | guards) - y) & guards
                row = x ^ ((x ^ y) & (ge - (ge >> (width - 1))))
            self._rows[key] = row
        return row


def _row_scan(
    check: ToleranceCheck, weak: bool, packing: RowPacking
) -> Callable[..., list[tuple[int, int]]]:
    """The walker's pair scan: ``scan(rows)`` lists the failing pairs of a
    source of packed induced rows (``rows[u]``), in lexicographic order.

    Pair (u, v) fails exactly when ``check.lhs * d < check.rhs[u][v]``, that
    is when its induced distance d is below ceil(rhs/lhs).  So each row u <
    n-1 gets a packed threshold row: that ceiling clamped to [0, D+1]
    (``RowPacking.top``, since d lies in [0, D]), and 0 for v <= u.  One
    guarded subtraction, ``(row | guards) - threshold``, clears field v's
    guard exactly where (u, v) fails, and weak mode keeps only the fields
    where the row holds at least 1 (unmerged pairs).  Strong mode stops at
    the first failing pair.  Weak mode decodes every one into the search's
    own table of (u, v) tuples, shared rather than made per scan, so the
    walker's memo of failing pairs holds no copies.
    """
    width, ones, guards, top = packing
    lhs = check.lhs
    thresholds = [
        packing.pack(0 if v <= u else min(max(-(-r // lhs), 0), top) for v, r in enumerate(rhs))
        for u, rhs in enumerate(check.rhs[:-1])
    ]
    pairs = [[(u, v) for v in range(check.n)] for u in range(len(thresholds))]

    def scan(rows) -> list[tuple[int, int]]:
        out = []
        for u, threshold in enumerate(thresholds):
            held = rows[u] | guards
            failing = ((held - threshold) & guards) ^ guards
            if weak:
                failing &= held - ones
            while failing:
                low = failing & -failing
                out.append(pairs[u][(low.bit_length() - 1) // width])
                if not weak:
                    return out
                failing ^= low
        return out

    return scan


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
    suffix = _suffix_labels(g)
    seen: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    explored = 0

    def visit(
        cset: list[int], start: int, labels: tuple[int, ...], rows, failing: list
    ) -> Iterator[tuple[int, ...]]:
        nonlocal explored
        explored += 1
        if not failing and (not weak or len(cset) < m) and len(cset) > floor[0]:
            yield tuple(cset)
        if start == m:
            return
        if failing and (not weak or not _mergeable(suffix[start], g, cset, failing)):
            return
        reach = len(cset) + m
        for j in range(start, m):
            if reach - j <= floor[0]:
                break
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
                    merged_failing = seen[merged] = scan(merged_rows)
                node = merged, merged_rows, merged_failing
            cset.append(j)
            yield from visit(cset, j + 1, *node)
            cset.pop()

    packing = RowPacking.for_rows(check.base_scaled)
    base = list(map(packing.pack, check.base_scaled))
    scan = _row_scan(check, weak, packing)
    # visit is a reference cycle: without the clear, the memo outlives the
    # search until the next full garbage collection
    try:
        yield from visit([], 0, tuple(range(check.n)), base, scan(base))
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


# ----------------------------------------------------------------------------
# Bicliques.  Enumeration runs over subsets of the smaller side (left wins
# ties); the partner side is always the full common neighborhood, held as a
# bitmask.  Include-first depth-first order makes the first optimum the
# lexicographically smallest subset of the enumeration side.
# ----------------------------------------------------------------------------


def _enumeration_side(b: BipartiteGraph) -> tuple[bool, int, int, list[int]]:
    """(enumerating left?, side size, other size, neighbor bitmasks)."""
    enum_left = b.left_count <= b.right_count
    k, other = (b.left_count, b.right_count) if enum_left else (b.right_count, b.left_count)
    nbr = [0] * k
    for l, r, _ in b.edges:
        x, y = (l, r) if enum_left else (r, l)
        nbr[x] |= 1 << y
    return enum_left, k, other, nbr


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


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

    def visit(s: list[int], tmask: int, start: int) -> None:
        nonlocal best_obj, best, explored
        explored += 1
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

    visit([], (1 << other) - 1, 0)
    return SolveResult(best_obj, best, explored, time.perf_counter() - t0)


def max_balanced_biclique_exact(b: BipartiteGraph, cap: int = DEFAULT_SIDE_CAP) -> SolveResult:
    """Largest t such that a complete balanced biclique with t vertices per side exists.

    The witness is the lexicographically smallest size-t subset of the
    enumeration side together with the smallest t vertices of its common
    neighborhood.  One search finds both: ``best_t`` rises only at a subset
    of exactly the new size (a longer one has a prefix of that size, visited
    earlier, that would already have raised it), so the first subset to
    reach the final t is the lexicographically smallest one.
    """
    enum_left, k, other, nbr = _enumeration_side(b)
    _require_cap(k, cap, "smaller side size")
    t0 = time.perf_counter()
    best_t = 0
    best = Biclique((), ())
    explored = 0
    s = [0] * k  # s[:size] is the subset at the current node

    def visit(size: int, tmask: int, start: int) -> None:
        nonlocal best_t, best, explored
        explored += 1
        if size > best_t and tmask.bit_count() > best_t:
            best_t = size
            best = _orient(enum_left, tuple(s[:size]), _bits(tmask)[:size])
        for j in range(start, k):
            if size + k - j <= best_t:
                break
            nt = tmask & nbr[j]
            if nt.bit_count() <= best_t:
                continue
            s[size] = j
            visit(size + 1, nt, j + 1)

    visit(0, (1 << other) - 1, 0)
    return SolveResult(best_t, best, explored, time.perf_counter() - t0)
