"""Exact maximization for contraction and biclique problems.

The contraction problems share one depth-first walker over the subset
lattice of edge ids, in lexicographic order (include an edge before skipping
it).  It yields the valid sets longer than a floor its caller owns, and a
child whose subtree cannot get past the floor is not built: at depth d,
child j's sets hold at most d + bound[j] edges, where ``bound`` is a suffix
bound the caller also owns.  The weak maximizer raises the floor to each set
it receives, so its last one is the lexicographically smallest optimum, and
the enumerator never raises it; both pass the plain bound m - j.  Three
prunes are used, the first two backed by the monotone fact that adding edges
never increases an induced distance:

* strong mode: a failing pair has a fixed positive right-hand side and its
  induced distance can only shrink, so every superset of an invalid set is
  invalid and the branch dies;
* weak mode: a failing pair stays failing until it is merged.  Child j and
  its descendants draw edges only from the chosen ones and edges j..m-1, a
  set that shrinks as j grows, so a node builds its children only up to the
  last j whose set still joins every failing pair (``_last_child``), and
  none if no j does;
* strong mode only: the Russian-doll suffix bound (``_suffix_bounds``).
  Strong validity is down-closed (every subset of a valid set is valid), so
  cset + {j} + S valid makes {j} + S a valid set inside edges j..m-1, and
  the largest such set, ``bound[j]``, caps the subtree.  The strong
  maximizer computes every bound[j] exactly, from j = m-1 down, one short
  walk each.  Include-first order is lexicographic order, so the first set
  the j = 0 walk finds is the lexicographically smallest optimum; when that
  walk finds none, a final walk whose floor is one below the optimum takes
  its first set instead.

Validity itself is not monotone in weak mode (merging exempts pairs, so a
subset of a valid set may fail), so weak mode has no suffix bound and takes
no other shortcut; equivalence with plain power-set filtering is part of the
test suite.  Induced distances, and so the failing pairs, depend only on the
vertex partition a set induces, so each search (``_Search``, shared by every
walk of one solve) evaluates a partition once and reuses the result for
every other set inducing it.  A child's induced distances are derived from
its parent's, so a search runs no BFS or Dijkstra.  The walker is one
generator frame driving an explicit stack of open nodes, not a generator per
node, and it holds a partition as a str of block labels: a merge is one
``str.replace`` and the memo key is the str itself, whose hash Python
caches.

The weak maximizer walks only on trees.  On a connected graph with a cycle
(m >= n) the weak optimum is m - 1 in closed form: removing a non-bridge j
leaves a connected set that merges every vertex, so every pair is exempt and
E - {j} is valid whatever the tolerance, and no set of m edges is proper.
Every (m-1)-set is some E - {j}, and a larger j gives a smaller sorted tuple,
so the maximizer tests E - {j} for j = m-1 down and returns the first valid
one, the lexicographically smallest optimum, after at most m verdicts (a
bridge may pass or fail; the first non-bridge passes).

A search node holds its whole induced distance matrix as one Python int
(``RowPacking``): every pair's distance in a fixed-width field under a guard
bit, row-major.  Deriving the matrix after a merge (``RowPacking.merge``)
and testing it against the tolerance (the walker's scan, ``_matrix_scan``)
are then each a fixed handful of big-int operations, not a loop over rows
or entries.  This module is the only one that knows the format.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

# is_connected and is_weak_contraction are not called here; kept as
# solvers.is_connected and solvers.is_weak_contraction, which bench/ reads
from .graphs import Biclique, BipartiteGraph, Graph, is_connected, require_connected
from .contraction import Tolerance, ToleranceCheck, is_weak_contraction

DEFAULT_EDGE_CAP = 20
DEFAULT_SIDE_CAP = 20
_SPLIT_FIRST = "solver requires a connected graph; split into components first"


class CapExceededError(ValueError):
    """Exact search refused because the instance exceeds the enumeration cap."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``witness`` is a sorted tuple of edge ids (contraction problems) or a
    Biclique; ``explored`` counts search nodes and is deterministic (a strong
    contraction solve sums the nodes of all its walks: one per suffix bound
    and, if one runs, the final one; a weak solve in closed form, on a graph
    with a cycle, counts the sets it tested, m - j for witness E - {j}),
    ``elapsed`` is wall time in seconds and is never compared.
    """

    objective: int
    witness: tuple[int, ...] | Biclique
    explored: int
    elapsed: float


def _require_cap(m: int, cap: int, what: str) -> None:
    if m > cap:
        raise CapExceededError(f"{what} {m} exceeds the enumeration cap ({cap})")


def _last_child(labels: str, g: Graph, pairs) -> int:
    """The largest j at which the partition ``labels`` joined with the edges
    j..m-1 joins every pair, or -1 if none does.

    ``pairs`` is a non-empty list of pairs that ``labels`` leaves apart.
    Edges are added from the last one down, each merge relabelling one block
    (one ``str.replace``), and a joined pair stays joined, so one index walks
    the pairs once.  The edges j..m-1 only grow as j falls, so every j up to
    the result joins every pair too.
    """
    label = labels
    i, k = 0, len(pairs)
    edges = g.edges
    for j in range(g.edge_count - 1, -1, -1):
        u, v, _ = edges[j]
        a, b = label[u], label[v]
        if a != b:
            label = label.replace(b, a)
            x, y = pairs[i]
            while label[x] == label[y]:
                i += 1
                if i == k:
                    return j
                x, y = pairs[i]
    return -1


class RowPacking(NamedTuple):
    """A distance matrix packed into one Python int (SWAR, SIMD within a
    register: Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975).

    Field u*n + y is ``width`` bits wide, starts at bit ``(u*n + y) * width``
    and holds d(u, y) in its low ``width - 1`` bits; its top bit is a guard
    bit, clear in every packed matrix.  So row u is the ``span`` = n*width
    bits from ``u * span`` up.  With D the largest base distance, ``width =
    (2*D + 1).bit_length() + 1``, so every value up to 2*D + 1 fits below the
    guard, and ``top`` is D + 1, above every distance the graph holds.
    ``ones`` has a 1 in every field and ``guards`` every guard bit set;
    ``row_ones`` and ``row_guards`` are the same for one row.  For packed x
    and y, ``((x | guards) - y) & guards`` has field i's guard set exactly
    where x[i] >= y[i]: with the guards set first no field borrows from the
    next.  Shifting that down by ``width - 1`` and subtracting turns each set
    guard into a mask of its field's value bits, which gives the fieldwise
    minimum (``_min``), and the same guarded subtraction compares a matrix
    with a matrix of thresholds (``_matrix_scan``).

    ``merge`` spreads one row over the whole matrix with two products.
    ``spread`` = sum of 1 << k*(n-1)*width over k < n moves field u of a row
    to the start of row u; only these diagonal terms land in column 0 and at
    most two terms meet in any other field.  No value exceeds D, so a sum of
    two is at most 2*D < 2**(width-1) and never carries into a guard bit.
    ``col0`` keeps the value bits of column 0, and ``copies`` (a 1 at the
    start of every row) repeats a row in every row.
    """

    width: int
    span: int
    ones: int
    guards: int
    row_ones: int
    row_guards: int
    spread: int
    col0: int
    copies: int
    top: int

    @classmethod
    def for_rows(cls, base: list[list[int]]) -> RowPacking:
        """The packing that fits a connected graph's scaled ``base`` rows
        (an unreachable -1 cannot be packed)."""
        n = len(base)
        top = max(map(max, base), default=0) + 1
        width = (2 * top - 1).bit_length() + 1
        span = n * width
        row_ones = sum(1 << (y * width) for y in range(n))
        copies = sum(1 << (u * span) for u in range(n))
        spread = sum(1 << (k * (n - 1) * width) for k in range(n))
        ones = row_ones * copies
        return cls(
            width, span, ones, ones << (width - 1), row_ones, row_ones << (width - 1),
            spread, copies * ((1 << (width - 1)) - 1), copies, top,
        )

    def pack(self, values) -> int:
        """Fields 0, 1, ... holding non-negative ``values`` below ``2**(width-1)``;
        a matrix is its rows' values in row-major order."""
        width = self.width
        return sum(d << (i * width) for i, d in enumerate(values))

    def merge(self, matrix: int, a: int, b: int) -> int:
        """The packed induced matrix after the blocks of a and b merge.

        With m the fieldwise minimum of rows a and b (the merged block's
        row), the result is min(d(u,y), m[u] + m[y]) in every field.  This is
        exact: d'(u,y) = min(d(u,y), d(u,a) + d(b,y), d(u,b) + d(a,y)), and
        m[u] + m[y] is the least of those two cross terms and of d(u,a) +
        d(a,y) and d(u,b) + d(b,y), which are at least d(u,y) by the triangle
        inequality.  Where m[u] = 0 (u merged with a or b), row u becomes m.
        The matrix must have no -1 (unreachable) field.
        """
        width, span, _, guards, row_ones, row_guards, spread, col0, copies, _ = self
        row = (1 << span) - 1
        m = _min((matrix >> (a * span)) & row, (matrix >> (b * span)) & row, row_guards, width)
        cross = ((m * spread) & col0) * row_ones + m * copies
        return _min(matrix, cross, guards, width)


def _min(x: int, y: int, guards: int, width: int) -> int:
    """Fieldwise minimum of packed x and y (see ``RowPacking``)."""
    ge = ((x | guards) - y) & guards
    return x ^ ((x ^ y) & (ge - (ge >> (width - 1))))


def _matrix_scan(
    check: ToleranceCheck, weak: bool, packing: RowPacking
) -> Callable[[int], list[tuple[int, int]]]:
    """The walker's pair scan: ``scan(matrix)`` lists the failing pairs of a
    packed induced matrix, in lexicographic order.

    Pair (u, v) fails exactly when ``lhs * d + offset < coeff * D`` (the
    ``ToleranceCheck`` inequality, D its base distance), that is when its
    induced distance d is below ceil((coeff*D - offset) / lhs), computed as
    ``-((offset - coeff*D) // lhs)``.  So the scan holds a packed threshold
    matrix: that ceiling clamped to [0, D+1] (``RowPacking.top``, since d
    lies in [0, D]), and 0 for v <= u.  One guarded subtraction, ``(matrix
    | guards) - thresholds``, clears field (u, v)'s guard exactly where
    (u, v) fails, and weak mode keeps only the fields holding at least 1
    (unmerged pairs).  Fields run in lexicographic pair order, so the set
    guards are decoded lowest first: strong mode stops at the first, weak
    mode decodes every one into the search's own flat table of (u, v)
    tuples, shared rather than made per scan, so the walker's memo of
    failing pairs holds no copies.
    """
    width, _, ones, guards, *_ = packing
    lhs, offset, coeff, n = check.lhs, check.offset, check.coeff, check.n
    thresholds = packing.pack(
        0 if v <= u else min(max(-((offset - coeff * d) // lhs), 0), packing.top)
        for u, row in enumerate(check.base_scaled)
        for v, d in enumerate(row)
    )
    pairs = [(u, v) for u in range(n) for v in range(n)]

    def scan(matrix: int) -> list[tuple[int, int]]:
        held = matrix | guards
        failing = ((held - thresholds) & guards) ^ guards
        if not weak:
            return [pairs[((failing & -failing).bit_length() - 1) // width]] if failing else []
        failing &= held - ones
        out = []
        while failing:
            low = failing & -failing
            out.append(pairs[(low.bit_length() - 1) // width])
            failing ^= low
        return out

    return scan


class _Search:
    """The state that every walk of one search shares.

    One ``RowPacking``, one threshold matrix (inside ``scan``), one root node
    and one partition memo ``seen``, so a partition is merged and scanned
    once per search however many walks meet it.  ``explored`` sums the nodes
    of every walk, including walks their consumer closed early.

    A node is its partition as a str (character i is ``chr`` of the least
    vertex in i's block, so a merge is one ``str.replace``), its packed
    induced matrix (``RowPacking``), its failing pairs and its last child
    worth building (m - 1 when none fails).  It depends only on its
    partition, so nodes are memoised by the labels str: a partition met
    before costs no merge, no scan and no ``_last_child`` pass.  Weak mode
    keeps every failing pair, which ``_last_child`` needs; strong mode prunes
    on any failing pair, so it keeps at most the first and its scan stops
    there.
    """

    def __init__(self, check: ToleranceCheck, weak: bool) -> None:
        self.edges, self.weak, self.m = check.graph.edges, weak, check.m
        self.packing = packing = RowPacking.for_rows(check.base_scaled)
        self.seen: dict[str, tuple[str, int, list[tuple[int, int]], int]] = {}
        self.explored = 0
        scan, graph, m = _matrix_scan(check, weak, packing), check.graph, check.m

        # a closure rather than a method: it runs once per partition and reads no attribute
        def evaluate(labels: str, matrix: int) -> tuple[str, int, list[tuple[int, int]], int]:
            failing = scan(matrix)
            if weak and failing:
                return labels, matrix, failing, _last_child(labels, graph, failing)
            return labels, matrix, failing, m - 1

        self.evaluate = evaluate
        labels = "".join(map(chr, range(check.n)))
        self.root = evaluate(labels, packing.pack(d for row in check.base_scaled for d in row))

    def walk(
        self, floor: list[int], bound: list[int], start: int = 0
    ) -> Iterator[tuple[int, ...]]:
        """Yield the valid sets longer than ``floor[0]`` in lexicographic
        order, among those whose least edge is at least ``start``.

        The caller owns ``floor`` and may raise it between sets.  It also
        owns ``bound`` (m + 1 entries): ``bound[j]`` caps the size of every
        valid set inside the edges j..m-1 and must not grow with j.  A node
        at depth d stops its child loop at the first child j with
        d + bound[j] <= floor[0], tested as each child is taken.  The plain
        ``bound[j] = m - j`` is always safe; only strong mode has a tighter
        one (``_suffix_bounds``).

        One generator frame walks the lattice with an explicit stack of open
        nodes, each entry the node's next child j and its node, starting
        from the root (the packed base matrix).  An edge inside a block
        changes nothing; otherwise the child's matrix is one
        ``RowPacking.merge`` of the parent's, unless the memo holds it.
        Nodes are added to ``explored`` before each yield and at the end.
        """
        m, weak, seen, evaluate = self.m, self.weak, self.seen, self.evaluate
        edges, merge = self.edges, self.packing.merge
        node = self.root
        cset: list[int] = []  # the stack's node at depth i has cset[:i]
        stack: list[list] = []  # [next child, node] per open node
        explored = 0
        while True:
            explored += 1
            failing = node[2]
            if not failing and (not weak or len(cset) < m) and len(cset) > floor[0]:
                self.explored += explored
                explored = 0
                yield tuple(cset)
            if start < m and (weak or not failing):
                stack.append([start, node])
            while stack:
                entry = stack[-1]
                j, (labels, matrix, _, last) = entry
                depth = len(stack) - 1
                if j > last or depth + bound[j] <= floor[0]:
                    stack.pop()
                    continue
                entry[0] = start = j + 1
                del cset[depth:]
                cset.append(j)
                u, v, _ = edges[j]
                a, b = labels[u], labels[v]
                if a != b:
                    if a > b:
                        a, b = b, a
                    merged = labels.replace(b, a)
                    node = seen.get(merged)
                    if node is None:
                        node = seen[merged] = evaluate(merged, merge(matrix, ord(a), ord(b)))
                else:
                    node = entry[1]
                break
            else:
                self.explored += explored
                return


def _suffix_bounds(search: _Search) -> tuple[list[int], tuple[int, ...] | None]:
    """The Russian-doll bounds of a strong search (Östergård, "A fast
    algorithm for the maximum clique problem", Discrete Appl. Math. 2002):
    ``bound[i]`` is the size of the largest valid set inside edges i..m-1,
    and ``bound[m]`` is 0.  Returned with the set the i = 0 walk found, or
    None if it found none.

    Strong validity is down-closed, so bound[i] is bound[i+1] or one more,
    and it is one more exactly when some valid set inside i..m-1 is longer
    than bound[i+1].  For i = m-1 down to 0 one walk, whose root takes only
    children from i on, looks for such a set with floor bound[i+1] and
    bound[i] at its largest possible value, and stops at the first.  Every
    later entry is exact by then, so only sets containing edge i are built.
    The i = 0 walk takes every child, so the set it finds is the first
    optimum in lexicographic order.
    """
    m = search.m
    bound = [0] * (m + 1)
    first = None
    for i in range(m - 1, -1, -1):
        bound[i] = bound[i + 1] + 1
        first = next(search.walk([bound[i + 1]], bound, i), None)
        if first is None:
            bound[i] = bound[i + 1]
    return bound, first


def _max_valid_set(g: Graph, tolerance: Tolerance, cap: int, weak: bool) -> SolveResult:
    require_connected(g, _SPLIT_FIRST)
    if weak and g.edge_count == 0:
        raise ValueError(
            "weak contraction needs at least one edge: no proper subset exists"
        )
    _require_cap(g.edge_count, cap, "edge count")
    t0 = time.perf_counter()
    check = ToleranceCheck(g, tolerance)
    m = g.edge_count
    if weak and m >= g.vertex_count:
        # connected with a cycle: the closed form (module docstring)
        full = check.full_mask
        j = next(j for j in range(m - 1, -1, -1) if check.is_valid(full ^ (1 << j), True))
        best = (*range(j), *range(j + 1, m))
        return SolveResult(m - 1, best, m - j, time.perf_counter() - t0)
    search = _Search(check, weak)
    best = None
    if weak:
        floor = [-1]
        for best in search.walk(floor, list(range(m, -1, -1))):
            floor[0] = len(best)
    elif not search.root[2]:  # an invalid empty set has no valid superset
        bound, best = _suffix_bounds(search)
        if best is None:
            # bound[0] = bound[1] is the optimum, so the first set longer
            # than bound[0] - 1 is the lexicographically smallest one
            best = next(search.walk([bound[0] - 1], bound))
    if best is None:
        what = "weak contraction" if weak else "contraction set"
        raise ValueError(
            f"no valid {what} exists for this tolerance "
            "(possible only when alpha < 1)"
        )
    return SolveResult(len(best), best, search.explored, time.perf_counter() - t0)


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
    require_connected(g, _SPLIT_FIRST)
    _require_cap(g.edge_count, cap, "edge count")
    m = g.edge_count
    yield from _Search(ToleranceCheck(g, tolerance), True).walk([-1], list(range(m, -1, -1)))


# ----------------------------------------------------------------------------
# Bicliques.  One include-first walk serves both maximizers: it runs over
# subsets of the smaller side (left wins ties), the partner side always the
# full common neighborhood, held as a bitmask.  Include-first depth-first
# order makes the first optimum the lexicographically smallest subset of the
# enumeration side.
# ----------------------------------------------------------------------------


def _best_biclique(
    b: BipartiteGraph, cap: int, value: Callable[[int, int], int], balanced: bool
) -> SolveResult:
    """The first subset S of the enumeration side, in include-first order,
    whose common neighborhood T maximizes ``value(|S|, |T|)``.

    ``value`` must not decrease in either argument, so a node whose subsets
    can hold k - j more vertices stops at the first child j with value(|S| +
    k - j, |T|) <= best and skips a child whose own neighborhood gives no
    more.  A balanced witness keeps the first |S| vertices of T.
    """
    enum_left = b.left_count <= b.right_count
    k, other = (b.left_count, b.right_count) if enum_left else (b.right_count, b.left_count)
    _require_cap(k, cap, "smaller side size")
    t0 = time.perf_counter()
    nbr = [0] * k
    for l, r, _ in b.edges:
        x, y = (l, r) if enum_left else (r, l)
        nbr[x] |= 1 << y
    best_value = 0
    best = Biclique((), ())
    explored = 0

    def visit(s: list[int], tmask: int, start: int) -> None:
        nonlocal best_value, best, explored
        explored += 1
        size, width = len(s), tmask.bit_count()
        if value(size, width) > best_value:
            best_value = value(size, width)
            partner = tuple(y for y in range(other) if (tmask >> y) & 1)
            if balanced:
                partner = partner[:size]
            subset = tuple(s)
            best = Biclique(subset, partner) if enum_left else Biclique(partner, subset)
        for j in range(start, k):
            # nt is a subset of tmask, so once width fails no later child passes
            reach = size + k - j
            if value(reach, width) <= best_value:
                break
            nt = tmask & nbr[j]
            if value(reach, nt.bit_count()) <= best_value:
                continue
            s.append(j)
            visit(s, nt, j + 1)
            s.pop()

    visit([], (1 << other) - 1, 0)
    return SolveResult(best_value, best, explored, time.perf_counter() - t0)


def max_edge_biclique_exact(b: BipartiteGraph, cap: int = DEFAULT_SIDE_CAP) -> SolveResult:
    """Complete bipartite subgraph with the maximum number of edges."""
    return _best_biclique(b, cap, operator.mul, balanced=False)


def max_balanced_biclique_exact(b: BipartiteGraph, cap: int = DEFAULT_SIDE_CAP) -> SolveResult:
    """Largest t such that a complete balanced biclique with t vertices per side exists.

    The witness is the lexicographically smallest size-t subset of the
    enumeration side together with the smallest t vertices of its common
    neighborhood.  One search finds both: min(|S|, |T|) rises only at a
    subset of exactly the new size (a longer one has a prefix of that size,
    visited earlier, that would already have raised it), so the first subset
    to reach the final t is the lexicographically smallest one.
    """
    # min(s, t) as a lambda: the builtin min costs several times more per call
    return _best_biclique(b, cap, lambda s, t: s if s < t else t, balanced=True)
