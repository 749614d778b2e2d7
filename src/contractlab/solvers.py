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
  invalid and the branch dies (its node is dead);
* weak mode: a failing pair stays failing until it is merged.  Child j and
  its descendants draw edges only from the chosen ones and edges j..m-1, a
  set that shrinks as j grows, so a node builds its children only up to the
  last j whose set still joins every failing pair, and none if that j is
  below its first child.  One pass finds that j (``last_child`` in
  ``_evaluation``): it adds the edges m-1 down to the node's first child and
  no further, and decodes a failing pair only once the pair before it is
  joined, so a dead node stops at its first pair that cannot be joined.
  On a tree (m = n - 1; every search refuses a disconnected graph) a
  failing pair's path is the only way to join it, so every edge on it lies
  in every valid superset: a weak search of a tree replaces the pass with
  a forced-merge closure (``close`` in ``_evaluation``) that merges those
  paths, then the paths of the pairs failing after that, until the set is
  valid.  The node builds children only up to the least edge so forced,
  and none if one lies below its first child or every edge is forced;
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
subset of a valid set may fail), so weak mode has no suffix bound;
equivalence with plain power-set filtering is part of the test suite.

Induced distances, and so the failing pairs, depend only on the vertex
partition a set induces, so each search (``_Search``, shared by every walk
of one solve, and by the weak calls handed one from ``weak_search``)
evaluates a partition once and answers every other set inducing it with
that result (``_Search`` says why it is final).  A child's induced
distances are derived from its parent's, so a search runs no BFS or
Dijkstra.  The walker is one generator frame driving an explicit stack of
open nodes, not a generator per node, and it holds a partition as a str of
block labels: a merge is one ``str.replace`` and the memo key is the str
itself, whose hash Python caches.

A walk whose floor stays -1 (the enumerator's) also replays subtrees.  In
such a walk the subtree below a node depends only on the node's partition,
its first child and its depth (which decides whether a set is proper): the
state that frontier-based search merges (Kawahara, Inoue, Iwashita &
Minato, IEICE Trans. Fundamentals 2017).  A child is keyed by those three
only when its partition is a memo hit, so a walk with no hit (a weak tree
solve: each edge set of a forest is its own partition) builds no key.  The
first subtree with a key records its span in the walk's log of yielded sets
and its node count; a later child with that key yields its own prefix plus
each recorded set's suffix, adds the count to ``explored`` and visits
nothing below.  Walks that raise the floor (the weak maximizer, the strong
maximizer's) never replay.

The weak maximizer walks only on trees.  On a connected graph with a cycle
(m >= n) the weak optimum is m - 1 in closed form: removing a non-bridge j
leaves a connected set that merges every vertex, so every pair is exempt and
E - {j} is valid whatever the tolerance, and no set of m edges is proper.
Every (m-1)-set is some E - {j}, and a larger j gives a smaller sorted tuple,
so the maximizer tests E - {j} for j = m-1 down and returns the first valid
one, the lexicographically smallest optimum (a bridge may pass or fail; the
first non-bridge passes).  A test reads the base rows D of j = (a, b) and
runs no verdict (``_valid_without``).  A = {x : D(x,a) < D(x,b)} holds a and
not b, so when j is not a bridge some other edge joins A and V - A, along a
path from a to b without j.  When j is a bridge, A is a's side of it, no
other edge leaves A, and E - {j} merges each side into one block: only the
pairs across j are unmerged, each at induced distance W = D(a,b) (j's
weight) and base distance D(x,a) + W + D(b,y).  So E - {j} is valid exactly
when ``lhs*W + offset >= coeff*(max over A of D(x,a) + W + max off A of
D(b,y))``.

A search node holds its whole induced distance matrix as one Python int
(``RowPacking``): every pair's distance in a fixed-width field under a guard
bit, row-major.  Deriving the matrix after a merge and testing it against
the tolerance are then each a fixed handful of big-int operations, not a
loop over rows or entries, and a new partition costs one call that does
both and finds the node's last child (``evaluate`` in ``_evaluation``, which
states the child rule).  This module is the only one that knows the format.
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


class CapExceededError(ValueError):
    """Exact search refused because the instance exceeds the enumeration cap."""


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``witness`` is a sorted tuple of edge ids (contraction problems) or a
    Biclique; ``explored`` counts the search nodes of this call alone and is
    deterministic (a strong contraction solve sums the nodes of all its
    walks: one per suffix bound and, if one runs, the final one; a weak solve
    in closed form, on a graph with a cycle, counts the sets it tested, m - j
    for witness E - {j}).  A walk counts the nodes it visits, memoised or
    not, so a solve handed a shared search counts what a fresh one would.
    ``elapsed`` is wall time in seconds and is never compared.
    """

    objective: int
    witness: tuple[int, ...] | Biclique
    explored: int
    elapsed: float


def _require_cap(m: int, cap: int, what: str) -> None:
    if m > cap:
        raise CapExceededError(f"{what} {m} exceeds the enumeration cap ({cap})")


def _refuse(g: Graph, cap: int) -> None:
    """The refusals of every contraction search, in order: a disconnected
    graph, then one with more edges than ``cap``."""
    require_connected(g, "contraction searches require a connected graph")
    _require_cap(g.edge_count, cap, "edge count")


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
    minimum, and the same guarded subtraction compares a matrix with a
    matrix of thresholds (both in ``_evaluation``).

    A merge spreads one row over the whole matrix with two products.
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

    def pack(self, rows: list[list[int]]) -> int:
        """The matrix whose field u*n + y holds ``rows[u][y]``, a non-negative
        value below ``2**(width-1)``.  Built from the last field down, one
        row at a time, so no shift is wider than the matrix built so far."""
        width, span = self.width, self.span
        matrix = 0
        for row in reversed(rows):
            packed = 0
            for d in reversed(row):
                packed = packed << width | d
            matrix = matrix << span | packed
        return matrix


# (labels, packed matrix, failing mask, last child): see _Search
_Node = tuple[str, int, int, int]


def _evaluation(
    check: ToleranceCheck, weak: bool, packing: RowPacking, forest: bool = False
) -> Callable[[str, int, int, int, int], _Node]:
    """A search's one evaluation call, ``evaluate(labels, parent, a, b,
    start)``: the node of the partition ``labels`` made by merging the blocks
    of a and b in the ``parent`` matrix (``merge``), scanning the result
    against the tolerance, and finding the node's last child from first
    child ``start``.  It binds the packing's constants once.

    The child rule: a node builds its children start..last, and none when
    its last child is below ``start`` (-1, a dead node).  A valid node's
    last child is m - 1.  A failing strong node's is -1: strong validity is
    down-closed, so no superset is valid.  A failing weak node's is
    ``cut(labels, matrix, failing, start)``, chosen once per search: the
    capped pass (``last_child``) or, on a weak search of a tree, which
    passes ``forest``, the forced-merge closure (``close``).

    The merge: with r the fieldwise minimum of rows a and b (the merged
    block's row), the child's field (u, y) is min(d(u,y), r[u] + r[y]).
    This is exact: d'(u,y) = min(d(u,y), d(u,a) + d(b,y), d(u,b) + d(a,y)),
    and r[u] + r[y] is the least of those two cross terms and of d(u,a) +
    d(a,y) and d(u,b) + d(b,y), which are at least d(u,y) by the triangle
    inequality.  Where r[u] = 0 (u merged with a or b), row u becomes r.  For
    a = b the same inequality leaves the matrix as it is, which is how the
    root is evaluated.

    The scan: pair (u, v) fails exactly when ``lhs * d + offset < coeff *
    D`` (the ``ToleranceCheck`` inequality, D its base distance), that is
    when its induced distance d is below ceil((coeff*D - offset) / lhs),
    ``-((offset - coeff*D) // lhs)``.  The threshold matrix holds that
    ceiling clamped to [0, D+1] (``RowPacking.top``, since d lies in [0, D]),
    computed once per distinct D, and 0 for v <= u.  One guarded subtraction
    sets field (u, v)'s guard in the failing mask exactly where (u, v)
    fails, and weak mode keeps only the fields holding at least 1 (unmerged
    pairs).  Fields run in lexicographic pair order; nothing is decoded here.
    It is inlined, in ``evaluate`` and the closure, to spare a call.

    The pass: the node's children draw edges from start..m-1, so only the
    edges m-1 down to ``start`` are added to the partition, each merge
    relabelling one block (one ``str.replace``).  Failing pairs are decoded
    from the mask highest field first (the top set bit is that field's
    guard, its index the mask's bit length over ``width``, and one XOR
    clears it), the next only once the current one is joined, and a joined
    pair stays joined.  The edges j..m-1 only grow as j falls, so the first
    j that joins every pair is the last child, whatever order the pairs are
    decoded in; it is returned exactly when it is at least ``start``,
    otherwise -1, a dead node.  g is connected (every search's
    ``ToleranceCheck`` refuses any other), so at start 0, the root's, the
    result is the exact last child.

    The forest closure.  On a tree the x-y path is the only way to join x
    and y, so a failing pair forces every edge of its path into every valid
    superset: merging only shrinks distances, so the pair fails until it is
    merged.  A forest node's matrix carries its chosen edges above its n*n
    fields (bit n*n*width + j for edge j; no merge or scan reads those
    bits): ``evaluate`` sets the bit of edge start - 1, the one that made
    the child (the root, at start 0, has none).  At a failing node
    ``close`` decodes the failing pairs as the pass does and ORs their path
    masks (``paths``, one per field, each the XOR of two paths from vertex
    0), merges the forced edges not yet in the set into the matrix
    (``merge`` on rows u and v of edge (u, v) directly: every row of a
    block is the block's row), scans again and repeats until the set is
    valid.  Every forced edge lies in every valid set of the subtree, so the
    node is dead (-1) as soon as a decoded path holds an edge below
    ``start`` that the node has not chosen, or when the closure is all of E
    (not proper); otherwise its last child is the least forced edge it has
    not chosen.  The answer is exact when it is at least ``start``, as the
    pass's is.

    Nothing a search builds once may exceed O(n^2) words besides the
    matrices themselves: ``fields`` holds one small pair per field and
    ``paths`` one m-bit mask.
    """
    width, span, ones, guards, row_ones, row_guards, spread, col0, copies, top = packing
    shift, row = width - 1, (1 << span) - 1
    lhs, offset, coeff, n, m, base = (
        check.lhs, check.offset, check.coeff, check.n, check.m, check.base_scaled
    )
    ceiling = {d: min(max(-((offset - coeff * d) // lhs), 0), top) for d in set().union(*base)}
    thresholds = packing.pack(
        [[0] * (u + 1) + [ceiling[d] for d in r[u + 1:]] for u, r in enumerate(base)]
    )
    # field i's pair, which only the weak pass decodes
    fields = [divmod(i, n) for i in range(n * n)] if weak and not forest else []
    edges = [(u, v) for u, v, _ in check.graph.edges]
    hi = n * n * width

    def merge(matrix: int, a: int, b: int) -> int:
        x = (matrix >> (a * span)) & row
        y = (matrix >> (b * span)) & row
        ge = ((x | row_guards) - y) & row_guards
        r = x ^ ((x ^ y) & (ge - (ge >> shift)))
        cross = ((r * spread) & col0) * row_ones + r * copies
        ge = ((matrix | guards) - cross) & guards
        return matrix ^ ((matrix ^ cross) & (ge - (ge >> shift)))

    def last_child(labels: str, matrix: int, failing: int, start: int) -> int:
        high = failing.bit_length()
        x, y = fields[high // width - 1]
        for j in range(m - 1, start - 1, -1):
            u, v = edges[j]
            a, b = labels[u], labels[v]
            if a != b:
                labels = labels.replace(b, a)
                while labels[x] == labels[y]:
                    failing ^= 1 << (high - 1)
                    if not failing:
                        return j
                    high = failing.bit_length()
                    x, y = fields[high // width - 1]
        return -1

    if forest:
        full = (1 << m) - 1
        # rooted[x]: the edge mask of the path from vertex 0 to x; the x-y
        # path is what the two do not share
        rooted = [-1] * n
        rooted[0] = 0
        order = [0]
        for u in order:
            for v, e in check.graph.adjacency[u]:
                if rooted[v] < 0:
                    rooted[v] = rooted[u] | 1 << e
                    order.append(v)
        paths = [rx ^ ry for rx in rooted for ry in rooted]  # paths[x*n + y]

        def close(labels: str, matrix: int, failing: int, start: int) -> int:
            chosen = closed = matrix >> hi
            unreachable = ((1 << start) - 1) & ~chosen  # no child can add these
            while True:
                forced = 0
                while failing:
                    high = failing.bit_length()
                    path = paths[high // width - 1]
                    if path & unreachable:
                        return -1
                    forced |= path
                    failing ^= 1 << (high - 1)
                forced &= ~closed
                closed |= forced
                if closed == full:
                    return -1
                while forced:
                    e = forced.bit_length() - 1
                    forced ^= 1 << e
                    matrix = merge(matrix, *edges[e])
                held = matrix | guards
                failing = (((held - thresholds) & guards) ^ guards) & (held - ones)
                if not failing:
                    added = closed ^ chosen
                    return (added & -added).bit_length() - 1

    cut = close if forest else last_child

    def evaluate(labels: str, parent: int, a: int, b: int, start: int) -> _Node:
        matrix = merge(parent, a, b)
        if forest and start:  # the child of edge start - 1; the root has no edge
            matrix |= 1 << (hi + start - 1)
        held = matrix | guards
        failing = ((held - thresholds) & guards) ^ guards
        if weak:
            failing &= held - ones
        if not failing:
            return labels, matrix, 0, m - 1
        return labels, matrix, failing, cut(labels, matrix, failing, start) if weak else -1

    return evaluate


class _Search:
    """The state that every walk of one search shares.

    One ``RowPacking``, one threshold matrix (inside ``evaluate``), one root
    node and one partition memo ``seen``, so a partition is merged and
    scanned once per search however many walks meet it.  ``explored`` sums
    the nodes of every walk, including walks their consumer closed early;
    ``replayed`` sums those of them that a walk replayed (below) rather than
    visited.

    A node is its partition as a str (character i is ``chr`` of the least
    vertex in i's block, so a merge is one ``str.replace``), its packed
    induced matrix (``RowPacking``; a forest search's also carries the
    node's edge set above the fields), its failing mask (the guard bits of
    its failing pairs, 0 when it is valid) and its last child worth
    building, by the child rule of ``_evaluation``: m - 1, -1 (dead), or a
    failing weak node's pass or closure from its first child, exact when it
    is at least that start.  Strong mode never decodes a failing pair.

    Nodes are memoised by the labels str, and an entry is final when it is
    stored: a partition met again costs no merge, no scan and no pass, and
    its entry answers as a fresh evaluation from that visit's first child
    would.  A last child of m - 1 or an exact one answers every start, and a
    dead one every start at least its own; no walk the package makes meets a
    dead entry from a smaller start that would find it live:

    * a failing strong node is dead from every start, since strong
      validity is down-closed;
    * a weak walk raises its floor only on a tree (the weak maximizer of a
      graph with a cycle takes the closed form), where every edge inside a
      block is chosen, so a partition fixes its one edge set C, which is
      reached only from start max(C) + 1;
    * in a floor-free walk a node's children stop only at its last child.
      Let C* be the shortest prefix, in id order, of the edges inside the
      blocks of a partition P that spans P.  A set inducing P spans P
      within those edges, so its largest edge is at least max(C*), and C*
      is the lexicographically first such set (no replayed subtree holds
      it: its recording met P earlier).  If P is live from some visit's
      start, its failing pairs are joined by its edges from its last child
      L > max(C*) on.  A pair failing at an ancestor of C* on the
      include-first path stays failing until merged, so C*'s remaining
      edges and then those from L on join it: each ancestor builds C*'s
      next edge, and P is met first at C*, from start max(C*) + 1, live.
      So a partition dead when first stored is dead from every start it is
      met from, in every floor-free walk of the search, since each visits
      the same nodes.

    Floor-raising weak walks on graphs with a cycle are outside this proof
    (a raised floor can cut the path to C*); the package never makes one.
    The replay (module docstring) is exact for the same reason: below a
    node nothing depends on which set met its partition first.  Its log and
    recorded subtrees belong to one walk and go when the walk ends.
    """

    def __init__(self, check: ToleranceCheck, weak: bool) -> None:
        self.check, self.edges, self.weak, self.m = check, check.graph.edges, weak, check.m
        self.seen: dict[str, _Node] = {}
        self.explored = self.replayed = 0
        base = check.base_scaled
        packing = RowPacking.for_rows(base)
        forest = weak and check.m == check.n - 1
        self.evaluate = _evaluation(check, weak, packing, forest)
        labels = "".join(map(chr, range(check.n)))
        self.root = self.evaluate(labels, packing.pack(base), 0, 0, 0)

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
        changes nothing; otherwise the child is one ``evaluate`` call on the
        parent's matrix, unless the memo holds it.  Nodes are added to
        ``explored`` before each yield and at the end.

        The replay.  While ``floor[0]`` is -1, a child whose partition the
        memo holds and that has children of its own is keyed by (labels,
        first child, depth).  The first such child with a key opens a
        recording: the log position and node count at its start, closed
        when its stack entry is popped into ``replays[key]`` as (first log
        position, end log position, nodes).  A later child with the key
        takes the recorded sets' suffixes after its own prefix and the
        node count, all of it charged to ``explored`` before its first set.
        Only sets yielded while a recording is open can be replayed, so
        only those go into the log; they stay there until the walk ends.
        The floor must never fall: a recording opened at -1 and closed
        after the floor rose is never replayed, since no later child sees
        a floor of -1.
        """
        m, weak, seen = self.m, self.weak, self.seen
        edges, evaluate = self.edges, self.evaluate
        node = self.root
        cset: list[int] = []  # the stack's node at depth i has cset[:i]
        stack: list[list] = []  # [next child, node] per open node
        explored = flushed = 0  # nodes since the last yield, and before it
        log: list[tuple[int, ...]] = []  # the sets yielded while recording, in order
        replays: dict[tuple[str, int, int], tuple[int, int, int]] = {}
        recording: list[tuple] = []  # (stack index, key, log start, nodes before)
        while True:
            explored += 1
            failing = node[2]
            if not failing and (not weak or len(cset) < m) and len(cset) > floor[0]:
                self.explored += explored
                flushed += explored
                explored = 0
                found = tuple(cset)
                if recording:
                    log.append(found)
                yield found
            if start <= node[3]:  # a dead node has no child
                stack.append([start, node])
            while stack:
                entry = stack[-1]
                j, (labels, matrix, _, last) = entry
                depth = len(stack) - 1
                if j > last or depth + bound[j] <= floor[0]:
                    stack.pop()
                    if recording and recording[-1][0] == depth:
                        _, key, first, before = recording.pop()
                        replays[key] = (first, len(log), flushed + explored - before)
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
                        node = seen[merged] = evaluate(merged, matrix, ord(a), ord(b), start)
                    elif floor[0] < 0 and start <= node[3]:
                        # floor-free: replay this subtree if recorded, else record it
                        key = (merged, start, depth + 1)
                        done = replays.get(key)
                        if done is None:
                            recording.append((depth + 1, key, len(log), flushed + explored))
                        else:
                            first, end, nodes = done
                            self.replayed += nodes
                            explored += nodes
                            self.explored += explored
                            flushed += explored
                            explored = 0
                            prefix = tuple(cset)
                            for i in range(first, end):
                                found = prefix + log[i][depth + 1:]
                                if recording:
                                    log.append(found)
                                yield found
                            continue
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


def weak_search(g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP) -> _Search:
    """A weak search of ``g`` at ``tolerance``, to hand to the ``search=``
    keyword of ``max_weak_contraction_exact`` and
    ``enumerate_valid_weak_contractions``: their walks then share one
    partition memo, so a partition one of them evaluated costs the other no
    merge, scan or last-child pass.  Refuses as those calls do, before
    anything is built: a disconnected graph, then one over ``cap`` edges."""
    _refuse(g, cap)
    return _Search(ToleranceCheck(g, tolerance), True)


def _require_own(search: _Search, g: Graph, tolerance: Tolerance) -> None:
    """Refuse a ``search=`` that is not a weak search of ``g`` at
    ``tolerance``: it would answer for its own graph and tolerance, or prune
    as a strong search."""
    check = search.check
    if not (search.weak and check.graph == g and check.tolerance == tolerance):
        raise ValueError("search= must be a weak search of this graph and tolerance")


def _valid_without(check: ToleranceCheck, j: int) -> bool:
    """Whether E - {j} is a valid weak set of a connected graph, that is
    ``check.is_valid(check.full_mask ^ 1 << j, True)``, from the base rows
    of j's ends a and b alone (the module docstring says why)."""
    edges, base_row = check.graph.edges, check.graph.distances.base_row
    a, b, _ = edges[j]
    ra, rb = base_row(a), base_row(b)
    side = [x < y for x, y in zip(ra, rb)]  # nearer a than b
    if sum(side[u] != side[v] for u, v, _ in edges) > 1:
        return True  # not a bridge: E - {j} merges every vertex
    w = ra[b]
    far_a = max(d for d, s in zip(ra, side) if s)
    far_b = max(d for d, s in zip(rb, side) if not s)
    return check.lhs * w + check.offset >= check.coeff * (far_a + w + far_b)


def _max_valid_set(
    g: Graph, tolerance: Tolerance, cap: int, weak: bool, search: _Search | None = None
) -> SolveResult:
    if search is None:
        _refuse(g, cap)
    else:
        _require_own(search, g, tolerance)
    if weak and g.edge_count == 0:
        raise ValueError(
            "weak contraction needs at least one edge: no proper subset exists"
        )
    t0 = time.perf_counter()
    check = ToleranceCheck(g, tolerance) if search is None else search.check
    m = g.edge_count
    if weak and m >= g.vertex_count:
        # connected with a cycle: the closed form (module docstring)
        j = next(j for j in range(m - 1, -1, -1) if _valid_without(check, j))
        best = (*range(j), *range(j + 1, m))
        return SolveResult(m - 1, best, m - j, time.perf_counter() - t0)
    if search is None:
        search = _Search(check, weak)
    before = search.explored
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
    return SolveResult(len(best), best, search.explored - before, time.perf_counter() - t0)


def max_contraction_exact(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP
) -> SolveResult:
    """Largest edge set whose contraction keeps every pair within tolerance.

    Ties break to the lexicographically smallest sorted id tuple.  Refuses
    graphs over the edge cap.
    """
    return _max_valid_set(g, tolerance, cap, weak=False)


def max_weak_contraction_exact(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP, *, search: _Search | None = None
) -> SolveResult:
    """Largest proper edge subset valid in weak mode (merged pairs exempt).

    ``search``, when given, must be a weak search of this same graph and
    tolerance (``weak_search``), or ValueError is raised; the other
    refusals ran when it was built.
    """
    return _max_valid_set(g, tolerance, cap, weak=True, search=search)


def enumerate_valid_weak_contractions(
    g: Graph, tolerance: Tolerance, cap: int = DEFAULT_EDGE_CAP, *, search: _Search | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield exactly the valid proper subsets, in lexicographic order.

    Subsets compare as sorted tuples, so the stream starts (), (0,), (0, 1),
    ... whenever those are valid.  Branches that provably contain no valid
    superset (a failing pair that can never be merged) are skipped, and a
    subtree met before is replayed from the walk's log (``_Search.walk``).
    The log holds the sets yielded while a recording is open until the walk
    ends, so memory grows with the stream even when the consumer keeps
    nothing: on K_{4,5} at (1,1) (1,048,575 sets, Python 3.11) a consumer
    that discards every set peaks at about 67 MB of RSS, against 23 MB with
    no log, and one that keeps them in a list at about 160 MB against 156.
    ``search``, when given, must be a weak search of this same graph and
    tolerance (``weak_search``), or ValueError is raised; the other
    refusals ran when it was built.
    """
    if search is None:
        search = weak_search(g, tolerance, cap)
    else:
        _require_own(search, g, tolerance)
    yield from search.walk([-1], list(range(g.edge_count, -1, -1)))


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
    more.  A balanced witness keeps the first |S| vertices of T.  T is a
    mask over the partner side's vertices that have an edge, bit i for the
    i-th least, so the root's T is every bit and no mask or loop spans the
    partner side's own size.
    """
    enum_left = b.left_count <= b.right_count
    k = b.left_count if enum_left else b.right_count
    _require_cap(k, cap, "smaller side size")
    t0 = time.perf_counter()
    pairs = [(l, r) if enum_left else (r, l) for l, r, _ in b.edges]
    partners = sorted({y for _, y in pairs})
    bit = {y: i for i, y in enumerate(partners)}
    nbr = [0] * k
    for x, y in pairs:
        nbr[x] |= 1 << bit[y]
    best_value = 0
    best = Biclique((), ())
    explored = 0

    def visit(s: list[int], tmask: int, start: int) -> None:
        nonlocal best_value, best, explored
        explored += 1
        size, width = len(s), tmask.bit_count()
        if value(size, width) > best_value:
            best_value = value(size, width)
            partner = tuple(y for i, y in enumerate(partners) if (tmask >> i) & 1)
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

    visit([], (1 << len(partners)) - 1, 0)
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
