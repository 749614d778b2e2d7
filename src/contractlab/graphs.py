"""Weighted graph types, exact shortest paths, instance generators, and text I/O.

All weights and distances are exact rationals (`fractions.Fraction`); nothing
in this package ever rounds, so verifier verdicts that hinge on ties at
equality are reproducible.  Every distance in the package comes from one
engine, ``ScaledDistances``, which works in integers after scaling all weights
by the lcm of their denominators; Fractions are made only when a distance
leaves it.  A graph builds its engine once (``Graph.distances``), the engine
walks the graph's own incidence lists (``Graph.adjacency``) and it searches
each uncontracted row once, on its first read (``ScaledDistances.base_row``;
``ScaledDistances.base`` is all of them); a graph also finds its components
once (``Graph.components``).  All live as long as the graph and are shared,
never copied.  The engine also keeps the rows of the last contracted edge mask
it was asked about (``ScaledDistances.row``).
Unreachable pairs get the distinguished value ``UNREACHABLE`` (``math.inf``),
which orders above every rational and saturates under addition.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

UNREACHABLE = math.inf

# ASCII decimal only: int() and a Unicode \d would also take "1_0", "+1" and
# the digits of other scripts
_COUNT_RE = re.compile(r"\d+", re.ASCII)
_INTEGER_RE = re.compile(r"-?\d+", re.ASCII)
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$", re.ASCII)
_ONE = Fraction(1)


class GraphFormatError(ValueError):
    """Malformed graph text or edge list.  `reason` is a stable slug naming the defect.

    `line` is the text line ``parse_graph`` blames and `edge` the position of
    the offending edge in a constructor's input; `message` is the text
    without either.
    """

    def __init__(self, reason: str, message: str, line: int | None = None, edge: int | None = None):
        self.reason = reason
        self.message = message
        self.line = line
        self.edge = edge
        if line is not None:
            message += f" (line {line})"
        elif edge is not None:
            message += f" (input edge {edge})"
        super().__init__(message)


class DisconnectedGraphError(ValueError):
    """An operation that assumes a connected graph was given a disconnected one."""


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational written as an ASCII decimal integer or ``p/q``.

    Raises ValueError on anything else (including floating-point syntax).
    """
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a rational (expected integer or p/q): {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}") from None


def _canonical_edges(edges, left: int, right: int | None = None) -> tuple[tuple[int, int, Fraction], ...]:
    """The edge rules, stated once: `edges` as ``(u, v, w)`` triples sorted by ``(u, v)``.

    A 2-tuple gets weight 1.  Endpoints must lie in ``[0, left) x [0, right)``;
    ``right=None`` means a simple graph on `left` vertices, which refuses
    self-loops and orders each pair ``u < v``.  Weights must be positive and
    each pair may appear once.  A defect raises GraphFormatError with the
    position of the offending edge in `edges`; a duplicate is blamed on its
    second occurrence.
    """
    simple = right is None
    if simple:
        right = left
    kept: dict[tuple[int, int], Fraction] = {}
    for i, e in enumerate(edges):
        if len(e) == 2:
            (u, v), w = e, _ONE
        else:
            u, v, w = e
            if not isinstance(w, Fraction):
                w = Fraction(w)
            if w <= 0:
                raise GraphFormatError(
                    "non-positive-weight", f"edge weight must be strictly positive, got {e[2]}", edge=i
                )
        if not (0 <= u < left and 0 <= v < right):
            raise GraphFormatError(
                "index-out-of-range", f"index out of range [0,{left}) x [0,{right}): ({u},{v})", edge=i
            )
        if simple and u >= v:
            if u == v:
                raise GraphFormatError("self-loop", f"self-loop not allowed at vertex {u}", edge=i)
            u, v = v, u
        if (u, v) in kept:
            raise GraphFormatError("duplicate-edge", f"duplicate edge ({u},{v})", edge=i)
        kept[u, v] = w
    return tuple((u, v, w) for (u, v), w in sorted(kept.items()))


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with exact positive rational edge weights.

    Edges are stored canonically: endpoints ordered ``u < v`` and the list
    sorted by ``(u, v)``.  Edge ids are positions in this canonical list, so
    they are stable across runs and usable for tie-breaking.  The constructor
    normalizes its input (2-tuples get weight 1, endpoints may come in either
    order) and raises GraphFormatError on a self-loop, a duplicate pair, an
    out-of-range index or a non-positive weight.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, Fraction], ...] = ()

    def __post_init__(self):
        n = self.vertex_count
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        object.__setattr__(self, "edges", _canonical_edges(self.edges, n))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex incidence lists of ``(neighbor, edge_id)`` in edge-id
        order, built once: shared, so neither the list nor its lists may be
        mutated."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return adj

    @cached_property
    def components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each sorted, ordered by
        minimum vertex, found once: shared, so none may be mutated."""
        adj = self.adjacency
        seen = [False] * self.vertex_count
        comps: list[list[int]] = []
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            for u in comp:  # a breadth-first search over the growing list
                for v, _ in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
            comps.append(sorted(comp))
        return comps

    @cached_property
    def distances(self) -> "ScaledDistances":
        """The graph's distance engine, built on first use and kept with the graph."""
        return ScaledDistances(self)

    def endpoints(self, edge_id: int) -> tuple[int, int]:
        u, v, _ = self.edges[edge_id]
        return u, v

    def has_unit_weights(self) -> bool:
        return all(w == 1 for _, _, w in self.edges)

    def scaled(self, factor) -> "Graph":
        """Return a copy with every weight multiplied by a positive rational."""
        c = Fraction(factor)
        if c <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return Graph(self.vertex_count, tuple((u, v, w * c) for u, v, w in self.edges))


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph with sides indexed independently from 0.

    Edges are ``(left, right, weight)`` and are kept sorted by ``(left,
    right)``; ids are positions in that list.  2-tuples get weight 1; the
    constructor raises GraphFormatError on the same defects as ``Graph``'s,
    except self-loops, which a bipartite edge cannot form.  ``to_graph()``
    gives the combined simple-graph view with right vertices offset by
    ``left_count``.
    """

    left_count: int
    right_count: int
    edges: tuple[tuple[int, int, Fraction], ...] = ()

    def __post_init__(self):
        if self.left_count < 0 or self.right_count < 0:
            raise ValueError("side sizes must be non-negative")
        object.__setattr__(self, "edges", _canonical_edges(self.edges, self.left_count, self.right_count))

    @property
    def vertex_count(self) -> int:
        return self.left_count + self.right_count

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def to_graph(self) -> Graph:
        off = self.left_count
        return Graph(self.vertex_count, tuple((l, off + r, w) for l, r, w in self.edges))

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        """The ``(left, right)`` pairs of the edges, built once: every
        completeness test of a biclique in this host reads it."""
        return frozenset((l, r) for l, r, _ in self.edges)


@dataclass(frozen=True)
class Biclique:
    """A complete-bipartite-subgraph witness: two vertex sets of a bipartite host.

    Indices are side-local (``left`` indexes the host's left side, ``right``
    its right side).  The constructor sorts and deduplicates.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(sorted(set(self.left))))
        object.__setattr__(self, "right", tuple(sorted(set(self.right))))

    @property
    def edge_count(self) -> int:
        return len(self.left) * len(self.right)

    def to_json_dict(self) -> dict:
        return {"left": list(self.left), "right": list(self.right)}

    def is_complete_in(self, host: BipartiteGraph) -> bool:
        if any(not 0 <= l < host.left_count for l in self.left):
            return False
        if any(not 0 <= r < host.right_count for r in self.right):
            return False
        present = host.edge_set
        return all((l, r) in present for l in self.left for r in self.right)

    def validate_in(self, host: BipartiteGraph) -> None:
        if not self.is_complete_in(host):
            raise ValueError(f"not a complete biclique of the host: {self}")


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric table of exact shortest-path distances with zero diagonal.

    Entries are Fractions, or ``UNREACHABLE`` for pairs in different
    components.
    """

    values: tuple[tuple[Fraction | float, ...], ...]

    def __getitem__(self, pair: tuple[int, int]) -> Fraction | float:
        u, v = pair
        return self.values[u][v]


class ScaledDistances:
    """Exact single-source distances of a graph in scaled integer arithmetic.

    Every weight is multiplied by ``scale``, the lcm of the weights'
    denominators, so all distances are integers.  Edges whose id bit is set
    in ``cmask`` cost zero: that gives the induced distance d_C of the
    contraction set C, which is 0 exactly when two vertices are merged because
    weights are positive.  Uniform weights run a BFS by levels, one per
    uncontracted hop, each grown in place by its zero-cost closure; any other
    weights an integer Dijkstra over the weights with the contracted ones
    zeroed.  Both extra steps run only for a nonzero ``cmask``, so an
    uncontracted search tests no edge against a mask.  Vertices the source
    cannot reach get ``-1``.

    Build it through ``Graph.distances``, so a graph has one engine; each
    uncontracted row is searched on its first read (``base_row``) and
    shared by every caller.  ``row(u, cmask)`` reads rows through a memo of
    one edge mask: a verdict, a witness, ``contracted_distance`` and
    ``contract`` on the same set share their searches, one per block of
    merged vertices.  The memo is one ``(cmask, rows)`` tuple, replaced
    whole when another mask is asked for, so it holds at most n rows (n²
    ints) per graph.
    """

    def __init__(self, g: Graph):
        self.n = n = g.vertex_count
        self.scale = scale = math.lcm(1, *(w.denominator for _, _, w in g.edges))
        # w * scale, exact without a Fraction: scale is a multiple of every denominator
        self.weights = [w.numerator * (scale // w.denominator) for _, _, w in g.edges]
        uniq = set(self.weights)
        self.uniform = uniq.pop() if len(uniq) == 1 else None
        self.adj = g.adjacency
        self._base: list = [None] * n
        self._memo: tuple[int, list] = (0, [])

    def from_source(self, src: int, cmask: int = 0) -> list[int]:
        adj = self.adj
        dist = [-1] * self.n
        dist[src] = 0
        w = self.uniform
        if w is not None:
            # one level per uncontracted hop, each grown in place by its
            # zero-cost closure before the next is found
            level, d = [src], 0
            while level:
                if cmask:
                    for u in level:
                        for v, eid in adj[u]:
                            if dist[v] == -1 and cmask >> eid & 1:
                                dist[v] = d
                                level.append(v)
                d += w
                nxt = []
                for u in level:
                    for v, _ in adj[u]:
                        if dist[v] == -1:
                            dist[v] = d
                            nxt.append(v)
                level = nxt
            return dist
        weights = self.weights
        if cmask:
            weights = weights[:]
            while cmask:
                low = cmask & -cmask
                weights[low.bit_length() - 1] = 0
                cmask ^= low
        heap = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, eid in adj[u]:
                nd = d + weights[eid]
                dv = dist[v]
                if dv == -1 or nd < dv:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def base_row(self, u: int) -> list[int]:
        """Vertex u's uncontracted row, searched on its first read and kept
        for the engine's life: shared, so it must not be mutated."""
        row = self._base[u]
        if row is None:
            row = self._base[u] = self.from_source(u)
        return row

    def row(self, u: int, cmask: int = 0) -> list[int]:
        """Vertex u's row with the edges of ``cmask`` contracted, searched
        only if the memo does not hold it yet; the empty mask reads
        ``base_row``.

        Vertices at distance 0 from each other have equal rows, so one search
        fills the memo for u's whole block: rows may be aliased and must not
        be mutated.  Another mask replaces the memo in one assignment, so a
        reader never pairs one mask with another mask's rows.
        """
        if not cmask:
            return self.base_row(u)
        memo = self._memo
        if memo[0] != cmask:
            memo = self._memo = (cmask, [None] * self.n)
        rows = memo[1]
        row = rows[u]
        if row is None:
            row = self.from_source(u, cmask)
            for v, d in enumerate(row):
                if d == 0:
                    rows[v] = row
        return row

    def all_pairs(self, cmask: int = 0) -> list[list[int]]:
        """Every vertex's row (``row``), one search per block of merged
        vertices; rows may be aliased and must not be mutated."""
        return [self.row(u, cmask) for u in range(self.n)]

    @cached_property
    def base(self) -> list[list[int]]:
        """Every ``base_row``, searching only those not read yet: shared,
        so neither the list nor its rows may be mutated."""
        for u in range(self.n):
            self.base_row(u)
        return self._base

    def exact(self, d: int) -> Fraction | float:
        """The distance a scaled value stands for: a Fraction or ``UNREACHABLE``."""
        return UNREACHABLE if d < 0 else Fraction(d, self.scale)


def shortest_distances(g: Graph) -> DistanceMatrix:
    """All-pairs shortest-path distances, exact.

    Disconnected pairs get ``UNREACHABLE``.
    """
    engine = g.distances
    exact = engine.exact
    return DistanceMatrix(tuple(tuple(map(exact, row)) for row in engine.base))


def is_connected(g: Graph) -> bool:
    """True iff the graph has exactly one connected component.

    The empty graph (no vertices) counts as connected.  Fewer than n - 1 edges
    cannot connect n vertices, so those counts decide before any per-vertex
    list is built.
    """
    return g.edge_count >= g.vertex_count - 1 and len(g.components) <= 1


def require_connected(g: Graph, message: str) -> None:
    """Raise DisconnectedGraphError(message) unless ``is_connected(g)``: the
    one connectivity refusal of the package."""
    if not is_connected(g):
        raise DisconnectedGraphError(message)


# ----------------------------------------------------------------------------
# Instance generators.  All randomness flows through random.Random (Mersenne
# Twister) seeded explicitly; rational probabilities are sampled exactly via
# randrange(denominator) < numerator, so identical seeds give identical graphs.
# ----------------------------------------------------------------------------


def _happens(rng: random.Random, p: Fraction) -> bool:
    return rng.randrange(p.denominator) < p.numerator


def generate_random_bipartite(
    left: int, right: int, edge_probability, seed: int
) -> BipartiteGraph:
    """Each left-right pair becomes a unit edge independently with the given probability."""
    p = Fraction(edge_probability)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0,1], got {edge_probability}")
    rng = random.Random(seed)
    edges = [(l, r) for l in range(left) for r in range(right) if _happens(rng, p)]
    return BipartiteGraph(left, right, tuple(edges))


def generate_planted_biclique(
    left: int,
    right: int,
    plant_left: int,
    plant_right: int,
    noise_probability,
    seed: int,
) -> tuple[BipartiteGraph, Biclique]:
    """A random bipartite graph guaranteed to contain a planted complete biclique.

    The planted sides are sampled uniformly; every non-planted pair appears
    independently with the noise probability.  Returns the graph and the
    planted witness.
    """
    if plant_left > left or plant_right > right:
        raise ValueError("plant sizes must not exceed side sizes")
    p = Fraction(noise_probability)
    if not 0 <= p <= 1:
        raise ValueError(f"noise probability must be in [0,1], got {noise_probability}")
    rng = random.Random(seed)
    plant_l = sorted(rng.sample(range(left), plant_left))
    plant_r = sorted(rng.sample(range(right), plant_right))
    in_plant = {(l, r) for l in plant_l for r in plant_r}
    # a planted pair draws no random number, so `or` keeps the stream of draws
    edges = [
        (l, r) for l in range(left) for r in range(right) if (l, r) in in_plant or _happens(rng, p)
    ]
    return BipartiteGraph(left, right, tuple(edges)), Biclique(tuple(plant_l), tuple(plant_r))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def complete_bipartite(left: int, right: int) -> BipartiteGraph:
    return BipartiteGraph(left, right, tuple((l, r) for l in range(left) for r in range(right)))


# ----------------------------------------------------------------------------
# Text format.
#
#   graph <n> <m>              |  bipartite <nL> <nR> <m>
#   u v [w]                    |  l r [w]
#
# One edge per line; weight is an ASCII decimal integer or p/q and defaults to 1.
# Lines starting with '#' are comments.  Rendering is canonical (sorted edge
# order, weight omitted when 1), so render(parse(t)) is a fixed point.
# ----------------------------------------------------------------------------


_HEADERS = {
    "graph": (Graph, "graph <n> <m>"),
    "bipartite": (BipartiteGraph, "bipartite <nL> <nR> <m>"),
}


def parse_graph(text: str) -> Graph | BipartiteGraph:
    """Parse the line-oriented graph format; header decides the kind returned.

    Counts, endpoints and weights are ASCII decimal.  The text is checked
    here (header, token shape, edge count); the edge rules are the
    constructor's, and a defect it finds is reported at the edge's line.
    Raises GraphFormatError with a distinct `reason` slug per defect:
    malformed-header, malformed-edge, malformed-weight, non-positive-weight,
    index-out-of-range, self-loop, duplicate-edge, missing-edges,
    trailing-content, empty-input.  With several defects, the first of
    header, edge count, token shape and edge rules is reported.
    """
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise GraphFormatError("empty-input", "no content lines")
    header_line, header = lines[0]
    tokens = header.split()
    if tokens[0] not in _HEADERS:
        raise GraphFormatError("malformed-header", f"unknown header {tokens[0]!r}", header_line)
    cls, usage = _HEADERS[tokens[0]]
    if len(tokens) != len(usage.split()):
        raise GraphFormatError("malformed-header", f"expected {usage!r}, got {header!r}", header_line)
    if not all(map(_COUNT_RE.fullmatch, tokens[1:])):
        raise GraphFormatError("malformed-header", f"counts must be decimal integers in {header!r}", header_line)
    *sizes, m = map(int, tokens[1:])

    body = lines[1:]
    if len(body) < m:
        raise GraphFormatError("missing-edges", f"header promises {m} edges, found {len(body)}")
    if len(body) > m:
        raise GraphFormatError("trailing-content", f"header promises {m} edges, found {len(body)}", body[m][0])

    edges: list[tuple] = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) not in (2, 3) or not all(map(_INTEGER_RE.fullmatch, parts[:2])):
            raise GraphFormatError("malformed-edge", f"expected 'u v [w]' with integer u, v, got {line!r}", lineno)
        a, b = int(parts[0]), int(parts[1])
        if len(parts) == 2:
            edges.append((a, b))
            continue
        try:
            edges.append((a, b, parse_rational(parts[2])))
        except ValueError:
            raise GraphFormatError("malformed-weight", f"bad weight in {line!r}", lineno) from None
    try:
        return cls(*sizes, tuple(edges))
    except GraphFormatError as exc:
        raise GraphFormatError(exc.reason, exc.message, body[exc.edge][0]) from None


def _render_weight(w: Fraction) -> str:
    return "" if w == 1 else f" {w}"


def render_graph(g: Graph | BipartiteGraph) -> str:
    """Render to the canonical text form (inverse of parse_graph on valid input)."""
    out = []
    if isinstance(g, Graph):
        out.append(f"graph {g.vertex_count} {g.edge_count}")
    else:
        out.append(f"bipartite {g.left_count} {g.right_count} {g.edge_count}")
    for u, v, w in g.edges:
        out.append(f"{u} {v}{_render_weight(w)}")
    return "\n".join(out) + "\n"
