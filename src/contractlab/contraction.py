"""Edge-contraction semantics: quotient graphs, induced distances, and verifiers.

Contracting an edge set C merges the connected components of (V, C) into
supernodes; the induced distance between two original vertices is the
shortest-path distance between their supernodes.  Equivalently (and this is
how every distance here is computed, by ``graphs.ScaledDistances``) it is the
shortest-path distance in the original graph with every contracted edge's
weight set to zero.

Validity of a contraction set against a tolerance (alpha, beta) means
``d_C(u, v) >= d(u, v)/alpha - beta``:

* strong mode checks every vertex pair, merged pairs included;
* weak mode additionally requires C to be a proper subset of the edges and
  only checks pairs that were not merged (``d_C != 0``).

All comparisons are carried out in scaled integer arithmetic, so verdicts are
exact; ties at equality count as valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .graphs import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    is_connected,  # not called here; kept as contraction.is_connected, which bench/ reads
)


@dataclass(frozen=True)
class Tolerance:
    """The pair (alpha, beta) a contraction is validated against.

    alpha must be positive and beta non-negative.  alpha >= 1 is the intended
    regime (with alpha < 1 even the empty set can fail); values below 1 are
    accepted because the inequality stays meaningful.
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        a = Fraction(self.alpha)
        b = Fraction(self.beta)
        if a <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if b < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)


def normalize_edge_ids(g: Graph, edge_ids: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate, sort and range-check a contraction set for ``g``."""
    ids = sorted(set(edge_ids))
    m = g.edge_count
    for e in ids:
        if not 0 <= e < m:
            raise ValueError(f"edge id {e} out of range [0,{m})")
    return tuple(ids)


@dataclass(frozen=True)
class QuotientGraph:
    """Result of contracting an edge set: partition, collapsed edges, distances.

    ``partition[v]`` is the supernode id of original vertex v (ids numbered by
    first appearance, so vertex 0's block is supernode 0).  Parallel quotient
    edges are collapsed to the minimum weight and self-loops dropped; the
    distances are unaffected by either.
    """

    source: Graph
    contracted: tuple[int, ...]
    partition: tuple[int, ...]
    supernode_count: int
    quotient: Graph
    contracted_distances: DistanceMatrix

    def distance(self, u: int, v: int) -> Fraction | float:
        """Induced distance between two original vertices."""
        return self.contracted_distances[self.partition[u], self.partition[v]]


def contract(g: Graph, edge_ids: Iterable[int]) -> QuotientGraph:
    """Contract the given edges and compute the full quotient picture."""
    ids = normalize_edge_ids(g, edge_ids)
    engine = g.distances
    dc = engine.all_pairs(sum(1 << e for e in ids))
    # Weights are positive, so d_C(u, v) == 0 exactly when u and v are merged:
    # the first zero of a row is the minimum vertex of the row's block.
    blocks: dict[int, int] = {}
    label = [blocks.setdefault(row.index(0), len(blocks)) for row in dc]
    best: dict[tuple[int, int], Fraction] = {}
    for u, v, w in g.edges:
        a, b = label[u], label[v]
        if a == b:
            continue
        if a > b:
            a, b = b, a
        cur = best.get((a, b))
        if cur is None or w < cur:
            best[(a, b)] = w
    k = len(blocks)
    quotient = Graph(k, tuple((a, b, w) for (a, b), w in sorted(best.items())))
    exact = engine.exact
    return QuotientGraph(
        source=g,
        contracted=ids,
        partition=tuple(label),
        supernode_count=k,
        quotient=quotient,
        contracted_distances=DistanceMatrix(
            tuple(tuple(exact(dc[a][b]) for b in blocks) for a in blocks)
        ),
    )


def contracted_distance(g: Graph, edge_ids: Iterable[int], u: int, v: int) -> Fraction | float:
    """Induced distance between u and v after contracting the given edges."""
    n = g.vertex_count
    if not (0 <= u < n) or not (0 <= v < n):
        raise ValueError(f"vertex out of range [0,{n}): ({u},{v})")
    mask = sum(1 << e for e in normalize_edge_ids(g, edge_ids))
    engine = g.distances
    return engine.exact(engine.from_source(u, mask)[v])


class ViolationWitness(NamedTuple):
    """Why a contraction set fails.  kind is 'pair' or 'not-proper-subset'.

    For a pair witness, (u, v) is the lexicographically smallest violating
    pair with its original and induced distances.
    """

    kind: str
    u: int | None = None
    v: int | None = None
    distance: Fraction | None = None
    contracted_distance: Fraction | None = None

    def to_json_dict(self) -> dict:
        if self.kind != "pair":
            return {"kind": self.kind}
        return {
            "kind": "pair",
            "u": self.u,
            "v": self.v,
            "distance": str(self.distance),
            "contracted_distance": str(self.contracted_distance),
        }


class ToleranceCheck:
    """Scaled-integer evaluation of the tolerance inequality over edge subsets.

    Weights are multiplied by the lcm L of their denominators so distances are
    integers; with alpha = p/q and beta = r/s the test
    ``d_C >= d/alpha - beta`` becomes ``p*s*D_C >= q*s*D - p*r*L`` where D and
    D_C are scaled distances.  One instance reads the graph's cached base rows
    (``Graph.distances.base``) and precomputes the per-pair right-hand sides;
    subsets are passed as bitmasks over edge ids.  A scan reads the induced
    rows of its subset from a row source (``rows[u]``) and asks for row u only
    when the lexicographic pair scan reaches u, so a scan that stops at its
    first failing pair builds no row past it.  The exact searches pass a
    ``graphs.MergedRows`` derived from the parent node's rows, so they run no
    search at all; without a row source (every verdict) the scan searches row
    u itself, one search per block of merged vertices.

    This class is also the search engine the exact solvers drive: it exposes
    validity, the witness of the first violation, and all failing pairs for a
    subset.
    """

    def __init__(self, g: Graph, tolerance: Tolerance):
        engine = g.distances
        self.base_scaled = base = engine.base
        if base and -1 in base[0]:
            raise DisconnectedGraphError("tolerance checks require a connected graph")
        self.graph = g
        self.tolerance = tolerance
        n = g.vertex_count
        m = g.edge_count
        self.n = n
        self.m = m
        self.full_mask = (1 << m) - 1

        self._from_source = engine.from_source
        self._exact = engine.exact
        scale = engine.scale

        a, b = tolerance.alpha.numerator, tolerance.alpha.denominator
        r, s = tolerance.beta.numerator, tolerance.beta.denominator
        self._lhs_coeff = a * s
        offset = a * r * scale
        coeff = b * s
        self._rhs = [[coeff * d - offset for d in row] for row in base]

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        """Every pair u < v in lexicographic order, built on first use."""
        n = self.n
        return [(u, v) for u in range(n) for v in range(u + 1, n)]

    def _violations(self, cmask: int, weak: bool, rows) -> Iterator[tuple[int, int, int, int]]:
        """Failing pairs in lexicographic order as (index in ``pairs``, u, v,
        scaled induced distance); merged pairs are exempt in weak mode.

        Row u is read when the scan reaches u, from ``rows``, a source of
        cmask's induced rows; without one it is searched then and shared with
        every vertex merged with u, as in ``ScaledDistances.all_pairs``."""
        n = self.n
        lhs = self._lhs_coeff
        if rows is None:
            rows = [None] * n
        i = 0
        for u in range(n - 1):
            row = rows[u]
            if row is None:
                row = self._from_source(u, cmask)
                for x in range(u, n):
                    if row[x] == 0:
                        rows[x] = row
            rhs = self._rhs[u]
            for v in range(u + 1, n):
                d = row[v]
                if lhs * d < rhs[v] and not (weak and d == 0):
                    yield i, u, v, d
                i += 1

    def first_violation(self, cmask: int, weak: bool, rows=None) -> ViolationWitness | None:
        """None if valid, else the witness: 'not-proper-subset' for the full
        set in weak mode, or the lexicographically first failing pair.

        ``rows``, when given, is a source of cmask's induced rows."""
        if weak and cmask == self.full_mask:
            return ViolationWitness(kind="not-proper-subset")
        exact = self._exact
        for _, u, v, d in self._violations(cmask, weak, rows):
            return ViolationWitness("pair", u, v, exact(self.base_scaled[u][v]), exact(d))
        return None

    def is_valid(self, cmask: int, weak: bool) -> bool:
        return self.first_violation(cmask, weak) is None

    def failing_pairs(self, cmask: int, weak: bool, rows=None) -> list[tuple[int, int]]:
        """All pairs violating the inequality (exempting merged pairs in weak mode).

        ``rows``, when given, is a source of cmask's induced rows.  The pairs
        are the check's own ``pairs`` tuples, shared, not copies."""
        pairs = self.pairs
        return [pairs[i] for i, _, _, _ in self._violations(cmask, weak, rows)]


def is_contraction(g: Graph, edge_ids: Iterable[int], tolerance: Tolerance) -> bool:
    """True iff contracting the set keeps every pair within tolerance.

    Merged pairs are not exempt here: they need ``0 >= d(u,v)/alpha - beta``,
    so with beta = 0 only the empty set qualifies.
    """
    return violation_witness(g, edge_ids, tolerance, weak=False) is None


def is_weak_contraction(g: Graph, edge_ids: Iterable[int], tolerance: Tolerance) -> bool:
    """True iff the set is a proper subset of the edges and every unmerged
    pair stays within tolerance."""
    return violation_witness(g, edge_ids, tolerance, weak=True) is None


def violation_witness(
    g: Graph, edge_ids: Iterable[int], tolerance: Tolerance, weak: bool
) -> ViolationWitness | None:
    """None when the corresponding verifier accepts, else a deterministic witness.

    Pair witnesses pick the lexicographically smallest violating (u, v); a
    weak-mode set equal to all edges yields kind 'not-proper-subset'.
    """
    mask = sum(1 << e for e in normalize_edge_ids(g, edge_ids))
    return ToleranceCheck(g, tolerance).first_violation(mask, weak)
