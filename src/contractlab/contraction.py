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
exact; ties at equality count as valid.  Verdicts, and so every search built
on them, need a connected graph (``ToleranceCheck`` refuses any other), while
``contract``, ``contracted_distance`` and ``graphs.shortest_distances`` also
take disconnected ones, with ``UNREACHABLE`` between components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .graphs import (
    DistanceMatrix,
    Graph,
    is_connected,  # not called here; kept as contraction.is_connected, which bench/ reads
    require_connected,
)


@dataclass(frozen=True)
class Tolerance:
    """The pair (alpha, beta) a contraction is validated against.

    alpha must be positive and beta non-negative.  alpha >= 1 is the intended
    regime (with alpha < 1 even the empty set can fail); values below 1 are
    accepted because the inequality stays meaningful.

    With alpha = p/q and beta = r/s in lowest terms, ``ints`` is the triple
    (p*s, p*r, q*s) that ``ToleranceCheck`` tests with, computed once here.
    It is not a field: equality, hashing and repr see alpha and beta only.
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
        p, q = a.numerator, a.denominator
        r, s = b.numerator, b.denominator
        object.__setattr__(self, "ints", (p * s, p * r, q * s))


def normalize_edge_ids(g: Graph, edge_ids: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate, sort and range-check a contraction set for ``g``."""
    mask = _edge_mask(g, edge_ids)
    return tuple(e for e in range(g.edge_count) if mask >> e & 1)


def _edge_mask(g: Graph, edge_ids: Iterable[int]) -> int:
    """The bitmask of a contraction set for ``g``, in one pass over
    ``edge_ids`` (which may be a generator).  An id outside ``[0, m)`` is a
    ValueError naming the smallest such id."""
    m = g.edge_count
    mask = 0
    bad = None
    for e in edge_ids:
        if 0 <= e < m:
            mask |= 1 << e
        elif bad is None or e < bad:
            bad = e
    if bad is not None:
        raise ValueError(f"edge id {bad} out of range [0,{m})")
    return mask


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
    mask = _edge_mask(g, edge_ids)
    engine = g.distances
    return engine.exact(engine.row(u, mask)[v])


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
    D_C are scaled distances.  That is ``lhs * D_C + offset >= coeff * D``
    with ``lhs`` = p*s, ``coeff`` = q*s and ``offset`` = p*r*L, D read from
    the graph's uncontracted rows (``ScaledDistances.base_row``).  The
    tolerance computes p*s, p*r and q*s once (``Tolerance.ints``) and the
    graph's engine holds L, so construction does one multiplication and no
    search.  A verdict tests the failing side, ``lhs * D_C + offset < coeff *
    D``, pair by pair and builds no table (weak mode tests D_C != 0 first, so
    a merged pair costs no product); the exact searches
    (``solvers._evaluation``) read the same three integers and every base row
    (``base_scaled``) to test their own packed distance matrices.  All of
    these are read-only.

    Subsets are passed as bitmasks over edge ids.  ``_violations`` is the one
    scan: ``first_violation`` returns its first pair as a witness and
    ``is_valid`` only whether it has one, building no Fraction.  A scan reads
    row u, contracted through the engine's memo (``ScaledDistances.row``) and
    uncontracted through ``base_row``, only when the lexicographic pair scan
    reaches u, so a scan that stops at its first failing pair searches no row
    past it, and another verdict on the same mask searches none.
    """

    def __init__(self, g: Graph, tolerance: Tolerance):
        require_connected(g, "tolerance checks require a connected graph")
        engine = g.distances
        self.graph, self.tolerance = g, tolerance
        n = g.vertex_count
        m = g.edge_count
        self.n = n
        self.m = m
        self.full_mask = (1 << m) - 1

        self._row = engine.row
        self._base_row = engine.base_row
        self._exact = engine.exact

        self.lhs, offset, self.coeff = tolerance.ints
        self.offset = offset * engine.scale

    @property
    def base_scaled(self) -> list[list[int]]:
        """``Graph.distances.base``, which the searches read whole."""
        return self.graph.distances.base

    def _violations(self, cmask: int, weak: bool) -> Iterator[tuple[int, int, int]]:
        """Failing pairs in lexicographic order as (u, v, scaled induced
        distance); merged pairs are exempt in weak mode."""
        n, lhs, offset, coeff = self.n, self.lhs, self.offset, self.coeff
        row, base_row = self._row, self._base_row
        for u in range(n - 1):
            dc = row(u, cmask)
            d0 = base_row(u)
            for v in range(u + 1, n):
                d = dc[v]
                if (d or not weak) and lhs * d + offset < coeff * d0[v]:
                    yield u, v, d

    def first_violation(self, cmask: int, weak: bool) -> ViolationWitness | None:
        """None if valid, else the witness: 'not-proper-subset' for the full
        set in weak mode, or the lexicographically first failing pair."""
        if weak and cmask == self.full_mask:
            return ViolationWitness(kind="not-proper-subset")
        exact = self._exact
        for u, v, d in self._violations(cmask, weak):
            return ViolationWitness("pair", u, v, exact(self._base_row(u)[v]), exact(d))
        return None

    def is_valid(self, cmask: int, weak: bool) -> bool:
        """``first_violation(cmask, weak) is None``, from the same scan but
        with no witness built."""
        if weak and cmask == self.full_mask:
            return False
        return next(self._violations(cmask, weak), None) is None

    def failing_pairs(self, cmask: int, weak: bool) -> list[tuple[int, int]]:
        """All pairs violating the inequality (exempting merged pairs in weak mode)."""
        return [(u, v) for u, v, _ in self._violations(cmask, weak)]


def is_contraction(g: Graph, edge_ids: Iterable[int], tolerance: Tolerance) -> bool:
    """True iff contracting the set keeps every pair within tolerance.

    Merged pairs are not exempt here: they need ``0 >= d(u,v)/alpha - beta``,
    so with beta = 0 only the empty set qualifies.
    """
    mask = _edge_mask(g, edge_ids)
    return ToleranceCheck(g, tolerance).is_valid(mask, weak=False)


def is_weak_contraction(g: Graph, edge_ids: Iterable[int], tolerance: Tolerance) -> bool:
    """True iff the set is a proper subset of the edges and every unmerged
    pair stays within tolerance."""
    mask = _edge_mask(g, edge_ids)
    return ToleranceCheck(g, tolerance).is_valid(mask, weak=True)


def violation_witness(
    g: Graph, edge_ids: Iterable[int], tolerance: Tolerance, weak: bool
) -> ViolationWitness | None:
    """None when the corresponding verifier accepts, else a deterministic witness.

    Pair witnesses pick the lexicographically smallest violating (u, v); a
    weak-mode set equal to all edges yields kind 'not-proper-subset'.
    """
    mask = _edge_mask(g, edge_ids)
    return ToleranceCheck(g, tolerance).first_violation(mask, weak)
