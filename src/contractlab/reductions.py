"""Constructive reductions: the pendant gadget and the bipartite tensor square.

The gadget ``build_gadget`` duplicates every vertex of a bipartite graph and
hangs the copy off the original as a degree-one pendant; the original graph
sits inside as the "core" and every edge (core and pendant alike) carries one
uniform weight.  Contraction sets of the gadget and bicliques of its core are
mapped into each other by ``contraction_to_biclique`` / ``biclique_to_contraction``;
the latter reports the verifier's verdict instead of assuming validity.

``build_tensor_square`` is the categorical product of a bipartite graph with
itself, restricted to the two mixed coordinate classes, which is again
bipartite with both parts of size |L|*|R|.  ``lift_biclique`` and
``project_biclique`` translate biclique witnesses between a graph and its
tensor square, verifying completeness on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .graphs import Biclique, BipartiteGraph, Graph, require_connected
from .contraction import (
    Tolerance,
    ViolationWitness,
    is_weak_contraction,
    normalize_edge_ids,
    violation_witness,
)

CORE = "core"
MATCHING = "matching"

REASON_SIZE = "size-le-1"
REASON_MATCHING = "matching-edge"
REASON_INCOMPLETE = "not-complete"


@dataclass(frozen=True)
class GadgetGraph:
    """A bipartite core plus one pendant copy of every vertex.

    Combined-graph vertex layout for a core of n = nV + nU vertices: core
    vertex v keeps its index v in ``core.to_graph()`` (left i -> i, right
    j -> nV + j) and its pendant is n + v, so ``pendant_map`` is
    ``range(n, 2n)``.  ``edge_kind[eid]`` tags every combined edge as 'core'
    or 'matching'; a matching edge is one whose larger endpoint is at least n.
    """

    core: BipartiteGraph
    weight: Fraction
    combined: Graph
    pendant_map: tuple[int, ...]
    edge_kind: tuple[str, ...]

    @property
    def left_count(self) -> int:
        return self.core.left_count

    @cached_property
    def bipartition(self) -> tuple[BipartiteGraph, tuple[int, ...], tuple[int, ...]]:
        """The gadget as a bipartite graph plus side-to-combined index maps.

        Side 0 holds the core left vertices followed by the right pendants;
        side 1 holds the core right vertices followed by the left pendants.
        Core-vertex indices are unchanged, so a biclique of the core is
        already in side-local coordinates of this view.
        """
        nv, n = self.left_count, self.core.vertex_count
        side0 = (*range(nv), *range(n + nv, 2 * n))
        side1 = (*range(nv, n), *range(n, n + nv))
        pos0 = {c: i for i, c in enumerate(side0)}
        pos1 = {c: i for i, c in enumerate(side1)}
        edges = tuple(
            (pos0[u], pos1[v], w) if u in pos0 else (pos0[v], pos1[u], w)
            for u, v, w in self.combined.edges
        )
        return BipartiteGraph(len(side0), len(side1), edges), side0, side1


def build_gadget(g: BipartiteGraph, weight=1) -> GadgetGraph:
    """Attach a pendant copy to every vertex of a connected bipartite graph.

    Every edge of the result (the embedded core edges included) carries the
    given uniform positive weight.  Vertex and edge counts are exactly
    2*(nV+nU) and m + nV + nU.
    """
    w = Fraction(weight)
    if w <= 0:
        raise ValueError(f"gadget weight must be positive, got {weight}")
    core = g.to_graph()
    require_connected(core, "gadget construction requires a connected graph")
    n = core.vertex_count
    pendant_map = tuple(range(n, 2 * n))
    # the core's edges, then each core vertex v's pendant edge (v, n + v)
    combined = Graph(
        2 * n, tuple((u, v, w) for u, v, *_ in (*core.edges, *enumerate(pendant_map)))
    )
    return GadgetGraph(
        core=g,
        weight=w,
        combined=combined,
        pendant_map=pendant_map,
        edge_kind=tuple(MATCHING if v >= n else CORE for _, v, _ in combined.edges),
    )


@dataclass(frozen=True)
class TensorGraph:
    """Tensor square of a bipartite graph, restricted to the mixed classes.

    Left part: all pairs (l, r) with l from the factor's left side, r from its
    right side, indexed l*|R| + r.  Right part: all pairs (r, l), indexed
    r*|L| + l.  ((a,b),(c,d)) is an edge iff (a,c) and (d,b) are factor edges.
    """

    factor: BipartiteGraph
    graph: BipartiteGraph
    left_pairs: tuple[tuple[int, int], ...]
    right_pairs: tuple[tuple[int, int], ...]


def build_tensor_square(g: BipartiteGraph) -> TensorGraph:
    nl, nr = g.left_count, g.right_count
    present = g.edge_set()
    left_pairs = tuple((l, r) for l in range(nl) for r in range(nr))
    right_pairs = tuple((r, l) for r in range(nr) for l in range(nl))
    edges = []
    for i, (a, b) in enumerate(left_pairs):
        for k, (c, d) in enumerate(right_pairs):
            if (a, c) in present and (d, b) in present:
                edges.append((i, k))
    tensor = BipartiteGraph(nl * nr, nr * nl, tuple(edges))
    return TensorGraph(factor=g, graph=tensor, left_pairs=left_pairs, right_pairs=right_pairs)


def lift_biclique(g: BipartiteGraph, b: Biclique) -> Biclique:
    """Lift a factor biclique with sides (S, T) to the tensor square.

    The image has left side {(l, r) : l in S, r in T} and right side
    {(r, l) : r in T, l in S}, i.e. |S||T| vertices per side; completeness in
    the tensor is verified before returning.
    """
    return _lift_into(build_tensor_square(g), b)


def _lift_into(t: TensorGraph, b: Biclique) -> Biclique:
    """``lift_biclique`` against an already built tensor square ``t``."""
    g = t.factor
    b.validate_in(g)
    nl, nr = g.left_count, g.right_count
    left = tuple(sorted(l * nr + r for l in b.left for r in b.right))
    right = tuple(sorted(r * nl + l for r in b.right for l in b.left))
    lifted = Biclique(left, right)
    lifted.validate_in(t.graph)
    return lifted


def project_biclique(t: TensorGraph, b: Biclique) -> Biclique:
    """Project a tensor biclique back to the factor.

    Both coordinate projections induce complete factor bicliques (first
    coordinates of the left side against first coordinates of the right side,
    and second against second); the one with more edges is returned, the
    first on ties.  Completeness in the factor is verified before returning.
    """
    b.validate_in(t.graph)
    first = Biclique(
        tuple(t.left_pairs[i][0] for i in b.left),
        tuple(t.right_pairs[k][0] for k in b.right),
    )
    second = Biclique(
        tuple(t.right_pairs[k][1] for k in b.right),
        tuple(t.left_pairs[i][1] for i in b.left),
    )
    chosen = first if first.edge_count >= second.edge_count else second
    chosen.validate_in(t.factor)
    return chosen


def contraction_to_biclique(
    bg: GadgetGraph, edge_ids
) -> tuple[Biclique | None, str | None]:
    """Read a biclique off a valid weak contraction of the gadget, if it is one.

    Requires the set to pass the weak verifier at tolerance (1, w) where w is
    the gadget weight; raises ValueError otherwise.  Returns (biclique, None)
    when the set has at least two edges, touches no pendant edge, and its
    core edges form a complete biclique; otherwise (None, reason) with reason
    one of 'size-le-1', 'matching-edge', 'not-complete'.
    """
    ids = normalize_edge_ids(bg.combined, edge_ids)
    tol = Tolerance(Fraction(1), bg.weight)
    if not is_weak_contraction(bg.combined, ids, tol):
        raise ValueError("edge set is not a valid weak contraction of the gadget")
    if len(ids) <= 1:
        return None, REASON_SIZE
    if any(bg.edge_kind[e] == MATCHING for e in ids):
        return None, REASON_MATCHING
    # distinct core edges are distinct pairs inside lefts x rights, so the
    # pairs fill that product exactly when there are as many of them
    nv, edges = bg.left_count, bg.combined.edges
    lefts = {edges[e][0] for e in ids}
    rights = {edges[e][1] - nv for e in ids}
    if len(ids) == len(lefts) * len(rights):
        return Biclique(tuple(lefts), tuple(rights)), None
    return None, REASON_INCOMPLETE


def biclique_to_contraction(
    bg: GadgetGraph, b: Biclique
) -> tuple[tuple[int, ...], bool, ViolationWitness | None]:
    """Contract a gadget biclique and report the weak verifier's verdict.

    ``b`` is in side-local coordinates of the gadget's bipartition (a
    biclique of the core passes through unchanged, since core vertices keep
    their indices there).  Returns the contraction set (combined edge ids),
    the is_weak_contraction verdict at tolerance (1, w), and the violation
    witness whenever the verdict is negative.  The verdict is computed, never
    assumed.
    """
    view, side0, side1 = bg.bipartition
    b.validate_in(view)
    rights = {side1[k] for k in b.right}
    adjacency = bg.combined.adjacency
    ids = tuple(sorted(eid for i in b.left for v, eid in adjacency[side0[i]] if v in rights))
    witness = violation_witness(bg.combined, ids, Tolerance(Fraction(1), bg.weight), weak=True)
    return ids, witness is None, witness
