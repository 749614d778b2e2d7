"""Exhaustive adjudication of structural claims about contractions on small instances.

Each check enumerates everything relevant on one instance (valid weak
contractions, paths, bicliques) with independent machinery and reports
holds / counterexample / vacuous, where "vacuous" means the claim's
hypothesis matched nothing.  Every check reads one ``LabInstance``, which
builds what an instance's claims share once and only from its own graph:
both path claims read one enumeration of valid sets, and the gadget claims
one gadget and one weak search of it at (1,1), so theorem 6's weak optimum
walks partitions the biclique-lemma enumeration already evaluated, merged
and scanned, and every beta of corollary-scaling reads one weak verifier of
that gadget at (1,1).  A counterexample report always carries enough witness
data to re-verify it from scratch.  All checks are deterministic functions of
their instance, so suite reports can be pinned and diffed.

Claim ids (fixed report-schema slugs):
  path-lemma            two vertex-disjoint contracted edges on a simple path
                        force the whole path into the contraction set
  path-lemma-shortest   the same restricted to shortest paths; it fails only
                        through the merged-pair exemption: two contracted
                        edges shorten a geodesic by 2 > beta = 1, so its
                        endpoints always share a supernode
  biclique-lemma        valid weak contractions of a pendant gadget with more
                        than one edge contract a complete core biclique
  thm6-soundness        the optimum weak contraction of a gadget is bounded
                        by max(1, MEB of the gadget) whenever biclique-lemma
                        holds on the instance
  thm6-completeness     contracting a maximum-edge biclique of the gadget is
                        itself a valid weak contraction
  corollary-scaling     verifier verdicts agree between unit-weight gadgets at
                        tolerance (1,1) and weight-b gadgets at (1,b)
  lemma2-lift           biclique witnesses lift to complete bicliques of the
                        tensor square and project back to valid factor ones
"""

from __future__ import annotations

import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

from .graphs import (
    Biclique,
    BipartiteGraph,
    Graph,
    complete_bipartite,
    cycle_graph,
    generate_random_bipartite,
    is_connected,  # not called here; bench/tracer.py patches it in this namespace
    parse_graph,
    parse_rational,
    path_graph,
    require_connected,
)
from .contraction import Tolerance, ToleranceCheck
from .solvers import (
    DEFAULT_EDGE_CAP,
    DEFAULT_SIDE_CAP,
    _require_cap,
    _Search,
    enumerate_valid_weak_contractions,
    max_balanced_biclique_exact,
    max_edge_biclique_exact,
    max_weak_contraction_exact,
    weak_search,
)
from .reductions import (
    GadgetGraph,
    biclique_to_contraction,
    build_gadget,
    build_tensor_square,
    contraction_to_biclique,
    lift_biclique,
    project_biclique,
)

CLAIM_PATH = "path-lemma"
CLAIM_PATH_SHORTEST = "path-lemma-shortest"
CLAIM_BICLIQUE = "biclique-lemma"
CLAIM_T6_SOUNDNESS = "thm6-soundness"
CLAIM_T6_COMPLETENESS = "thm6-completeness"
CLAIM_COROLLARY = "corollary-scaling"
CLAIM_LEMMA2 = "lemma2-lift"

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
VACUOUS = "vacuous"
ERROR = "error"

# The columns of a summarize() row, in summary.csv order
SUMMARY_COLUMNS = ("claim", "family", HOLDS, COUNTEREXAMPLE, VACUOUS, ERROR, "total")

# The (1,1) tolerance the path and gadget claims are stated at
_UNIT_TOLERANCE = Tolerance(Fraction(1), Fraction(1))


@dataclass(frozen=True)
class LabReport:
    """Structured outcome of one claim check on one instance."""

    claim: str
    instance: dict
    verdict: str
    witness: dict | None
    stats: dict

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "instance": self.instance,
            "verdict": self.verdict,
            "stats": self.stats,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def instance_key(instance: dict) -> str:
    """Stable identifier for golden files: family, sorted params, seed."""
    params = instance.get("params") or {}
    inner = ",".join(f"{k}={params[k]}" for k in sorted(params))
    seed = instance.get("seed")
    if seed is not None:
        inner = f"{inner};seed={seed}" if inner else f"seed={seed}"
    return f"{instance['family']}[{inner}]"


def _adhoc_instance(instance: dict | None) -> dict:
    return instance if instance is not None else {"family": "adhoc", "params": {}, "seed": None}


def _stats(enumerated: int, truncated: bool, t0: float) -> dict:
    return {
        "enumerated": enumerated,
        "truncated": truncated,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }


# ----------------------------------------------------------------------------
# The instance context.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class LabInstance:
    """One instance and the values its claims share, each built from
    ``graph`` on first read, so that no check can be handed another graph's.

    ``graph`` is a Graph (path claims only) or a BipartiteGraph (any claim).
    ``cap_edges`` bounds every contraction search, ``max_path_edges`` the
    simple paths of ``path-lemma`` (None: the graph's diameter + 2), and
    ``instance`` is the descriptor every report carries (None: an ad hoc
    one).  A value that raises caches nothing: each read raises again.
    The gadget claims read ``gadget``, ``search`` and ``biclique``, and
    every beta of corollary-scaling reads ``unit_check``.
    """

    graph: Graph | BipartiteGraph
    cap_edges: int = DEFAULT_EDGE_CAP
    max_path_edges: int | None = None
    instance: dict | None = None

    @cached_property
    def unit_graph(self) -> Graph:
        """One Graph, so one distance engine, for both path claims; refused
        unless it has unit weights and is connected."""
        g = self.graph.to_graph() if isinstance(self.graph, BipartiteGraph) else self.graph
        if not g.has_unit_weights():
            raise ValueError("path claim checks require unit weights")
        require_connected(g, "path claim checks require a connected graph")
        return g

    @cached_property
    def valid_sets(self) -> tuple[tuple[int, ...], ...]:
        """Valid weak contractions of ``unit_graph`` at (1,1), smallest
        first, then lexicographically."""
        sets = enumerate_valid_weak_contractions(self.unit_graph, _UNIT_TOLERANCE, self.cap_edges)
        # the stream is lexicographic and sorted is stable, so size alone suffices
        return tuple(sorted(sets, key=len))

    @cached_property
    def gadget(self) -> GadgetGraph:
        return build_gadget(self.graph, 1)

    @cached_property
    def unit_check(self) -> ToleranceCheck:
        """The weak verifier of the gadget at (1,1) for every beta of
        ``corollary-scaling``."""
        return ToleranceCheck(self.gadget.combined, _UNIT_TOLERANCE)

    @cached_property
    def search(self) -> _Search:
        """One weak search of the gadget at (1,1) for both gadget claims."""
        return weak_search(self.gadget.combined, _UNIT_TOLERANCE, self.cap_edges)

    @cached_property
    def biclique(self) -> LabReport:
        """The biclique-lemma report, which theorem 6's soundness reads."""
        return check_biclique_lemma(self)

    @cached_property
    def theorem6(self) -> tuple[LabReport, LabReport]:
        """The theorem-6 soundness and completeness reports, from one call."""
        return check_theorem6(self)


# ----------------------------------------------------------------------------
# Path machinery (unit weights).
# ----------------------------------------------------------------------------


# A path as (vertices, edge ids), edge i joining vertices i and i + 1
_Path = tuple[tuple[int, ...], tuple[int, ...]]


def _all_simple_paths(g: Graph, max_edges: int) -> tuple[list[_Path], bool]:
    """Every simple path with 3..max_edges edges (the fewest that hold two
    disjoint ones), one orientation per path, as ``(vertices, edge_ids)``.

    Paths are kept when the first endpoint is smaller than the last; order is
    by start vertex, then depth-first with ascending neighbors.  The second
    return value flags that some path hit the cap while still extendable.
    """
    adj = g.adjacency
    paths: list[_Path] = []
    truncated = False

    def extend(path: tuple[int, ...], eids: tuple[int, ...]) -> None:
        nonlocal truncated
        if len(eids) == max_edges:
            if any(v not in path for v, _ in adj[path[-1]]):
                truncated = True
            return
        for v, eid in adj[path[-1]]:
            if v not in path:
                longer = (path + (v,), eids + (eid,))
                if len(eids) >= 2 and path[0] < v:  # longer has 3 edges or more
                    paths.append(longer)
                extend(*longer)

    for s in range(g.vertex_count):
        extend((s,), ())
    return paths, truncated


def _all_shortest_paths(g: Graph) -> list[_Path]:
    """Every geodesic with 3 or more edges between every vertex pair (u < v),
    unit weights, as ``(vertices, edge_ids)``."""
    n = g.vertex_count
    adj = g.adjacency
    dist = g.distances.base
    paths: list[_Path] = []

    def extend(path: tuple[int, ...], eids: tuple[int, ...], target: int) -> None:
        x = path[-1]
        if x == target:
            paths.append((path, eids))
            return
        for y, eid in adj[x]:
            if dist[y][target] == dist[x][target] - 1:
                extend(path + (y,), eids + (eid,), target)

    for u in range(n):
        for v in range(u + 1, n):
            if dist[u][v] >= 3:
                extend((u,), (), v)
    return paths


def _first_disjoint_contracted_pair(
    edge_ids: tuple[int, ...], cmask: int
) -> tuple[int, int] | None:
    """First pair of positions at distance >= 2 whose edges are both
    contracted (in ``cmask``, bit e for edge e).

    On a simple path, edges two or more positions apart share no vertex.
    Positions ascend, so the first such pair starts at the first contracted
    position p0: it is (p0, p1) unless p1 = p0 + 1, and then (p0, p2).
    """
    positions = [i for i, e in enumerate(edge_ids) if cmask >> e & 1]
    if len(positions) < 2:
        return None
    if positions[1] >= positions[0] + 2:
        return positions[0], positions[1]
    return (positions[0], positions[2]) if len(positions) > 2 else None


def check_path_lemma(ctx: LabInstance, shortest_only: bool) -> LabReport:
    """Does every valid weak contraction at (1,1) that contains two
    vertex-disjoint edges of a path contain the whole path?

    Candidate sets are scanned smallest-first (then lexicographically), paths
    in enumeration order, so the reported counterexample is the size-minimal
    one.  Simple-path enumeration is capped at ``ctx.max_path_edges`` edges,
    the diameter + 2 by default; hitting the cap sets the ``truncated`` flag.

    With ``shortest_only`` the claim can fail only through the merged-pair
    exemption: the two contracted edges shorten the geodesic by 2 > beta = 1,
    so its endpoints lie in one supernode of every set the hypothesis fires
    on (a proper spanning set, say, on ``K_{2,3}`` minus an edge).
    """
    t0 = time.perf_counter()
    claim = CLAIM_PATH_SHORTEST if shortest_only else CLAIM_PATH
    inst = _adhoc_instance(ctx.instance)
    valid_sets = ctx.valid_sets  # refuses the graph before anything is walked
    g = ctx.unit_graph
    truncated = False
    if shortest_only:
        paths = _all_shortest_paths(g)
    else:
        max_path_edges = ctx.max_path_edges
        if max_path_edges is None:
            diameter = max((max(row) for row in g.distances.base), default=0)
            max_path_edges = diameter + 2
        paths, truncated = _all_simple_paths(g, max_path_edges)

    if not paths:  # nothing to match: vacuous without scanning the sets
        return LabReport(claim, inst, VACUOUS, None, _stats(len(valid_sets), truncated, t0))
    matched = False
    masked = [(path, eids, sum(1 << e for e in eids)) for path, eids in paths]
    for cand in valid_sets:
        if len(cand) < 2:
            continue
        cmask = sum(1 << e for e in cand)
        for path, eids, pmask in masked:
            shared = pmask & cmask
            if shared & (shared - 1) == 0:  # fewer than two path edges contracted
                continue
            pair = _first_disjoint_contracted_pair(eids, cmask)
            if pair is None:
                continue
            matched = True
            if shared != pmask:
                i, j = pair
                witness = {
                    "contraction": list(cand),
                    "path": list(path),
                    "path_edge_ids": list(eids),
                    "disjoint_positions": [i, j],
                    "disjoint_edge_ids": [eids[i], eids[j]],
                    "missing_edge_ids": [e for e in eids if not cmask >> e & 1],
                }
                return LabReport(
                    claim, inst, COUNTEREXAMPLE, witness,
                    _stats(len(valid_sets), truncated, t0),
                )
    verdict = HOLDS if matched else VACUOUS
    return LabReport(claim, inst, verdict, None, _stats(len(valid_sets), truncated, t0))


# ----------------------------------------------------------------------------
# Gadget claims.
# ----------------------------------------------------------------------------


def check_biclique_lemma(ctx: LabInstance) -> LabReport:
    """Does every valid weak contraction of the unit gadget with more than one
    edge contract a complete biclique of the core?

    Enumerates valid sets in lexicographic order and stops at the first one
    whose edges do not form a core biclique.  Vacuous when no valid set has
    more than one edge.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(ctx.instance)
    bg = ctx.gadget
    enumerated = 0
    matched = False
    valid_sets = enumerate_valid_weak_contractions(
        bg.combined, _UNIT_TOLERANCE, ctx.cap_edges, search=ctx.search
    )
    for cand in valid_sets:
        enumerated += 1
        if len(cand) <= 1:
            continue
        matched = True
        biclique, reason = contraction_to_biclique(bg, cand)
        if biclique is None:
            witness = {
                "contraction": list(cand),
                "reason": reason,
                "edge_kinds": [bg.edge_kind[e] for e in cand],
            }
            return LabReport(
                CLAIM_BICLIQUE, inst, COUNTEREXAMPLE, witness, _stats(enumerated, False, t0)
            )
    verdict = HOLDS if matched else VACUOUS
    return LabReport(CLAIM_BICLIQUE, inst, verdict, None, _stats(enumerated, False, t0))


def check_theorem6(ctx: LabInstance) -> tuple[LabReport, LabReport]:
    """Adjudicate both directions of the gadget reduction on one instance.

    Soundness: whenever the biclique claim holds (or is vacuous) here, the
    maximum weak contraction of the gadget has at most max(1, MEB(gadget))
    edges; vacuous when the biclique claim already failed.  Completeness:
    contracting a maximum-edge biclique of the gadget verifies as a valid
    weak contraction; the verifier's verdict is recorded either way and the
    witness carries everything needed to re-check it.  The weak optimum
    walks the context's search, so it reads the partitions the biclique
    claim's enumeration already evaluated.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(ctx.instance)
    lemma = ctx.biclique
    bg = ctx.gadget
    meb_core = max_edge_biclique_exact(ctx.graph)
    view, _, _ = bg.bipartition
    meb_gadget = max_edge_biclique_exact(view)
    optimum = max_weak_contraction_exact(
        bg.combined, _UNIT_TOLERANCE, ctx.cap_edges, search=ctx.search
    )

    evidence = {
        "meb_core": meb_core.objective,
        "meb_gadget": meb_gadget.objective,
        "optimum": optimum.objective,
        "optimum_witness": list(optimum.witness),
        "biclique_lemma_verdict": lemma.verdict,
    }
    if lemma.verdict in (HOLDS, VACUOUS):
        bound = max(1, meb_gadget.objective)
        verdict = HOLDS if optimum.objective <= bound else COUNTEREXAMPLE
        soundness = LabReport(
            CLAIM_T6_SOUNDNESS, inst, verdict,
            dict(evidence, bound=bound),
            _stats(optimum.explored, False, t0),
        )
    else:
        soundness = LabReport(
            CLAIM_T6_SOUNDNESS, inst, VACUOUS, evidence, _stats(optimum.explored, False, t0)
        )

    t1 = time.perf_counter()
    ids, valid, violation = biclique_to_contraction(bg, meb_gadget.witness)
    completeness_witness = {
        "biclique": meb_gadget.witness.to_json_dict(),
        "contraction": list(ids),
        "verifier_verdict": valid,
    }
    if violation is not None:
        completeness_witness["violation"] = violation.to_json_dict()
    completeness = LabReport(
        CLAIM_T6_COMPLETENESS,
        inst,
        HOLDS if valid else COUNTEREXAMPLE,
        completeness_witness,
        _stats(meb_gadget.explored, False, t1),
    )
    return soundness, completeness


def check_corollary_scaling(ctx: LabInstance, beta, trials: int, seed: int) -> LabReport:
    """Sampled verdict equality between the unit gadget at (1,1) and the
    weight-b gadget at (1,b).

    Draws ``trials`` uniform edge subsets of the gadget and compares the weak
    verifier on both sides; any disagreement is a counterexample.  trials = 0
    is vacuous.  The report's instance gains ``beta`` among its params.

    Holds by construction: ``build_gadget`` gives every edge one weight, so
    at (1, b) both sides of every pair's inequality scale by b; a
    counterexample means a fault in the gadget or the verifier.
    """
    t0 = time.perf_counter()
    b = Fraction(beta)
    if b <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    desc = _adhoc_instance(ctx.instance)
    inst = dict(desc, params=dict(desc["params"], beta=str(b)))
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if trials == 0:
        return LabReport(CLAIM_COROLLARY, inst, VACUOUS, None, _stats(0, False, t0))
    check_unit = ctx.unit_check
    scaled = build_gadget(ctx.graph, b)
    check_scaled = ToleranceCheck(scaled.combined, Tolerance(Fraction(1), b))
    m = check_unit.m
    rng = random.Random(seed)
    for trial in range(trials):
        mask = rng.getrandbits(m)
        v_unit = check_unit.is_valid(mask, weak=True)
        v_scaled = check_scaled.is_valid(mask, weak=True)
        if v_unit != v_scaled:
            ids = [e for e in range(m) if (mask >> e) & 1]
            witness = {
                "subset": ids,
                "beta": str(b),
                "verdict_unit": v_unit,
                "verdict_scaled": v_scaled,
                "trial": trial,
            }
            return LabReport(
                CLAIM_COROLLARY, inst, COUNTEREXAMPLE, witness, _stats(trial + 1, False, t0)
            )
    return LabReport(CLAIM_COROLLARY, inst, HOLDS, None, _stats(trials, False, t0))


def _maximal_factor_bicliques(g: BipartiteGraph):
    """All maximal bicliques as closed pairs (S, common-neighborhood of S)."""
    nl = g.left_count
    nbr = [0] * nl
    for l, r, _ in g.edges:
        nbr[l] |= 1 << r
    out = []
    for mask in range(1, 1 << nl):
        s = [l for l in range(nl) if (mask >> l) & 1]
        t = -1
        for l in s:
            t = nbr[l] if t == -1 else t & nbr[l]
        if t <= 0:
            continue
        closure = [l for l in range(nl) if nbr[l] & t == t]
        if closure == s:
            rights = tuple(r for r in range(g.right_count) if (t >> r) & 1)
            out.append(Biclique(tuple(s), rights))
    return out


def check_lemma2(ctx: LabInstance) -> LabReport:
    """Lift/project consistency between a graph and its tensor square.

    Lifts every maximal biclique and verifies the image is complete in the
    tensor; finds a maximum balanced biclique of the tensor and verifies its
    projection is a complete factor biclique.  Records the balanced size t,
    t*t, and the projected edge count so the two ways of counting can be
    compared downstream.  Vacuous when the graph has no edges.

    Holds by construction, with t = MEB(core): a tensor-square biclique lies
    inside a product of factor bicliques (left side in S1 x T2, right in T1
    x S2), so t <= sqrt(|S1||T1||S2||T2|) <= MEB(core), and a lifted maximum
    biclique gives t >= MEB(core); a counterexample means a fault in the
    tensor builder or the projection.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(ctx.instance)
    g = ctx.graph
    _require_cap(g.left_count * g.right_count, DEFAULT_SIDE_CAP, "tensor side")
    tensor = build_tensor_square(g)
    maximal = _maximal_factor_bicliques(g)
    if not maximal:
        return LabReport(CLAIM_LEMMA2, inst, VACUOUS, None, _stats(0, False, t0))
    for enumerated, b in enumerate(maximal, 1):
        try:
            lift_biclique(tensor, b)
        except ValueError as exc:
            witness = {
                "factor_biclique": b.to_json_dict(),
                "failure": "lift-not-complete",
                "detail": str(exc),
            }
            return LabReport(
                CLAIM_LEMMA2, inst, COUNTEREXAMPLE, witness, _stats(enumerated, False, t0)
            )

    # the lifts above are complete tensor bicliques, so t >= 1
    mbb = max_balanced_biclique_exact(tensor.graph)
    try:
        projected = project_biclique(tensor, mbb.witness)
    except ValueError as exc:
        witness = {
            "tensor_biclique": mbb.witness.to_json_dict(),
            "failure": "projection-not-complete",
            "detail": str(exc),
        }
        return LabReport(
            CLAIM_LEMMA2, inst, COUNTEREXAMPLE, witness, _stats(enumerated, False, t0)
        )
    witness = {
        "balanced_size": mbb.objective,
        "balanced_squared": mbb.objective * mbb.objective,
        "projected_edges": projected.edge_count,
        "projected": projected.to_json_dict(),
    }
    return LabReport(CLAIM_LEMMA2, inst, HOLDS, witness, _stats(enumerated, False, t0))


# ----------------------------------------------------------------------------
# Instance families and the suite runner.
# ----------------------------------------------------------------------------


def enumerate_connected_bipartite(
    left: int, right: int, *, cap: int = DEFAULT_EDGE_CAP
) -> list[BipartiteGraph]:
    """One connected bipartite graph per isomorphism class with the given
    side sizes.

    Classes are taken under side-respecting relabelings, plus the side swap
    when the sides have equal size; each is represented by its member with
    the smallest edge bitmask, and the list follows ascending bitmask, so it
    is deterministic.  The walk visits each sorted multiset of the larger
    side's neighbour bitmasks once, C(2**s + l - 1, l) of them for sides of
    s <= l vertices, and more than ``cap`` possible edges raise
    CapExceededError before it.  Each multiset is tested in order of cost:
    connectivity on the bitmasks themselves (no bitmask is empty, and those
    that share a bit merge into one component covering the smaller side),
    then the least image of every bitmask under the smaller side's
    relabellings against the multiset's least element, then the full
    relabelling test; a ``BipartiteGraph`` is built only for the multisets
    kept.  An empty side leaves no edges: one class (the edgeless graph) when
    the other side has at most one vertex, none otherwise.
    """
    total = left * right
    _require_cap(total, cap, f"{left}x{right} bipartite family's possible edge count")
    cells = [(l, r) for l in range(left) for r in range(right)]
    # A graph up to relabelling of the larger side is the multiset of the
    # larger side's neighbour bitmasks (rows, or columns when left < right),
    # so the class key is the least sorted tuple of them over the
    # relabellings of the smaller side (taken from both sides when they are
    # equal, which covers the swap).  Walking the sorted tuples and keeping
    # those that are their own key meets each class exactly once.
    small, large = min(left, right), max(left, right)
    if not small:
        return [BipartiteGraph(left, right)] if large <= 1 else []
    full = (1 << small) - 1
    relabel = [
        [sum(1 << p[i] for i in range(small) if (x >> i) & 1) for x in range(1 << small)]
        for p in itertools.permutations(range(small))
    ]
    # A key whose element x has an image below key[0] maps to a smaller
    # sorted tuple, so it is not its own class key
    minimg = [min(t[x] for t in relabel) for x in range(1 << small)]

    def connected(key) -> bool:
        if not key[0]:  # sorted, so some larger-side vertex has no edge
            return False
        reach = grown = key[-1]
        while True:
            for x in key:
                if x & grown:
                    grown |= x
            if grown == reach:
                return reach == full
            reach = grown

    def transpose(view) -> list[int]:
        return [sum(((x >> r) & 1) << l for l, x in enumerate(view)) for r in range(small)]

    def least_mask(view) -> int:
        # Row left-1 holds the highest bits, so the least bitmask with these
        # larger-side values puts rows, or columns read from row left-1
        # down, in descending value.
        desc = sorted(view, reverse=True)
        if left < right:
            return sum(
                ((x >> l) & 1) << (l * right + r) for r, x in enumerate(desc) for l in range(left)
            )
        return sum(x << (l * right) for l, x in enumerate(desc))

    masks = []
    for key in itertools.combinations_with_replacement(range(1 << small), large):
        if not connected(key) or min(map(minimg.__getitem__, key)) < key[0]:
            continue
        views = [key, transpose(key)] if left == right else [key]
        if any(tuple(sorted(map(t.__getitem__, view))) < key for t in relabel for view in views):
            continue
        masks.append(min(least_mask(map(t.__getitem__, view)) for t in relabel for view in views))
    return [
        BipartiteGraph(left, right, tuple(cells[i] for i in range(total) if (mask >> i) & 1))
        for mask in sorted(masks)
    ]


def default_suite_config() -> dict:
    """A small suite covering every claim on paths, cycles, exhaustive
    bipartite families, and seeded random instances."""
    path_claims = [CLAIM_PATH, CLAIM_PATH_SHORTEST]
    gadget_claims = [CLAIM_BICLIQUE, CLAIM_T6_SOUNDNESS, CLAIM_T6_COMPLETENESS, CLAIM_LEMMA2]
    return {
        "caps": {"max_edges": DEFAULT_EDGE_CAP},
        "instances": [
            {"family": "path", "n": 3, "claims": path_claims},
            {"family": "path", "n": 4, "claims": path_claims},
            {"family": "path", "n": 5, "claims": path_claims},
            {"family": "cycle", "n": 4, "claims": path_claims},
            {"family": "all-bipartite", "left": 1, "right": 1, "claims": gadget_claims},
            {"family": "all-bipartite", "left": 1, "right": 2, "claims": gadget_claims},
            {"family": "all-bipartite", "left": 2, "right": 2, "claims": gadget_claims},
            {"family": "all-bipartite", "left": 2, "right": 3, "claims": gadget_claims},
            {
                "family": "random-bipartite",
                "left": 3,
                "right": 3,
                "prob": "1/2",
                "seed": 2,
                "claims": [CLAIM_COROLLARY, CLAIM_LEMMA2],
                "betas": ["1/2", "3"],
                "trials": 25,
            },
        ],
    }


def _is_int(value) -> bool:
    """An int that is not a bool (JSON ``true`` loads as a Python int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def _is_rational(value) -> bool:
    """An int, or a string ``parse_rational`` accepts."""
    try:
        return _is_int(value) or isinstance(value, str) and parse_rational(value) is not None
    except ValueError:
        return False


def _is_probability(value) -> bool:
    return _is_rational(value) and 0 <= Fraction(value) <= 1


def _file_instances(entry: dict, cap_edges: int) -> list:
    with open(entry["path"], "r", encoding="utf-8") as fh:
        text = fh.read()
    return [({"sha256": sha256(text.encode("utf-8")).hexdigest()[:16]}, None, parse_graph(text))]


_COUNT = (_is_count, "a non-negative integer")
_SIDES = {"left": _COUNT, "right": _COUNT}


def _sides(entry: dict) -> dict:
    return {"left": entry["left"], "right": entry["right"]}


# Family -> (its required keys, each with a rule and what the rule says, and a
# builder (entry, max_edges cap) -> [(params, seed, graph)]).  An instance may
# hold only its family's keys, family, claims and the keys its claims read.
_FAMILIES = {
    "path": ({"n": _COUNT}, lambda e, cap: [({"n": e["n"]}, None, path_graph(e["n"]))]),
    "cycle": (
        {"n": (lambda value: _is_int(value) and value >= 3, "an integer >= 3")},
        lambda e, cap: [({"n": e["n"]}, None, cycle_graph(e["n"]))],
    ),
    "complete-bipartite": (
        _SIDES, lambda e, cap: [(_sides(e), None, complete_bipartite(e["left"], e["right"]))]
    ),
    "all-bipartite": (_SIDES, lambda e, cap: [
        (dict(_sides(e), index=i), None, b)
        for i, b in enumerate(enumerate_connected_bipartite(e["left"], e["right"], cap=cap))
    ]),
    "random-bipartite": (
        dict(_SIDES, prob=(_is_probability, "an integer or a p/q string in [0, 1]"),
             seed=(_is_int, "an integer")),
        lambda e, cap: [(
            dict(_sides(e), prob=str(Fraction(e["prob"]))), e["seed"],
            generate_random_bipartite(e["left"], e["right"], Fraction(e["prob"]), e["seed"]),
        )],
    ),
    "file": ({"path": (lambda value: isinstance(value, str), "a string")}, _file_instances),
}

# Cap name -> default, which a suite's caps override (max_path_edges None:
# the graph's diameter + 2).
_CAPS = {"max_edges": DEFAULT_EDGE_CAP, "max_path_edges": None}


def validate_suite(config) -> None:
    """Raise ValueError naming the first malformed part of a suite config.

    The top level must be an object with no keys but ``caps``, an object of
    positive integers named in _CAPS, and ``instances``, a list of objects;
    each instance needs a known family, that family's keys with values in range
    (sizes non-negative, a cycle's ``n`` at least 3, ``prob`` an integer or
    ``p/q`` string in [0, 1]), and a list of known claim ids.  Optional
    ``betas`` must be a list of positive integers or ``p/q`` strings and
    ``trials`` a non-negative integer, and a claim must read them
    (``corollary-scaling``); an instance holds no other keys.  No boolean
    counts as an integer and no float is accepted.
    """
    if not isinstance(config, dict):
        raise ValueError("suite: the top level must be an object")
    for key in config:
        if key not in ("caps", "instances"):
            raise ValueError(f"suite: {key} is not a known top-level key")
    caps = config.get("caps", {})
    if not isinstance(caps, dict) or not all(_is_int(c) and c >= 1 for c in caps.values()):
        raise ValueError("suite: caps must be an object of positive integers")
    for name in caps:
        if name not in _CAPS:
            raise ValueError(f"suite: caps.{name} is not a known cap")
    instances = config.get("instances", [])
    if not isinstance(instances, list):
        raise ValueError("suite: instances must be a list")
    for i, entry in enumerate(instances):
        where = f"suite: instances[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        family = entry.get("family")
        if not isinstance(family, str) or family not in _FAMILIES:
            raise ValueError(f"{where}: unknown instance family {family!r}")
        keys = _FAMILIES[family][0]
        for key, (valid, what) in keys.items():
            if key not in entry:
                raise ValueError(f"{where}: family {family!r} needs key {key!r}")
            value = entry[key]
            if not valid(value):
                raise ValueError(f"{where}.{key} must be {what}, got {value!r}")
        betas = entry.get("betas", [])
        if not isinstance(betas, list) or not all(_is_rational(b) and Fraction(b) > 0 for b in betas):
            raise ValueError(f"{where}.betas must be a list of positive integers or p/q strings")
        trials = entry.get("trials", 0)
        if not _is_count(trials):
            raise ValueError(f"{where}.trials must be a non-negative integer")
        claims = entry.get("claims", [])
        if not isinstance(claims, list):
            raise ValueError(f"{where}.claims must be a list")
        for claim in claims:
            if not isinstance(claim, str) or claim not in _CLAIMS:
                raise ValueError(f"{where}: unknown claim id {claim!r}")
        allowed = {*keys, "family", "claims"}.union(*(_CLAIMS[claim][1] for claim in claims))
        for key in entry:
            if key not in allowed:
                raise ValueError(
                    f"{where}.{key} is a key of neither family {family!r} nor its claims"
                )


def _corollary_reports(ctx: LabInstance, entry: dict) -> list[LabReport]:
    trials, seed = entry.get("trials", 25), ctx.instance["seed"] or 0
    betas = entry.get("betas", ["1/2", "1", "3"])
    if trials > 0 and betas:
        # built outside the checks, but only when a check reads it: with no
        # trial or no beta a disconnected core gives no error report
        ctx.unit_check
    return [check_corollary_scaling(ctx, Fraction(beta), trials, seed) for beta in betas]


# Claim id -> (needs a bipartite instance, the instance keys it reads beyond
# its family's, the context values built before its check runs, the reports
# it makes on one).  Every report comes from a call of a check_* function
# looked up in this module at call time, so a wrapper set on the module sees
# each claim's outermost call, and the shared values it reads are built
# before that call, so no claim's call times them.  corollary-scaling lists
# none: ``_corollary_reports`` builds ``unit_check`` itself, only when some
# check reads it, since with trials 0 a disconnected core is vacuous.
_CLAIMS = {
    CLAIM_PATH: (False, (), ("valid_sets",), lambda ctx, entry: [check_path_lemma(ctx, False)]),
    CLAIM_PATH_SHORTEST: (
        False, (), ("valid_sets",), lambda ctx, entry: [check_path_lemma(ctx, True)]
    ),
    CLAIM_BICLIQUE: (True, (), ("search",), lambda ctx, entry: [ctx.biclique]),
    CLAIM_T6_SOUNDNESS: (True, (), ("search", "biclique"), lambda ctx, entry: [ctx.theorem6[0]]),
    CLAIM_T6_COMPLETENESS: (
        True, (), ("search", "biclique"), lambda ctx, entry: [ctx.theorem6[1]]
    ),
    CLAIM_COROLLARY: (True, ("betas", "trials"), (), _corollary_reports),
    CLAIM_LEMMA2: (True, (), (), lambda ctx, entry: [check_lemma2(ctx)]),
}


def _run_instance(ctx: LabInstance, entry: dict) -> list[LabReport]:
    reports: list[LabReport] = []
    for claim in entry.get("claims", []):
        needs_bipartite, _, shared, make_reports = _CLAIMS[claim]
        try:
            if needs_bipartite and not isinstance(ctx.graph, BipartiteGraph):
                raise ValueError(f"claim {claim} needs a bipartite instance")
            for name in shared:  # built outside the check's call
                getattr(ctx, name)
            reports.extend(make_reports(ctx, entry))
        except ValueError as exc:  # an expected refusal fails this claim, not the suite
            error = {"error": f"{type(exc).__name__}: {exc}"}
            stats = {"enumerated": 0, "truncated": False, "elapsed_ms": 0.0}
            reports.append(LabReport(claim, ctx.instance, ERROR, error, stats))
    return reports


def run_suite(config: dict | None = None, threads: int = 1) -> list[LabReport]:
    """Run every requested claim on every instance in the config.

    Reports follow config order.  A claim an instance refuses with a
    ValueError (over a cap, disconnected, not bipartite) becomes an 'error'
    report; any other exception leaves run_suite.  An empty config yields an empty list.  A
    malformed config raises ValueError before any instance runs.  ``threads``
    is accepted for compatibility and ignored: the checks are pure-Python
    CPU work, which worker threads only slowed down.
    """
    if config is None:
        config = default_suite_config()
    validate_suite(config)
    caps = {**_CAPS, **config.get("caps", {})}
    # Every family is built, so an over-cap one refused, before any claim
    # runs; each instance's context lives only while its own claims run.
    tasks = [
        ({"family": entry["family"], "params": params, "seed": seed}, obj, entry)
        for entry in config.get("instances", [])
        for params, seed, obj in _FAMILIES[entry["family"]][1](entry, caps["max_edges"])
    ]
    return [
        report for desc, obj, entry in tasks
        for report in _run_instance(
            LabInstance(obj, caps["max_edges"], caps["max_path_edges"], desc), entry
        )
    ]


def summarize(reports: list[LabReport]) -> list[dict]:
    """Aggregate verdict counts per (claim, family), ordered by first appearance."""
    rows: dict[tuple[str, str], dict] = {}
    for rep in reports:
        key = (rep.claim, rep.instance["family"])
        row = rows.get(key)
        if row is None:
            row = rows[key] = dict.fromkeys(SUMMARY_COLUMNS, 0)
            row["claim"], row["family"] = key
        row[rep.verdict] += 1
        row["total"] += 1
    return list(rows.values())


def json_text(value) -> str:
    """The one JSON text form of every file and report this package writes:
    one line with sorted keys and ``json``'s default separators, ended by one
    newline.  Without ``indent``, ``json.dumps`` uses the C encoder; with it,
    the pure-Python one, several times slower on ``reports.json``."""
    return json.dumps(value, sort_keys=True) + "\n"


def write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: write a temporary file in
    the same directory, then ``os.replace`` it into place.  A write that fails
    leaves the old file's bytes and removes the temporary file.  The file is
    created as ``open`` creates it, so it gets the usual permissions."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def compare_goldens(reports: list[LabReport], goldens: Path) -> tuple[int, list[str], list[str]]:
    """Check ``reports`` against the golden files in ``goldens``, one
    ``<claim>.json`` per claim mapping ``instance_key`` to a verdict.

    Returns (pinned, regressions, unreadable): the number of verdicts newly
    recorded, one message per verdict that differs from its golden, and the
    claims whose golden file is not a JSON object.  A readable golden file
    that gained verdicts is rewritten with ``write_atomic``; an unreadable one
    is left as it is and its claim is not compared.
    """
    goldens.mkdir(parents=True, exist_ok=True)
    regressions: list[str] = []
    unreadable: list[str] = []
    pinned = 0
    by_claim: dict[str, list[LabReport]] = {}
    for rep in reports:
        by_claim.setdefault(rep.claim, []).append(rep)
    for claim, claim_reports in by_claim.items():
        golden_path = goldens / f"{claim}.json"
        recorded: dict[str, str] = {}
        if golden_path.exists():
            try:
                recorded = json.loads(golden_path.read_text(encoding="utf-8"))
                if not isinstance(recorded, dict):
                    raise ValueError("golden file must hold an object")
            except ValueError:
                unreadable.append(claim)
                continue
        changed = False
        for rep in claim_reports:
            key = instance_key(rep.instance)
            if key not in recorded:
                recorded[key] = rep.verdict
                pinned += 1
                changed = True
            elif recorded[key] != rep.verdict:
                regressions.append(
                    f"{claim}: {key} recorded {recorded[key]!r}, got {rep.verdict!r}"
                )
        if changed:
            write_atomic(golden_path, json_text(recorded))
    return pinned, regressions, unreadable
