"""Exhaustive adjudication of structural claims about contractions on small instances.

Each check enumerates everything relevant on one instance (valid weak
contractions, paths, bicliques) with independent machinery and reports
holds / counterexample / vacuous, where "vacuous" means the claim's
hypothesis matched nothing.  A counterexample report always carries enough
witness data to re-verify it from scratch.  All checks are deterministic
functions of their inputs, so suite reports can be pinned and diffed.

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
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from hashlib import sha256

from .graphs import (
    Biclique,
    BipartiteGraph,
    DisconnectedGraphError,
    Graph,
    ScaledDistances,
    complete_bipartite,
    cycle_graph,
    generate_random_bipartite,
    is_connected,
    parse_graph,
    path_graph,
)
from .contraction import Tolerance, ToleranceCheck
from .solvers import (
    CapExceededError,
    DEFAULT_EDGE_CAP,
    DEFAULT_SIDE_CAP,
    enumerate_valid_weak_contractions,
    max_balanced_biclique_exact,
    max_edge_biclique_exact,
    max_weak_contraction_exact,
)
from .reductions import (
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

ALL_CLAIMS = (
    CLAIM_PATH,
    CLAIM_PATH_SHORTEST,
    CLAIM_BICLIQUE,
    CLAIM_T6_SOUNDNESS,
    CLAIM_T6_COMPLETENESS,
    CLAIM_COROLLARY,
    CLAIM_LEMMA2,
)

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
VACUOUS = "vacuous"
ERROR = "error"


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
# Path machinery (unit weights).
# ----------------------------------------------------------------------------


def _edge_id_lookup(g: Graph) -> dict[tuple[int, int], int]:
    return {(u, v): eid for eid, (u, v, _) in enumerate(g.edges)}


def _path_edge_ids(path: tuple[int, ...], lookup: dict[tuple[int, int], int]) -> tuple[int, ...]:
    out = []
    for a, b in zip(path, path[1:]):
        out.append(lookup[(a, b) if a < b else (b, a)])
    return tuple(out)


def _all_simple_paths(g: Graph, max_edges: int) -> tuple[list[tuple[int, ...]], bool]:
    """Every simple path with 1..max_edges edges, one orientation per path.

    Paths are kept when the first endpoint is smaller than the last; order is
    by start vertex, then depth-first with ascending neighbors.  The second
    return value flags that some path hit the cap while still extendable.
    """
    n = g.vertex_count
    adj = g.adjacency
    paths: list[tuple[int, ...]] = []
    truncated = False

    def extend(path: list[int], visited: set[int]) -> None:
        nonlocal truncated
        if len(path) - 1 == max_edges:
            if any(v not in visited for v, _, _ in adj[path[-1]]):
                truncated = True
            return
        for v, _, _ in adj[path[-1]]:
            if v in visited:
                continue
            path.append(v)
            visited.add(v)
            if path[0] < path[-1]:
                paths.append(tuple(path))
            extend(path, visited)
            visited.remove(v)
            path.pop()

    for s in range(n):
        extend([s], {s})
    return paths, truncated


def _all_shortest_paths(g: Graph) -> list[tuple[int, ...]]:
    """Every geodesic between every vertex pair (u < v), unit weights."""
    n = g.vertex_count
    adj = g.adjacency
    dist = ScaledDistances(g).all_pairs()
    paths: list[tuple[int, ...]] = []

    def extend(path: list[int], target: int) -> None:
        x = path[-1]
        if x == target:
            paths.append(tuple(path))
            return
        for y, _, _ in adj[x]:
            if dist[y][target] == dist[x][target] - 1:
                path.append(y)
                extend(path, target)
                path.pop()

    for u in range(n):
        for v in range(u + 1, n):
            if dist[u][v] > 0:
                extend([u], v)
    return paths


def _first_disjoint_contracted_pair(
    edge_ids: tuple[int, ...], cset: frozenset[int]
) -> tuple[int, int] | None:
    """First pair of positions at distance >= 2 whose edges are both contracted.

    On a simple path, edges two or more positions apart share no vertex.
    """
    positions = [i for i, e in enumerate(edge_ids) if e in cset]
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[b] >= positions[a] + 2:
                return positions[a], positions[b]
    return None


def check_path_lemma(
    g: Graph,
    shortest_only: bool,
    *,
    cap_edges: int = DEFAULT_EDGE_CAP,
    max_path_edges: int | None = None,
    instance: dict | None = None,
) -> LabReport:
    """Does every valid weak contraction at (1,1) that contains two
    vertex-disjoint edges of a path contain the whole path?

    Candidate sets are scanned smallest-first (then lexicographically), paths
    in enumeration order, so the reported counterexample is the size-minimal
    one.  Simple-path enumeration is capped at diameter + 2 edges by default;
    hitting the cap sets the ``truncated`` flag.

    With ``shortest_only`` the claim can fail only through the merged-pair
    exemption: the two contracted edges shorten the geodesic by 2 > beta = 1,
    so its endpoints lie in one supernode of every set the hypothesis fires
    on (a proper spanning set, say, on ``K_{2,3}`` minus an edge).
    """
    t0 = time.perf_counter()
    if not g.has_unit_weights():
        raise ValueError("path claim checks require unit weights")
    if not is_connected(g):
        raise DisconnectedGraphError("path claim checks require a connected graph")
    claim = CLAIM_PATH_SHORTEST if shortest_only else CLAIM_PATH
    inst = _adhoc_instance(instance)

    valid_sets = sorted(
        enumerate_valid_weak_contractions(g, Tolerance(Fraction(1), Fraction(1)), cap_edges),
        key=lambda s: (len(s), s),
    )
    truncated = False
    if shortest_only:
        paths = _all_shortest_paths(g)
    else:
        if max_path_edges is None:
            diameter = max((max(row) for row in ScaledDistances(g).all_pairs()), default=0)
            max_path_edges = diameter + 2
        paths, truncated = _all_simple_paths(g, max_path_edges)
    lookup = _edge_id_lookup(g)
    path_edges = [(p, _path_edge_ids(p, lookup)) for p in paths if len(p) >= 4]

    matched = False
    for cand in valid_sets:
        if len(cand) < 2:
            continue
        cset = frozenset(cand)
        for path, eids in path_edges:
            pair = _first_disjoint_contracted_pair(eids, cset)
            if pair is None:
                continue
            matched = True
            if not all(e in cset for e in eids):
                i, j = pair
                witness = {
                    "contraction": list(cand),
                    "path": list(path),
                    "path_edge_ids": list(eids),
                    "disjoint_positions": [i, j],
                    "disjoint_edge_ids": [eids[i], eids[j]],
                    "missing_edge_ids": [e for e in eids if e not in cset],
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


def check_biclique_lemma(
    g: BipartiteGraph,
    *,
    cap_edges: int = DEFAULT_EDGE_CAP,
    instance: dict | None = None,
) -> LabReport:
    """Does every valid weak contraction of the unit gadget with more than one
    edge contract a complete biclique of the core?

    Enumerates valid sets in lexicographic order and stops at the first one
    whose edges do not form a core biclique.  Vacuous when no valid set has
    more than one edge.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(instance)
    bg = build_gadget(g, 1)
    enumerated = 0
    matched = False
    for cand in enumerate_valid_weak_contractions(
        bg.combined, Tolerance(Fraction(1), Fraction(1)), cap_edges
    ):
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


def check_theorem6(
    g: BipartiteGraph,
    *,
    cap_edges: int = DEFAULT_EDGE_CAP,
    side_cap: int = DEFAULT_SIDE_CAP,
    instance: dict | None = None,
    biclique_report: LabReport | None = None,
) -> tuple[LabReport, LabReport]:
    """Adjudicate both directions of the gadget reduction on one instance.

    Soundness: whenever the biclique claim holds (or is vacuous) here, the
    maximum weak contraction of the gadget has at most max(1, MEB(gadget))
    edges; vacuous when the biclique claim already failed.  Completeness:
    contracting a maximum-edge biclique of the gadget verifies as a valid
    weak contraction; the verifier's verdict is recorded either way and the
    witness carries everything needed to re-check it.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(instance)
    bg = build_gadget(g, 1)
    meb_core = max_edge_biclique_exact(g, side_cap)
    view, _, _ = bg.bipartition
    meb_gadget = max_edge_biclique_exact(view, side_cap)
    optimum = max_weak_contraction_exact(
        bg.combined, Tolerance(Fraction(1), Fraction(1)), cap_edges
    )
    lemma = biclique_report
    if lemma is None:
        lemma = check_biclique_lemma(g, cap_edges=cap_edges, instance=instance)

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
        "biclique": {
            "left": list(meb_gadget.witness.left),
            "right": list(meb_gadget.witness.right),
        },
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


def check_corollary_scaling(
    g: BipartiteGraph,
    beta,
    trials: int,
    seed: int,
    *,
    instance: dict | None = None,
) -> LabReport:
    """Sampled verdict equality between the unit gadget at (1,1) and the
    weight-b gadget at (1,b).

    Draws ``trials`` uniform edge subsets of the gadget and compares the weak
    verifier on both sides; any disagreement is a counterexample.  trials = 0
    is vacuous.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(instance)
    b = Fraction(beta)
    if b <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if trials == 0:
        return LabReport(CLAIM_COROLLARY, inst, VACUOUS, None, _stats(0, False, t0))
    unit = build_gadget(g, 1)
    scaled = build_gadget(g, b)
    check_unit = ToleranceCheck(unit.combined, Tolerance(Fraction(1), Fraction(1)))
    check_scaled = ToleranceCheck(scaled.combined, Tolerance(Fraction(1), b))
    m = unit.combined.edge_count
    rng = random.Random(seed)
    for trial in range(trials):
        mask = rng.getrandbits(m) if m else 0
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


def check_lemma2(
    g: BipartiteGraph,
    *,
    side_cap: int = DEFAULT_SIDE_CAP,
    instance: dict | None = None,
) -> LabReport:
    """Lift/project consistency between a graph and its tensor square.

    Lifts every maximal biclique and verifies the image is complete in the
    tensor; finds a maximum balanced biclique of the tensor and verifies its
    projection is a complete factor biclique.  Records the balanced size t,
    t*t, and the projected edge count so the two ways of counting can be
    compared downstream.  Vacuous when the graph has no edges.
    """
    t0 = time.perf_counter()
    inst = _adhoc_instance(instance)
    if g.left_count * g.right_count > side_cap:
        raise CapExceededError(
            f"tensor side {g.left_count * g.right_count} exceeds the enumeration cap ({side_cap})"
        )
    tensor = build_tensor_square(g)
    maximal = _maximal_factor_bicliques(g)
    enumerated = 0
    for b in maximal:
        enumerated += 1
        try:
            lift_biclique(g, b)
        except ValueError as exc:
            witness = {
                "factor_biclique": {"left": list(b.left), "right": list(b.right)},
                "failure": "lift-not-complete",
                "detail": str(exc),
            }
            return LabReport(
                CLAIM_LEMMA2, inst, COUNTEREXAMPLE, witness, _stats(enumerated, False, t0)
            )

    mbb = max_balanced_biclique_exact(tensor.graph, side_cap)
    if mbb.objective > 0:
        try:
            projected = project_biclique(tensor, mbb.witness)
        except ValueError as exc:
            witness = {
                "tensor_biclique": {
                    "left": list(mbb.witness.left),
                    "right": list(mbb.witness.right),
                },
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
            "projected": {"left": list(projected.left), "right": list(projected.right)},
        }
        return LabReport(CLAIM_LEMMA2, inst, HOLDS, witness, _stats(enumerated, False, t0))
    if not maximal:
        return LabReport(CLAIM_LEMMA2, inst, VACUOUS, None, _stats(enumerated, False, t0))
    return LabReport(CLAIM_LEMMA2, inst, HOLDS, None, _stats(enumerated, False, t0))


# ----------------------------------------------------------------------------
# Instance families and the suite runner.
# ----------------------------------------------------------------------------


def enumerate_connected_bipartite(
    left: int, right: int, *, up_to_iso: bool = True
) -> list[BipartiteGraph]:
    """All connected bipartite graphs with the given side sizes.

    With ``up_to_iso`` (the default) one representative is kept per
    isomorphism class under side-respecting relabelings, plus the side swap
    when the sides have equal size.  Order follows ascending edge bitmask, so
    the list is deterministic.
    """
    total = left * right
    cells = [(l, r) for l in range(left) for r in range(right)]
    out: list[BipartiteGraph] = []
    seen: set[tuple[int, ...]] = set()
    # Relabel only the smaller side: a graph up to relabelling of the larger
    # side is the multiset of the larger side's neighbour bitmasks, so the
    # class key is the least sorted tuple of them over those relabellings
    # (taken from both sides when they are equal, which covers the swap).
    small = min(left, right)
    relabel = [
        [sum(1 << p[i] for i in range(small) if (x >> i) & 1) for x in range(1 << small)]
        for p in itertools.permutations(range(small))
    ]
    rmask = (1 << right) - 1

    def rows(mask: int) -> list[int]:
        return [(mask >> (l * right)) & rmask for l in range(left)]

    def cols(mask: int) -> list[int]:
        return [
            sum(((mask >> (l * right + r)) & 1) << l for l in range(left))
            for r in range(right)
        ]

    for mask in range(1 << total):
        if up_to_iso:
            views = []
            if left >= right:
                views.append(rows(mask))
            if left <= right:
                views.append(cols(mask))
            canon = min(tuple(sorted(t[x] for x in view)) for t in relabel for view in views)
            if canon in seen:
                continue
            seen.add(canon)
        # Connectivity is the same across a class, so the first mask met
        # decides for all of it.
        b = BipartiteGraph(left, right, tuple(cells[i] for i in range(total) if (mask >> i) & 1))
        if is_connected(b.to_graph()):
            out.append(b)
    return out


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


# Keys each instance family requires, and the JSON types they must have.
_FAMILY_KEYS = {
    "path": ("n",),
    "cycle": ("n",),
    "complete-bipartite": ("left", "right"),
    "all-bipartite": ("left", "right"),
    "random-bipartite": ("left", "right", "prob", "seed"),
    "file": ("path",),
}
_KEY_TYPES = {
    "n": int,
    "left": int,
    "right": int,
    "seed": int,
    "prob": (int, float, str),
    "path": str,
}


def validate_suite(config) -> None:
    """Raise ValueError naming the first malformed part of a suite config.

    The top level must be an object, ``caps`` an object of integers and
    ``instances`` a list of objects; each instance needs a known family, that
    family's keys with values of the right type, and a list of known claim
    ids.
    """
    if not isinstance(config, dict):
        raise ValueError("suite: the top level must be an object")
    caps = config.get("caps", {})
    if not isinstance(caps, dict) or not all(isinstance(c, int) for c in caps.values()):
        raise ValueError("suite: caps must be an object of integers")
    instances = config.get("instances", [])
    if not isinstance(instances, list):
        raise ValueError("suite: instances must be a list")
    for i, entry in enumerate(instances):
        where = f"suite: instances[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        family = entry.get("family")
        if not isinstance(family, str) or family not in _FAMILY_KEYS:
            raise ValueError(f"{where}: unknown instance family {family!r}")
        for key in _FAMILY_KEYS[family]:
            if key not in entry:
                raise ValueError(f"{where}: family {family!r} needs key {key!r}")
            if not isinstance(entry[key], _KEY_TYPES[key]):
                raise ValueError(f"{where}.{key}: unexpected value {entry[key]!r}")
        claims = entry.get("claims", [])
        if not isinstance(claims, list):
            raise ValueError(f"{where}.claims must be a list")
        for claim in claims:
            if claim not in ALL_CLAIMS:
                raise ValueError(f"{where}: unknown claim id {claim!r}")


def _expand_instances(config: dict):
    """Yield (instance descriptor, graph object, claims, extras) tuples from a
    config that passed validate_suite."""
    for entry in config.get("instances", []):
        family = entry["family"]
        claims = list(entry.get("claims", []))
        if family == "path":
            n = entry["n"]
            desc = {"family": "path", "params": {"n": n}, "seed": None}
            yield desc, path_graph(n), claims, entry
        elif family == "cycle":
            n = entry["n"]
            desc = {"family": "cycle", "params": {"n": n}, "seed": None}
            yield desc, cycle_graph(n), claims, entry
        elif family == "complete-bipartite":
            l, r = entry["left"], entry["right"]
            desc = {"family": "complete-bipartite", "params": {"left": l, "right": r}, "seed": None}
            yield desc, complete_bipartite(l, r), claims, entry
        elif family == "all-bipartite":
            l, r = entry["left"], entry["right"]
            for idx, b in enumerate(enumerate_connected_bipartite(l, r)):
                desc = {
                    "family": "all-bipartite",
                    "params": {"left": l, "right": r, "index": idx},
                    "seed": None,
                }
                yield desc, b, claims, entry
        elif family == "random-bipartite":
            l, r = entry["left"], entry["right"]
            prob = entry["prob"]
            seed = entry["seed"]
            desc = {
                "family": "random-bipartite",
                "params": {"left": l, "right": r, "prob": str(Fraction(prob))},
                "seed": seed,
            }
            yield desc, generate_random_bipartite(l, r, Fraction(prob), seed), claims, entry
        else:  # "file"
            path = entry["path"]
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            digest = sha256(text.encode("utf-8")).hexdigest()[:16]
            desc = {"family": "file", "params": {"sha256": digest}, "seed": None}
            yield desc, parse_graph(text), claims, entry


def _as_graph(obj) -> Graph:
    return obj.to_graph() if isinstance(obj, BipartiteGraph) else obj


def _run_instance(desc: dict, obj, claims: list[str], entry: dict, caps: dict) -> list[LabReport]:
    cap_edges = caps.get("max_edges", DEFAULT_EDGE_CAP)
    max_path = caps.get("max_path_edges")
    reports: list[LabReport] = []
    theorem6: tuple[LabReport, LabReport] | None = None
    biclique_report: LabReport | None = None

    for claim in claims:
        try:
            if claim in (CLAIM_PATH, CLAIM_PATH_SHORTEST):
                reports.append(
                    check_path_lemma(
                        _as_graph(obj),
                        shortest_only=(claim == CLAIM_PATH_SHORTEST),
                        cap_edges=cap_edges,
                        max_path_edges=max_path,
                        instance=desc,
                    )
                )
                continue
            if not isinstance(obj, BipartiteGraph):
                raise ValueError(f"claim {claim} needs a bipartite instance")
            if claim == CLAIM_BICLIQUE:
                if biclique_report is None:
                    biclique_report = check_biclique_lemma(
                        obj, cap_edges=cap_edges, instance=desc
                    )
                reports.append(biclique_report)
            elif claim in (CLAIM_T6_SOUNDNESS, CLAIM_T6_COMPLETENESS):
                if theorem6 is None:
                    if biclique_report is None:
                        biclique_report = check_biclique_lemma(
                            obj, cap_edges=cap_edges, instance=desc
                        )
                    theorem6 = check_theorem6(
                        obj,
                        cap_edges=cap_edges,
                        instance=desc,
                        biclique_report=biclique_report,
                    )
                reports.append(theorem6[0] if claim == CLAIM_T6_SOUNDNESS else theorem6[1])
            elif claim == CLAIM_COROLLARY:
                trials = entry.get("trials", 25)
                for beta in entry.get("betas", ["1/2", "1", "3"]):
                    desc_b = {
                        "family": desc["family"],
                        "params": dict(desc["params"], beta=str(Fraction(beta))),
                        "seed": desc.get("seed"),
                    }
                    reports.append(
                        check_corollary_scaling(
                            obj,
                            Fraction(beta),
                            trials,
                            seed=desc.get("seed") or 0,
                            instance=desc_b,
                        )
                    )
            elif claim == CLAIM_LEMMA2:
                reports.append(check_lemma2(obj, instance=desc))
        except Exception as exc:  # per-instance failures must not abort the suite
            reports.append(
                LabReport(
                    claim,
                    desc,
                    ERROR,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    {"enumerated": 0, "truncated": False, "elapsed_ms": 0.0},
                )
            )
    return reports


def run_suite(config: dict | None = None, threads: int = 1) -> list[LabReport]:
    """Run every requested claim on every instance in the config.

    Reports follow config order, and per-instance errors become 'error'
    reports instead of aborting.  An empty config yields an empty list.  A
    malformed config raises ValueError before any instance runs.  ``threads``
    is accepted for compatibility and ignored: the checks are pure-Python
    CPU work, which worker threads only slowed down.
    """
    if config is None:
        config = default_suite_config()
    validate_suite(config)
    caps = config.get("caps", {})
    tasks = list(_expand_instances(config))
    return [report for task in tasks for report in _run_instance(*task, caps)]


def summarize(reports: list[LabReport]) -> list[dict]:
    """Aggregate verdict counts per (claim, family), ordered by first appearance."""
    rows: dict[tuple[str, str], dict] = {}
    for rep in reports:
        key = (rep.claim, rep.instance["family"])
        row = rows.setdefault(
            key,
            {
                "claim": key[0],
                "family": key[1],
                HOLDS: 0,
                COUNTEREXAMPLE: 0,
                VACUOUS: 0,
                ERROR: 0,
                "total": 0,
            },
        )
        row[rep.verdict] += 1
        row["total"] += 1
    return list(rows.values())
