"""lemma lab: claim checks, counterexample re-verification, suite determinism."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

import contractlab as cl
from contractlab import (
    BipartiteGraph,
    Graph,
    LabInstance,
    Tolerance,
    check_biclique_lemma,
    check_corollary_scaling,
    check_lemma2,
    check_path_lemma,
    check_theorem6,
    default_suite_config,
    enumerate_connected_bipartite,
    instance_key,
    is_weak_contraction,
    run_suite,
    summarize,
)
from contractlab.lab import (
    CLAIM_BICLIQUE,
    CLAIM_COROLLARY,
    CLAIM_LEMMA2,
    CLAIM_PATH,
    CLAIM_PATH_SHORTEST,
    CLAIM_T6_COMPLETENESS,
    CLAIM_T6_SOUNDNESS,
    COUNTEREXAMPLE,
    ERROR,
    HOLDS,
    VACUOUS,
    _all_shortest_paths,
    _all_simple_paths,
    _first_disjoint_contracted_pair,
    compare_goldens,
)

from contractlab import solvers

import naive
from builders import random_connected_graph

T11 = Tolerance(1, 1)
THREE_PATH = BipartiteGraph(2, 1, ((0, 0), (1, 0)))


def _edge_exists(g: Graph, a: int, b: int) -> bool:
    key = (min(a, b), max(a, b))
    return any((u, v) == key for u, v, _ in g.edges)


def reverify_path_counterexample(g: Graph, witness: dict) -> None:
    cand = witness["contraction"]
    path = witness["path"]
    assert is_weak_contraction(g, cand, T11)
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert _edge_exists(g, a, b)
    e1, e2 = witness["disjoint_edge_ids"]
    assert e1 in cand and e2 in cand
    u1, v1 = g.endpoints(e1)
    u2, v2 = g.endpoints(e2)
    assert {u1, v1}.isdisjoint({u2, v2})
    assert witness["missing_edge_ids"]
    assert all(e not in cand for e in witness["missing_edge_ids"])


# ---------------------------------------------------------------------------
# path lemma
# ---------------------------------------------------------------------------


def test_path_graphs_are_vacuous_either_flag():
    # no path graph admits a valid weak contraction with two vertex-disjoint
    # edges, so the hypothesis never fires
    for n in range(2, 7):
        for flag in (False, True):
            rep = check_path_lemma(LabInstance(cl.path_graph(n)), shortest_only=flag)
            assert rep.verdict == VACUOUS, (n, flag)


def test_four_cycle_all_paths_counterexample_is_opposite_pair():
    g = cl.cycle_graph(4)
    rep = check_path_lemma(LabInstance(g), shortest_only=False)
    assert rep.verdict == COUNTEREXAMPLE
    w = rep.witness
    # the pinned witness: contraction = opposite edges, path = 3-edge path
    assert w["contraction"] == [0, 3]
    assert len(w["path"]) == 4
    reverify_path_counterexample(g, w)


def test_four_cycle_shortest_only_vacuous():
    rep = check_path_lemma(LabInstance(cl.cycle_graph(4)), shortest_only=True)
    assert rep.verdict in (HOLDS, VACUOUS)
    assert rep.verdict == VACUOUS  # geodesics have <= 2 edges here


def test_path_lemma_claim_ids():
    assert check_path_lemma(LabInstance(cl.path_graph(3)), False).claim == CLAIM_PATH
    assert check_path_lemma(LabInstance(cl.path_graph(3)), True).claim == CLAIM_PATH_SHORTEST


def test_first_disjoint_contracted_pair_matches_pair_scan():
    # the closed form against the first (a, b) of the double scan over
    # contracted positions, on every subset of a 6-edge path
    eids = tuple(range(10, 16))
    for mask in range(1 << len(eids)):
        cset = frozenset(e for i, e in enumerate(eids) if mask >> i & 1)
        positions = [i for i, e in enumerate(eids) if e in cset]
        expected = next(((a, b) for a in positions for b in positions if b >= a + 2), None)
        cmask = sum(1 << e for e in cset)
        assert _first_disjoint_contracted_pair(eids, cmask) == expected


def test_path_walkers_carry_edge_ids():
    # both walkers list the paths of 3 or more edges, oriented first < last,
    # in lexicographic order of their vertex tuples (by start vertex, then
    # depth-first with ascending neighbors; geodesics by endpoint pair first),
    # each with the ids of its edges in path order
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 8), unit=True)
        edge_id = {frozenset(e[:2]): i for i, e in enumerate(g.edges)}
        max_edges = rng.randint(1, 6)
        simple, truncated = _all_simple_paths(g, max_edges)
        shortest = _all_shortest_paths(g)
        for vertices, eids in simple + shortest:
            assert eids == tuple(edge_id[frozenset(ab)] for ab in zip(vertices, vertices[1:]))
        paths = naive.naive_simple_paths(g)
        assert [p for p, _ in simple] == sorted(
            p for p in paths if 3 <= len(p) - 1 <= max_edges and p[0] < p[-1]
        )
        # some path hit the cap still extendable: a longer simple path exists
        assert truncated == any(len(p) - 1 > max_edges for p in paths)
        assert [p for p, _ in shortest] == sorted(
            (p for p in naive.naive_geodesics(g) if len(p) >= 4), key=lambda p: (p[0], p[-1], p)
        )


def test_path_lemma_requires_unit_weights_and_connectivity():
    with pytest.raises(ValueError, match="unit weights"):
        check_path_lemma(LabInstance(Graph(2, ((0, 1, Fraction(1, 2)),))), False)
    with pytest.raises(cl.DisconnectedGraphError):
        check_path_lemma(LabInstance(Graph(3, ((0, 1),))), False)


def test_path_truncation_flag():
    g = cl.cycle_graph(6)
    rep = check_path_lemma(LabInstance(g, max_path_edges=2), shortest_only=False)
    assert rep.stats["truncated"] is True
    full = check_path_lemma(LabInstance(g), shortest_only=False)
    assert full.stats["truncated"] is False  # diameter+2 covers every 6-cycle path


def _without_elapsed(rep) -> dict:
    payload = rep.to_json_dict()
    payload["stats"] = {k: v for k, v in payload["stats"].items() if k != "elapsed_ms"}
    return payload


def test_path_claims_share_one_enumeration(monkeypatch):
    # both path claims of an instance read one sorted tuple of valid sets
    calls = [0]
    enumerate_sets = cl.lab.enumerate_valid_weak_contractions

    def counted(*args, **kwargs):
        calls[0] += 1
        return enumerate_sets(*args, **kwargs)

    monkeypatch.setattr(cl.lab, "enumerate_valid_weak_contractions", counted)
    config = default_suite_config()
    paths = [e for e in config["instances"] if e["family"] in ("path", "cycle")]
    assert len(paths) == 4 and all(len(e["claims"]) == 2 for e in paths)
    run_suite({"instances": paths})
    assert calls[0] == 4
    calls[0] = 0
    run_suite(config)
    assert calls[0] == 12  # 4 path instances + 8 biclique-lemma gadgets


def test_theorem6_walks_the_partitions_biclique_lemma_evaluated():
    # on a tree-core gadget (a tree, so the weak optimum is walked, not in
    # closed form) a complete enumeration leaves the weak optimum no
    # partition to evaluate, and the optimum still counts a fresh solve's nodes
    core = next(b for b in enumerate_connected_bipartite(2, 6) if b.edge_count == 7)
    ctx = LabInstance(core)
    gadget = ctx.gadget
    assert gadget.combined.edge_count == gadget.combined.vertex_count - 1
    lemma = check_biclique_lemma(ctx)
    assert lemma.verdict == VACUOUS and lemma.stats["enumerated"] > 1
    seen = len(ctx.search.seen)
    soundness, _ = check_theorem6(ctx)
    assert len(ctx.search.seen) == seen
    fresh = cl.max_weak_contraction_exact(gadget.combined, T11)
    assert soundness.stats["enumerated"] == fresh.explored
    assert soundness.witness["optimum_witness"] == list(fresh.witness)


def test_run_suite_builds_one_search_per_instance(monkeypatch):
    # each gadget instance builds one weak search for both gadget claims,
    # and each path instance one for its enumeration; a closed-form optimum
    # builds none
    built = []

    class Counted(solvers._Search):
        def __init__(self, check, weak):
            built.append(weak)
            super().__init__(check, weak)

    monkeypatch.setattr(solvers, "_Search", Counted)
    reports = run_suite()
    paths = sum(r.claim == CLAIM_PATH for r in reports)
    gadgets = sum(r.claim == CLAIM_BICLIQUE for r in reports)
    assert (paths, gadgets) == (4, 8)
    assert built == [True] * 12


def test_path_memo_matches_fresh_calls():
    graphs = [cl.cycle_graph(4), THREE_PATH.to_graph(), cl.complete_bipartite(2, 3).to_graph()]
    fresh = []
    for g in graphs:
        for flag in (False, True):
            fresh.append(_without_elapsed(check_path_lemma(LabInstance(g), flag)))
    for _ in range(2):
        in_turn = [
            _without_elapsed(check_path_lemma(LabInstance(g), flag))
            for g in graphs
            for flag in (False, True)
        ]
        assert in_turn == fresh
    # a smaller cap is a different key: it still refuses the graph
    g = graphs[-1]
    check_path_lemma(LabInstance(g, cap_edges=g.edge_count), False)
    with pytest.raises(cl.CapExceededError):
        check_path_lemma(LabInstance(g, cap_edges=g.edge_count - 1), True)


def test_shared_inputs_give_the_reports_of_fresh_calls():
    # one context read by both path claims, or by both gadget claims, in
    # either order, gives the reports each claim makes on a fresh context
    for g in (cl.cycle_graph(4), THREE_PATH.to_graph(), cl.complete_bipartite(2, 3).to_graph()):
        fresh = [_without_elapsed(check_path_lemma(LabInstance(g), flag)) for flag in (False, True)]
        for order in ((False, True), (True, False)):
            ctx = LabInstance(g)
            shared = {flag: _without_elapsed(check_path_lemma(ctx, flag)) for flag in order}
            assert [shared[False], shared[True]] == fresh
    # both gadget checks walk the context's one weak search, whichever walks first
    tree_core = next(b for b in enumerate_connected_bipartite(2, 6) if b.edge_count == 7)
    for b in (cl.complete_bipartite(2, 2), THREE_PATH, cl.complete_bipartite(2, 3), tree_core):
        fresh = [_without_elapsed(check_biclique_lemma(LabInstance(b)))]
        fresh += [_without_elapsed(r) for r in check_theorem6(LabInstance(b))]
        ctx = LabInstance(b)
        lemma_first = [check_biclique_lemma(ctx), *check_theorem6(ctx)]
        ctx = LabInstance(b)
        soundness, completeness = check_theorem6(ctx)
        theorem_first = [check_biclique_lemma(ctx), soundness, completeness]
        for shared in (lemma_first, theorem_first):
            assert [_without_elapsed(r) for r in shared] == fresh
    # the suite's one context per instance gives the reports of fresh ones
    instances = [
        {"family": "cycle", "n": 4, "claims": [CLAIM_PATH_SHORTEST, CLAIM_PATH]},
        {"family": "complete-bipartite", "left": 2, "right": 3,
         "claims": [CLAIM_T6_COMPLETENESS, CLAIM_BICLIQUE, CLAIM_T6_SOUNDNESS]},
    ]
    reports = run_suite({"instances": instances})
    desc = reports[0].instance
    fresh = [check_path_lemma(LabInstance(cl.cycle_graph(4), instance=desc), flag)
             for flag in (True, False)]
    desc = reports[2].instance
    fresh.append(check_theorem6(LabInstance(cl.complete_bipartite(2, 3), instance=desc))[1])
    fresh.append(check_biclique_lemma(LabInstance(cl.complete_bipartite(2, 3), instance=desc)))
    fresh.append(check_theorem6(LabInstance(cl.complete_bipartite(2, 3), instance=desc))[0])
    assert [_without_elapsed(r) for r in reports] == [_without_elapsed(r) for r in fresh]


def test_path_counterexamples_reverify_on_random_bipartite():
    rng = random.Random(6)
    seen = 0
    while seen < 8:
        b = cl.generate_random_bipartite(3, 3, Fraction(1, 2), rng.randrange(10**6))
        g = b.to_graph()
        if not cl.is_connected(g):
            continue
        seen += 1
        rep = check_path_lemma(LabInstance(g), shortest_only=False)
        if rep.verdict == COUNTEREXAMPLE:
            reverify_path_counterexample(g, rep.witness)


# ---------------------------------------------------------------------------
# biclique lemma
# ---------------------------------------------------------------------------


def test_biclique_lemma_single_edge_vacuous():
    rep = check_biclique_lemma(LabInstance(cl.complete_bipartite(1, 1)))
    assert rep.verdict == VACUOUS


def test_biclique_lemma_k22_counterexample_reverifies():
    g = cl.complete_bipartite(2, 2)
    rep = check_biclique_lemma(LabInstance(g))
    assert rep.verdict == COUNTEREXAMPLE
    cand = rep.witness["contraction"]
    bg = cl.build_gadget(g, 1)
    assert is_weak_contraction(bg.combined, cand, T11)
    assert len(cand) > 1
    # independently confirm the edge set is not a complete core biclique
    nv = g.left_count
    kinds = [bg.edge_kind[e] for e in cand]
    if "matching" not in kinds:
        pairs = {
            (bg.combined.edges[e][0], bg.combined.edges[e][1] - nv) for e in cand
        }
        lefts = {p[0] for p in pairs}
        rights = {p[1] for p in pairs}
        assert pairs != {(l, r) for l in lefts for r in rights}


def test_biclique_lemma_refuses_disconnected():
    with pytest.raises(cl.DisconnectedGraphError):
        check_biclique_lemma(LabInstance(BipartiteGraph(2, 2, ((0, 0), (1, 1)))))


def test_biclique_lemma_verdicts_on_trees_vacuous():
    # tree gadgets admit no valid weak contraction with more than one edge
    trees = [
        cl.complete_bipartite(1, 2),
        cl.complete_bipartite(1, 3),
        BipartiteGraph(2, 2, ((0, 0), (1, 0), (1, 1))),  # 4-path
    ]
    for b in trees:
        rep = check_biclique_lemma(LabInstance(b))
        assert rep.verdict == VACUOUS


def test_biclique_lemma_counterexample_on_cyclic_instances():
    # any cyclic core admits the spanning-escape contraction, which merges
    # everything and is never a biclique
    for b in (cl.complete_bipartite(2, 2), cl.complete_bipartite(2, 3)):
        rep = check_biclique_lemma(LabInstance(b))
        assert rep.verdict == COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# theorem-6 directions
# ---------------------------------------------------------------------------


def test_theorem6_single_edge_instance():
    soundness, completeness = check_theorem6(LabInstance(cl.complete_bipartite(1, 1)))
    assert soundness.witness["optimum"] == 1
    assert soundness.witness["meb_gadget"] == 2
    assert soundness.verdict == HOLDS
    # the gadget optimum witness is a star touching a pendant; contracting it
    # is invalid and the recorded verdict must re-verify
    assert completeness.verdict == COUNTEREXAMPLE
    g = cl.build_gadget(cl.complete_bipartite(1, 1), 1)
    ids = completeness.witness["contraction"]
    assert is_weak_contraction(g.combined, ids, T11) == completeness.witness["verifier_verdict"]


def test_theorem6_soundness_never_violated_when_lemma_holds_small():
    for left, right in ((1, 1), (1, 2), (2, 2)):
        for b in enumerate_connected_bipartite(left, right):
            soundness, _ = check_theorem6(LabInstance(b))
            lemma = check_biclique_lemma(LabInstance(b))
            if lemma.verdict in (HOLDS, VACUOUS):
                assert soundness.verdict == HOLDS
            else:
                assert soundness.verdict == VACUOUS


def test_theorem6_completeness_verdicts_reverify():
    rng = random.Random(10)
    seen = 0
    while seen < 6:
        b = cl.generate_random_bipartite(2, 3, Fraction(2, 3), rng.randrange(10**6))
        if not cl.is_connected(b.to_graph()):
            continue
        seen += 1
        _, completeness = check_theorem6(LabInstance(b))
        bg = cl.build_gadget(b, 1)
        ids = completeness.witness["contraction"]
        expected = completeness.witness["verifier_verdict"]
        assert is_weak_contraction(bg.combined, ids, T11) == expected
        assert (completeness.verdict == HOLDS) == expected


# ---------------------------------------------------------------------------
# corollary scaling
# ---------------------------------------------------------------------------


def test_corollary_beta_one_identical():
    rep = check_corollary_scaling(LabInstance(cl.complete_bipartite(2, 2)), 1, trials=30, seed=4)
    assert rep.verdict == HOLDS


def test_corollary_beta_three_holds():
    rep = check_corollary_scaling(LabInstance(THREE_PATH), 3, trials=50, seed=9)
    assert rep.verdict == HOLDS


def test_corollary_zero_trials_vacuous():
    rep = check_corollary_scaling(
        LabInstance(cl.complete_bipartite(2, 2)), Fraction(1, 2), 0, seed=0
    )
    assert rep.verdict == VACUOUS


def test_corollary_rejects_bad_beta():
    with pytest.raises(ValueError, match="beta"):
        check_corollary_scaling(LabInstance(THREE_PATH), 0, trials=1, seed=0)


# random-bipartite 3x3 at prob 1/3, seed 2: four edges, left vertex 2 isolated
DISCONNECTED_CORE = {
    "family": "random-bipartite", "left": 3, "right": 3, "prob": "1/3", "seed": 2
}
GADGET_REFUSAL = "gadget construction requires a connected graph"


def _corollary_on_the_disconnected_core(trials: int, betas: list) -> list:
    entry = dict(DISCONNECTED_CORE, claims=[CLAIM_COROLLARY], betas=betas, trials=trials)
    return [(r.verdict, r.witness) for r in run_suite({"instances": [entry]})]


def test_corollary_on_a_disconnected_core():
    # the unit verifier is built only once a check needs it: with no trial
    # the report stays vacuous, and with no beta there is no report, though
    # the core has no gadget
    core = cl.generate_random_bipartite(3, 3, Fraction(1, 3), 2)
    assert core.to_graph().edge_count == 4 and not cl.is_connected(core.to_graph())
    assert check_corollary_scaling(LabInstance(core), 3, 0, seed=2).verdict == VACUOUS
    assert _corollary_on_the_disconnected_core(0, ["3"]) == [(VACUOUS, None)]
    assert _corollary_on_the_disconnected_core(0, ["1/2", "3"]) == [(VACUOUS, None)] * 2
    assert _corollary_on_the_disconnected_core(5, []) == []
    # with trials the gadget refuses the core: one error report per instance
    with pytest.raises(cl.DisconnectedGraphError, match=f"^{GADGET_REFUSAL}$"):
        check_corollary_scaling(LabInstance(core), 3, 5, seed=2)
    error = {"error": f"DisconnectedGraphError: {GADGET_REFUSAL}"}
    for betas in (["3"], ["1/2", "3"]):
        assert _corollary_on_the_disconnected_core(5, betas) == [(ERROR, error)]
    # a bad beta or trial count is still refused before the gadget is built
    with pytest.raises(ValueError, match="^beta must be positive, got 0$"):
        check_corollary_scaling(LabInstance(core), 0, 5, seed=2)
    with pytest.raises(ValueError, match="^trials must be non-negative$"):
        check_corollary_scaling(LabInstance(core), 3, -1, seed=2)


# ---------------------------------------------------------------------------
# tensor lift/project claim
# ---------------------------------------------------------------------------


def test_lemma2_single_edge_holds():
    rep = check_lemma2(LabInstance(cl.complete_bipartite(1, 1)))
    assert rep.verdict == HOLDS


def test_lemma2_three_path_records_counts():
    rep = check_lemma2(LabInstance(THREE_PATH))
    assert rep.verdict == HOLDS
    w = rep.witness
    assert w["balanced_size"] == 2
    assert w["balanced_squared"] == 4
    assert w["projected_edges"] == 2  # induced count differs from t*t here


def test_lemma2_no_edges_vacuous():
    rep = check_lemma2(LabInstance(BipartiteGraph(2, 2)))
    assert rep.verdict == VACUOUS
    rep = check_lemma2(LabInstance(BipartiteGraph(2, 3, ())))
    assert rep.verdict == VACUOUS and rep.stats["enumerated"] == 0


def test_lemma2_holds_with_t_equal_to_meb_on_all_classes_to_4x4():
    # lemma2-lift holds by construction (check_lemma2): a tensor-square
    # biclique lies inside a product of factor bicliques, so the balanced
    # size t is at most MEB(core), and lifting a maximum biclique gives t >=
    # MEB(core).  On every connected class with sides up to 4 the verdict is
    # holds and the recorded t is MEB(core), at least 1
    classes = 0
    for left in range(1, 5):
        for right in range(left, 5):
            for g in enumerate_connected_bipartite(left, right):
                rep = check_lemma2(LabInstance(g))
                assert rep.verdict == HOLDS
                assert rep.witness["balanced_size"] == cl.max_edge_biclique_exact(g).objective >= 1
                classes += 1
    assert classes == 153


def test_lemma2_random_instances_hold():
    rng = random.Random(20)
    for _ in range(20):
        b = cl.generate_random_bipartite(3, 3, Fraction(1, 2), rng.randrange(10**6))
        rep = check_lemma2(LabInstance(b))
        assert rep.verdict in (HOLDS, VACUOUS)


# ---------------------------------------------------------------------------
# verdict invariance under relabeling
# ---------------------------------------------------------------------------


def test_verdicts_invariant_under_vertex_relabeling():
    rng = random.Random(30)
    for _ in range(6):
        b = cl.generate_random_bipartite(2, 3, Fraction(2, 3), rng.randrange(10**6))
        if not cl.is_connected(b.to_graph()):
            continue
        lp = list(range(b.left_count))
        rp = list(range(b.right_count))
        rng.shuffle(lp)
        rng.shuffle(rp)
        relabeled = naive.relabel_bipartite(b, lp, rp)
        ctx, relabeled_ctx = LabInstance(b), LabInstance(relabeled)
        assert check_biclique_lemma(ctx).verdict == check_biclique_lemma(relabeled_ctx).verdict
        assert check_lemma2(ctx).verdict == check_lemma2(relabeled_ctx).verdict
        g = b.to_graph()
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        gg = naive.relabel_graph(g, perm)
        assert (
            check_path_lemma(LabInstance(g), True).verdict
            == check_path_lemma(LabInstance(gg), True).verdict
        )


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


# Class count and the first 16 hex digits of the sha256 of the rendered
# representatives, in order.
CLASS_TABLE = [
    ((2, 2), 2, "b8ec8711b15dbefe"),
    ((2, 3), 4, "0b74d9ef404322da"),
    ((3, 3), 10, "2567df63cbc72bec"),
    ((2, 4), 6, "9a549f5904a6c735"),
    ((3, 4), 34, "51daa0cbe78b4695"),
    ((2, 6), 12, "8445bfd9a369c08d"),
    ((4, 3), 34, "0c319a15b46ea213"),
    ((6, 2), 12, "6c4a7d156db46f48"),
    ((4, 4), 93, "770985d83f345c5e"),
    ((4, 5), 558, "e6d902d5811b0254"),
    ((5, 4), 558, "4f0fda1479cb4a7e"),
]


@pytest.mark.parametrize(
    "sides,count,digest", CLASS_TABLE, ids=[f"{l}x{r}" for (l, r), _, _ in CLASS_TABLE]
)
def test_enumerate_connected_bipartite_classes(sides, count, digest):
    classes = enumerate_connected_bipartite(*sides)
    assert len(classes) == count
    if sides == (2, 2):  # the 4-path and the 4-cycle
        sizes = sorted(c.edge_count for c in classes)
        assert sizes == [3, 4]
    for c in classes:
        assert cl.is_connected(c.to_graph())
    rendered = "".join(cl.render_graph(c) for c in classes)
    assert hashlib.sha256(rendered.encode()).hexdigest()[:16] == digest


def test_enumerate_connected_bipartite_refuses_over_cap():
    # 2x3 has 6 possible edges: the cap is checked before any class is generated
    with pytest.raises(cl.CapExceededError, match="cap"):
        enumerate_connected_bipartite(2, 3, cap=5)
    assert len(enumerate_connected_bipartite(2, 3, cap=6)) == 4


def test_enumerate_connected_bipartite_matches_mask_sweep():
    # every side pair with at most 12 possible edges, empty sides included:
    # the same classes, representatives and order as a sweep over all edge sets
    for left in range(13):
        for right in range(13):
            if left * right <= 12:
                expected = naive.naive_connected_bipartite_classes(left, right)
                assert enumerate_connected_bipartite(left, right) == expected, (left, right)


def test_enumerate_connected_bipartite_has_expected_members():
    classes = enumerate_connected_bipartite(3, 3)
    assert any(c.edge_count == 9 for c in classes)  # K33
    assert all(cl.is_connected(c.to_graph()) for c in classes)
    # all trees spanning 3+3 have exactly 5 edges
    assert any(c.edge_count == 5 for c in classes)


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def test_run_suite_empty_config():
    assert run_suite({"instances": []}) == []


def test_run_suite_default_counters_pinned():
    reports = run_suite()
    assert len(reports) == 43
    # 423 before weak searches of trees took the forced-merge closure: the
    # five tree-core thm6-soundness reports count fewer walk nodes
    assert sum(r.stats["enumerated"] for r in reports) == 354


def test_run_suite_deterministic_modulo_elapsed():
    config = default_suite_config()
    first = [r.to_json_dict() for r in run_suite(config)]
    second = [r.to_json_dict() for r in run_suite(config)]

    def strip(reports):
        for rep in reports:
            rep = dict(rep)
            rep["stats"] = {
                k: v for k, v in rep["stats"].items() if k != "elapsed_ms"
            }
            yield rep

    assert list(strip(first)) == list(strip(second))


def test_run_suite_thread_counts_agree():
    config = default_suite_config()
    one = run_suite(config, threads=1)
    four = run_suite(config, threads=4)
    assert [r.claim for r in one] == [r.claim for r in four]
    for a, b in zip(one, four):
        assert a.instance == b.instance
        assert a.verdict == b.verdict
        assert a.witness == b.witness
        assert a.stats["enumerated"] == b.stats["enumerated"]


def test_run_suite_default_covers_all_claims():
    reports = run_suite(default_suite_config())
    claims = {r.claim for r in reports}
    assert claims == {
        CLAIM_PATH,
        CLAIM_PATH_SHORTEST,
        CLAIM_BICLIQUE,
        CLAIM_T6_SOUNDNESS,
        CLAIM_T6_COMPLETENESS,
        CLAIM_COROLLARY,
        CLAIM_LEMMA2,
    }
    assert all(r.verdict != ERROR for r in reports)


def test_run_suite_records_errors_without_aborting():
    config = {
        "instances": [
            {
                "family": "random-bipartite",
                "left": 3,
                "right": 3,
                "prob": "1/2",
                "seed": 1,  # disconnected for this seed
                "claims": [CLAIM_BICLIQUE, CLAIM_LEMMA2],
            }
        ]
    }
    reports = run_suite(config)
    assert [r.claim for r in reports] == [CLAIM_BICLIQUE, CLAIM_LEMMA2]
    assert reports[0].verdict == ERROR
    assert "DisconnectedGraphError" in reports[0].witness["error"]
    assert reports[1].verdict in (HOLDS, VACUOUS)


def test_run_suite_refusals_are_error_reports():
    # a gadget claim on a graph that is not bipartite
    reports = run_suite({"instances": [{"family": "path", "n": 4, "claims": [CLAIM_BICLIQUE]}]})
    assert [r.verdict for r in reports] == [ERROR]
    expected = "ValueError: claim biclique-lemma needs a bipartite instance"
    assert reports[0].witness == {"error": expected}
    # P5 has 4 edges, over a cap of 3: both path claims refuse it
    config = {
        "caps": {"max_edges": 3},
        "instances": [{"family": "path", "n": 5, "claims": [CLAIM_PATH, CLAIM_PATH_SHORTEST]}],
    }
    reports = run_suite(config)
    assert [r.claim for r in reports] == [CLAIM_PATH, CLAIM_PATH_SHORTEST]
    for rep in reports:
        assert rep.verdict == ERROR
        assert rep.witness["error"].startswith("CapExceededError: ")


def test_run_suite_raises_unexpected_exceptions(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken check")

    monkeypatch.setattr(cl.lab, "check_lemma2", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        run_suite(default_suite_config())


def test_run_suite_builds_one_gadget_per_instance(monkeypatch):
    calls = [0]
    build = cl.lab.build_gadget

    def counted(*args, **kwargs):
        calls[0] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(cl.lab, "build_gadget", counted)
    run_suite(default_suite_config())
    # 8 gadget instances, plus the corollary's unit gadget and one weight-b
    # gadget for each of its 2 betas
    assert calls[0] == 11


LAB_CHECKS = (
    "check_path_lemma", "check_biclique_lemma", "check_theorem6",
    "check_corollary_scaling", "check_lemma2",
)


def _wrap_checks(monkeypatch, opened, closed=None):
    """Wrap every lab.check_* on the module: ``opened`` is the stack of the
    checks open now, and ``closed`` gets (name, reports) per outermost call."""
    def wrap(name, fn):
        def wrapped(*args, **kwargs):
            opened.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                opened.pop()
            if not opened and closed is not None:
                closed.append((name, result if isinstance(result, tuple) else (result,)))
            return result

        return wrapped

    for name in LAB_CHECKS:
        monkeypatch.setattr(cl.lab, name, wrap(name, getattr(cl.lab, name)))


def test_run_suite_calls_checks_by_their_module_names(monkeypatch):
    # a wrapper set on the module sees exactly one outermost call per report,
    # and the two theorem-6 reports of an instance share one call
    calls = []
    _wrap_checks(monkeypatch, [], calls)
    reports = run_suite(default_suite_config())
    returned = [rep for _, reps in calls for rep in reps]
    assert sorted(map(id, returned)) == sorted(map(id, reports))
    counts = {name: sum(called == name for called, _ in calls) for name in LAB_CHECKS}
    assert counts == {
        "check_path_lemma": 8, "check_biclique_lemma": 8, "check_theorem6": 8,
        "check_corollary_scaling": 2, "check_lemma2": 9,
    }
    assert counts["check_lemma2"] == sum(r.claim == CLAIM_LEMMA2 for r in reports)
    for name, reps in calls:
        if name == "check_theorem6":
            assert [r.claim for r in reps] == [CLAIM_T6_SOUNDNESS, CLAIM_T6_COMPLETENESS]
            assert reps[0].instance is reps[1].instance


def test_run_suite_builds_shared_values_outside_the_check_calls(monkeypatch):
    # the values an instance's claims share are built before the check that
    # reads them is called, so a check's call times its own work alone: the
    # weak searches outside every call, the gadgets too but for
    # corollary-scaling's weight-b ones, and the valid sets too but for the
    # biclique-lemma enumeration of a gadget
    opened = []
    _wrap_checks(monkeypatch, opened)
    stacks = {"weak_search": set(), "build_gadget": set(), "enumerate_valid_weak_contractions": set()}

    def record(name, fn):
        def recorded(*args, **kwargs):
            stacks[name].add(tuple(opened))
            return fn(*args, **kwargs)

        return recorded

    for name in stacks:
        monkeypatch.setattr(cl.lab, name, record(name, getattr(cl.lab, name)))
    run_suite(default_suite_config())
    assert stacks == {
        "weak_search": {()},
        "build_gadget": {(), ("check_corollary_scaling",)},
        "enumerate_valid_weak_contractions": {(), ("check_biclique_lemma",)},
    }


def test_corollary_builds_one_unit_verifier_per_instance(monkeypatch):
    # every beta of a corollary instance reads one weak verifier of the unit
    # gadget, built outside every check call; each beta builds its own
    # weight-b verifier inside its call
    opened = []
    _wrap_checks(monkeypatch, opened)
    built = []
    tolerance_check = cl.lab.ToleranceCheck

    def recorded(g, tolerance):
        built.append((tolerance, tuple(opened)))
        return tolerance_check(g, tolerance)

    monkeypatch.setattr(cl.lab, "ToleranceCheck", recorded)
    config = default_suite_config()
    config["instances"].append({
        "family": "complete-bipartite", "left": 2, "right": 3,
        "claims": [CLAIM_COROLLARY, CLAIM_BICLIQUE], "betas": ["1", "2", "3"], "trials": 4,
    })
    reports = run_suite(config)
    assert sum(r.claim == CLAIM_COROLLARY for r in reports) == 5
    inside = ("check_corollary_scaling",)
    assert built == [
        (Tolerance(1, 1), ()), (Tolerance(1, "1/2"), inside), (Tolerance(1, 3), inside),
        (Tolerance(1, 1), ()), (Tolerance(1, 1), inside), (Tolerance(1, 2), inside),
        (Tolerance(1, 3), inside),
    ]


def test_run_suite_rejects_unknown_claims_and_families():
    with pytest.raises(ValueError, match="unknown claim"):
        run_suite({"instances": [{"family": "path", "n": 3, "claims": ["nope"]}]})
    with pytest.raises(ValueError, match="unknown instance family"):
        run_suite({"instances": [{"family": "blob", "claims": []}]})


def test_report_schema_and_instance_keys():
    reports = run_suite(default_suite_config())
    keys = set()
    for rep in reports:
        payload = rep.to_json_dict()
        assert set(payload) <= {"claim", "instance", "verdict", "witness", "stats"}
        assert {"enumerated", "truncated", "elapsed_ms"} == set(payload["stats"])
        assert set(payload["instance"]) == {"family", "params", "seed"}
        if rep.verdict == COUNTEREXAMPLE:
            assert rep.witness is not None
        keys.add((rep.claim, instance_key(rep.instance)))
    assert len(keys) == len(reports)  # (claim, instance) pairs are unique


def test_summarize_counts():
    reports = run_suite(default_suite_config())
    rows = summarize(reports)
    assert sum(r["total"] for r in rows) == len(reports)
    for row in rows:
        assert row["total"] == (
            row["holds"] + row["counterexample"] + row["vacuous"] + row["error"]
        )


def test_compare_goldens_pins_then_flags_regressions_and_unreadable(tmp_path, monkeypatch):
    def report(claim, n, verdict):
        instance = {"family": "path", "params": {"n": n}, "seed": None}
        return cl.LabReport(claim, instance, verdict, None, {})

    goldens = tmp_path / "goldens"
    first = [
        report(CLAIM_PATH, 3, HOLDS),
        report(CLAIM_PATH, 4, VACUOUS),
        report(CLAIM_BICLIQUE, 3, HOLDS),
    ]
    assert compare_goldens(first, goldens) == (3, [], [])
    pinned = (goldens / f"{CLAIM_PATH}.json").read_text(encoding="utf-8")
    assert json.loads(pinned) == {"path[n=3]": HOLDS, "path[n=4]": VACUOUS}
    # a changed verdict is reported and not written back; a new instance is
    # pinned beside it; a claim whose golden is not a JSON object is skipped
    (goldens / f"{CLAIM_BICLIQUE}.json").write_text("[1]", encoding="utf-8")
    second = [
        report(CLAIM_PATH, 3, COUNTEREXAMPLE),
        report(CLAIM_PATH, 5, HOLDS),
        report(CLAIM_BICLIQUE, 3, HOLDS),
    ]
    pinned_count, regressions, unreadable = compare_goldens(second, goldens)
    assert pinned_count == 1
    assert regressions == [f"{CLAIM_PATH}: path[n=3] recorded 'holds', got 'counterexample'"]
    assert unreadable == [CLAIM_BICLIQUE]
    assert json.loads((goldens / f"{CLAIM_PATH}.json").read_text(encoding="utf-8")) == {
        "path[n=3]": HOLDS, "path[n=4]": VACUOUS, "path[n=5]": HOLDS,
    }
    assert (goldens / f"{CLAIM_BICLIQUE}.json").read_text(encoding="utf-8") == "[1]"
    names = sorted(p.name for p in goldens.iterdir())
    assert names == [f"{CLAIM_BICLIQUE}.json", f"{CLAIM_PATH}.json"]
    # nothing new: no file is rewritten
    writes = []
    monkeypatch.setattr(cl.lab, "write_atomic", lambda path, text: writes.append(path))
    assert compare_goldens(second[1:2], goldens) == (0, [], [])
    assert writes == []


def test_file_family_roundtrip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(cl.render_graph(cl.complete_bipartite(2, 2)), encoding="utf-8")
    config = {
        "instances": [
            {"family": "file", "path": str(path), "claims": [CLAIM_BICLIQUE]}
        ]
    }
    reports = run_suite(config)
    assert len(reports) == 1
    assert reports[0].verdict == COUNTEREXAMPLE
    assert reports[0].instance["family"] == "file"


def test_run_suite_builds_every_family(tmp_path, monkeypatch):
    # one suite over all six families pins each report's instance descriptor;
    # a file path is read relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k23.txt").write_text(
        cl.render_graph(cl.complete_bipartite(2, 3)), encoding="utf-8"
    )
    config = {
        "caps": {"max_path_edges": 2},
        "instances": [
            {"family": "path", "n": 5, "claims": [CLAIM_PATH]},
            {"family": "cycle", "n": 4, "claims": [CLAIM_PATH_SHORTEST]},
            {"family": "complete-bipartite", "left": 2, "right": 2, "claims": [CLAIM_LEMMA2]},
            {"family": "all-bipartite", "left": 2, "right": 2, "claims": [CLAIM_LEMMA2]},
            {
                "family": "random-bipartite", "left": 3, "right": 3, "prob": "2/4", "seed": 2,
                "claims": [CLAIM_COROLLARY], "betas": ["3"], "trials": 3,
            },
            {"family": "file", "path": "k23.txt", "claims": [CLAIM_LEMMA2]},
        ],
    }

    def desc(family, seed=None, **params):
        return {"family": family, "params": params, "seed": seed}

    reports = run_suite(config)
    assert [(r.claim, r.instance) for r in reports] == [
        (CLAIM_PATH, desc("path", n=5)),
        (CLAIM_PATH_SHORTEST, desc("cycle", n=4)),
        (CLAIM_LEMMA2, desc("complete-bipartite", left=2, right=2)),
        (CLAIM_LEMMA2, desc("all-bipartite", left=2, right=2, index=0)),
        (CLAIM_LEMMA2, desc("all-bipartite", left=2, right=2, index=1)),
        (CLAIM_COROLLARY, desc("random-bipartite", 2, left=3, right=3, prob="1/2", beta="3")),
        (CLAIM_LEMMA2, desc("file", sha256="eb996b8ca8a22597")),
    ]
    assert all(r.verdict != ERROR for r in reports)
    # P5's paths reach 4 edges, past the suite's own cap of 2; by default
    # (diameter + 2 = 6) nothing is cut
    assert reports[0].stats["truncated"] is True
    del config["caps"]
    assert run_suite(config)[0].stats["truncated"] is False
