"""lemma lab: claim checks, counterexample re-verification, suite determinism."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

import contractlab as cl
from contractlab import (
    BipartiteGraph,
    Graph,
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
)

import naive

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
            rep = check_path_lemma(cl.path_graph(n), shortest_only=flag)
            assert rep.verdict == VACUOUS, (n, flag)


def test_four_cycle_all_paths_counterexample_is_opposite_pair():
    g = cl.cycle_graph(4)
    rep = check_path_lemma(g, shortest_only=False)
    assert rep.verdict == COUNTEREXAMPLE
    w = rep.witness
    # the pinned witness: contraction = opposite edges, path = 3-edge path
    assert w["contraction"] == [0, 3]
    assert len(w["path"]) == 4
    reverify_path_counterexample(g, w)


def test_four_cycle_shortest_only_vacuous():
    rep = check_path_lemma(cl.cycle_graph(4), shortest_only=True)
    assert rep.verdict in (HOLDS, VACUOUS)
    assert rep.verdict == VACUOUS  # geodesics have <= 2 edges here


def test_path_lemma_claim_ids():
    assert check_path_lemma(cl.path_graph(3), False).claim == CLAIM_PATH
    assert check_path_lemma(cl.path_graph(3), True).claim == CLAIM_PATH_SHORTEST


def test_path_lemma_requires_unit_weights_and_connectivity():
    with pytest.raises(ValueError, match="unit weights"):
        check_path_lemma(Graph(2, ((0, 1, Fraction(1, 2)),)), False)
    with pytest.raises(cl.DisconnectedGraphError):
        check_path_lemma(Graph(3, ((0, 1),)), False)


def test_path_truncation_flag():
    g = cl.cycle_graph(6)
    rep = check_path_lemma(g, shortest_only=False, max_path_edges=2)
    assert rep.stats["truncated"] is True
    full = check_path_lemma(g, shortest_only=False)
    assert full.stats["truncated"] is False  # diameter+2 covers every 6-cycle path


def test_path_counterexamples_reverify_on_random_bipartite():
    rng = random.Random(6)
    seen = 0
    while seen < 8:
        b = cl.generate_random_bipartite(3, 3, Fraction(1, 2), rng.randrange(10**6))
        g = b.to_graph()
        if not cl.is_connected(g):
            continue
        seen += 1
        rep = check_path_lemma(g, shortest_only=False)
        if rep.verdict == COUNTEREXAMPLE:
            reverify_path_counterexample(g, rep.witness)


# ---------------------------------------------------------------------------
# biclique lemma
# ---------------------------------------------------------------------------


def test_biclique_lemma_single_edge_vacuous():
    rep = check_biclique_lemma(cl.complete_bipartite(1, 1))
    assert rep.verdict == VACUOUS


def test_biclique_lemma_k22_counterexample_reverifies():
    g = cl.complete_bipartite(2, 2)
    rep = check_biclique_lemma(g)
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
        check_biclique_lemma(BipartiteGraph(2, 2, ((0, 0), (1, 1))))


def test_biclique_lemma_verdicts_on_trees_vacuous():
    # tree gadgets admit no valid weak contraction with more than one edge
    trees = [
        cl.complete_bipartite(1, 2),
        cl.complete_bipartite(1, 3),
        BipartiteGraph(2, 2, ((0, 0), (1, 0), (1, 1))),  # 4-path
    ]
    for b in trees:
        rep = check_biclique_lemma(b)
        assert rep.verdict == VACUOUS


def test_biclique_lemma_counterexample_on_cyclic_instances():
    # any cyclic core admits the spanning-escape contraction, which merges
    # everything and is never a biclique
    for b in (cl.complete_bipartite(2, 2), cl.complete_bipartite(2, 3)):
        rep = check_biclique_lemma(b)
        assert rep.verdict == COUNTEREXAMPLE


# ---------------------------------------------------------------------------
# theorem-6 directions
# ---------------------------------------------------------------------------


def test_theorem6_single_edge_instance():
    soundness, completeness = check_theorem6(cl.complete_bipartite(1, 1))
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
            soundness, _ = check_theorem6(b)
            lemma = check_biclique_lemma(b)
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
        _, completeness = check_theorem6(b)
        bg = cl.build_gadget(b, 1)
        ids = completeness.witness["contraction"]
        expected = completeness.witness["verifier_verdict"]
        assert is_weak_contraction(bg.combined, ids, T11) == expected
        assert (completeness.verdict == HOLDS) == expected


# ---------------------------------------------------------------------------
# corollary scaling
# ---------------------------------------------------------------------------


def test_corollary_beta_one_identical():
    rep = check_corollary_scaling(cl.complete_bipartite(2, 2), 1, trials=30, seed=4)
    assert rep.verdict == HOLDS


def test_corollary_beta_three_holds():
    rep = check_corollary_scaling(THREE_PATH, 3, trials=50, seed=9)
    assert rep.verdict == HOLDS


def test_corollary_zero_trials_vacuous():
    rep = check_corollary_scaling(cl.complete_bipartite(2, 2), Fraction(1, 2), 0, seed=0)
    assert rep.verdict == VACUOUS


def test_corollary_rejects_bad_beta():
    with pytest.raises(ValueError, match="beta"):
        check_corollary_scaling(THREE_PATH, 0, trials=1, seed=0)


# ---------------------------------------------------------------------------
# tensor lift/project claim
# ---------------------------------------------------------------------------


def test_lemma2_single_edge_holds():
    rep = check_lemma2(cl.complete_bipartite(1, 1))
    assert rep.verdict == HOLDS


def test_lemma2_three_path_records_counts():
    rep = check_lemma2(THREE_PATH)
    assert rep.verdict == HOLDS
    w = rep.witness
    assert w["balanced_size"] == 2
    assert w["balanced_squared"] == 4
    assert w["projected_edges"] == 2  # induced count differs from t*t here


def test_lemma2_no_edges_vacuous():
    rep = check_lemma2(BipartiteGraph(2, 2))
    assert rep.verdict == VACUOUS


def test_lemma2_random_instances_hold():
    rng = random.Random(20)
    for _ in range(20):
        b = cl.generate_random_bipartite(3, 3, Fraction(1, 2), rng.randrange(10**6))
        rep = check_lemma2(b)
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
        assert check_biclique_lemma(b).verdict == check_biclique_lemma(relabeled).verdict
        assert check_lemma2(b).verdict == check_lemma2(relabeled).verdict
        g = b.to_graph()
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        gg = naive.relabel_graph(g, perm)
        assert (
            check_path_lemma(g, True).verdict == check_path_lemma(gg, True).verdict
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


def test_enumerate_connected_bipartite_labeled_count():
    labeled = enumerate_connected_bipartite(2, 2, up_to_iso=False)
    assert len(labeled) == 5  # four labeled paths plus the cycle
    assert enumerate_connected_bipartite(2, 2) == enumerate_connected_bipartite(2, 2)


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
    assert sum(r.stats["enumerated"] for r in reports) == 545


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
