"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from the independent oracles in naive.py or are
pinned from the worked examples; tolerances are exact everywhere.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import contractlab as cl
from contractlab import (
    Biclique,
    BipartiteGraph,
    Graph,
    LabInstance,
    Tolerance,
    build_gadget,
    build_tensor_square,
    check_biclique_lemma,
    check_corollary_scaling,
    check_path_lemma,
    enumerate_connected_bipartite,
    is_weak_contraction,
    lift_biclique,
    max_balanced_biclique_exact,
    max_contraction_exact,
    max_edge_biclique_exact,
    max_weak_contraction_exact,
    project_biclique,
    run_suite,
)
from contractlab.cli import main as cli_main
from contractlab.lab import HOLDS, VACUOUS, COUNTEREXAMPLE

import naive
from builders import random_connected_graph

T11 = Tolerance(1, 1)


def _sample_unit_graph(rng: random.Random) -> Graph:
    n = rng.randint(2, 6)
    max_m = min(n * (n - 1) // 2, 13)
    m = rng.randint(n - 1, max_m)
    return random_connected_graph(rng, n, m, unit=True)


def test_criterion_01_verifier_oracle_equivalence():
    """Both verifiers at (1,1) match a from-scratch quotient+BFS oracle on a
    500-instance sample of connected unit-weight graphs with <= 6 vertices,
    over every edge subset."""
    rng = random.Random(20240)
    instances = [_sample_unit_graph(rng) for _ in range(498)]
    k6 = Graph(6, tuple(itertools.combinations(range(6), 2)))
    instances.append(k6)
    instances.append(Graph(6, k6.edges[1:]))
    subsets_checked = 0
    for g in instances:
        oracle = naive.NaiveUnitChecker(g)
        m = g.edge_count
        for mask in range(1 << m):
            sub = [e for e in range(m) if (mask >> e) & 1]
            expect_strong, expect_weak = oracle.verdicts(sub)
            assert cl.is_contraction(g, sub, T11) == expect_strong, (g, sub)
            assert is_weak_contraction(g, sub, T11) == expect_weak, (g, sub)
            subsets_checked += 1
    assert len(instances) == 500
    print(
        f"ACCEPTANCE 1 PASS: verifier-oracle equivalence on 500 instances "
        f"({subsets_checked} subsets, exact)"
    )


def test_criterion_02_solver_oracle_equivalence():
    """Exact solvers match pure power-set / double-subset filtering on 100
    random instances with <= 8 edges plus the worked examples, including the
    lexicographic tie-break on witnesses."""
    rng = random.Random(517)
    contraction_checked = biclique_checked = 0
    while contraction_checked < 50 or biclique_checked < 50:
        if contraction_checked < 50:
            n = rng.randint(2, 6)
            m = rng.randint(n - 1, min(8, n * (n - 1) // 2))
            g = random_connected_graph(rng, n, m, unit=rng.random() < 0.5)
            alpha = rng.choice([1, 2])
            beta = rng.choice([Fraction(1, 2), 1, 2])
            t = Tolerance(alpha, beta)
            res = max_contraction_exact(g, t)
            assert (res.objective, res.witness) == naive.naive_max_contraction(g, alpha, beta)
            res = max_weak_contraction_exact(g, t)
            assert (res.objective, res.witness) == naive.naive_max_weak_contraction(g, alpha, beta)
            contraction_checked += 1
        if biclique_checked < 50:
            b = cl.generate_random_bipartite(
                rng.randint(1, 4), rng.randint(1, 4), Fraction(1, 2), rng.randrange(10**6)
            )
            if b.edge_count <= 8:
                meb = max_edge_biclique_exact(b)
                obj, left, right = naive.naive_meb(b)
                assert meb.objective == obj
                assert (meb.witness.left, meb.witness.right) == (left, right)
                mbb = max_balanced_biclique_exact(b)
                t_obj, left, right = naive.naive_mbb(b)
                assert mbb.objective == t_obj
                assert (mbb.witness.left, mbb.witness.right) == (left, right)
                biclique_checked += 1

    # worked examples
    assert max_contraction_exact(cl.path_graph(3), T11).witness == (0,)
    halves = Graph(3, ((0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))))
    assert max_contraction_exact(halves, T11).objective == 2
    assert max_weak_contraction_exact(Graph(2, ((0, 1),)), T11).objective == 0
    bk11 = build_gadget(cl.complete_bipartite(1, 1), 1)
    assert max_weak_contraction_exact(bk11.combined, T11).objective == 1
    c4 = cl.cycle_graph(4)
    res = max_weak_contraction_exact(c4, T11)
    assert (res.objective, res.witness) == naive.naive_max_weak_contraction(c4, 1, 1)
    assert max_edge_biclique_exact(cl.complete_bipartite(2, 2)).objective == 4
    assert max_edge_biclique_exact(BipartiteGraph(3, 3)).objective == 0
    planted, _ = cl.generate_planted_biclique(5, 5, 3, 3, 0, seed=8)
    assert max_edge_biclique_exact(planted).objective == 9
    assert max_balanced_biclique_exact(cl.complete_bipartite(2, 3)).objective == 2
    assert max_balanced_biclique_exact(BipartiteGraph(1, 1, ((0, 0),))).objective == 1
    print(
        f"ACCEPTANCE 2 PASS: solver-oracle equivalence on "
        f"{contraction_checked + biclique_checked} random instances + worked examples"
    )


def test_criterion_03_multiplicative_triviality():
    """is_contraction(., ., (alpha, 0)) is false for every nonempty subset at
    alpha in {1, 2, 10} and true for the empty set, on 100 random
    positive-weight graphs with 100 random nonempty subsets each."""
    rng = random.Random(99)
    checked = 0
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(2, 6), unit=False)
        for alpha in (1, 2, 10):
            assert cl.is_contraction(g, [], Tolerance(alpha, 0))
        for _ in range(100):
            subset = [e for e in range(g.edge_count) if rng.random() < 0.5]
            if not subset:
                subset = [rng.randrange(g.edge_count)]
            alpha = rng.choice([1, 2, 10])
            assert not cl.is_contraction(g, subset, Tolerance(alpha, 0))
            checked += 1
    print(f"ACCEPTANCE 3 PASS: multiplicative triviality on {checked} (graph, subset) pairs")


def _connected_bipartite_upto(total_vertices: int):
    for a in range(1, total_vertices):
        for b in range(a, total_vertices - a + 1):
            yield from enumerate_connected_bipartite(a, b)


def test_criterion_04_path_lemma_adjudication():
    """All-paths mode reproduces the 4-cycle counterexample exactly and the
    witness re-verifies; shortest-path mode agrees with an independent oracle
    on every connected unit-weight bipartite graph with <= 7 vertices.

    The shortest-path claim (two vertex-disjoint contracted edges on a
    geodesic force the whole geodesic into the set) is false: a proper
    spanning contraction set merges every vertex, so every pair is exempt
    from the weak-mode inequality and the set is valid.  On K_{2,3} minus an
    edge such a set leaves a 3-edge geodesic with two vertex-disjoint
    contracted edges not fully contained (see "Path claim" in the README).
    What does hold is that the geodesic's endpoints are merged: two
    contracted edges shorten it by 2 > beta = 1, so the pair must be exempt.

    On each instance the clause asserts that the lab's verdict equals the
    oracle's from ``naive.naive_path_claim_shortest``; that a counterexample
    re-verifies, reports the oracle's (size, lex)-smallest counterexample set
    and a geodesic whose endpoints share a supernode; that the endpoints of
    every geodesic carrying two vertex-disjoint edges of any valid set are
    merged; and that counterexamples exist, K_{2,3} minus an edge among them.
    """
    g = cl.cycle_graph(4)
    rep = check_path_lemma(LabInstance(g), shortest_only=False)
    assert rep.verdict == COUNTEREXAMPLE
    w = rep.witness
    assert w["contraction"] == [0, 3]  # {(0,1), (2,3)}: a pair of opposite edges
    contracted_pairs = {g.endpoints(e) for e in w["contraction"]}
    assert contracted_pairs == {(0, 1), (2, 3)}
    assert len(w["path"]) == 4  # a 3-edge path
    # re-verify the witness from scratch
    assert is_weak_contraction(g, w["contraction"], T11)
    e1, e2 = w["disjoint_edge_ids"]
    assert {*g.endpoints(e1)}.isdisjoint({*g.endpoints(e2)})
    for a, bb in zip(w["path"], w["path"][1:]):
        assert (min(a, bb), max(a, bb)) in {e[:2] for e in g.edges}
    assert any(e not in set(w["contraction"]) for e in w["path_edge_ids"])
    assert check_path_lemma(LabInstance(Graph(1)), shortest_only=True).verdict == VACUOUS

    def merged(gg, cset, path):
        label = naive.components_of(gg.vertex_count, [gg.edges[e][:2] for e in cset])
        return label[path[0]] == label[path[-1]]

    instances = 0
    verdicts = {HOLDS: 0, VACUOUS: 0, COUNTEREXAMPLE: 0}
    counterexamples = []
    for b in _connected_bipartite_upto(7):
        gg = b.to_graph()
        rep = check_path_lemma(LabInstance(gg), shortest_only=True)
        instances += 1
        verdict, smallest, firings = naive.naive_path_claim_shortest(gg)
        assert rep.verdict == verdict, (b.edges, rep.verdict, verdict)
        verdicts[verdict] += 1
        for cset, path in firings:
            assert merged(gg, cset, path), (b.edges, cset, path)
        if rep.verdict not in (HOLDS, VACUOUS):
            # the counterexample is real: the set must re-verify as a valid
            # weak contraction by the independent oracle and the path must be
            # a geodesic missing a contracted edge
            cand = rep.witness["contraction"]
            assert naive.naive_is_weak_contraction(gg, cand, 1, 1)
            base = naive.fw_distances(gg.vertex_count, gg.edges)
            path = rep.witness["path"]
            assert base[path[0]][path[-1]] == len(path) - 1
            assert (tuple(cand), tuple(path)) in firings
            assert rep.witness["missing_edge_ids"]
            assert not set(rep.witness["missing_edge_ids"]) & set(cand)
            assert cand == list(smallest), (b.edges, cand, smallest)
            assert merged(gg, cand, path)
            counterexamples.append((b, rep.witness))
    assert instances == 71
    assert counterexamples
    # K_{2,3} minus an edge: the only connected 2+3 graph with 5 edges.  Its
    # smallest counterexample is a proper spanning set, which merges everything.
    k23e = [
        (b, w) for b, w in counterexamples
        if (b.left_count, b.right_count, len(b.edges)) == (2, 3, 5)
    ]
    assert len(k23e) == 1
    b, w = k23e[0]
    gg = b.to_graph()
    assert len(w["contraction"]) == gg.vertex_count - 1 < gg.edge_count
    spanned = naive.components_of(gg.vertex_count, [gg.edges[e][:2] for e in w["contraction"]])
    assert len(set(spanned)) == 1
    print(
        f"ACCEPTANCE 4 PASS: path-claim adjudication on {instances} bipartite "
        f"instances (<= 7 vertices) agrees with the oracle ({verdicts}; every "
        f"firing geodesic has merged endpoints) + the exact 4-cycle counterexample"
    )


def test_criterion_05_biclique_lemma_soundness_bound():
    """On every connected bipartite instance up to 3+3 where the biclique
    claim holds or is vacuous, the optimum weak contraction of the gadget is
    at most max(1, MEB(gadget))."""
    bound_checked = exempt = 0
    for a in range(1, 4):
        for b in range(a, 4):
            for inst in enumerate_connected_bipartite(a, b):
                lemma = check_biclique_lemma(LabInstance(inst))
                bg = build_gadget(inst, 1)
                if lemma.verdict in (HOLDS, VACUOUS):
                    optimum = max_weak_contraction_exact(bg.combined, T11).objective
                    view, _, _ = bg.bipartition
                    meb = max_edge_biclique_exact(view).objective
                    assert optimum <= max(1, meb), (inst, optimum, meb)
                    bound_checked += 1
                else:
                    exempt += 1
    assert bound_checked > 0
    print(
        f"ACCEPTANCE 5 PASS: soundness bound on {bound_checked} instances "
        f"({exempt} exempt via biclique-claim counterexamples)"
    )


def test_criterion_06_theorem6_completeness_goldens(tmp_path, capsys):
    """Completeness verdicts are pinned as goldens on first run, re-verify via
    is_weak_contraction, stay byte-stable on re-run, and any drift makes the
    suite exit nonzero."""
    out = tmp_path / "labout"
    assert cli_main(["lab", "--out", str(out)]) == 0
    reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    completeness = [r for r in reports if r["claim"] == "thm6-completeness"]
    assert completeness
    for rep in completeness:
        params = rep["instance"]["params"]
        fam = rep["instance"]["family"]
        assert fam == "all-bipartite"
        inst = enumerate_connected_bipartite(params["left"], params["right"])[params["index"]]
        bg = build_gadget(inst, 1)
        ids = rep["witness"]["contraction"]
        expected = rep["witness"]["verifier_verdict"]
        assert is_weak_contraction(bg.combined, ids, T11) == expected
        assert (rep["verdict"] == "holds") == expected

    assert cli_main(["lab", "--out", str(out)]) == 0  # stable re-run
    golden = out / "goldens" / "thm6-completeness.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    key = next(iter(data))
    data[key] = "holds" if data[key] != "holds" else "counterexample"
    golden.write_text(json.dumps(data), encoding="utf-8")
    assert cli_main(["lab", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "thm6-completeness" in err
    print(
        f"ACCEPTANCE 6 PASS: {len(completeness)} completeness verdicts pinned, "
        f"re-verified, and drift-guarded"
    )


def test_criterion_07_lemma2_constructions():
    """Lifts of every maximal biclique are complete in the tensor on 20 random
    3+3 instances; the 3-vertex-path example lifts to exactly K_{2,2} and
    projects back to the 2-edge star."""
    from contractlab.lab import _maximal_factor_bicliques

    rng = random.Random(4242)
    lifts = 0
    for seed in range(20):
        b = cl.generate_random_bipartite(3, 3, Fraction(1, 2), rng.randrange(10**6))
        tensor = build_tensor_square(b)
        for biclique in _maximal_factor_bicliques(b):
            lifted = lift_biclique(tensor, biclique)  # validates completeness internally
            assert lifted.is_complete_in(tensor.graph)
            assert len(lifted.left) == biclique.edge_count
            lifts += 1

    three_path = BipartiteGraph(2, 1, ((0, 0), (1, 0)))
    tensor = build_tensor_square(three_path)
    lifted = lift_biclique(tensor, Biclique((0, 1), (0,)))
    assert lifted == Biclique((0, 1), (0, 1))
    assert tensor.graph.edge_count == 4
    back = project_biclique(tensor, lifted)
    assert back == Biclique((0, 1), (0,))
    print(f"ACCEPTANCE 7 PASS: {lifts} maximal-biclique lifts complete + worked example")


def test_criterion_08_corollary_scaling():
    """1000+ sampled (instance, subset, beta) triples show verdict equality
    between weight-beta gadgets at (1, beta) and unit gadgets at (1, 1)."""
    rng = random.Random(88)
    instances = []
    while len(instances) < 12:
        b = cl.generate_random_bipartite(
            rng.randint(1, 3), rng.randint(1, 3), Fraction(2, 3), rng.randrange(10**6)
        )
        if cl.is_connected(b.to_graph()):
            instances.append(b)
    triples = 0
    for b in instances:
        for beta in (Fraction(1, 2), Fraction(1), Fraction(3)):
            rep = check_corollary_scaling(
                LabInstance(b), beta, trials=30, seed=rng.randrange(10**6)
            )
            assert rep.verdict == HOLDS, (b, beta, rep.witness)
            triples += rep.stats["enumerated"]
    assert triples >= 1000
    print(f"ACCEPTANCE 8 PASS: corollary scaling equality on {triples} sampled triples")


def test_criterion_09_size_formulas():
    """Gadget vertex/edge counts and tensor part sizes on 100 random instances."""
    rng = random.Random(3030)
    gadgets = tensors = 0
    while gadgets < 100:
        left, right = rng.randint(1, 4), rng.randint(1, 4)
        b = cl.generate_random_bipartite(left, right, Fraction(2, 3), rng.randrange(10**6))
        tensor = build_tensor_square(b)
        assert tensor.graph.left_count == left * right
        assert tensor.graph.right_count == left * right
        tensors += 1
        if not cl.is_connected(b.to_graph()):
            continue
        bg = build_gadget(b, 1)
        assert bg.combined.vertex_count == 2 * (left + right)
        assert bg.combined.edge_count == b.edge_count + left + right
        gadgets += 1
    print(
        f"ACCEPTANCE 9 PASS: size formulas on {gadgets} gadgets and {tensors} tensors"
    )


def test_criterion_10_determinism_and_performance():
    """Identical solver and lab payloads across thread counts {1, 4}; an
    18-edge, 12-vertex exact weak-contraction solve finishes in under 60 s."""
    config = {
        "instances": [
            {"family": "path", "n": 4, "claims": ["path-lemma"]},
            {"family": "all-bipartite", "left": 2, "right": 2,
             "claims": ["biclique-lemma", "thm6-soundness", "thm6-completeness"]},
            {"family": "random-bipartite", "left": 3, "right": 3, "prob": "1/2",
             "seed": 2, "claims": ["corollary-scaling", "lemma2-lift"],
             "betas": ["1/2", "3"], "trials": 10},
        ]
    }

    def payloads(threads):
        out = []
        for rep in run_suite(config, threads=threads):
            d = rep.to_json_dict()
            d["stats"] = {k: v for k, v in d["stats"].items() if k != "elapsed_ms"}
            out.append(d)
        return out

    assert payloads(1) == payloads(4)

    g = random_connected_graph(random.Random(2024), 12, 18, unit=True)
    assert g.vertex_count == 12 and g.edge_count == 18
    start = time.perf_counter()
    res = max_weak_contraction_exact(g, T11)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert is_weak_contraction(g, res.witness, T11)
    again = max_weak_contraction_exact(g, T11)
    assert (res.objective, res.witness, res.explored) == (
        again.objective, again.witness, again.explored,
    )
    print(
        f"ACCEPTANCE 10 PASS: thread-count determinism + 18-edge solve in "
        f"{elapsed:.2f}s (objective {res.objective})"
    )
