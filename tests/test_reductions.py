"""reductions: gadget and tensor constructions, witness lift/project maps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import contractlab as cl
from contractlab import (
    Biclique,
    BipartiteGraph,
    DisconnectedGraphError,
    Tolerance,
    biclique_to_contraction,
    build_gadget,
    build_tensor_square,
    contraction_to_biclique,
    enumerate_valid_weak_contractions,
    is_connected,
    is_weak_contraction,
    lift_biclique,
    max_edge_biclique_exact,
    project_biclique,
)
from contractlab.reductions import REASON_INCOMPLETE, REASON_MATCHING, REASON_SIZE

import naive

THREE_PATH = BipartiteGraph(2, 1, ((0, 0), (1, 0)))  # v1-u1-v2


def _random_connected_bipartite(rng, left, right, prob=Fraction(1, 2)):
    while True:
        b = cl.generate_random_bipartite(left, right, prob, rng.randrange(10**6))
        if is_connected(b.to_graph()):
            return b


# ---------------------------------------------------------------------------
# gadget construction
# ---------------------------------------------------------------------------


def test_gadget_of_single_edge_is_three_edge_path():
    bg = build_gadget(cl.complete_bipartite(1, 1), 1)
    g = bg.combined
    assert g.vertex_count == 4
    assert g.edge_count == 3
    # v_b - v_a - u_a - u_b with layout v_a=0, u_a=1, v_b=2, u_b=3
    assert g.edges == ((0, 1, Fraction(1)), (0, 2, Fraction(1)), (1, 3, Fraction(1)))
    assert bg.edge_kind == ("core", "matching", "matching")
    assert bg.pendant_map == (2, 3)


def test_gadget_size_formulas():
    rng = random.Random(3)
    for _ in range(100):
        left, right = rng.randint(1, 4), rng.randint(1, 4)
        b = _random_connected_bipartite(rng, left, right, Fraction(2, 3))
        bg = build_gadget(b, 1)
        assert bg.combined.vertex_count == 2 * (left + right)
        assert bg.combined.edge_count == b.edge_count + left + right
        degrees = [len(bg.combined.adjacency[p]) for p in bg.pendant_map]
        assert degrees == [1] * (left + right)


def test_gadget_example_sizes():
    # connected 3+4 needs at least 6 edges (spanning tree of 7 vertices)
    b = BipartiteGraph(3, 4, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3)))
    bg = build_gadget(b, 1)
    assert bg.combined.vertex_count == 14
    assert bg.combined.edge_count == 13
    b2 = BipartiteGraph(2, 4, ((0, 0), (0, 1), (1, 1), (1, 2), (1, 3)))
    bg2 = build_gadget(b2, 1)
    assert bg2.combined.vertex_count == 12
    assert bg2.combined.edge_count == 11


def test_gadget_core_induces_input():
    rng = random.Random(9)
    for _ in range(10):
        b = _random_connected_bipartite(rng, 3, 3)
        bg = build_gadget(b, 1)
        core_pairs = {
            (u, v)
            for (u, v, _), kind in zip(bg.combined.edges, bg.edge_kind)
            if kind == "core"
        }
        assert core_pairs == {(l, 3 + r) for l, r, _ in b.edges}


def test_gadget_weight_parameter_applies_everywhere():
    bg = build_gadget(cl.complete_bipartite(2, 2), Fraction(3, 2))
    assert all(w == Fraction(3, 2) for _, _, w in bg.combined.edges)
    with pytest.raises(ValueError, match="positive"):
        build_gadget(cl.complete_bipartite(1, 1), 0)


def test_gadget_refuses_disconnected():
    b = BipartiteGraph(2, 2, ((0, 0), (1, 1)))
    with pytest.raises(DisconnectedGraphError):
        build_gadget(b, 1)


def test_gadget_bipartition_is_bipartite_view():
    rng = random.Random(21)
    for _ in range(10):
        b = _random_connected_bipartite(rng, 2, 3)
        bg = build_gadget(b, 1)
        view, side0, side1 = bg.bipartition
        assert view.left_count == len(side0)
        assert view.right_count == len(side1)
        assert view.edge_count == bg.combined.edge_count
        # every combined edge crosses the two sides
        s0 = set(side0)
        for u, v, _ in bg.combined.edges:
            assert (u in s0) != (v in s0)


def test_gadget_meb_within_one_of_core_meb():
    rng = random.Random(33)
    for _ in range(15):
        b = _random_connected_bipartite(rng, 3, 3)
        bg = build_gadget(b, 1)
        view, _, _ = bg.bipartition
        meb_core = max_edge_biclique_exact(b).objective
        meb_gadget = max_edge_biclique_exact(view).objective
        assert meb_core <= meb_gadget <= meb_core + 1


# ---------------------------------------------------------------------------
# tensor square
# ---------------------------------------------------------------------------


def test_tensor_of_single_edge():
    t = build_tensor_square(cl.complete_bipartite(1, 1))
    assert t.graph.left_count == 1
    assert t.graph.right_count == 1
    assert t.graph.edge_count == 1


def test_tensor_of_three_vertex_path_is_k22():
    t = build_tensor_square(THREE_PATH)
    assert t.graph.left_count == 2 and t.graph.right_count == 2
    assert t.graph.edge_count == 4
    assert t.left_pairs == ((0, 0), (1, 0))
    assert t.right_pairs == ((0, 0), (0, 1))


def test_tensor_of_empty_graph_has_no_edges():
    t = build_tensor_square(BipartiteGraph(3, 3))
    assert t.graph.left_count == 9 and t.graph.right_count == 9
    assert t.graph.edge_count == 0


def test_tensor_part_sizes():
    rng = random.Random(8)
    for _ in range(100):
        left, right = rng.randint(1, 4), rng.randint(1, 4)
        b = cl.generate_random_bipartite(left, right, Fraction(1, 2), rng.randrange(10**6))
        t = build_tensor_square(b)
        assert t.graph.left_count == left * right
        assert t.graph.right_count == left * right


def test_tensor_edge_rule():
    rng = random.Random(15)
    for _ in range(10):
        b = cl.generate_random_bipartite(3, 3, Fraction(1, 2), rng.randrange(10**6))
        t = build_tensor_square(b)
        present = b.edge_set
        tensor_present = t.graph.edge_set
        for i, (a, bb) in enumerate(t.left_pairs):
            for k, (c, d) in enumerate(t.right_pairs):
                expected = (a, c) in present and (d, bb) in present
                assert ((i, k) in tensor_present) == expected


# ---------------------------------------------------------------------------
# lift / project
# ---------------------------------------------------------------------------


def test_lift_single_edge():
    lifted = lift_biclique(build_tensor_square(cl.complete_bipartite(1, 1)), Biclique((0,), (0,)))
    assert lifted == Biclique((0,), (0,))


def test_lift_star_in_three_vertex_path():
    lifted = lift_biclique(build_tensor_square(THREE_PATH), Biclique((0, 1), (0,)))
    assert lifted == Biclique((0, 1), (0, 1))


def test_lift_rejects_invalid_biclique():
    with pytest.raises(ValueError):
        lift_biclique(build_tensor_square(THREE_PATH), Biclique((0, 1), (0, 1)))


def test_lift_planted_k23_gives_36_edges():
    g, plant = cl.generate_planted_biclique(3, 4, 2, 3, 0, seed=5)
    tensor = build_tensor_square(g)
    lifted = lift_biclique(tensor, plant)
    assert lifted.edge_count == 36
    assert lifted.is_complete_in(tensor.graph)


def test_project_single_edge():
    t = build_tensor_square(cl.complete_bipartite(1, 1))
    assert project_biclique(t, Biclique((0,), (0,))) == Biclique((0,), (0,))


def test_project_empty_biclique():
    t = build_tensor_square(THREE_PATH)
    assert project_biclique(t, Biclique((), ())) == Biclique((), ())


def test_project_k22_back_to_star():
    t = build_tensor_square(THREE_PATH)
    projected = project_biclique(t, Biclique((0, 1), (0, 1)))
    assert projected == Biclique((0, 1), (0,))
    assert projected.edge_count == 2  # 4 tensor edges collapse onto 2 factor edges


def test_project_output_is_complete_in_factor():
    rng = random.Random(77)
    for _ in range(15):
        b = _random_connected_bipartite(rng, 3, 3)
        t = build_tensor_square(b)
        mbb = cl.max_balanced_biclique_exact(t.graph)
        if mbb.objective == 0:
            continue
        projected = project_biclique(t, mbb.witness)
        assert projected.is_complete_in(b)


def test_lift_project_round_trip_preserves_edge_count():
    rng = random.Random(85)
    for _ in range(20):
        left, right = rng.randint(1, 4), rng.randint(1, 4)
        b = cl.generate_random_bipartite(left, right, Fraction(1, 2), rng.randrange(10**6))
        obj, l, r = naive.naive_meb(b)
        if obj == 0:
            continue
        biclique = Biclique(l, r)
        t = build_tensor_square(b)
        lifted = lift_biclique(t, biclique)
        assert lifted.edge_count == obj * obj
        back = project_biclique(t, lifted)
        assert back.edge_count >= obj


# ---------------------------------------------------------------------------
# contraction <-> biclique maps
# ---------------------------------------------------------------------------


def test_contraction_to_biclique_small_sets_absent():
    bg = build_gadget(cl.complete_bipartite(1, 1), 1)
    assert contraction_to_biclique(bg, []) == (None, REASON_SIZE)
    assert contraction_to_biclique(bg, [0]) == (None, REASON_SIZE)


def test_contraction_to_biclique_rejects_invalid_precondition():
    bg = build_gadget(cl.complete_bipartite(1, 1), 1)
    with pytest.raises(ValueError, match="not a valid weak contraction"):
        contraction_to_biclique(bg, [0, 1, 2])  # the full edge set


def test_contraction_to_biclique_reasons_on_enumerated_sets():
    # every valid weak contraction of small gadgets either maps to a complete
    # core biclique or is refused with a structured reason
    rng = random.Random(91)
    for _ in range(8):
        b = _random_connected_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
        bg = build_gadget(b, 1)
        for cand in enumerate_valid_weak_contractions(bg.combined, Tolerance(1, 1)):
            biclique, reason = contraction_to_biclique(bg, cand)
            if len(cand) <= 1:
                assert reason == REASON_SIZE
                continue
            if biclique is None:
                assert reason in (REASON_MATCHING, REASON_INCOMPLETE)
                if reason == REASON_MATCHING:
                    assert any(bg.edge_kind[e] == "matching" for e in cand)
            else:
                assert reason is None
                assert biclique.is_complete_in(b)
                assert biclique.edge_count == len(cand)


def test_biclique_to_contraction_single_core_edge_valid():
    bg = build_gadget(cl.complete_bipartite(1, 1), 1)
    ids, verdict, witness = biclique_to_contraction(bg, Biclique((0,), (0,)))
    assert ids == (0,)
    assert verdict is True
    assert witness is None


def test_biclique_to_contraction_star_in_three_path_gadget():
    # contracting the 2-edge star drops the pendant-to-pendant distance from
    # 4 to 2 (and core-pendant distances from 3 to 1), so the verifier must
    # reject it; the witness is the lexicographically smallest violating pair
    bg = build_gadget(THREE_PATH, 1)
    ids, verdict, witness = biclique_to_contraction(bg, Biclique((0, 1), (0,)))
    assert len(ids) == 2
    assert all(bg.edge_kind[e] == "core" for e in ids)
    assert verdict is False
    assert witness is not None and witness.kind == "pair"
    assert (witness.u, witness.v) == (0, 4)
    assert (witness.distance, witness.contracted_distance) == (3, 1)
    # pendant-to-pendant (v1_b=3, v2_b=4) indeed drops from 4 to 2
    assert cl.shortest_distances(bg.combined)[3, 4] == 4
    assert cl.contracted_distance(bg.combined, ids, 3, 4) == 2
    # the recorded verdict re-verifies
    assert is_weak_contraction(bg.combined, ids, Tolerance(1, 1)) == verdict


def test_biclique_to_contraction_empty_biclique_is_valid_empty_set():
    bg = build_gadget(cl.complete_bipartite(2, 2), 1)
    ids, verdict, witness = biclique_to_contraction(bg, Biclique((), ()))
    assert ids == ()
    assert verdict is True


def test_biclique_to_contraction_accepts_pendant_touching_bicliques():
    # the maximum biclique of the single-edge gadget is the star around v_a,
    # which uses a pendant; the map must handle it and report the verdict
    bg = build_gadget(cl.complete_bipartite(1, 1), 1)
    view, _, _ = bg.bipartition
    meb = max_edge_biclique_exact(view)
    assert meb.objective == 2
    ids, verdict, witness = biclique_to_contraction(bg, meb.witness)
    assert len(ids) == 2
    assert verdict is False
    assert witness is not None


def test_biclique_to_contraction_uses_gadget_weight():
    bg = build_gadget(THREE_PATH, Fraction(1, 2))
    ids, verdict, _ = biclique_to_contraction(bg, Biclique((0,), (0,)))
    # scale covariance: same verdict as the unit gadget at (1, 1)
    unit = build_gadget(THREE_PATH, 1)
    _, unit_verdict, _ = biclique_to_contraction(unit, Biclique((0,), (0,)))
    assert verdict == unit_verdict
