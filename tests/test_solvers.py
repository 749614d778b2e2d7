"""solvers: worked examples, power-set oracle equivalence, determinism, search counters."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import contractlab as cl
from contractlab import (
    Biclique,
    BipartiteGraph,
    CapExceededError,
    Graph,
    Tolerance,
    enumerate_valid_weak_contractions,
    max_balanced_biclique_exact,
    max_contraction_exact,
    max_edge_biclique_exact,
    max_weak_contraction_exact,
)
from contractlab import solvers
from contractlab.graphs import ScaledDistances

import naive
from builders import SMALL_WEIGHTS, random_connected_graph

T11 = Tolerance(1, 1)


def _repeating_partition_cases():
    """(graph, alpha) on K4, K5 minus an edge, the wheel W5 (a hub joined to a
    4-cycle) and the gadget of K_{2,2}: dense in cycles, so many edge sets of
    one search induce the same vertex partition.  Unit and rational weights."""
    k4 = Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    k5e = Graph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (3, 4)))
    wheel = Graph(5, tuple((0, v) for v in range(1, 5)) + tuple((v, v % 4 + 1) for v in range(1, 5)))
    gadget = cl.build_gadget(cl.complete_bipartite(2, 2), 1).combined
    rng = random.Random(5)
    for g in (k4, k5e, wheel, gadget):
        assert g.edge_count <= 10
        rational = Graph(
            g.vertex_count, tuple((u, v, rng.choice(SMALL_WEIGHTS)) for u, v, _ in g.edges)
        )
        for h in (g, rational):
            for alpha in (1, 2):
                yield h, alpha


def _field_width_cases():
    """(graph, alpha, beta) at the edges of the searches' packed rows (see
    solvers.RowPacking): alpha < 1, so thresholds above the largest distance
    are clamped; a beta so large that no threshold is positive; scaled
    weights in the tens of thousands (1000/7 and 97/89 scale by 623); and
    the one-vertex and one-edge graphs."""
    rng = random.Random(17)
    for alpha in (Fraction(1, 3), Fraction(1, 2)):
        for _ in range(4):
            g = random_connected_graph(rng, rng.randint(2, 5), unit=rng.random() < 0.5)
            yield g, alpha, rng.choice([Fraction(1, 2), 1])
    for alpha in (1, 2):
        for _ in range(3):
            yield random_connected_graph(rng, rng.randint(2, 5), unit=False), alpha, 100
    heavy = (Fraction(1000, 7), Fraction(97, 89))
    for beta in (0, Fraction(97, 89), Fraction(1000, 7)):
        for _ in range(3):
            g = random_connected_graph(rng, rng.randint(3, 5), unit=True)
            g = Graph(g.vertex_count, tuple((u, v, rng.choice(heavy)) for u, v, _ in g.edges))
            yield g, 1, beta
    for g in (Graph(1), Graph(2, ((0, 1, Fraction(1000, 7)),))):
        for alpha, beta in ((Fraction(1, 2), 0), (1, 0), (1, 1), (2, 100)):
            yield g, alpha, beta


def _solved_or_none(solve, g, t):
    """(objective, witness) as the power-set oracle gives it, None when the
    solver finds no valid set."""
    try:
        res = solve(g, t)
    except ValueError as exc:
        assert str(exc).startswith("no valid")
        return None
    return res.objective, res.witness


# ---------------------------------------------------------------------------
# exact contraction solvers: worked examples
# ---------------------------------------------------------------------------


def test_strong_beta_zero_objective_zero():
    for g in (cl.path_graph(4), cl.cycle_graph(5)):
        res = max_contraction_exact(g, Tolerance(1, 0))
        assert res.objective == 0
        assert res.witness == ()


def test_strong_unit_path_objective_one():
    res = max_contraction_exact(cl.path_graph(3), T11)
    assert res.objective == 1
    assert res.witness == (0,)


def test_strong_half_weight_path_contracts_fully():
    g = Graph(3, ((0, 1, Fraction(1, 2)), (1, 2, Fraction(1, 2))))
    res = max_contraction_exact(g, T11)
    assert res.objective == 2
    assert res.witness == (0, 1)


def test_weak_single_edge_graph_objective_zero():
    res = max_weak_contraction_exact(Graph(2, ((0, 1),)), T11)
    assert res.objective == 0
    assert res.witness == ()


def test_weak_gadget_of_single_edge_objective_one():
    bg = cl.build_gadget(cl.complete_bipartite(1, 1), 1)
    res = max_weak_contraction_exact(bg.combined, T11)
    assert res.objective == 1


def test_weak_four_cycle_matches_power_set_filter():
    # merged pairs are exempt, so contracting any spanning proper subset is
    # valid; the optimum is 3, not the 2 one might expect from opposite pairs
    g = cl.cycle_graph(4)
    res = max_weak_contraction_exact(g, T11)
    obj, witness = naive.naive_max_weak_contraction(g, 1, 1)
    assert (res.objective, res.witness) == (obj, witness)
    assert res.objective == 3


def test_weak_rejects_edgeless_graph():
    with pytest.raises(ValueError, match="at least one edge"):
        max_weak_contraction_exact(Graph(1), T11)


def test_solvers_refuse_when_no_set_is_valid():
    # alpha < 1 leaves even the empty set invalid: both maximizers refuse
    # with their own message
    g, t = cl.path_graph(3), Tolerance(Fraction(1, 2), 0)
    with pytest.raises(ValueError) as strong:
        max_contraction_exact(g, t)
    assert str(strong.value) == (
        "no valid contraction set exists for this tolerance (possible only when alpha < 1)"
    )
    with pytest.raises(ValueError) as weak:
        max_weak_contraction_exact(g, t)
    assert str(weak.value) == (
        "no valid weak contraction exists for this tolerance (possible only when alpha < 1)"
    )


def test_solvers_refuse_over_cap():
    g = cl.cycle_graph(6)
    with pytest.raises(CapExceededError, match="cap \\(4\\)"):
        max_contraction_exact(g, T11, cap=4)
    with pytest.raises(CapExceededError, match="cap \\(4\\)"):
        max_weak_contraction_exact(g, T11, cap=4)
    with pytest.raises(CapExceededError):
        list(enumerate_valid_weak_contractions(g, T11, cap=4))


def test_solvers_require_connected():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(cl.DisconnectedGraphError):
        max_weak_contraction_exact(g, T11)
    # connectivity is refused before the cap: a disconnected graph over the
    # cap is a DisconnectedGraphError, not a CapExceededError
    for solve in (max_contraction_exact, max_weak_contraction_exact):
        with pytest.raises(cl.DisconnectedGraphError):
            solve(g, T11, cap=1)
    with pytest.raises(cl.DisconnectedGraphError):
        list(enumerate_valid_weak_contractions(g, T11, cap=1))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_path3():
    got = list(enumerate_valid_weak_contractions(cl.path_graph(3), T11))
    assert got == [(), (0,), (1,)]


def test_enumerate_contains_empty_set_when_edges_exist():
    rng = random.Random(2)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 5), unit=True)
        assert () in set(enumerate_valid_weak_contractions(g, T11))


def test_enumerate_four_cycle_matches_naive_filter():
    g = cl.cycle_graph(4)
    got = list(enumerate_valid_weak_contractions(g, T11))
    assert got == naive.naive_enumerate_weak(g, 1, 1)
    assert len(got) == 15  # every proper subset of the 4-cycle is valid


def test_enumerate_lex_order_and_oracle_equivalence():
    rng = random.Random(13)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 5), unit=rng.random() < 0.5)
        alpha = rng.choice([1, 2])
        beta = rng.choice([Fraction(1, 2), 1])
        got = list(enumerate_valid_weak_contractions(g, Tolerance(alpha, beta)))
        assert got == naive.naive_enumerate_weak(g, alpha, beta)
        assert got == sorted(got)
    for g, alpha in _repeating_partition_cases():
        got = list(enumerate_valid_weak_contractions(g, Tolerance(alpha, 1)))
        assert got == naive.naive_enumerate_weak(g, alpha, 1)
        assert got == sorted(got)
    for g, alpha, beta in _field_width_cases():
        got = list(enumerate_valid_weak_contractions(g, Tolerance(alpha, beta)))
        assert got == naive.naive_enumerate_weak(g, alpha, beta)


# ---------------------------------------------------------------------------
# oracle equivalence for the maximizers
# ---------------------------------------------------------------------------


def test_contraction_solvers_match_power_set_filter():
    rng = random.Random(71)
    for trial in range(40):
        g = random_connected_graph(
            rng, rng.randint(2, 6), m=None, unit=trial % 2 == 0
        )
        if g.edge_count > 8:
            continue
        alpha = rng.choice([1, 2])
        beta = rng.choice([Fraction(1, 2), 1, 2])
        t = Tolerance(alpha, beta)
        res = max_contraction_exact(g, t)
        assert (res.objective, res.witness) == naive.naive_max_contraction(g, alpha, beta)
        if g.edge_count > 0:
            res = max_weak_contraction_exact(g, t)
            assert (res.objective, res.witness) == naive.naive_max_weak_contraction(
                g, alpha, beta
            )
    for g, alpha in _repeating_partition_cases():
        t = Tolerance(alpha, 1)
        res = max_contraction_exact(g, t)
        assert (res.objective, res.witness) == naive.naive_max_contraction(g, alpha, 1)
        res = max_weak_contraction_exact(g, t)
        assert (res.objective, res.witness) == naive.naive_max_weak_contraction(g, alpha, 1)
    solved = 0
    for g, alpha, beta in _field_width_cases():
        t = Tolerance(alpha, beta)
        got = _solved_or_none(max_contraction_exact, g, t)
        assert got == naive.naive_max_contraction(g, alpha, beta)
        solved += got is not None
        if g.edge_count > 0:
            got = _solved_or_none(max_weak_contraction_exact, g, t)
            assert got == naive.naive_max_weak_contraction(g, alpha, beta)
    assert solved >= 10


# ---------------------------------------------------------------------------
# bicliques
# ---------------------------------------------------------------------------


def test_meb_k22():
    res = max_edge_biclique_exact(cl.complete_bipartite(2, 2))
    assert res.objective == 4
    assert res.witness == Biclique((0, 1), (0, 1))


def test_meb_empty_graph():
    res = max_edge_biclique_exact(BipartiteGraph(3, 3))
    assert res.objective == 0
    assert res.witness == Biclique((), ())


def test_meb_planted_no_noise():
    g, plant = cl.generate_planted_biclique(5, 5, 3, 3, 0, seed=6)
    res = max_edge_biclique_exact(g)
    assert res.objective == 9
    assert res.witness == plant


def test_mbb_k23_balance_caps_at_smaller_side():
    res = max_balanced_biclique_exact(cl.complete_bipartite(2, 3))
    assert res.objective == 2


def test_mbb_single_edge():
    res = max_balanced_biclique_exact(BipartiteGraph(1, 1, ((0, 0),)))
    assert res.objective == 1
    assert res.witness == Biclique((0,), (0,))


def test_mbb_tensor_of_three_vertex_path():
    p3 = BipartiteGraph(2, 1, ((0, 0), (1, 0)))
    tensor = cl.build_tensor_square(p3)
    res = max_balanced_biclique_exact(tensor.graph)
    assert res.objective == 2


def test_biclique_solvers_match_double_subset_filter():
    # every side pair up to 5x5, from empty to complete
    rng = random.Random(37)
    probs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    for left, right, prob in itertools.product(range(6), range(6), probs):
        b = cl.generate_random_bipartite(left, right, prob, rng.randrange(10**6))
        meb = max_edge_biclique_exact(b)
        obj, l, r = naive.naive_meb(b)
        assert meb.objective == obj
        assert (meb.witness.left, meb.witness.right) == (l, r)
        mbb = max_balanced_biclique_exact(b)
        t, l, r = naive.naive_mbb(b)
        assert mbb.objective == t
        assert (mbb.witness.left, mbb.witness.right) == (l, r)


def test_meb_at_least_square_of_mbb():
    rng = random.Random(41)
    for _ in range(30):
        b = cl.generate_random_bipartite(4, 4, Fraction(1, 2), rng.randrange(10**6))
        meb = max_edge_biclique_exact(b)
        mbb = max_balanced_biclique_exact(b)
        assert meb.objective >= mbb.objective**2
        if mbb.objective:
            assert mbb.witness.is_complete_in(b)


def test_biclique_cap_refusal():
    with pytest.raises(CapExceededError, match="cap \\(3\\)"):
        max_edge_biclique_exact(cl.complete_bipartite(4, 6), cap=3)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_solver_results_are_reproducible():
    g = random_connected_graph(random.Random(91), 6, unit=True)
    a = max_weak_contraction_exact(g, T11)
    b = max_weak_contraction_exact(g, T11)
    assert (a.objective, a.witness, a.explored) == (b.objective, b.witness, b.explored)


def test_search_counters_pinned():
    # node and valid-set counts of fixed searches: a change to the search
    # shows up here as a diff with a reason, not only as a change of speed
    g = random_connected_graph(random.Random(2024), 12, 18, unit=True)
    weak = max_weak_contraction_exact(g, T11)
    assert (weak.objective, weak.explored) == (17, 19)
    strong = max_contraction_exact(g, Tolerance(1, 2))
    assert (strong.objective, strong.explored) == (12, 2564)
    cells = [(l, r) for l in range(3) for r in range(4) if (l, r) not in ((0, 0), (2, 3))]
    gadget = cl.build_gadget(BipartiteGraph(3, 4, tuple(cells)), 1).combined
    assert gadget.edge_count == 17
    assert sum(1 for _ in enumerate_valid_weak_contractions(gadget, T11)) == 291
    b, _ = cl.generate_planted_biclique(20, 20, 6, 6, Fraction(1, 2), 0)
    meb = max_edge_biclique_exact(b)
    assert (meb.objective, meb.explored) == (42, 2527)
    mbb = max_balanced_biclique_exact(b)
    assert (mbb.objective, mbb.explored) == (6, 296)


def test_search_distance_evaluations_pinned(monkeypatch):
    # the searches of test_search_counters_pinned evaluate each vertex
    # partition once: the walker's pair scan runs once per distinct partition
    # met, not once per node (19, 2564 and 7258 scans when every node paid),
    # and the labels of the rows each scan reads tell the partitions apart.
    # Once the base rows are cached, a search derives every node's rows from
    # its parent's and runs no BFS or Dijkstra (72, 1636 and 11492 runs when
    # each block was searched), and it turns no scaled distance into a
    # Fraction: no witness is built for a failing node
    scanned: list[tuple[int, ...]] = []
    runs: list[int] = []
    searches: list[int] = []
    exacts: list[int] = []
    row_scan = solvers._row_scan

    def counting_scan(check, weak, packing):
        scan = row_scan(check, weak, packing)

        def counted(rows):
            scanned.append(getattr(rows, "labels", tuple(range(check.n))))
            return scan(rows)

        return counted

    monkeypatch.setattr(solvers, "_row_scan", counting_scan)
    from_source = ScaledDistances.from_source
    exact = ScaledDistances.exact

    def counted_search(self, src, cmask=0):
        runs.append(src)
        return from_source(self, src, cmask)

    def counted_exact(self, d):
        exacts.append(d)
        return exact(self, d)

    monkeypatch.setattr(ScaledDistances, "from_source", counted_search)
    monkeypatch.setattr(ScaledDistances, "exact", counted_exact)

    def evaluated(g, search):
        g.distances.base
        scanned.clear()
        before = (len(runs), len(exacts))
        result = search()
        searches.append((len(runs) - before[0], len(exacts) - before[1]))
        assert len(set(scanned)) == len(scanned)
        return len(scanned), result

    g = random_connected_graph(random.Random(2024), 12, 18, unit=True)
    calls, weak = evaluated(g, lambda: max_weak_contraction_exact(g, T11))
    assert (calls, weak.explored) == (12, 19)
    calls, strong = evaluated(g, lambda: max_contraction_exact(g, Tolerance(1, 2)))
    assert (calls, strong.explored) == (288, 2564)
    cells = [(l, r) for l in range(3) for r in range(4) if (l, r) not in ((0, 0), (2, 3))]
    gadget = cl.build_gadget(BipartiteGraph(3, 4, tuple(cells)), 1).combined
    calls, valid = evaluated(
        gadget, lambda: sum(1 for _ in enumerate_valid_weak_contractions(gadget, T11))
    )
    assert (calls, valid) == (1380, 291)
    assert searches == [(0, 0), (0, 0), (0, 0)]
