"""contraction: quotient construction, verifiers, witnesses, oracle equivalence."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import contractlab as cl
from contractlab import (
    DisconnectedGraphError,
    Graph,
    Tolerance,
    contract,
    contracted_distance,
    is_contraction,
    is_weak_contraction,
    violation_witness,
)

from contractlab.graphs import ScaledDistances

import naive
from builders import connected_graphs, graph_and_subset, random_connected_graph, tolerances

T11 = Tolerance(1, 1)


# ---------------------------------------------------------------------------
# Tolerance
# ---------------------------------------------------------------------------


def test_tolerance_validation():
    t = Tolerance("1/2", 0)
    assert t.alpha == Fraction(1, 2) and t.beta == 0
    with pytest.raises(ValueError):
        Tolerance(0, 1)
    with pytest.raises(ValueError):
        Tolerance(1, -1)


# ---------------------------------------------------------------------------
# contract / contracted_distance
# ---------------------------------------------------------------------------


def test_contract_path_single_edge():
    g = cl.path_graph(3)
    q = contract(g, [0])
    assert q.supernode_count == 2
    assert q.partition == (0, 0, 1)
    assert q.quotient.edges == ((0, 1, Fraction(1)),)
    assert q.distance(0, 2) == 1
    # disconnected inputs: uniform weight 2 and mixed rational weights
    q = contract(Graph(4, ((0, 1, 2), (2, 3, 2))), [0])
    assert q.partition == (0, 0, 1, 2)
    assert q.distance(0, 2) == cl.UNREACHABLE and q.distance(2, 3) == 2
    mixed = Graph(5, ((0, 1, Fraction(1, 2)), (1, 2, 3), (3, 4, Fraction(2, 3))))
    q = contract(mixed, [1])
    assert q.partition == (0, 1, 1, 2, 3)
    assert q.distance(0, 2) == Fraction(1, 2) and q.distance(3, 4) == Fraction(2, 3)
    assert q.distance(2, 4) == cl.UNREACHABLE
    # block {0, 3, 4} of the 5-cycle: 0 is its minimum but not adjacent to 3
    q = contract(cl.cycle_graph(5), [1, 4])  # edges (0,4) and (3,4)
    assert q.partition == (0, 1, 2, 0, 0)
    assert q.supernode_count == 3
    assert q.quotient.edges == ((0, 1, Fraction(1)), (0, 2, Fraction(1)), (1, 2, Fraction(1)))
    assert q.distance(3, 1) == 1 and q.distance(1, 2) == 1


def test_contract_empty_set_is_identity():
    g = cl.cycle_graph(5)
    q = contract(g, [])
    assert q.supernode_count == g.vertex_count
    assert q.quotient == g
    dm = cl.shortest_distances(g)
    for u in range(5):
        for v in range(5):
            assert q.distance(u, v) == dm[u, v]


def test_contract_four_cycle_parallel_edges_collapse():
    # s-a-b-t-s with C = {(s,a), (b,t)}: two blocks joined by two parallel
    # unit edges, collapsed to one quotient edge of weight 1
    g = cl.cycle_graph(4)  # edges: (0,1) (0,3) (1,2) (2,3)
    sa = 0  # (0,1)
    bt = 3  # (2,3)
    q = contract(g, [sa, bt])
    assert q.supernode_count == 2
    assert q.quotient.edge_count == 1
    assert q.quotient.edges[0][2] == 1
    assert q.distance(0, 2) == 1  # d_C(s, b)


def test_contract_invalid_edge_id():
    with pytest.raises(ValueError, match="out of range"):
        contract(cl.path_graph(3), [5])
    # the id is checked before connectivity, so a disconnected graph with a
    # bad id is a bad-input error, not a DisconnectedGraphError
    disconnected = Graph(4, ((0, 1), (2, 3)))
    for verify in (is_contraction, is_weak_contraction):
        with pytest.raises(ValueError, match="out of range") as info:
            verify(disconnected, [5], T11)
        assert not isinstance(info.value, DisconnectedGraphError)
    for weak in (False, True):
        with pytest.raises(ValueError, match="out of range") as info:
            violation_witness(disconnected, [5], T11, weak=weak)
        assert not isinstance(info.value, DisconnectedGraphError)


def test_contracted_distance_examples():
    p3 = cl.path_graph(3)
    assert contracted_distance(p3, [0], 0, 2) == 1
    assert contracted_distance(p3, [0], 1, 1) == 0
    p4 = cl.path_graph(4)
    assert contracted_distance(p4, [0, 2], 0, 3) == 1
    with pytest.raises(ValueError, match="out of range"):
        contracted_distance(p3, [0], 0, 9)
    # agrees with the full quotient on every pair, disconnected graphs included
    rng = random.Random(17)
    graphs = [Graph(4, ((0, 1, 2), (2, 3, 2)))]
    for unit in (True, False) * 6:
        graphs.append(random_connected_graph(rng, rng.randint(2, 7), unit=unit))
    for g in graphs:
        ids = [e for e in range(g.edge_count) if rng.random() < 0.5]
        q = contract(g, ids)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                assert contracted_distance(g, ids, u, v) == q.distance(u, v)


def test_quotient_weight_keeps_minimum():
    g = Graph(4, ((0, 1), (0, 2, 3), (1, 3, Fraction(1, 2)), (2, 3)))
    q = contract(g, [0])  # merge 0 and 1
    pair_weights = {(u, v): w for u, v, w in q.quotient.edges}
    # block {0,1} connects to 3 via weight-1/2 edge (1,3); (2,3) stays
    assert pair_weights[(0, 2)] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# verifiers: worked examples
# ---------------------------------------------------------------------------


def test_strong_path_single_edge_at_11():
    assert is_contraction(cl.path_graph(3), [0], T11)


def test_strong_beta_zero_rejects_any_nonempty_set():
    rng = random.Random(17)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 6), unit=False)
        sub = [rng.randrange(g.edge_count)]
        for alpha in (1, 2, 10):
            assert not is_contraction(g, sub, Tolerance(alpha, 0))
        assert is_contraction(g, [], Tolerance(1, 0))


def test_strong_empty_set_valid_for_alpha_at_least_one():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(2, 5), unit=False)
        for alpha in (1, Fraction(3, 2), 10):
            for beta in (0, Fraction(1, 2), 2):
                assert is_contraction(g, [], Tolerance(alpha, beta))


def test_weak_path4_disjoint_ends_invalid():
    g = cl.path_graph(4)
    assert not is_weak_contraction(g, [0, 2], T11)


def test_weak_full_set_never_proper():
    g = cl.cycle_graph(4)
    assert not is_weak_contraction(g, [0, 1, 2, 3], T11)


def test_weak_four_cycle_opposite_pair_valid():
    g = cl.cycle_graph(4)
    assert is_weak_contraction(g, [0, 3], T11)


def test_weak_spanning_proper_subset_merges_everything():
    # every pair merged means every pair exempt, so any proper connected
    # spanning subset is valid
    g = cl.cycle_graph(4)
    assert is_weak_contraction(g, [0, 1, 2], T11)


def test_verifiers_require_connected_input():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraphError):
        is_contraction(g, [], T11)
    with pytest.raises(DisconnectedGraphError):
        is_weak_contraction(g, [0], T11)
    # connectivity is read off row 0, so an isolated vertex 0 and an isolated
    # last vertex are both refused
    for h in (g, Graph(3, ((1, 2),)), Graph(3, ((0, 1),)), Graph(2)):
        with pytest.raises(DisconnectedGraphError):
            cl.ToleranceCheck(h, T11)


def test_tolerance_check_on_trivial_graphs():
    # no vertex and one vertex are connected: every set but the (empty) full
    # set in weak mode is valid, and there is no pair to fail
    for n in (0, 1):
        check = cl.ToleranceCheck(Graph(n), T11)
        assert check.first_violation(0, weak=False) is None
        assert check.failing_pairs(0, weak=False) == []
        assert check.first_violation(0, weak=True).kind == "not-proper-subset"


def test_pair_scan_searches_rows_lazily(monkeypatch):
    # row u is searched only when the lexicographic scan reaches u, once per
    # block of merged vertices
    runs: list[int] = []
    from_source = ScaledDistances.from_source

    def counted(self, src, cmask=0):
        runs.append(src)
        return from_source(self, src, cmask)

    monkeypatch.setattr(ScaledDistances, "from_source", counted)
    # beta = 0 fails any merged pair: contracting edge (0,1) fails in row 0
    check = cl.ToleranceCheck(cl.path_graph(5), Tolerance(1, 0))
    runs.clear()
    w = check.first_violation(0b1, weak=False)
    assert (w.u, w.v) == (0, 1) and runs == [0]
    # two contracted edges shorten no distance by more than beta = 2: a valid
    # set, with blocks {0,5} {1} {2,3} {4} of the 6-cycle's edges (0,5) and (2,3)
    g = cl.cycle_graph(6)
    check = cl.ToleranceCheck(g, Tolerance(1, 2))
    assert [g.endpoints(e) for e in (1, 3)] == [(0, 5), (2, 3)]
    runs.clear()
    assert check.first_violation(0b1010, weak=False) is None
    assert runs == [0, 1, 2, 4]
    runs.clear()
    assert check.failing_pairs(0b1010, weak=True) == []
    assert runs == [0, 1, 2, 4]


# ---------------------------------------------------------------------------
# violation_witness
# ---------------------------------------------------------------------------


def test_witness_absent_on_valid_inputs():
    assert violation_witness(cl.path_graph(3), [0], T11, weak=False) is None
    assert violation_witness(cl.cycle_graph(4), [0, 3], T11, weak=True) is None


def test_witness_path4_lex_smallest_pair():
    w = violation_witness(cl.path_graph(4), [0, 2], T11, weak=True)
    assert w.kind == "pair"
    assert (w.u, w.v) == (0, 3)
    assert w.distance == 3
    assert w.contracted_distance == 1


def test_witness_full_set_kind():
    w = violation_witness(cl.path_graph(3), [0, 1], T11, weak=True)
    assert w.kind == "not-proper-subset"


def test_witness_is_lexicographically_first_violation():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        g = random_connected_graph(rng, rng.randint(3, 6), unit=True)
        m = g.edge_count
        sub = [e for e in range(m) if rng.random() < 0.5]
        w = violation_witness(g, sub, T11, weak=False)
        base = naive.fw_distances(g.vertex_count, g.edges)
        label, table = naive.induced_distances(g, sub)
        violations = [
            (u, v)
            for u in range(g.vertex_count)
            for v in range(u + 1, g.vertex_count)
            if table[label[u]][label[v]] < base[u][v] - 1
        ]
        if w is None:
            assert not violations
        else:
            checked += 1
            assert (w.u, w.v) == violations[0]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graph_and_subset(max_n=6, unit=False))
def test_monotone_shrinkage(gs):
    g, subset = gs
    q = contract(g, subset)
    dm = cl.shortest_distances(g)
    n = g.vertex_count
    for u in range(n):
        for v in range(n):
            assert q.distance(u, v) <= dm[u, v]
    if subset and g.edge_count > len(subset):
        rest = [e for e in range(g.edge_count) if e not in set(subset)]
        bigger = contract(g, list(subset) + rest[:1])
        for u in range(n):
            for v in range(n):
                assert bigger.distance(u, v) <= q.distance(u, v)


@settings(max_examples=50, deadline=None)
@given(graph_and_subset(max_n=6, unit=False), tolerances())
def test_strong_implies_weak(gs, tol):
    g, subset = gs
    t = Tolerance(*tol)
    if is_contraction(g, subset, t) and len(subset) < g.edge_count:
        assert is_weak_contraction(g, subset, t)


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_n=6, unit=True), st.integers(0, 10**6))
def test_single_edge_weak_safety_at_11(g, pick):
    if g.edge_count == 0 or g.edge_count == 1:
        return  # a single edge is the whole edge set: properness fails
    e = pick % g.edge_count
    assert is_weak_contraction(g, [e], T11)


@settings(max_examples=40, deadline=None)
@given(
    graph_and_subset(max_n=5, unit=False),
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 3)]),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
)
def test_scale_covariance(gs, c, beta):
    g, subset = gs
    scaled = g.scaled(c)
    assert is_weak_contraction(g, subset, Tolerance(1, beta)) == is_weak_contraction(
        scaled, subset, Tolerance(1, c * beta)
    )


def test_quotient_distance_matches_witness_arithmetic():
    # the quotient route and the zero-weight engine route must agree
    rng = random.Random(47)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randint(2, 6), unit=False)
        sub = [e for e in range(g.edge_count) if rng.random() < 0.4]
        q = contract(g, sub)
        label, table = naive.induced_distances(g, sub)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                assert q.distance(u, v) == table[label[u]][label[v]]


# ---------------------------------------------------------------------------
# oracle equivalence (exhaustive on small graphs)
# ---------------------------------------------------------------------------


def _all_connected_graphs(n, max_edges=None):
    """Every connected labeled unit-weight graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        if max_edges is not None and len(edges) > max_edges:
            continue
        g = Graph(n, tuple(edges))
        if cl.is_connected(g):
            yield g


def test_verifier_oracle_equivalence_exhaustive_small():
    count = 0
    for n in (2, 3, 4):
        for g in _all_connected_graphs(n):
            for size in range(g.edge_count + 1):
                for sub in itertools.combinations(range(g.edge_count), size):
                    count += 1
                    assert is_contraction(g, sub, T11) == naive.naive_is_contraction(
                        g, sub, 1, 1
                    )
                    assert is_weak_contraction(g, sub, T11) == naive.naive_is_weak_contraction(
                        g, sub, 1, 1
                    )
    assert count > 500


def test_verifier_oracle_equivalence_weighted_random_tolerances():
    rng = random.Random(101)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(2, 5), unit=False)
        alpha = rng.choice([1, 2, Fraction(3, 2)])
        beta = rng.choice([0, Fraction(1, 2), 1, 2])
        t = Tolerance(alpha, beta)
        for _ in range(10):
            sub = [e for e in range(g.edge_count) if rng.random() < 0.5]
            assert is_contraction(g, sub, t) == naive.naive_is_contraction(g, sub, alpha, beta)
            assert is_weak_contraction(g, sub, t) == naive.naive_is_weak_contraction(
                g, sub, alpha, beta
            )
