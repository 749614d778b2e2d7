"""graph-core: types, distances, generators, text round-trip."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import contractlab as cl
from contractlab import (
    Biclique,
    BipartiteGraph,
    Graph,
    GraphFormatError,
    UNREACHABLE,
    generate_planted_biclique,
    generate_random_bipartite,
    is_connected,
    parse_graph,
    render_graph,
    shortest_distances,
)
from contractlab.graphs import ScaledDistances
from contractlab.solvers import MergedRows, RowPacking

import naive
from builders import connected_graphs, random_connected_graph


# ---------------------------------------------------------------------------
# Graph invariants
# ---------------------------------------------------------------------------


def test_edges_are_canonicalized():
    g = Graph(4, ((2, 1), (0, 3), (0, 1)))
    assert g.edges == (
        (0, 1, Fraction(1)),
        (0, 3, Fraction(1)),
        (1, 2, Fraction(1)),
    )
    assert g.endpoints(1) == (0, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError, match="positive"):
        Graph(2, ((0, 1, 0),))
    with pytest.raises(ValueError, match="positive"):
        Graph(2, ((0, 1, Fraction(-1, 2)),))


def test_bipartite_to_graph_offsets_right_side():
    b = BipartiteGraph(2, 2, ((0, 0), (1, 1, Fraction(1, 2))))
    g = b.to_graph()
    assert g.vertex_count == 4
    assert g.edges == ((0, 2, Fraction(1)), (1, 3, Fraction(1, 2)))


def test_scaled_multiplies_weights():
    g = Graph(3, ((0, 1, Fraction(1, 2)), (1, 2, 3)))
    s = g.scaled(Fraction(2, 3))
    assert [w for _, _, w in s.edges] == [Fraction(1, 3), Fraction(2)]


# ---------------------------------------------------------------------------
# shortest_distances
# ---------------------------------------------------------------------------


def test_path_distance():
    g = cl.path_graph(3)
    assert shortest_distances(g)[0, 2] == 2


def test_single_vertex_matrix():
    dm = shortest_distances(Graph(1))
    assert dm.values == ((Fraction(0),),)


def test_four_cycle_distances():
    dm = shortest_distances(cl.cycle_graph(4))
    expect = {
        (0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1,
        (0, 2): 2, (1, 3): 2,
    }
    for (u, v), d in expect.items():
        assert dm[u, v] == d
        assert dm[v, u] == d


def test_unreachable_pairs():
    g = Graph(3, ((0, 1),))
    dm = shortest_distances(g)
    assert dm[0, 2] == UNREACHABLE
    assert not dm.is_reachable(1, 2)
    # uniform weight 2 (scaled BFS) and mixed rational weights (Dijkstra)
    uniform = Graph(4, ((0, 1, 2), (2, 3, 2)))
    dm = shortest_distances(uniform)
    assert dm[0, 2] == UNREACHABLE and dm[0, 1] == 2 and dm[3, 2] == 2
    assert not dm.is_reachable(1, 3) and dm.is_reachable(2, 3)
    mixed = Graph(5, ((0, 1, Fraction(1, 2)), (1, 2, 3), (3, 4, Fraction(2, 3))))
    dm = shortest_distances(mixed)
    assert dm[0, 2] == Fraction(7, 2) and dm[4, 3] == Fraction(2, 3)
    assert dm[2, 4] == UNREACHABLE and dm[3, 0] == UNREACHABLE


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=10, unit=False))
def test_distance_matrix_properties(g):
    dm = shortest_distances(g)
    n = g.vertex_count
    for u in range(n):
        assert dm[u, u] == 0
        for v in range(u + 1, n):
            assert dm[u, v] == dm[v, u]
            for w in range(n):
                assert dm[u, v] <= dm[u, w] + dm[w, v]


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=7, unit=True))
def test_unit_distances_match_bfs(g):
    dm = shortest_distances(g)
    for src in range(g.vertex_count):
        levels = naive.bfs_levels(g, src)
        for v in range(g.vertex_count):
            assert dm[src, v] == levels[v]


def test_distances_match_floyd_warshall_on_weighted_graphs():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 6), unit=False)
        dm = shortest_distances(g)
        fw = naive.fw_distances(g.vertex_count, g.edges)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                assert dm[u, v] == fw[u][v]


def _seeded_graphs(rng):
    """12 seeded connected graphs on 2-9 vertices (unit and rational weights
    in turn) and a 6-cycle with a chord whose weights are all 2."""
    graphs = [random_connected_graph(rng, rng.randint(2, 9), unit=unit) for unit in (True, False) * 6]
    return graphs + [Graph(6, tuple((u, v, 2) for u, v, _ in cl.cycle_graph(6).edges) + ((0, 3, 2),))]


def test_all_pairs_shares_rows_within_blocks():
    # all_pairs runs one search per block of merged vertices and hands the
    # block one shared row; the values must be each vertex's own search
    rng = random.Random(23)
    graphs = _seeded_graphs(rng) + [Graph(4, ((0, 1, 2), (2, 3, 2)))]
    largest_block = 0
    for g in graphs:
        engine = ScaledDistances(g)
        # the graph's own engine caches the uncontracted rows
        assert g.distances.base == [engine.from_source(s) for s in range(g.vertex_count)]
        full = (1 << g.edge_count) - 1
        masks = [0, full] + [rng.getrandbits(g.edge_count) for _ in range(6)]
        for mask in masks:
            rows = engine.all_pairs(mask)
            assert rows == [engine.from_source(s, mask) for s in range(g.vertex_count)]
            blocks = {tuple(v for v, d in enumerate(row) if d == 0) for row in rows}
            assert len({id(row) for row in rows}) == len(blocks)
            largest_block = max(largest_block, max(map(len, blocks)))
    assert largest_block >= 4


def _unpack(row: int, packing, n: int) -> list[int]:
    """The distances packed in ``row``; its guard bits and the bits above its
    n fields must be clear."""
    width = packing.width
    assert row & packing.guards == 0 and row >> (n * width) == 0
    return [(row >> (y * width)) & ((1 << (width - 1)) - 1) for y in range(n)]


def test_merged_rows_match_all_pairs():
    # the exact searches derive a child's packed rows from its parent's, one
    # merge at a time; merging edges in seeded orders, every derived row must
    # decode to a fresh all_pairs of the merged edges, one row per block, and
    # reading the child must leave the parent's rows as they were
    order_rng = random.Random(31)
    merges = 0
    for g in _seeded_graphs(random.Random(23)):
        engine = g.distances
        packing = RowPacking.for_rows(engine.base)
        base = [packing.pack(row) for row in engine.base]
        n, m = g.vertex_count, g.edge_count
        assert [_unpack(row, packing, n) for row in base] == engine.base
        assert packing.top == max(map(max, engine.base)) + 1
        for _ in range(3):
            order = list(range(m))
            order_rng.shuffle(order)
            labels, rows, mask = tuple(range(n)), base, 0
            for e in order:
                mask |= 1 << e
                u, v, _ = g.edges[e]
                a, b = sorted((labels[u], labels[v]))
                if a != b:
                    parent_rows = rows
                    parent = [rows[x] for x in range(n)]
                    labels = tuple(a if x == b else x for x in labels)
                    rows = MergedRows(rows, a, b, labels, packing)
                    merges += 1
                derived = [rows[x] for x in range(n)]
                assert [_unpack(row, packing, n) for row in derived] == engine.all_pairs(mask)
                assert len({id(row) for row in derived}) == len(set(labels))
                assert [parent_rows[x] for x in range(n)] == parent
    assert merges >= 100


def test_graph_builds_one_engine_and_one_set_of_base_rows():
    g = cl.cycle_graph(5)
    assert g.distances is g.distances
    assert g.distances.base is g.distances.base
    # the cache is no field: equality and hashing ignore it
    twin = Graph(g.vertex_count, g.edges)
    assert g == twin and hash(g) == hash(twin)
    assert twin.distances is not g.distances
    assert twin.distances.base == g.distances.base


def test_verifiers_leave_base_rows_unchanged():
    # the rows are shared by every caller, so none may write to them
    g = random_connected_graph(random.Random(3), 6, 8, unit=False)
    base = g.distances.base
    snapshot = [list(row) for row in base]
    row_ids = [id(row) for row in base]
    n, m = g.vertex_count, g.edge_count
    check = cl.ToleranceCheck(g, cl.Tolerance(1, 1))
    for mask in range(1 << m):
        ids = [e for e in range(m) if (mask >> e) & 1]
        for tol in (cl.Tolerance(1, 1), cl.Tolerance(2, 0)):
            cl.is_contraction(g, ids, tol)
            cl.is_weak_contraction(g, ids, tol)
            cl.violation_witness(g, ids, tol, weak=True)
        cl.contract(g, ids)
        cl.contracted_distance(g, ids, 0, n - 1)
        check.failing_pairs(mask, weak=True)
        check.failing_pairs(mask, weak=False)
    shortest_distances(g)
    cl.max_contraction_exact(g, cl.Tolerance(1, 1))
    cl.max_weak_contraction_exact(g, cl.Tolerance(1, 1))
    list(cl.enumerate_valid_weak_contractions(g, cl.Tolerance(1, 1)))
    assert g.distances.base is base
    assert [id(row) for row in base] == row_ids
    assert base == snapshot


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def test_is_connected_basic():
    assert is_connected(cl.path_graph(3))
    assert not is_connected(Graph(2))
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))


def test_gadget_of_connected_bipartite_is_connected():
    rng = random.Random(5)
    found = 0
    while found < 10:
        b = generate_random_bipartite(3, 3, Fraction(2, 3), rng.randrange(10**6))
        if not is_connected(b.to_graph()):
            continue
        found += 1
        combined = cl.build_gadget(b, 1).combined
        assert is_connected(combined)
        assert naive.is_connected_naive(combined)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_random_bipartite_probability_extremes():
    full = generate_random_bipartite(2, 2, 1, seed=9)
    assert full.edge_count == 4
    empty = generate_random_bipartite(3, 3, 0, seed=9)
    assert empty.edge_count == 0


def test_random_bipartite_deterministic():
    a = generate_random_bipartite(4, 4, Fraction(1, 2), seed=7)
    b = generate_random_bipartite(4, 4, Fraction(1, 2), seed=7)
    assert a == b
    c = generate_random_bipartite(4, 4, Fraction(1, 2), seed=8)
    assert a != c  # overwhelmingly likely for this seed pair


def test_planted_biclique_no_noise_is_exact_plant():
    g, plant = generate_planted_biclique(4, 4, 2, 2, 0, seed=1)
    assert g.edge_count == 4
    assert plant.is_complete_in(g)
    assert set(g.edge_set()) == {(l, r) for l in plant.left for r in plant.right}


def test_planted_biclique_lower_bounds_meb():
    g, plant = generate_planted_biclique(5, 5, 3, 2, 0, seed=2)
    assert cl.max_edge_biclique_exact(g).objective >= 6
    g2, _ = generate_planted_biclique(5, 5, 3, 3, Fraction(1, 4), seed=3)
    assert cl.max_edge_biclique_exact(g2).objective >= 9


def test_planted_biclique_deterministic():
    a = generate_planted_biclique(5, 5, 2, 3, Fraction(1, 3), seed=42)
    b = generate_planted_biclique(5, 5, 2, 3, Fraction(1, 3), seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_parse_simple_path():
    g = parse_graph("graph 3 2\n0 1 1\n1 2 1\n")
    assert isinstance(g, Graph)
    assert g == cl.path_graph(3)


def test_parse_bipartite_and_comments():
    text = "# a comment\nbipartite 2 2 2\n0 0\n1 1 1/2\n"
    b = parse_graph(text)
    assert isinstance(b, BipartiteGraph)
    assert b.edges == ((0, 0, Fraction(1)), (1, 1, Fraction(1, 2)))


def test_round_trip_is_canonical_fixed_point():
    text = "graph 4 3\n2 1\n0 3 2/4\n0 1\n"
    once = render_graph(parse_graph(text))
    assert once == "graph 4 3\n0 1\n0 3 1/2\n1 2\n"
    assert render_graph(parse_graph(once)) == once


@settings(max_examples=50, deadline=None)
@given(connected_graphs(max_n=6, unit=False))
def test_parse_render_round_trip(g):
    assert parse_graph(render_graph(g)) == g


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**9 - 1))
@settings(max_examples=50, deadline=None)
def test_parse_render_round_trip_bipartite(left, right, mask):
    edges = [
        (l, r)
        for l in range(left)
        for r in range(right)
        if (mask >> (l * right + r)) & 1
    ]
    b = BipartiteGraph(left, right, tuple(edges))
    assert parse_graph(render_graph(b)) == b


@pytest.mark.parametrize(
    "text,reason",
    [
        ("", "empty-input"),
        ("graph 2\n", "malformed-header"),
        ("lattice 2 1\n0 1\n", "malformed-header"),
        ("graph x 1\n0 1\n", "malformed-header"),
        ("graph 2 1\n0 0 1\n", "self-loop"),
        ("graph 2 1\n0 3 1\n", "index-out-of-range"),
        ("graph 2 1\n0 1 0\n", "non-positive-weight"),
        ("graph 2 1\n0 1 -2\n", "non-positive-weight"),
        ("graph 2 1\n0 1 1.5\n", "malformed-weight"),
        ("graph 2 1\n0 1 1/0\n", "malformed-weight"),
        ("graph 3 2\n0 1\n1 0\n", "duplicate-edge"),
        ("graph 3 2\n0 1\n", "missing-edges"),
        ("graph 3 1\n0 1\n1 2\n", "trailing-content"),
        ("graph 2 1\n0\n", "malformed-edge"),
        ("bipartite 2 2 1\n0 2\n", "index-out-of-range"),
    ],
)
def test_parse_errors_are_distinct(text, reason):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.reason == reason


def test_biclique_validation():
    b = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0)))
    assert Biclique((0,), (0, 1)).is_complete_in(b)
    assert not Biclique((0, 1), (0, 1)).is_complete_in(b)
    with pytest.raises(ValueError):
        Biclique((0, 1), (0, 1)).validate_in(b)
