"""graph-core: types, distances, generators, text round-trip."""

from __future__ import annotations

import math
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
    parse_rational,
    render_graph,
    shortest_distances,
)
from contractlab.graphs import ScaledDistances, require_connected
from contractlab.solvers import RowPacking, _evaluation

import naive
from builders import connected_graphs, random_connected_graph, unpack_matrix


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
    # (constructor, counts, edges, reason, message word, position blamed)
    cases = [
        (Graph, (2,), ((0, 1), (0, 0)), "self-loop", "self-loop", 1),
        (Graph, (3,), ((0, 1), (1, 2), (1, 0)), "duplicate-edge", "duplicate", 2),
        (Graph, (2,), ((0, 2),), "index-out-of-range", "out of range", 0),
        (Graph, (2,), ((0, 1, 0),), "non-positive-weight", "positive", 0),
        (Graph, (2,), ((0, 1, Fraction(-1, 2)),), "non-positive-weight", "positive", 0),
        (BipartiteGraph, (2, 3), ((0, 0), (2, 0)), "index-out-of-range", "out of range", 1),
        (BipartiteGraph, (2, 3), ((0, 3),), "index-out-of-range", "out of range", 0),
        (BipartiteGraph, (2, 3), ((0, 1), (1, 0), (0, 1, 2)), "duplicate-edge", "duplicate", 2),
        (BipartiteGraph, (2, 3), ((0, 0, 0),), "non-positive-weight", "positive", 0),
    ]
    for cls, counts, edges, reason, word, position in cases:
        with pytest.raises(GraphFormatError, match=word) as exc:
            cls(*counts, edges)
        assert (exc.value.reason, exc.value.edge) == (reason, position)


@pytest.mark.parametrize("cls, counts", [(Graph, (3,)), (BipartiteGraph, (2, 3))], ids=["graph", "bipartite"])
@pytest.mark.parametrize("weight", [0, -3, Fraction(0), Fraction(-1, 2), "0", "-1/2"], ids=repr)
def test_non_positive_weight_is_refused_as_given(cls, counts, weight):
    # the weight is tested after its Fraction conversion, whatever type it
    # came as; the message quotes it as given and blames its input position
    with pytest.raises(GraphFormatError) as exc:
        cls(*counts, ((0, 1), (1, 2, weight)))
    err = exc.value
    assert (err.reason, err.edge) == ("non-positive-weight", 1)
    assert err.message == f"edge weight must be strictly positive, got {weight}"


@pytest.mark.parametrize("cls, counts", [(Graph, (3,)), (BipartiteGraph, (2, 3))], ids=["graph", "bipartite"])
def test_tiny_positive_weight_is_accepted(cls, counts):
    tiny = Fraction(1, 10**30)
    assert cls(*counts, ((1, 2, tiny),)).edges == ((1, 2, tiny),)


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
    assert dm[1, 2] == UNREACHABLE
    # uniform weight 2 (scaled BFS) and mixed rational weights (Dijkstra)
    uniform = Graph(4, ((0, 1, 2), (2, 3, 2)))
    dm = shortest_distances(uniform)
    assert dm[0, 2] == UNREACHABLE and dm[0, 1] == 2 and dm[3, 2] == 2
    assert dm[1, 3] == UNREACHABLE and dm[2, 3] != UNREACHABLE
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


def test_scaled_weights_are_exact_products():
    # the engine scales each weight by integer arithmetic; the value must be
    # the Fraction product w * scale, with scale the lcm of the denominators
    rng = random.Random(2210)
    graphs = [random_connected_graph(rng, rng.randint(2, 9), unit=False) for _ in range(20)]
    graphs.append(Graph(3, ((0, 1, Fraction(7, 6)), (1, 2, Fraction(9, 4)), (0, 2, 5))))
    assert any(g.distances.scale > 1 for g in graphs)
    for g in graphs:
        engine = g.distances
        assert engine.scale == math.lcm(1, *(w.denominator for _, _, w in g.edges))
        assert engine.weights == [int(w * engine.scale) for _, _, w in g.edges]


def test_from_source_matches_scaled_floyd_warshall():
    # the one search kernel (levels grown by their zero-cost closure for
    # uniform weights, Dijkstra otherwise) against Floyd-Warshall over
    # Fractions with the contracted weights set to 0, scaled afterwards:
    # unit, uniform non-unit and mixed rational weights, sparse graphs that
    # fall apart (-1 entries), and no, random and all edges contracted
    rng = random.Random(3535)
    weightings = {
        "unit": lambda: 1,
        "all 3": lambda: 3,
        "all 1/2": lambda: Fraction(1, 2),
        "all 5/2": lambda: Fraction(5, 2),
        "mixed": lambda: Fraction(rng.randint(1, 6), rng.randint(1, 4)),
    }
    seen = set()
    for name, weight in weightings.items():
        for trial in range(12):
            n = rng.randint(1, 16)
            density = rng.choice((0.15, 0.3, 0.6))
            edges = tuple(
                (u, v, weight()) for u in range(n) for v in range(u + 1, n) if rng.random() < density
            )
            g = Graph(n, edges)
            m = g.edge_count
            engine = ScaledDistances(g)
            scale = math.lcm(1, *(w.denominator for _, _, w in g.edges))
            for mask in (0, rng.getrandbits(m), (1 << m) - 1):
                kept = [(u, v, 0 if mask >> e & 1 else w) for e, (u, v, w) in enumerate(g.edges)]
                ref = [
                    [-1 if d == naive.INF else int(d * scale) for d in row]
                    for row in naive.fw_distances(n, kept)
                ]
                assert [engine.from_source(s, mask) for s in range(n)] == ref, (name, trial, mask)
                seen.add((name, engine.uniform, mask != 0, any(-1 in row for row in ref)))
    # every branch of the kernel met: unit, scaled-uniform and mixed weights,
    # each with and without contracted edges, and unreachable vertices
    assert {(u, c) for _, u, c, _ in seen} >= {(1, False), (1, True), (3, False), (3, True), (5, True)}
    assert {(None, c) for name, u, c, _ in seen if name == "mixed"} == {(None, False), (None, True)}
    assert any(disconnected for *_, disconnected in seen)


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


def test_merged_rows_match_all_pairs():
    # the exact searches derive a child's packed distance matrix from its
    # parent's, one merge at a time, inside their evaluation call; merging
    # edges in seeded orders, every derived matrix must decode to a fresh
    # all_pairs of the merged edges
    order_rng = random.Random(31)
    merges = 0
    for g in _seeded_graphs(random.Random(23)):
        engine = g.distances
        packing = RowPacking.for_rows(engine.base)
        base = packing.pack(engine.base)
        n, m = g.vertex_count, g.edge_count
        assert unpack_matrix(base, packing, n) == engine.base
        assert packing.top == max(map(max, engine.base)) + 1
        evaluate = _evaluation(cl.ToleranceCheck(g, cl.Tolerance(1, 1)), False, packing)
        for _ in range(3):
            order = list(range(m))
            order_rng.shuffle(order)
            labels, matrix, mask = "".join(map(chr, range(n))), base, 0
            for e in order:
                mask |= 1 << e
                u, v, _ = g.edges[e]
                a, b = sorted((labels[u], labels[v]))
                if a != b:
                    labels = labels.replace(b, a)
                    matrix = evaluate(labels, matrix, ord(a), ord(b), 0)[1]
                    merges += 1
                assert unpack_matrix(matrix, packing, n) == engine.all_pairs(mask)
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


def test_adjacency_carries_edge_ids_and_is_the_engines():
    # one set of incidence lists per graph, in edge-id order; the distance
    # engine walks the same lists rather than building its own
    g = random_connected_graph(random.Random(8), 7, 12, unit=False)
    expected = [[] for _ in range(g.vertex_count)]
    for eid, (u, v, _) in enumerate(g.edges):
        expected[u].append((v, eid))
        expected[v].append((u, eid))
    assert g.adjacency == expected
    assert g.adjacency is g.adjacency
    assert g.distances.adj is g.adjacency


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


def test_components_found_once():
    g = Graph(6, ((4, 5), (0, 2)))
    assert g.components == [[0, 2], [1], [3], [4, 5]]
    assert g.components is g.components
    with pytest.raises(cl.DisconnectedGraphError, match="^no way through$"):
        require_connected(g, "no way through")
    require_connected(cl.path_graph(3), "unused")
    # fewer than n - 1 edges decide from the counts: no incidence list is built
    sparse = Graph(10**20, ((0, 1),))
    assert not is_connected(sparse) and "adjacency" not in sparse.__dict__


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
    assert set(g.edge_set) == {(l, r) for l in plant.left for r in plant.right}


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


_PARSE_ERRORS = [
    ("", "empty-input", None),
    ("graph 2\n", "malformed-header", 1),
    ("lattice 2 1\n0 1\n", "malformed-header", 1),
    ("graph x 1\n0 1\n", "malformed-header", 1),
    ("graph 2 1\n0 0 1\n", "self-loop", 2),
    ("graph 2 1\n0 3 1\n", "index-out-of-range", 2),
    ("graph 2 1\n-1 1\n", "index-out-of-range", 2),
    ("graph 2 1\n0 1 0\n", "non-positive-weight", 2),
    ("graph 2 1\n0 1 -2\n", "non-positive-weight", 2),
    ("graph 2 1\n0 1 1.5\n", "malformed-weight", 2),
    ("graph 2 1\n0 1 1/0\n", "malformed-weight", 2),
    ("graph 3 2\n0 1\n1 0\n", "duplicate-edge", 3),
    ("# c\ngraph 3 2\n0 1\n\n0 1\n", "duplicate-edge", 5),
    ("graph 3 2\n0 1\n", "missing-edges", None),
    ("graph 3 1\n0 1\n1 2\n", "trailing-content", 3),
    ("graph 2 1\n0\n", "malformed-edge", 2),
    ("bipartite 2 2 1\n0 2\n", "index-out-of-range", 2),
    ("bipartite 2 2 2\n0 1\n0 1 1/2\n", "duplicate-edge", 3),
    # integers are ASCII decimal: no "_", no "+", no other script's digits
    ("graph 1_0 1\n0 1\n", "malformed-header", 1),
    ("graph -1 0\n", "malformed-header", 1),
    ("graph \u0663 1\n0 1\n", "malformed-header", 1),
    ("graph 2 1\n0 +1\n", "malformed-edge", 2),
    ("graph 3 1\n0 \u0662\n", "malformed-edge", 2),
    ("graph 2 1\n0 1 \u0663\n", "malformed-weight", 2),
    # token errors come before edge-rule errors, whatever their lines
    ("graph 3 2\n0 0\n1 x\n", "malformed-edge", 3),
]


# (token, value or the ValueError message), as parse_rational gave them when it
# handed the matched token to Fraction(str)
_RATIONALS = [
    ("007", Fraction(7)),
    ("-0", Fraction(0)),
    ("0/5", Fraction(0)),
    ("12/8", Fraction(3, 2)),
    ("1/0", "zero denominator in rational: '1/0'"),
    (" 3/4 ", Fraction(3, 4)),
    ("1.5", "not a rational (expected integer or p/q): '1.5'"),
    ("+1", "not a rational (expected integer or p/q): '+1'"),
    ("1_0", "not a rational (expected integer or p/q): '1_0'"),
    ("3/-4", "not a rational (expected integer or p/q): '3/-4'"),
    ("\u0663", "not a rational (expected integer or p/q): '\u0663'"),
]


@pytest.mark.parametrize("token,expected", _RATIONALS, ids=[repr(t) for t, _ in _RATIONALS])
def test_parse_rational_values_and_refusals(token, expected):
    if isinstance(expected, Fraction):
        value = parse_rational(token)
        assert type(value) is Fraction and value == expected
    else:
        with pytest.raises(ValueError) as exc:
            parse_rational(token)
        assert type(exc.value) is ValueError and str(exc.value) == expected


@pytest.mark.parametrize(
    "text,reason,line", _PARSE_ERRORS, ids=[f"{text}-{reason}" for text, reason, _ in _PARSE_ERRORS]
)
def test_parse_errors_are_distinct(text, reason, line):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert (exc.value.reason, exc.value.line) == (reason, line)
    if line is not None:
        assert str(exc.value).endswith(f" (line {line})")


def test_biclique_validation():
    b = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0)))
    assert Biclique((0,), (0, 1)).is_complete_in(b)
    assert not Biclique((0, 1), (0, 1)).is_complete_in(b)
    # an index past either side is not a vertex of b
    assert not Biclique((2,), (0,)).is_complete_in(b)
    assert not Biclique((0,), (2,)).is_complete_in(b)
    with pytest.raises(ValueError):
        Biclique((0, 1), (0, 1)).validate_in(b)
