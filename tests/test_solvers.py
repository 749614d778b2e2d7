"""solvers: worked examples, power-set oracle equivalence, determinism, search counters."""

from __future__ import annotations

import itertools
import random
import tracemalloc
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
from builders import SMALL_WEIGHTS, random_connected_graph, unpack_matrix, unpack_pairs

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
    """(graph, alpha, beta) at the edges of the searches' packed matrices
    (see solvers.RowPacking): alpha < 1, so thresholds above the largest
    distance are clamped; a beta so large that no threshold is positive;
    scaled weights in the tens of thousands (1000/7 and 97/89 scale by 623);
    and the one-vertex and one-edge graphs."""
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


def _core_gadgets_4x5(rng):
    """Pendant gadgets of three seeded connected 4x5 cores with 16, 18 and 20
    edges, so 25 to 29 gadget edges on 18 vertices."""
    cells = [(l, r) for l in range(4) for r in range(5)]
    for size in (16, 18, 20):
        while True:
            core = BipartiteGraph(4, 5, tuple(sorted(rng.sample(cells, size))))
            if cl.is_connected(core.to_graph()):
                break
        yield cl.build_gadget(core, 1).combined


def test_matrix_merge_and_scan_match_the_verifier():
    # the search's one evaluation call (merge, then pair scan, then last
    # child), driven along shuffled edge orders without a walk: at the edges
    # of the field width (heavy weights scaled by 623, alpha < 1 with clamped
    # thresholds), on gadgets of 4x5 cores and on seeded trees, every merged
    # matrix decodes to a fresh all_pairs, the weak failing mask to the
    # verifier's failing pairs and the strong one to all of its strong
    # failing pairs; a valid node's last child is m - 1 and a failing strong
    # node's is -1, dead.  On the trees the forest evaluation (a weak search
    # of a tree) runs too, given each edge's child start e + 1: its fields
    # are the weak one's and the bits above them the chosen edges
    rng = random.Random(47)
    cases = [(g, Tolerance(alpha, beta)) for g, alpha, beta in _field_width_cases()]
    cases += [(g, t) for g in _core_gadgets_4x5(rng) for t in (T11, Tolerance(2, Fraction(1, 2)))]
    assert max(g.edge_count for g, _ in cases) == 29
    tree_rng = random.Random(4747)
    tree_tolerances = (T11, Tolerance(Fraction(3, 2), 1), Tolerance(2, Fraction(1, 2)))
    for trial in range(12):
        n = tree_rng.randint(2, 12)
        g = random_connected_graph(tree_rng, n, n - 1, unit=trial % 2 == 0)
        cases.append((g, tree_tolerances[trial % 3]))
    merges = forest_nodes = 0
    strong_lasts = {"valid": 0, "failing": 0}
    for g, t in cases:
        check = cl.ToleranceCheck(g, t)
        engine = g.distances
        packing = solvers.RowPacking.for_rows(check.base_scaled)
        weak_evaluate = solvers._evaluation(check, True, packing)
        strong_evaluate = solvers._evaluation(check, False, packing)
        n, m = g.vertex_count, g.edge_count
        forest = m == n - 1
        forest_evaluate = solvers._evaluation(check, True, packing, forest=True) if forest else None
        fields = (1 << (n * n * packing.width)) - 1
        order = list(range(m))
        rng.shuffle(order)
        labels, mask, a, b = "".join(map(chr, range(n))), 0, 0, 0
        matrix = forest_matrix = packing.pack(check.base_scaled)
        for e in [None] + order:
            if e is not None:
                mask |= 1 << e
                u, v, _ = g.edges[e]
                a, b = sorted((ord(labels[u]), ord(labels[v])))
                labels = labels.replace(chr(b), chr(a))
                merges += a != b
            # a == b (the root, or an edge inside a block) leaves the matrix as it is
            parent = matrix
            _, matrix, weak_failing, weak_last = weak_evaluate(labels, parent, a, b, 0)
            _, strong_matrix, strong_failing, strong_last = strong_evaluate(labels, parent, a, b, 0)
            assert strong_matrix == matrix
            assert unpack_matrix(matrix, packing, n) == engine.all_pairs(mask)
            assert unpack_pairs(weak_failing, packing, n) == check.failing_pairs(mask, weak=True)
            assert unpack_pairs(strong_failing, packing, n) == check.failing_pairs(mask, weak=False)
            assert strong_last == (-1 if strong_failing else m - 1)
            strong_lasts["failing" if strong_failing else "valid"] += 1
            if not weak_failing:
                assert weak_last == m - 1
            if forest:
                start = 0 if e is None else e + 1
                _, forest_matrix, forest_failing, forest_last = forest_evaluate(
                    labels, forest_matrix, a, b, start
                )
                assert forest_matrix & fields == matrix
                assert forest_matrix >> (n * n * packing.width) == mask
                assert forest_failing == weak_failing
                if not forest_failing:
                    assert forest_last == m - 1
                forest_nodes += 1
    assert merges >= 100
    assert forest_nodes >= 60
    assert min(strong_lasts.values()) >= 100, strong_lasts


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


def test_enumerate_pendant_gadgets_match_oracle():
    # on the gadget of every connected core up to 2x3 (at most 11 edges) the
    # walker's child loop is often cut short (the last-child pass), which
    # random graphs with n <= 5 rarely trigger.  The unit-weight oracle filters
    # the whole power set; the Fraction one, slower, runs up to 8 edges
    for left in (1, 2):
        for right in (1, 2, 3):
            for core in cl.enumerate_connected_bipartite(left, right):
                g = cl.build_gadget(core, 1).combined
                for alpha, beta in ((1, 1), (2, Fraction(1, 2))):
                    got = list(enumerate_valid_weak_contractions(g, Tolerance(alpha, beta)))
                    checker = naive.NaiveUnitChecker(g, alpha, beta)
                    subsets = naive.all_subsets(g.edge_count)
                    assert got == sorted(s for s in subsets if checker.verdicts(s)[1])
                    if g.edge_count <= 8:
                        assert got == naive.naive_enumerate_weak(g, alpha, beta)


def _min_vertex_labels(n: int, vertex_pairs) -> tuple[int, ...]:
    component = naive.components_of(n, vertex_pairs)
    first: dict[int, int] = {}
    for v, c in enumerate(component):
        first.setdefault(c, v)
    return tuple(first[c] for c in component)


def _joins_every_pair(labels, g: Graph, j: int, pairs) -> bool:
    """A fresh union-find of the partition and edges j..m-1."""
    parent = list(labels)

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, _ in g.edges[j:]:
        parent[root(u)] = root(v)
    return all(root(u) == root(v) for u, v in pairs)


def _weak_evaluation(g: Graph, t: Tolerance):
    """The evaluation call of a weak search of g at t, with the capped
    last-child pass (never the forest closure), and its check and packing."""
    check = cl.ToleranceCheck(g, t)
    packing = solvers.RowPacking.for_rows(check.base_scaled)
    return solvers._evaluation(check, True, packing), check, packing


def _evaluated(g: Graph, t: Tolerance, chosen: list[int]):
    """The failing pairs of the partition of g's ``chosen`` edges at t, its
    labels, and its last child from a given start as the evaluation call
    finds it.  The call is handed the partition's contracted matrix, packed
    fresh, with a = b, which leaves a matrix as it is; its failing mask must
    hold exactly the verifier's failing pairs."""
    evaluate, check, packing = _weak_evaluation(g, t)
    n, mask = g.vertex_count, sum(1 << e for e in chosen)
    labels = _min_vertex_labels(n, [g.edges[e][:2] for e in chosen])
    text = "".join(map(chr, labels))
    matrix = packing.pack(g.distances.all_pairs(mask))
    node = evaluate(text, matrix, 0, 0, 0)
    pairs = check.failing_pairs(mask, weak=True)
    assert node[:2] == (text, matrix) and unpack_pairs(node[2], packing, n) == pairs

    def last_child(start: int) -> int:
        labels, matrix, failing, last = evaluate(text, node[1], 0, 0, start)
        assert (labels, matrix, failing) == node[:3]
        return last

    return pairs, labels, last_child


def test_last_child_matches_fresh_union_find():
    # for every start, the evaluation call of a failing weak node (its real
    # failing mask, from the scan) gives the last j whose edges j..m-1, added
    # to the partition, join every failing pair (a fresh union-find), when
    # that j is at least start, and -1 (a dead node, no child built) when it
    # is below (78 of 240 seeded partitions fail)
    rng = random.Random(41)
    tolerances = [Tolerance(1, 0), T11, Tolerance(Fraction(3, 2), 0)]
    dead = live = 0
    for trial in range(240):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, unit=True)
        m = g.edge_count
        chosen = [e for e in range(m) if rng.random() < 0.3]
        pairs, labels, last_child = _evaluated(g, tolerances[trial % 3], chosen)
        if not pairs:
            continue
        joined = [j for j in range(m) if _joins_every_pair(labels, g, j, pairs)]
        exact = joined[-1]
        assert joined == list(range(exact + 1))
        for start in range(m + 1):
            last = last_child(start)
            assert last == (exact if exact >= start else -1)
            if start < m:
                dead += last < 0
                live += last >= 0
    assert dead and live
    # labels past code point 255 (a wider str kind): a 300-vertex cycle,
    # whose failing pairs at (1, 40) include vertices labelled past it
    g = cl.cycle_graph(300)
    chosen = [e for e in range(300) if rng.random() < 0.3]
    pairs, labels, last_child = _evaluated(g, Tolerance(1, 40), chosen)
    assert any(labels[v] > 255 for _, v in pairs)
    last = last_child(0)
    joined = [j for j in range(300) if _joins_every_pair(labels, g, j, pairs)]
    assert joined == list(range(last + 1)) and last > 0
    assert last_child(last + 1) == -1


def test_weak_pass_memory_is_quadratic_in_the_vertices():
    # the pass keeps one (x, y) pair per matrix field and clears the top
    # failing field by its bit length, so building it on a 300-vertex cycle
    # (90,000 fields) peaks at about 7 MB; a guard int kept per field would
    # hold about n^4 * width / 2 bits, several GB here
    g = cl.cycle_graph(300)
    g.distances.base
    tracemalloc.start()
    try:
        _weak_evaluation(g, T11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak


def _tree_path_edges(g: Graph, x: int, y: int) -> set[int]:
    """The edge ids of the x-y path of a tree, by a breadth-first search from
    x that records each vertex's edge to its parent."""
    via = {x: None}
    queue = [x]
    for u in queue:
        for w, e in g.adjacency[u]:
            if w not in via:
                via[w] = (u, e)
                queue.append(w)
    path = set()
    while via[y] is not None:
        y, e = via[y]
        path.add(e)
    return path


def _forest_closure(check, cset, failing) -> int:
    """The least edge the forced-merge closure of a tree's set ``cset``
    adds, -1 if it adds every edge missing from ``cset``: every edge on the
    tree path of a failing pair joins the set, and the set's failing pairs
    are read again, until none fails."""
    g = check.graph
    closed = set(cset)
    while failing:
        for x, y in failing:
            closed |= _tree_path_edges(g, x, y)
        failing = check.failing_pairs(sum(1 << e for e in closed), weak=True)
    return -1 if len(closed) == g.edge_count else min(closed - set(cset))


def _reference_walk(g: Graph, t: Tolerance, raise_floor: bool, closure: bool = True):
    """A plain recursive weak walk with the walker's child rule and nothing
    else: no memo, the verifier's failing pairs at every node and a fresh
    union-find over edges j..m-1 for the last child.  Its sets and its node
    count.

    On a tree (m = n - 1), unless ``closure`` is False, a failing node takes
    the forced-merge closure instead (``_forest_closure``): its last child is
    the least edge the closure adds, and it has none if the closure adds
    every edge or that edge is below its first child."""
    sets, nodes, _ = _reference_visits(g, t, raise_floor, closure, record=False)
    return sets, nodes


def _reference_visits(
    g: Graph, t: Tolerance, raise_floor: bool, closure: bool = True, record: bool = True
):
    """``_reference_walk``'s sets and node count, and with ``record`` its
    visits: for each partition it meets (min-vertex labels), the (start,
    dead) of every visit in walk order, dead meaning failing with its last
    child below that start."""
    check = cl.ToleranceCheck(g, t)
    n, m = g.vertex_count, g.edge_count
    forest = closure and m == n - 1
    floor, sets, nodes, visits = [-1], [], 0, {}

    def visit(cset, start):
        nonlocal nodes
        nodes += 1
        failing = check.failing_pairs(sum(1 << e for e in cset), weak=True)
        if not failing and len(cset) < m and len(cset) > floor[0]:
            sets.append(tuple(cset))
            if raise_floor:
                floor[0] = len(cset)
        last = m - 1
        if failing and forest:
            last = _forest_closure(check, cset, failing)
        elif failing:
            labels = _min_vertex_labels(n, [g.edges[e][:2] for e in cset])
            last = max(j for j in range(m) if _joins_every_pair(labels, g, j, failing))
        if record:
            labels = _min_vertex_labels(n, [g.edges[e][:2] for e in cset])
            visits.setdefault(labels, []).append((start, bool(failing) and last < start))
        for j in range(start, last + 1):
            if len(cset) + m - j <= floor[0]:
                break
            visit(cset + [j], j + 1)

    visit([], 0)
    return sets, nodes, visits


def test_walker_matches_a_reference_walk_without_memo():
    # the memoised walker, with its capped pass, gives the reference walk's
    # sets and node count, floor-free and floor-raising, on graphs with a
    # cycle.  Its memo answers each partition from its first visit alone,
    # which is exact because, in a floor-free walk, a partition dead at its
    # first visit is dead at every later one (the _Search docstring).  The
    # reference walk checks that, and meets the case it covers, a dead
    # partition met again from a smaller start, in trials 67 and 130, where a
    # walker that stored a dead node's last child as start - 1 would build
    # children the reference does not
    rng = random.Random(1)
    tolerances = [T11, Tolerance(1, 0), Tolerance(Fraction(3, 2), Fraction(1, 2)),
                  Tolerance(2, 2), Tolerance(Fraction(1, 2), 1)]
    smaller = []
    for trial in range(200):
        n = rng.randint(3, 7)
        g = random_connected_graph(rng, n, rng.randint(n, min(10, n * (n - 1) // 2)), trial % 2 == 0)
        t = tolerances[trial % len(tolerances)]
        for raise_floor in (False, True):
            search = solvers._Search(cl.ToleranceCheck(g, t), True)
            floor, sets = [-1], []
            for s in search.walk(floor, list(range(g.edge_count, -1, -1))):
                sets.append(s)
                if raise_floor:
                    floor[0] = len(s)
            want, nodes, visits = _reference_visits(g, t, raise_floor, record=not raise_floor)
            assert (sets, search.explored) == (want, nodes), trial
            for (first, dead), *later in visits.values():
                if dead:
                    assert all(d for _, d in later), trial
                    smaller += [trial] * any(start < first for start, _ in later)
    assert smaller == [67, 130]
    # graphs dense enough that floor-free walks replay subtrees: gadgets of
    # 2x3 and 3x3 cores and seeded graphs with m of 12-14.  Each search is
    # walked twice, the second time with every partition of the first in its
    # memo (as a shared lab search is), so the lexicographically first path
    # of memo hits is keyed too, where the depth decides whether the full
    # edge set, which is not proper, lies below a node
    cores = [cl.complete_bipartite(2, 3), BipartiteGraph(3, 3, tuple(
        (l, r) for l in range(3) for r in range(3) if (l, r) != (1, 1)
    ))]
    cases = [(cl.build_gadget(core, 1).combined, T11) for core in cores]
    for trial in range(4):
        g = random_connected_graph(rng, rng.randint(6, 8), rng.randint(12, 14), trial % 2 == 0)
        cases.append((g, tolerances[trial + 1]))
    for trial, (g, t) in enumerate(cases):
        want = _reference_walk(g, t, False)
        search = solvers._Search(cl.ToleranceCheck(g, t), True)
        for _ in range(2):
            before, replayed = search.explored, search.replayed
            sets = list(search.walk([-1], list(range(g.edge_count, -1, -1))))
            assert (sets, search.explored - before) == want, trial
            assert search.replayed > replayed, trial


def test_forest_closure_matches_a_reference_walk():
    # on a tree every weak search takes the forced-merge closure: the walker
    # gives the reference walk's sets and node count, its closure built from
    # tree paths found by the test and the verifier's failing pairs,
    # floor-free and floor-raising, on seeded trees and on tree-core
    # gadgets, and never visits more nodes than the plain union-find rule.
    # The reference walk meets each partition once, from start max(C) + 1
    # for its one edge set C, and each failing memo entry holds what the
    # reference closure gives from that start
    rng = random.Random(36)
    tolerances = [T11, Tolerance(1, 0), Tolerance(Fraction(3, 2), Fraction(1, 2)),
                  Tolerance(2, 2), Tolerance(Fraction(1, 2), 1), Tolerance(Fraction(3, 2), 1)]
    cases = []
    for trial in range(60):
        n = rng.randint(2, 10)
        cases.append((random_connected_graph(rng, n, n - 1, trial % 2 == 0), tolerances[trial % 6]))
    tree_cores = [BipartiteGraph(2, 6, ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 0))),
                  BipartiteGraph(3, 3, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)))]
    cases += [
        (cl.build_gadget(core, 1).combined, t) for core in tree_cores for t in (T11, tolerances[2])
    ]
    fewer = met = failing_entries = 0
    for trial, (g, t) in enumerate(cases):
        m = g.edge_count
        check = cl.ToleranceCheck(g, t)
        packing = solvers.RowPacking.for_rows(check.base_scaled)

        def first_child(labels):
            cset = [e for e, (u, v, _) in enumerate(g.edges) if labels[u] == labels[v]]
            return cset, max(cset, default=-1) + 1

        for raise_floor in (False, True):
            search = solvers._Search(check, True)
            floor, sets = [-1], []
            for s in search.walk(floor, list(range(m, -1, -1))):
                sets.append(s)
                if raise_floor:
                    floor[0] = len(s)
            want, nodes, visits = _reference_visits(g, t, raise_floor)
            assert (sets, search.explored) == (want, nodes), trial
            for labels, starts in visits.items():
                assert [start for start, _ in starts] == [first_child(labels)[1]], trial
                met += 1
            plain = _reference_walk(g, t, raise_floor, closure=False)
            assert plain[0] == sets and plain[1] >= search.explored, trial
            fewer += plain[1] > search.explored
            for labels, _, failing, last in search.seen.values():
                if failing:
                    cset, start = first_child(labels)
                    closed = _forest_closure(check, cset, unpack_pairs(failing, packing, g.vertex_count))
                    assert last == (closed if closed >= start else -1), trial
                    failing_entries += 1
    assert fewer >= 20 and met >= 2000 and failing_entries >= 1000


def test_tree_gadget_walk_pinned():
    # the pendant gadget of the star K_{1,6} plus an edge (all-bipartite 2x6,
    # index 0) is a tree of 15 edges on 16 vertices whose only valid sets at
    # (1, 1) are the empty set and the single edges; the closure finds them
    # in 121 nodes (560 with the plain last-child pass alone), and the weak
    # maximizer its optimum in 120 (559)
    core = cl.lab.enumerate_connected_bipartite(2, 6)[0]
    gadget = cl.build_gadget(core, 1).combined
    assert (gadget.vertex_count, gadget.edge_count) == (16, 15)
    search = solvers.weak_search(gadget, T11)
    sets = list(enumerate_valid_weak_contractions(gadget, T11, search=search))
    assert (sets, search.explored) == ([()] + [(e,) for e in range(15)], 121)
    weak = max_weak_contraction_exact(gadget, T11)
    assert (weak.objective, weak.witness, weak.explored) == (1, (0,), 120)


def test_walker_stops_anywhere_and_handles_one_vertex():
    # a consumer that stops early gets a prefix of the full stream, and a
    # one-vertex graph has one node: the empty set, valid only in strong mode
    cells = [(l, r) for l in range(3) for r in range(4) if (l, r) not in ((0, 0), (2, 3))]
    gadget = cl.build_gadget(BipartiteGraph(3, 4, tuple(cells)), 1).combined
    full = list(enumerate_valid_weak_contractions(gadget, T11))
    assert len(full) == 291
    for k in (0, 1, 7, 100, 290):
        assert list(itertools.islice(enumerate_valid_weak_contractions(gadget, T11), k)) == full[:k]
    r = max_contraction_exact(Graph(1), Tolerance(1, 0))
    assert (r.objective, r.witness, r.explored) == (0, (), 1)
    assert list(enumerate_valid_weak_contractions(Graph(1), T11)) == []


# ---------------------------------------------------------------------------
# oracle equivalence for the maximizers
# ---------------------------------------------------------------------------


def _floor_raising_walk(search) -> tuple[int, ...]:
    """The last set of a weak walk that raises its floor to each set it
    yields: the lexicographically smallest optimum."""
    floor = [-1]
    for best in search.walk(floor, list(range(search.m, -1, -1))):
        floor[0] = len(best)
    return best


def test_weak_closed_form_matches_floor_raising_walk():
    # on a connected graph with a cycle the weak maximizer drops one edge,
    # the largest j whose removal leaves a valid set, testing j = m-1 down;
    # the walker's floor-raising walk and the memo-free reference walk find
    # that witness too
    rng = random.Random(26)
    tolerances = [
        (Fraction(1, 2), 0), (1, 0), (1, 1), (Fraction(5, 4), Fraction(1, 3)),
        (Fraction(3, 2), 1), (2, 2),
    ]
    dropped_before_last = 0
    for trial in range(120):
        n = rng.randint(3, 9)
        m = rng.randint(n, min(14, n * (n - 1) // 2))
        g = random_connected_graph(rng, n, m, unit=trial % 2 == 0)
        t = Tolerance(*tolerances[trial % len(tolerances)])
        res = max_weak_contraction_exact(g, t)
        best = _floor_raising_walk(solvers._Search(cl.ToleranceCheck(g, t), True))
        assert (res.objective, res.witness) == (m - 1, best)
        assert _reference_walk(g, t, True)[0][-1] == best
        (j,) = set(range(m)) - set(res.witness)
        assert res.explored == m - j
        dropped_before_last += j < m - 1
    assert dropped_before_last >= 10


def _with_pendant_bridges(rng: random.Random, n: int, unit: bool) -> Graph:
    """A seeded connected graph on n vertices with a cycle when n >= 3, plus
    one to three pendant leaves and sometimes a pendant path of two edges:
    bridges that end at a leaf and one that does not."""
    g = random_connected_graph(rng, n, rng.randint(min(n, n * (n - 1) // 2), n * (n - 1) // 2), unit)
    edges = list(g.edges)
    grown = n
    for _ in range(rng.randint(1, 3)):
        edges.append((rng.randrange(grown), grown))
        grown += 1
    if rng.random() < 0.5:
        edges += [(rng.randrange(n), grown), (grown, grown + 1)]
        grown += 2
    weight = (lambda: 1) if unit else (lambda: rng.choice(SMALL_WEIGHTS))
    return Graph(grown, tuple((*e[:2], weight()) for e in edges))


def test_bridge_test_matches_the_verifier():
    # the closed form's test of E - {j} reads two base rows and the edge
    # list: for every edge of seeded graphs with pendant bridges, unit and
    # rational weights, alpha < 1 and beta = 0 among the tolerances, it
    # gives the weak verdict on E - {j}; bridges that pass and that fail
    # both occur
    rng = random.Random(36)
    tolerances = [
        T11, Tolerance(1, 0), Tolerance(Fraction(1, 2), 0), Tolerance(Fraction(1, 2), 2),
        Tolerance(2, 2), Tolerance(3, 0), Tolerance(Fraction(3, 2), Fraction(1, 2)),
        Tolerance(4, 3),
    ]
    seen = {(bridge, valid): 0 for bridge in (False, True) for valid in (False, True)}
    for trial in range(60):
        g = _with_pendant_bridges(rng, rng.randint(2, 7), unit=trial % 2 == 0)
        for t in tolerances:
            check = cl.ToleranceCheck(g, t)
            for j in range(g.edge_count):
                valid = check.is_valid(check.full_mask ^ 1 << j, True)
                assert solvers._valid_without(check, j) == valid, (trial, t, j)
                rest = Graph(g.vertex_count, g.edges[:j] + g.edges[j + 1:])
                seen[not cl.is_connected(rest), valid] += 1
    assert seen[False, False] == 0  # a non-bridge always passes
    assert seen[True, True] >= 200 and seen[True, False] >= 200 and seen[False, True] >= 200


def test_weak_closed_form_tests_trailing_bridges_first():
    # edge 3 (2-3) is a bridge: without it pair (0, 3) has induced distance
    # 1 < 2/1 - 0, so it is rejected; edge 2 (1-2) is on the triangle, so E
    # minus 2 merges every vertex and is the optimum, the second set tested
    g = cl.parse_graph("graph 4 4\n0 1\n0 2\n1 2\n2 3\n")
    res = max_weak_contraction_exact(g, Tolerance(1, 0))
    assert (res.objective, res.witness, res.explored) == (3, (0, 1, 3), 2)


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


def test_suffix_bounds_match_power_set_filter():
    # bound[i] of a strong search is the size of the largest subset of edges
    # i..m-1 that the literal checker accepts, for every i; every fourth
    # graph is a tree, and an invalid empty set means nothing is valid
    rng = random.Random(83)
    tolerances = [
        (1, 1), (Fraction(3, 2), Fraction(1, 2)), (2, 1), (1, 2), (2, 2),
        (Fraction(1, 2), 2), (Fraction(3, 2), 1),
    ]
    trees = bounded = tight = 0
    for trial in range(36):
        n = rng.randint(2, 8)
        tree = trial % 4 == 0
        m = n - 1 if tree else rng.randint(n - 1, min(12, n * (n - 1) // 2))
        g = random_connected_graph(rng, n, m, unit=trial % 2 == 0)
        alpha, beta = tolerances[trial % len(tolerances)]
        base = naive.fw_distances(n, g.edges)
        largest = [0] * (m + 1)
        valid = 0
        first_of_size: dict[int, tuple[int, ...]] = {}
        for sub in naive.all_subsets(m):  # by size, then lexicographically
            if naive.naive_is_contraction(g, sub, alpha, beta, base):
                valid += 1
                first_of_size.setdefault(len(sub), sub)
                for i in range((sub[0] if sub else m) + 1):
                    largest[i] = max(largest[i], len(sub))
        search = solvers._Search(cl.ToleranceCheck(g, Tolerance(alpha, beta)), False)
        if search.root[2]:
            assert valid == 0
            continue
        bound, first = solvers._suffix_bounds(search)
        assert bound == largest
        # the i = 0 walk finds a set exactly when every optimum holds edge 0,
        # and that set is the lexicographically smallest optimum
        assert (first is not None) == (largest[0] > largest[1])
        assert first is None or first == first_of_size[largest[0]]
        trees += tree
        bounded += 1
        tight += 0 < largest[0] < m
    assert trees >= 6 and bounded >= 30 and tight >= 10


def test_strong_solver_checks_before_any_walk(monkeypatch):
    # an invalid empty set (alpha < 1) is refused from the root node, before
    # any suffix walk; the cap is checked before any search state is built.
    # A solve runs one walk per suffix bound, and a final walk only when the
    # i = 0 walk finds no set
    walks: list = []
    walk = solvers._Search.walk

    def counted_walk(self, *args):
        walks.append(args)
        return walk(self, *args)

    monkeypatch.setattr(solvers._Search, "walk", counted_walk)
    g = cl.cycle_graph(5)
    with pytest.raises(ValueError, match="no valid contraction set"):
        max_contraction_exact(g, Tolerance(Fraction(1, 2), 0))
    assert walks == []
    assert max_contraction_exact(g, T11).objective == 2
    assert len(walks) == g.edge_count + 1
    # on the 5-vertex path at (2, 1) the i = 0 walk finds the optimum itself
    walks.clear()
    p = cl.path_graph(5)
    assert max_contraction_exact(p, Tolerance(2, 1)).witness == (0, 1, 3)
    assert len(walks) == p.edge_count
    built: list = []
    monkeypatch.setattr(solvers, "ToleranceCheck", lambda *args: built.append(args))
    with pytest.raises(CapExceededError, match="cap \\(4\\)"):
        max_contraction_exact(g, T11, cap=4)
    assert built == []


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


def test_biclique_partner_side_size_costs_nothing():
    # the partner side enters the walk only through its vertices with an
    # edge: a side of 10**20 vertices, one of them far out, solves as its
    # two vertices with an edge do on a side of 7
    far = 10**20 - 1
    huge = BipartiteGraph(10**20, 2, ((5, 0), (5, 1), (far, 0)))
    small = BipartiteGraph(7, 2, ((5, 0), (5, 1), (6, 0)))
    for solver, objective, left in (
        (max_edge_biclique_exact, 2, (5, far)), (max_balanced_biclique_exact, 1, (5,))
    ):
        res, ref = solver(huge), solver(small)
        assert (res.objective, res.witness) == (objective, Biclique(left, (0,)))
        assert (ref.objective, ref.explored) == (objective, res.explored)


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


def test_weak_calls_sharing_a_search_match_fresh_calls():
    # walks of one weak_search reuse each other's partitions and change no
    # output: each solve counts its own nodes, as a fresh one does, and a
    # graph with a cycle takes the closed form on the search's own check
    rng = random.Random(93)
    relaxed = Tolerance(Fraction(3, 2), 1)
    for m in (6, 6, 7, 9):
        g = random_connected_graph(rng, 7, m)
        for tol in (T11, relaxed):
            fresh_sets = list(enumerate_valid_weak_contractions(g, tol))
            fresh = max_weak_contraction_exact(g, tol)
            search = solvers.weak_search(g, tol)
            for _ in range(2):
                res = max_weak_contraction_exact(g, tol, search=search)
                assert (res.objective, res.witness, res.explored) == (
                    fresh.objective, fresh.witness, fresh.explored
                )
                assert list(enumerate_valid_weak_contractions(g, tol, search=search)) == fresh_sets


@pytest.mark.parametrize(
    "g, search",
    [
        # another graph with as many edges: its stream is the 4-cycle's 15
        # sets, not the path's 5
        (cl.path_graph(5), lambda: solvers.weak_search(cl.cycle_graph(4), T11)),
        # more edges than the graph: the walk reads past the bound list
        # (an IndexError)
        (cl.path_graph(3), lambda: solvers.weak_search(cl.cycle_graph(4), T11)),
        # a strong search of the same graph: it prunes as a strong one (7
        # sets, not 15)
        (cl.cycle_graph(4), lambda: solvers._Search(cl.ToleranceCheck(cl.cycle_graph(4), T11), False)),
        # the same graph at another tolerance
        (cl.path_graph(5), lambda: solvers.weak_search(cl.path_graph(5), Tolerance(2, 1))),
    ],
    ids=["another-graph", "more-edges", "strong-search", "another-tolerance"],
)
def test_weak_calls_refuse_a_foreign_search(g, search):
    with pytest.raises(ValueError, match="search= must be a weak search of this graph"):
        list(enumerate_valid_weak_contractions(g, T11, search=search()))
    with pytest.raises(ValueError, match="search= must be a weak search of this graph"):
        max_weak_contraction_exact(g, T11, search=search())
    # an equal graph built apart is the same graph
    own = solvers.weak_search(Graph(g.vertex_count, g.edges), T11)
    assert list(enumerate_valid_weak_contractions(g, T11, search=own)) == list(
        enumerate_valid_weak_contractions(g, T11)
    )


def test_search_counters_pinned():
    # node and valid-set counts of fixed searches: a change to the search
    # shows up here as a diff with a reason, not only as a change of speed
    g = random_connected_graph(random.Random(2024), 12, 18, unit=True)
    weak = max_weak_contraction_exact(g, T11)
    assert (weak.objective, weak.explored) == (17, 1)
    # the graph has a cycle, so the weak maximizer tests sets in closed form
    # (explored counts them); a floor-raising walk, which trees still take,
    # finds the same witness in 19 nodes
    search = solvers._Search(cl.ToleranceCheck(g, T11), True)
    assert (_floor_raising_walk(search), search.explored) == (weak.witness, 19)
    strong = max_contraction_exact(g, Tolerance(1, 2))
    assert (strong.objective, strong.explored) == (12, 1110)
    cells = [(l, r) for l in range(3) for r in range(4) if (l, r) not in ((0, 0), (2, 3))]
    gadget = cl.build_gadget(BipartiteGraph(3, 4, tuple(cells)), 1).combined
    assert gadget.edge_count == 17
    search = solvers._Search(cl.ToleranceCheck(gadget, T11), True)
    valid = sum(1 for _ in search.walk([-1], list(range(17, -1, -1))))
    assert (valid, search.explored) == (291, 2392)
    # 1,744 of those nodes lie in replayed subtrees; a second enumeration on
    # the same search, its memo full, gives the same sets and nodes
    assert search.replayed == 1744
    valid = sum(1 for _ in search.walk([-1], list(range(17, -1, -1))))
    assert (valid, search.explored, search.replayed) == (291, 2 * 2392, 2 * 1744)
    b, _ = cl.generate_planted_biclique(20, 20, 6, 6, Fraction(1, 2), 0)
    meb = max_edge_biclique_exact(b)
    assert (meb.objective, meb.explored) == (42, 2527)
    mbb = max_balanced_biclique_exact(b)
    assert (mbb.objective, mbb.explored) == (6, 296)
    # both biclique maximizers run one walk: its results, witnesses included,
    # on planted 20x20 seeds 0-4
    pinned = [
        ((42, ((1, 5, 6, 8, 10, 12, 15), (6, 9, 11, 15, 18, 19)), 2527),
         (6, ((1, 4, 5, 6, 8, 13), (5, 6, 11, 13, 15, 18)), 296)),
        ((36, ((0, 2, 3, 4, 7, 18), (3, 6, 7, 10, 12, 14)), 1187),
         (6, ((0, 2, 3, 4, 7, 18), (3, 6, 7, 10, 12, 14)), 119)),
        ((42, ((1, 2, 4, 5, 11, 16, 18), (1, 5, 6, 8, 9, 17)), 1454),
         (6, ((1, 2, 4, 5, 11, 16), (1, 5, 6, 8, 9, 17)), 123)),
        ((40, ((4, 7, 10, 11, 14, 15, 17, 18), (2, 4, 15, 18, 19)), 1390),
         (6, ((4, 7, 11, 14, 17, 18), (0, 2, 4, 15, 18, 19)), 106)),
        ((42, ((2, 3, 7, 9, 11, 12, 15), (0, 2, 9, 12, 16, 19)), 867),
         (6, ((2, 3, 7, 9, 11, 12), (0, 2, 9, 12, 16, 19)), 128)),
    ]
    for seed, expected in enumerate(pinned):
        b, _ = cl.generate_planted_biclique(20, 20, 6, 6, Fraction(1, 2), seed)
        got = tuple(
            (r.objective, (r.witness.left, r.witness.right), r.explored)
            for r in (max_edge_biclique_exact(b), max_balanced_biclique_exact(b))
        )
        assert got == expected, seed


def test_only_floor_free_walks_replay(monkeypatch):
    # a walk that raises its floor replays nothing, before and after an
    # enumeration on the same search recorded subtrees (recordings belong to
    # one walk), and finds the reference walk's sets in its nodes; the
    # enumeration between them replays and matches the reference walk, its
    # lexicographically first nodes memo hits left by the first walk; and no
    # walk of a strong solve replays
    cells = [(l, r) for l in range(3) for r in range(4) if (l, r) not in ((0, 0), (2, 3))]
    gadget = cl.build_gadget(BipartiteGraph(3, 4, tuple(cells)), 1).combined
    search = solvers._Search(cl.ToleranceCheck(gadget, T11), True)
    raising, free = _reference_walk(gadget, T11, True), _reference_walk(gadget, T11, False)
    bound = list(range(17, -1, -1))
    for _ in range(2):
        before = search.explored
        floor, sets = [-1], []
        for s in search.walk(floor, bound):
            sets.append(s)
            floor[0] = len(s)
        assert (sets, search.explored - before) == raising
        assert search.replayed == 0
        before = search.explored
        sets = list(search.walk([-1], bound))
        assert (sets, search.explored - before) == free
        assert search.replayed > 0
        search.replayed = 0
    built = []
    search_class = solvers._Search

    def recorded(check, weak):
        built.append(search_class(check, weak))
        return built[-1]

    monkeypatch.setattr(solvers, "_Search", recorded)
    g = random_connected_graph(random.Random(2024), 12, 18, unit=True)
    assert max_contraction_exact(g, Tolerance(1, 2)).explored == 1110
    # every single edge fails at (1, 0), so the final walk's floor is -1
    assert max_contraction_exact(gadget, Tolerance(1, 0)).objective == 0
    assert [s.replayed for s in built] == [0, 0]


def test_search_distance_evaluations_pinned(monkeypatch):
    # the searches of test_search_counters_pinned evaluate each vertex
    # partition once: the search's evaluation call (merge and pair scan) runs
    # once for the root and once per distinct partition met after it, not
    # once per node (19, 1110 and 2392 calls when every node paid).
    # The strong solve's walks (one per suffix bound, then the final one)
    # share one memo, so no partition is scanned twice across them either.
    # A scanned matrix holds 0 exactly for the merged pairs, so distinct
    # matrices mean distinct partitions.  Once the base rows are cached, a
    # search derives every node's matrix from its parent's and runs no BFS or
    # Dijkstra (72, 1636 and 11492 runs when each block was searched), and it
    # turns no scaled distance into a Fraction: no witness is built for a
    # failing node
    scanned: list[int] = []
    runs: list[int] = []
    searches: list[int] = []
    exacts: list[int] = []
    evaluation = solvers._evaluation

    def counting_evaluation(*args):
        evaluate = evaluation(*args)

        def counted(*args):
            node = evaluate(*args)
            scanned.append(node[1])
            return node

        return counted

    monkeypatch.setattr(solvers, "_evaluation", counting_evaluation)
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
    assert (calls, weak.explored) == (0, 1)

    def walked():
        search = solvers._Search(cl.ToleranceCheck(g, T11), True)
        return _floor_raising_walk(search), search.explored

    calls, walk = evaluated(g, walked)
    assert (calls, walk) == (12, (weak.witness, 19))
    calls, strong = evaluated(g, lambda: max_contraction_exact(g, Tolerance(1, 2)))
    assert (calls, strong.explored) == (292, 1110)
    cells = [(l, r) for l in range(3) for r in range(4) if (l, r) not in ((0, 0), (2, 3))]
    gadget = cl.build_gadget(BipartiteGraph(3, 4, tuple(cells)), 1).combined
    calls, valid = evaluated(
        gadget, lambda: sum(1 for _ in enumerate_valid_weak_contractions(gadget, T11))
    )
    assert (calls, valid) == (501, 291)
    # the closed form runs no verdict and so no contracted search: it reads
    # two base rows per tested edge, already cached here
    assert searches == [(0, 0), (0, 0), (0, 0), (0, 0)]
