"""contraction: quotient construction, verifiers, witnesses, oracle equivalence."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
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


def test_tolerance_ints_leave_identity_alone():
    # ints is derived state, not a field: equality, hashing and repr are those
    # of the (alpha, beta) pair, however the pair was written
    t = Tolerance(1, 1)
    assert t == Tolerance(Fraction(1), Fraction(1)) == Tolerance("1", "1/1")
    assert hash(t) == hash(Tolerance(Fraction(1), Fraction(1)))
    assert {t: 1}[Tolerance(Fraction(1), Fraction(1))] == 1
    assert repr(t) == "Tolerance(alpha=Fraction(1, 1), beta=Fraction(1, 1))"
    assert repr(Tolerance("3/2", "1/7")) == "Tolerance(alpha=Fraction(3, 2), beta=Fraction(1, 7))"
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["alpha", "beta"]
    # alpha = p/q and beta = r/s in lowest terms give (p*s, p*r, q*s)
    assert Tolerance("6/4", "2/14").ints == (3 * 7, 3 * 1, 2 * 7)
    assert Tolerance(2, 0).ints == (2, 0, 1)


def test_tolerance_check_ints_match_fraction_formula():
    # lhs = p*s, offset = p*r*L and coeff = q*s with alpha = p/q, beta = r/s
    # and L the lcm of the weights' denominators, read off the Fractions
    rng = random.Random(2207)
    graphs = [random_connected_graph(rng, rng.randint(2, 7), unit=unit) for unit in (True, False) * 4]
    graphs.append(Graph(3, ((0, 1, Fraction(2, 3)), (1, 2, Fraction(5, 4)))))
    assert any(g.distances.scale > 1 for g in graphs)
    alphas = [Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(2)]
    betas = [Fraction(0), Fraction(1, 7), Fraction(1), Fraction(5, 2)]
    for g in graphs:
        scale = math.lcm(1, *(w.denominator for _, _, w in g.edges))
        for alpha, beta in itertools.product(alphas, betas):
            check = cl.ToleranceCheck(g, Tolerance(alpha, beta))
            p, q = alpha.numerator, alpha.denominator
            r, s = beta.numerator, beta.denominator
            assert (check.lhs, check.offset, check.coeff) == (p * s, p * r * scale, q * s)


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
        # the same with several bad ids, unsorted, and from a generator
        for ids in ([3, -2, 0], (e for e in (3, -2, 0))):
            with pytest.raises(ValueError, match=r"^edge id -2 out of range \[0,2\)$") as info:
                violation_witness(disconnected, ids, T11, weak=weak)
            assert not isinstance(info.value, DisconnectedGraphError)


def test_bad_edge_id_names_the_smallest():
    # every entry point names the smallest bad id, whatever the input order
    g = cl.path_graph(4)
    assert g.edge_count == 3
    message = r"^edge id -1 out of range \[0,3\)$"
    calls = [
        lambda ids: violation_witness(g, ids, T11, weak=False),
        lambda ids: violation_witness(g, ids, T11, weak=True),
        lambda ids: is_contraction(g, ids, T11),
        lambda ids: is_weak_contraction(g, ids, T11),
        lambda ids: contracted_distance(g, ids, 0, 3),
        lambda ids: contract(g, ids),
        lambda ids: cl.normalize_edge_ids(g, ids),
    ]
    for call in calls:
        for ids in ([7, -1, 5], [0, 7, 2, -1, 1, -1], iter([5, -1, 7])):
            with pytest.raises(ValueError, match=message):
                call(ids)
    # the mask and the normalised tuple refuse the same sets with the same text
    rng = random.Random(2208)
    for _ in range(200):
        ids = [rng.randint(-4, 6) for _ in range(rng.randint(0, 5))]
        try:
            expected = cl.normalize_edge_ids(g, ids)
        except ValueError as exc:
            expected = str(exc)
        try:
            got = violation_witness(g, ids, T11, weak=False)
            assert not isinstance(expected, str)
            assert got == violation_witness(g, expected, T11, weak=False)
        except ValueError as exc:
            assert str(exc) == expected


def test_edge_id_order_duplicates_and_generators_do_not_matter():
    # a verdict depends on the set of ids only: unsorted and repeated ids,
    # and a generator read once, give the sorted set's verdict and witness
    rng = random.Random(2209)
    tolerances = [Tolerance(1, 0), T11, Tolerance("3/2", "1/2"), Tolerance(2, "1/7")]
    checked = 0
    for unit in (True, False) * 6:
        g = random_connected_graph(rng, rng.randint(3, 7), unit=unit)
        for _ in range(6):
            ids = sorted(e for e in range(g.edge_count) if rng.random() < 0.5)
            messy = ids + [rng.choice(ids) for _ in range(2)] if ids else []
            rng.shuffle(messy)
            for tol, weak in itertools.product(tolerances, (False, True)):
                want = violation_witness(g, ids, tol, weak)
                assert violation_witness(g, messy, tol, weak) == want
                assert violation_witness(g, (e for e in messy), tol, weak) == want
                assert violation_witness(g, tuple(ids), tol, weak) == want
                assert is_weak_contraction(g, iter(messy), tol) == is_weak_contraction(g, ids, tol)
                checked += want is not None
            u, v = rng.randrange(g.vertex_count), rng.randrange(g.vertex_count)
            want_d = contracted_distance(g, ids, u, v)
            assert contracted_distance(g, (e for e in messy), u, v) == want_d
            assert contracted_distance(g, messy, u, v) == want_d
    assert checked > 0


def test_contracted_distance_examples():
    p3 = cl.path_graph(3)
    assert contracted_distance(p3, [0], 0, 2) == 1
    assert contracted_distance(p3, [0], 1, 1) == 0
    p4 = cl.path_graph(4)
    assert contracted_distance(p4, [0, 2], 0, 3) == 1
    with pytest.raises(ValueError, match="out of range"):
        contracted_distance(p3, [0], 0, 9)
    # vertices are checked before edge ids
    with pytest.raises(ValueError, match=r"^vertex out of range \[0,3\): \(0,9\)$"):
        contracted_distance(p3, [9, -1], 0, 9)
    with pytest.raises(ValueError, match=r"^edge id -1 out of range \[0,2\)$"):
        contracted_distance(p3, [9, -1], 0, 2)
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
    # block of merged vertices, and only the first time the graph's engine
    # meets the mask: every later verdict, witness, contracted_distance or
    # contract on the same mask reads the memo and searches nothing.  The
    # scan reads base row u at the same time (searched right after the
    # contracted row, on its first read only) and builds no other row
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
    assert (w.u, w.v) == (0, 1) and runs == [0, 0]
    # two contracted edges shorten no distance by more than beta = 2: a valid
    # set, with blocks {0,5} {1} {2,3} {4} of the 6-cycle's edges (0,5) and (2,3)
    g = cl.cycle_graph(6)
    check = cl.ToleranceCheck(g, Tolerance(1, 2))
    assert [g.endpoints(e) for e in (1, 3)] == [(0, 5), (2, 3)]
    runs.clear()
    assert check.first_violation(0b1010, weak=False) is None
    assert runs == [0, 0, 1, 1, 2, 2, 3, 4, 4]
    runs.clear()
    assert check.failing_pairs(0b1010, weak=True) == []
    assert cl.ToleranceCheck(g, T11).first_violation(0b1010, weak=True) is None
    assert contracted_distance(g, [1, 3], 5, 2) == 2
    assert contract(g, [3, 1]).supernode_count == 4
    assert runs == []
    # the memo holds one mask: after another mask, 0b1010 is new again and
    # searched lazily as before
    assert contracted_distance(g, [0], 0, 1) == 0 and runs == [0]
    runs.clear()
    assert check.first_violation(0b1010, weak=False) is None
    assert runs == [0, 1, 2, 4]


def test_verdicts_search_only_the_rows_they_read(monkeypatch):
    # a ToleranceCheck searches nothing when built; a verdict searches the
    # contracted and the uncontracted row of each row it scans, so a strong
    # verdict failing at pair (0, 1) of a 2,000-vertex path searches two rows,
    # and a later read of every base row searches only the rows not read yet
    runs: list[tuple[int, int]] = []
    from_source = ScaledDistances.from_source

    def counted(self, src, cmask=0):
        runs.append((src, cmask))
        return from_source(self, src, cmask)

    monkeypatch.setattr(ScaledDistances, "from_source", counted)
    g = cl.path_graph(2000)
    check = cl.ToleranceCheck(g, Tolerance(1, 0))
    assert runs == []
    w = check.first_violation(0b1, weak=False)
    assert (w.u, w.v, w.distance, w.contracted_distance) == (0, 1, 1, 0)
    assert runs == [(0, 0b1), (0, 0)]
    assert not check.is_valid(0b1, weak=False) and len(runs) == 2

    g = cl.path_graph(40)
    engine = g.distances
    check = cl.ToleranceCheck(g, Tolerance(1, 0))
    assert not check.is_valid(0b110, weak=False)
    runs.clear()
    base = engine.base
    assert runs == [(u, 0) for u in range(1, 40)]
    assert base == [[abs(u - v) for v in range(40)] for u in range(40)]
    # the empty mask reads the same rows: none is searched or kept twice
    runs.clear()
    assert all(engine.row(u, 0) is base[u] for u in range(40))
    assert all(r is b for r, b in zip(engine.all_pairs(0), base))
    assert contract(g, []).supernode_count == 40
    assert engine.base is base and runs == []


def test_row_memo_follows_the_mask():
    # one graph's engine keeps the rows of the last edge mask it met; strong
    # and weak verdicts, both witnesses, contracted_distance and contract,
    # interleaved in a shuffled order over a few masks (so masks repeat and
    # alternate) and tolerances, must agree with a freshly built equal graph
    # (an empty memo) and with the literal oracle; odd trials have rational
    # weights
    rng = random.Random(1919)
    tols = [(1, 1), (Fraction(3, 2), Fraction(1, 2)), (2, 0), (1, 2), (Fraction(5, 4), 1)]
    kinds = ["strong", "weak", "witness", "weak-witness", "distance", "contract"]
    for trial in range(24):
        n = rng.randint(3, 7)
        m = rng.randint(n - 1, min(10, n * (n - 1) // 2))
        g = random_connected_graph(rng, n, m, unit=trial % 2 == 0)
        base = naive.fw_distances(n, g.edges)
        masks = [tuple(e for e in range(m) if rng.randrange(2)) for _ in range(3)]
        masks.append(tuple(range(m)))
        for _ in range(8):
            ids = rng.choice(masks)
            alpha, beta = rng.choice(tols)
            tol = Tolerance(alpha, beta)
            u, v = rng.sample(range(n), 2)
            label, table = naive.induced_distances(g, ids)
            failing = [
                (x, y)
                for x in range(n)
                for y in range(x + 1, n)
                if table[label[x]][label[y]] < base[x][y] / tol.alpha - tol.beta
            ]
            unmerged = [(x, y) for x, y in failing if label[x] != label[y]]
            rng.shuffle(kinds)
            for kind in kinds:
                fresh = Graph(n, g.edges)
                if kind == "strong":
                    got, want = is_contraction(g, ids, tol), is_contraction(fresh, ids, tol)
                    assert got == want == naive.naive_is_contraction(g, ids, alpha, beta, base)
                elif kind == "weak":
                    got, want = is_weak_contraction(g, ids, tol), is_weak_contraction(fresh, ids, tol)
                    assert got == want == naive.naive_is_weak_contraction(g, ids, alpha, beta, base)
                elif kind in ("witness", "weak-witness"):
                    weak = kind == "weak-witness"
                    got = violation_witness(g, ids, tol, weak)
                    assert got == violation_witness(fresh, ids, tol, weak)
                    pairs = unmerged if weak else failing
                    if weak and len(ids) == m:
                        assert got.kind == "not-proper-subset"
                    elif pairs:
                        x, y = pairs[0]
                        assert got == cl.ViolationWitness(
                            "pair", x, y, base[x][y], table[label[x]][label[y]]
                        )
                    else:
                        assert got is None
                elif kind == "distance":
                    got = contracted_distance(g, ids, u, v)
                    assert got == contracted_distance(fresh, ids, u, v)
                    assert got == table[label[u]][label[v]]
                else:
                    q = contract(g, ids)
                    assert q == contract(fresh, ids)
                    assert q.distance(u, v) == table[label[u]][label[v]]
            mask = sum(1 << e for e in ids)
            engine = g.distances
            assert engine.all_pairs(mask) == [engine.from_source(x, mask) for x in range(n)]


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


VERDICT_TOLERANCES = (T11, Tolerance(1, 0), Tolerance(2, 1), Tolerance("3/2", "1/2"))


def _verdict_cases(seed: int, count: int):
    """(graph, tolerance, weak, subset) on seeded unit and rational graphs,
    with the empty, a random and the full subset of each."""
    rng = random.Random(seed)
    for trial in range(count):
        g = random_connected_graph(rng, rng.randint(2, 7), unit=trial % 2 == 0)
        m = g.edge_count
        for t in VERDICT_TOLERANCES:
            for weak in (False, True):
                for sub in ([], [e for e in range(m) if rng.random() < 0.5], list(range(m))):
                    yield g, t, weak, sub


def test_is_valid_matches_first_violation():
    seen = set()
    for g, t, weak, sub in _verdict_cases(3305, 80):
        check = cl.ToleranceCheck(g, t)
        mask = sum(1 << e for e in sub)
        valid = check.is_valid(mask, weak)
        assert valid == (check.first_violation(mask, weak) is None)
        assert valid == (is_weak_contraction if weak else is_contraction)(g, sub, t)
        seen.add((weak, valid))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_verdicts_build_no_witness(monkeypatch):
    # a yes/no verdict never turns a scaled distance into a Fraction: with
    # the conversion broken every verdict still answers, while a witness of
    # a failing set cannot be built
    cases = [
        (g, t, weak, sub, (is_weak_contraction if weak else is_contraction)(g, sub, t))
        for g, t, weak, sub in _verdict_cases(3306, 30)
    ]

    def broken(self, d):
        raise AssertionError("a verdict built a Fraction")

    monkeypatch.setattr(ScaledDistances, "exact", broken)
    for g, t, weak, sub, expected in cases:
        mask = sum(1 << e for e in sub)
        assert cl.ToleranceCheck(g, t).is_valid(mask, weak) == expected
        assert (is_weak_contraction if weak else is_contraction)(g, sub, t) == expected
    assert sum(not expected for *_, expected in cases) > 100
    with pytest.raises(AssertionError, match="built a Fraction"):
        violation_witness(cl.path_graph(4), [0, 2], T11, weak=True)


def test_witnesses_pinned():
    # every witness of the verdict cases, digest taken before is_valid
    # stopped building them: 2,880 cases, 1,545 of them valid
    out = []
    for g, t, weak, sub in _verdict_cases(3303, 120):
        w = violation_witness(g, sub, t, weak)
        out.append(None if w is None else w.to_json_dict())
    assert (len(out), out.count(None)) == (2880, 1545)
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "74bbe37ff85b8158"


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
