"""Independent brute-force oracles for the test suite.

Everything here is recomputed from scratch with different machinery than the
package uses: Floyd-Warshall over Fractions instead of Dijkstra/0-1 BFS over
scaled integers, explicit quotient construction instead of zero-weight
relaxation, and plain power-set / double-subset filtering instead of pruned
search.  Agreement between the two routes is what the equivalence tests (and
the acceptance criteria) actually check, so nothing in this module may import
solver or verifier internals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from contractlab import BipartiteGraph, Graph

INF = math.inf


def fw_distances(n: int, weighted_edges) -> list[list]:
    """All-pairs distances by Floyd-Warshall; INF for unreachable."""
    d = [[INF] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
    for u, v, w in weighted_edges:
        if w < d[u][v]:
            d[u][v] = w
            d[v][u] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return d


def bfs_levels(g: Graph, src: int) -> list[int]:
    """Hop counts from src; -1 when unreachable.  Unit-weight oracle."""
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def components_of(n: int, vertex_pairs) -> list[int]:
    """Component label per vertex (labels are arbitrary but consistent)."""
    adj = [[] for _ in range(n)]
    for u, v in vertex_pairs:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    cur = 0
    for s in range(n):
        if label[s] != -1:
            continue
        label[s] = cur
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if label[v] == -1:
                    label[v] = cur
                    stack.append(v)
        cur += 1
    return label


def is_connected_naive(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    return len(set(components_of(g.vertex_count, [e[:2] for e in g.edges]))) == 1


def induced_distances(g: Graph, cset) -> tuple[list[int], list[list]]:
    """(labels, distance table over blocks) after contracting the edge ids."""
    pairs = [g.edges[e][:2] for e in cset]
    label = components_of(g.vertex_count, pairs)
    k = max(label) + 1 if label else 0
    collapsed: dict[tuple[int, int], Fraction] = {}
    for u, v, w in g.edges:
        a, b = label[u], label[v]
        if a == b:
            continue
        if a > b:
            a, b = b, a
        if (a, b) not in collapsed or w < collapsed[(a, b)]:
            collapsed[(a, b)] = w
    table = fw_distances(k, [(a, b, w) for (a, b), w in collapsed.items()])
    return label, table


def naive_is_contraction(g: Graph, cset, alpha, beta) -> bool:
    """Literal check of the strong-mode inequality over every vertex pair."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    base = fw_distances(g.vertex_count, g.edges)
    label, table = induced_distances(g, cset)
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            if table[label[u]][label[v]] < base[u][v] / alpha - beta:
                return False
    return True


def naive_is_weak_contraction(g: Graph, cset, alpha, beta) -> bool:
    """Literal weak-mode check: proper subset plus the inequality on unmerged pairs."""
    if len(set(cset)) >= g.edge_count:
        return False
    alpha, beta = Fraction(alpha), Fraction(beta)
    base = fw_distances(g.vertex_count, g.edges)
    label, table = induced_distances(g, cset)
    for u in range(g.vertex_count):
        for v in range(u + 1, g.vertex_count):
            dc = table[label[u]][label[v]]
            if dc == 0:
                continue
            if dc < base[u][v] / alpha - beta:
                return False
    return True


def all_subsets(m: int):
    for size in range(m + 1):
        yield from combinations(range(m), size)


def naive_max_contraction(g: Graph, alpha, beta):
    """(objective, witness) by filtering the full power set; None if nothing valid."""
    best = None
    for sub in all_subsets(g.edge_count):
        if naive_is_contraction(g, sub, alpha, beta):
            if best is None or len(sub) > len(best) or (len(sub) == len(best) and sub < best):
                best = sub
    return None if best is None else (len(best), best)


def naive_max_weak_contraction(g: Graph, alpha, beta):
    best = None
    for sub in all_subsets(g.edge_count):
        if naive_is_weak_contraction(g, sub, alpha, beta):
            if best is None or len(sub) > len(best) or (len(sub) == len(best) and sub < best):
                best = sub
    return None if best is None else (len(best), best)


def naive_enumerate_weak(g: Graph, alpha, beta) -> list[tuple[int, ...]]:
    """All valid proper subsets, in lexicographic (sorted-tuple) order."""
    valid = [
        sub for sub in all_subsets(g.edge_count)
        if naive_is_weak_contraction(g, sub, alpha, beta)
    ]
    return sorted(valid)


def _subsets_of(items):
    items = list(items)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


def naive_meb(b: BipartiteGraph):
    """(objective, left, right) by double-subset filtering.

    Tie-break mirrors the solvers: minimize the subset on the smaller side
    (left on ties), then the other side.
    """
    present = b.edge_set()
    enum_left = b.left_count <= b.right_count
    best = (0, (), ())

    def consider(left, right):
        nonlocal best
        obj = len(left) * len(right)
        key = (left, right) if enum_left else (right, left)
        best_key = (best[1], best[2]) if enum_left else (best[2], best[1])
        if obj > best[0] or (obj == best[0] and obj > 0 and key < best_key):
            best = (obj, left, right)

    for left in _subsets_of(range(b.left_count)):
        if not left:
            continue
        for right in _subsets_of(range(b.right_count)):
            if not right:
                continue
            if all((l, r) in present for l in left for r in right):
                consider(left, right)
    return best


def naive_mbb(b: BipartiteGraph):
    """(t, left, right) for the largest balanced complete biclique."""
    present = b.edge_set()
    enum_left = b.left_count <= b.right_count
    best = (0, (), ())
    for left in _subsets_of(range(b.left_count)):
        if not left:
            continue
        for right in _subsets_of(range(b.right_count)):
            if len(right) != len(left):
                continue
            if all((l, r) in present for l in left for r in right):
                t = len(left)
                key = (left, right) if enum_left else (right, left)
                best_key = (best[1], best[2]) if enum_left else (best[2], best[1])
                if t > best[0] or (t == best[0] and t > 0 and key < best_key):
                    best = (t, left, right)
    return best


class NaiveUnitChecker:
    """Fast from-scratch verifier for unit-weight graphs at tolerance (1, 1).

    Base distances are BFS hop counts; induced distances come from an explicit
    block quotient followed by BFS over blocks.  No code or representation is
    shared with the package's scaled-integer engine.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.vertex_count
        self.m = g.edge_count
        self.pairs = [e[:2] for e in g.edges]
        adj = [[] for _ in range(self.n)]
        for u, v in self.pairs:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj
        self.base = [self._bfs(adj, s, self.n) for s in range(self.n)]

    @staticmethod
    def _bfs(adj, src, size):
        dist = [-1] * size
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if dist[v] == -1:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def verdicts(self, subset) -> tuple[bool, bool]:
        """(strong, weak) verdicts at (1, 1) for the given edge ids."""
        label = components_of(self.n, [self.pairs[e] for e in subset])
        k = max(label) + 1
        badj = [set() for _ in range(k)]
        for u, v in self.pairs:
            a, b = label[u], label[v]
            if a != b:
                badj[a].add(b)
                badj[b].add(a)
        badj = [sorted(s) for s in badj]
        bdist = [self._bfs(badj, s, k) for s in range(k)]
        strong = True
        weak = len(set(subset)) < self.m
        for u in range(self.n):
            bu = self.base[u]
            du = bdist[label[u]]
            for v in range(u + 1, self.n):
                dc = du[label[v]]
                if dc < bu[v] - 1:
                    strong = False
                    if dc != 0:
                        weak = False
                        break
            if not strong and not weak:
                break
        return strong, weak


def naive_geodesics(g: Graph) -> list[tuple[int, ...]]:
    """Every shortest path of a unit-weight graph, once per vertex pair.

    All simple paths are enumerated by depth-first search and kept when their
    edge count equals the BFS distance of their endpoints; a path is listed
    only in the orientation whose first vertex is the smaller endpoint.
    """
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    base = [bfs_levels(g, s) for s in range(n)]
    out = []
    stack = [(s,) for s in range(n)]
    while stack:
        path = stack.pop()
        if len(path) > 1 and path[0] < path[-1] and base[path[0]][path[-1]] == len(path) - 1:
            out.append(path)
        stack.extend(path + (v,) for v in adj[path[-1]] if v not in path)
    return out


def naive_path_claim_shortest(g: Graph):
    """Oracle for the lab's path-lemma-shortest claim at tolerance (1, 1).

    Returns (verdict, smallest counterexample set, firings).  A firing is a
    (valid weak set, geodesic) pair where the set holds two edges of the
    geodesic that share no vertex.  The verdict is "counterexample" when some
    firing's geodesic has an edge outside its set, "holds" when there are
    firings but none of that kind, and "vacuous" when there are none.  The
    smallest counterexample set is the (size, lex)-least set of a violating
    firing, or None.  Valid sets are the power set filtered by
    ``NaiveUnitChecker`` weak verdicts.
    """
    checker = NaiveUnitChecker(g)
    edge_id = {frozenset(e[:2]): i for i, e in enumerate(g.edges)}
    geodesics = []
    for path in naive_geodesics(g):
        eids = [edge_id[frozenset(ab)] for ab in zip(path, path[1:])]
        disjoint_pairs = [
            (1 << e) | (1 << f)
            for e, f in combinations(eids, 2)
            if set(g.edges[e][:2]).isdisjoint(g.edges[f][:2])
        ]
        geodesics.append((path, sum(1 << e for e in eids), disjoint_pairs))
    firings = []
    smallest = None
    for sub in all_subsets(g.edge_count):
        if not checker.verdicts(sub)[1]:
            continue
        mask = sum(1 << e for e in sub)
        for path, path_mask, disjoint_pairs in geodesics:
            if not any(pair & mask == pair for pair in disjoint_pairs):
                continue
            firings.append((sub, path))
            if path_mask & mask != path_mask and smallest is None:
                smallest = sub  # all_subsets yields by size, then lexicographically
    if smallest is not None:
        verdict = "counterexample"
    else:
        verdict = "holds" if firings else "vacuous"
    return verdict, smallest, firings


def relabel_graph(g: Graph, perm) -> Graph:
    """Apply a vertex permutation (perm[v] = new index)."""
    return Graph(g.vertex_count, tuple((perm[u], perm[v], w) for u, v, w in g.edges))


def relabel_bipartite(b: BipartiteGraph, left_perm, right_perm) -> BipartiteGraph:
    return BipartiteGraph(
        b.left_count,
        b.right_count,
        tuple((left_perm[l], right_perm[r], w) for l, r, w in b.edges),
    )
