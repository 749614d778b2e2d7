"""Random-instance builders, hypothesis strategies and a decoder of packed
distance matrices, shared by the tests."""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st

from contractlab import BipartiteGraph, Graph

SMALL_WEIGHTS = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2),
    Fraction(3, 2),
    Fraction(3),
]


def random_connected_graph(
    rng: random.Random, n: int, m: int | None = None, unit: bool = True
) -> Graph:
    """Random spanning tree plus extra edges; m defaults to a random size."""
    max_m = n * (n - 1) // 2
    if m is None:
        m = rng.randint(max(0, n - 1), max_m)
    if not (n - 1 <= m <= max_m) and n > 0:
        raise ValueError(f"cannot place {m} edges on {n} vertices")
    chosen: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        chosen.add((u, v))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in chosen]
    rng.shuffle(rest)
    chosen.update(rest[: m - len(chosen)])

    def weight():
        return Fraction(1) if unit else rng.choice(SMALL_WEIGHTS)

    return Graph(n, tuple((u, v, weight()) for u, v in sorted(chosen)))


def unpack_matrix(matrix: int, packing, n: int) -> list[list[int]]:
    """The n x n distances packed row-major in ``matrix`` (see
    ``solvers.RowPacking``); its guard bits and the bits above its n*n fields
    must be clear."""
    width = packing.width
    assert matrix & packing.guards == 0 and matrix >> (n * n * width) == 0
    value = (1 << (width - 1)) - 1
    return [[(matrix >> ((u * n + y) * width)) & value for y in range(n)] for u in range(n)]


def unpack_pairs(failing: int, packing, n: int) -> list[tuple[int, int]]:
    """The pairs whose guard bits are set in a failing mask, in field
    (lexicographic) order; every other bit must be clear."""
    width = packing.width
    assert failing & ~packing.guards == 0
    return [divmod(i, n) for i in range(n * n) if (failing >> ((i + 1) * width - 1)) & 1]


def random_subset(rng: random.Random, m: int, nonempty: bool = False) -> tuple[int, ...]:
    while True:
        sub = tuple(e for e in range(m) if rng.random() < 0.5)
        if sub or not nonempty or m == 0:
            return sub


@st.composite
def connected_graphs(draw, max_n: int = 6, unit: bool = True):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        edges.append((draw(st.integers(0, v - 1)), v))
    tree = set(edges)
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    if rest:
        extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest)))
        edges.extend(extra)
    if unit:
        return Graph(n, tuple(edges))
    weights = draw(
        st.lists(
            st.sampled_from(SMALL_WEIGHTS),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return Graph(n, tuple((u, v, w) for (u, v), w in zip(edges, weights)))


@st.composite
def graph_and_subset(draw, max_n: int = 6, unit: bool = True):
    g = draw(connected_graphs(max_n=max_n, unit=unit))
    mask = draw(st.integers(0, (1 << g.edge_count) - 1)) if g.edge_count else 0
    subset = tuple(e for e in range(g.edge_count) if (mask >> e) & 1)
    return g, subset


@st.composite
def bipartite_graphs(draw, max_side: int = 3, connected: bool = False):
    import contractlab as cl
    from hypothesis import assume

    left = draw(st.integers(1, max_side))
    right = draw(st.integers(1, max_side))
    mask = draw(st.integers(0, (1 << (left * right)) - 1))
    edges = [
        (l, r)
        for l in range(left)
        for r in range(right)
        if (mask >> (l * right + r)) & 1
    ]
    b = BipartiteGraph(left, right, tuple(edges))
    if connected:
        assume(cl.is_connected(b.to_graph()))
    return b


def tolerances():
    return st.tuples(
        st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]),
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
    )
