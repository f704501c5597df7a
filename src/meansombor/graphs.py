"""Simple undirected graphs: parsing, structure queries, and tree enumeration.

Everything downstream (index evaluation, inequality checks, QSPR) works on
the immutable :class:`Graph` container defined here.  The module also owns
the generation side: standard families (paths, cycles, stars, complete and
complete bipartite graphs), seeded random connected graphs, the free trees
of each order, and the 18 octane carbon skeletons (trees on 8 vertices with
maximum degree 4).

A rooted tree is coded by its level sequence: the depths in preorder, each
vertex's subtrees in descending order (Beyer and Hedetniemi, 1980).  Free
trees are generated directly as their codes rooted at the centroid: one
tree per isomorphism class, with no isomorphism test and no graph walk.
The trees are sorted on the code's string and labelled by it, so the order
and the vertex labels depend only on the isomorphism classes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple


# Largest vertex count parse_graph accepts; keeps a dense n x n float
# matrix at 128 MiB.
MAX_VERTICES = 4096


class GraphParseError(ValueError):
    """Raised when an edge-list document is malformed; names the bad line."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..vertex_count-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v, counted into
    the degree sequence as they are checked.  No self-loops, no multi-edges.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    degrees: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        n = self.vertex_count
        deg = [0] * n
        for u, v in self.edges:
            if not 0 <= u < v < n:
                raise ValueError(
                    f"self-loop at vertex {u}" if u == v
                    else f"edge ({u},{v}) out of range or unnormalized"
                )
            deg[u] += 1
            deg[v] += 1
        object.__setattr__(self, "degrees", tuple(deg))  # frozen: set the derived field

    @classmethod
    def from_edges(cls, vertex_count: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered vertex pairs, rejecting duplicates."""
        seen: set[tuple[int, int]] = set()
        for u, v in pairs:
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
        return cls(vertex_count, frozenset(seen))

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Edges in sorted order; the deterministic iteration order."""
        return tuple(sorted(self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def degree_extremes(g: Graph) -> tuple[int, int]:
    """Minimum and maximum vertex degree, isolated vertices included."""
    return min(g.degrees), max(g.degrees)


def is_connected(g: Graph) -> bool:
    """True iff one component spans all vertices (single vertex counts):
    one union-find pass with path halving over the edges (Tarjan, 1975),
    which needs no adjacency lists."""
    parent = list(range(g.vertex_count))
    components = g.vertex_count
    for u, v in g.edges:
        while parent[u] != u:  # path halving: u steps to its grandparent
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            components -= 1
    return components == 1


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: first nonblank line is the vertex count N, 1 <= N <=
    MAX_VERTICES; each following nonblank line is "u v" with
    0 <= u, v < N.  Lines starting with '#' are ignored.  Self-loops,
    duplicate edges, out-of-range ids, and a vertex count above the limit
    are rejected with the offending line number.
    """
    vertex_count: int | None = None
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if vertex_count is None:
            try:
                vertex_count = int(line)
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected vertex count, got {line!r}")
            if vertex_count < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive")
            if vertex_count > MAX_VERTICES:
                raise GraphParseError(
                    f"line {lineno}: vertex count {vertex_count} exceeds the limit {MAX_VERTICES}"
                )
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: vertex ids must be integers, got {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphParseError(f"line {lineno}: vertex id out of range in {line!r}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphParseError(f"line {lineno}: duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
    if vertex_count is None:
        raise GraphParseError("line 1: empty document, expected vertex count")
    return Graph(vertex_count, frozenset(seen))


def to_edge_list_text(g: Graph) -> str:
    """Serialize a graph in the edge-list format accepted by parse_graph."""
    lines = [str(g.vertex_count)]
    lines.extend(f"{u} {v}" for u, v in g.edge_list)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    off = g1.vertex_count
    edges = list(g1.edges) + [(u + off, v + off) for u, v in g2.edges]
    return Graph.from_edges(off + g2.vertex_count, edges)


def random_connected_graphs(count: int, seed: int) -> list["NamedGraph"]:
    """Seeded corpus of random connected graphs on 4..12 vertices: each one
    Erdos-Renyi style, resampled until connected."""
    rng = random.Random(seed)
    # each order's pairs i < j in lexicographic order, one coin flip a pair
    pairs = {n: [(i, j) for i in range(n) for j in range(i + 1, n)] for n in range(4, 13)}
    out = []
    for k in range(count):
        n = rng.randint(4, 12)
        p = rng.uniform(0.25, 0.85)
        while True:  # an edgeless draw is disconnected too, as n >= 4
            g = Graph(n, frozenset([e for e in pairs[n] if rng.random() < p]))
            if is_connected(g):
                break
        out.append(NamedGraph(f"random_{seed}_{k:04d}", g))
    return out


# ---------------------------------------------------------------------------
# Tree codes and enumeration
# ---------------------------------------------------------------------------

def _plant(branches: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Level sequence of a root whose children are `branches`, in that order,
    each a subtree's level sequence already shifted down one level."""
    return (0, *chain.from_iterable(branches))


def _forests(pool: list[tuple[int, ...]], m: int, start: int = 0) -> Iterator[tuple]:
    """Every multiset of rooted trees from pool[start:] whose vertex counts
    sum to m, as a tuple in pool order.  pool holds level sequences sorted
    largest first, so each tuple comes out in the descending order a level
    sequence gives a vertex's subtrees."""
    if m == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        if len(pool[i]) <= m:
            for rest in _forests(pool, m - len(pool[i]), i):
                yield (pool[i],) + rest


def _free_tree_codes(n: int) -> Iterator[tuple[int, ...]]:
    """The canonical code of every free tree on n vertices, each tree once:
    its level sequence rooted at the centroid (the smaller at two).

    By Jordan's centroid theorem a tree has one centroid exactly when each
    branch there has at most (n - 1) // 2 vertices, so those trees are the
    multisets of such rooted trees with n - 1 vertices in all.  A tree with
    two centroids is an unordered pair of rooted trees on n / 2 vertices
    joined at their roots; its code is the smaller of its two rootings.
    Rooted trees are built by size, each planted on the multiset of its
    subtrees.  The pool holds them as branches, shifted down one level once
    each (a shift keeps their order), so a code is its branches chained.
    """
    pool: list[tuple[int, ...]] = []
    subtrees: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}  # keyed by branch
    for size in range(1, n // 2 + 1):
        for forest in _forests(pool, size - 1):
            subtrees[tuple(d + 1 for d in _plant(forest))] = forest
        pool = sorted(subtrees, reverse=True)
    yield from map(_plant, _forests([t for t in pool if 2 * len(t) < n], n - 1))
    if n % 2 == 0:
        halves = [t for t in pool if 2 * len(t) == n]
        for i, a in enumerate(halves):
            for b in halves[i:]:
                yield min(
                    _plant(sorted(subtrees[a] + (b,), reverse=True)),
                    _plant(sorted(subtrees[b] + (a,), reverse=True)),
                )


def _tree_from_levels(levels: tuple[int, ...]) -> Graph:
    """The tree of a level sequence: vertex i sits at depth levels[i] and
    hangs from the nearest earlier vertex one level up."""
    last = [0] * len(levels)  # the latest vertex at each depth
    edges = []
    for v, d in enumerate(levels):
        if d:
            edges.append((last[d - 1], v))
        last[d] = v
    return Graph(len(levels), frozenset(edges))


def enumerate_trees(n: int) -> list[Graph]:
    """All pairwise non-isomorphic trees on n vertices, sorted by canonical
    form.

    Each tree is built from its centroid-rooted code, one per isomorphism
    class, and labelled by its canonical form: vertex i is entry i of the
    level sequence, and its parent is the nearest earlier vertex one level
    up, so the labels depend only on the isomorphism class.  The codes sort
    in the order of their strings `".".join(map(str, code))`: '.' sorts
    below every digit, so while every depth is one digit that is plain tuple
    order.  No code is deeper than n // 2, the path's, so below n = 20
    every depth is one digit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n < 20:
        codes = sorted(_free_tree_codes(n))
    else:
        codes = sorted(_free_tree_codes(n), key=lambda code: ".".join(map(str, code)))
    return [_tree_from_levels(code) for code in codes]


class NamedGraph(NamedTuple):
    """A graph with a stable identifier; `canonical` is filled for octane skeletons."""

    name: str
    graph: Graph
    canonical: str = ""


# The 18 octane isomers (the trees on 8 vertices with maximum degree <= 4)
# by canonical form, in canonical order, with their standard names.
OCTANE_NAMES: dict[str, str] = {
    "0.1.2.1.2.1.2.1": "3-ethyl-3-methylpentane",
    "0.1.2.2.1.2.1.1": "2,3,3-trimethylpentane",
    "0.1.2.2.1.2.1.2": "3-ethyl-2-methylpentane",
    "0.1.2.2.1.2.2.1": "2,3,4-trimethylpentane",
    "0.1.2.2.2.1.1.1": "2,2,3,3-tetramethylbutane",
    "0.1.2.2.2.1.2.1": "2,2,3-trimethylpentane",
    "0.1.2.2.2.1.2.2": "2,2,4-trimethylpentane",
    "0.1.2.3.1.2.1.1": "3,3-dimethylhexane",
    "0.1.2.3.1.2.1.2": "3-ethylhexane",
    "0.1.2.3.1.2.2.1": "2,3-dimethylhexane",
    "0.1.2.3.1.2.2.2": "2,2-dimethylhexane",
    "0.1.2.3.1.2.3.1": "4-methylheptane",
    "0.1.2.3.2.1.2.1": "3,4-dimethylhexane",
    "0.1.2.3.2.1.2.2": "2,4-dimethylhexane",
    "0.1.2.3.2.1.2.3": "3-methylheptane",
    "0.1.2.3.3.1.2.2": "2,5-dimethylhexane",
    "0.1.2.3.3.1.2.3": "2-methylheptane",
    "0.1.2.3.4.1.2.3": "n-octane",
}


def enumerate_octane_skeletons() -> list[NamedGraph]:
    """The 18 non-isomorphic trees on 8 vertices with maximum degree <= 4,
    in canonical order, labeled with standard isomer names; each is the
    tree of its canonical level sequence, as `enumerate_trees` builds it."""
    return [
        NamedGraph(name, _tree_from_levels(tuple(map(int, c.split(".")))), c)
        for c, name in OCTANE_NAMES.items()
    ]


# ---------------------------------------------------------------------------
# Verification corpus
# ---------------------------------------------------------------------------

def default_corpus() -> list[NamedGraph]:
    """Named deterministic graph corpus used by the bound-verification sweep:
    octane skeletons, all trees on <=7 vertices, K_n (n<=6), K_{a,b}
    (a,b<=4), and paths/cycles/stars up to 10 vertices."""
    out: list[NamedGraph] = list(enumerate_octane_skeletons())
    for n in range(2, 8):
        for i, t in enumerate(enumerate_trees(n)):
            out.append(NamedGraph(f"tree{n}_{i:02d}", t))
    for n in range(2, 7):
        out.append(NamedGraph(f"K{n}", complete_graph(n)))
    for a in range(1, 5):
        for b in range(a, 5):
            out.append(NamedGraph(f"K{a},{b}", complete_bipartite(a, b)))
    for n in range(2, 11):
        out.append(NamedGraph(f"P{n}", path_graph(n)))
    for n in range(3, 11):
        out.append(NamedGraph(f"C{n}", cycle_graph(n)))
    for k in range(2, 10):
        out.append(NamedGraph(f"star{k}", star_graph(k)))
    return out
