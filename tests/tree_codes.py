"""The tree canonical form by graph walks: a tree rooted at its centroid
and coded by its level sequence, each vertex's subtrees in descending order.
`graphs` generates each free tree directly as this code; the walks here are
the independent route the tests check that generator, the octane names and
the `enumerate` manifest against.
"""

from meansombor.graphs import Graph


def _graft(subtrees: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Level sequence of a root whose children are `subtrees`, in that order:
    (0,) followed by each subtree's sequence shifted down one level."""
    return (0,) + tuple(d + 1 for t in subtrees for d in t)


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours, in the order of the sorted edge list."""
    nbr: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edge_list:
        nbr[u].append(v)
        nbr[v].append(u)
    return tuple(tuple(ns) for ns in nbr)


def _bfs(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first walk from `root`: (parent, order), where order lists the
    reached vertices in visit order and parent[root] is -1."""
    parent = [-1] * g.vertex_count
    order = [root]
    seen = [False] * g.vertex_count
    seen[root] = True
    adj = adjacency(g)
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    return parent, order


def tree_centroids(g: Graph) -> list[int]:
    """The one or two centroids of a tree, whose removal leaves no component
    above half the vertices: walk from vertex 0 into the child subtree
    holding more than half until none does; a child subtree holding exactly
    half is rooted at the second centroid.  Raises ValueError on a graph
    that is not a tree."""
    n = g.vertex_count
    parent, order = _bfs(g, 0)
    adj = adjacency(g)
    if len(order) != n or g.edge_count != n - 1:
        raise ValueError("centroids are defined for trees only")
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    u = 0
    while True:
        # at most one child subtree can hold half the vertices or more
        heavy = [v for v in adj[u] if v != parent[u] and 2 * size[v] >= n]
        if not heavy or 2 * size[heavy[0]] == n:
            return sorted([u, *heavy])
        u = heavy[0]


def _rooted_code(g: Graph, root: int) -> tuple[int, ...]:
    """Canonical level sequence of the tree rooted at `root` (each vertex's
    subtrees in descending order), built bottom-up without recursion."""
    parent, order = _bfs(g, root)
    subtrees: list[list[tuple[int, ...]]] = [[] for _ in range(g.vertex_count)]
    for u in reversed(order[1:]):
        subtrees[parent[u]].append(_graft(sorted(subtrees[u], reverse=True)))
        subtrees[u] = []
    return _graft(sorted(subtrees[root], reverse=True))


def canonical_form(g: Graph) -> str:
    """Canonical level-sequence string for a tree, rooted at its centroid
    (the smaller sequence when there are two).

    Two trees get the same string iff they are isomorphic; the string doubles
    as the manifest label for enumerated skeletons.  Nothing recurses, so
    every tree parse_graph accepts works under the default recursion limit.
    Raises ValueError, through tree_centroids, on a graph that is not a tree.
    """
    return ".".join(map(str, min(_rooted_code(g, c) for c in tree_centroids(g))))
