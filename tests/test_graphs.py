"""Clause graphs, spanning trees, light pairs."""

import hashlib
import itertools
from fractions import Fraction

from hornreduce.clauses import Atom, HornClause
from hornreduce.graphs import (
    ClauseGraph,
    LabeledEdge,
    clause_graph,
    find_light_pair,
    is_connected,
    pair_outgoing_labels,
)

from conftest import c_base, c_triadic, cl


def kirchhoff_tree_count(graph: ClauseGraph) -> int:
    """Matrix-tree theorem: any cofactor of the Laplacian, exact arithmetic."""
    n = graph.vertex_count
    if n <= 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in graph.edges:
        lap[e.u][e.u] += 1
        lap[e.v][e.v] += 1
        lap[e.u][e.v] -= 1
        lap[e.v][e.u] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            f = m[i][k] / m[k][k]
            for j in range(k, size):
                m[i][j] -= f * m[k][j]
    assert det.denominator == 1
    return abs(int(det))


def valid_spanning_tree(graph: ClauseGraph, tree) -> bool:
    if len(tree) != graph.vertex_count - 1:
        return False
    if any(e not in graph.edges for e in tree):
        return False
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in tree:
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def oracle_light_pairs(graph: ClauseGraph, max_labels: int):
    """All body pairs that are light under at least one spanning tree."""
    lo = graph.body_offset
    out = set()
    for tree in graph.all_spanning_trees():
        for u, v in itertools.combinations(range(lo, graph.vertex_count), 2):
            if len(pair_outgoing_labels(tree, u, v)) <= max_labels:
                out.add((u, v))
    return out


def path_clause() -> HornClause:
    # graph is a path: P2 - P1 - P0 - P3 - P4
    return cl("P0(x1,x2) :- P1(x1,x4), P2(x4), P3(x2,x5), P4(x5).")


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_path_clause_graph_edges():
    g = clause_graph(path_clause())
    assert g.vertex_count == 5
    assert set(g.edges) == {
        LabeledEdge(0, 1, "x1"),
        LabeledEdge(0, 3, "x2"),
        LabeledEdge(1, 2, "x4"),
        LabeledEdge(3, 4, "x5"),
    }
    assert g.body_offset == 1


def test_base_clause_graph_shape():
    g = clause_graph(c_base())
    assert g.vertex_count == 6
    assert len(g.edges) == 12
    # complete graph minus a perfect matching: each literal misses exactly one
    non_adjacent = {(u, v) for u, v in itertools.combinations(range(6), 2)
                    if not g.adjacent(u, v)}
    assert non_adjacent == {(0, 5), (1, 4), (2, 3)}
    # every adjacent pair shares exactly one variable: no parallel edges
    assert len({(e.u, e.v) for e in g.edges}) == 12


def test_parallel_edges_per_shared_variable():
    g = clause_graph(cl("P(x,y) :- Q(x,y), R(x)."))
    assert sorted((e.u, e.v, e.var) for e in g.edges) == [
        (0, 1, "x"), (0, 1, "y"), (0, 2, "x"), (1, 2, "x")]


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def test_connectivity():
    assert is_connected(cl("P(x)."))
    assert is_connected(cl("P(x) :- Q(x)."))
    assert not is_connected(cl("P(x) :- Q(y)."))
    assert is_connected(cl("P(x,y,z) :- Q(x), R(y), S(z)."))  # star through head
    assert not is_connected(cl("P(x) :- Q(x), R(y), S(y)."))
    assert is_connected(HornClause(None, ()))  # empty clause, by convention
    assert is_connected(HornClause(None, (Atom.of("Q", "x"),)))


def test_triadic_clause_connected():
    assert is_connected(c_triadic())


# ---------------------------------------------------------------------------
# Spanning trees
# ---------------------------------------------------------------------------

def test_bfs_tree_is_spanning_tree():
    for c in [path_clause(), c_base(), c_triadic()]:
        g = clause_graph(c)
        for root in range(g.vertex_count):
            tree = g.bfs_spanning_tree(root)
            assert tree is not None and valid_spanning_tree(g, tree)


def test_bfs_tree_none_when_disconnected():
    assert clause_graph(cl("P(x) :- Q(y).")).bfs_spanning_tree() is None


def test_enumeration_matches_kirchhoff():
    digest = hashlib.sha256()
    for c in [path_clause(), c_base(), c_triadic(),
              cl("P(x,y) :- Q(x,y), R(x)."),
              cl("P(x,y,z) :- Q(x), R(y), S(z).")]:
        g = clause_graph(c)
        trees = list(g.all_spanning_trees())
        assert len(trees) == len(set(trees))
        assert all(valid_spanning_tree(g, t) for t in trees)
        assert len(trees) == kirchhoff_tree_count(g)
        for t in trees:
            digest.update(repr(t).encode())
    # find_light_pair's fallback returns the first qualifying tree, so the
    # order trees are yielded in is behaviour
    assert digest.hexdigest() == (
        "53588dfcb3dfc18967c09cb3831fbdd3e96d094a104c93f7f403eb2479e47a7d")


def test_base_clause_tree_count():
    assert kirchhoff_tree_count(clause_graph(c_base())) == 384


def test_path_graph_has_unique_tree():
    g = clause_graph(path_clause())
    trees = list(g.all_spanning_trees())
    assert len(trees) == 1
    assert set(trees[0]) == set(g.edges)


# ---------------------------------------------------------------------------
# Light pairs
# ---------------------------------------------------------------------------

def test_outgoing_labels_on_path():
    g = clause_graph(path_clause())
    tree = g.bfs_spanning_tree()
    assert pair_outgoing_labels(tree, 1, 2) == frozenset({"x1"})
    assert pair_outgoing_labels(tree, 3, 4) == frozenset({"x2"})
    assert pair_outgoing_labels(tree, 2, 4) == frozenset({"x4", "x5"})
    assert pair_outgoing_labels(tree, 1, 4) == frozenset({"x1", "x4", "x5"})


def test_light_pair_on_path_bound_two():
    g = clause_graph(path_clause())
    lp = find_light_pair(g, 2)
    assert lp is not None
    assert (lp.u, lp.v) in oracle_light_pairs(g, 2)
    assert (lp.u, lp.v) in {(1, 2), (3, 4), (2, 4)}
    assert len(lp.labels) <= 2
    assert valid_spanning_tree(g, lp.tree)
    assert lp.labels == pair_outgoing_labels(lp.tree, lp.u, lp.v)


def test_light_pair_on_path_bound_three_includes_far_pair():
    g = clause_graph(path_clause())
    assert (1, 4) in oracle_light_pairs(g, 3)
    lp = find_light_pair(g, 3)
    assert lp is not None and (lp.u, lp.v) in oracle_light_pairs(g, 3)


def test_light_pair_star_clause_non_adjacent():
    # no two body literals share a variable, so only non-adjacent pairs exist
    g = clause_graph(cl("P(x,y,z) :- Q(x), R(y), S(z)."))
    lp = find_light_pair(g, 2)
    assert lp is not None
    assert not g.adjacent(lp.u, lp.v)
    assert lp.u >= 1 and lp.v >= 1
    assert len(lp.labels) == 2


def test_light_pair_base_clause_matches_oracle():
    g = clause_graph(c_base())
    oracle = oracle_light_pairs(g, 2)
    lp = find_light_pair(g, 2)
    if oracle:
        assert lp is not None and (lp.u, lp.v) in oracle
        assert len(lp.labels) <= 2
    else:
        assert lp is None


def test_light_pair_excludes_head_by_default():
    g = clause_graph(cl("P(x) :- Q(x), R(x)."))
    lp = find_light_pair(g, 1)
    assert lp is not None and (lp.u, lp.v) == (1, 2)


def test_light_pair_none_when_bound_too_small():
    g = clause_graph(cl("P(x,y,z) :- Q(x), R(y), S(z)."))
    assert find_light_pair(g, 1) is None


def test_light_pair_too_few_vertices():
    assert find_light_pair(clause_graph(cl("P(x) :- Q(x).")), 2) is None
