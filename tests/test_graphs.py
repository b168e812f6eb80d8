"""Clause graphs, spanning trees, light pairs."""

import hashlib
import itertools
import random
from fractions import Fraction

from hornreduce.clauses import Atom, HornClause
from hornreduce.fragments import enumerate_fragment, horn, horn_2c, horn_c
from hornreduce.graphs import (
    ClauseGraph,
    LabeledEdge,
    _adjacency,
    _bfs_edges,
    clause_graph,
    find_light_pair,
    is_connected,
)
from hornreduce.reduction import hnr_family

from conftest import c_base, c_triadic, cl


def bfs_spanning_tree(graph: ClauseGraph, root: int = 0):
    """The breadth-first spanning tree ``find_light_pair`` scans from
    ``root``, or None when the graph is disconnected: each vertex, in the
    order reached, takes the edges to vertices not yet reached in edge
    order."""
    ids = _bfs_edges(_adjacency(graph.edges, graph.vertex_count), root)
    return None if ids is None else tuple(graph.edges[k] for k in ids)


def pair_outgoing_labels(tree, u: int, v: int) -> frozenset[str]:
    """Distinct labels on tree edges with exactly one endpoint in ``{u, v}``."""
    pair = {u, v}
    return frozenset(e.var for e in tree if (e.u in pair) != (e.v in pair))


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
    adjacent = {(e.u, e.v) for e in g.edges}
    non_adjacent = set(itertools.combinations(range(6), 2)) - adjacent
    assert non_adjacent == {(0, 5), (1, 4), (2, 3)}
    # every adjacent pair shares exactly one variable: no parallel edges
    assert len(adjacent) == 12


def test_parallel_edges_per_shared_variable():
    g = clause_graph(cl("P(x,y) :- Q(x,y), R(x)."))
    assert sorted((e.u, e.v, e.var) for e in g.edges) == [
        (0, 1, "x"), (0, 1, "y"), (0, 2, "x"), (1, 2, "x")]
    # edges come sorted by (u, v, var), not in first-occurrence order
    g = clause_graph(cl("P(y,x) :- Q(y,x), R(x)."))
    assert [(e.u, e.v, e.var) for e in g.edges] == [
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
            tree = bfs_spanning_tree(g, root)
            assert tree is not None and valid_spanning_tree(g, tree)


def test_bfs_tree_none_when_disconnected():
    assert bfs_spanning_tree(clause_graph(cl("P(x) :- Q(y)."))) is None


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
    tree = bfs_spanning_tree(g)
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
    assert (lp.u, lp.v) not in {(e.u, e.v) for e in g.edges}
    assert lp.u >= 1 and lp.v >= 1
    assert len(lp.labels) == 2


def test_light_pair_prefers_adjacent_pairs():
    # the lower pair (1, 2) is light too, but its literals share nothing
    g = clause_graph(cl("P0(a) :- P1(c), P2(d), P3(a,c,d)."))
    assert (1, 2) in oracle_light_pairs(g, 2)
    lp = find_light_pair(g, 2)
    assert (lp.u, lp.v, lp.labels) == (1, 3, frozenset({"a", "d"}))


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


def test_edges_bfs_trees_and_light_pairs_are_pinned():
    # spanning_tree_split pivots on find_light_pair's answer, so its pair,
    # tree and labels are behaviour, as are the edge order and BFS trees
    # it scans.  Labels are sorted: a frozenset's repr follows the hash seed.
    corpus = [c for spec in (horn_c(2, 3), horn(2, 3), horn_2c(2, 4),
                             horn_c(3, 2)) for c in enumerate_fragment(spec)]
    corpus += [*hnr_family(1), c_base(), c_triadic()]
    assert len(corpus) == 1736
    digest = hashlib.sha256()
    for c in corpus:
        g = clause_graph(c)
        digest.update(repr(g.edges).encode())
        for root in range(g.vertex_count):
            digest.update(repr(bfs_spanning_tree(g, root)).encode())
        for cap in (1, 2, 3):
            lp = find_light_pair(g, cap)
            key = None if lp is None else (lp.u, lp.v, lp.tree,
                                           sorted(lp.labels))
            digest.update(repr(key).encode())
    assert digest.hexdigest() == (
        "dd77b4a13e88649fb481d58f865360d51f9444091b50ba14ec770e21019afc67")


def scanned_light_pair(graph: ClauseGraph, max_labels: int):
    """``find_light_pair`` with one pass over the tree per pair: the best
    pair of the breadth-first trees, ranked by adjacency, label count and
    pair, else the best pair of the first enumerated tree that has one."""
    lo, n = graph.body_offset, graph.vertex_count
    if n - lo < 2:
        return None
    linked = {(e.u, e.v) for e in graph.edges}

    def best(tree):
        ranked = [((0 if (u, v) in linked else 1, len(labels), (u, v)),
                   (u, v, tree, labels))
                  for u, v in itertools.combinations(range(lo, n), 2)
                  for labels in [pair_outgoing_labels(tree, u, v)]
                  if len(labels) <= max_labels]
        return min(ranked, key=lambda r: r[0], default=None)

    trees = [bfs_spanning_tree(graph, root) for root in range(n)]
    if None in trees:
        return None
    found = min(filter(None, map(best, trees)), key=lambda r: r[0],
                default=None)
    if found is None:
        found = next(filter(None, map(best, graph.all_spanning_trees())),
                     None)
    return None if found is None else found[1]


def random_connected_clause(rng: random.Random) -> HornClause:
    """A connected headed clause of 2-7 body atoms of arity 1-3 whose
    predicates and arguments may repeat."""
    arity = {f"P{k}": rng.randint(1, 3) for k in range(4)}
    names = [f"x{k}" for k in range(rng.randint(1, 6))]

    def atom():
        p = rng.choice(sorted(arity))
        return Atom.of(p, *rng.choices(names, k=arity[p]))

    while True:
        c = HornClause(atom(), tuple(atom() for _ in range(rng.randint(2, 7))))
        if is_connected(c):
            return c


def test_head_rooted_tree_always_has_a_light_pair(monkeypatch, corpus_c24,
                                                  corpus_c33):
    # The theorem spanning_tree_split rests on: at the clause's own arity,
    # the breadth-first tree rooted at the head has a light pair, so the
    # exhaustive tree search is never reached.
    def never(self):
        raise AssertionError("exhaustive spanning-tree search reached")

    monkeypatch.setattr(ClauseGraph, "all_spanning_trees", never)
    rng = random.Random(37)
    members = [c for c in (*corpus_c24, *corpus_c33) if c.body_size >= 2]
    randoms = [random_connected_clause(rng) for _ in range(20000)]
    assert len(members) == 11583
    assert {len(set(a.pred for a in c.body)) < c.body_size
            for c in randoms} == {False, True}
    assert any(len(set(a.args)) < len(a.args)
               for c in randoms for a in c.body)
    for c in members + randoms:
        lp = find_light_pair(clause_graph(c), c.max_arity())
        assert lp is not None and len(lp.labels) <= c.max_arity(), str(c)


def chain_clause(n: int) -> HornClause:
    return cl("P0(x0) :- " + ", ".join(f"P{i}(x{i - 1},x{i})"
                                       for i in range(1, n)) + ".")


def test_light_pair_matches_a_scan_of_each_pair(corpus_c24):
    # The pair's labels come from per-vertex incident-edge masks, not from
    # a pass over the tree for each pair; the chosen pair is the same.
    members = [c for c in corpus_c24 if c.body_size >= 3]
    cases = [(c, cap) for c in random.Random(31).sample(members, 60)
             for cap in (1, 2, 3)]
    for c, cap in cases + [(chain_clause(40), 2), (chain_clause(80), 2)]:
        g = clause_graph(c)
        lp = find_light_pair(g, cap)
        got = None if lp is None else (lp.u, lp.v, lp.tree, lp.labels)
        assert got == scanned_light_pair(g, cap)
