"""Clause graphs: literal-occurrence multigraphs, spanning trees, light pairs.

The graph of a clause has one vertex per literal occurrence (head first) and,
for every unordered pair of literals, one edge per term variable they share,
labeled by that variable.  Parallel edges with different labels are real and
matter: spanning trees of the multigraph distinguish them.

A *light pair* for a bound ``a`` is a pair of vertices together with a
spanning tree such that the tree edges leaving the pair carry at most ``a``
distinct labels.  Those labels become the arguments of the pivot atom when a
clause is split into two smaller premises, so the bound is the arity cap of
the target fragment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterator

from hornreduce.clauses import HornClause


@dataclass(frozen=True, slots=True)
class LabeledEdge:
    """An edge between literal occurrences ``u < v`` labeled by a shared variable."""

    u: int
    v: int
    var: str

    def other(self, vertex: int) -> int:
        return self.v if vertex == self.u else self.u


class ClauseGraph:
    """The literal-occurrence multigraph of a clause."""

    __slots__ = ("clause", "atoms", "edges", "_adj")

    def __init__(self, clause: HornClause):
        self.clause = clause
        self.atoms = clause.literals()
        edges: list[LabeledEdge] = []
        var_sets = [set(a.args) for a in self.atoms]
        for u, v in itertools.combinations(range(len(self.atoms)), 2):
            for var in sorted(var_sets[u] & var_sets[v]):
                edges.append(LabeledEdge(u, v, var))
        self.edges: tuple[LabeledEdge, ...] = tuple(edges)
        adj: dict[int, list[LabeledEdge]] = {i: [] for i in range(len(self.atoms))}
        for e in edges:
            adj[e.u].append(e)
            adj[e.v].append(e)
        self._adj = adj

    @property
    def vertex_count(self) -> int:
        return len(self.atoms)

    @property
    def body_offset(self) -> int:
        """Index of the first body vertex (1 when the clause has a head)."""
        return 1 if self.clause.head is not None else 0

    def adjacent(self, u: int, v: int) -> bool:
        return any(e.other(u) == v for e in self._adj[u])

    def is_connected(self) -> bool:
        return is_connected(self.clause)

    def bfs_spanning_tree(self, root: int = 0) -> tuple[LabeledEdge, ...] | None:
        """A breadth-first spanning tree, or None when the graph is disconnected."""
        n = len(self.atoms)
        seen = {root}
        tree: list[LabeledEdge] = []
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for e in self._adj[u]:
                    w = e.other(u)
                    if w not in seen:
                        seen.add(w)
                        tree.append(e)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != n:
            return None
        return tuple(tree)

    def all_spanning_trees(self) -> Iterator[tuple[LabeledEdge, ...]]:
        """Yield every spanning tree of the multigraph exactly once.

        Deletion/contraction recursion over the edge list, each edge a
        literal mask: an edge is taken unless the taken edges already join
        its ends, and a branch is pruned as soon as the taken and undecided
        edges no longer span the graph.  The enumeration is lazy, so callers
        may stop at the first suitable tree.
        """
        n = len(self.atoms)
        if n == 0:
            return
        edges = self.edges
        masks = [1 << e.u | 1 << e.v for e in edges]
        chosen: list[int] = []  # indices of the taken edges

        def rec(i: int) -> Iterator[tuple[LabeledEdge, ...]]:
            if len(chosen) == n - 1:
                yield tuple(edges[k] for k in chosen)
                return
            taken = [masks[k] for k in chosen]
            if not _spans(taken + masks[i:], n):
                return  # also when the edges have run out
            e = edges[i]
            if not _reach(taken, 1 << e.u) >> e.v & 1:
                chosen.append(i)
                yield from rec(i + 1)
                chosen.pop()
            yield from rec(i + 1)

        yield from rec(0)


def clause_graph(c: HornClause) -> ClauseGraph:
    return ClauseGraph(c)


def _literal_masks(c: HornClause) -> dict[str, int]:
    """Each term variable's literal mask in first-occurrence order: bit ``k``
    is set when literal ``k`` (head first) holds the variable, however
    often."""
    masks: dict[str, int] = {}
    for k, atom in enumerate(c.literals()):
        bit = 1 << k
        for v in atom.args:
            masks[v] = masks.get(v, 0) | bit
    return masks


def _reach(masks: Collection[int], start: int) -> int:
    """The literals joined to those of ``start`` when each mask joins the
    literals it holds, as a mask."""
    reach = start
    while True:
        before = reach
        for m in masks:
            if m & reach:
                reach |= m
        if reach == before:
            return reach


def _spans(masks: Collection[int], n: int) -> bool:
    """True iff ``n`` literals are connected when each mask joins the
    literals it holds: grown from literal 0, they reach every literal."""
    full = (1 << n) - 1
    return _reach(masks, 1) & full == full


def is_connected(c: HornClause) -> bool:
    """True iff the clause graph is connected (single literals trivially are)."""
    return _spans(_literal_masks(c).values(),
                  c.body_size + (c.head is not None))


def pair_outgoing_labels(tree: tuple[LabeledEdge, ...], u: int, v: int) -> frozenset[str]:
    """Distinct labels on tree edges with exactly one endpoint in ``{u, v}``."""
    pair = {u, v}
    return frozenset(e.var for e in tree if (e.u in pair) != (e.v in pair))


@dataclass(frozen=True, slots=True)
class LightPair:
    """A vertex pair and spanning tree whose outgoing labels fit the bound."""

    u: int
    v: int
    tree: tuple[LabeledEdge, ...]
    labels: frozenset[str]


_Ranked = tuple[tuple[int, int, tuple[int, int]], LightPair]


def _scan_tree(graph: ClauseGraph, tree: tuple[LabeledEdge, ...], max_labels: int,
               lo: int) -> _Ranked | None:
    """Best qualifying pair for one tree with its rank: adjacent pairs
    first, then fewer labels, then the lowest vertex pair."""
    best: _Ranked | None = None
    for u, v in itertools.combinations(range(lo, graph.vertex_count), 2):
        labels = pair_outgoing_labels(tree, u, v)
        if len(labels) > max_labels:
            continue
        rank = (0 if graph.adjacent(u, v) else 1, len(labels), (u, v))
        if best is None or rank < best[0]:
            best = (rank, LightPair(u, v, tree, labels))
    return best


def find_light_pair(graph: ClauseGraph, max_labels: int) -> LightPair | None:
    """Search for a light pair of body vertices across spanning trees of a
    connected graph.

    Breadth-first trees from every root are scanned first; when none of them
    yields a qualifying pair the spanning trees are enumerated exhaustively.
    Deterministic: the same graph and bound always return the same pair.
    Returns None when the graph is disconnected or no tree has a light pair.
    """
    n = graph.vertex_count
    lo = graph.body_offset
    if n - lo < 2:
        return None
    found: _Ranked | None = None
    for root in range(n):
        tree = graph.bfs_spanning_tree(root)
        if tree is None:
            return None
        got = _scan_tree(graph, tree, max_labels, lo)
        if got is not None and (found is None or got[0] < found[0]):
            found = got
    if found is not None:
        return found[1]
    for tree in graph.all_spanning_trees():
        got = _scan_tree(graph, tree, max_labels, lo)
        if got is not None:
            return got[1]
    return None
