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
from typing import Iterable, Iterator

from hornreduce.clauses import Atom, HornClause


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

        Deletion/contraction recursion over the edge list with a
        connectivity feasibility check, so dead branches are pruned and the
        enumeration is lazy — callers may stop at the first suitable tree.
        """
        n = len(self.atoms)
        if n == 0:
            return
        if n == 1:
            yield ()
            return
        edges = self.edges

        def feasible(start: int, chosen_pairs: list[tuple[int, int]]) -> bool:
            # chosen edges plus all not-yet-decided edges must span the graph
            adj: dict[int, list[int]] = {i: [] for i in range(n)}
            for u, v in chosen_pairs:
                adj[u].append(v)
                adj[v].append(u)
            for e in edges[start:]:
                adj[e.u].append(e.v)
                adj[e.v].append(e.u)
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            return len(seen) == n

        chosen: list[LabeledEdge] = []
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def rec(i: int) -> Iterator[tuple[LabeledEdge, ...]]:
            if len(chosen) == n - 1:
                yield tuple(chosen)
                return
            if i == len(edges):
                return
            if not feasible(i, [(e.u, e.v) for e in chosen]):
                return
            e = edges[i]
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                saved = list(parent)
                parent[ru] = rv
                chosen.append(e)
                yield from rec(i + 1)
                chosen.pop()
                parent[:] = saved
            yield from rec(i + 1)

        yield from rec(0)


def clause_graph(c: HornClause) -> ClauseGraph:
    return ClauseGraph(c)


def _literal_masks(literals: tuple[Atom, ...]) -> dict[str, int]:
    """Each term variable's literal mask: bit ``k`` is set when literal ``k``
    holds the variable, however often."""
    masks: dict[str, int] = {}
    for k, atom in enumerate(literals):
        bit = 1 << k
        for v in atom.args:
            masks[v] = masks.get(v, 0) | bit
    return masks


def _spans(masks: Iterable[int], n: int) -> bool:
    """True iff ``n`` literals are connected when each mask joins the
    literals it holds: the union of the masks, grown from literal 0,
    reaches every literal."""
    full = (1 << n) - 1
    reach = 1 & full
    left = list(masks)
    grown = True
    while grown and reach != full:
        grown = False
        rest = []
        for m in left:
            if m & reach:
                reach |= m
                grown = True
            else:
                rest.append(m)
        left = rest
    return reach == full


def is_connected(c: HornClause) -> bool:
    """True iff the clause graph is connected (single literals trivially are)."""
    literals = c.literals()
    return _spans(_literal_masks(literals).values(), len(literals))


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


def find_light_pair(graph: ClauseGraph, max_labels: int,
                    body_only: bool = True) -> LightPair | None:
    """Search for a light pair across spanning trees of a connected graph.

    Breadth-first trees from every root are scanned first; when none of them
    yields a qualifying pair the spanning trees are enumerated exhaustively.
    Deterministic: the same graph and bound always return the same pair.
    Returns None when the graph is disconnected or no tree has a light pair.
    """
    n = graph.vertex_count
    lo = graph.body_offset if body_only else 0
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
