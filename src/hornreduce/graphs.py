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

Everything here works on literal masks (bit ``k`` for literal ``k``, head
first) from :func:`hornreduce.clauses._literal_masks`: the edges are built
variable by variable from each variable's mask, and connectivity,
breadth-first trees, spanning-tree enumeration and light-pair adjacency
read variable or edge masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterator, Sequence

from hornreduce.clauses import HornClause, _literal_masks


@dataclass(frozen=True, slots=True)
class LabeledEdge:
    """An edge between literal occurrences ``u < v`` labeled by a shared variable."""

    u: int
    v: int
    var: str


class ClauseGraph:
    """The literal-occurrence multigraph of a clause, its edges sorted by
    ``(u, v, var)``."""

    __slots__ = ("clause", "atoms", "edges")

    def __init__(self, clause: HornClause):
        self.clause = clause
        self.atoms = clause.literals()
        edges = [LabeledEdge(u, v, var)
                 for var, m in _literal_masks(clause)[0].items()
                 for u, v in itertools.combinations(_bits(m), 2)]
        edges.sort(key=lambda e: (e.u, e.v, e.var))
        self.edges: tuple[LabeledEdge, ...] = tuple(edges)

    @property
    def vertex_count(self) -> int:
        return len(self.atoms)

    @property
    def body_offset(self) -> int:
        """Index of the first body vertex (1 when the clause has a head)."""
        return 1 if self.clause.head is not None else 0

    def bfs_spanning_tree(self, root: int = 0) -> tuple[LabeledEdge, ...] | None:
        """A breadth-first spanning tree, or None when the graph is disconnected.

        Each vertex, in the order reached, takes the edges to vertices not
        yet reached in edge order (see :func:`_bfs_edges`).
        """
        ids = _bfs_edges(_adjacency(self.edges, len(self.atoms)), root)
        return None if ids is None else tuple(self.edges[k] for k in ids)

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


def _bits(m: int) -> list[int]:
    """The indices of the set bits of ``m``, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


_Adjacency = list[list[tuple[int, int]]]


def _adjacency(edges: Sequence[LabeledEdge], n: int) -> _Adjacency:
    """Per vertex of ``n``, its edges as (edge index, other end) in edge
    order."""
    adj: _Adjacency = [[] for _ in range(n)]
    for k, e in enumerate(edges):
        adj[e.u].append((k, e.v))
        adj[e.v].append((k, e.u))
    return adj


def _bfs_edges(adj: _Adjacency, root: int) -> list[int] | None:
    """The breadth-first spanning tree from ``root`` of the graph of
    :func:`_adjacency` ``adj``, as edge indices in the order taken: each
    vertex, in the order reached, takes its edges to vertices not yet
    reached.  None when the tree does not reach every vertex."""
    seen = 1 << root
    order = [root]
    tree: list[int] = []
    for u in order:  # grows as vertices are reached
        for k, w in adj[u]:
            if not seen >> w & 1:
                seen |= 1 << w
                tree.append(k)
                order.append(w)
    return tree if len(order) == len(adj) else None


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
    return _spans(_literal_masks(c)[0].values(),
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


# a pair's rank (see _scan_tree) and its outgoing labels as a label mask
_Ranked = tuple[tuple[int, int, tuple[int, int]], int]


def _scan_tree(tree: Sequence[LabeledEdge], label_bit: dict[str, int],
               max_labels: int, lo: int, n: int,
               linked: set[int]) -> _Ranked | None:
    """Best qualifying pair for one tree with its rank and labels: adjacent
    pairs (their literal mask in ``linked``) first, then fewer labels, then
    the lowest vertex pair.

    Labels are masks, one bit per variable (``label_bit``).  A pair's
    outgoing edges are the tree edges at exactly one of its vertices, and
    at most one tree edge joins two vertices.  So a pair that no tree edge
    joins has the labels at either vertex, ``at[u] | at[v]``, and a pair
    joined by tree edge ``e`` those of the tree edges other than ``e`` at
    either end.  The label count is one popcount.
    """
    at = [0] * n
    ends: list[list[tuple[LabeledEdge, int]]] = [[] for _ in range(n)]
    for e in tree:
        b = label_bit[e.var]
        at[e.u] |= b
        at[e.v] |= b
        ends[e.u].append((e, b))
        ends[e.v].append((e, b))
    joined: dict[int, int] = {}
    for e in tree:
        labels = 0
        for f, b in ends[e.u] + ends[e.v]:
            if f is not e:
                labels |= b
        joined[1 << e.u | 1 << e.v] = labels
    best: _Ranked | None = None
    best_apart, best_count = 2, 0  # ranks below every pair
    for u, v in itertools.combinations(range(lo, n), 2):
        pair = 1 << u | 1 << v
        apart = 0 if pair in linked else 1
        if apart > best_apart:
            continue  # ranks below the best pair whatever its labels
        labels = joined.get(pair)
        if labels is None:
            labels = at[u] | at[v]
        count = labels.bit_count()
        # pairs come in ascending order, so a tie keeps the earlier pair
        if count <= max_labels and (apart, count) < (best_apart, best_count):
            best_apart, best_count = apart, count
            best = ((apart, count, (u, v)), labels)
    return best


def find_light_pair(graph: ClauseGraph, max_labels: int) -> LightPair | None:
    """Search for a light pair of body vertices across spanning trees of a
    connected graph.

    Breadth-first trees from every root are scanned first, each distinct
    edge set once: an equal tree ranks its pairs the same, and the earlier
    root wins ties.  When none of them yields a qualifying pair the
    spanning trees are enumerated exhaustively.  Deterministic: the same
    graph and bound always return the same pair.  Returns None when the
    graph is disconnected or no tree has a light pair.
    """
    n = graph.vertex_count
    lo = graph.body_offset
    if n - lo < 2:
        return None
    edges = graph.edges
    adj = _adjacency(edges, n)
    linked = {1 << e.u | 1 << e.v for e in edges}
    label_bit: dict[str, int] = {}
    for e in edges:
        label_bit.setdefault(e.var, 1 << len(label_bit))

    def light_pair(tree: Sequence[LabeledEdge], got: _Ranked) -> LightPair:
        (_, _, (u, v)), labels = got
        names = list(label_bit)
        return LightPair(u, v, tuple(tree),
                         frozenset([names[i] for i in _bits(labels)]))

    found: tuple[_Ranked, list[LabeledEdge]] | None = None
    scanned: set[int] = set()  # the edge sets of the trees scanned
    for root in range(n):
        ids = _bfs_edges(adj, root)
        if ids is None:
            return None
        key = sum(1 << k for k in ids)
        if key in scanned:
            continue
        scanned.add(key)
        tree = [edges[k] for k in ids]
        got = _scan_tree(tree, label_bit, max_labels, lo, n, linked)
        if got is not None and (found is None or got[0] < found[0][0]):
            found = (got, tree)
    if found is not None:
        return light_pair(found[1], found[0])
    for tree in graph.all_spanning_trees():
        got = _scan_tree(tree, label_bit, max_labels, lo, n, linked)
        if got is not None:
            return light_pair(tree, got)
    return None
