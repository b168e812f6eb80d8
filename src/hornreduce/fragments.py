"""Clause fragments: membership tests and exhaustive enumeration.

A fragment collects the definite clauses satisfying size bounds (predicate
arity, body length) and optional structural constraints: connectedness of
the clause graph, two-connectedness (every variable occurs in at least two
literals), distinct predicate variables, and most-generality.  A clause is
most general when no proper generalization of it stays inside the fragment's
structural constraints; with ``structural_generalizers=False`` generalizers
only have to respect the size bounds.

Body sizes run from 1 to ``max_body``; facts are the degenerate fragment
``max_body=0``.  Enumeration is up to alpha-equivalence: one canonical
representative per clause, deterministically ordered.

Connectivity, two-connectedness and most-generality are decided on
per-variable literal masks (bit ``k`` set when literal ``k``, head first,
holds the variable) rather than on clause graphs and split clauses.
Membership reads them from :func:`hornreduce.clauses._literal_masks`.
Enumeration keeps those masks while it assigns variables to argument
positions, decides the tests on them, and builds and canonicalizes only the
clauses of the assignments that pass.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from hornreduce.clauses import (
    Atom,
    HornClause,
    PredVar,
    _literal_masks,
    _representative,
    canonical_key,
)
from hornreduce.graphs import _reach, _spans


@dataclass(frozen=True, slots=True)
class FragmentSpec:
    """Size bounds plus structural constraints defining a clause fragment."""

    max_arity: int
    max_body: int
    connected: bool = False
    two_connected: bool = False
    distinct_predvars: bool = False
    most_general: bool = False
    structural_generalizers: bool = True

    def __post_init__(self) -> None:
        if self.max_arity < 1:
            raise ValueError("max_arity must be at least 1")
        if self.max_body < 0:
            raise ValueError("max_body must not be negative")


def horn(max_arity: int, max_body: int) -> FragmentSpec:
    """Most-general distinct-predicate clauses within the size bounds."""
    return FragmentSpec(max_arity, max_body,
                        distinct_predvars=True, most_general=True)


def horn_c(max_arity: int, max_body: int) -> FragmentSpec:
    """The connected fragment."""
    return FragmentSpec(max_arity, max_body, connected=True,
                        distinct_predvars=True, most_general=True)


def horn_2c(max_arity: int, max_body: int) -> FragmentSpec:
    """The connected fragment with every variable in at least two literals."""
    return FragmentSpec(max_arity, max_body, connected=True,
                        two_connected=True, distinct_predvars=True,
                        most_general=True)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _size_ok(spec: FragmentSpec, c: HornClause) -> bool:
    if c.head is None:
        return False
    if any(not 1 <= a.pred.arity <= spec.max_arity for a in c.literals()):
        return False
    if spec.max_body == 0:
        return c.body_size == 0
    return 1 <= c.body_size <= spec.max_body


def most_general_in(spec: FragmentSpec, c: HornClause) -> bool:
    """True iff no single split of ``c`` is a valid generalizer for
    ``spec``, decided on literal masks without building one (see
    :func:`_most_general`).  A single split renames a strict subset of one
    variable's or one predicate's occurrences (never the first) fresh;
    every proper generalization of ``c`` within a fragment is reachable
    from one, since merging the split back never breaks a structural
    constraint.

    A split keeps the head, the arities and the body size, so it passes
    :func:`_size_ok` exactly when ``c`` does.
    """
    if not _size_ok(spec, c):
        return True
    preds = [a.pred for a in c.literals()]
    repeats = (sorted(k for k in Counter(preds).values() if k > 1)
               if len(set(preds)) < len(preds) else [])
    masks, multi = _literal_masks(c)
    return _most_general(spec, list(masks.values()),
                         [multi.get(v, 0) for v in masks], repeats,
                         len(preds))


def _most_general(spec: FragmentSpec, masks: list[int], multi: list[int],
                  repeats: list[int], n: int) -> bool:
    """The most-generality rule for a clause of ``n`` literals that passes
    :func:`_size_ok`, given as one literal mask per term variable
    (``masks``), the literals holding that variable twice or more
    (``multi``, aligned) and the sorted multiplicities of its repeated
    predicates (``repeats``).

    A split never joins literals that the clause leaves apart nor gives a
    variable a second literal.  A predicate split keeps the clause graph,
    and its predicates are distinct only when the clause repeats one
    predicate exactly twice.  A term split renames some occurrences of a
    variable apart, replacing its mask by two masks that cover it; it is
    valid when the masks still span the literals (connected) and both hold
    two literals (two-connected).
    """
    if not spec.structural_generalizers:
        # every split is valid, so only a clause without one is most general
        return not repeats and not any(multi) and all(
            m.bit_count() < 2 for m in masks)
    if spec.two_connected and any(m.bit_count() < 2 for m in masks):
        return True
    if repeats:
        # a term split keeps the repeat; a predicate split keeps the graph
        # and is valid unless the predicates must be distinct
        if spec.connected and not _spans(masks, n):
            return True
        return spec.distinct_predvars and repeats != [2]
    for i, m in enumerate(masks):
        # Literals holding the variable more than once keep it on both sides
        # of the split; that only adds to both masks, so it is never worse.
        # The other literals go wholly to one side, the first one's to ``m1``.
        both = multi[i]
        free = m & ~both & ~(m & -m)
        if not free | both:
            continue  # a single occurrence has no split
        others = masks[:i] + masks[i + 1:]
        t = free
        while True:
            m1, m2 = m & ~t, t | both
            if m2 and (not spec.two_connected
                       or min(m1.bit_count(), m2.bit_count()) >= 2) and (
                    not spec.connected or _spans(others + [m1, m2], n)):
                return False
            if not t:
                break
            t = (t - 1) & free
    return True


def member(spec: FragmentSpec, c: HornClause) -> bool:
    """Fragment membership, including the most-generality filter.  The
    structural constraints are decided on one build of the clause's
    literal masks."""
    if not _size_ok(spec, c):
        return False
    n = len(c.literals())
    if spec.distinct_predvars and len({a.pred for a in c.literals()}) != n:
        return False
    masks = _literal_masks(c)[0].values()
    if spec.connected and not _spans(masks, n):
        return False
    if spec.two_connected and any(m.bit_count() < 2 for m in masks):
        return False
    return not spec.most_general or most_general_in(spec, c)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _arity_profiles(spec: FragmentSpec) -> Iterator[tuple[int, ...]]:
    """The literal arities of the fragment's clauses, head first, body
    arities non-decreasing, by body size then head arity."""
    body_sizes = (0,) if spec.max_body == 0 else range(1, spec.max_body + 1)
    for s in body_sizes:
        for head_arity in range(1, spec.max_arity + 1):
            for body_ar in itertools.combinations_with_replacement(
                    range(1, spec.max_arity + 1), s):
                yield (head_arity,) + body_ar


def _variable_assignments(spec: FragmentSpec, arities: tuple[int, ...]
                          ) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """Set partitions of the argument positions of literals of ``arities``
    (head first), each with its blocks' literal masks.

    Yields ``(assign, masks, multi)``: ``assign`` holds a block index per
    position, and block ``b`` is the variable of the positions holding
    ``b``; bit ``k`` of ``masks[b]`` is set when literal ``k`` holds that
    variable, and of ``multi[b]`` when literal ``k`` holds it twice or
    more.  The three lists are the search's own state, valid until the
    next item is drawn.

    Partitions are generated as restricted growth strings with three prunes:
    two-connected fragments bound the number of blocks still touching a
    single literal by the positions left; most-general fragments without the
    two-connected constraint reject a second shared variable between any
    literal pair (such clauses are never most general there); and body
    literals of equal arity must carry non-decreasing block slices, cutting
    permutation copies that canonical dedup would otherwise discard.

    Connected most-general fragments that are not two-connected, with
    structural generalizers, prune further (``tree``): no block repeats
    within a literal, and a literal joins no block that holds a literal
    it is already joined to, so the literal--variable incidence graph
    stays a forest.  Neither pruned kind has a member among its
    completions, since completing an assignment only adds incidences:

    - A variable ``v`` twice in literal ``L``: rename one of those
      occurrences that is not ``v``'s first fresh.  ``L`` still holds
      ``v``, so every pair of literals that shared a variable still
      does; the split keeps the predicates and sizes, so it is a valid
      generalizer.
    - A cycle ``L1 v1 L2 ... Lk vk L1`` (k >= 2, distinct literals and
      variables): of ``L1`` and ``L2``, one does not hold ``v1``'s first
      occurrence; rename ``v1`` there fresh.  A literal that held ``v1``
      still shares it with the other of the two, and ``L1`` and ``L2``
      stay joined along ``v2 ... vk``, so the clause stays connected and
      the split is a valid generalizer.

    The cycle test is the pair prune widened from shared literals to
    joined ones: ``shared`` grows by everything the joined block reaches
    (:func:`~hornreduce.graphs._reach`), not by the block alone.
    """
    pos_lit = [li for li, a in enumerate(arities) for _ in range(a)]
    total = len(pos_lit)
    lit_start = list(itertools.accumulate(arities, initial=0))
    two_c = spec.two_connected
    pair_prune = spec.most_general and not two_c
    tree = pair_prune and spec.connected and spec.structural_generalizers

    assign = [0] * total
    masks: list[int] = []
    multi: list[int] = []

    def rec(pos: int, tied: bool, shared: int, deficient: int
            ) -> Iterator[tuple[list[int], list[int], list[int]]]:
        # ``shared``: the literals sharing a variable with the current
        # literal so far (its own bit included), under ``tree`` every
        # literal joined to it; ``deficient``: the blocks holding a single
        # literal, none at the end when two-connected
        if pos == total:
            yield assign, masks, multi
            return
        lit = pos_lit[pos]
        bit = 1 << lit
        if pos == lit_start[lit]:
            # a body literal after one of equal arity starts slice-tied
            tied = lit >= 2 and arities[lit] == arities[lit - 1]
            shared = 0
        lo = assign[pos - arities[lit]] if tied else 0
        left = total - pos - 1
        for b in range(lo, len(masks)):
            m = masks[b]
            if m & bit:
                # the block is already in this literal: a repeat within it
                if tree or two_c and deficient > left:
                    continue
                old = multi[b]
                multi[b] = old | bit
                assign[pos] = b
                yield from rec(pos + 1, tied and b == lo, shared, deficient)
                multi[b] = old
                continue
            if pair_prune and m & shared:
                continue  # a second variable shared with some literal
            d = deficient - (m & (m - 1) == 0)
            if two_c and d > left:
                continue
            joined = _reach(masks, m) if tree else m
            masks[b] = m | bit
            assign[pos] = b
            yield from rec(pos + 1, tied and b == lo, shared | joined | bit, d)
            masks[b] = m
        if not two_c or deficient < left:
            b = len(masks)
            masks.append(bit)
            multi.append(0)
            assign[pos] = b
            # a new block exceeds any tied value: the slices now differ
            yield from rec(pos + 1, False, shared | bit, deficient + 1)
            masks.pop()
            multi.pop()

    yield from rec(0, False, 0, 0)


def _mask_filter(spec: FragmentSpec, masks: list[int], multi: list[int],
                 n: int) -> bool:
    """Whether the clauses of one variable assignment of ``n`` literals
    pass the fragment's connectivity and most-generality tests, from the
    assignment's literal masks (see :func:`_variable_assignments`).

    Predicates do not change the clause graph, so connectivity holds for
    every predicate pattern or none.  A most-general fragment has one
    pattern, with distinct predicates (:func:`_pred_patterns`), so the
    most-generality rule sees no repeat.  Two-connected assignments leave
    no block within a single literal, so no clause built from one has a
    pending variable.
    """
    if spec.connected and not _spans(masks, n):
        return False
    return not spec.most_general or _most_general(spec, masks, multi, [], n)


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _pred_patterns(spec: FragmentSpec, arities: tuple[int, ...]
                   ) -> Iterator[tuple[PredVar, ...]]:
    """Predicate assignments per literal.  Most-general clauses never repeat
    a predicate (splitting a repeat is always a valid generalizer), so
    identification patterns only arise for plain fragments."""
    n = len(arities)
    if spec.distinct_predvars or spec.most_general:
        yield tuple(PredVar(f"P{i}", arities[i]) for i in range(n))
        return
    by_arity: dict[int, list[int]] = {}
    for i, a in enumerate(arities):
        by_arity.setdefault(a, []).append(i)
    groups = sorted(by_arity)
    for combo in itertools.product(
            *(_set_partitions(by_arity[a]) for a in groups)):
        blocks = [blk for part in combo for blk in part]
        blocks.sort(key=min)
        preds: dict[int, PredVar] = {}
        for k, blk in enumerate(blocks):
            p = PredVar(f"P{k}", arities[blk[0]])
            for i in blk:
                preds[i] = p
        yield tuple(preds[i] for i in range(n))


@lru_cache(maxsize=None)
def enumerate_fragment(spec: FragmentSpec) -> tuple[HornClause, ...]:
    """All fragment members, one canonical representative each, sorted by
    body size, then body arity profile, head arity, and canonical key.

    Connectivity and most-generality are decided on the literal masks each
    variable assignment comes with (:func:`_mask_filter`), so only the
    assignments that pass are built as clauses.  Those are confirmed by
    :func:`most_general_in` and canonicalized; most-generality is invariant
    under renaming, so no other clause needs a key.
    """
    keys = set()
    for arities in _arity_profiles(spec):
        n = len(arities)
        patterns = tuple(_pred_patterns(spec, arities))
        names = tuple(f"x{b}" for b in range(1, sum(arities) + 1))
        bounds = list(itertools.pairwise(
            itertools.accumulate(arities, initial=0)))
        for assign, masks, multi in _variable_assignments(spec, arities):
            if not _mask_filter(spec, masks, multi, n):
                continue
            named = tuple(map(names.__getitem__, assign))
            args = [named[i:j] for i, j in bounds]
            for preds in patterns:
                head, *body = map(Atom, preds, args)
                c = HornClause(head, tuple(body))
                if not spec.most_general or most_general_in(spec, c):
                    keys.add(canonical_key(c))
    # Most survivors repeat a class, so representatives are spelled only
    # from the distinct keys.
    keyed = [(key, _representative(key)) for key in keys]
    keyed.sort(key=lambda kc: (
        kc[1].body_size,
        tuple(sorted(a.pred.arity for a in kc[1].body)),
        kc[1].head.pred.arity,
        kc[0],
    ))
    return tuple(c for _, c in keyed)


def count_fragment(spec: FragmentSpec) -> int:
    """Number of clauses in the fragment (up to alpha-equivalence)."""
    return len(enumerate_fragment(spec))
