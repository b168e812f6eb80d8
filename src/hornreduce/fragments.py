"""Clause fragments: membership tests and exhaustive enumeration.

A fragment collects the definite clauses satisfying size bounds (predicate
arity, body length) and optional structural constraints: connectedness of
the clause graph, two-connectedness (every variable occurs in at least two
literals), distinct predicate variables, and most-generality.  A clause is
most general when no proper generalization of it stays inside the fragment's
structural constraints.

Body sizes run from 1 to ``max_body``; facts are the degenerate fragment
``max_body=0``.  Enumeration is up to alpha-equivalence: one canonical
representative per clause, deterministically ordered.

Connectivity, two-connectedness and most-generality are decided on
per-variable literal masks (bit ``k`` set when literal ``k``, head first,
holds the variable) rather than on clause graphs and split clauses.
Membership reads them from :func:`hornreduce.clauses._literal_masks`.
Enumeration keeps those masks while it assigns variables to argument
positions and decides membership inside that search, by prunes and by one
test per complete assignment, so it builds and canonicalizes only the
clauses of member assignments.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

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


def _variable_assignments(spec: FragmentSpec, arities: tuple[int, ...],
                          leaf: Callable[[list[int]], None]) -> None:
    """Call ``leaf(assign)`` once for each set partition of the argument
    positions of literals of ``arities`` (head first) whose clauses belong
    to the fragment, save the permutation copies cut below.  ``assign``
    holds a block index per position, and block ``b`` is the variable of
    the positions holding ``b``; it is the search's own list, so ``leaf``
    copies what it keeps.

    Partitions are generated as restricted growth strings, one literal mask
    per block (bit ``k`` set when literal ``k`` holds the block's variable)
    and one of the literals holding it twice or more.  Body literals of
    equal arity must carry non-decreasing block slices, cutting permutation
    copies that canonical dedup would otherwise discard.  Two-connected
    fragments bound the number of blocks still touching a single literal
    by the positions left, so no complete assignment leaves one.  A
    complete assignment of a connected fragment must span the literals
    (:func:`~hornreduce.graphs._spans`), and one of a most-general,
    two-connected fragment must pass :func:`_most_general`.  Predicates do
    not change the clause graph, and a most-general fragment has one
    predicate pattern, with distinct predicates (:func:`_pred_patterns`),
    so these verdicts hold for every clause built from the assignment.

    Most-general fragments that are not two-connected are decided by two
    prunes, which leave exactly the members.  Completing an assignment
    only adds incidences, so neither pruned kind has a member among its
    completions.

    - Connected fragments (``tree``): no block repeats within a literal,
      and a literal joins no block that holds a literal it is already
      joined to, so the literal--variable incidence graph stays a forest.

      - A variable ``v`` twice in literal ``L``: rename one of those
        occurrences that is not ``v``'s first fresh.  ``L`` still holds
        ``v``, so every pair of literals that shared a variable still
        does; the split keeps the predicates and sizes, so it is a valid
        generalizer.
      - A cycle ``L1 v1 L2 ... Lk vk L1`` (k >= 2, distinct literals and
        variables): of ``L1`` and ``L2``, one does not hold ``v1``'s
        first occurrence; rename ``v1`` there fresh.  A literal that held
        ``v1`` still shares it with the other of the two, and ``L1`` and
        ``L2`` stay joined along ``v2 ... vk``, so the clause stays
        connected and the split is a valid generalizer.
      - A spanning tree with distinct predicates is most general: it has
        no predicate split, and the literals that keep a split variable
        ``v`` were joined to those that take the fresh one only through
        ``v``, so every term split disconnects the clause.

    - Unconnected fragments (``lone``): an assignment never reuses a block.

      - A variable that occurs twice: rename one of its occurrences other
        than its first fresh.  The split keeps the predicates and sizes,
        and nothing has to stay connected or occur twice, so it is a valid
        generalizer.
      - Without a reused block or a repeated predicate a clause has no
        split at all, so it is most general.
    """
    pos_lit = [li for li, a in enumerate(arities) for _ in range(a)]
    total = len(pos_lit)
    lit_start = list(itertools.accumulate(arities, initial=0))
    n = len(arities)
    two_c = spec.two_connected
    tree = spec.most_general and spec.connected and not two_c
    lone = spec.most_general and not spec.connected and not two_c
    general = spec.most_general and two_c

    assign = [0] * total
    masks: list[int] = []
    multi: list[int] = []

    def rec(pos: int, tied: bool, joined: int, deficient: int) -> None:
        # ``joined``: under ``tree``, the literals joined to the current
        # literal so far (its own bit included); ``deficient``: the blocks
        # holding a single literal, none at the end when two-connected
        if pos == total:
            if spec.connected and not _spans(masks, n):
                return
            if general and not _most_general(spec, masks, multi, [], n):
                return
            leaf(assign)
            return
        lit = pos_lit[pos]
        bit = 1 << lit
        if pos == lit_start[lit]:
            # a body literal after one of equal arity starts slice-tied
            tied = lit >= 2 and arities[lit] == arities[lit - 1]
            joined = 0
        lo = assign[pos - arities[lit]] if tied else 0
        left = total - pos - 1
        # under ``lone`` every position opens a new block
        for b in range(lo, 0 if lone else len(masks)):
            m = masks[b]
            if m & bit:
                # the block is already in this literal: a repeat within it
                if tree or two_c and deficient > left:
                    continue
                old = multi[b]
                multi[b] = old | bit
                assign[pos] = b
                rec(pos + 1, tied and b == lo, joined, deficient)
                multi[b] = old
                continue
            if tree and m & joined:
                continue  # the block would close a cycle
            d = deficient - (m & (m - 1) == 0)
            if two_c and d > left:
                continue
            grown = joined | _reach(masks, m) | bit if tree else 0
            masks[b] = m | bit
            assign[pos] = b
            rec(pos + 1, tied and b == lo, grown, d)
            masks[b] = m
        if not two_c or deficient < left:
            b = len(masks)
            masks.append(bit)
            multi.append(0)
            assign[pos] = b
            # a new block exceeds any tied value: the slices now differ
            rec(pos + 1, False, joined | bit, deficient + 1)
            masks.pop()
            multi.pop()

    rec(0, False, 0, 0)


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
    body size, then body arity profile, head arity, and canonical key;
    those are read from the key, whose atoms are the head and then the
    body, each one entry longer than its arity.

    Each atom is built once per call.  The clauses of one arity profile
    take their atoms from a table keyed by predicate and argument blocks,
    so only the clause is new per assignment, and the representatives are
    spelled through one table of atom keys (:func:`_representative`).
    The tables live for the call only; every atom and clause still runs
    its own check when it is built.

    The assignment search decides membership (:func:`_variable_assignments`),
    so only member assignments are built as clauses, and only they are
    canonicalized; most-generality is invariant under renaming, so no
    other clause needs a key.  Members that the tree and lone prunes admit
    are confirmed by :func:`most_general_in`, one call per member
    assignment, since those prunes are proved only in a docstring.
    Two-connected members are not: the search ran :func:`_most_general`
    on their assignment, with the masks and literal count that
    ``most_general_in`` would pass and no repeated predicate, so a
    confirm could only agree.
    """
    keys = set()
    confirm = spec.most_general and not spec.two_connected
    for arities in _arity_profiles(spec):
        patterns = tuple(_pred_patterns(spec, arities))
        names = tuple(f"x{b}" for b in range(1, sum(arities) + 1))
        bounds = list(itertools.pairwise(
            itertools.accumulate(arities, initial=0)))
        # per predicate, its atoms by argument blocks
        atoms: dict = {p: {} for preds in patterns for p in preds}
        tables = [[atoms[p] for p in preds] for preds in patterns]

        def build(assign: list[int]) -> None:
            for preds, table in zip(patterns, tables):
                lits = []
                for p, by_blocks, (i, j) in zip(preds, table, bounds):
                    blocks = tuple(assign[i:j])
                    atom = by_blocks.get(blocks)
                    if atom is None:
                        atom = by_blocks[blocks] = Atom(
                            p, tuple([names[b] for b in blocks]))
                    lits.append(atom)
                c = HornClause(lits[0], tuple(lits[1:]))
                if not confirm or most_general_in(spec, c):
                    keys.add(canonical_key(c))

        _variable_assignments(spec, arities, build)
    # Most survivors repeat a class, so representatives are spelled only
    # from the distinct keys.
    order = sorted(keys, key=lambda key: (
        len(key[1]) - 1,
        tuple(sorted(len(a) - 1 for a in key[1][1:])),
        len(key[1][0]) - 1,
        key,
    ))
    spelled: dict = {}
    return tuple(_representative(key, spelled) for key in order)


def count_fragment(spec: FragmentSpec) -> int:
    """Number of clauses in the fragment (up to alpha-equivalence)."""
    return len(enumerate_fragment(spec))
