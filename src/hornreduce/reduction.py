"""Reducibility decisions, reduction cores, and the named study clauses.

A clause is *reducible* within a fragment when it is the conclusion of a
single inference whose premises both belong to the fragment and have strictly
smaller bodies; a final variable unification may recover identifications the
inference loses.  A standard inference is one resolution step followed by up
to ``max_factor`` factorings, an SLD inference the same step with none, so
both modes run one search.  Its candidates come from cuts or from a pool.
The *partition* method replays cuts of the body whose fresh pivot literal
carries exactly the variables the cut leaves pending on one side
(:func:`_cut_hits`) — exact when every variable occurs exactly three times,
a sound heuristic otherwise.  A cut is a pair of body bitmasks and each
variable has the mask of the body atoms holding it (:func:`_var_masks`), so
its distinct-literal count on a side is one popcount; a cut that leaves more
variables pending than a pivot can carry is dropped before any premise is
built, and under the default pivot policy so is every cut of a branch of
the cut walk whose atoms decided so far already leave too many variables
pending (:func:`_side2_picks`).  The *forward oracle* resolves all pairs
of smaller fragment members and instance-matches the results
(:func:`_pool_scan`), replaying cuts with exhaustive pivot argument sets
when the pool is too large to enumerate.

:func:`reduce_theory` greedily removes derivable clauses from a finite
theory, recomposing every removal proof so that it replays from the final
core alone.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from hornreduce.clauses import (
    Atom,
    HornClause,
    PredVar,
    Substitution,
    Theory,
    _literal_masks,
    canonical,
    fresh_names,
    is_instance,
    parse_clause,
    rename_apart,
)
from hornreduce.fragments import FragmentSpec, enumerate_fragment, member
from hornreduce.graphs import clause_graph, find_light_pair, is_connected
from hornreduce.resolution import (
    KIND_RESOLUTION,
    KIND_SLD,
    KIND_UNIFICATION,
    MODES,
    InferenceStep,
    Proof,
    _arity_surplus,
    _check_bounds,
    _resolutions,
    factor,
    replay_proof,
    resolve,
    search_derivation,
    unify_onto,
)

METHOD_PARTITION = "partition"
METHOD_FORWARD = "forward-oracle"
METHODS = (METHOD_PARTITION, METHOD_FORWARD)


class OracleCapError(RuntimeError):
    """The forward oracle would exceed its configured resource limits.

    Callers should treat the reducibility question as inconclusive rather
    than answered.
    """


# ---------------------------------------------------------------------------
# Named study clauses
# ---------------------------------------------------------------------------

def c_base() -> HornClause:
    """The dyadic base clause: five body literals, every variable in exactly
    three distinct literals.  Irreducible under SLD resolution with arity
    cap 2, yet reducible once factoring is allowed."""
    return parse_clause(
        "P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), P4(x2,x4), P5(x3,x4)."
    )


def triadic_counterexample() -> HornClause:
    """The triadic clause irreducible with arity cap 3: every two-literal
    side of a cut leaves four variables pending, one more than any pivot
    literal can carry."""
    return parse_clause(
        "P0(x1,x2,x3) :- P1(x1,x4,x5), P2(x2,x5,x6), P3(x3,x4,x6)."
    )


# ---------------------------------------------------------------------------
# Irreducibility-preserving extension and the clause family it generates
# ---------------------------------------------------------------------------

def nonred_extend(c: HornClause, i: int, j: int) -> HornClause:
    """Grow the body by three literals without making the clause reducible.

    Body atoms ``i`` and ``j`` must be dyadic, have distinct arguments, and
    share exactly one variable ``s``.  Their other arguments ``u`` and ``v``
    are replaced by fresh variables ``y`` and ``z`` (the shared positions are
    untouched), and three fresh literals over ``(y, z)``, ``(y, u)`` and
    ``(z, v)`` are appended.  Every variable that occurred exactly three
    times still does afterwards.
    """
    if not (0 <= i < c.body_size and 0 <= j < c.body_size):
        raise IndexError(f"body indices ({i}, {j}) out of range")
    if i == j:
        raise ValueError("the two extended atoms must be distinct")
    a1, a2 = c.body[i], c.body[j]
    if a1.pred.arity != 2 or a2.pred.arity != 2:
        raise ValueError("both extended atoms must be dyadic")
    if len(set(a1.args)) != 2 or len(set(a2.args)) != 2:
        raise ValueError("both extended atoms need two distinct arguments")
    shared = set(a1.args) & set(a2.args)
    if len(shared) != 1:
        raise ValueError("the extended atoms must share exactly one variable")
    s = shared.pop()
    u = a1.args[1] if a1.args[0] == s else a1.args[0]
    v = a2.args[1] if a2.args[0] == s else a2.args[0]
    terms = fresh_names("x", set(c.term_vars()))
    y, z = next(terms), next(terms)
    preds = fresh_names("P", {p.name for p in c.pred_vars()})
    n1, n2, n3 = (PredVar(next(preds), 2) for _ in range(3))
    body = list(c.body)
    body[i] = Atom(a1.pred, tuple(y if t == u else t for t in a1.args))
    body[j] = Atom(a2.pred, tuple(z if t == v else t for t in a2.args))
    body += [Atom(n1, (y, z)), Atom(n2, (y, u)), Atom(n3, (z, v))]
    return HornClause(c.head, tuple(body))


def extension_pairs(c: HornClause) -> tuple[tuple[int, int], ...]:
    """Ordered index pairs of body atoms eligible for :func:`nonred_extend`."""
    out = []
    for i, a1 in enumerate(c.body):
        if a1.pred.arity != 2 or len(set(a1.args)) != 2:
            continue
        for j, a2 in enumerate(c.body):
            if i == j or a2.pred.arity != 2 or len(set(a2.args)) != 2:
                continue
            if len(set(a1.args) & set(a2.args)) == 1:
                out.append((i, j))
    return tuple(out)


def extension_family(clause: HornClause, depth: int) -> tuple[HornClause, ...]:
    """Canonical clauses obtained from ``clause`` by exactly ``depth``
    :func:`nonred_extend` steps, over all eligible atom pairs, deduplicated
    and sorted by canonical key.

    Depth 0 is the clause alone; each step adds three body literals.
    """
    if depth < 0:
        raise ValueError("depth must not be negative")
    level = dict([canonical(clause)])
    for _ in range(depth):
        grown: dict = {}
        for key in sorted(level):
            m = level[key]
            for i, j in extension_pairs(m):
                grown.setdefault(*canonical(nonred_extend(m, i, j)))
        level = grown
    return tuple(level[k] for k in sorted(level))


def hnr_family(depth: int) -> tuple[HornClause, ...]:
    """The extension family of :func:`c_base` at ``depth``."""
    return extension_family(c_base(), depth)


# ---------------------------------------------------------------------------
# Cuts, pending variables, and candidate premise pairs
# ---------------------------------------------------------------------------

# Per term variable of a clause: its name, the bitmask of the body atoms
# holding it and 1 if the head holds it, else 0.  A cut is two body masks,
# ``am`` for side 1 (which also holds the head) and ``bm`` for side 2, so a
# variable's distinct-literal count on side 1 is ``(m & am).bit_count() + h``
# and on side 2 ``(m & bm).bit_count()``.
_Masks = tuple[tuple[str, int, int], ...]


def _var_masks(c: HornClause) -> _Masks:
    """The masks of ``c``'s term variables in first-occurrence order: bit
    ``k`` is set when body atom ``k`` holds the variable, however often."""
    h = int(c.head is not None)
    return tuple((v, m >> h, m & h) for v, m in _literal_masks(c)[0].items())


def _pending(masks: _Masks, am: int, bm: int, cap: int) -> list[str] | None:
    """Variables a pivot must carry across the cut ``(am, bm)``: those
    occurring on both sides but in only one literal on at least one side.
    None as soon as there are more than ``cap`` of them."""
    out = []
    for v, m, h in masks:
        n2 = (m & bm).bit_count()
        n1 = (m & am).bit_count() + h if n2 else 0
        if n1 and (n1 == 1 or n2 == 1):
            out.append(v)
            if len(out) > cap:
                return None
    return out


def cut_pending(c: HornClause, body_indices: Iterable[int]) -> tuple[str, ...]:
    """Variables left pending on a side when the body atoms at
    ``body_indices`` are cut away from the rest of the clause.

    Counted per side of the cut (the head stays with the remainder): a
    variable qualifies when it occurs on both sides but only once on at
    least one of them, so a premise built from either side alone would
    need the pivot literal to carry it.  Returned in first-occurrence
    order of the clause's traversal.
    """
    idx = frozenset(body_indices)
    if any(not 0 <= k < c.body_size for k in idx):
        raise IndexError("cut index out of range")
    bm = sum(1 << k for k in idx)
    masks = _var_masks(c)
    return tuple(_pending(masks, ((1 << c.body_size) - 1) ^ bm, bm, len(masks)))


def _pivot_arg_sets(masks: _Masks, am: int, bm: int, fragment: FragmentSpec,
                    arity_cap: int, exhaustive: bool) -> list[tuple[str, ...]]:
    """Pivot argument tuples to try for the cut into the body masks ``am``
    (side 1, with the head) and ``bm`` (side 2).

    The default policy uses exactly the pending variables of the cut, none
    when there are more than ``arity_cap``.  The exhaustive policy tries
    every subset of the crossing variables up to the arity cap.  Arguments
    a pivot could carry beyond the crossing variables never change the
    resolvent, so both policies omit them.  When neither finds a set, both
    fall back to a single connector: the first crossing variable for
    connected premises (each then sits in two literals per side, as
    2-connected premises need), else the first variable side 2 holds.
    """
    if not exhaustive:
        required = _pending(masks, am, bm, arity_cap)
        if required is None:
            return []
        if required:
            return [tuple(required)]
    else:
        crossing = [v for v, m, h in masks if m & bm and (m & am or h)]
        if crossing:
            return [s for size in range(1, min(arity_cap, len(crossing)) + 1)
                    for s in itertools.combinations(crossing, size)]
    connected = fragment.connected or fragment.two_connected
    return [(v,) for v, m, h in masks
            if m & bm and (m & am or h or not connected)][:1]


def _light_sets(masks: _Masks, om: int, rest: tuple[int, ...]
                ) -> tuple[tuple[int, ...], int]:
    """The variables of ``masks`` in at most three literals and in none of
    the shared atoms ``om``, as bitmasks over them: the set each atom bit of
    ``rest`` holds, and the set the head holds (see :func:`_side2_picks`)."""
    light = [(m, h) for _, m, h in masks
             if m.bit_count() + h <= 3 and not m & om]
    return (tuple(sum(1 << k for k, (m, _) in enumerate(light) if m & bit)
                  for bit in rest),
            sum(h << k for k, (_, h) in enumerate(light)))


def _side2_picks(rest: tuple[int, ...], size: int, holds: tuple[int, ...],
                 head: int, cap: int, width: int) -> Iterator[int]:
    """Side-2 masks of ``size`` bits of ``rest``, in the order of
    ``itertools.combinations(rest, size)``, without the branches that can
    only yield cuts with more than ``cap`` pending variables.

    The *light* variables sit in at most three literals and in no shared
    atom; one is pending exactly when it crosses the cut, and once the
    atoms decided so far put it on both sides it crosses in every
    completion.  ``holds[i]`` is the set of light variables atom ``rest[i]``
    holds and ``head`` the set the head holds, as bitmasks over the light
    variables.  The walk decides ``rest`` in order, "take" (side 2) before
    "skip" (side 1), and drops a branch once more than ``cap`` light
    variables cross.  That needs the taken atoms to hold more than ``cap``
    arguments, ``width`` being the most one atom holds, so only then is it
    counted.
    """
    n = len(rest)
    # (next index, atoms taken, side-2 mask, light variables on side 2 and
    # on side 1); the take is pushed last, so it is walked first
    stack = [(0, 0, 0, 0, head)]
    while stack:
        i, j, s2, on2, on1 = stack.pop()
        if j * width > cap and (on2 & on1).bit_count() > cap:
            continue
        if j == size:
            yield s2
            continue
        if n - i > size - j:
            stack.append((i + 1, j, s2, on2, on1 | holds[i]))
        stack.append((i + 1, j + 1, s2 | rest[i], on2 | holds[i], on1))


def _cut_premises(c: HornClause, fragment: FragmentSpec, arity_cap: int,
                  overlap_cap: int, exhaustive: bool
                  ) -> Iterator[tuple[HornClause, HornClause,
                                      tuple[tuple[int, int], ...]]]:
    """Candidate premise pairs for deriving ``c`` in one inference.

    Each candidate covers the body with two sides that may share up to
    ``overlap_cap`` atoms: the first premise keeps the head plus one side
    behind a fresh pivot literal, the second proves the pivot from the other
    side.  Shared atoms appear in both premises and come with the factoring
    index pairs (on the raw resolvent, highest second index first) that merge
    the duplicates back.  Only pairs whose clauses belong to the fragment's
    syntactic class — most-generality and predicate distinctness are not
    required of premises — and have bodies strictly smaller than ``c``'s
    are produced.

    Cuts are enumerated as body masks (see ``_Masks``); the side tuples and
    premises are built only for cuts that have a pivot argument set.  Under
    the default pivot policy, a side-2 size whose picks before the last can
    carry more than ``arity_cap`` variables is walked by
    :func:`_side2_picks`, which drops whole branches of cuts that would
    leave too many variables pending.
    """
    b = c.body_size
    if c.head is None or b < 2:
        return
    mem = replace(fragment, most_general=False, distinct_predvars=False)
    masks = _var_masks(c)
    # Without overlap, a variable in one literal stays in one literal of one
    # premise: it never crosses the cut, so no pivot carries it, and neither
    # premise is two-connected.  No cut can yield; do not walk them.
    if (fragment.two_connected and overlap_cap == 0
            and any(m.bit_count() + h < 2 for _, m, h in masks)):
        return
    full = (1 << b) - 1
    pivot_name = next(fresh_names("Q", {p.name for p in c.pred_vars()}))
    positions = tuple(range(b))
    # The exhaustive policy has no pending bound, so its walk never prunes.
    # An atom wider than the class arity fails membership on either side,
    # so no atom that can yield a premise holds more arguments than that.
    width = 0 if exhaustive else fragment.max_arity
    for o_size in range(min(overlap_cap, b) + 1):
        for overlap in itertools.combinations(positions, o_size):
            om = sum(1 << p for p in overlap)
            rest = tuple(1 << p for p in positions if p not in overlap)  # bits
            light = None
            for b_only_size in range(2, len(rest) + 1):
                if o_size + b_only_size >= b:
                    break
                # a check at the last pick only repeats the cut's own
                # pending test, so walk only where an earlier one can prune
                if (b_only_size - 1) * width <= arity_cap:
                    picks = map(sum, itertools.combinations(rest, b_only_size))
                else:
                    if light is None:
                        light = _light_sets(masks, om, rest)
                    picks = _side2_picks(rest, b_only_size, *light,
                                         arity_cap, width)
                for b_only in picks:
                    bm = om + b_only
                    am = (full ^ bm) | om
                    arg_sets = _pivot_arg_sets(masks, am, bm, fragment,
                                               arity_cap, exhaustive)
                    if not arg_sets:
                        continue
                    a_pos = tuple(p for p in positions if am >> p & 1)
                    b_pos = tuple(p for p in positions if bm >> p & 1)
                    side1_body = tuple(c.body[p] for p in a_pos)
                    side2 = tuple(c.body[p] for p in b_pos)
                    fpairs = tuple(sorted(
                        ((b_pos.index(p), len(b_pos) + a_pos.index(p))
                         for p in overlap),
                        key=lambda t: -t[1]))
                    for args in arg_sets:
                        pivot = Atom.of(pivot_name, *args)
                        first = HornClause(c.head, (pivot,) + side1_body)
                        second = HornClause(pivot, side2)
                        if member(mem, first) and member(mem, second):
                            yield first, second, fpairs


# A hit of the one-inference search: the resolution step and its factoring
# steps, and the substitution instantiating their conclusion to the target.
_Hit = tuple[list[InferenceStep], Substitution]


def _cut_hits(c: HornClause, fragment: FragmentSpec, arity_cap: int,
              kind: str, overlap_cap: int, exhaustive: bool
              ) -> Iterator[_Hit]:
    """Replay every candidate cut of ``c`` forward — resolve on the pivot,
    factor the overlap copies — and yield those covering ``c``.  The pivot
    is ``second``'s head, and each factor pair two copies of one atom;
    equal-arity atoms always unify, so no step fails."""
    for first, second, fpairs in _cut_premises(c, fragment, arity_cap,
                                               overlap_cap, exhaustive):
        steps = [resolve(first, second, 0, kind=kind)]
        for i, j in fpairs:
            steps.append(factor(steps[-1].conclusion, i, j))
        sigma = is_instance(c, steps[-1].conclusion)
        if sigma is not None:
            yield steps, sigma


# ---------------------------------------------------------------------------
# Deciders
# ---------------------------------------------------------------------------

def _closed_proof(hit: _Hit, target: HornClause) -> Proof:
    """Proof of ``target`` by the hit's steps, closed by a final unification
    with the hit's substitution unless they conclude ``target`` exactly."""
    steps, sigma = hit
    last = steps[-1].conclusion
    if last != target:
        steps = steps + [InferenceStep(KIND_UNIFICATION, (last,), target,
                                       unifier=sigma)]
    return Proof(steps[0].premises, tuple(steps), target)


def _forward_pool(c: HornClause, fragment: FragmentSpec, pool_body_cap: int,
                  max_pool: int) -> tuple[HornClause, ...] | None:
    """Premise pool for the forward oracle, or None when enumeration is not
    feasible and the target-directed fallback should run instead."""
    capped = min(fragment.max_body, c.body_size - 1)
    if capped > pool_body_cap:
        return None
    pool = enumerate_fragment(replace(fragment, max_body=capped))
    if len(pool) > max_pool:
        raise OracleCapError(
            f"premise pool holds {len(pool)} clauses, cap is {max_pool}")
    return pool


def _factor_chain(steps: list[InferenceStep], left: int,
                  target: HornClause) -> _Hit | None:
    """Depth-first search for ``left`` more factorings of the last
    conclusion of ``steps`` that make it cover ``target``."""
    current = steps[-1].conclusion
    if left == 0:
        sigma = is_instance(target, current)
        return (steps, sigma) if sigma is not None else None
    for i in range(len(current.body)):
        for j in range(i + 1, len(current.body)):
            fs = factor(current, i, j)
            if fs is None:
                continue
            hit = _factor_chain(steps + [fs], left - 1, target)
            if hit is not None:
                return hit
    return None


def _pool_scan(c: HornClause, pool: tuple[HornClause, ...], kind: str,
               max_factor: int) -> _Hit | None:
    """Exhaustive forward oracle: resolve every size- and arity-compatible
    pair of pool members at every position, follow each resolution with
    exactly the factoring chain its size surplus dictates (none in SLD,
    where ``max_factor`` is 0), and instance-match against ``c``.  The pool
    members are canonical representatives (``enumerate_fragment``), so each
    is renamed apart once, not once per pair."""
    target = Counter(a.pred.arity for a in c.body)
    by_size: dict[int, list] = {}
    sig_ids: dict = {}  # (head arity, sorted body arities) -> small int
    for pos, d in enumerate(pool):
        sig = (d.head.pred.arity, tuple(sorted(a.pred.arity for a in d.body)))
        by_size.setdefault(d.body_size, []).append(
            (d, sig, sig_ids.setdefault(sig, len(sig_ids)), pos))
    surplus: dict = {}  # d1 body arities -> d2 signature id -> surplus
    renamed: dict = {}  # pool position -> the member renamed apart
    for chain in range(max_factor + 1):
        for s1 in sorted(by_size):
            for d1, (d1_head, d1_body), _, _ in by_size[s1]:
                if d1_head != c.head.pred.arity:
                    continue
                fits = surplus.setdefault(d1_body, {})
                for d2, (pivot_arity, d2_body), d2_sig, pos in \
                        by_size.get(c.body_size + chain + 1 - s1, ()):
                    extra = fits.get(d2_sig)
                    if extra is None:
                        extra = fits[d2_sig] = _arity_surplus(
                            target, d1_body, pivot_arity, d2_body)
                    if extra != chain:
                        continue
                    # a fit puts a body atom of the pivot's arity in d1
                    d2r = renamed.get(pos)
                    if d2r is None:
                        d2r = renamed[pos] = rename_apart(d2)[0]
                    for step in _resolutions(d1, d2, d2r, kind):
                        hit = _factor_chain([step], chain, c)
                        if hit is not None:
                            return hit
    return None


def is_reducible(c: HornClause, mode: str = "sld",
                 fragment: FragmentSpec | None = None,
                 method: str = METHOD_PARTITION, *, max_factor: int = 2,
                 pool_body_cap: int = 4, max_pool: int = 6000
                 ) -> Proof | None:
    """Search for a one-inference derivation of ``c`` from strictly smaller
    premises in the fragment's syntactic class.

    Returns a :class:`Proof` of ``c`` from the two premises — one
    resolution step, then up to ``max_factor`` factorings in ``standard``
    mode (none in ``sld``), then a variable unification unless the last
    step concludes ``c`` exactly — or None when the search exhausts
    without a hit.
    The pivot arity cap is the fragment's ``max_arity``.  The forward
    oracle enumerates fragment members as premises when their body cap is
    at most ``pool_body_cap``, raising :class:`OracleCapError` beyond
    ``max_pool`` clauses; for larger targets it switches to target-directed
    candidates with exhaustive pivot argument sets.  Clauses with at most
    one body atom are never reducible.
    """
    if fragment is None:
        raise ValueError("a fragment defining the premise class is required")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if max_factor < 0:
        raise ValueError("max_factor must not be negative")
    if c.head is None or c.body_size <= 1:
        return None
    # an SLD inference is a resolution step with an empty factoring chain
    kind, chain_cap = (KIND_SLD, 0) if mode == "sld" \
        else (KIND_RESOLUTION, max_factor)
    forward = method == METHOD_FORWARD
    pool = _forward_pool(c, fragment, pool_body_cap, max_pool) \
        if forward else None
    if pool is not None:
        hit = _pool_scan(c, pool, kind, chain_cap)
    else:
        hit = next(_cut_hits(c, fragment, fragment.max_arity, kind,
                             chain_cap, exhaustive=forward), None)
    return _closed_proof(hit, c) if hit is not None else None


# ---------------------------------------------------------------------------
# Spanning-tree split
# ---------------------------------------------------------------------------

def spanning_tree_split(c: HornClause
                        ) -> tuple[HornClause, HornClause, Atom]:
    """Split a connected clause into premises of body sizes ``b - 1`` and 2.

    A spanning tree of the clause graph is searched for a pair of body atoms
    whose outgoing tree edges carry at most ``max_arity(c)`` distinct
    variables; those variables become the arguments of a fresh pivot.  The
    second premise proves the pivot from the two paired atoms, the first
    replaces them by the pivot.  Resolving the premises and unifying the
    copies of any variables the tree did not route through the pivot
    reproduces ``c``.
    """
    if c.head is None:
        raise ValueError("the clause must have a head")
    if c.body_size < 3:
        raise ValueError("the body must hold at least three literals")
    preds = [a.pred for a in c.literals()]
    if len(set(preds)) != len(preds):
        raise ValueError("predicate variables must be distinct")
    if not is_connected(c):
        raise ValueError("the clause must be connected")
    graph = clause_graph(c)
    lp = find_light_pair(graph, c.max_arity())
    if lp is None:
        raise RuntimeError("no spanning tree admits a light enough pair")
    off = graph.body_offset
    bu, bv = lp.u - off, lp.v - off
    args = tuple(x for x in c.term_vars() if x in lp.labels)
    pivot_name = next(fresh_names("Q", {p.name for p in c.pred_vars()}))
    pivot = Atom.of(pivot_name, *args)
    second = HornClause(pivot, (c.body[bu], c.body[bv]))
    first = HornClause(c.head, (pivot,) + tuple(
        a for k, a in enumerate(c.body) if k not in (bu, bv)))
    step = resolve(first, second, 0, kind=KIND_SLD)
    if step is None or is_instance(c, step.conclusion) is None:
        raise RuntimeError("the split failed to replay onto the clause")
    return first, second, pivot


# ---------------------------------------------------------------------------
# Theory and fragment reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReductionReport:
    """Outcome of a greedy reduction.

    ``core`` holds the surviving clauses; ``removed`` pairs every removed
    clause with a proof that replays from the core alone, in removal order.
    ``bounds_hit`` is True when any failed search was truncated by the
    bounds, so the core is an over-approximation: nothing was removed
    without a proof, but deeper derivations were not explored.
    """

    core: Theory
    removed: tuple[tuple[HornClause, Proof], ...]
    bounds_hit: bool
    mode: str
    bounds: dict


def _splice_inputs(proof: Proof, providers: dict) -> Proof | None:
    """Replace proof inputs that were themselves removed by their own
    recomposed proofs, bridging with a unification step when the inner
    conclusion is only a variant of the needed premise."""
    p = proof
    while True:
        missing = next((d for d in p.inputs if d in providers), None)
        if missing is None:
            return p
        inner = providers[missing]
        steps = list(inner.steps)
        last = steps[-1].conclusion if steps else (
            inner.inputs[0] if inner.inputs else inner.conclusion)
        if last != missing:
            bridge = unify_onto(last, missing)
            if bridge is None:
                return None
            steps.append(bridge)
        inputs = tuple(dict.fromkeys(
            inner.inputs + tuple(x for x in p.inputs if x != missing)))
        p = Proof(inputs, tuple(steps) + p.steps, p.conclusion)


def _removal_order(key: tuple, d: HornClause) -> tuple:
    """Greedy visiting order: largest body first, ties by canonical key."""
    return (-d.body_size, key)


def _recompose(core: Theory, removed: list) -> tuple[bool, object]:
    """Rewrite removal proofs against the final core, later removals first.

    A spliced proof shares step objects with the proofs spliced into it, so
    one ``replayed`` dict serves every proof of this recomposition: it holds
    the steps already recomputed successfully (and only those), for this
    one core, and a shared step is recomputed once.  Premise availability,
    inputs against the core and the final conclusion are still checked
    for every proof.
    """
    providers: dict = {}
    replayed: dict = {}
    out_rev = []
    for clause, proof in reversed(removed):
        p = _splice_inputs(proof, providers)
        if p is None or not replay_proof(p, core, _replayed=replayed):
            return False, clause
        providers[clause] = p
        out_rev.append((clause, p))
    return True, list(reversed(out_rev))


def reduce_theory(theory: Theory | Iterable[HornClause], mode: str = "sld", *,
                  max_depth: int = 1, max_body: int | None = None,
                  max_clauses: int | None = None) -> ReductionReport:
    """Greedily remove clauses derivable from the rest of the theory.

    Clauses are visited largest body first (ties by canonical key); one is
    removed when a bounded derivation search from the remaining clauses
    succeeds.  Passes repeat until stable, so the final pass doubles as the
    verification that no core clause is derivable from the others within
    the bounds.  Removal proofs are recomposed to replay from the core
    alone; a clause whose proof cannot be recomposed is reinstated (which
    never happens for the searches used here, but keeps the report sound)
    and the passes run again.  A negative bound is a ValueError.

    In ``sld`` mode at depth at most 1 one pass is already stable.  That
    search is complete and monotone in its premises: a clause it missed
    from the survivors of its visit stays missed from the fewer survivors
    of any later pass.  And each such miss is ``truncated`` (depths beyond
    the cap were never explored), so every clause a later pass would search
    has already set ``bounds_hit``, and that pass could change nothing.
    """
    _check_bounds(max_depth, max_body, max_clauses)
    t = theory if isinstance(theory, Theory) else Theory(theory)
    bounds = {"max_depth": max_depth, "max_body": max_body,
              "max_clauses": max_clauses}
    survivors = t.ordered(_removal_order)
    removed: list[tuple[HornClause, Proof]] = []
    bounds_hit = False
    repeat = mode != "sld" or max_depth > 1
    while True:
        changed = True
        while changed:
            changed = False
            for clause in list(survivors):
                rest = survivors.without(clause)
                if not rest:
                    continue
                res = search_derivation(rest, clause, max_depth, mode=mode,
                                        max_body=max_body,
                                        max_clauses=max_clauses)
                if res.found:
                    survivors = rest
                    removed.append((clause, res.proof))
                    changed = repeat
                elif res.truncated:
                    bounds_hit = True
        ok, out = _recompose(survivors, removed)
        if ok:
            return ReductionReport(core=survivors, removed=tuple(out),
                                   bounds_hit=bounds_hit, mode=mode,
                                   bounds=bounds)
        survivors = Theory([*survivors, out]).ordered(_removal_order)
        removed = [(d, p) for d, p in removed if d is not out]
        bounds_hit = True


def reduce_fragment(fragment: FragmentSpec, mode: str = "sld", *,
                    max_depth: int = 1, max_body: int | None = None,
                    max_clauses: int | None = None) -> ReductionReport:
    """Reduce the full enumeration of a finite fragment."""
    _check_bounds(max_depth, max_body, max_clauses)  # before enumerating
    return reduce_theory(enumerate_fragment(fragment), mode,
                         max_depth=max_depth, max_body=max_body,
                         max_clauses=max_clauses)


# ---------------------------------------------------------------------------
# The worked standard-mode reduction of the base clause
# ---------------------------------------------------------------------------

def cbase_resolution_reduction() -> Proof:
    """Two-step standard derivation of the base clause from smaller premises.

    The first premise keeps three of the base clause's literals and a pivot
    collecting the two variables its side leaves pending; the second proves
    the pivot from the remaining literals plus a shared copy.  Resolving on
    the pivot and factoring the two copies of the shared literal yields the
    base clause up to renaming — the inference SLD resolution cannot make.
    """
    first = parse_clause(
        "P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), H(x2,x4).")
    second = parse_clause(
        "H(x2,x4) :- P6(x2,x3), P4(x2,x4), P5(x3,x4).")
    step = resolve(first, second, 3, kind=KIND_RESOLUTION)
    fold = factor(step.conclusion, 2, 3)
    return Proof((first, second), (step, fold), fold.conclusion)
