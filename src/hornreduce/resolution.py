"""Resolution calculus, bounded closures, and derivation search with proofs.

Two deduction modes are supported.  ``sld`` is linear resolution for definite
clauses: a body atom of one clause is resolved against the head of another.
``standard`` additionally closes derived clauses under factoring (unifying
two body atoms and dropping one).  Both allow a final variable-unification
step, so a clause counts as derived when it is an instance of something in
the closure.

Every search returns a :class:`Proof` whose steps carry the actual premise
clauses, the unifiers, and exact conclusions; :func:`replay_proof`
independently recomputes each step, so a proof cannot silently go stale.
It checks premise availability by hash.  Proofs that share step objects
(``reduce`` splices later removal proofs into earlier ones) may share one
record of replayed steps, so each distinct inference is recomputed once
per recomposition while every proof's other checks still run.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator

from hornreduce.clauses import (
    Atom,
    HornClause,
    PredVar,
    Substitution,
    Theory,
    alpha_equivalent,
    _orbits,
    _representative,
    apply_substitution,
    canonical_key,
    fresh_names,
    is_instance,
    mgu,
    rename_apart,
)

KIND_SLD = "sld-resolution"
KIND_RESOLUTION = "resolution"
KIND_FACTORING = "factoring"
KIND_UNIFICATION = "variable-unification"

MODES = ("sld", "standard")


@dataclass(frozen=True, slots=True)
class InferenceStep:
    """One inference: premises, the rule applied, and its exact conclusion.

    ``_json_fields`` keeps the step's JSON fields once a proof holding it is
    serialized (see :func:`_step_json_fields`); it is no constructor
    argument and takes no part in ``==``, the hash or ``repr``.
    """

    kind: str
    premises: tuple[HornClause, ...]
    conclusion: HornClause
    body_index: int | None = None
    factor_indices: tuple[int, int] | None = None
    pivot: Atom | None = None
    unifier: Substitution | None = None
    _json_fields: dict | None = field(default=None, init=False, repr=False,
                                      compare=False)


@dataclass(frozen=True, slots=True)
class Proof:
    """A checkable derivation: input clauses, steps, and the final clause."""

    inputs: tuple[HornClause, ...]
    steps: tuple[InferenceStep, ...]
    conclusion: HornClause

    @property
    def step_count(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Inference rules
# ---------------------------------------------------------------------------

def resolve(c1: HornClause, c2: HornClause, body_index: int,
            kind: str = KIND_RESOLUTION) -> InferenceStep | None:
    """Resolve ``c1``'s body atom at ``body_index`` against ``c2``'s head.

    ``c2`` is renamed apart first (deterministically), so the conclusion is a
    function of the arguments alone.  Returns None when the arities differ.
    """
    if c2.head is None:
        raise ValueError("second premise must have a head to resolve upon")
    if not 0 <= body_index < len(c1.body):
        raise IndexError(f"body index {body_index} out of range")
    if c1.body[body_index].pred.arity != c2.head.pred.arity:
        return None
    c2r, _ = rename_apart(c2, avoid_terms=c1.term_vars(),
                          avoid_preds=(p.name for p in c1.pred_vars()))
    return _resolve_renamed(c1, c2, c2r, body_index, kind)


def _resolve_renamed(c1: HornClause, c2: HornClause, c2r: HornClause,
                     body_index: int, kind: str) -> InferenceStep | None:
    """:func:`resolve` on ``c2`` already renamed apart as ``c2r``, without
    its argument checks.

    Lets a forward scan rename each premise once, as ``rename_apart(c2)[0]``.
    That is the renaming :func:`resolve` makes whenever ``c1`` uses no name
    ``rename_apart`` draws (``v<i>``, ``Q<i>``), as canonical representatives
    (``x<i>``, ``P<i>``) do; the step is then the one :func:`resolve` returns.
    """
    theta = mgu(c1.body[body_index], c2r.head)
    if theta is None:
        return None
    head = theta.atom(c1.head) if c1.head is not None else None
    body = (tuple(theta.atom(a) for a in c1.body[:body_index])
            + tuple(theta.atom(a) for a in c2r.body)
            + tuple(theta.atom(a) for a in c1.body[body_index + 1:]))
    return InferenceStep(
        kind=kind,
        premises=(c1, c2),
        conclusion=HornClause(head, body),
        body_index=body_index,
        pivot=theta.atom(c1.body[body_index]),
        unifier=theta,
    )


def factor(c: HornClause, i: int, j: int) -> InferenceStep | None:
    """Unify body atoms ``i`` and ``j`` and keep a single copy of them."""
    if not 0 <= i < j < len(c.body):
        raise IndexError(f"factor indices ({i}, {j}) out of range")
    theta = mgu(c.body[i], c.body[j])
    if theta is None:
        return None
    head = theta.atom(c.head) if c.head is not None else None
    body = tuple(theta.atom(a) for k, a in enumerate(c.body) if k != j)
    return InferenceStep(
        kind=KIND_FACTORING,
        premises=(c,),
        conclusion=HornClause(head, body),
        factor_indices=(i, j),
        pivot=theta.atom(c.body[i]),
        unifier=theta,
    )


def unify_onto(premise: HornClause, target: HornClause) -> InferenceStep | None:
    """The final variable-unification step: instantiate ``premise`` to ``target``."""
    sigma = is_instance(target, premise)
    if sigma is None:
        return None
    return InferenceStep(
        kind=KIND_UNIFICATION,
        premises=(premise,),
        conclusion=target,
        unifier=sigma,
    )


def _resolutions(c1: HornClause, c2: HornClause, c2r: HornClause,
                 kind: str) -> Iterator[InferenceStep]:
    """:func:`_resolve_renamed` at every body position of ``c1`` whose arity
    is ``c2``'s head arity, skipping those that do not unify."""
    arity = c2.head.pred.arity
    for i, atom in enumerate(c1.body):
        if atom.pred.arity == arity:
            step = _resolve_renamed(c1, c2, c2r, i, kind)
            if step is not None:
                yield step


def _arity_surplus(target: Counter, d1_body: tuple[int, ...],
                   pivot_arity: int, d2_body: tuple[int, ...]) -> int:
    """Literals a resolvent of bodies ``d1_body`` (on a pivot of
    ``pivot_arity``) and ``d2_body`` has beyond the ``target`` arity
    multiset, or -1 when no factoring of it has the target's arities.

    Factoring merges two literals of one arity, so it only shrinks the
    multiset and never empties an arity: a resolvent that lacks a target
    literal, or has an arity the target has not, never fits."""
    merged = Counter(d1_body)
    if merged[pivot_arity] < 1:
        return -1
    merged[pivot_arity] -= 1
    merged.update(d2_body)
    if target - merged or (+merged).keys() != target.keys():
        return -1
    return sum((merged - target).values())


def resolvents(c1: HornClause, c2: HornClause,
               kind: str = KIND_RESOLUTION) -> Iterator[InferenceStep]:
    """All resolutions of ``c1`` against ``c2``'s head, one per body position.

    ``c2`` is renamed apart once, as :func:`resolve` renames it for each
    position, so every step is the one :func:`resolve` returns.
    """
    if not c1.body:
        return
    if c2.head is None:
        raise ValueError("second premise must have a head to resolve upon")
    c2r, _ = rename_apart(c2, avoid_terms=c1.term_vars(),
                          avoid_preds=(p.name for p in c1.pred_vars()))
    yield from _resolutions(c1, c2, c2r, kind)


# ---------------------------------------------------------------------------
# Proof replay
# ---------------------------------------------------------------------------

def _multiset_equal(c: HornClause, d: HornClause) -> bool:
    if (c.head is None) != (d.head is None) or c.head != d.head:
        return False
    key = lambda a: (a.pred.name, a.pred.arity, a.args)
    return sorted(c.body, key=key) == sorted(d.body, key=key)


def _step_replays(step: InferenceStep) -> bool:
    """Whether ``step`` recomputes to its recorded conclusion.  A step that
    names a body position its premise lacks does not."""
    premises = step.premises
    try:
        if step.kind in (KIND_SLD, KIND_RESOLUTION) and len(premises) == 2 \
                and step.body_index is not None:
            redone = resolve(*premises, step.body_index, kind=step.kind)
        elif step.kind == KIND_FACTORING and len(premises) == 1 \
                and step.factor_indices is not None:
            redone = factor(premises[0], *step.factor_indices)
        elif step.kind == KIND_UNIFICATION and len(premises) == 1 \
                and step.unifier is not None:
            return _multiset_equal(
                apply_substitution(premises[0], step.unifier), step.conclusion)
        else:
            return False
    except (IndexError, ValueError):
        return False
    return redone is not None and redone.conclusion == step.conclusion


def replay_proof(proof: Proof, theory: Theory | Iterable[HornClause] | None = None,
                 *, _replayed: dict | None = None) -> bool:
    """Recompute every step of ``proof`` and check it end to end.

    Premises must be clauses already available (inputs or earlier
    conclusions, exactly; looked up by hash); resolution and factoring
    conclusions are recomputed and compared exactly; variable-unification
    conclusions must equal the instantiated premise as head plus body
    multiset; the final clause must be alpha-equivalent to the claimed
    conclusion.  When a theory is supplied every input must be one of its
    member objects or alpha-equivalent to one.  A step that does not replay
    makes the answer False, never an exception.

    ``_replayed`` maps ``id(step)`` to each step object already recomputed
    successfully (the value keeps the step alive, so its id stays unique);
    such a step is not recomputed again, and a successful recomputation is
    added.  Every other check still runs on every proof.
    """
    if theory is not None:
        if not isinstance(theory, Theory):
            theory = Theory(theory)
        members = {id(m) for m in theory}
        if not all(id(inp) in members or inp in theory for inp in proof.inputs):
            return False
    replayed = {} if _replayed is None else _replayed
    available = set(proof.inputs)
    for step in proof.steps:
        if not all(p in available for p in step.premises):
            return False
        if id(step) not in replayed:
            if not _step_replays(step):
                return False
            replayed[id(step)] = step
        available.add(step.conclusion)
    if proof.steps:
        return alpha_equivalent(proof.steps[-1].conclusion, proof.conclusion)
    return len(proof.inputs) == 1 and alpha_equivalent(proof.inputs[0], proof.conclusion)


# ---------------------------------------------------------------------------
# Bounded closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Prov:
    kind: str
    premise_keys: tuple
    body_index: int | None = None
    factor_indices: tuple[int, int] | None = None


@dataclass
class ClosureResult:
    """Clauses derivable level by level, with the reason any were left out."""

    clauses: tuple[HornClause, ...]
    truncated: bool
    target_hit: HornClause | None = None
    _reps: dict = field(default_factory=dict, repr=False)
    _prov: dict = field(default_factory=dict, repr=False)

    def __contains__(self, c: HornClause) -> bool:
        return canonical_key(c) in self._reps


def _check_bounds(max_depth: int, max_body: int | None,
                  max_clauses: int | None) -> None:
    """ValueError when a search bound is negative."""
    for name, value in (("max_depth", max_depth), ("max_body", max_body),
                        ("max_clauses", max_clauses)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must not be negative")


def closure(theory: Theory | Iterable[HornClause], max_depth: int, *,
            mode: str = "sld", max_body: int | None = None,
            max_clauses: int | None = None,
            _target: HornClause | None = None) -> ClosureResult:
    """Clauses derivable from ``theory`` in at most ``max_depth`` levels.

    Level 0 is the theory itself (canonical forms).  Every admitted
    clause is its key's representative, spelled through one atom table
    per call, so the clauses share their atoms.  Each later level
    resolves clauses from the previous level against the theory's members,
    and in ``standard`` mode also closes new clauses under factoring.
    ``max_body`` discards conclusions with larger bodies and ``max_clauses``
    stops growth; either sets ``truncated``, as does reaching ``max_depth``
    with the frontier still producing clauses.

    Given ``_target`` and no ``max_clauses``, the last level resolves only
    pairs that can still yield the target (set of support: Wos, Robinson &
    Carson 1965) once its ``truncated`` is settled, i.e. once it has
    admitted a clause or dropped one over ``max_body``.  A pair fits when
    the first premise has the target's head arity and the resolvent's body
    arities fit the target's (:func:`_arity_surplus`: equal in sld, and in
    standard mode a superset with no other arity, since factoring merges
    two literals of one arity).  A hit has the target's head and body
    arities, a clause that does not fit has no factor that does, and a key
    fixes those arities, so every fitting key is admitted in the same
    order, by the same premises, as in the full level: the first hit, its
    proof and, on a miss, ``truncated`` are unchanged; only clauses that
    could never hit are missing.  Under ``max_clauses`` the full level
    runs, since skipping would move the point where the cap bites.

    Factoring tries one body pair per pair of
    :func:`~hornreduce.clauses._orbits` labels of a clause.  Orbit-mates
    are swapped by an automorphism, so a skipped pair's factor has the key
    of the first pair with its labels: ``admit`` would find that key
    admitted, or drop it over ``max_body`` or the cap and set
    ``truncated`` as the first pair did.  Clauses, their order, provenance
    and ``truncated`` are unchanged.  Under ``max_clauses`` a duplicate
    whose key is admitted would still set ``truncated`` had the cap been
    reached since the first pair, so a pair is skipped only while
    ``truncated`` is already set or the cap is not reached.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_bounds(max_depth, max_body, max_clauses)
    if not isinstance(theory, Theory):
        theory = Theory(theory)

    reps: dict = {}  # canonical key -> representative, in admission order
    atoms: dict = {}  # the representatives' atoms by atom key
    prov: dict = {}
    truncated = False
    target_hit: HornClause | None = None

    def admit(raw: HornClause, record: _Prov | None, new_keys: list,
              key: tuple | None = None) -> None:
        nonlocal truncated, target_hit
        if max_body is not None and raw.body_size > max_body:
            truncated = True
            return
        if max_clauses is not None and len(reps) >= max_clauses:
            truncated = True
            return
        if key is None:
            key = canonical_key(raw)
        if key in reps:
            return
        reps[key] = rep = _representative(key, atoms)
        if record is not None:
            prov[key] = record
        new_keys.append(key)
        if _target is not None and target_hit is None:
            if is_instance(_target, rep) is not None:
                target_hit = rep

    theory_keys: list = []
    for key, c in theory.items():
        admit(c, None, theory_keys, key)
    frontier = theory_keys

    kind = KIND_SLD if mode == "sld" else KIND_RESOLUTION
    renamed: dict = {}  # premise key -> its representative renamed apart
    shapes = [_shape(reps[k]) for k in theory_keys]
    fits: dict = {}  # c1 shape -> c2 shape -> whether a resolvent can hit
    if _target is not None:
        goal = _shape(_target)
        goal_body = Counter(goal[3])

    def can_hit(s1: tuple, s2: tuple) -> bool:
        if s1[:2] != goal[:2]:
            return False
        extra = _arity_surplus(goal_body, s1[3], s2[1], s2[3])
        return extra == 0 if mode == "sld" else extra >= 0

    depth = 0
    while frontier and depth < max_depth and target_hit is None:
        depth += 1
        new_keys: list = []
        directed = (_target is not None and max_clauses is None
                    and depth == max_depth)
        for k1 in frontier:
            if target_hit is not None:
                break
            c1 = reps[k1]
            s1 = _shape(c1) if directed else None
            row = fits.setdefault(s1, {})
            for k2, s2 in zip(theory_keys, shapes):
                if target_hit is not None:
                    break
                c2 = reps[k2]
                if c2.head is None:
                    continue
                if directed and (new_keys or truncated):
                    fit = row.get(s2)
                    if fit is None:
                        fit = row[s2] = can_hit(s1, s2)
                    if not fit:
                        continue
                c2r = renamed.get(k2)
                if c2r is None:
                    c2r = renamed[k2] = rename_apart(c2)[0]
                for step in _resolutions(c1, c2, c2r, kind):
                    admit(step.conclusion,
                          _Prov(kind, (k1, k2), body_index=step.body_index),
                          new_keys)
        if mode == "standard":
            # the list iterator also visits the keys admit appends
            seeds = theory_keys if depth == 1 else []
            for k in itertools.chain(seeds, new_keys):
                if target_hit is not None:
                    break
                c = reps[k]
                n = len(c.body)
                # with fewer than three atoms no pair can repeat a label pair
                orbit = _orbits(c) if n > 2 else range(n)
                tried: set = set()
                for i, j in itertools.combinations(range(n), 2):
                    pair = (orbit[i], orbit[j])
                    if pair in tried and (max_clauses is None or truncated
                                          or len(reps) < max_clauses):
                        continue
                    tried.add(pair)
                    step = factor(c, i, j)
                    if step is not None:
                        admit(step.conclusion,
                              _Prov(KIND_FACTORING, (k,), factor_indices=(i, j)),
                              new_keys)
        frontier = new_keys
    if frontier and depth == max_depth and target_hit is None:
        # the depth cap stopped a still-growing closure: not a fixpoint
        truncated = True

    return ClosureResult(
        clauses=tuple(reps.values()),
        truncated=truncated,
        target_hit=target_hit,
        _reps=reps,
        _prov=prov,
    )


def _proof_from_closure(result: ClosureResult, derived: HornClause,
                        target: HornClause, target_key: tuple) -> Proof:
    """Reconstruct a proof of ``target`` (canonical key ``target_key``)
    from closure provenance."""
    reps, prov = result._reps, result._prov
    goal_key = canonical_key(derived)

    needed: list = []
    seen: set = set()

    def visit(key) -> None:
        if key in seen:
            return
        seen.add(key)
        rec = prov.get(key)
        if rec is not None:
            for pk in rec.premise_keys:
                visit(pk)
            needed.append((key, rec))

    visit(goal_key)
    input_keys = [k for k in seen if k not in prov]
    inputs = tuple(reps[k] for k in sorted(input_keys, key=lambda k: str(k)))

    steps: list[InferenceStep] = []
    for key, rec in needed:
        prems = tuple(reps[pk] for pk in rec.premise_keys)
        if rec.kind == KIND_FACTORING:
            step = factor(prems[0], *rec.factor_indices)
        else:
            step = resolve(prems[0], prems[1], rec.body_index, kind=rec.kind)
        assert step is not None
        steps.append(step)
        rep = reps[key]
        if step.conclusion != rep:
            bridge = unify_onto(step.conclusion, rep)
            assert bridge is not None
            steps.append(bridge)

    if target_key == goal_key:
        return Proof(inputs, tuple(steps), target)
    final = unify_onto(reps[goal_key], target)
    assert final is not None
    return Proof(inputs, tuple(steps) + (final,), target)


# ---------------------------------------------------------------------------
# Derivation search
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SearchResult:
    """Outcome of a bounded derivation search.

    ``proof`` is None when nothing was found; ``truncated`` reports whether
    unexplored derivations remain (resource bounds or the depth cap), i.e.
    whether a failure is inconclusive rather than a definitive no.
    """

    proof: Proof | None
    truncated: bool

    @property
    def found(self) -> bool:
        return self.proof is not None


def _theory_shape_index(theory: Theory) -> dict:
    index: dict = {}
    for m in theory:
        index.setdefault(_shape(m), []).append(m)
    return index


def _shape(c: HornClause) -> tuple:
    return (c.head is not None,
            c.head.pred.arity if c.head is not None else -1,
            len(c.body),
            tuple(sorted(a.pred.arity for a in c.body)))


def _instance_axiom_proof(theory: Theory, index: dict, target: HornClause,
                          goal: tuple) -> Proof | None:
    """A proof of ``target`` as a member or an instance of one.  Only the
    target's shape bucket of ``index`` can hold such a member, and the
    bucket keeps theory order."""
    m = theory.get(goal)
    if m is not None:
        return Proof((m,), (), target)
    for m in index.get(_shape(target), ()):
        step = unify_onto(m, target)
        if step is not None:
            return Proof((m,), (step,), target)
    return None


def single_step_candidates(target: HornClause, max_arity: int,
                           shapes: Collection[tuple] | None = None
                           ) -> Iterator[tuple[HornClause, HornClause, int]]:
    """Most general premise pairs that resolve back onto ``target``.

    Every split of the body across the two premises is considered (either
    side may be empty) together with every pivot atom over the target's
    variables plus per-position fresh variables (arguments the pivot carries
    but the target forgets).  Completeness for one resolution step plus a
    final unification follows by lifting: any premise pair deriving the
    target instantiates one of these.

    Given ``shapes``, the shapes of a theory's members (see ``_shape``), a
    pair is yielded only when both premises have a member's shape, and a
    split or pivot arity no pair of member shapes fits builds nothing.  An
    instance has its clause's shape, so any pair of members deriving the
    target still instantiates one of the yielded pairs; the stream is the
    unrestricted one minus the skipped pairs, in the same order.
    """
    body = target.body
    vars_c = list(target.term_vars())
    fresh = fresh_names("w", set(vars_c))
    fresh_pool = [next(fresh) for _ in range(max_arity)]
    pred_names = {p.name for p in target.pred_vars()}
    pivot_name = next(fresh_names("Q", pred_names))
    n = len(body)
    head = _shape(target)[:2]
    if shapes is None:
        masks: Iterable[int] = range(2 ** n)
    else:
        # side 2 of size s needs a member with a head and body size s, and
        # side 1 plus the pivot a member with the target's head and n - s + 1
        seconds = {sh[2] for sh in shapes if sh[0]}
        firsts = {sh[2] for sh in shapes if sh[:2] == head}
        masks = sorted(sum(1 << i for i in moved)
                       for s in range(n + 1)
                       if s in seconds and n - s + 1 in firsts
                       for moved in itertools.combinations(range(n), s))
    for mask in masks:
        moved = [i for i in range(n) if mask >> i & 1]
        kept = [i for i in range(n) if not mask >> i & 1]
        b1 = tuple(body[i] for i in kept)
        b2 = tuple(body[i] for i in moved)
        arities1 = [a.pred.arity for a in b1]
        shape2 = (len(b2), tuple(sorted(a.pred.arity for a in b2)))
        for k in range(1, max_arity + 1):
            if shapes is not None and (
                    (True, k) + shape2 not in shapes
                    or head + (len(b1) + 1, tuple(sorted(arities1 + [k])))
                    not in shapes):
                continue
            pred = PredVar(pivot_name, k)
            options = [vars_c + [fresh_pool[pos]] for pos in range(k)]
            for args in itertools.product(*options):
                pivot = Atom(pred, tuple(args))
                yield (HornClause(target.head, b1 + (pivot,)),
                       HornClause(pivot, b2),
                       len(b1))


def _pivot_patterns(d: HornClause, head: Atom | None, columns: dict,
                    k: int, in_body: bool) -> list[tuple]:
    """What the arguments of a pivot of arity ``k`` must satisfy for a
    premise to be an instance of ``d``: on side 1 the premise has head
    ``head`` and the pivot in its body, on side 2 the pivot as head.
    ``columns`` maps (arity, position) to the arguments there among the
    premise's other body atoms.

    One pattern per literal ``a`` of ``d`` that can map onto the pivot: any
    body atom of arity ``k`` on side 1, ``d``'s head on side 2.  Every
    variable of ``d``'s other literals maps into its domain: the
    intersection, over its occurrences, of the column at the same arity
    and position (the head maps onto ``head``).  A pattern pairs every
    position of ``a`` holding such a variable with its domain, so a
    repeated variable is checked at each of its positions.  An empty
    domain rules ``a`` out; a variable only ``a`` holds may map anywhere.
    That is the one rule: no ties between positions and no count of
    ``a``'s predicate, which ``is_instance`` decides.
    """
    roles = ([i for i, a in enumerate(d.body) if a.pred.arity == k]
             if in_body else [-1])
    empty: frozenset = frozenset()
    images = [[(v, columns.get((len(lit.args), p), empty))
               for p, v in enumerate(lit.args)] for lit in d.body]
    if in_body and head is not None:
        images.append([(v, {w}) for v, w in zip(d.head.args, head.args)])
    patterns = []
    for role in roles:
        domains: dict = {}
        for i, occurrences in enumerate(images):
            if i != role:
                for v, image in occurrences:
                    domains[v] = domains[v] & image if v in domains else image
        if all(domains.values()):
            args = d.body[role].args if in_body else d.head.args
            patterns.append(tuple((p, domains[v]) for p, v in enumerate(args)
                                  if v in domains))
    return patterns


def _instances_among(c: HornClause, in_body: bool, index: dict,
                     table: dict) -> list[HornClause]:
    """The members of ``c``'s shape bucket in ``index`` that ``c`` is an
    instance of, in bucket order.  ``c`` is a premise of a
    :func:`single_step_candidates` pair, its pivot the last body atom
    (side 1, ``in_body``) or the head (side 2).

    ``table`` holds one search's :func:`_pivot_patterns` per member and
    (side, other body atoms, pivot arity), built on first use; the side-1
    head is the search's target head throughout.  A member admits the
    pivot when some pattern's domains hold every argument at its
    positions; that is necessary for ``is_instance``, so only members that
    admit it are matched, and the list is the one matching every member
    gives.
    """
    pivot, fixed = (c.body[-1], c.body[:-1]) if in_body else (c.head, c.body)
    k = pivot.pred.arity
    entries = table.get((in_body, fixed, k))
    if entries is None:
        columns: dict = {}
        for f in fixed:
            for p, v in enumerate(f.args):
                columns.setdefault((len(f.args), p), set()).add(v)
        entries = table[in_body, fixed, k] = [
            (d, pats) for d in index.get(_shape(c), ())
            if (pats := _pivot_patterns(d, c.head, columns, k, in_body))]
    args = pivot.args
    return [d for d, patterns in entries
            if any(all(args[p] in dom for p, dom in bound)
                   for bound in patterns)
            and is_instance(c, d) is not None]


def _inverse_single_step(index: dict, target: HornClause, goal: tuple,
                         mode: str) -> Proof | None:
    """Complete search for derivations with exactly one resolution step
    onto ``target``, whose canonical key is ``goal``, from the members
    ``index`` holds by shape.

    Each premise of a candidate pair is matched only against the members
    of its shape whose pivot domains (:func:`_pivot_patterns`) admit its
    pivot.  Every member the premise is an instance of admits it, so the
    domains are a necessary condition and ``is_instance`` still decides:
    ``firsts`` and ``seconds`` are the lists matching every same-shape
    member gives, in theory order, so the pairs tried, the first hit and
    its proof are unchanged.
    """
    # the largest arity of a member's head or body atom
    max_arity = max(max((s[1], *s[3])) for s in index)
    kind = KIND_SLD if mode == "sld" else KIND_RESOLUTION
    table: dict = {}
    for c1, c2, _ in single_step_candidates(target, max_arity, index):
        firsts = _instances_among(c1, True, index, table)
        if not firsts:
            continue
        seconds = _instances_among(c2, False, index, table)
        for d1 in firsts:
            for d2 in seconds:
                for step in resolvents(d1, d2, kind=kind):
                    if canonical_key(step.conclusion) == goal:
                        return Proof((d1, d2), (step,), target)
                    final = unify_onto(step.conclusion, target)
                    if final is not None:
                        return Proof((d1, d2), (step, final), target)
    return None


def search_derivation(theory: Theory | Iterable[HornClause], target: HornClause,
                      max_depth: int = 1, *, mode: str = "sld",
                      max_body: int | None = None,
                      max_clauses: int | None = None) -> SearchResult:
    """Search for a derivation of ``target`` from ``theory``.

    Depth 0 finds instances of theory members.  Depth 1 additionally runs a
    complete inverse search over single resolution steps (plus the final
    unification), so with ``max_depth=1`` a miss means no one-step
    derivation exists — though deeper ones might, hence ``truncated``.
    Depths beyond 1 saturate forward level by level under the given bounds.
    Both early stages read one index of the members by shape; the
    one-step stage matches a candidate premise only against members whose
    pivot domains admit it, which every instance does, so it finds the
    proof that matching all same-shape members finds.  A negative bound is
    a ValueError.

    In ``standard`` mode the single-step search does not interleave
    factoring; derivations that need it are found by the forward levels.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_bounds(max_depth, max_body, max_clauses)
    if not isinstance(theory, Theory):
        theory = Theory(theory)
    if len(theory) == 0:
        return SearchResult(None, truncated=False)

    goal = canonical_key(target)
    index = _theory_shape_index(theory)
    proof = _instance_axiom_proof(theory, index, target, goal)
    if proof is None and max_depth >= 1:
        proof = _inverse_single_step(index, target, goal, mode)
    if proof is not None:
        return SearchResult(proof, truncated=False)
    needs_closure = max_depth >= 2 or (mode == "standard" and max_depth >= 1)
    if not needs_closure:
        # depths beyond the cap were never explored
        return SearchResult(None, truncated=True)

    result = closure(theory, max_depth, mode=mode, max_body=max_body,
                     max_clauses=max_clauses, _target=target)
    if result.target_hit is not None:
        return SearchResult(
            _proof_from_closure(result, result.target_hit, target, goal),
            truncated=False)
    # a fixpoint without drops is a definitive no; anything else is a cut
    return SearchResult(None, truncated=result.truncated)


# ---------------------------------------------------------------------------
# Proof serialization
# ---------------------------------------------------------------------------

# The JSON layout of a proof:
#   {"inputs": [clause text, ...], "steps": [step, ...],
#    "conclusion": clause text}
# A step is the dict of _step_json_fields plus "premises", its list of
# premise refs from _premise_refs.  A step's own fields do not depend on the
# proof holding it, and spliced proofs share step objects, so they are
# built once per step object.

def _step_json_fields(step: InferenceStep) -> dict:
    """The JSON fields of ``step`` other than its premises: the kind and the
    conclusion text, and the body index, factor indices, pivot text and
    unifier when the step has them.  Built on the first call and kept on
    the step; callers copy the dict and share its values."""
    entry = step._json_fields
    if entry is not None:
        return entry
    entry = {"kind": step.kind, "conclusion": step.conclusion.text()}
    if step.body_index is not None:
        entry["body_index"] = step.body_index
    if step.factor_indices is not None:
        entry["factor_indices"] = list(step.factor_indices)
    if step.pivot is not None:
        entry["pivot"] = step.pivot.text()
    if step.unifier is not None:
        entry["unifier"] = step.unifier.to_json_dict()
    object.__setattr__(step, "_json_fields", entry)
    return entry


def _premise_refs(proof: Proof) -> list[list[list]]:
    """Each step's premises as ``["input", i]`` / ``["step", j]`` refs.

    A premise refers to the first input equal to it, else to the earliest
    earlier step concluding it; ValueError when there is none.
    """
    refs: dict[HornClause, tuple[str, int]] = {}
    for i, inp in enumerate(proof.inputs):
        refs.setdefault(inp, ("input", i))
    out = []
    for j, step in enumerate(proof.steps):
        try:
            out.append([list(refs[p]) for p in step.premises])
        except KeyError:
            raise ValueError("step premise is not an input or earlier "
                             "conclusion") from None
        refs.setdefault(step.conclusion, ("step", j))
    return out


def proof_to_json_dict(proof: Proof) -> dict:
    """A JSON-ready dict in the layout above; ValueError when a premise is
    neither an input nor an earlier conclusion (see :func:`_premise_refs`).

    Each call returns new dicts and lists down to the steps and their
    premise refs.  The ``factor_indices`` list and the ``unifier`` dict of
    a step are built once per step object and shared by every dict made
    from it, so a proof's steps are serialized once however many spliced
    proofs hold them: copy those two values before changing them.
    """
    steps = []
    for step, premises in zip(proof.steps, _premise_refs(proof)):
        entry = {"kind": step.kind, "premises": premises}
        entry.update(_step_json_fields(step))
        steps.append(entry)
    return {
        "inputs": [c.text() for c in proof.inputs],
        "steps": steps,
        "conclusion": proof.conclusion.text(),
    }


def proof_from_json_dict(data: dict) -> Proof:
    """Rebuild a :class:`Proof` serialized by :func:`proof_to_json_dict`.

    Raises ValueError on a malformed record: a missing key, a field of the
    wrong JSON type, or a premise reference that is not an ``["input", i]``
    or ``["step", j]`` pair naming an existing input or an earlier step.
    """
    from hornreduce.clauses import parse_clause

    def field(record, key: str, kind: type, optional: bool = False):
        if not isinstance(record, dict) or not (optional or key in record):
            raise ValueError(f"proof record lacks {key!r}")
        value = record.get(key)
        if (value is not None or not optional) and type(value) is not kind:
            raise ValueError(f"proof record {key!r} is not a {kind.__name__}")
        return value

    inputs = field(data, "inputs", list)
    if any(type(t) is not str for t in inputs):
        raise ValueError(f"proof inputs are not all clause texts: {inputs!r}")
    inputs = tuple(parse_clause(t) for t in inputs)
    conclusion = parse_clause(field(data, "conclusion", str))
    steps: list[InferenceStep] = []

    def deref(ref) -> HornClause:
        if isinstance(ref, (list, tuple)) and len(ref) == 2 \
                and type(ref[1]) is int and ref[1] >= 0:
            where, i = ref
            if where == "input" and i < len(inputs):
                return inputs[i]
            if where == "step" and i < len(steps):
                return steps[i].conclusion
        raise ValueError(f"bad premise reference {ref!r}")

    for entry in field(data, "steps", list):
        premises = tuple(deref(r) for r in field(entry, "premises", list))
        step_conclusion = parse_clause(field(entry, "conclusion", str))
        pivot = field(entry, "pivot", str, optional=True)
        if pivot is not None:
            pivot = parse_clause(pivot + ".").head
        unifier = field(entry, "unifier", dict, optional=True)
        if unifier is not None:
            try:
                unifier = Substitution.from_json_dict(unifier)
            except (TypeError, AttributeError) as exc:
                raise ValueError(f"malformed unifier: {exc}") from None
        factor_indices = field(entry, "factor_indices", list, optional=True)
        if factor_indices is not None:
            if len(factor_indices) != 2 \
                    or any(type(i) is not int for i in factor_indices):
                raise ValueError(f"bad factor indices {factor_indices!r}")
            factor_indices = tuple(factor_indices)
        steps.append(InferenceStep(
            kind=field(entry, "kind", str),
            premises=premises,
            conclusion=step_conclusion,
            body_index=field(entry, "body_index", int, optional=True),
            factor_indices=factor_indices,
            pivot=pivot,
            unifier=unifier,
        ))
    return Proof(inputs, tuple(steps), conclusion)
