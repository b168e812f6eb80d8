"""Core algebra of second-order function-free Horn clauses.

Everything here is variable-only: atoms apply a predicate *variable* to term
*variables*, substitutions map predicate variables to predicate variables
(arity-preserving) and term variables to term variables, and unification is
therefore mere variable identification.  This module provides the clause
types, substitution calculus, most-general unifier, canonical forms (the
basis for alpha-equivalence and deduplication), instance matching, the
per-variable literal masks every structural question reads, pending
variables, and the clause text format.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, ItemsView, Iterable, Iterator


class ArityMismatchError(ValueError):
    """An atom or substitution violates arity preservation."""


class ClauseParseError(ValueError):
    """Clause or theory text that does not match the grammar."""


# ---------------------------------------------------------------------------
# Terms, atoms, clauses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PredVar:
    """A predicate variable: identifier plus fixed arity."""

    name: str
    arity: int

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate variable applied to term variables (one literal occurrence)."""

    pred: PredVar
    args: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise ArityMismatchError(
                f"{self.pred!r} applied to {len(self.args)} argument(s)")

    @staticmethod
    def of(name: str, *args: str) -> "Atom":
        """Build an atom, inferring the arity from the argument count."""
        return Atom(PredVar(name, len(args)), tuple(args))

    def text(self) -> str:
        return f"{self.pred.name}({','.join(self.args)})"

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class HornClause:
    """At most one head atom plus a body tuple (a multiset; order is storage).

    Semantic identity is alpha-equivalence of the head plus the body multiset;
    use :func:`canonical_key` / :func:`alpha_equivalent` to compare, not
    ``==`` (which is structural).  Predicate variables sharing a name within
    one clause must agree on arity.

    The hash is the dataclass hash of ``(head, body)``, computed on first
    use and kept in the ``_hash`` slot, which stays unset until then:
    building a clause hashes nothing.  ``_hash`` is no field, so ``==``,
    ``repr`` and ``dataclasses.replace`` see only the head and body, and
    pickling and copying rebuild the clause from them.
    """

    __slots__ = ("head", "body", "_hash")

    head: Atom | None
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        arities: dict[str, int] = {}
        for atom in self.literals():
            known = arities.setdefault(atom.pred.name, atom.pred.arity)
            if known != atom.pred.arity:
                raise ArityMismatchError(
                    f"{atom.pred.name} used with arities {known} and {atom.pred.arity}")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.head, self.body))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self) -> tuple:
        return HornClause, (self.head, self.body)

    @property
    def body_size(self) -> int:
        return len(self.body)

    def literals(self) -> tuple[Atom, ...]:
        """All literal occurrences, head first when present."""
        if self.head is None:
            return self.body
        return (self.head,) + self.body

    def term_vars(self) -> tuple[str, ...]:
        """Term variables in first-occurrence order of the traversal."""
        seen: dict[str, None] = {}
        for atom in self.literals():
            for v in atom.args:
                seen.setdefault(v)
        return tuple(seen)

    def pred_vars(self) -> tuple[PredVar, ...]:
        """Predicate variables in first-occurrence order of the traversal."""
        seen: dict[PredVar, None] = {}
        for atom in self.literals():
            seen.setdefault(atom.pred)
        return tuple(seen)

    def max_arity(self) -> int:
        return max((a.pred.arity for a in self.literals()), default=0)

    def text(self) -> str:
        """Grammar form ``H(..) :- B1(..), B2(..).`` — definite clauses only."""
        if self.head is None:
            raise ValueError("headless clauses have no text form")
        return str(self)

    def __str__(self) -> str:
        head = self.head.text() if self.head is not None else ""
        if not self.body:
            return f"{head}." if head else "[]."
        return f"{head} :- {', '.join(a.text() for a in self.body)}."


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

class Substitution:
    """A variable-to-variable substitution.

    ``pred_map`` sends predicate variables to predicate variables of the same
    arity; ``term_map`` sends term variables to term variables.  Identity
    entries are dropped, so substitutions compare equal iff they act
    identically.
    """

    __slots__ = ("pred_map", "term_map")

    def __init__(self, pred_map: Iterable | dict = (), term_map: Iterable | dict = ()):
        pm = dict(pred_map)
        tm = dict(term_map)
        for k, v in pm.items():
            if k.arity != v.arity:
                raise ArityMismatchError(f"cannot map {k!r} to {v!r}")
        self.pred_map: dict[PredVar, PredVar] = {k: v for k, v in pm.items() if k != v}
        self.term_map: dict[str, str] = {k: v for k, v in tm.items() if k != v}

    def pred(self, p: PredVar) -> PredVar:
        return self.pred_map.get(p, p)

    def term(self, t: str) -> str:
        return self.term_map.get(t, t)

    def atom(self, a: Atom) -> Atom:
        """``a`` under the substitution: ``a`` itself when the substitution
        fixes it, else a new atom.  Identity entries are dropped, so a
        mapped predicate is never ``a.pred`` itself."""
        tm = self.term_map
        args = tuple([tm.get(x, x) for x in a.args])
        pred = self.pred_map.get(a.pred, a.pred)
        if pred is a.pred and args == a.args:
            return a
        return Atom(pred, args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self.pred_map == other.pred_map and self.term_map == other.term_map

    def __repr__(self) -> str:
        parts = [f"{k.name}->{v.name}" for k, v in sorted(
            self.pred_map.items(), key=lambda kv: (kv[0].name, kv[0].arity))]
        parts += [f"{k}->{v}" for k, v in sorted(self.term_map.items())]
        return "{" + ", ".join(parts) + "}"

    def to_json_dict(self) -> dict:
        return {
            "preds": {k.name: [v.name, v.arity] for k, v in sorted(
                self.pred_map.items(), key=lambda kv: (kv[0].name, kv[0].arity))},
            "terms": dict(sorted(self.term_map.items())),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Substitution":
        """Read :meth:`to_json_dict`'s form back; a malformed ``preds`` or
        ``terms`` field is a ValueError that names it."""
        preds, terms = data.get("preds", {}), data.get("terms", {})
        if type(preds) is not dict or any(
                type(v) is not list or [*map(type, v)] != [str, int]
                for v in preds.values()):
            raise ValueError(
                f"unifier 'preds' is not a map to [name, arity] pairs: {preds!r}")
        if type(terms) is not dict or any(
                type(v) is not str for v in terms.values()):
            raise ValueError(
                f"unifier 'terms' is not a map to term names: {terms!r}")
        return Substitution(
            {PredVar(k, ar): PredVar(name, ar)
             for k, (name, ar) in preds.items()}, terms)


def apply_substitution(clause: HornClause, sub: Substitution) -> HornClause:
    """Apply ``sub`` to every literal of ``clause``."""
    head = sub.atom(clause.head) if clause.head is not None else None
    return HornClause(head, tuple(sub.atom(a) for a in clause.body))


def compose(s1: Substitution, s2: Substitution) -> Substitution:
    """The substitution acting as ``s1`` then ``s2``."""
    pm = {k: s2.pred(v) for k, v in s1.pred_map.items()}
    for k, v in s2.pred_map.items():
        pm.setdefault(k, v)
    tm = {k: s2.term(v) for k, v in s1.term_map.items()}
    for k, v in s2.term_map.items():
        tm.setdefault(k, v)
    return Substitution(pm, tm)


def mgu(a: Atom, b: Atom) -> Substitution | None:
    """Most general unifier of two atoms, or None when arities differ.

    Variable-only unification: equal-arity atoms always unify.  Each merged
    class maps to the member appearing first in the left atom's traversal
    order (predicate, then arguments left to right), so the result is
    idempotent and deterministic.
    """
    if a.pred.arity != b.pred.arity:
        return None
    order: dict[str, int] = {}
    for v in a.args + b.args:
        order.setdefault(v, len(order))
    parent: dict[str, str] = {v: v for v in order}

    def find(v: str) -> str:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    for x, y in zip(a.args, b.args):
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if order[rx] > order[ry]:
            rx, ry = ry, rx
        parent[ry] = rx

    term_map = {v: find(v) for v in order if find(v) != v}
    pred_map: dict[PredVar, PredVar] = {}
    if a.pred != b.pred:
        pred_map[b.pred] = a.pred
    return Substitution(pred_map, term_map)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def _atom_key(name: str, args: tuple[str, ...], pidx: dict[str, int],
             tidx: dict[str, int]) -> tuple[int, ...]:
    # Tentative serialization key of the atom name(args): new variables get
    # the next indices without mutating the maps (repeats within the atom
    # stay consistent).
    fresh: dict[str, int] = {}
    nxt = len(tidx) + 1  # term indices are 1-based
    key = [pidx.get(name, len(pidx))]
    for v in args:
        t = tidx.get(v)
        if t is None:
            t = fresh.setdefault(v, nxt + len(fresh))
        key.append(t)
    return tuple(key)


def _rollback(preds: dict, terms: dict, np: int, nt: int) -> None:
    # Drop the bindings made since the maps held np and nt entries: dicts
    # keep insertion order, so popitem() removes exactly the newest.
    while len(preds) > np:
        preds.popitem()
    while len(terms) > nt:
        terms.popitem()


def _orbits(c: HornClause) -> list[tuple]:
    """One label per body atom of ``c``; atoms with equal labels are
    interchangeable.

    This is the one interchangeability rule of both body-atom searches:
    equal atoms, or equal arguments under predicates used once in the
    clause (head included).  Swapping two such atoms, with their
    predicates, is an automorphism of ``c``, so a search needs to branch
    on one atom per orbit only.  Labels are plain tuples, ``(False,
    args)`` or ``(pred name, args)``; a name has one arity per clause.
    """
    uses = Counter(a.pred.name for a in c.literals())
    return [(False, a.args) if uses[a.pred.name] == 1 else (a.pred.name, a.args)
            for a in c.body]


def _canonical_serialization(c: HornClause) -> tuple:
    """The canonical key of ``c``: head presence plus the minimal
    serialization over body orderings.

    A depth-first search over body orderings on an explicit stack: each
    level keys every unused atom with :func:`_atom_key`, prunes against the
    least complete serialization found when its least key cannot match it,
    and takes the atoms of least key.  The maps are keyed by predicate
    name (a name has one arity per clause) and a level is undone by
    rolling them back to their sizes.  Tied atoms are branched on once per
    orbit of :func:`_orbits`: an automorphism maps one orbit-mate's branch
    onto the other's, so both find the same minimum.  Only a level whose
    least key ties atoms of different orbits pushes a stack entry, and the
    labels are built at the first tie, so a clause whose levels never tie
    does not build them.
    """
    pidx: dict[str, int] = {}
    tidx: dict[str, int] = {}
    acc: list[tuple[int, ...]] = []
    head = c.head
    if head is not None:
        acc.append(_atom_key(head.pred.name, head.args, pidx, tidx))
        pidx[head.pred.name] = 0
        for v in head.args:
            if v not in tidx:
                tidx[v] = len(tidx) + 1  # term indices are 1-based (x1, ...)
    # the body atoms not yet taken, in body order, with their body indices
    rest = [(a.pred.name, a.args, j) for j, a in enumerate(c.body)]
    best: tuple | None = None  # the least complete serialization found
    orbit: list[tuple] | None = None
    # one entry per level with atoms of different orbits tied: its depth,
    # its untaken atoms, the positions among them it still branches on,
    # its least key and the map sizes to roll back to
    stack: list[tuple] = []
    while True:
        p = -1  # the position in rest of the atom to take next
        if rest:
            keys = [_atom_key(name, args, pidx, tidx) for name, args, _ in rest]
            mkey = min(keys)
            pos = len(acc)
            # Lexicographic pruning against the best complete serialization.
            if best is None or mkey <= best[pos] or tuple(acc) != best[:pos]:
                p = keys.index(mkey)
                if keys.count(mkey) > 1:
                    if orbit is None:
                        orbit = _orbits(c)
                    taken: set = set()
                    ties = []
                    for q, k in enumerate(keys):
                        if k == mkey and orbit[rest[q][2]] not in taken:
                            taken.add(orbit[rest[q][2]])
                            ties.append(q)
                    if len(ties) > 1:
                        stack.append((pos, rest[:], ties[:0:-1], mkey,
                                      len(pidx), len(tidx)))
        elif best is None or tuple(acc) < best:
            best = tuple(acc)
        if p < 0:  # backtrack to the deepest level with a branch left
            while stack and not stack[-1][2]:
                stack.pop()
            if not stack:
                break
            pos, saved, ties, mkey, np, nt = stack[-1]
            rest = saved[:]
            del acc[pos:]
            _rollback(pidx, tidx, np, nt)
            p = ties.pop()
        name, args, _ = rest.pop(p)
        acc.append(mkey)
        if name not in pidx:
            pidx[name] = len(pidx)
        for v in args:
            if v not in tidx:
                tidx[v] = len(tidx) + 1
    assert best is not None
    return head is not None, best


def _representative(key: tuple, atoms: dict | None = None) -> HornClause:
    """The clause a canonical key spells: atom ``(p, t1, ..., tk)`` is
    ``P<p>(x<t1>, ..., x<tk>)``, head first when the key's flag says so.

    ``atoms`` maps the atom keys already spelled to their atoms and gains
    the new ones, so representatives spelled through one table share
    their atoms; a caller keeps it for one call only.
    """
    if atoms is None:
        atoms = {}
    has_head, keys = key
    lits = []
    for a in keys:
        atom = atoms.get(a)
        if atom is None:
            atom = atoms[a] = Atom(PredVar(f"P{a[0]}", len(a) - 1),
                                   tuple([f"x{t}" for t in a[1:]]))
        lits.append(atom)
    return HornClause(lits[0] if has_head else None, tuple(lits[has_head:]))


def canonical_key(c: HornClause) -> tuple:
    """A hashable, total-order key identifying ``c`` up to alpha-equivalence
    and body reordering (head presence is part of the key)."""
    return _canonical_serialization(c)


def canonical(c: HornClause) -> tuple[tuple, HornClause]:
    """The canonical key of ``c`` and its canonical representative, from one
    serialization: the representative is spelled from the key.

    The representative minimizes the clause serialization over all body
    orderings, numbering predicate variables ``P0, P1, ...`` and term
    variables ``x1, x2, ...`` by first occurrence.  Idempotent; invariant
    under renaming and body reordering; preserves body multiplicity.
    """
    key = canonical_key(c)
    return key, _representative(key)


def alpha_equivalent(c: HornClause, d: HornClause) -> bool:
    """True iff the clauses are equal up to renaming and body reordering."""
    return c == d or canonical_key(c) == canonical_key(d)


# ---------------------------------------------------------------------------
# Instance matching and pending variables
# ---------------------------------------------------------------------------

def is_instance(c: HornClause, d: HornClause) -> Substitution | None:
    """A substitution sigma with ``apply_substitution(d, sigma) == c`` as head
    plus body multiset, or None.  sigma need not be injective.

    Depth first: ``d``'s body atoms in order, each against ``c``'s unused
    atoms in order, so the first substitution found is fixed by the inputs.
    Once a candidate's subtree fails, its orbit-mates under :func:`_orbits`
    of ``c`` are skipped at that level: an automorphism of ``c`` maps one
    mate onto the other, so they would fail too.  The labels are built on
    the first failed subtree, so a match that never backtracks pays nothing.
    The search runs on an explicit stack, one entry per matched atom, so
    its depth is not bounded by the recursion limit.
    """
    if (c.head is None) != (d.head is None):
        return None
    if len(c.body) != len(d.body):
        return None
    if sorted(a.pred.arity for a in c.body) != sorted(a.pred.arity for a in d.body):
        return None
    pm: dict[PredVar, PredVar] = {}
    tm: dict[str, str] = {}

    def match(da: Atom, ca: Atom) -> bool:
        # Extend pm and tm so that da maps onto ca; on False the caller
        # rolls back what was bound.
        if da.pred.arity != ca.pred.arity or pm.setdefault(da.pred, ca.pred) != ca.pred:
            return False
        for x, y in zip(da.args, ca.args):
            if tm.setdefault(x, y) != y:
                return False
        return True

    if c.head is not None and not match(d.head, c.head):
        return None
    cb, db = c.body, d.body
    n = len(cb)
    used = [False] * n
    orbit: list[tuple] | None = None
    # one entry per matched level below the current one: the atom of c it
    # took and the map sizes and failed orbits of that level
    stack: list[tuple] = []
    i = j = 0  # the atom of d to match next, the first candidate left
    np, nt, failed = len(pm), len(tm), set()
    while i < n:
        da = db[i]
        while j < n:
            if not used[j] and not (failed and orbit[j] in failed):
                if match(da, cb[j]):
                    break
                _rollback(pm, tm, np, nt)
            j += 1
        if j < n:
            used[j] = True
            stack.append((j, np, nt, failed))
            i, j = i + 1, 0
            np, nt, failed = len(pm), len(tm), set()
            continue
        if not stack:
            return None
        # level i ran out of candidates, so level i - 1's candidate j
        # failed: try its next candidate that is not an orbit-mate of j
        j, np, nt, failed = stack.pop()
        i -= 1
        used[j] = False
        if orbit is None:
            orbit = _orbits(c)
        failed.add(orbit[j])
        _rollback(pm, tm, np, nt)
        j += 1
    return Substitution(pm, tm)


def _literal_masks(c: HornClause) -> tuple[dict[str, int], dict[str, int]]:
    """Each term variable's literal mask in first-occurrence order, and the
    mask of the literals holding it twice or more (only for variables some
    literal repeats): bit ``k`` stands for literal ``k``, head first.

    Every structural question about a clause reads these masks: its graph,
    connectivity, pending variables, fragment membership and cuts.
    """
    masks: dict[str, int] = {}
    multi: dict[str, int] = {}
    for k, atom in enumerate(c.literals()):
        bit = 1 << k
        for v in atom.args:
            m = masks.get(v, 0)
            if m & bit:
                multi[v] = multi.get(v, 0) | bit
            masks[v] = m | bit
    return masks, multi


def pending_variables(c: HornClause) -> frozenset[str]:
    """Term variables not occurring in at least two distinct literal
    occurrences of ``c`` (the head counts as a literal)."""
    return frozenset(v for v, m in _literal_masks(c)[0].items()
                     if m.bit_count() < 2)


# ---------------------------------------------------------------------------
# Fresh names / renaming apart
# ---------------------------------------------------------------------------

def fresh_names(prefix: str, avoid: set[str]) -> Iterator[str]:
    """Yield ``prefix1, prefix2, ...`` skipping names in ``avoid``."""
    i = 1
    while True:
        name = f"{prefix}{i}"
        if name not in avoid:
            yield name
        i += 1


def rename_apart(c: HornClause, avoid_terms: Iterable[str] = (),
                 avoid_preds: Iterable[str] = ()) -> tuple[HornClause, Substitution]:
    """Rename every variable of ``c`` to fresh names outside the avoid sets.

    Deterministic: fresh names are drawn in the clause's traversal order, so
    the same inputs always rename identically.
    """
    tvars = c.term_vars()
    pvars = c.pred_vars()
    terms = fresh_names("v", set(avoid_terms).union(tvars))
    preds = fresh_names("Q", set(avoid_preds).union(p.name for p in pvars))
    sub = Substitution(
        {p: PredVar(next(preds), p.arity) for p in pvars},
        {v: next(terms) for v in tvars},
    )
    return apply_substitution(c, sub), sub


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

# One atom and the separator after it, if any.  The text has no nesting, so
# one pattern reads a clause left to right.  An identifier is never followed
# by an identifier character, so a failed match backtracks at most linearly.
_ATOM_RE = re.compile(
    r"\s*([A-Z][A-Za-z0-9_]*)\s*\(\s*([a-z][A-Za-z0-9_]*"
    r"(?:\s*,\s*[a-z][A-Za-z0-9_]*)*)\s*\)\s*(:-|,|\.)?")


def _atom(m: re.Match) -> Atom:
    """The atom of an ``_ATOM_RE`` match."""
    return Atom.of(m[1], *(a.strip() for a in m[2].split(",")))


def parse_clause(text: str) -> HornClause:
    """Parse clause text, which reads, up to whitespace,

    ``clause = atom [":-" atom {"," atom}] "." ;  atom = Upper "(" lower {"," lower} ")" ;``

    where ``Upper`` and ``lower`` are ASCII identifiers (letters, digits
    and ``_``) that start with an upper- and a lowercase letter.
    """
    atoms: list[Atom] = []
    pos, sep = 0, ":-"
    while True:
        m = _ATOM_RE.match(text, pos)
        if m is None or m[3] not in (sep, "."):
            rest = text[pos:].strip()[:30]
            raise ClauseParseError(
                f"expected Upper(lower, ...) then {sep!r} or '.' at {rest!r}"
                if rest else "unexpected end of clause")
        atoms.append(_atom(m))
        pos, sep = m.end(), ","
        if m[3] == ".":
            break
    rest = text[pos:].strip()
    if rest:
        raise ClauseParseError(f"trailing input after clause: {rest[:30]!r}")
    try:
        return HornClause(atoms[0], tuple(atoms[1:]))
    except ArityMismatchError as exc:
        raise ClauseParseError(str(exc)) from None


def parse_theory(text: str) -> list[HornClause]:
    """Parse theory text: one clause per line, ``#`` comments, blank lines."""
    clauses: list[HornClause] = []
    arities: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            clause = parse_clause(line)
        except ClauseParseError as exc:
            raise ClauseParseError(f"line {lineno}: {exc}") from None
        # In a hand-written file a name reused at another arity is almost
        # always a typo, even though names are clause-local variables.
        for p in clause.pred_vars():
            known = arities.setdefault(p.name, p.arity)
            if known != p.arity:
                raise ArityMismatchError(
                    f"line {lineno}: {p.name} used with arities "
                    f"{known} and {p.arity} across the theory")
        clauses.append(clause)
    return clauses


# ---------------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------------

class Theory:
    """A finite clause set, deduplicated by alpha-equivalence.

    Keeps the first-seen form of each clause in insertion order, indexed by
    canonical key, so membership, :meth:`find` and :meth:`without`
    canonicalize only their argument.  Predicate names are clause-local
    variables, so the same name may appear at different arities in
    different clauses (canonical enumerations reuse names freely);
    :func:`parse_theory` enforces name/arity consistency for hand-written
    files instead.
    """

    __slots__ = ("_by_key",)

    def __init__(self, clauses: Iterable[HornClause] = ()):
        self._by_key: dict[tuple, HornClause] = {}
        for c in clauses:
            self._by_key.setdefault(canonical_key(c), c)

    def __iter__(self) -> Iterator[HornClause]:
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, c: HornClause) -> bool:
        return canonical_key(c) in self._by_key

    def items(self) -> ItemsView[tuple, HornClause]:
        """The (canonical key, member) pairs in insertion order."""
        return self._by_key.items()

    def get(self, key: tuple) -> HornClause | None:
        """The member with canonical key ``key``, or None."""
        return self._by_key.get(key)

    def find(self, c: HornClause) -> HornClause | None:
        """The member alpha-equivalent to ``c``, or None."""
        return self.get(canonical_key(c))

    def ordered(self, order: Callable[[tuple, HornClause], Any]) -> "Theory":
        """The same members, reordered by ``order(canonical key, clause)``."""
        out = Theory()
        out._by_key = dict(sorted(self._by_key.items(),
                                  key=lambda kc: order(*kc)))
        return out

    def without(self, c: HornClause) -> "Theory":
        rest = Theory()
        rest._by_key = dict(self._by_key)
        rest._by_key.pop(canonical_key(c), None)
        return rest

    def __repr__(self) -> str:
        return f"Theory({len(self)} clauses)"
