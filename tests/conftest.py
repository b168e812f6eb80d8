"""Shared helpers and slow corpora fixtures."""

import functools
import itertools
import random
import re
from typing import Iterator

import pytest

from hornreduce.clauses import (
    ArityMismatchError,
    Atom,
    ClauseParseError,
    HornClause,
    PredVar,
    Substitution,
    canonical_key,
    fresh_names,
    parse_clause,
)
from hornreduce.fragments import FragmentSpec


def cl(text: str) -> HornClause:
    """Parse shortcut for tests."""
    return parse_clause(text)


def c_base() -> HornClause:
    """The dyadic clause whose every extension family member is irreducible."""
    return cl("P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), P4(x2,x4), P5(x3,x4).")


def c_triadic() -> HornClause:
    """The triadic clause reducible by standard resolution but not by SLD."""
    return cl("P0(x1,x2,x3) :- P1(x1,x4,x5), P2(x2,x5,x6), P3(x3,x4,x6).")


# ---------------------------------------------------------------------------
# Independent oracles (deliberately dumb; used to freeze expectations)
# ---------------------------------------------------------------------------

def oracle_canonical_serialization(c: HornClause):
    """Minimal serialization by brute force over all body permutations."""
    def serialize(atoms):
        pidx, tidx, out = {}, {}, []
        for atom in atoms:
            if atom.pred not in pidx:
                pidx[atom.pred] = len(pidx)
            key = [pidx[atom.pred]]
            for v in atom.args:
                if v not in tidx:
                    tidx[v] = len(tidx) + 1
                key.append(tidx[v])
            out.append(tuple(key))
        return tuple(out)

    prefix = (c.head,) if c.head is not None else ()
    return min(serialize(prefix + tuple(perm))
               for perm in itertools.permutations(c.body))


def oracle_canonical_key(c: HornClause):
    return (c.head is not None, oracle_canonical_serialization(c))


def oracle_is_instance(c: HornClause, d: HornClause):
    """The first substitution sending ``d`` onto ``c``, by brute force: try
    the permutations of ``c``'s body positions in lexicographic order, pair
    ``d``'s atoms with them in order, and accept the first pairing whose
    variable pairs form a function.  Depth-first matching finds the same
    first hit."""
    if (c.head is None) != (d.head is None) or len(c.body) != len(d.body):
        return None
    heads = [(d.head, c.head)] if c.head is not None else []
    for perm in itertools.permutations(range(len(c.body))):
        pairs = heads + [(d.body[i], c.body[j]) for i, j in enumerate(perm)]
        if any(da.pred.arity != ca.pred.arity for da, ca in pairs):
            continue
        preds = {(da.pred, ca.pred) for da, ca in pairs}
        terms = {xy for da, ca in pairs for xy in zip(da.args, ca.args)}
        if (len(dict(preds)) == len(preds)
                and len(dict(terms)) == len(terms)):
            return Substitution(dict(preds), dict(terms))
    return None


# A token-level clause reader: a tokenizer, a token stream and a recursive
# descent.  It reads the language ``parse_clause`` reads by other means, so
# the tests compare the two.

_TOKEN_RE = re.compile(r"\s*(:-|[(),.]|[A-Za-z][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ClauseParseError(f"unexpected input at {rest[:20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Tokens:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ClauseParseError("unexpected end of clause")
        if expect is not None and tok != expect:
            raise ClauseParseError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok


def _oracle_parse_atom(ts: _Tokens) -> Atom:
    name = ts.take()
    if not name[0].isupper():
        raise ClauseParseError(f"predicate identifier must start uppercase: {name!r}")
    ts.take("(")
    args = [ts.take()]
    while ts.peek() == ",":
        ts.take(",")
        args.append(ts.take())
    ts.take(")")
    for arg in args:
        if not (arg[0].islower() and arg[0].isalpha()):
            raise ClauseParseError(f"term identifier must start lowercase: {arg!r}")
    return Atom.of(name, *args)


def oracle_parse_clause(text: str) -> HornClause:
    """Parse ``H(..) :- B1(..), ... .`` (the body is optional)."""
    ts = _Tokens(_tokenize(text))
    head = _oracle_parse_atom(ts)
    body: list[Atom] = []
    if ts.peek() == ":-":
        ts.take(":-")
        body.append(_oracle_parse_atom(ts))
        while ts.peek() == ",":
            ts.take(",")
            body.append(_oracle_parse_atom(ts))
    ts.take(".")
    if ts.peek() is not None:
        raise ClauseParseError(f"trailing input after clause: {ts.peek()!r}")
    try:
        return HornClause(head, tuple(body))
    except ArityMismatchError as exc:
        raise ClauseParseError(str(exc)) from None


_SOUP = ("P", "Q1", "Ab_2", "x", "y1", "z_", "(", ")", ",", ".", ":-", ":",
         "-", "1", "_", " ", "  ", "\t", "\n", "\x1c", "\u00e9")


def token_soup(rng: random.Random) -> str:
    """Clause-like text: up to 12 random tokens (identifiers of both cases,
    punctuation, digits, ``_``, whitespace including ``\\x1c``, and
    ``\\u00e9``), or up to 2 of them spliced into a valid clause in place of
    up to 2 of its characters."""
    if rng.random() < 0.5:
        return "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 12)))
    valid = "P0(x1,x2) :- P1(x1,x3), P2(x3,x2)."
    cut = rng.randint(0, len(valid))
    return (valid[:cut] + "".join(rng.choice(_SOUP) for _ in range(
        rng.randint(0, 2))) + valid[cut + rng.randint(0, 2):])


def oracle_cut_pending(c: HornClause, body_indices):
    """Pending variables of a cut, counted per side with plain dicts: a
    variable is pending when it occurs on both sides but in one distinct
    literal on at least one of them.  The head stays on side 1."""
    idx = set(body_indices)

    def occurrences(atoms):
        occ = {}
        for atom in atoms:
            for v in set(atom.args):
                occ[v] = occ.get(v, 0) + 1
        return occ

    occ1 = occurrences(([c.head] if c.head is not None else [])
                       + [a for k, a in enumerate(c.body) if k not in idx])
    occ2 = occurrences(c.body[k] for k in sorted(idx))
    return tuple(v for v in c.term_vars()
                 if v in occ1 and v in occ2 and 1 in (occ1[v], occ2[v]))


def oracle_is_connected(c: HornClause) -> bool:
    """Connectivity of the literal graph by breadth-first search over the
    literal pairs that share a variable."""
    lits = c.literals()
    if len(lits) <= 1:
        return True
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in range(len(lits)):
                if w not in seen and set(lits[u].args) & set(lits[w].args):
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(lits)


def oracle_pending_variables(c: HornClause) -> frozenset[str]:
    """Term variables not occurring in at least two distinct literal
    occurrences of ``c`` (the head counts as a literal)."""
    count: dict[str, int] = {}
    for atom in c.literals():
        for v in set(atom.args):
            count[v] = count.get(v, 0) + 1
    return frozenset(v for v, k in count.items() if k < 2)


def oracle_size_ok(spec, c: HornClause) -> bool:
    if c.head is None:
        return False
    if any(not 1 <= a.pred.arity <= spec.max_arity for a in c.literals()):
        return False
    if spec.max_body == 0:
        return c.body_size == 0
    return 1 <= c.body_size <= spec.max_body


def oracle_structural_ok(spec, c: HornClause) -> bool:
    preds = [a.pred for a in c.literals()]
    return (oracle_size_ok(spec, c)
            and not (spec.distinct_predvars and len(set(preds)) != len(preds))
            and not (spec.connected and not oracle_is_connected(c))
            and not (spec.two_connected and oracle_pending_variables(c)))


def single_splits(c: HornClause) -> Iterator[HornClause]:
    """All proper generalizations of ``c`` obtained by one variable or
    predicate split: a strict subset of the occurrences (never the first)
    is renamed fresh.  Every proper generalization of ``c`` within a
    fragment is reachable from one of these, since merging the split back
    never breaks a structural constraint."""
    literals = c.literals()
    has_head = c.head is not None

    def rebuild(atoms: list[Atom]) -> HornClause:
        if has_head:
            return HornClause(atoms[0], tuple(atoms[1:]))
        return HornClause(None, tuple(atoms))

    term_occ: dict[str, list[tuple[int, int]]] = {}
    for li, atom in enumerate(literals):
        for ai, v in enumerate(atom.args):
            term_occ.setdefault(v, []).append((li, ai))
    fresh_term = next(fresh_names("y", set(c.term_vars())))
    for v, occ in term_occ.items():
        if len(occ) < 2:
            continue
        rest = occ[1:]
        for r in range(1, len(rest) + 1):
            for subset in itertools.combinations(rest, r):
                chosen = set(subset)
                atoms = []
                for li, atom in enumerate(literals):
                    args = tuple(
                        fresh_term if (li, ai) in chosen else arg
                        for ai, arg in enumerate(atom.args))
                    atoms.append(Atom(atom.pred, args))
                yield rebuild(atoms)

    pred_occ: dict[PredVar, list[int]] = {}
    for li, atom in enumerate(literals):
        pred_occ.setdefault(atom.pred, []).append(li)
    fresh_pred = next(fresh_names("R", {p.name for p in c.pred_vars()}))
    for p, occ in pred_occ.items():
        if len(occ) < 2:
            continue
        rest = occ[1:]
        for r in range(1, len(rest) + 1):
            for subset in itertools.combinations(rest, r):
                chosen = set(subset)
                atoms = [
                    Atom(PredVar(fresh_pred, p.arity), atom.args)
                    if li in chosen else atom
                    for li, atom in enumerate(literals)]
                yield rebuild(atoms)


def oracle_most_general_in(spec, c: HornClause) -> bool:
    """Most-generality by building every single split and testing it."""
    return not any(oracle_structural_ok(spec, g) for g in single_splits(c))


def oracle_member(spec, c: HornClause) -> bool:
    return oracle_structural_ok(spec, c) and (
        not spec.most_general or oracle_most_general_in(spec, c))


def all_set_partition_strings(n: int):
    """Every restricted growth string of length n (no pruning)."""
    def rec(i, mx, acc):
        if i == n:
            yield tuple(acc)
            return
        for b in range(mx + 1):
            acc.append(b)
            yield from rec(i + 1, mx + 1 if b == mx else mx, acc)
            acc.pop()
    yield from rec(0, 0, [])


def oracle_pred_patterns(spec, arities):
    n = len(arities)
    if spec.distinct_predvars or spec.most_general:
        yield tuple(PredVar(f"P{i}", arities[i]) for i in range(n))
        return
    # all ways to identify equal-arity literals' predicates
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part
    by_arity = {}
    for i, a in enumerate(arities):
        by_arity.setdefault(a, []).append(i)
    for combo in itertools.product(*(partitions(by_arity[a])
                                     for a in sorted(by_arity))):
        blocks = sorted((blk for part in combo for blk in part), key=min)
        assign = {}
        for k, blk in enumerate(blocks):
            for i in blk:
                assign[i] = PredVar(f"P{k}", arities[blk[0]])
        yield tuple(assign[i] for i in range(n))


def oracle_raw_pool(spec):
    """Every set partition of the argument positions under every predicate
    pattern, for every arity profile within the size bounds: no pruning."""
    body_sizes = (0,) if spec.max_body == 0 else range(1, spec.max_body + 1)
    for s in body_sizes:
        for h in range(1, spec.max_arity + 1):
            for body_ar in itertools.combinations_with_replacement(
                    range(1, spec.max_arity + 1), s):
                arities = (h,) + body_ar
                total = sum(arities)
                for rgs in all_set_partition_strings(total):
                    for preds in oracle_pred_patterns(spec, arities):
                        atoms, pos = [], 0
                        for li, a in enumerate(arities):
                            args = tuple(f"x{rgs[pos + k] + 1}" for k in range(a))
                            atoms.append(Atom(preds[li], args))
                            pos += a
                        yield HornClause(atoms[0], tuple(atoms[1:]))


@functools.lru_cache(maxsize=None)
def _raw_classes(max_arity: int, max_body: int, one_pattern: bool
                 ) -> tuple[HornClause, ...]:
    spec = FragmentSpec(max_arity, max_body, distinct_predvars=one_pattern)
    reps: dict = {}
    for c in oracle_raw_pool(spec):
        reps.setdefault(canonical_key(c), c)
    return tuple(reps.values())


def raw_clauses(spec) -> tuple[HornClause, ...]:
    """One clause of each alpha-equivalence class of ``spec``'s raw pool
    (:func:`oracle_raw_pool`), members and non-members alike.  Specs with
    the same size bounds and predicate patterns share the pool."""
    return _raw_classes(spec.max_arity, spec.max_body,
                        spec.distinct_predvars or spec.most_general)


@pytest.fixture(scope="session")
def corpus_c13():
    from hornreduce.fragments import horn_c
    from hornreduce.fragments import enumerate_fragment
    return enumerate_fragment(horn_c(1, 3))


@pytest.fixture(scope="session")
def corpus_c23():
    from hornreduce.fragments import horn_c, enumerate_fragment
    return enumerate_fragment(horn_c(2, 3))


@pytest.fixture(scope="session")
def corpus_c24():
    from hornreduce.fragments import horn_c, enumerate_fragment
    return enumerate_fragment(horn_c(2, 4))


@pytest.fixture(scope="session")
def corpus_2c24():
    from hornreduce.fragments import horn_2c, enumerate_fragment
    return enumerate_fragment(horn_2c(2, 4))


@pytest.fixture(scope="session")
def corpus_c33():
    from hornreduce.fragments import horn_c, enumerate_fragment
    return enumerate_fragment(horn_c(3, 3))
