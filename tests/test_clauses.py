"""Clause algebra: construction, substitutions, mgu, canonical forms,
instance matching, pending variables, parsing."""

import copy
import dataclasses
import functools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import hornreduce.clauses
from hornreduce.clauses import (
    ArityMismatchError,
    Atom,
    ClauseParseError,
    HornClause,
    PredVar,
    Substitution,
    Theory,
    alpha_equivalent,
    apply_substitution,
    canonical,
    canonical_key,
    compose,
    fresh_names,
    is_instance,
    mgu,
    parse_clause,
    parse_theory,
    pending_variables,
    rename_apart,
)

from conftest import (
    c_base,
    c_triadic,
    cl,
    oracle_canonical_key,
    oracle_is_instance,
)


def random_clause(rng: random.Random, max_arity=3, max_body=5) -> HornClause:
    """Small random clause over a shared variable pool (for law checks)."""
    terms = ["a", "b", "c", "d", "e", "f"]
    arities = {"P": rng.randint(1, max_arity), "Q": rng.randint(1, max_arity),
               "R": rng.randint(1, max_arity), "S": rng.randint(1, max_arity)}

    def atom() -> Atom:
        name = rng.choice(list(arities))
        return Atom.of(name, *(rng.choice(terms) for _ in range(arities[name])))

    return HornClause(atom(), tuple(atom() for _ in range(rng.randint(0, max_body))))


def random_atom_pair(rng: random.Random):
    n = rng.randint(1, 4)
    pool = ["a", "b", "c", "d"]
    p = PredVar(rng.choice(["P", "Q"]), n)
    q = PredVar(rng.choice(["P", "Q"]), n)
    return (Atom(p, tuple(rng.choice(pool) for _ in range(n))),
            Atom(q, tuple(rng.choice(pool) for _ in range(n))))


def is_renaming(sub: Substitution) -> bool:
    """True iff both maps are injective (hence invertible on their domain)."""
    return (len(set(sub.pred_map.values())) == len(sub.pred_map)
            and len(set(sub.term_map.values())) == len(sub.term_map))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_atom_arity_checked():
    with pytest.raises(ArityMismatchError):
        Atom(PredVar("P", 2), ("x",))


def test_clause_rejects_mixed_arity_name():
    with pytest.raises(ArityMismatchError):
        HornClause(Atom.of("P", "x"), (Atom.of("P", "x", "y"),))


def test_body_is_multiset():
    c = cl("P(x) :- Q(x), Q(x).")
    assert c.body_size == 2
    assert c.body[0] == c.body[1]


def test_traversal_orders():
    c = c_base()
    assert [p.name for p in c.pred_vars()] == ["P0", "P1", "P2", "P3", "P4", "P5"]
    assert list(c.term_vars()) == ["x1", "x2", "x3", "x4"]
    assert c.max_arity() == 2
    assert c.literals()[0] is c.head


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), first=st.sampled_from([0, 1, 2]))
def test_equal_clauses_hash_equally_whichever_is_hashed_first(seed, first):
    # Two equal clauses built apart; none, one or the other is hashed
    # before the comparison.  The hash is the dataclass hash of the fields.
    c = random_clause(random.Random(seed))
    d = HornClause(c.head, tuple(c.body))
    if first:
        hash((c, d)[first - 1])
    assert hash(c) == hash(d) == hash((c.head, c.body))
    assert c == d and {c: 1}[d] == 1


def _pickled(c, protocol):
    return pickle.loads(pickle.dumps(c, protocol))


@pytest.mark.parametrize("hashed", [False, True], ids=["fresh", "hashed"])
@pytest.mark.parametrize("copier", [
    *(functools.partial(_pickled, protocol=k)
      for k in range(pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy],
    ids=[*(f"pickle{k}" for k in range(pickle.HIGHEST_PROTOCOL + 1)),
         "copy", "deepcopy"])
def test_clause_pickle_and_copy_round_trip(hashed, copier):
    # An unset hash slot must not break the round trip, nor a set one
    # carry over wrongly.
    c = c_base()
    if hashed:
        hash(c)
    d = copier(c)
    assert d == c and repr(d) == repr(c)
    assert hash(d) == hash(c) == hash((c.head, c.body))
    headless = HornClause(None, c.body)
    assert copier(headless) == headless


def test_replace_builds_a_clause_with_its_own_hash():
    c = cl("P(x) :- Q(x), R(x).")
    hash(c)
    d = dataclasses.replace(c, body=c.body[:1])
    assert d == cl("P(x) :- Q(x).")
    assert hash(d) == hash(cl("P(x) :- Q(x).")) == hash((d.head, d.body))
    assert dataclasses.replace(c) == c and hash(dataclasses.replace(c)) == hash(c)
    assert [f.name for f in dataclasses.fields(HornClause)] == ["head", "body"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.body = ()


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

def test_substitution_drops_identity_entries():
    s = Substitution({PredVar("P", 1): PredVar("P", 1)}, {"x": "x", "y": "z"})
    assert s.pred_map == {}
    assert s.term_map == {"y": "z"}


def test_substitution_arity_preserving():
    with pytest.raises(ArityMismatchError):
        Substitution({PredVar("P", 1): PredVar("Q", 2)})


def test_compose_is_apply_then_apply():
    rng = random.Random(7)
    for _ in range(200):
        c = random_clause(rng)
        s1 = Substitution({}, {"a": rng.choice("abc"), "b": rng.choice("abc")})
        s2 = Substitution({}, {"b": rng.choice("abc"), "c": rng.choice("abc")})
        both = apply_substitution(apply_substitution(c, s1), s2)
        assert apply_substitution(c, compose(s1, s2)) == both


# ---------------------------------------------------------------------------
# mgu
# ---------------------------------------------------------------------------

def test_mgu_arity_clash_fails():
    assert mgu(Atom.of("P", "x"), Atom.of("Q", "x", "y")) is None


def test_mgu_unifies_and_is_idempotent():
    rng = random.Random(11)
    for _ in range(2000):
        a, b = random_atom_pair(rng)
        s = mgu(a, b)
        assert s is not None
        assert s.atom(a) == s.atom(b)
        # idempotent: applying twice changes nothing
        assert s.atom(s.atom(a)) == s.atom(a)


def test_mgu_most_general():
    # any other unifier t factors through s: t = s;u for some u
    rng = random.Random(13)
    for _ in range(500):
        a, b = random_atom_pair(rng)
        s = mgu(a, b)
        # collapse everything: a maximally specific unifier
        t = Substitution({p: PredVar("Z", p.arity) for p in {a.pred, b.pred}},
                         {v: "z" for v in set(a.args) | set(b.args)})
        if t.atom(a) != t.atom(b):
            continue
        u = Substitution(
            {s.pred(p): t.pred(p) for p in {a.pred, b.pred}},
            {s.term(v): t.term(v) for v in set(a.args) | set(b.args)},
        )
        assert compose(s, u) == t


def test_mgu_representative_is_left_first():
    s = mgu(Atom.of("P", "u", "v"), Atom.of("Q", "w", "w"))
    assert s is not None
    # classes {u,w,v} merge to u, the first-seen member of the left atom
    assert s.term("w") == "u" and s.term("v") == "u"
    assert s.pred(PredVar("Q", 2)) == PredVar("P", 2)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def test_canonical_matches_exhaustive_oracle():
    rng = random.Random(17)
    for _ in range(300):
        c = random_clause(rng, max_body=5)
        assert canonical_key(c) == oracle_canonical_key(c)


def test_canonical_of_base_clause_is_itself():
    c = c_base()
    assert canonical(c) == (oracle_canonical_key(c), c)


def test_canonical_idempotent_and_invariant():
    rng = random.Random(19)
    for _ in range(300):
        c = random_clause(rng)
        key, canon = canonical(c)
        # the representative is a variant of c: each is a renaming of the other
        assert is_renaming(is_instance(canon, c))
        assert is_renaming(is_instance(c, canon))
        assert canonical(canon) == (key, canon)
        # invariance under shuffling + renaming
        body = list(c.body)
        rng.shuffle(body)
        ren = Substitution(
            {p: PredVar(f"R{i}", p.arity) for i, p in enumerate(c.pred_vars())},
            {v: f"t{i}" for i, v in enumerate(c.term_vars())},
        )
        d = apply_substitution(HornClause(c.head, tuple(body)), ren)
        assert canonical(d) == (key, canon)
        assert alpha_equivalent(c, d)


def test_canonical_numbering_convention():
    c = cl("Head(b,a) :- Right(a), Left(b).")
    _, canon = canonical(c)
    assert canon.head == Atom.of("P0", "x1", "x2")
    assert {p.name for p in canon.pred_vars()} == {"P0", "P1", "P2"}
    assert set(canon.term_vars()) == {"x1", "x2"}


def test_headless_clause_canonicalizes():
    c = HornClause(None, (Atom.of("B", "y"), Atom.of("A", "y", "z")))
    _, canon = canonical(c)
    assert canon.head is None
    assert len(canon.body) == 2
    # headless and headed clauses never compare equal
    assert not alpha_equivalent(c, cl("P(y) :- B(y), A(y,z)."))


def test_equal_clauses_are_alpha_equivalent_without_keys(monkeypatch):
    calls = []
    serialize = hornreduce.clauses._canonical_serialization
    monkeypatch.setattr(hornreduce.clauses, "_canonical_serialization",
                        lambda c: calls.append(c) or serialize(c))
    c = cl("P(x,y) :- Q(x,z), R(z,y).")
    assert alpha_equivalent(c, c)
    assert alpha_equivalent(c, cl("P(x,y) :- Q(x,z), R(z,y)."))
    assert calls == []
    assert alpha_equivalent(c, cl("P(a,b) :- R(c,b), Q(a,c)."))
    assert len(calls) == 2


def symmetric_body(n: int, head: str = "x,y") -> HornClause:
    """``P0(head) :- P1(x,y), ..., Pn(x,y).``: every body atom is
    interchangeable with every other."""
    return cl(f"P0({head}) :- "
              + ", ".join(f"P{i}(x,y)" for i in range(1, n + 1)) + ".")


def random_symmetric_clause(rng: random.Random, max_body=7) -> HornClause:
    """A clause whose body repeats a few argument tuples under unique and
    shared predicates, so ties between interchangeable atoms abound."""
    terms = ["x", "y", "z"][:rng.randint(1, 3)]
    shared = [PredVar(f"Q{i}", 2) for i in range(rng.randint(0, 2))]
    tuples = [tuple(rng.choice(terms) for _ in range(2))
              for _ in range(rng.randint(1, 3))]
    body = []
    for i in range(rng.randint(1, max_body)):
        pred = rng.choice(shared) if shared and rng.random() < 0.4 \
            else PredVar(f"P{i + 1}", 2)
        body.append(Atom(pred, rng.choice(tuples)))
    head_pred = rng.choice(shared) if shared and rng.random() < 0.2 \
        else PredVar("P0", 2)
    return HornClause(Atom(head_pred, rng.choice(tuples)), tuple(body))


@pytest.mark.parametrize("c", [
    symmetric_body(7),
    symmetric_body(6, "y,x"),
    symmetric_body(5, "x,x"),
    cl("P0(x,y) :- P1(x,y), P2(y,x), P3(x,y), P4(y,x), P5(x,y), P6(y,x)."),
    cl("P0(x,y) :- Q(x,y), Q(x,y), P1(x,y), P2(x,y), P3(y,x), P4(x,y)."),
    cl("P0(x,y) :- Q(x,y), P1(x,y), Q(y,x), P2(y,x), P3(x,z), P4(x,z)."),
    cl("Q(x,y) :- Q(x,y), P1(x,y), P2(x,y), P3(y,y), P4(y,y), P5(y,y)."),
], ids=["seven", "six-swapped-head", "five-diagonal-head", "two-orbits",
        "shared-and-unique", "mixed", "head-predicate-in-body"])
def test_canonical_matches_oracle_on_symmetric_bodies(c):
    assert canonical_key(c) == oracle_canonical_key(c)


def test_canonical_matches_oracle_on_random_symmetric_clauses():
    rng = random.Random(23)
    for _ in range(60):
        c = random_symmetric_clause(rng)
        assert canonical_key(c) == oracle_canonical_key(c)


def test_symmetric_body_canonicalizes_without_branching(monkeypatch):
    # n interchangeable atoms once cost n! serialization leaves; one branch
    # per orbit keeps the tentative atom keys quadratic in n.
    calls = []
    atom_key = hornreduce.clauses._atom_key
    monkeypatch.setattr(hornreduce.clauses, "_atom_key",
                        lambda *a: calls.append(1) or atom_key(*a))
    c = symmetric_body(12)
    key = canonical_key(c)
    assert len(calls) == 79
    assert key == (True, ((0, 1, 2),) + tuple((i, 1, 2) for i in range(1, 13)))
    assert str(canonical(c)[1]) == str(c).replace("x,y", "x1,x2")


def test_canonical_is_key_and_representative_at_once():
    rng = random.Random(29)
    for _ in range(100):
        c = random_clause(rng)
        key, canon = canonical(c)
        assert key == canonical_key(c) == canonical_key(canon)
        assert alpha_equivalent(c, canon)


def test_duplicate_body_atoms_preserved():
    c = cl("P(x) :- Q(x), Q(x), R(x).")
    _, canon = canonical(c)
    assert canon.body_size == 3
    assert len(set(canon.body)) == 2


# ---------------------------------------------------------------------------
# Instance matching
# ---------------------------------------------------------------------------

def test_is_instance_via_substitution():
    d = cl("P(x,y) :- Q(x,z), R(z,y).")
    c = cl("A(u,u) :- B(u,w), C(w,u).")
    s = is_instance(c, d)
    assert s is not None
    assert alpha_equivalent(apply_substitution(d, s), c)
    assert apply_substitution(d, s).head == c.head


def test_is_instance_non_injective():
    d = cl("P(x) :- Q(x,y).")
    c = HornClause(Atom.of("A", "u"), (Atom.of("B", "u", "u"),))
    s = is_instance(c, d)
    assert s is not None
    assert s.term("y") == "u"


def test_is_instance_respects_multiset_size():
    assert is_instance(cl("P(x) :- Q(x)."), cl("P(x) :- Q(x), Q(x).")) is None
    assert is_instance(cl("P(x) :- Q(x), Q(x)."), cl("P(x) :- Q(x).")) is None


def test_is_instance_duplicates_match_duplicates():
    d = cl("P(x) :- Q(x,y), Q(x,z).")
    c = cl("P(x) :- Q(x,y), Q(x,y).")
    s = is_instance(c, d)
    assert s is not None
    # reverse direction fails: c cannot produce two distinct second args
    assert is_instance(d, c) is None


def test_is_instance_requires_same_shape():
    assert is_instance(HornClause(None, (Atom.of("Q", "x"),)), cl("P(x) :- Q(x).")) is None


def test_instance_of_generalization_everywhere():
    rng = random.Random(23)
    for _ in range(300):
        c = random_clause(rng)
        s = Substitution({}, {"a": "b", "c": "d"})
        inst = apply_substitution(c, s)
        assert is_instance(inst, c) is not None


@st.composite
def match_clauses(draw) -> HornClause:
    """A clause of arity at most 3 and at most six body atoms, half of them
    headless: random atoms whose predicate ``P`` or ``R`` is suffixed with
    the arity, so predicates and arguments repeat; or a symmetric line
    ``L1(args), ..., Ln(args)``, its last atom sometimes ``M`` with the
    arguments reversed."""
    head = draw(st.booleans())
    if draw(st.booleans()):
        atom = st.tuples(st.sampled_from("PR"), st.lists(
            st.sampled_from("xyzu"), min_size=1, max_size=3)).map(
            lambda t: Atom.of(f"{t[0]}{len(t[1])}", *t[1]))
        return HornClause(draw(atom) if head else None,
                          tuple(draw(st.lists(atom, max_size=6))))
    args = draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3))
    body = [Atom.of(f"L{k}", *args) for k in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        body[-1] = Atom.of("M", *reversed(args))
    return HornClause(Atom.of("H", *args) if head else None, tuple(body))


@st.composite
def random_instance(draw, d: HornClause) -> HornClause:
    """``d`` under a random substitution, body shuffled: the predicates of
    each arity merge or stay apart, the terms map into a small pool."""
    preds = {p: PredVar(draw(st.sampled_from("ABP")) + str(p.arity), p.arity)
             for p in d.pred_vars()}
    terms = {v: draw(st.sampled_from("xyzab")) for v in d.term_vars()}
    c = apply_substitution(d, Substitution(preds, terms))
    return HornClause(c.head, tuple(draw(st.permutations(c.body))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_is_instance_finds_the_oracle_substitution(data):
    # The same first substitution as trying c's body orders one by one,
    # not just the same verdict, so skipping orbit-mates moves no hit.
    d = data.draw(match_clauses())
    c = data.draw(random_instance(d) if data.draw(st.booleans())
                  else match_clauses())
    assert is_instance(c, d) == oracle_is_instance(c, d)
    assert is_instance(d, c) == oracle_is_instance(d, c)
    assert canonical_key(c) == oracle_canonical_key(c)


@pytest.mark.parametrize("last, found", [("M24(y,x)", False),
                                         ("M24(x,z)", True)])
def test_symmetric_match_skips_orbit_mates(monkeypatch, last, found):
    # Failing against 24 interchangeable atoms once tried every order of
    # them; skipping the orbit-mates of a failed candidate leaves one
    # failed subtree per level.  A count, not a time.
    calls = []
    rollback = hornreduce.clauses._rollback
    monkeypatch.setattr(hornreduce.clauses, "_rollback",
                        lambda *a: calls.append(1) or rollback(*a))
    line = [f"L{k}(x,y)" for k in range(1, 25)]
    c = cl(f"H(x,y) :- {', '.join(line)}.")
    d = cl(f"H(x,y) :- {', '.join(line[:-1] + [last])}.")
    sigma = is_instance(c, d)
    if found:
        assert sigma == Substitution({PredVar("M24", 2): PredVar("L24", 2)},
                                     {"z": "y"})
    else:
        assert sigma is None
    assert len(calls) <= 25  # 24 when failing, 0 when found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c=match_clauses())
def test_canonical_key_matches_the_oracle_on_repeats_and_lines(c):
    # Repeated names and atoms, headless clauses, symmetric lines.
    assert canonical_key(c) == oracle_canonical_key(c)


def test_tie_free_clause_builds_no_orbits(monkeypatch):
    # Orbit labels are built at the first tie; no level of c ties.
    calls = []
    orbits = hornreduce.clauses._orbits
    monkeypatch.setattr(hornreduce.clauses, "_orbits",
                        lambda c: calls.append(c) or orbits(c))
    c = cl("P0(x,y) :- P1(x,z), P2(z,y), P3(y,u), P4(u,x).")
    assert canonical_key(c) == oracle_canonical_key(c)
    assert calls == []
    canonical_key(symmetric_body(3))
    assert len(calls) == 1


def open_chain(n: int) -> HornClause:
    """``P0(x0) :- P1(x0,x1), ..., P{n-1}(x{n-2},x{n-1}).``"""
    return cl("P0(x0) :- " + ", ".join(f"P{i}(x{i - 1},x{i})"
                                       for i in range(1, n)) + ".")


def test_thousand_atom_chain_keys_like_its_renamed_shuffle():
    # No Python frame per body atom: a clause of 999 body atoms is keyed.
    c = open_chain(1000)
    body = list(c.body)
    random.Random(37).shuffle(body)
    ren = Substitution(
        {p: PredVar(f"R{i}", p.arity) for i, p in enumerate(c.pred_vars())},
        {v: f"t{i}" for i, v in enumerate(c.term_vars())})
    d = apply_substitution(HornClause(c.head, tuple(body)), ren)
    key = canonical_key(d)
    assert key == canonical_key(c)
    assert key == (True, ((0, 1),) + tuple((i, i, i + 1)
                                           for i in range(1, 1000)))


# ---------------------------------------------------------------------------
# Pending variables
# ---------------------------------------------------------------------------

def test_pending_variables_base_clause_empty():
    assert pending_variables(c_base()) == frozenset()


def test_pending_variables_counts_head():
    assert pending_variables(cl("P(x,y) :- Q(x).")) == frozenset({"y"})


def test_pending_variables_duplicate_atoms_count_twice():
    # the duplicated body atom gives y two literal occurrences; x has only one
    c = cl("P(x) :- Q(y), Q(y).")
    assert pending_variables(c) == frozenset({"x"})


def test_pending_variables_within_one_literal():
    # twice in the same literal is still a single occurrence
    assert pending_variables(cl("P(x) :- Q(y,y).")) == frozenset({"x", "y"})


def test_pending_variables_triadic_pairs():
    # dropping any literal pair of the triadic clause leaves four pending vars
    c = c_triadic()
    rest = HornClause(None, tuple(c.body[1:]))
    assert pending_variables(HornClause(None, (c.body[1], c.body[2]))) == frozenset(
        {"x2", "x3", "x4", "x5"})


# ---------------------------------------------------------------------------
# rename_apart
# ---------------------------------------------------------------------------

def test_rename_apart_fresh_and_equivalent():
    c = c_base()
    d, sub = rename_apart(c, avoid_terms={"v1"}, avoid_preds={"Q1"})
    assert alpha_equivalent(c, d)
    assert set(d.term_vars()).isdisjoint(set(c.term_vars()) | {"v1"})
    assert {p.name for p in d.pred_vars()}.isdisjoint(
        {p.name for p in c.pred_vars()} | {"Q1"})
    assert apply_substitution(c, sub) == d
    assert is_renaming(sub)


def test_rename_apart_deterministic():
    c = c_base()
    assert rename_apart(c)[0] == rename_apart(c)[0]


def reference_rename_apart(c, avoid_terms=(), avoid_preds=()):
    """``rename_apart`` read plainly: each variable list is read twice."""
    avoid_t = set(avoid_terms) | set(c.term_vars())
    avoid_p = set(avoid_preds) | {p.name for p in c.pred_vars()}
    terms = fresh_names("v", avoid_t)
    preds = fresh_names("Q", avoid_p)
    sub = Substitution(
        {p: PredVar(next(preds), p.arity) for p in c.pred_vars()},
        {v: next(terms) for v in c.term_vars()},
    )
    return apply_substitution(c, sub), sub


def test_rename_apart_matches_the_reference_on_random_clauses():
    # names the renaming draws (v<i>, Q<i>) occur in the clauses and in the
    # avoid sets; predicate names and atoms repeat, some clauses are headless
    rng = random.Random(25)
    terms = ["x", "y", "v1", "v2", "v4"]
    for _ in range(1000):
        arity = {name: rng.randint(1, 3) for name in ["P", "Q1", "Q2", "R"]}

        def atom():
            name = rng.choice(list(arity))
            return Atom.of(name, *(rng.choice(terms)
                                   for _ in range(arity[name])))

        body = [atom() for _ in range(rng.randint(0, 4))]
        if body and rng.random() < 0.3:
            body.append(rng.choice(body))
        c = HornClause(atom() if rng.random() < 0.8 else None, tuple(body))
        avoid_t = rng.sample(["v1", "v3", "x", "w"], rng.randint(0, 3))
        avoid_p = rng.sample(["Q1", "Q3", "P"], rng.randint(0, 2))
        got, sub = rename_apart(c, iter(avoid_t), iter(avoid_p))
        want, ref = reference_rename_apart(c, avoid_t, avoid_p)
        assert got == want
        assert list(sub.pred_map.items()) == list(ref.pred_map.items())
        assert list(sub.term_map.items()) == list(ref.term_map.items())


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    for text in [
        "P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), P4(x2,x4), P5(x3,x4).",
        "P(x).",
        "Reach(a,b) :- Edge(a,c), Reach(c,b).",
    ]:
        c = parse_clause(text)
        assert parse_clause(c.text()) == c


def test_parse_whitespace_insensitive():
    assert parse_clause("P( x , y ):-Q( x ).") == cl("P(x,y) :- Q(x).")


def test_parse_errors():
    for bad in ["p(x).", "P(X).", "P(x) :- .", "P(x)", "P(x). Q(y).",
                "P(x,y) :- P(x).", "P(x) :- Q(x,.", ""]:
        with pytest.raises(ClauseParseError):
            parse_clause(bad)


def test_parse_theory_lines_and_comments():
    text = """
    # leading comment
    P(x) :- Q(x).   # trailing comment

    Q(x) :- R(x).
    """
    got = parse_theory(text)
    assert got == [cl("P(x) :- Q(x)."), cl("Q(x) :- R(x).")]


def test_parse_theory_reports_line():
    with pytest.raises(ClauseParseError, match="line 2"):
        parse_theory("P(x) :- Q(x).\nP(x) :- q(x).")


def test_text_requires_head():
    with pytest.raises(ValueError):
        HornClause(None, (Atom.of("P", "x"),)).text()


# ---------------------------------------------------------------------------
# Theory
# ---------------------------------------------------------------------------

def test_theory_dedups_by_alpha_equivalence():
    # note all unary chain rules are alpha-equivalent: predicates are variables
    t = Theory([cl("P(x) :- Q(x)."), cl("A(y) :- B(y), C(y)."), cl("P(u) :- Q(u).")])
    assert len(t) == 2
    assert cl("Z(k) :- W(k).") in t
    assert cl("Z(k) :- W(k), W(k).") not in t


def test_theory_without():
    t = Theory([cl("P(x) :- Q(x)."), cl("P(x) :- Q(x), R(x).")])
    t2 = t.without(cl("A(y) :- B(y)."))
    assert len(t2) == 1
    assert cl("P(x) :- Q(x), R(x).") in t2


def test_theory_find_returns_stored_variant():
    stored = cl("P(x) :- Q(x), R(x).")
    t = Theory([cl("P(x) :- Q(x)."), stored])
    assert t.find(cl("A(k) :- C(k), B(k).")) is stored
    assert t.find(cl("A(k) :- B(k), B(k), B(k).")) is None
    assert list(t) == [cl("P(x) :- Q(x)."), stored]


@pytest.mark.parametrize("size", [3, 60])
def test_theory_queries_canonicalize_only_their_argument(monkeypatch, size):
    t = Theory(symmetric_body(n) for n in range(1, size + 1))
    calls = []
    serialize = hornreduce.clauses._canonical_serialization
    monkeypatch.setattr(hornreduce.clauses, "_canonical_serialization",
                        lambda c: calls.append(c) or serialize(c))
    probe = symmetric_body(2)
    rest = t.without(probe)
    members = list(t)
    assert (len(calls), len(rest), list(rest)[:1]) == (1, size - 1, members[:1])
    assert probe in t and len(calls) == 2
    assert t.find(probe) is members[1] and len(calls) == 3


def test_theory_accepts_clause_local_names():
    # Predicate names are clause-local variables: canonical enumerations
    # reuse the same name at different arities across clauses.
    t = Theory([cl("P(x) :- Q(x)."), cl("R(x) :- Q(x,y), S(x,y).")])
    assert len(t) == 2


def test_parse_theory_rejects_mixed_arity_names():
    with pytest.raises(ArityMismatchError):
        parse_theory("P(x) :- Q(x).\nR(x) :- Q(x,y).\n")
