"""Fragment membership and enumeration against a brute-force oracle."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hornreduce import fragments
from hornreduce.clauses import (
    Atom,
    HornClause,
    PredVar,
    alpha_equivalent,
    canonical,
    canonical_key,
    is_instance,
    pending_variables,
)
from hornreduce.fragments import (
    FragmentSpec,
    count_fragment,
    enumerate_fragment,
    horn,
    horn_2c,
    horn_c,
    member,
    most_general_in,
)
from hornreduce.graphs import is_connected

from conftest import (
    c_base,
    c_triadic,
    cl,
    oracle_canonical_key,
    oracle_is_connected,
    oracle_member,
    oracle_pending_variables,
    oracle_raw_pool,
    oracle_structural_ok,
    single_splits,
    oracle_most_general_in,
    raw_clauses,
)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def oracle_structural_pool(spec):
    """All structurally valid clauses (most-generality not yet applied)."""
    out = {}
    for c in oracle_raw_pool(spec):
        if spec.connected and not oracle_is_connected(c):
            continue
        if spec.two_connected and oracle_pending_variables(c):
            continue
        key, canon = canonical(c)
        out.setdefault(key, canon)
    return list(out.values())


def oracle_enumerate(spec):
    """Independent enumeration: most-generality by pairwise instance checks
    against the structurally valid pool, not by split search."""
    pool = oracle_structural_pool(spec)
    if not spec.most_general:
        return {canonical_key(c) for c in pool}
    keep = set()
    for c in pool:
        proper = any(
            is_instance(c, d) is not None and not alpha_equivalent(c, d)
            for d in pool)
        if not proper:
            keep.add(canonical_key(c))
    return keep


ORACLE_SPECS = [
    horn(1, 2),
    horn(2, 2),
    horn_c(1, 3),
    horn_c(2, 2),
    horn_2c(2, 2),
    horn_2c(2, 3),
    FragmentSpec(2, 2, connected=True),
    FragmentSpec(1, 2),
    FragmentSpec(2, 2, connected=True, two_connected=True),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: repr(s)[13:60])
def test_enumeration_matches_oracle(spec):
    got = {canonical_key(c) for c in enumerate_fragment(spec)}
    assert got == oracle_enumerate(spec)


# Specs the golden file lacks: two-connected without connected, and
# most-general without distinct predicates.
BRUTE_SPECS = [
    FragmentSpec(2, 2, two_connected=True),
    FragmentSpec(2, 3, two_connected=True, distinct_predvars=True,
                 most_general=True),
    FragmentSpec(3, 1, two_connected=True, most_general=True),
    FragmentSpec(2, 2, most_general=True),
    FragmentSpec(2, 2, connected=True, most_general=True),
    FragmentSpec(1, 3, most_general=True),
    FragmentSpec(1, 3, connected=True, two_connected=True,
                 most_general=True),
    FragmentSpec(2, 2, two_connected=True, distinct_predvars=True),
]


@pytest.mark.parametrize("spec", BRUTE_SPECS, ids=lambda s: repr(s)[13:60])
def test_enumeration_matches_brute_force(spec):
    """Every set partition under every predicate pattern, kept by the
    split-building membership oracle and keyed by the permutation-minimizing
    oracle key."""
    want = {oracle_canonical_key(c) for c in oracle_raw_pool(spec)
            if oracle_member(spec, c)}
    assert {oracle_canonical_key(c) for c in enumerate_fragment(spec)} == want


# ---------------------------------------------------------------------------
# Known members
# ---------------------------------------------------------------------------

def test_smallest_connected_fragment_is_one_rule():
    assert enumerate_fragment(horn_c(1, 1)) == (cl("P0(x1) :- P1(x1)."),)


def test_fact_fragment():
    assert enumerate_fragment(horn(2, 0)) == (cl("P0(x1)."), cl("P0(x1,x2)."))
    assert count_fragment(horn(2, 0)) == 2


def test_unary_connected_chains():
    got = enumerate_fragment(horn_c(1, 3))
    assert got == (
        cl("P0(x1) :- P1(x1)."),
        cl("P0(x1) :- P1(x1), P2(x1)."),
        cl("P0(x1) :- P1(x1), P2(x1), P3(x1)."),
    )


def test_two_connected_body_one_members():
    # P0(x1,x1) :- P1(x1) is most general here: every split leaves a variable
    # in a single literal, violating two-connectedness
    got = set(enumerate_fragment(horn_2c(2, 1)))
    assert got == {
        cl("P0(x1) :- P1(x1)."),
        cl("P0(x1) :- P1(x1,x1)."),
        cl("P0(x1,x1) :- P1(x1)."),
        cl("P0(x1,x2) :- P1(x1,x2)."),
        cl("P0(x1,x2) :- P1(x2,x1)."),
    }


def test_base_clause_membership():
    c = c_base()
    assert member(horn_2c(2, 5), c)
    assert not member(horn_c(2, 5), c)  # a split keeps connectivity there
    assert not member(horn_2c(2, 4), c)  # body too large


def test_triadic_clause_membership():
    c = c_triadic()
    assert member(horn_2c(3, 3), c)
    assert member(horn_2c(3, 4), c)
    assert not member(horn_2c(2, 3), c)


def test_member_rejects_non_definite_and_oversize():
    assert not member(horn_c(2, 2), HornClause(None, (Atom.of("P", "x"),)))
    assert not member(horn_c(2, 2), cl("P(x)."))  # facts need max_body == 0
    assert not member(horn_c(1, 2), cl("P(x) :- Q(x,y)."))


def test_member_distinct_predvars():
    spec = FragmentSpec(1, 2, distinct_predvars=True)
    assert not member(spec, cl("P(x) :- P(x)."))
    assert member(spec, cl("P(x) :- Q(x)."))


def test_member_agrees_with_enumeration():
    for spec in [horn_c(2, 2), horn_2c(2, 2), horn(1, 2),
                 FragmentSpec(2, 2, connected=True)]:
        listed = {canonical_key(c) for c in enumerate_fragment(spec)}
        pool = oracle_structural_pool(
            FragmentSpec(spec.max_arity, spec.max_body))
        for c in pool:
            assert (canonical_key(c) in listed) == member(spec, c), c


# ---------------------------------------------------------------------------
# Most-generality and splits
# ---------------------------------------------------------------------------

def test_single_splits_are_proper_generalizations():
    for c in [c_base(), c_triadic(), cl("P(x) :- Q(x), Q(x).")]:
        for g in single_splits(c):
            assert is_instance(c, g) is not None
            assert not alpha_equivalent(c, g)


def test_split_count_for_var_with_three_occurrences():
    # x has occurrences in three literals: 2^2 - 1 = 3 term splits, no pred splits
    c = cl("P(x) :- Q(x), R(x).")
    assert sum(1 for _ in single_splits(c)) == 3


def test_pred_split_generated():
    c = cl("P(x) :- Q(x), Q(x).")
    gens = list(single_splits(c))
    assert any(len({a.pred.name for a in g.body}) == 2 for g in gens)


def test_most_general_examples():
    assert most_general_in(horn_c(2, 2), cl("P0(x1,x2) :- P1(x1,x3), P2(x4,x2)."))
    # the 2-chain is NOT most general in the connected fragment: splitting the
    # middle variable keeps the clause connected through the head
    assert not most_general_in(horn_c(2, 2), cl("P0(x1,x2) :- P1(x1,x3), P2(x3,x2)."))
    assert most_general_in(horn_2c(2, 1), cl("P0(x1,x2) :- P1(x1,x2)."))
    assert not most_general_in(horn_2c(2, 1), cl("P0(x1,x1) :- P1(x1,x1)."))


def test_covering_property():
    # every structurally valid clause is an instance of a most-general member
    for spec in [horn_c(2, 2), horn_2c(2, 2), horn(1, 2)]:
        members = enumerate_fragment(spec)
        for c in oracle_structural_pool(spec):
            assert any(is_instance(c, d) is not None for d in members), c


# ---------------------------------------------------------------------------
# Enumeration hygiene
# ---------------------------------------------------------------------------

def test_enumeration_is_canonical_and_sorted():
    for spec in [horn_c(2, 3), horn_2c(2, 3)]:
        got = enumerate_fragment(spec)
        assert len({canonical_key(c) for c in got}) == len(got)
        assert all(canonical(c)[1] == c for c in got)
        sizes = [c.body_size for c in got]
        assert sizes == sorted(sizes)


def test_enumeration_deterministic_and_cached():
    a = enumerate_fragment(horn_c(2, 2))
    b = enumerate_fragment(horn_c(2, 2))
    assert a is b  # cached
    assert a == tuple(enumerate_fragment(FragmentSpec(
        2, 2, connected=True, distinct_predvars=True, most_general=True)))


def test_spec_validation():
    with pytest.raises(ValueError):
        FragmentSpec(0, 2)
    with pytest.raises(ValueError):
        FragmentSpec(1, -1)


def test_every_enumerated_clause_is_member():
    for spec in [horn_c(2, 3), horn_2c(2, 3), horn(2, 2)]:
        for c in enumerate_fragment(spec):
            assert member(spec, c)


# ---------------------------------------------------------------------------
# Mask verdicts against the split-building oracles
# ---------------------------------------------------------------------------

def verdicts_match_oracles(spec, c):
    assert is_connected(c) == oracle_is_connected(c), c
    assert pending_variables(c) == oracle_pending_variables(c), c
    assert most_general_in(spec, c) == oracle_most_general_in(spec, c), (spec, c)
    assert member(spec, c) == oracle_member(spec, c), (spec, c)


RAW_SPECS = {
    "horn_c(2,4)": horn_c(2, 4),
    "horn_2c(2,4)": horn_2c(2, 4),
    "horn(2,3)": horn(2, 3),
    "plain(2,2)": FragmentSpec(2, 2),
}


@pytest.mark.parametrize("name", RAW_SPECS)
def test_mask_verdicts_match_oracles_on_raw_clauses(name):
    """One clause of each class of every set partition under every
    predicate pattern, members and non-members alike."""
    spec = RAW_SPECS[name]
    for c in raw_clauses(spec):
        verdicts_match_oracles(spec, c)


@pytest.mark.parametrize("name", RAW_SPECS)
def test_assignment_search_hands_out_members_only(name):
    """Every clause built from an assignment the search hands its leaf is
    a member by the split-building oracle: the search decides membership."""
    spec = RAW_SPECS[name]
    built = []
    for arities in fragments._arity_profiles(spec):
        patterns = tuple(fragments._pred_patterns(spec, arities))
        bounds = list(itertools.pairwise(
            itertools.accumulate(arities, initial=0)))

        def check(assign):
            args = [tuple(f"x{b + 1}" for b in assign[i:j]) for i, j in bounds]
            for preds in patterns:
                head, *body = map(Atom, preds, args)
                c = HornClause(head, tuple(body))
                assert oracle_member(spec, c), (spec, c)
                built.append(c)

        fragments._variable_assignments(spec, arities, check)
    assert built


@st.composite
def mixed_clauses(draw):
    """Headless or definite clauses of up to five body atoms over three
    variables: predicates repeat (the name carries the arity), variables
    repeat within an atom, and arities run from 1 to 3."""
    atom = st.builds(
        lambda name, args: Atom.of(f"{name}{len(args)}", *args),
        st.sampled_from("PQ"),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
    body = draw(st.lists(atom, max_size=5))
    return HornClause(draw(st.none() | atom), tuple(body))


@settings(max_examples=600, deadline=None, derandomize=True)
@example(cl("P1(a) :- P1(b)."), FragmentSpec(1, 1, connected=True))
@given(mixed_clauses(),
       st.builds(FragmentSpec, st.integers(1, 3), st.integers(0, 4),
                 st.booleans(), st.booleans(), st.booleans(), st.booleans()))
def test_mask_verdicts_match_oracles_on_random_clauses(c, spec):
    verdicts_match_oracles(spec, c)


def incidence_tree(c: HornClause) -> bool:
    """No literal repeats a variable, and the graph joining each literal to
    its variables is a tree: connected, with one edge fewer than nodes."""
    lits = c.literals()
    if any(len(set(a.args)) < len(a.args) for a in lits):
        return False
    edges = sum(len(a.args) for a in lits)
    return oracle_is_connected(c) and \
        edges == len(lits) + len(c.term_vars()) - 1


@st.composite
def tree_rule_cases(draw):
    """A clause of up to four body atoms over four variables, arities 1 to
    3, whose predicates mostly differ, and a connected most-general spec
    that is not two-connected."""
    atom = st.builds(
        lambda name, args: Atom.of(f"{name}{len(args)}", *args),
        st.sampled_from("PQRSTU"),
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=3))
    c = HornClause(draw(atom), tuple(draw(st.lists(atom, max_size=4))))
    spec = FragmentSpec(draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                        connected=True, distinct_predvars=draw(st.booleans()),
                        most_general=True)
    return c, spec


@settings(max_examples=500, deadline=None, derandomize=True)
@given(tree_rule_cases())
def test_connected_most_general_members_are_literal_variable_trees(case):
    # The rule behind enumeration's tree prune: in these specs a clause is
    # a member iff it passes the structural tests, repeats no predicate
    # and its literal-variable graph is a tree.  Enumeration, which prunes
    # every assignment that is no such tree, still lists every member.
    c, spec = case
    preds = [a.pred for a in c.literals()]
    tree = oracle_structural_ok(spec, c) and incidence_tree(c) and \
        len(set(preds)) == len(preds)
    assert oracle_member(spec, c) == tree, (spec, c)
    if tree and spec.max_arity * spec.max_body < 9:
        keys = {canonical_key(m) for m in enumerate_fragment(spec)}
        assert canonical_key(c) in keys, (spec, c)


@st.composite
def lone_rule_cases(draw):
    """A clause of up to four body atoms over six variables, arities 1 to
    3, whose predicates mostly differ, and an unconnected most-general
    spec that is not two-connected."""
    atom = st.builds(
        lambda name, args: Atom.of(f"{name}{len(args)}", *args),
        st.sampled_from("PQRSTU"),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3))
    c = HornClause(draw(atom), tuple(draw(st.lists(atom, max_size=4))))
    spec = FragmentSpec(draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                        distinct_predvars=draw(st.booleans()),
                        most_general=True)
    return c, spec


@settings(max_examples=500, deadline=None, derandomize=True)
@given(lone_rule_cases())
def test_unconnected_most_general_members_use_each_variable_once(case):
    # The rule behind enumeration's lone prune: in these specs a clause is
    # a member iff it passes the structural tests, repeats no predicate
    # and no variable occurs twice.  Enumeration, which hands out only
    # assignments that reuse no block, still lists every member.
    c, spec = case
    preds = [a.pred for a in c.literals()]
    args = [v for a in c.literals() for v in a.args]
    lone = oracle_structural_ok(spec, c) and \
        len(set(preds)) == len(preds) and len(set(args)) == len(args)
    assert oracle_member(spec, c) == lone, (spec, c)
    if lone:
        keys = {canonical_key(m) for m in enumerate_fragment(spec)}
        assert canonical_key(c) in keys, (spec, c)


def test_enumeration_builds_one_clause_per_lone_assignment(monkeypatch):
    """horn(3,2) has one member per arity profile, 27, and a cold
    enumeration builds each once and spells its representative once."""
    built = []
    check = HornClause.__post_init__
    monkeypatch.setattr(HornClause, "__post_init__",
                        lambda c: built.append(c) or check(c))
    got = enumerate_fragment.__wrapped__(horn(3, 2))
    assert len(got) == 27
    assert len(built) <= 2 * 27


def test_enumeration_confirms_every_member(monkeypatch):
    """Tree and lone members are confirmed by most_general_in, one call per
    member assignment (horn_c(2,3) has 370), and the search hands out only
    members, so the confirm never rejects one."""
    verdicts = []
    confirm = fragments.most_general_in
    monkeypatch.setattr(fragments, "most_general_in",
                        lambda spec, c: verdicts.append(confirm(spec, c))
                        or verdicts[-1])
    got = enumerate_fragment.__wrapped__(horn_c(2, 3))
    assert len(verdicts) == 370
    assert got == enumerate_fragment(horn_c(2, 3))
    for spec in [horn(2, 3),
                 FragmentSpec(2, 2, connected=True, most_general=True)]:
        got = enumerate_fragment.__wrapped__(spec)
        assert got == enumerate_fragment(spec)
    assert len(verdicts) > 370 and all(verdicts)


@pytest.mark.parametrize("spec", [
    horn_2c(2, 3), FragmentSpec(3, 1, two_connected=True, most_general=True)])
def test_two_connected_enumeration_confirms_nothing(monkeypatch, spec):
    """The search already ran _most_general on each two-connected member
    assignment, so enumeration makes no most_general_in call; every member
    it lists passes one afterwards."""
    calls = []
    confirm = fragments.most_general_in
    monkeypatch.setattr(fragments, "most_general_in",
                        lambda spec, c: calls.append(c) or confirm(spec, c))
    got = enumerate_fragment.__wrapped__(spec)
    assert calls == []
    assert got and all(confirm(spec, c) for c in got)
    assert got == enumerate_fragment(spec)


def test_enumeration_canonicalizes_only_survivors(monkeypatch):
    """A cold horn_c(2,3) enumeration keys the 370 variable assignments
    the search hands out as members, not all 831 connected ones, and
    builds a clause only for those and for the 282 members'
    representatives, not for all 2,189 assignments."""
    calls, built = [], []
    key = fragments.canonical_key
    monkeypatch.setattr(fragments, "canonical_key",
                        lambda c: calls.append(c) or key(c))
    check = HornClause.__post_init__
    monkeypatch.setattr(HornClause, "__post_init__",
                        lambda c: built.append(c) or check(c))
    got = enumerate_fragment.__wrapped__(horn_c(2, 3))
    assert len(calls) == 370
    assert len(built) <= 370 + 282
    assert got == enumerate_fragment(horn_c(2, 3))


CONNECTED_23 = FragmentSpec(2, 3, connected=True, distinct_predvars=True)


@pytest.mark.parametrize("spec", [CONNECTED_23, horn_c(2, 3), horn_2c(2, 3)],
                         ids=["connected", "horn_c", "horn_2c"])
def test_enumerated_members_share_their_atoms(spec):
    """One enumeration spells each atom value once, so its members hold as
    many atom objects as atom values."""
    got = enumerate_fragment.__wrapped__(spec)
    atoms = [a for c in got for a in c.literals()]
    assert len({id(a) for a in atoms}) == len(set(atoms))


def test_enumeration_builds_each_atom_once_per_profile(monkeypatch):
    """A cold connected (2,3) enumeration builds 1,033 members from 61
    atom values: its assignments take their atoms from a table per arity
    profile and its representatives from one table, 321 atoms in all
    (building every literal of every clause makes 8,689)."""
    built = []
    check = Atom.__post_init__
    monkeypatch.setattr(Atom, "__post_init__",
                        lambda a: built.append(a) or check(a))
    got = enumerate_fragment.__wrapped__(CONNECTED_23)
    assert len(got) == 1033
    assert len(built) <= 321
    monkeypatch.undo()
    assert got == enumerate_fragment(CONNECTED_23)


# ---------------------------------------------------------------------------
# Frozen enumerations
# ---------------------------------------------------------------------------

GOLDEN = json.loads((Path(__file__).parent / "data" / "enumeration_golden.json")
                    .read_text())["fragments"]


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: entry["id"])
def test_enumeration_matches_golden(entry, request):
    spec = FragmentSpec(**entry["spec"])
    # horn_c(3,3) comes from the shared session corpus, so it is enumerated
    # once per run
    members = (request.getfixturevalue("corpus_c33") if spec == horn_c(3, 3)
               else enumerate_fragment(spec))
    text = "".join(c.text() + "\n" for c in members)
    assert len(members) == entry["count"]
    assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]
