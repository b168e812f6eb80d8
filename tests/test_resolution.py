"""Resolution steps, proof replay, closures, derivation search."""

import hashlib
import itertools
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hornreduce.clauses import (
    Atom,
    HornClause,
    PredVar,
    Substitution,
    Theory,
    alpha_equivalent,
    apply_substitution,
    canonical_key,
    is_instance,
    rename_apart,
)
from hornreduce.fragments import enumerate_fragment, horn_2c, horn_c
import hornreduce.clauses
import hornreduce.resolution
from hornreduce.resolution import (
    KIND_FACTORING,
    KIND_RESOLUTION,
    KIND_SLD,
    KIND_UNIFICATION,
    ClosureResult,
    InferenceStep,
    Proof,
    closure,
    factor,
    proof_from_json_dict,
    proof_to_json_dict,
    replay_proof,
    resolve,
    resolvents,
    search_derivation,
    single_step_candidates,
    unify_onto,
    _instances_among,
    _resolve_renamed,
    _shape,
    _theory_shape_index,
)

from conftest import cl


def chain_theory() -> Theory:
    # all-unary chain rules over one variable, bodies 1 and 2
    return Theory([cl("P0(x) :- P1(x)."), cl("P0(x) :- P1(x), P2(x).")])


def chain3() -> HornClause:
    return cl("P0(x) :- P1(x), P2(x), P3(x).")


C23_CORE = ("P0(x1) :- P1(x2,x1).", "P0(x1,x2) :- P1(x2).",
            "P0(x1,x2) :- P1(x3,x1).", "P0(x1,x2) :- P1(x3,x2), P2(x4,x3).")


def c23_core() -> Theory:
    """The 4-clause core of horn_c(2,3)."""
    return Theory(cl(t) for t in C23_CORE)


# ---------------------------------------------------------------------------
# Single inference rules
# ---------------------------------------------------------------------------

def count_renames(monkeypatch) -> list:
    """Record every clause ``rename_apart`` is called on in resolution."""
    calls = []
    rename = hornreduce.resolution.rename_apart
    monkeypatch.setattr(hornreduce.resolution, "rename_apart",
                        lambda *a, **k: calls.append(a) or rename(*a, **k))
    return calls


def count_resolves(monkeypatch) -> list:
    """Record every resolvent a forward scan builds in resolution."""
    calls = []
    build = hornreduce.resolution._resolve_renamed
    monkeypatch.setattr(hornreduce.resolution, "_resolve_renamed",
                        lambda *a: calls.append(a) or build(*a))
    return calls


def test_resolve_rejects_arity_mismatch_before_renaming(monkeypatch):
    calls = count_renames(monkeypatch)
    c1 = cl("P0(x) :- P1(x,y), P2(y).")
    c2 = cl("Q0(u) :- Q1(u).")
    assert resolve(c1, c2, 0) is None
    assert calls == []
    assert resolve(c1, c2, 1) is not None
    assert len(calls) == 1


def test_pre_renamed_resolution_equals_resolve():
    # Canonical premises use no name rename_apart draws, so renaming the
    # second premise once, apart from nothing, gives resolve's own step.
    c22 = enumerate_fragment(horn_c(2, 2))
    c23 = enumerate_fragment(horn_2c(2, 3))
    pairs = list(itertools.product(c22, repeat=2))
    pairs += list(itertools.product(c23, repeat=2))[::3]
    renamed = {c: rename_apart(c)[0] for c in c22 + c23}
    for kind in (KIND_SLD, KIND_RESOLUTION):
        for c1, c2 in pairs:
            for i in range(len(c1.body)):
                assert _resolve_renamed(c1, c2, renamed[c2], i, kind) == \
                    resolve(c1, c2, i, kind), (c1, c2, i)


def test_substitution_atom_keeps_the_atoms_it_fixes():
    """``Substitution.atom`` is ``Atom(pred, mapped args)``, and is its
    argument itself exactly when the substitution fixes the atom."""
    rng = random.Random(25)
    terms = ["x", "y", "z", "w"]
    fixed = moved = 0
    for _ in range(3000):
        arity = {name: rng.randint(1, 3) for name in "PQR"}
        name = rng.choice("PQR")
        a = Atom(PredVar(name, arity[name]),
                 tuple(rng.choice(terms) for _ in range(arity[name])))
        sub = Substitution(
            {PredVar(p, arity[p]): PredVar(rng.choice("PQRS"), arity[p])
             for p in rng.sample("PQR", rng.randint(0, 3))},
            {t: rng.choice(terms)
             for t in rng.sample(terms, rng.randint(0, 3))})
        got = sub.atom(a)
        want = Atom(sub.pred(a.pred), tuple(sub.term(x) for x in a.args))
        assert got == want
        assert (got is a) == (want == a)
        fixed += want == a
        moved += want != a
    assert fixed > 500 and moved > 500


def test_resolve_chain():
    c1 = cl("Reach(a,b) :- Edge(a,c), Reach(c,b).")
    c2 = cl("Reach(u,v) :- Edge(u,v).")
    step = resolve(c1, c2, 1)
    assert step is not None
    assert alpha_equivalent(step.conclusion,
                            cl("Reach(a,b) :- Edge(a,c), Edge2(c,b)."))
    assert step.body_index == 1
    assert step.pivot is not None and step.pivot.args == ("c", "b")


def test_resolve_renames_apart():
    # both premises use the same variable names; the result must not conflate
    c1 = cl("P(x) :- Q(x,y).")
    c2 = cl("Q(x,y) :- R(y,x).")
    step = resolve(c1, c2, 0)
    assert step is not None
    got = step.conclusion
    assert got.head == Atom.of("P", "x")
    assert got.body_size == 1
    assert got.body[0].args == ("y", "x")


def test_resolve_in_place_body_order():
    # the second premise's body replaces the resolved atom in place
    c1 = cl("P(x) :- A(x), B(x), C(x).")
    c2 = cl("B(u) :- D(u), E(u).")
    step = resolve(c1, c2, 1)
    got = [a.pred.name for a in step.conclusion.body]
    assert got[0] == "A" and got[3] == "C"
    assert len(set(got)) == 4  # the two inserted atoms keep distinct predicates


def test_resolve_arity_mismatch_returns_none():
    assert resolve(cl("P(x) :- Q(x)."), cl("R(u,v) :- S(u)."), 0) is None


def test_resolve_argument_errors():
    with pytest.raises(IndexError):
        resolve(cl("P(x) :- Q(x)."), cl("Q(u) :- R(u)."), 1)
    with pytest.raises(ValueError):
        resolve(cl("P(x) :- Q(x)."), HornClause(None, (Atom.of("Q", "u"),)), 0)


def test_resolve_with_fact_shrinks_body():
    step = resolve(cl("P(x) :- Q(x), R(x)."), cl("Q(u)."), 0)
    assert step is not None
    assert alpha_equivalent(step.conclusion, cl("P(x) :- R(x)."))


def test_resolve_keeps_first_premise_variables():
    step = resolve(cl("P(x) :- Q(x)."), cl("Q(u) :- R(u)."), 0)
    assert step.conclusion.head == Atom.of("P", "x")
    assert step.conclusion.body[0].args == ("x",)


def test_factor_merges_body_atoms():
    step = factor(cl("P(x) :- Q(x,y), Q(x,z), R(z)."), 0, 1)
    assert step is not None
    # y and z merge to y (first-seen in the left atom)
    assert alpha_equivalent(step.conclusion, cl("P(x) :- Q(x,y), R(y)."))
    assert step.factor_indices == (0, 1)
    assert step.unifier.term("z") == "y"


def test_factor_arity_mismatch_and_errors():
    assert factor(cl("P(x) :- Q(x), R(x,x)."), 0, 1) is None
    with pytest.raises(IndexError):
        factor(cl("P(x) :- Q(x), R(x)."), 1, 1)


def test_unify_onto():
    premise = cl("P(x,y) :- Q(x), R(y).")
    target = cl("P(u,u) :- Q(u), R(u).")
    step = unify_onto(premise, target)
    assert step is not None and step.kind == KIND_UNIFICATION
    assert step.conclusion == target
    assert unify_onto(target, cl("P(a,b) :- Q(a), R(b).")) is None


def test_resolvents_iterates_positions():
    c1 = cl("P(x) :- Q(x), Q(x).")
    c2 = cl("Q(u) :- R(u).")
    steps = list(resolvents(c1, c2))
    assert [s.body_index for s in steps] == [0, 1]


def test_resolvents_renames_the_second_premise_once(monkeypatch):
    # renaming per compatible position took three renames here
    c1 = cl("P(x) :- Q(x,y), S(y), R(y,x), T(x,x).")
    c2 = cl("Q(x,u) :- R(u,x).")
    calls = count_renames(monkeypatch)
    steps = list(resolvents(c1, c2, kind=KIND_SLD))
    assert len(calls) == 1
    assert steps == [resolve(c1, c2, i, kind=KIND_SLD) for i in (0, 2, 3)]


def test_resolvents_needs_a_headed_second_premise():
    headless = HornClause(None, (Atom.of("Q", "u"),))
    with pytest.raises(ValueError):
        list(resolvents(cl("P(x) :- Q(x)."), headless))
    assert list(resolvents(cl("P(x)."), headless)) == []


# ---------------------------------------------------------------------------
# Proof replay
# ---------------------------------------------------------------------------

def make_simple_proof():
    c1 = cl("P(x) :- Q(x), R(x).")
    c2 = cl("Q(u) :- S(u).")
    step = resolve(c1, c2, 0, kind=KIND_SLD)
    return Proof((c1, c2), (step,), step.conclusion), c1, c2


def test_replay_accepts_valid_proof():
    proof, c1, c2 = make_simple_proof()
    assert replay_proof(proof)
    assert replay_proof(proof, theory=Theory([c1, c2]))


def test_replay_rejects_foreign_inputs():
    proof, c1, _ = make_simple_proof()
    assert not replay_proof(proof, theory=Theory([c1]))


def test_replay_rejects_tampered_conclusion():
    proof, _, _ = make_simple_proof()
    bad_step = InferenceStep(
        kind=proof.steps[0].kind,
        premises=proof.steps[0].premises,
        conclusion=cl("P(x) :- S(x), S(x)."),
        body_index=proof.steps[0].body_index,
    )
    assert not replay_proof(Proof(proof.inputs, (bad_step,), bad_step.conclusion))


def test_replay_rejects_unavailable_premise():
    proof, c1, c2 = make_simple_proof()
    step = proof.steps[0]
    assert not replay_proof(Proof((c1,), (step,), proof.conclusion))


def test_replay_rejects_wrong_final_conclusion():
    proof, _, _ = make_simple_proof()
    assert not replay_proof(Proof(proof.inputs, proof.steps, cl("P(x) :- T(x).")))


def test_replay_checks_unification_exactly():
    premise = cl("P(x,y) :- Q(x), R(y).")
    good = unify_onto(premise, cl("P(u,u) :- Q(u), R(u)."))
    assert replay_proof(Proof((premise,), (good,), good.conclusion))
    bad = InferenceStep(kind=KIND_UNIFICATION, premises=(premise,),
                        conclusion=cl("P(u,u) :- Q(u), Q(u)."),
                        unifier=good.unifier)
    assert not replay_proof(Proof((premise,), (bad,), bad.conclusion))


def test_replay_zero_step_proof():
    c = cl("P(x) :- Q(x).")
    assert replay_proof(Proof((c,), (), cl("A(y) :- B(y).")))
    assert not replay_proof(Proof((c,), (), cl("A(y) :- B(y), C(y).")))


# A shared ``_replayed`` record skips recomputing a step object that already
# replayed; these check that it vouches for nothing else.

@pytest.mark.parametrize("forge", [
    lambda s: InferenceStep(kind=s.kind, premises=s.premises,
                            conclusion=cl("P(x) :- S(x), S(x)."),
                            body_index=s.body_index),
    lambda s: InferenceStep(kind=s.kind, premises=s.premises,
                            conclusion=s.conclusion, body_index=1),
], ids=["wrong-conclusion", "wrong-body-index"])
def test_replay_record_rejects_forged_step_after_genuine(forge):
    proof, c1, c2 = make_simple_proof()
    replayed = {}
    assert replay_proof(proof, Theory([c1, c2]), _replayed=replayed)
    assert replayed == {id(proof.steps[0]): proof.steps[0]}
    forged = forge(proof.steps[0])
    assert forged != proof.steps[0]
    bad = Proof(proof.inputs, (forged,), forged.conclusion)
    assert not replay_proof(bad, Theory([c1, c2]), _replayed=replayed)
    assert replayed == {id(proof.steps[0]): proof.steps[0]}


def test_replay_record_still_checks_premise_availability():
    proof, c1, c2 = make_simple_proof()
    replayed = {}
    assert replay_proof(proof, _replayed=replayed)
    step = proof.steps[0]
    assert id(step) in replayed
    assert not replay_proof(Proof((c1,), (step,), proof.conclusion),
                            _replayed=replayed)
    assert not replay_proof(Proof(proof.inputs, (step,), cl("P(x) :- T(x).")),
                            _replayed=replayed)


def test_replay_record_checks_inputs_against_the_theory():
    proof, c1, c2 = make_simple_proof()
    theory = Theory([c1, c2])
    replayed = {}
    assert replay_proof(proof, theory, _replayed=replayed)
    # An input alpha-equivalent to a member, not the member object itself.
    variant = cl("P(y) :- Q(y), R(y).")
    assert variant != c1 and alpha_equivalent(variant, c1)
    step = resolve(variant, c2, 0, kind=KIND_SLD)
    renamed = Proof((variant, c2), (step,), step.conclusion)
    assert replay_proof(renamed, theory, _replayed=replayed)
    assert not replay_proof(proof, Theory([c1]), _replayed=replayed)


# ---------------------------------------------------------------------------
# Closure
# ---------------------------------------------------------------------------

def test_closure_level_zero_is_theory():
    t = chain_theory()
    result = closure(t, 0)
    assert len(result.clauses) == 2
    assert all(any(alpha_equivalent(c, m) for m in t) for c in result.clauses)
    assert result.truncated  # level 1 would grow: not a fixpoint


def test_closure_level_one_contains_longer_chain():
    result = closure(chain_theory(), 1)
    assert chain3() in result
    assert cl("P0(x) :- P1(x), P2(x), P3(x), P4(x).") not in result


def test_closure_monotone_in_depth():
    t = chain_theory()
    shallow = closure(t, 1, max_body=4)
    deep = closure(t, 2, max_body=4)
    shallow_keys = {canonical_key(c) for c in shallow.clauses}
    deep_keys = {canonical_key(c) for c in deep.clauses}
    assert shallow_keys <= deep_keys


def test_closure_max_body_truncates():
    result = closure(chain_theory(), 3, max_body=3)
    assert result.truncated
    assert all(c.body_size <= 3 for c in result.clauses)


def test_closure_max_clauses_truncates():
    result = closure(chain_theory(), 3, max_clauses=5)
    assert result.truncated
    assert len(result.clauses) == 5


def test_closure_fixpoint_not_truncated():
    # facts alone resolve with nothing: immediate fixpoint
    result = closure(Theory([cl("P(x).")]), 5)
    assert not result.truncated
    assert len(result.clauses) == 1


def test_closure_arity_preservation():
    t = Theory([cl("P(x,y) :- Q(x,z), R(z,y)."), cl("Q(u,v) :- R(u,v).")])
    arities = {p.arity for c in t for p in c.pred_vars()}
    result = closure(t, 3, max_body=4)
    for c in result.clauses:
        assert {p.arity for p in c.pred_vars()} <= arities


def test_closure_standard_mode_factors():
    d = cl("P(x) :- Q(x), Q(y).")
    factored = cl("P(x) :- Q(x).")
    assert factored in closure(Theory([d]), 1, mode="standard")
    assert factored not in closure(Theory([d]), 1, mode="sld")


def symmetric_theories():
    """Up to three clauses whose atoms mostly share their arguments, so
    bodies hold orbit-mates: equal atoms, or equal arguments under
    predicates used once."""
    atom = st.tuples(st.sampled_from("PQRS"),
                     st.lists(st.sampled_from("xy"), min_size=1,
                              max_size=2)).map(
        lambda t: Atom.of(f"{t[0]}{len(t[1])}", *t[1]))
    clause = st.builds(lambda head, body: HornClause(head, tuple(body)),
                       atom, st.lists(atom, max_size=3))
    return st.lists(clause, min_size=1, max_size=3).map(Theory)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(t=symmetric_theories(), max_body=st.none() | st.integers(1, 4))
def test_orbit_pruned_factoring_matches_the_full_loop(t, max_body):
    # The reference factors every body pair: all its orbit labels differ.
    # Caps 1 to 8 bite at many points of these small closures.
    for cap in (None, *range(1, 9)):
        pruned = closure(t, 2, mode="standard", max_body=max_body,
                         max_clauses=cap)
        with mock.patch.object(hornreduce.resolution, "_orbits",
                               lambda c: list(range(len(c.body)))):
            full = closure(t, 2, mode="standard", max_body=max_body,
                           max_clauses=cap)
        assert pruned.clauses == full.clauses
        assert pruned.truncated == full.truncated
        assert list(pruned._prov.items()) == list(full._prov.items())


def test_closure_renames_each_premise_once(monkeypatch):
    # one rename per member of the 4-clause horn_c(2,3) core, where
    # renaming per resolved pair took 74
    core = c23_core()
    calls = count_renames(monkeypatch)
    result = closure(core, 2, mode="sld", max_body=5)
    assert len(result.clauses) == 50
    assert len(calls) <= len(core)


@pytest.mark.parametrize("mode", ["sld", "standard"])
def test_closure_clauses_share_their_atoms(mode):
    # one closure spells each atom value once, over all the clauses it
    # admits
    result = closure(c23_core(), 2, mode=mode, max_body=5)
    atoms = [a for c in result.clauses for a in c.literals()]
    assert len(result.clauses) > 40
    assert len({id(a) for a in atoms}) == len(set(atoms))


@pytest.mark.parametrize("mode", ["sld", "standard"])
def test_closure_target_rule_stays_off_under_a_cap(mode):
    core, goal = c23_core(), cl("P0(x1,x2) :- P1(x1), P2(x2).")
    full = closure(core, 2, mode=mode, max_body=5)
    free = closure(core, 2, mode=mode, max_body=5, _target=goal)
    hit = free.target_hit
    at = full.clauses.index(hit)
    # uncapped, the last level skips pairs that cannot yield the goal, so
    # the hit comes after fewer clauses; a cap must bite where it would in
    # the full level: just before the hit, just after it, or not at all
    assert len(free.clauses) < at
    for cap in (at, at + 1, 1000):
        plain = closure(core, 2, mode=mode, max_body=5, max_clauses=cap)
        aimed = closure(core, 2, mode=mode, max_body=5, max_clauses=cap,
                        _target=goal)
        assert aimed.clauses == plain.clauses[:len(aimed.clauses)]
        assert aimed.target_hit == (hit if cap > at else None)
        if aimed.target_hit is None:
            assert aimed.clauses == plain.clauses
            assert aimed.truncated


def test_closure_validates_arguments():
    with pytest.raises(ValueError):
        closure(chain_theory(), 1, mode="hyper")
    # a negative depth explores nothing, so it cannot report a fixpoint
    t = Theory([cl("P(x,y) :- Q(x,y)."), cl("P(x) :- Q(x), R(x).")])
    with pytest.raises(ValueError):
        closure(t, -1, max_body=3)
    for bound in ("max_body", "max_clauses"):
        with pytest.raises(ValueError, match=f"{bound} must not be negative"):
            closure(t, 1, **{bound: -1})


# ---------------------------------------------------------------------------
# Derivation search
# ---------------------------------------------------------------------------

def test_search_finds_single_sld_step():
    t = chain_theory()
    result = search_derivation(t, chain3(), max_depth=1)
    assert result.found
    proof = result.proof
    assert proof.step_count == 1
    assert proof.steps[0].kind == KIND_SLD
    # premises are the body-2 rule used twice
    body2 = cl("P0(x) :- P1(x), P2(x).")
    assert all(alpha_equivalent(p, body2) for p in proof.steps[0].premises)
    assert replay_proof(proof, theory=t)


def test_search_depth_zero_instance():
    t = chain_theory()
    target = cl("A(k) :- B(k).")  # alpha-variant of the body-1 rule
    result = search_derivation(t, target, max_depth=0)
    assert result.found and result.proof.step_count == 0
    assert replay_proof(result.proof, theory=t)

    proper = cl("A(k) :- A(k).")  # proper instance: P0 and P1 conflated
    result2 = search_derivation(t, proper, max_depth=0)
    assert result2.found and result2.proof.step_count == 1
    assert result2.proof.steps[0].kind == KIND_UNIFICATION
    assert replay_proof(result2.proof, theory=t)


def test_search_shorter_chain_is_not_derivable():
    t = Theory([cl("P0(x) :- P1(x).")])
    result = search_derivation(t, cl("P0(x) :- P1(x), P2(x)."), max_depth=1)
    assert not result.found
    assert result.truncated  # deeper derivations were not explored


def test_search_depth_two_uses_closure():
    t = Theory([cl("P0(x) :- P1(x), P2(x).")])
    target = cl("P0(x) :- A(x), B(x), C(x), D(x).")
    assert not search_derivation(t, target, max_depth=1).found
    result = search_derivation(t, target, max_depth=2)
    assert result.found
    assert replay_proof(result.proof, theory=t)
    assert alpha_equivalent(result.proof.conclusion, target)


def test_search_keys_the_target_once_and_no_member(monkeypatch):
    """The instance lookup, the one-step search and the closure proof share
    one key of the target, and closure takes the theory's member keys."""
    t = Theory([cl("P0(x) :- P1(x), P2(x).")])
    target = cl("P0(x) :- A(x), B(x), C(x), D(x).")
    keyed = []
    for module in (hornreduce.clauses, hornreduce.resolution):
        key = module.canonical_key
        monkeypatch.setattr(module, "canonical_key",
                            lambda c, key=key: keyed.append(c) or key(c))
    assert search_derivation(t, target, max_depth=2).found
    assert sum(c is target for c in keyed) == 1
    assert not any(c is m for c in keyed for m in t)


def test_search_standard_mode_uses_factoring():
    # the factored unary rule needs a factoring step, invisible to sld search
    t = Theory([cl("P(x) :- Q(x), Q(y).")])
    target = cl("P(x) :- Q(x).")
    assert not search_derivation(t, target, max_depth=1, mode="sld").found
    result = search_derivation(t, target, max_depth=1, mode="standard")
    assert result.found
    assert any(s.kind == KIND_FACTORING for s in result.proof.steps)
    assert replay_proof(result.proof, theory=t)


def test_search_empty_theory_definitive():
    result = search_derivation(Theory([]), cl("P(x) :- Q(x)."))
    assert not result.found and not result.truncated


def test_search_fixpoint_definitive_no():
    t = Theory([cl("P(x).")])
    result = search_derivation(t, cl("P(x) :- Q(x)."), max_depth=3)
    assert not result.found
    assert not result.truncated


def test_search_final_unification_step():
    # derived clause is more general than the target: proof ends by unification
    t = Theory([cl("P0(x) :- P1(x), P2(x).")])
    target = cl("P0(x) :- P1(x), P3(x), P3(x).")
    result = search_derivation(t, target, max_depth=1)
    assert result.found
    assert result.proof.steps[-1].kind == KIND_UNIFICATION
    assert result.proof.conclusion == target
    assert replay_proof(result.proof, theory=t)


def test_search_factors_a_last_level_resolvent():
    # the level's first new clause resolves the second member with itself;
    # after it, only resolvents that can still factor into the goal are
    # built, and the second member against the third is one of them
    t = Theory([cl("P(x,y) :- S(x,y)."), cl("P(x) :- Q(x), S(y,y)."),
                cl("S(z,u) :- Q(w).")])
    result = search_derivation(t, cl("P(x) :- Q(x)."), 1, mode="standard")
    assert result.found
    assert [s.kind for s in result.proof.steps] == [
        KIND_RESOLUTION, KIND_UNIFICATION, KIND_FACTORING]
    assert replay_proof(result.proof, theory=t)


def test_search_factors_a_member_without_the_whole_pair_scan(
        monkeypatch, corpus_2c24):
    # the one-step search misses this goal and closure's depth-1 level finds
    # it by factoring a member; the full level made 1,745,909
    # _resolve_renamed calls first, the pairs that can still hit make 464
    goal = cl("P0(x1,x1) :- P1(x1).")
    theory = Theory(corpus_2c24).without(goal)
    calls = count_resolves(monkeypatch)
    result = search_derivation(theory, goal, 1, mode="standard")
    assert result.found and len(calls) < 10_000
    assert replay_proof(result.proof, theory)
    # the proof found by resolving every pair first
    text = json.dumps(proof_to_json_dict(result.proof), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4c1acd50f45b959ba7d40a674857d489939088738b36f4d40c1ff088a728ffe1")


# One sha256 over (goal, outcome, proof JSON) of every horn_c(2,4) goal from
# the horn_c(2,3) core, per mode and depth, captured while closure's last
# level still built every resolvent.
DERIVE_CORPUS = json.loads(
    (Path(__file__).parent / "data" / "derive_corpus_golden.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", DERIVE_CORPUS["digests"],
                         ids=lambda c: f"{c['mode']}@{c['depth']}")
def test_derive_corpus_is_frozen(case, corpus_c24):
    assert tuple(DERIVE_CORPUS["core"]) == C23_CORE
    core, digest, outcomes = c23_core(), hashlib.sha256(), {}
    for goal in corpus_c24:
        res = search_derivation(core, goal, case["depth"], mode=case["mode"],
                                max_body=DERIVE_CORPUS["max_body"])
        outcome = ("found" if res.found
                   else "truncated" if res.truncated else "underivable")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        proof = proof_to_json_dict(res.proof) if res.found else None
        digest.update(json.dumps([goal.text(), outcome, proof],
                                 sort_keys=True).encode() + b"\n")
    assert outcomes == case["outcomes"]
    assert digest.hexdigest() == case["sha256"]


@pytest.mark.parametrize("bound", ["max_depth", "max_body", "max_clauses"])
def test_search_derivation_rejects_negative_bounds(bound):
    # before, a negative depth answered "truncated" without searching
    bounds = {"max_depth": 1, bound: -1}
    with pytest.raises(ValueError, match=f"{bound} must not be negative"):
        search_derivation(chain_theory(), chain3(), bounds.pop("max_depth"),
                          **bounds)
    with pytest.raises(ValueError, match=f"{bound} must not be negative"):
        search_derivation([], chain3(), **{bound: -1})


def test_search_derivation_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be one of"):
        search_derivation([], chain3(), mode="bogus")


def test_single_step_candidates_resolve_back():
    rng = random.Random(31)
    target = cl("P(x,y) :- Q(x,z), R(z,y), S(x).")
    seen = 0
    for c1, c2, idx in single_step_candidates(target, 2):
        if rng.random() < 0.9:
            continue  # sample: the family is large
        seen += 1
        step = resolve(c1, c2, idx)
        assert step is not None
        assert is_instance(target, step.conclusion) is not None
    assert seen > 10


def clauses_over(variables: str, max_body: int):
    """Clauses of arity at most 3 over ``variables``, so atoms often repeat
    a variable and, since the predicate name encodes the arity, a
    predicate."""
    atom = st.lists(st.sampled_from(variables), max_size=3).map(
        lambda args: Atom.of(f"P{len(args)}", *args))
    return st.builds(lambda head, body: HornClause(head, tuple(body)),
                     st.none() | atom, st.lists(atom, max_size=max_body))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_shape_restricted_candidates_filter_the_full_stream(corpus_c23, data):
    # The theory mixes fragment members, random clauses and the premises
    # of up to two full-stream pairs, so that pairs of one or two body
    # split sizes survive.
    target = data.draw(clauses_over("xyz", 6))
    max_arity = data.draw(st.integers(1, 3))
    full = list(single_step_candidates(target, max_arity))
    members = data.draw(st.lists(st.sampled_from(corpus_c23), max_size=4))
    members += data.draw(st.lists(clauses_over("xyzu", 4), max_size=3))
    for _ in range(data.draw(st.integers(0, 2))):
        members += data.draw(st.sampled_from(full))[:2]
    index = _theory_shape_index(Theory(members))

    def text(pairs):  # repr, since headless clauses have no text form
        return [(repr(c1), repr(c2), i) for c1, c2, i in pairs]

    assert text(single_step_candidates(target, max_arity, index)) == text(
        p for p in full if _shape(p[0]) in index and _shape(p[1]) in index)


def premises_over(variables: str, max_body: int):
    """Clauses of arity at most 3 over ``variables`` whose atoms name
    predicate ``P`` or ``R`` suffixed with the arity, so a predicate may
    repeat or occur once; half of them are headless."""
    atom = st.tuples(st.sampled_from("PR"),
                     st.lists(st.sampled_from(variables), max_size=3)).map(
        lambda t: Atom.of(f"{t[0]}{len(t[1])}", *t[1]))
    return st.builds(lambda head, body: HornClause(head, tuple(body)),
                     st.none() | atom, st.lists(atom, max_size=max_body))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_pivot_domains_keep_every_match(data):
    # Matching only the members whose pivot domains admit a premise's
    # pivot finds, in bucket order, the members matching all of them
    # finds, on both sides of every pair of the stream.  The members mix
    # random clauses with the premises of stream pairs, so that many
    # premises have matches.
    target = data.draw(premises_over("xyz", 5))
    max_arity = data.draw(st.integers(1, 3))
    full = list(single_step_candidates(target, max_arity))
    members = data.draw(st.lists(premises_over("xyzu", 4), max_size=4))
    for _ in range(data.draw(st.integers(0, 3)) if full else 0):
        members += data.draw(st.sampled_from(full))[:2]
    index = _theory_shape_index(Theory(members))
    table: dict = {}
    for c1, c2, _ in single_step_candidates(target, max_arity, index):
        for c, in_body in ((c1, True), (c2, False)):
            brute = [d for d in index[_shape(c)]
                     if is_instance(c, d) is not None]
            assert _instances_among(c, in_body, index, table) == brute


# ---------------------------------------------------------------------------
# Proof JSON round trip
# ---------------------------------------------------------------------------

def test_proof_json_round_trip():
    t = chain_theory()
    for target in [chain3(), cl("A(k) :- A(k)."),
                   cl("P0(x) :- P1(x), P3(x), P3(x).")]:
        proof = search_derivation(t, target, max_depth=1).proof
        assert proof is not None
        data = proof_to_json_dict(proof)
        rebuilt = proof_from_json_dict(data)
        assert rebuilt.conclusion == proof.conclusion
        assert len(rebuilt.steps) == len(proof.steps)
        assert replay_proof(rebuilt, theory=t)


def test_proof_json_round_trip_with_factoring():
    t = Theory([cl("P(x) :- Q(x), Q(y).")])
    proof = search_derivation(t, cl("P(x) :- Q(x)."), max_depth=1,
                              mode="standard").proof
    rebuilt = proof_from_json_dict(proof_to_json_dict(proof))
    assert replay_proof(rebuilt, theory=t)


def test_kept_json_fields_are_not_part_of_the_step():
    # Serializing a proof keeps each step's fields on it; equality, repr,
    # replace, pickle and copy see the step as before.
    import copy
    import dataclasses
    import pickle
    step = resolve(cl("P(x) :- Q(x,y), R(y)."), cl("Q(u,v) :- S(u,v)."), 0)
    twin = dataclasses.replace(step)
    before = repr(step)
    proof_to_json_dict(Proof(step.premises, (step,), step.conclusion))
    assert step._json_fields is not None and twin._json_fields is None
    assert step == twin and repr(step) == before == repr(twin)
    other = dataclasses.replace(step, kind=KIND_RESOLUTION)
    assert other._json_fields is None and other.kind == KIND_RESOLUTION
    for clone in (pickle.loads(pickle.dumps(step)), copy.copy(step),
                  copy.deepcopy(step)):
        assert clone == step and repr(clone) == before


def test_proof_json_refs_name_the_first_match():
    c1 = cl("P(x) :- Q(x), R(x).")
    c2 = cl("Q(u) :- S(u).")
    first = resolve(c1, c2, 0, kind=KIND_SLD)
    again = resolve(c1, c2, 0, kind=KIND_SLD)
    assert again is not first and again.conclusion == first.conclusion
    # A premise equal to an input and to an earlier conclusion names the
    # input, and of two equal inputs the first; two equal earlier
    # conclusions resolve to the earliest.
    on_input = resolve(first.conclusion, c2, 0, kind=KIND_SLD)
    on_step = resolve(again.conclusion, c2, 0, kind=KIND_SLD)
    proofs = {
        "input": Proof((c1, c2, first.conclusion, c2), (first, on_input),
                       on_input.conclusion),
        "step": Proof((c1, c2), (first, again, on_step), on_step.conclusion),
    }
    refs = {name: [s["premises"] for s in proof_to_json_dict(p)["steps"]]
            for name, p in proofs.items()}
    assert refs["input"] == [[["input", 0], ["input", 1]],
                             [["input", 2], ["input", 1]]]
    assert refs["step"] == [[["input", 0], ["input", 1]],
                            [["input", 0], ["input", 1]],
                            [["step", 0], ["input", 1]]]
    for proof in proofs.values():
        rebuilt = proof_from_json_dict(proof_to_json_dict(proof))
        assert rebuilt == proof
        assert replay_proof(rebuilt, Theory(proof.inputs))
    # A premise that only a later step concludes has no reference.
    later = Proof((c1, c2), (on_input, first), first.conclusion)
    with pytest.raises(ValueError):
        proof_to_json_dict(later)


def tampered_cbase_record(edit):
    """The worked base-clause proof as JSON, after ``edit`` mutates it."""
    from hornreduce.reduction import cbase_resolution_reduction
    data = proof_to_json_dict(cbase_resolution_reduction())
    edit(data)
    return data


@pytest.mark.parametrize("edit", [
    lambda d: d["steps"][1]["premises"].__setitem__(0, ["step", 3]),
    lambda d: d["steps"][0]["premises"].__setitem__(1, ["input", 2]),
    lambda d: d["steps"][0]["premises"].__setitem__(0, ["input", -1]),
    lambda d: d["steps"][1]["premises"].__setitem__(0, ["step", 0, 0]),
    lambda d: d["steps"][0]["premises"].__setitem__(0, ["axiom", 0]),
    lambda d: d["steps"][0]["premises"].__setitem__(0, ["input", "0"]),
    lambda d: d.pop("inputs"),
    lambda d: d.pop("steps"),
    lambda d: d.pop("conclusion"),
    lambda d: d["steps"][0].pop("premises"),
    lambda d: d["steps"][0].pop("kind"),
    lambda d: d["steps"][1].pop("conclusion"),
    lambda d: d["steps"][0].__setitem__("body_index", "3"),
    lambda d: d["steps"][1].__setitem__("factor_indices", 2),
    lambda d: d["steps"][0].__setitem__("pivot", 7),
    lambda d: d.__setitem__("conclusion", 7),
    lambda d: d["steps"][0].__setitem__("unifier", []),
    lambda d: d.__setitem__("steps", 2),
    lambda d: d["inputs"].__setitem__(0, 3),
], ids=["step-out-of-range", "input-out-of-range", "negative-input",
        "three-element-ref", "unknown-ref-kind", "non-integer-index",
        "no-inputs", "no-steps", "no-conclusion", "no-step-premises",
        "no-step-kind", "no-step-conclusion", "string-body-index",
        "int-factor-indices", "int-pivot", "int-conclusion", "list-unifier",
        "int-steps", "int-input"])
def test_proof_json_rejects_malformed_record(edit):
    with pytest.raises(ValueError):
        proof_from_json_dict(tampered_cbase_record(edit))


@pytest.mark.parametrize("field, value, name", [
    ("pivot", "H(x2,x4) :- Zz(q)", "'pivot'"),
    ("pivot", "H(x2,x4).", "'pivot'"),
    ("unifier", {"terms": {"x": 5}}, "'terms'"),
    ("unifier", {"terms": ["x"]}, "'terms'"),
    ("unifier", {"preds": {"A": ["B", "x"]}}, "'preds'"),
    ("unifier", {"preds": {"A": ["B", 2, 3]}}, "'preds'"),
    ("unifier", {"preds": {"A": "B"}}, "'preds'"),
], ids=["pivot-with-body", "pivot-with-period", "int-term-image",
        "list-terms", "string-arity", "three-element-pred-image",
        "string-pred-image"])
def test_proof_json_names_the_malformed_field(field, value, name):
    # before, these read back as a pivot of a clause's head, a term mapped
    # to an int, a predicate of arity "x" and an unpacking error
    with pytest.raises(ValueError, match=name):
        proof_from_json_dict(tampered_cbase_record(
            lambda d: d["steps"][0].__setitem__(field, value)))


@pytest.mark.parametrize("edit", [
    lambda d: d["steps"][0].__setitem__("body_index", 99),
    lambda d: d["steps"][0].__setitem__("body_index", -1),
    lambda d: d["steps"][1].__setitem__("factor_indices", [5, 9]),
    lambda d: d["steps"][1].__setitem__("factor_indices", [3, 2]),
], ids=["body-index-99", "negative-body-index", "factor-indices-5-9",
        "factor-indices-descending"])
def test_replay_rejects_steps_naming_missing_positions(edit):
    proof = proof_from_json_dict(tampered_cbase_record(edit))
    assert replay_proof(proof) is False


def test_replay_rejects_resolving_on_a_headless_premise():
    first = cl("P(x) :- Q(x).")
    headless = HornClause(None, (Atom.of("R", "y"),))
    step = InferenceStep(kind=KIND_SLD, premises=(first, headless),
                         conclusion=first, body_index=0)
    assert replay_proof(Proof((first, headless), (step,), first)) is False


def test_proof_json_detects_missing_reference():
    proof, _, _ = make_simple_proof()
    data = proof_to_json_dict(proof)
    data["steps"][0]["premises"] = [["step", 5], ["input", 0]]
    with pytest.raises(Exception):
        proof_from_json_dict(data)
