"""Resolution steps, proof replay, closures, derivation search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hornreduce.clauses import (
    Atom,
    HornClause,
    Substitution,
    Theory,
    alpha_equivalent,
    apply_substitution,
    canonical_key,
    is_instance,
    rename_apart,
)
from hornreduce.fragments import enumerate_fragment, horn_2c, horn_c
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


def test_closure_renames_each_premise_once(monkeypatch):
    # one rename per member of the 4-clause horn_c(2,3) core, where
    # renaming per resolved pair took 74
    core = Theory(cl(t) for t in (
        "P0(x1) :- P1(x2,x1).", "P0(x1,x2) :- P1(x2).",
        "P0(x1,x2) :- P1(x3,x1).", "P0(x1,x2) :- P1(x3,x2), P2(x4,x3)."))
    calls = count_renames(monkeypatch)
    result = closure(core, 2, mode="sld", max_body=5)
    assert len(result.clauses) == 50
    assert len(calls) <= len(core)


def test_closure_validates_arguments():
    with pytest.raises(ValueError):
        closure(chain_theory(), 1, mode="hyper")
    # a negative depth explores nothing, so it cannot report a fixpoint
    t = Theory([cl("P(x,y) :- Q(x,y)."), cl("P(x) :- Q(x), R(x).")])
    with pytest.raises(ValueError):
        closure(t, -1, max_body=3)


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
