"""Reducibility deciders, theory reduction, and the named study clauses."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import hornreduce.clauses
import hornreduce.reduction
import hornreduce.resolution
from hornreduce.clauses import (
    Atom,
    HornClause,
    Theory,
    alpha_equivalent,
    canonical,
    canonical_key,
    is_instance,
    pending_variables,
)
from hornreduce.fragments import enumerate_fragment, horn, horn_2c, horn_c, member
from hornreduce.graphs import is_connected
from hornreduce.reduction import (
    METHOD_FORWARD,
    METHOD_PARTITION,
    OracleCapError,
    ReductionReport,
    _closed_proof,
    _cut_hits,
    _recompose,
    _removal_order,
    c_base,
    cbase_resolution_reduction,
    cut_pending,
    extension_family,
    extension_pairs,
    hnr_family,
    is_reducible,
    nonred_extend,
    reduce_fragment,
    reduce_theory,
    spanning_tree_split,
    triadic_counterexample,
)
from hornreduce.resolution import (
    KIND_FACTORING,
    KIND_RESOLUTION,
    KIND_SLD,
    KIND_UNIFICATION,
    Proof,
    replay_proof,
    resolve,
    search_derivation,
)

from conftest import cl
import conftest


def occurrence_counts(c):
    """Distinct-literal occurrence count of every term variable."""
    occ = {}
    for atom in c.literals():
        for v in set(atom.args):
            occ[v] = occ.get(v, 0) + 1
    return occ


def premise_class(fragment):
    """Syntactic class premises must satisfy: structure without generality."""
    return replace(fragment, most_general=False, distinct_predvars=False)


# ---------------------------------------------------------------------------
# Named study clauses
# ---------------------------------------------------------------------------

def test_c_base_frozen_form():
    assert c_base() == conftest.c_base()
    assert c_base().body_size == 5
    assert member(horn_2c(2, 5), c_base())


def test_c_base_every_variable_in_three_literals():
    assert set(occurrence_counts(c_base()).values()) == {3}


def test_triadic_frozen_form():
    t = triadic_counterexample()
    assert t == conftest.c_triadic()
    assert t.body_size == 3
    assert all(a.pred.arity == 3 for a in t.literals())
    assert member(horn_2c(3, 3), t)


def test_triadic_every_pair_cut_leaves_four_pending():
    t = triadic_counterexample()
    assert cut_pending(t, (1, 2)) == ("x2", "x3", "x4", "x5")
    assert cut_pending(t, (0, 2)) == ("x1", "x3", "x5", "x6")
    assert cut_pending(t, (0, 1)) == ("x1", "x2", "x4", "x6")


# ---------------------------------------------------------------------------
# Pending variables of a cut
# ---------------------------------------------------------------------------

def test_cut_pending_base_clause_rows():
    c = c_base()
    assert cut_pending(c, (0, 1, 2, 3)) == ("x1", "x2", "x3", "x4")
    assert cut_pending(c, (1, 2, 3, 4)) == ("x1", "x2", "x3")
    assert cut_pending(c, (2, 3, 4)) == ("x2", "x3", "x4")
    assert cut_pending(c, (1, 2, 4)) == ("x1", "x2", "x3", "x4")


def test_cut_pending_extension_row():
    ext = nonred_extend(c_base(), 0, 1)
    assert cut_pending(ext, (0, 1, 5)) == ("x1", "x5", "x6")


def test_cut_pending_counts_sides_not_totals():
    # The shared variable sits twice on each side, so it is not pending,
    # even though it crosses the cut.
    c = cl("P0(a,b) :- P1(a,b), P2(a,b), P3(a,b).")
    assert cut_pending(c, (1, 2)) == ()


def test_cut_pending_rejects_bad_index():
    with pytest.raises(IndexError):
        cut_pending(c_base(), (0, 9))


def all_cuts_match_oracle(c):
    for size in range(c.body_size + 1):
        for idx in itertools.combinations(range(c.body_size), size):
            expected = conftest.oracle_cut_pending(c, idx)
            assert cut_pending(c, idx) == expected, (str(c), idx)


def test_cut_pending_matches_oracle_on_corpora(corpus_c23, corpus_2c24):
    clauses = [c for c in corpus_c23 + corpus_2c24 if c.body_size >= 3]
    clauses += [*hnr_family(1), c_base(), triadic_counterexample()]
    for c in clauses:
        all_cuts_match_oracle(c)


@st.composite
def small_clauses(draw):
    """Clauses of arity at most 3 and up to 7 body atoms over four
    variables, so atoms often repeat a variable, plus a duplicated body
    atom at times; the predicate name encodes the arity."""
    atom = st.lists(st.sampled_from("abcd"), max_size=3).map(
        lambda args: Atom.of(f"P{len(args)}", *args))
    body = draw(st.lists(atom, min_size=1, max_size=6))
    if draw(st.booleans()):
        body.append(draw(st.sampled_from(body)))
    return HornClause(draw(st.none() | atom), tuple(body))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_clauses())
def test_cut_pending_matches_oracle_on_random_clauses(c):
    all_cuts_match_oracle(c)


# ---------------------------------------------------------------------------
# Irreducibility-preserving extension
# ---------------------------------------------------------------------------

def test_nonred_extend_worked_example():
    c = cl("H0(x1) :- P1(x1,x2), P2(x1,x3).")
    ext = nonred_extend(c, 0, 1)
    assert ext == cl(
        "H0(x1) :- P1(x1,x4), P2(x1,x5), P3(x4,x5), P4(x4,x2), P5(x5,x3).")


def test_nonred_extend_grows_body_by_three_and_keeps_structure():
    ext = nonred_extend(c_base(), 0, 1)
    assert ext.body_size == c_base().body_size + 3
    assert set(occurrence_counts(ext).values()) == {3}
    assert not pending_variables(ext)
    assert is_connected(ext)
    preds = [a.pred for a in ext.literals()]
    assert len(set(preds)) == len(preds)
    # The shared variable keeps its positions in both rewritten atoms.
    assert ext.body[0].args[0] == "x1"
    assert ext.body[1].args[0] == "x1"
    twice = nonred_extend(ext, 0, 1)
    assert twice.body_size == 11


def test_nonred_extend_validates_input():
    c = c_base()
    with pytest.raises(ValueError):
        nonred_extend(c, 1, 1)
    with pytest.raises(IndexError):
        nonred_extend(c, 0, 9)
    with pytest.raises(ValueError):
        nonred_extend(triadic_counterexample(), 0, 1)  # not dyadic
    with pytest.raises(ValueError):
        nonred_extend(c, 0, 3)  # P1(x1,x3) and P4(x2,x4) share nothing
    with pytest.raises(ValueError):
        nonred_extend(cl("P0(a) :- P1(a,b), P2(b,a)."), 0, 1)  # share both
    with pytest.raises(ValueError):
        nonred_extend(cl("P0(a) :- P1(a,a), P2(a,b)."), 0, 1)  # repeated arg


def test_hnr_family_depth_zero_is_base_clause():
    fam = hnr_family(0)
    assert len(fam) == 1
    assert alpha_equivalent(fam[0], c_base())


def test_hnr_family_depth_one_members():
    fam = hnr_family(1)
    keys = [canonical_key(m) for m in fam]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for m in fam:
        assert m.body_size == 8
        assert set(occurrence_counts(m).values()) == {3}
        assert not pending_variables(m)
        assert is_connected(m)
        preds = [a.pred for a in m.literals()]
        assert len(set(preds)) == len(preds)


def test_extension_family_of_worked_example():
    c = cl("H0(x1) :- P1(x1,x2), P2(x1,x3).")
    assert extension_family(c, 0) == (canonical(c)[1],)
    fam = extension_family(c, 1)
    want = {canonical_key(nonred_extend(c, i, j))
            for i, j in extension_pairs(c)}
    assert [canonical_key(m) for m in fam] == sorted(want)
    assert all(m.body_size == 5 for m in fam)
    with pytest.raises(ValueError):
        extension_family(c, -1)


def count_serializations(monkeypatch) -> list:
    """Record every clause ``_canonical_serialization`` is called on."""
    calls = []
    serialize = hornreduce.clauses._canonical_serialization
    monkeypatch.setattr(hornreduce.clauses, "_canonical_serialization",
                        lambda c: calls.append(c) or serialize(c))
    return calls


def test_extension_family_canonicalizes_each_grown_clause_once(monkeypatch):
    grown = sum(len(extension_pairs(m)) for d in (0, 1) for m in hnr_family(d))
    calls = count_serializations(monkeypatch)
    assert len(extension_family(c_base(), 2)) == 368
    assert len(calls) == 1 + grown == 465


def test_hnr_family_rejects_negative_depth():
    with pytest.raises(ValueError):
        hnr_family(-1)


# ---------------------------------------------------------------------------
# Inverse candidates: the SLD cut hits of the partition method
# ---------------------------------------------------------------------------

def cut_proofs(c, arity_cap, fragment):
    """Proofs of every one-step SLD split of ``c`` the partition method
    verifies, in cut order."""
    return [_closed_proof(hit, c)
            for hit in _cut_hits(c, fragment, arity_cap, KIND_SLD, 0, False)]


def test_inverse_candidates_empty_for_base_clause_at_cap_two():
    assert cut_proofs(c_base(), 2, horn_2c(2, 5)) == []


def test_inverse_candidates_empty_for_triadic_at_cap_three():
    t = triadic_counterexample()
    assert cut_proofs(t, 3, horn_2c(3, 3)) == []


def test_inverse_candidates_triadic_found_at_cap_four():
    t = triadic_counterexample()
    found = cut_proofs(t, 4, horn_2c(4, 3))
    assert found
    proof = found[0]
    assert proof.steps[0].pivot.pred.arity == 4
    assert [p.body_size for p in proof.inputs] == [2, 2]
    assert replay_proof(proof)


def test_inverse_candidates_chain_clause_found_at_cap_one():
    c3 = cl("P0(a) :- P1(a), P2(a), P3(a).")
    found = cut_proofs(c3, 1, horn_c(1, 3))
    assert found
    for proof in found:
        assert proof.steps[0].pivot.pred.arity == 1
        assert replay_proof(proof)


def test_inverse_candidates_are_sound_over_small_corpus(corpus_c23):
    frag = horn_c(2, 3)
    cls = premise_class(frag)
    for c in corpus_c23:
        if c.body_size < 3:
            continue
        for proof in cut_proofs(c, frag.max_arity, frag):
            c1, c2 = proof.inputs
            assert c1.body_size < c.body_size
            assert c2.body_size < c.body_size
            assert member(cls, c1) and member(cls, c2)
            assert is_instance(c, proof.steps[0].conclusion) is not None
            assert replay_proof(proof)


# ---------------------------------------------------------------------------
# Reducibility decisions
# ---------------------------------------------------------------------------

def test_base_clause_sld_irreducible_by_partition():
    assert is_reducible(c_base(), "sld", horn_2c(2, 5)) is None


def test_base_clause_standard_reducible_by_partition():
    proof = is_reducible(c_base(), "standard", horn_2c(2, 5))
    assert isinstance(proof, Proof)
    assert replay_proof(proof)
    assert proof.conclusion == c_base()
    sizes = sorted(p.body_size for p in proof.inputs)
    assert sizes == [3, 4]
    assert any(s.kind == KIND_FACTORING for s in proof.steps)
    cls = premise_class(horn_2c(2, 5))
    assert all(member(cls, p) for p in proof.inputs)


def test_triadic_sld_irreducible_by_partition():
    t = triadic_counterexample()
    assert is_reducible(t, "sld", horn_2c(3, 3)) is None


def test_chain_clause_reducible_by_both_methods():
    c3 = cl("P0(a) :- P1(a), P2(a), P3(a).")
    frag = horn_c(1, 3)
    p1 = is_reducible(c3, "sld", frag, METHOD_PARTITION)
    p2 = is_reducible(c3, "sld", frag, METHOD_FORWARD)
    assert isinstance(p1, Proof) and isinstance(p2, Proof)
    assert replay_proof(p1) and replay_proof(p2)
    proof = is_reducible(c3, "standard", frag, METHOD_FORWARD)
    assert isinstance(proof, Proof) and replay_proof(proof)


def test_short_bodies_are_never_reducible():
    frag = horn_2c(2, 5)
    assert is_reducible(cl("P0(a,b) :- P1(a,b)."), "sld", frag) is None
    two = cl("P0(a,b) :- P1(a,b), P2(a,b).")
    assert is_reducible(two, "sld", frag, METHOD_PARTITION) is None
    assert is_reducible(two, "sld", frag, METHOD_FORWARD) is None
    assert is_reducible(two, "standard", frag, METHOD_PARTITION) is None


def test_is_reducible_validates_arguments():
    with pytest.raises(ValueError):
        is_reducible(c_base(), "sld", None)
    with pytest.raises(ValueError):
        is_reducible(c_base(), "binary", horn_2c(2, 5))
    with pytest.raises(ValueError):
        is_reducible(c_base(), "sld", horn_2c(2, 5), "guess")
    with pytest.raises(ValueError):
        is_reducible(c_base(), "standard", horn_2c(2, 5), max_factor=-1)


def test_forward_oracle_signals_oversized_pool():
    with pytest.raises(OracleCapError):
        is_reducible(c_base(), "sld", horn_2c(2, 5), METHOD_FORWARD,
                     max_pool=10)


def assert_methods_agree(c, frag, mode, **forward_bounds):
    """Partition and forward oracle reach the same verdict on ``c``, and
    every hit replays."""
    partition = is_reducible(c, mode, frag, METHOD_PARTITION)
    forward = is_reducible(c, mode, frag, METHOD_FORWARD, **forward_bounds)
    assert (partition is None) == (forward is None), (mode, c)
    for hit in (partition, forward):
        if hit is not None:
            assert replay_proof(hit) and hit.conclusion == c
    return partition is not None


def test_methods_agree_on_dyadic_two_connected_corpus(corpus_2c24):
    frag = horn_2c(2, 4)
    for c in corpus_2c24:
        if c.body_size >= 3:
            assert_methods_agree(c, frag, "sld", pool_body_cap=0)


def test_methods_agree_on_dyadic_two_connected_corpus_standard(corpus_2c24):
    frag = horn_2c(2, 4)
    targets = [c for c in corpus_2c24 if c.body_size >= 3]
    reducible = sum(assert_methods_agree(c, frag, "standard", pool_body_cap=0)
                    for c in targets)
    assert reducible == len(targets) == 792


def assert_one_inference(proof, c, mode, max_factor=2):
    """``proof`` is one inference from its two inputs to ``c``: a resolution
    step, up to ``max_factor`` factorings (none in sld mode) and at most
    one closing unification."""
    kinds = [s.kind for s in proof.steps]
    first = KIND_SLD if mode == "sld" else KIND_RESOLUTION
    factorings = kinds.count(KIND_FACTORING)
    assert kinds[0] == first, kinds
    assert factorings <= (0 if mode == "sld" else max_factor), kinds
    assert kinds[1:] in ([KIND_FACTORING] * factorings,
                         [KIND_FACTORING] * factorings + [KIND_UNIFICATION])
    assert proof.inputs == proof.steps[0].premises
    assert proof.conclusion == c
    assert replay_proof(proof)


@pytest.mark.parametrize("mode", ["sld", "standard"])
def test_is_reducible_proofs_are_one_inference(corpus_c23, mode):
    frag = horn_c(2, 3)
    targets = [c for c in corpus_c23 if c.body_size >= 3]
    hits = 0
    for c in targets:
        for method in (METHOD_PARTITION, METHOD_FORWARD):
            proof = is_reducible(c, mode, frag, method)
            if proof is not None:
                assert_one_inference(proof, c, mode)
                hits += 1
    assert hits > 0


def test_is_reducible_closes_proofs_from_its_own_hit(monkeypatch):
    # the hit's substitution closes the proof: no second instance match
    def unify_onto(*args):
        raise AssertionError("unify_onto called after a hit")
    monkeypatch.setattr(hornreduce.reduction, "unify_onto", unify_onto)
    cases = [(c_base(), "standard", horn_2c(2, 5), METHOD_PARTITION),
             (cl("P0(x1,x2) :- P1(x2,x3), P2(x3,x4), P3(x4)."), "standard",
              horn_c(2, 4), METHOD_FORWARD),
             (cl("P0(a) :- P1(a), P2(a), P3(a)."), "sld", horn_c(1, 3),
              METHOD_PARTITION)]
    for c, mode, frag, method in cases:
        proof = is_reducible(c, mode, frag, method)
        assert proof.steps[-1].kind == KIND_UNIFICATION
        assert_one_inference(proof, c, mode)


def test_forward_oracle_renames_each_pool_member_once(monkeypatch):
    # the pool is horn_c(2,4) up to body 2, 54 members; renaming per
    # compatible pair took 174 renames on this target
    calls = []
    for module in (hornreduce.resolution, hornreduce.reduction):
        rename = module.rename_apart
        monkeypatch.setattr(module, "rename_apart",
                            lambda *a, rename=rename, **k:
                            calls.append(a) or rename(*a, **k))
    c = cl("P0(x1,x2) :- P1(x2,x3), P2(x3,x4), P3(x4).")
    assert is_reducible(c, "sld", horn_c(2, 4), METHOD_FORWARD) is not None
    assert 0 < len(calls) <= 54


def full_pool_sample(corpus_2c24, corpus_c24):
    """Every 37th body >= 3 member of horn_2c(2,4) and every 6th of
    horn_c(2,4) (238 targets, about 6 s a mode), with its fragment."""
    for frag, corpus, stride in ((horn_2c(2, 4), corpus_2c24, 37),
                                 (horn_c(2, 4), corpus_c24, 6)):
        for c in [c for c in corpus if c.body_size >= 3][::stride]:
            yield c, frag


def test_methods_agree_on_full_pool_sample(corpus_2c24, corpus_c24):
    for c, frag in full_pool_sample(corpus_2c24, corpus_c24):
        assert_methods_agree(c, frag, "sld")


def test_methods_agree_on_full_pool_sample_standard(corpus_2c24, corpus_c24):
    for c, frag in full_pool_sample(corpus_2c24, corpus_c24):
        assert_methods_agree(c, frag, "standard")


def test_extension_family_stays_sld_irreducible_by_partition():
    for depth in (0, 1, 2):
        for m in hnr_family(depth):
            frag = horn_2c(2, m.body_size)
            assert is_reducible(m, "sld", frag, METHOD_PARTITION) is None, m


def test_extension_family_member_irreducible_by_pruned_forward():
    m = hnr_family(1)[0]
    frag = horn_2c(2, m.body_size)
    assert is_reducible(m, "sld", frag, METHOD_FORWARD,
                        pool_body_cap=0) is None


def test_dyadic_two_connected_triples_standard_reducible():
    frag = horn_2c(2, 3)
    for c in enumerate_fragment(frag):
        if c.body_size < 3:
            continue
        proof = is_reducible(c, "standard", frag, METHOD_PARTITION)
        assert proof is not None, c
        assert replay_proof(proof)
        assert proof.conclusion == c


# ---------------------------------------------------------------------------
# Spanning-tree split
# ---------------------------------------------------------------------------

def test_spanning_tree_split_worked_example():
    c = cl("P0(x1,x2) :- P1(x5,x6), P2(x1,x3,x4), P3(x4), P4(x2,x5).")
    first, second, pivot = spanning_tree_split(c)
    assert pivot == Atom.of("Q1", "x2")
    assert first == cl("P0(x1,x2) :- Q1(x2), P2(x1,x3,x4), P3(x4).")
    assert second.head == pivot
    assert set(second.body) == {Atom.of("P1", "x5", "x6"),
                                Atom.of("P4", "x2", "x5")}
    step = resolve(first, second, 0, kind=KIND_SLD)
    assert step is not None and is_instance(c, step.conclusion) is not None


def test_spanning_tree_split_sizes_and_replay(corpus_c13, corpus_c24):
    picked = [c for c in corpus_c13 if c.body_size >= 3] \
        + [c for c in corpus_c24 if c.body_size >= 3][::50]
    assert picked
    for c in picked:
        first, second, pivot = spanning_tree_split(c)
        assert first.body_size == c.body_size - 1
        assert second.body_size == 2
        assert pivot.pred.arity <= c.max_arity()
        assert first.body[0] == pivot and second.head == pivot
        step = resolve(first, second, 0, kind=KIND_SLD)
        assert step is not None
        assert is_instance(c, step.conclusion) is not None


def test_spanning_tree_split_validates_input():
    with pytest.raises(ValueError):
        spanning_tree_split(cl("P0(a) :- P1(a), P2(a)."))
    with pytest.raises(ValueError):
        spanning_tree_split(cl("P0(a) :- P1(a), P2(b), P3(b)."))
    with pytest.raises(ValueError):
        spanning_tree_split(cl("P0(a) :- P1(a), P1(a), P2(a)."))


# ---------------------------------------------------------------------------
# Theory reduction
# ---------------------------------------------------------------------------

def chain_theory(length):
    """Clauses P0(a) :- P1(a), ..., Pk(a) for k = 1 .. length."""
    return [cl("P0(a) :- " + ", ".join(
        f"P{i}(a)" for i in range(1, k + 1)) + ".")
        for k in range(1, length + 1)]


def test_reduce_theory_two_clause_core():
    c1, c2, c3 = chain_theory(3)
    report = reduce_theory([c1, c2, c3])
    assert isinstance(report, ReductionReport)
    assert {canonical_key(c) for c in report.core} == \
        {canonical_key(c1), canonical_key(c2)}
    assert len(report.removed) == 1
    gone, proof = report.removed[0]
    assert alpha_equivalent(gone, c3)
    assert proof.step_count == 1
    step = proof.steps[0]
    assert step.kind == KIND_SLD
    assert all(alpha_equivalent(p, c2) for p in step.premises)
    assert replay_proof(proof, report.core)
    assert report.bounds_hit  # depth-one misses leave deeper space unexplored


def test_reduce_theory_removes_only_redundant_clause():
    a1 = cl("P0(a,b) :- P1(a,b).")
    # Reusing P2 at arity 1 here and arity 2 below is deliberate: names
    # are clause-local, so the container must accept the mix.
    a2 = cl("P0(a,b) :- P1(a,b), P2(a).")
    a3 = cl("P0(a,b) :- P1(a,b), P2(a,b).")
    a4 = cl("P0(a,b) :- P1(a,b), P2(a,b), P3(a,b).")
    report = reduce_theory([a1, a2, a3, a4])
    assert {canonical_key(c) for c in report.core} == \
        {canonical_key(a) for a in (a1, a2, a3)}
    assert [alpha_equivalent(c, a4) for c, _ in report.removed] == [True]
    assert replay_proof(report.removed[0][1], report.core)


def test_reduce_theory_keeps_singleton():
    only = cl("P0(a) :- P1(a).")
    report = reduce_theory([only])
    assert list(report.core) == [only]
    assert report.removed == ()
    assert not report.bounds_hit


def test_reduce_theory_recomposes_chained_removals():
    clauses = chain_theory(4)
    report = reduce_theory(clauses)
    assert {canonical_key(c) for c in report.core} == \
        {canonical_key(c) for c in clauses[:2]}
    assert len(report.removed) == 2
    # Removal order is largest first; each proof must replay from the
    # final core alone even though the longer clause was first removed
    # using the shorter one as a premise.
    assert alpha_equivalent(report.removed[0][0], clauses[3])
    assert alpha_equivalent(report.removed[1][0], clauses[2])
    for gone, proof in report.removed:
        assert replay_proof(proof, report.core)
        for premise in proof.inputs:
            assert premise in report.core


def test_reduce_theory_accepts_theory_and_deduplicates():
    c1, c2, c3 = chain_theory(3)
    variant = cl("P0(z) :- P1(z), P2(z), P3(z).")
    report = reduce_theory(Theory([c1, c2, c3, variant]))
    assert len(report.removed) == 1
    assert len(report.core) == 2


def test_reduce_theory_reuses_canonical_keys(monkeypatch, corpus_c23):
    # Each candidate removal canonicalizes the candidate, not the rest of
    # the theory, the visiting order reuses the input theory's keys, and
    # replay accepts an input that is a core member object without keying
    # it: 1,787 calls here, where keying every replayed input took 2,829,
    # rebuilding the remaining theory per candidate 126,044 and keying each
    # input clause three times 3,679.
    calls = count_serializations(monkeypatch)
    report = reduce_theory(corpus_c23)
    assert len(report.core) + len(report.removed) == 282
    assert len(calls) <= 1800


def test_recompose_replays_each_distinct_step_once(monkeypatch):
    # Spliced removal proofs share step objects: 711 steps over the 50
    # proofs, 108 distinct objects, and each is recomputed once.
    calls = []
    step_replays = hornreduce.resolution._step_replays
    monkeypatch.setattr(hornreduce.resolution, "_step_replays",
                        lambda step: calls.append(step) or step_replays(step))
    report = reduce_fragment(horn_c(2, 2))
    steps = [s for _, proof in report.removed for s in proof.steps]
    distinct = {id(s) for s in steps}
    assert (len(report.removed), len(steps)) == (50, 711)
    assert len(calls) == len(distinct) == 108
    assert {id(s) for s in calls} == distinct


def test_reduce_theory_reinstates_a_clause_whose_proof_fails(monkeypatch):
    # Standard-mode horn_c(1,4) reduces to the body-2 clause with no bound
    # hit.  Forging the recomposed proof of the body-4 clause once returns
    # it to the core: the body-2 clause cannot derive it in one step, and
    # it derives the body-2 clause by factoring, so the core changes.
    theory = enumerate_fragment(horn_c(1, 4))
    plain = reduce_theory(theory, "standard")
    assert [c.body_size for c in plain.core] == [2]
    assert not plain.bounds_hit
    chosen = next(c for c, _ in plain.removed if c.body_size == 4)
    splice = hornreduce.reduction._splice_inputs
    forged = []

    def forge_once(proof, providers):
        p = splice(proof, providers)
        if p is not None and not forged and alpha_equivalent(p.conclusion, chosen):
            last = p.steps[-1]
            wrong = replace(last, conclusion=HornClause(
                last.conclusion.head, last.conclusion.body + last.conclusion.body[:1]))
            p = Proof(p.inputs, p.steps[:-1] + (wrong,), p.conclusion)
            forged.append(p)
        return p

    monkeypatch.setattr(hornreduce.reduction, "_splice_inputs", forge_once)
    report = reduce_theory(theory, "standard")
    assert len(forged) == 1
    assert list(report.core) == [chosen]
    assert report.bounds_hit
    assert all(not alpha_equivalent(c, chosen) for c, _ in report.removed)
    assert len(report.removed) == len(theory) - 1
    for _, proof in report.removed:
        assert replay_proof(proof, report.core)


def reduce_until_stable(theory, mode, max_depth):
    """``reduce_theory`` with passes repeated until one removes nothing, in
    every mode; no proof here fails to recompose.  Returns the core, the
    removals, ``bounds_hit``, the number of passes and of searches."""
    survivors = Theory(theory).ordered(_removal_order)
    removed, bounds_hit, passes, searches = [], False, 0, 0
    changed = True
    while changed:
        changed = False
        passes += 1
        for clause in list(survivors):
            rest = survivors.without(clause)
            if not rest:
                continue
            searches += 1
            res = search_derivation(rest, clause, max_depth, mode=mode)
            if res.found:
                survivors = rest
                removed.append((clause, res.proof))
                changed = True
            elif res.truncated:
                bounds_hit = True
    ok, out = _recompose(survivors, removed)
    assert ok
    return list(survivors), out, bounds_hit, passes, searches


def check_against_stable_passes(monkeypatch, theory, mode, depth):
    """Compare ``reduce_theory`` with :func:`reduce_until_stable`; return
    the reference's passes and searches and ``reduce_theory``'s searches."""
    calls = []
    monkeypatch.setattr(hornreduce.reduction, "search_derivation",
                        lambda *a, **k: calls.append(1)
                        or search_derivation(*a, **k))
    report = reduce_theory(theory, mode, max_depth=depth)
    monkeypatch.undo()
    core, removed, bounds_hit, passes, searches = \
        reduce_until_stable(theory, mode, depth)
    assert list(report.core) == core
    assert list(report.removed) == removed  # clauses and proofs
    assert report.bounds_hit == bounds_hit
    return passes, searches, len(calls)


def test_sld_reduction_to_depth_one_is_stable_after_one_pass(monkeypatch):
    # The depth <= 1 sld search is complete and monotone in its premises,
    # and each of its misses is truncated, so the passes the reference
    # repeats after a removal find nothing and change no bounds_hit.
    rng = random.Random(22)
    saved = 0
    for spec in (horn_c(2, 2), horn_2c(2, 3)):
        pool = enumerate_fragment(spec)
        for _ in range(20):
            theory = rng.sample(pool, rng.randint(2, 24))
            for depth in (0, 1):
                _, searches, made = check_against_stable_passes(
                    monkeypatch, theory, "sld", depth)
                assert made <= searches
                saved += searches - made
    assert saved > 0


@pytest.mark.parametrize("mode, depth", [("standard", 1), ("sld", 2)])
def test_deeper_or_standard_reduction_repeats_passes(monkeypatch, mode, depth):
    # These searches are not monotone-complete, so a pass after a removal
    # still runs, and reduce_theory makes every search the reference makes.
    rng = random.Random(7)
    pool = enumerate_fragment(horn_c(2, 2))
    repeated = 0
    for _ in range(4):
        theory = rng.sample(pool, 8)
        passes, searches, made = check_against_stable_passes(
            monkeypatch, theory, mode, depth)
        assert made == searches
        repeated += passes > 1
    assert repeated


@pytest.mark.parametrize("bound", ["max_depth", "max_body", "max_clauses"])
def test_reduce_rejects_negative_bounds(bound):
    # before, a negative depth removed nothing and reported no error
    theory = [cl("P0(x) :- P1(x)."), cl("P0(x) :- P1(x), P2(x).")]
    with pytest.raises(ValueError, match=f"{bound} must not be negative"):
        reduce_theory(theory, **{bound: -1})
    with pytest.raises(ValueError, match=f"{bound} must not be negative"):
        reduce_fragment(horn_c(1, 3), **{bound: -1})


def test_reduce_fragment_smallest_connected_fragment():
    report = reduce_fragment(horn_c(1, 3))
    assert len(report.core) == 2
    assert max(c.body_size for c in report.core) == 2
    for _, proof in report.removed:
        assert replay_proof(proof, report.core)


# ---------------------------------------------------------------------------
# The worked standard-mode reduction of the base clause
# ---------------------------------------------------------------------------

def test_cbase_resolution_reduction_replays():
    proof = cbase_resolution_reduction()
    assert replay_proof(proof)
    assert alpha_equivalent(proof.conclusion, c_base())
    assert [s.kind for s in proof.steps] == [KIND_RESOLUTION, KIND_FACTORING]
    assert proof.steps[0].pivot == Atom.of("H", "x2", "x4")
    sizes = sorted(p.body_size for p in proof.inputs)
    assert sizes == [3, 4]
    cls = premise_class(horn_2c(2, 5))
    assert all(member(cls, p) for p in proof.inputs)
