"""End-to-end command-line interface behavior."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hornreduce.cli
import hornreduce.clauses
import hornreduce.reduction
import hornreduce.resolution
from hornreduce.clauses import Theory, alpha_equivalent, canonical_key, parse_clause
from hornreduce.fragments import enumerate_fragment, horn_2c, horn_c
from hornreduce.cli import _json_text, run
from hornreduce.reduction import c_base, hnr_family, reduce_theory
from hornreduce.resolution import (
    MODES,
    Proof,
    factor,
    proof_from_json_dict,
    proof_to_json_dict,
    replay_proof,
    unify_onto,
)

from conftest import cl, token_soup


def write_chain_theory(tmp_path, length=3):
    lines = []
    for k in range(1, length + 1):
        body = ", ".join(f"P{i}(a)" for i in range(1, k + 1))
        lines.append(f"P0(a) :- {body}.")
    path = tmp_path / "chain.thy"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_unit_clauses():
    code, out, err = run(["enumerate", "--arity", "1", "--body", "0"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert alpha_equivalent(parse_clause(lines[0]), cl("P0(a)."))


def test_enumerate_count_smallest_connected_fragment():
    code, out, _ = run(["enumerate", "--arity", "1", "--body", "3",
                        "--connected", "--most-general", "--count"])
    assert code == 0
    assert out == "3\n"


def test_enumerate_json_matches_plain_listing():
    argv = ["enumerate", "--arity", "2", "--body", "2",
            "--two-connected", "--most-general"]
    code, plain, _ = run(argv)
    assert code == 0
    code, as_json, _ = run(argv + ["--json"])
    assert code == 0
    payload = json.loads(as_json)
    assert payload["schema_version"] == 1
    assert payload["count"] == len(payload["clauses"])
    assert payload["clauses"] == plain.splitlines()
    expected = enumerate_fragment(horn_2c(2, 2))
    assert len(payload["clauses"]) == len(expected)
    for line, clause in zip(payload["clauses"], expected):
        assert alpha_equivalent(parse_clause(line), clause)


def test_enumerate_rejects_bad_flags():
    code, _, err = run(["enumerate", "--body", "2"])
    assert code == 64 and "error" in err
    code, _, _ = run(["enumerate", "--arity", "0", "--body", "2"])
    assert code == 64
    code, _, _ = run(["enumerate", "--arity", "1", "--body", "1",
                      "--connected", "--two-connected"])
    assert code == 64


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_theory_file(tmp_path):
    path = write_chain_theory(tmp_path)
    code, out, err = run(["reduce", "--theory", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert len(payload["core"]) == 2
    assert len(payload["removed"]) == 1
    assert payload["bounds_hit"] is True
    core = Theory(parse_clause(line) for line in payload["core"])
    entry = payload["removed"][0]
    assert alpha_equivalent(parse_clause(entry["clause"]),
                            cl("P0(a) :- P1(a), P2(a), P3(a)."))
    proof = proof_from_json_dict(entry["proof"])
    assert replay_proof(proof, core)
    assert "core 2 clause(s)" in err


def test_reduce_fragment_core_bodies_bounded():
    code, out, _ = run(["reduce", "--fragment", "1,3,c"])
    assert code == 0
    payload = json.loads(out)
    for line in payload["core"]:
        assert parse_clause(line).body_size <= 2


def test_reduce_requires_exactly_one_source(tmp_path):
    path = write_chain_theory(tmp_path)
    code, _, _ = run(["reduce"])
    assert code == 64
    code, _, _ = run(["reduce", "--theory", str(path),
                      "--fragment", "1,3,c"])
    assert code == 64
    code, _, _ = run(["reduce", "--fragment", "1,3,q"])
    assert code == 64
    code, _, _ = run(["reduce", "--theory", str(tmp_path / "missing.thy")])
    assert code == 64


def test_reduce_negative_max_depth_is_usage_error():
    code, out, err = run(["reduce", "--fragment", "1,3,c",
                          "--max-depth", "-1"])
    assert code == 64
    assert out == ""
    assert "must not be negative" in err


def test_reduce_theory_with_twelve_interchangeable_body_atoms(tmp_path,
                                                             monkeypatch):
    # The long clause's body atoms tie at every step of its canonical
    # serialization; branching on each of them cost 12! leaves per call.
    body = ", ".join(f"P{i}(x,y)" for i in range(1, 13))
    path = tmp_path / "symmetric.thy"
    path.write_text(f"P0(x,y) :- P1(x,y).\nP0(x,y) :- {body}.\n",
                    encoding="utf-8")
    calls = []
    atom_key = hornreduce.clauses._atom_key
    monkeypatch.setattr(hornreduce.clauses, "_atom_key",
                        lambda *a: calls.append(1) or atom_key(*a))
    code, out, _ = run(["reduce", "--theory", str(path)])
    assert code == 0
    core = json.loads(out)["core"]
    assert [parse_clause(c).body_size for c in core] == [1, 12]
    assert len(calls) < 1000


def symmetric_theory(n: int) -> str:
    # A symmetric line of n atoms, derivable in one step from an n-1 line
    # and a two-atom clause: only splits moving two atoms fit their shapes.
    line = ", ".join(f"P{i}(x,y)" for i in range(1, n + 1))
    near = ", ".join(f"P{i}(x,y)" for i in range(1, n - 1))
    return ("P0(x,y) :- P1(x,y).\n" f"P0(x,y) :- {line}.\n"
            f"P0(x,y) :- R(x), {near}.\n" "S(x) :- P1(x,y), P2(x,y).\n")


# stdout sha256 of ``reduce --theory`` on symmetric_theory(10), captured
# before the inverse search was shape-directed; that search yielded 12,469
# premise pairs there, doubling per body atom.
SYMMETRIC_10_SHA256 = \
    "2970216154e25101a0a96e3ed3c4204d84c94fab03a273ff68ca07ca29583e6b"


@pytest.mark.parametrize("n", [10, 24])
def test_reduce_theory_with_long_symmetric_lines(tmp_path, monkeypatch, n):
    path = tmp_path / "symmetric.thy"
    path.write_text(symmetric_theory(n), encoding="utf-8")
    yielded = []
    candidates = hornreduce.resolution.single_step_candidates
    monkeypatch.setattr(hornreduce.resolution, "single_step_candidates",
                        lambda *a: (yielded.append(p) or p
                                    for p in candidates(*a)))
    code, out, _ = run(["reduce", "--theory", str(path)])
    assert code == 0
    # The first pair fitting the theory's shapes derives the long line;
    # the other clauses' searches build no pair at all.
    assert len(yielded) <= 10
    if n == 10:
        assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRIC_10_SHA256
    payload = json.loads(out)
    assert [parse_clause(c).body_size for c in payload["core"]] == [1, 2, n - 1]
    assert [parse_clause(r["clause"]).body_size
            for r in payload["removed"]] == [n]


def prefix_theory(n: int) -> str:
    # A symmetric line of n atoms, its n-1 prefix and a two-atom clause.
    line = [", ".join(f"P{i}(x,y)" for i in range(1, m + 1))
            for m in (n, n - 1)]
    return (f"P0(x,y) :- {line[0]}.\nP0(x,y) :- {line[1]}.\n"
            "S(x,y) :- P1(x,y), P2(x,y).\n")


def test_reduce_theory_symmetric_line_beside_its_prefix(tmp_path):
    # A failing match against a long line backtracks over every order of
    # its interchangeable atoms, so matching every same-shape member made
    # this run factorial in n; pivot domains leave only the premises whose
    # pivot is P(x,y).  n = 10 is pinned byte for byte in
    # reduce_derive_golden.json.
    n = 24
    path = tmp_path / "prefix.thy"
    path.write_text(prefix_theory(n), encoding="utf-8")
    code, out, _ = run(["reduce", "--theory", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert [parse_clause(c).body_size for c in payload["core"]] == [2, n - 1]
    assert [parse_clause(r["clause"]).body_size
            for r in payload["removed"]] == [n]


# stdout sha256 of ``reduce --theory --mode standard`` on the prefix theory
# at n = 24, captured while closure factored every body pair (14,649
# ``factor`` calls, 19.7 s).
PREFIX_24_STANDARD_SHA256 = \
    "6ef8c3c87e576cb66b472fe3d60eb061bab13fbc86349c129b9c6ffa2066b6fb"


def test_reduce_standard_factors_one_pair_per_orbit_pair(tmp_path,
                                                         monkeypatch):
    # Each symmetric line's C(n, 2) factors are one clause up to renaming.
    path = tmp_path / "prefix.thy"
    path.write_text(prefix_theory(24), encoding="utf-8")
    calls = []
    factor = hornreduce.resolution.factor
    monkeypatch.setattr(hornreduce.resolution, "factor",
                        lambda *a: calls.append(1) or factor(*a))
    code, out, _ = run(["reduce", "--theory", str(path),
                        "--mode", "standard"])
    assert code == 0
    assert len(calls) <= 100  # 85
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PREFIX_24_STANDARD_SHA256


# stdout sha256 of ``reduce --theory --mode standard --max-clauses 1000000``
# on the prefix theory at n = 14, captured while a cap turned orbit pruning
# of factoring off (2,429 ``factor`` calls).
PREFIX_14_CAPPED_SHA256 = \
    "76a28813c24cdbb2d6b21ba5761e033552bf334ea8475e6c842574218f3ea148"


def test_reduce_standard_prunes_factoring_under_a_cap(tmp_path, monkeypatch):
    # A cap the run never reaches factors no more pairs than no cap: a
    # duplicate pair is skipped while the cap is not reached.
    path = tmp_path / "prefix.thy"
    path.write_text(prefix_theory(14), encoding="utf-8")
    calls = []
    factor = hornreduce.resolution.factor
    monkeypatch.setattr(hornreduce.resolution, "factor",
                        lambda *a: calls.append(1) or factor(*a))
    argv = ["reduce", "--theory", str(path), "--mode", "standard"]
    code, _, _ = run(argv)
    assert (code, len(calls)) == (0, 45)
    calls.clear()
    code, out, _ = run(argv + ["--max-clauses", "1000000"])
    assert (code, len(calls)) == (0, 45)
    assert hashlib.sha256(out.encode()).hexdigest() == PREFIX_14_CAPPED_SHA256


@pytest.mark.parametrize("fragment, bound", [
    ("2,2,c", 560),  # 546
    ("3,1,2c", 320),  # 310
    ("2,2,2c", 280),  # 270
], ids=["2,2,c", "3,1,2c", "2,2,2c"])
def test_reduce_matches_only_premises_whose_pivot_domains_fit(
        monkeypatch, fragment, bound):
    # A count, not a time: matching every same-shape member of each
    # candidate premise made 3,338 calls on 2,2,c, and binding only the
    # first position of a repeated variable 327 on 3,1,2c and 283 on
    # 2,2,2c.
    calls = []
    match = hornreduce.resolution.is_instance
    monkeypatch.setattr(hornreduce.resolution, "is_instance",
                        lambda c, d: calls.append(1) or match(c, d))
    code, _, _ = run(["reduce", "--fragment", fragment])
    assert code == 0
    assert len(calls) <= bound


def test_reduce_stdout_is_deterministic():
    first = run(["reduce", "--fragment", "1,3,c"])
    second = run(["reduce", "--fragment", "1,3,c"])
    assert first[1] == second[1]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_base_clause_irreducible_exit_zero():
    code, out, err = run(["check", "--clause", str(c_base()),
                          "--mode", "sld", "--arity-cap", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "irreducible"
    assert "irreducible" in err


def test_check_reducible_clause_exit_one():
    code, out, _ = run(["check", "--clause", "P0(a) :- P1(a), P2(a), P3(a).",
                        "--fragment-class", "c", "--arity-cap", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] == "reducible"
    witness = payload["witness"]
    assert parse_clause(witness["c1"]).body_size < 3
    assert parse_clause(witness["c2"]).body_size < 3


def test_check_standard_mode_emits_replayable_proof():
    code, out, _ = run(["check", "--clause", str(c_base()),
                        "--mode", "standard", "--arity-cap", "2"])
    assert code == 1
    payload = json.loads(out)
    proof = proof_from_json_dict(payload["proof"])
    assert replay_proof(proof)
    assert alpha_equivalent(proof.conclusion, c_base())


def test_check_inconclusive_on_tiny_pool_cap():
    code, out, err = run(["check", "--clause", str(c_base()),
                          "--method", "forward", "--arity-cap", "2",
                          "--max-pool", "10"])
    assert code == 2
    assert json.loads(out)["result"] == "inconclusive"
    assert "inconclusive" in err


def test_check_negative_max_factor_is_usage_error():
    code, out, err = run(["check", "--clause", str(c_base()),
                          "--max-factor", "-1"])
    assert code == 64
    assert out == ""
    assert "must not be negative" in err


def test_check_parse_error_exit_sixtyfive():
    code, _, err = run(["check", "--clause", "P0(a :- P1(a)."])
    assert code == 65
    assert "parse error" in err


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------

def test_derive_found(tmp_path):
    path = write_chain_theory(tmp_path, length=2)
    code, out, _ = run(["derive", "--theory", str(path),
                        "--goal", "P0(z) :- P1(z), P2(z), P3(z)."])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "found"
    proof = proof_from_json_dict(payload["proof"])
    theory = Theory(parse_clause(line)
                    for line in (path.read_text().splitlines()))
    assert replay_proof(proof, theory)


def test_derive_unknown_within_bounds(tmp_path):
    path = write_chain_theory(tmp_path, length=1)
    code, out, err = run(["derive", "--theory", str(path),
                          "--goal", "P0(a) :- P1(a), P2(a)."])
    assert code == 2
    assert json.loads(out)["result"] == "unknown"
    assert "not found within bounds" in err


def test_derive_conclusively_not_derivable(tmp_path):
    path = tmp_path / "one.thy"
    path.write_text("P0(a) :- P1(a).\n", encoding="utf-8")
    code, out, _ = run(["derive", "--theory", str(path),
                        "--goal", "G0(a,b) :- G1(a,b).", "--max-depth", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] == "not-derivable"
    assert payload["truncated"] is False


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_report_two_connected():
    code, out, _ = run(["graph", "--clause", "P0(a,b) :- P1(a,c), P2(b,c)."])
    assert code == 0
    assert "connected: yes" in out
    assert "two-connected: yes" in out
    assert "pending: (none)" in out


def test_graph_report_pending_and_disconnected():
    code, out, _ = run(["graph", "--clause", "P0(a) :- P1(a,b)."])
    assert code == 0
    assert "two-connected: no" in out
    assert "pending: b" in out
    code, out, _ = run(["graph", "--clause", "P0(a) :- P1(a), P2(b), P3(b)."])
    assert code == 0
    assert "connected: no" in out


def test_graph_dot_output():
    code, out, _ = run(["graph", "--clause", "P0(a,b) :- P1(a,c), P2(b,c).",
                        "--dot"])
    assert code == 0
    assert out.startswith("graph clause {")
    assert out.rstrip().endswith("}")
    assert 'v0 -- v1 [label="a"];' in out
    assert 'role="head"' in out


def test_graph_is_total_on_clause_text():
    # every text either reads as a clause or is a parse error with no
    # output; "--clause=" keeps a text that starts with "-" an argument
    rng = random.Random(47)
    for _ in range(1_000):
        text = token_soup(rng)
        code, out, _ = run(["graph", f"--clause={text}"])
        assert code in (0, 65), text
        assert code == 0 or out == "", text


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------

def test_extend_single_pair_worked_example():
    code, out, _ = run(["extend",
                        "--clause", "H0(x1) :- P1(x1,x2), P2(x1,x3).",
                        "--pairs", "0,1"])
    assert code == 0
    assert out == ("H0(x1) :- P1(x1,x4), P2(x1,x5), P3(x4,x5), "
                   "P4(x4,x2), P5(x5,x3).\n")


def test_extend_depth_matches_family():
    code, out, _ = run(["extend", "--clause", str(c_base()), "--depth", "1"])
    assert code == 0
    got = {canonical_key(parse_clause(line)) for line in out.splitlines()}
    want = {canonical_key(m) for m in hnr_family(1)}
    assert got == want


def test_extend_validates_flags():
    clause = str(c_base())
    code, _, _ = run(["extend", "--clause", clause])
    assert code == 64
    code, _, _ = run(["extend", "--clause", clause, "--pairs", "0,1",
                      "--depth", "1"])
    assert code == 64
    code, _, _ = run(["extend", "--clause", clause, "--pairs", "0"])
    assert code == 64
    code, _, err = run(["extend", "--clause", clause, "--pairs", "0,3"])
    assert code == 64 and "share" in err
    code, _, _ = run(["extend", "--clause", clause, "--depth", "-1"])
    assert code == 64


def test_open_chain_is_irreducible_without_walking_cuts(monkeypatch):
    # x999 sits in one literal, so with no overlap no cut can give two
    # two-connected premises; walking the 2^n cuts never ended at n = 1,000.
    n = 1000
    clause = "P0(x0) :- " + ", ".join(
        f"P{i}(x{i - 1},x{i})" for i in range(1, n)) + "."
    calls = []
    pending = hornreduce.reduction._pending
    monkeypatch.setattr(hornreduce.reduction, "_pending",
                        lambda *a: calls.append(1) or pending(*a))
    code, out, _ = run(["check", "--clause", clause])
    assert code == 0
    assert json.loads(out)["result"] == "irreducible"
    assert calls == []


def test_over_long_clause_is_inconclusive(monkeypatch):
    # Exhausting the recursion limit is "inconclusive within resource
    # bounds", not a traceback.  No search recurses per body atom any more,
    # so the overflow is raised where every command passes.
    def overflow(text):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(hornreduce.cli, "parse_clause", overflow)
    clause = "P(x1,x3) :- R1(x1,x2), R2(x2,x3)."
    for argv in (["check", "--clause", clause],
                 ["extend", "--clause", clause, "--depth", "0"]):
        code, out, err = run(argv)
        assert code == 2, argv[0]
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_thousand_atom_chains_are_decided():
    # Matching and keying have no Python frame per body atom: these runs
    # overflowed the recursion limit and exited 2.
    n = 1000
    closed = f"P(x1,x{n}) :- " + ", ".join(
        f"R{i}(x{i},x{i + 1})" for i in range(1, n)) + "."
    open_ = "P0(x0) :- " + ", ".join(
        f"P{i}(x{i - 1},x{i})" for i in range(1, n)) + "."
    for argv in (["check", "--clause", closed],
                 ["check", "--clause", open_, "--fragment-class", "c"]):
        code, out, _ = run(argv)
        assert code == 1 and json.loads(out)["result"] == "reducible"
    code, out, err = run(["extend", "--clause", open_, "--depth", "0"])
    assert code == 0 and "1 extension(s) at depth 0" in err
    assert alpha_equivalent(parse_clause(out), parse_clause(open_))


# ---------------------------------------------------------------------------
# Frozen check/extend output
# ---------------------------------------------------------------------------

# Exit codes and stdout of command lines, pinned by sha256 for large
# payloads.  ``cli_golden.json`` holds check and extend lines captured before
# the sld and standard searches were merged into one: the base, chain,
# dyadic 3-cycle and triadic clauses under both modes, both methods and the
# c/2c premise classes, the inconclusive pool cap, the target-directed
# forward fallback, and extension depths 0-2; it also holds graph lines,
# report and --dot, captured before clause-graph edges were built from
# literal masks: a clause with parallel edges, one whose atoms repeat a
# variable (one of them pending), a disconnected one, and the base and
# triadic clauses.  ``reduce_derive_golden.json``
# holds reduce and derive lines captured before each clause's canonical key
# got one owner: fragments 2,2,c and 2,3,c in sld mode and 1,4,c in
# standard mode, the README's three-clause theory in both modes, and derive
# cases answering found (one step, a depth-2 closure, a standard
# factoring), not-derivable and unknown; it also holds derive lines
# captured before the inverse search was shape-directed: body-3 and body-4
# horn_c(2,4) goals from the 4-clause horn_c(2,3) core with max body 5,
# standard mode at depth 1 and sld mode at depth 2, found and unknown (no
# goal is not-derivable there: the core's first closure level is never
# empty); and reduce lines captured before removal proofs shared one
# record of replayed steps: fragments 3,1,2c and 2,2,2c, whose spliced
# proofs are the longest, and 2,2,c in standard mode; and reduce lines
# captured before the inverse search filtered members by pivot domains:
# a symmetric 10-atom line beside its 9-atom prefix and a two-atom
# clause, in both modes.  A case with a ``theory`` runs with the text written to a file
# whose path replaces the argv token ``THEORY``.
GOLDEN = [case for name in ("cli_golden.json", "reduce_derive_golden.json")
          for case in json.loads((Path(__file__).parent / "data" / name)
                                 .read_text(encoding="utf-8"))]


def assert_golden(case, tmp_path):
    argv = case["argv"]
    if "theory" in case:
        path = tmp_path / "theory.thy"
        path.write_text(case["theory"], encoding="utf-8")
        argv = [str(path) if a == "THEORY" else a for a in argv]
    code, out, _ = run(argv)
    assert code == case["exit"]
    if "stdout_sha256" in case:
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
    else:
        assert out == case["stdout"]


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{i:02d}-{c['argv'][0]}"
                              for i, c in enumerate(GOLDEN)])
def test_check_and_extend_stdout_is_frozen(case, tmp_path):
    assert_golden(case, tmp_path)


# ---------------------------------------------------------------------------
# JSON stdout
# ---------------------------------------------------------------------------

def _dumps_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_SPECIAL_CHARS = st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001f600')
_JSON_STRINGS = st.lists(
    st.one_of(st.characters(), _SPECIAL_CHARS,
              st.integers(0xD800, 0xDFFF).map(chr)),  # lone surrogates
    max_size=6).map("".join)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**64, 2**200), st.integers(-2**200, -2**64),
    _JSON_STRINGS, st.sampled_from([{}, [], ()]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(obj=_JSON_VALUES)
def test_json_text_writes_the_bytes_of_json_dumps(obj):
    assert _json_text(obj) == _dumps_text(obj)


@pytest.mark.parametrize("obj", [1.5, {1, 2}, {1: "a"}, object(),
                                 {"a": [0, (None, 2.0)]}],
                         ids=["float", "set", "int-key", "object", "nested"])
def test_json_text_accepts_only_the_payload_types(obj):
    # json.dumps would write a float, and an int key as a string; the CLI's
    # payloads hold neither, so the emitter refuses them.
    with pytest.raises(TypeError):
        _json_text(obj)


def _old_proof_json(proof: Proof) -> dict:
    """The reference for proof_to_json_dict: every value of every step
    built afresh, in the same key order."""
    refs = {}
    for i, inp in enumerate(proof.inputs):
        refs.setdefault(inp, ("input", i))
    steps = []
    for j, step in enumerate(proof.steps):
        entry = {"kind": step.kind,
                 "premises": [list(refs[p]) for p in step.premises],
                 "conclusion": step.conclusion.text()}
        if step.body_index is not None:
            entry["body_index"] = step.body_index
        if step.factor_indices is not None:
            entry["factor_indices"] = list(step.factor_indices)
        if step.pivot is not None:
            entry["pivot"] = step.pivot.text()
        if step.unifier is not None:
            entry["unifier"] = step.unifier.to_json_dict()
        steps.append(entry)
        refs.setdefault(step.conclusion, ("step", j))
    return {"inputs": [c.text() for c in proof.inputs], "steps": steps,
            "conclusion": proof.conclusion.text()}


# horn_2c(2,2) in standard mode removes clauses by factoring; every
# reduce splices proofs that share steps, and some resolve a member
# against itself, so their inputs repeat.
_PROOF_POOL = list(dict.fromkeys(
    enumerate_fragment(horn_c(2, 2)) + enumerate_fragment(horn_2c(2, 2))
    + enumerate_fragment(horn_c(1, 4))))


@settings(max_examples=60, deadline=None, derandomize=True)
@example(members=list(enumerate_fragment(horn_2c(2, 2))), mode="standard")
@given(members=st.lists(st.sampled_from(_PROOF_POOL), min_size=2,
                        max_size=24, unique=True),
       mode=st.sampled_from(MODES))
def test_shared_proof_dicts_print_as_json_dumps_prints_them(members, mode):
    # Spliced proofs share steps, so their dicts share unifier dicts; the
    # dicts equal the old ones, key order included, and print as
    # json.dumps prints them, also when one proof sits at two depths.
    report = reduce_theory(members, mode)
    proofs = [p for _, p in report.removed]
    dicts = [proof_to_json_dict(p) for p in proofs]
    for p, d in zip(proofs, dicts):
        old = _old_proof_json(p)
        assert d == old
        assert [list(e) for e in d["steps"]] == [list(e) for e in old["steps"]]
    payload = {"removed": [{"clause": str(c), "proof": d}
                           for (c, _), d in zip(report.removed, dicts)],
               "again": dicts[:3], "deeper": [{"proofs": dicts[-2:]}]}
    assert _json_text(payload) == _dumps_text(payload)


def test_proof_dicts_with_repeated_inputs_and_factoring():
    # Hand-built: inputs that repeat (a premise refers to the first), a
    # factoring step, a step listed twice (its second copy refers back to
    # the same premises) and a proof without steps.
    c = cl("P(x) :- Q(x,y), Q(x,z), R(z).")
    fac = factor(c, 0, 1)
    fin = unify_onto(fac.conclusion, cl("P(u) :- Q(u,u), R(u)."))
    proofs = [Proof((c, c), (fac, fac, fin), fin.conclusion),
              Proof((c,), (), c)]
    dicts = [proof_to_json_dict(p) for p in proofs]
    assert dicts == [_old_proof_json(p) for p in proofs]
    assert dicts[0]["steps"][1]["premises"] == [["input", 0]]
    payload = {"proofs": dicts, "one": dicts[0]}
    assert _json_text(payload) == _dumps_text(payload)
    with pytest.raises(ValueError):
        proof_to_json_dict(Proof((), (fac,), fac.conclusion))


def test_proof_dicts_are_new_down_to_the_premise_refs():
    # Changing one result's steps and refs leaves the next result as it was.
    c = cl("P(x) :- Q(x,y), Q(x,z), R(z).")
    fac = factor(c, 0, 1)
    proof = Proof((c,), (fac,), fac.conclusion)
    first = proof_to_json_dict(proof)
    first["steps"][0]["kind"] = "edited"
    first["steps"][0]["premises"][0][1] = 7
    first["steps"].append({})
    assert proof_to_json_dict(proof) == _old_proof_json(proof)


def test_reduce_builds_each_shared_step_once(monkeypatch):
    # reduce --fragment 2,2,c prints 711 steps of 108 step objects; the
    # fields besides the premises are built once per object.
    calls, built = [], []
    fields = hornreduce.resolution._step_json_fields

    def counted(step):
        calls.append(step)
        if step._json_fields is None:
            built.append(step)
        return fields(step)

    monkeypatch.setattr(hornreduce.resolution, "_step_json_fields", counted)
    code, out, _ = run(["reduce", "--fragment", "2,2,c"])
    assert code == 0
    removed = json.loads(out)["removed"]
    assert sum(len(r["proof"]["steps"]) for r in removed) == len(calls) == 711
    assert len(built) == len({id(step) for step in calls}) == 108


_BASE = str(c_base())
_NO_DUMPS_ARGV = [
    ["reduce", "--fragment", "2,2,c"],
    ["check", "--clause", _BASE, "--mode", "sld", "--method", "partition",
     "--fragment-class", "c"],
    ["check", "--clause", _BASE, "--mode", "standard", "--method",
     "partition", "--fragment-class", "c"],
    ["derive", "--theory", "THEORY", "--goal", "P0(z) :- P1(z), P2(z), P3(z)."],
]
NO_DUMPS_CASES = [case for case in GOLDEN if case["argv"] in _NO_DUMPS_ARGV]


def test_json_stdout_does_not_use_json_dumps(tmp_path, monkeypatch):
    # With json.dumps refusing, every JSON verb still prints its old bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("stdout went through json.dumps")
    monkeypatch.setattr(hornreduce.cli.json, "dumps", refuse)
    assert len(NO_DUMPS_CASES) == len(_NO_DUMPS_ARGV)
    for case in NO_DUMPS_CASES:
        assert_golden(case, tmp_path)
    code, out, _ = run(["enumerate", "--arity", "2", "--body", "2",
                        "--connected", "--json"])
    monkeypatch.undo()
    assert code == 0
    assert out == _dumps_text(json.loads(out))


# ---------------------------------------------------------------------------
# Shared behavior
# ---------------------------------------------------------------------------

def test_help_exits_zero():
    code, out, _ = run(["--help"])
    assert code == 0
    assert "usage" in out.lower()


def test_timing_goes_to_stderr_only():
    code, out, err = run(["enumerate", "--arity", "1", "--body", "1"])
    assert code == 0
    assert "completed in" in err
    assert "completed in" not in out


def test_theory_file_parse_error(tmp_path):
    path = tmp_path / "bad.thy"
    path.write_text("P0(a) :- nonsense(.\n", encoding="utf-8")
    code, _, err = run(["reduce", "--theory", str(path)])
    assert code == 65
    assert "parse error" in err


@pytest.mark.parametrize("argv", [["reduce"], ["derive", "--goal", "P0(a)."]],
                         ids=["reduce", "derive"])
def test_theory_file_not_utf8_is_parse_error(tmp_path, argv):
    path = tmp_path / "latin1.thy"
    path.write_bytes(b"P0(a) :- P1(a).\n\xff\n")
    code, out, err = run(argv + ["--theory", str(path)])
    assert (code, out) == (65, "")
    assert err.startswith("parse error: theory file is not UTF-8")
