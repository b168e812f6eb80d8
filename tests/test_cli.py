"""End-to-end command-line interface behavior."""

import hashlib
import json
from pathlib import Path

import pytest

import hornreduce.clauses
import hornreduce.resolution
from hornreduce.clauses import Theory, alpha_equivalent, canonical_key, parse_clause
from hornreduce.fragments import enumerate_fragment, horn_2c
from hornreduce.cli import run
from hornreduce.reduction import c_base, hnr_family
from hornreduce.resolution import proof_from_json_dict, replay_proof

from conftest import cl


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


def test_over_long_clause_is_inconclusive():
    # a 1,000-atom chain overflows the recursion limit; the verdict is
    # "inconclusive within resource bounds", not a traceback
    n = 1000
    clause = f"P(x1,x{n}) :- " + ", ".join(
        f"R{i}(x{i},x{i + 1})" for i in range(1, n)) + "."
    for argv in (["check", "--clause", clause],
                 ["extend", "--clause", clause, "--depth", "0"]):
        code, out, err = run(argv)
        assert code == 2, argv[0]
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Frozen check/extend output
# ---------------------------------------------------------------------------

# Exit codes and stdout of command lines, pinned by sha256 for large
# payloads.  ``cli_golden.json`` holds check and extend lines captured before
# the sld and standard searches were merged into one: the base, chain,
# dyadic 3-cycle and triadic clauses under both modes, both methods and the
# c/2c premise classes, the inconclusive pool cap, the target-directed
# forward fallback, and extension depths 0-2.  ``reduce_derive_golden.json``
# holds reduce and derive lines captured before each clause's canonical key
# got one owner: fragments 2,2,c and 2,3,c in sld mode and 1,4,c in
# standard mode, the README's three-clause theory in both modes, and derive
# cases answering found (one step, a depth-2 closure, a standard
# factoring), not-derivable and unknown; it also holds derive lines
# captured before the inverse search was shape-directed: body-3 and body-4
# horn_c(2,4) goals from the 4-clause horn_c(2,3) core with max body 5,
# standard mode at depth 1 and sld mode at depth 2, found and unknown (no
# goal is not-derivable there: the core's first closure level is never
# empty).  A case with a ``theory`` runs with the text written to a file
# whose path replaces the argv token ``THEORY``.
GOLDEN = [case for name in ("cli_golden.json", "reduce_derive_golden.json")
          for case in json.loads((Path(__file__).parent / "data" / name)
                                 .read_text(encoding="utf-8"))]


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{i:02d}-{c['argv'][0]}"
                              for i, c in enumerate(GOLDEN)])
def test_check_and_extend_stdout_is_frozen(case, tmp_path):
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
