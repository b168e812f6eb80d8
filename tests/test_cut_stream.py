"""The partition decider's candidate premise stream, pinned bit for bit.

``tests/data/cut_stream_golden.json`` was captured from the code that
counted each cut's pending variables in per-cut occurrence dicts, before
the counts came from per-variable body bitmasks.  It holds the sha256 of
the text of every ``(first, second, fpairs)`` triple ``_cut_premises``
yields, in order, per corpus group, premise class, pivot arity cap
(the class arity and one more), overlap cap (0-2) and pivot policy, plus
the exit code and stdout of ``check`` on the first depth-3 extension
family member in both modes (sld irreducible, standard reducible).

Regenerate only from code whose stream is known to be right::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_cut_stream as t; t.write_golden()"
"""

import hashlib
import json
from pathlib import Path

import pytest

from hornreduce.cli import run
from hornreduce.clauses import parse_clause
from hornreduce.fragments import enumerate_fragment, horn, horn_2c, horn_c
from hornreduce.reduction import (
    _cut_premises,
    c_base,
    hnr_family,
    triadic_counterexample,
)
from hornreduce.resolution import factor, resolve

GOLDEN_PATH = Path(__file__).parent / "data" / "cut_stream_golden.json"
CLASSES = {"any": horn, "c": horn_c, "2c": horn_2c}
POLICIES = {"default": False, "exhaustive": True}


def _body3(spec, step):
    """Every ``step``-th member of the fragment with at least three body
    atoms, in enumeration order."""
    return [c for c in enumerate_fragment(spec) if c.body_size >= 3][::step]


# group name -> (function returning its clauses, pivot policies).  The exhaustive policy
# builds premises for every cut with a crossing variable (a quarter of a
# million on a depth-1 family member), so family members run the default
# policy only; the depth-3 member below also runs the 2c class only.
GROUPS = {
    "c_base": (lambda: [c_base()], POLICIES),
    "triadic": (lambda: [triadic_counterexample()], POLICIES),
    "horn_c(2,3)/8": (lambda: _body3(horn_c(2, 3), 8), POLICIES),
    "horn_2c(2,3)/6": (lambda: _body3(horn_2c(2, 3), 6), POLICIES),
    "horn(2,3)": (lambda: _body3(horn(2, 3), 1), POLICIES),
    "horn_c(1,4)": (lambda: _body3(horn_c(1, 4), 1), POLICIES),
    "hnr_family(1)/4": (lambda: list(hnr_family(1)[::4]), ("default",)),
    "hnr_family(2)[0]": (lambda: [hnr_family(2)[0]], ("default",)),
}


def stream_digests(clauses, policies, classes=tuple(CLASSES)) -> dict:
    """Count and sha256 of the premise stream of ``clauses`` per premise
    class, cap surplus, overlap cap and policy."""
    out = {}
    for cls in classes:
        build = CLASSES[cls]
        for extra in (0, 1):
            for overlap in (0, 1, 2):
                for policy in policies:
                    h, n = hashlib.sha256(), 0
                    for c in clauses:
                        frag = build(c.max_arity(), c.body_size)
                        h.update(f"# {c}\n".encode())
                        for first, second, fpairs in _cut_premises(
                                c, frag, frag.max_arity + extra, overlap,
                                POLICIES[policy]):
                            h.update(f"{first}|{second}|{fpairs}\n".encode())
                            n += 1
                    key = f"{cls}|cap+{extra}|overlap {overlap}|{policy}"
                    out[key] = {"count": n, "sha256": h.hexdigest()}
    return out


def check_argvs(clause_text: str) -> list[list[str]]:
    return [["check", "--clause", clause_text, "--mode", mode]
            for mode in ("sld", "standard")]


def write_golden() -> None:
    """Capture the golden file from the code on ``sys.path``."""
    family3_first = str(hnr_family(3)[0])
    golden = {
        "groups": {name: stream_digests(build(), policies)
                   for name, (build, policies) in GROUPS.items()},
        "family3_first": family3_first,
        "family3_streams": stream_digests([parse_clause(family3_first)],
                                          ("default",), ("2c",)),
        "check": [dict(zip(("argv", "exit", "stdout"),
                           (argv,) + run(argv)[:2]))
                  for argv in check_argvs(family3_first)],
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_premise_stream_is_frozen(name):
    build, policies = GROUPS[name]
    assert stream_digests(build(), policies) == GOLDEN["groups"][name]


def test_family3_premise_stream_is_frozen():
    c = parse_clause(GOLDEN["family3_first"])
    assert c.body_size == 14
    assert stream_digests([c], ("default",), ("2c",)) == \
        GOLDEN["family3_streams"]


def test_family3_check_is_frozen():
    cases = GOLDEN["check"]
    assert [case["argv"] for case in cases] == \
        check_argvs(GOLDEN["family3_first"])
    assert [case["exit"] for case in cases] == [0, 1]
    for case in cases:
        code, out, _ = run(case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])


def test_every_candidate_resolves_and_factors(corpus_c24, corpus_2c24):
    """``first``'s pivot is ``second``'s head and each factor pair two
    copies of one overlap atom, so ``_cut_hits`` never meets a failed
    inference: on every candidate, resolving on the pivot and then each
    factoring give a step."""
    clauses = ([c_base(), triadic_counterexample()]
               + [c for c in corpus_c24 if c.body_size >= 3][::100]
               + [c for c in corpus_2c24 if c.body_size >= 3][::80])
    n = 0
    for c in clauses:
        for build in CLASSES.values():
            frag = build(c.max_arity(), c.body_size)
            for overlap in (0, 1, 2):
                for exhaustive in POLICIES.values():
                    for first, second, fpairs in _cut_premises(
                            c, frag, frag.max_arity, overlap, exhaustive):
                        step = resolve(first, second, 0)
                        assert step is not None, (first, second)
                        for i, j in fpairs:
                            step = factor(step.conclusion, i, j)
                            assert step is not None, (first, second, i, j)
                        n += 1
    assert (len(clauses), n) == (27, 13170)
