"""The partition decider's candidate premise stream, pinned bit for bit.

``tests/data/cut_stream_golden.json`` was captured from the code that
counted each cut's pending variables in per-cut occurrence dicts, before
the counts came from per-variable body bitmasks.  It holds the sha256 of
the text of every ``(first, second, fpairs)`` triple ``_cut_premises``
yields, in order, per corpus group, premise class, pivot arity cap
(the class arity and one more), overlap cap (0-2) and pivot policy, plus
the exit code and stdout of ``check`` on the first depth-3 extension
family member in both modes (sld irreducible, standard reducible).  The
pruned cut walk is also compared with the unpruned walk it replaces, on
seeded random clauses.

Regenerate only from code whose stream is known to be right::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_cut_stream as t; t.write_golden()"
"""

import hashlib
import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import hornreduce.reduction
from hornreduce.cli import run
from hornreduce.clauses import Atom, HornClause, fresh_names, parse_clause
from hornreduce.fragments import (
    enumerate_fragment,
    horn,
    horn_2c,
    horn_c,
    member,
)
from hornreduce.reduction import (
    _cut_premises,
    _pivot_arg_sets,
    _var_masks,
    c_base,
    hnr_family,
    is_reducible,
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


def reference_cut_premises(c, fragment, arity_cap, overlap_cap, exhaustive):
    """``_cut_premises`` without pruned branches: every side-2 pick of
    ``itertools.combinations``, each cut tested by its own pivot argument
    sets (the default policy's ``_pending``)."""
    b = c.body_size
    if c.head is None or b < 2:
        return
    mem = replace(fragment, most_general=False, distinct_predvars=False)
    masks = _var_masks(c)
    if (fragment.two_connected and overlap_cap == 0
            and any(m.bit_count() + h < 2 for _, m, h in masks)):
        return
    full = (1 << b) - 1
    pivot_name = next(fresh_names("Q", {p.name for p in c.pred_vars()}))
    positions = tuple(range(b))
    for o_size in range(min(overlap_cap, b) + 1):
        for overlap in itertools.combinations(positions, o_size):
            om = sum(1 << p for p in overlap)
            rest = tuple(1 << p for p in positions if p not in overlap)
            for b_only_size in range(2, len(rest) + 1):
                if o_size + b_only_size >= b:
                    break
                for b_only in itertools.combinations(rest, b_only_size):
                    bm = om + sum(b_only)
                    am = (full ^ bm) | om
                    a_pos = [p for p in positions if am >> p & 1]
                    b_pos = [p for p in positions if bm >> p & 1]
                    fpairs = tuple(sorted(
                        ((b_pos.index(p), len(b_pos) + a_pos.index(p))
                         for p in overlap),
                        key=lambda t: -t[1]))
                    for args in _pivot_arg_sets(masks, am, bm, fragment,
                                                arity_cap, exhaustive):
                        pivot = Atom.of(pivot_name, *args)
                        first = HornClause(
                            c.head, (pivot,) + tuple(c.body[p] for p in a_pos))
                        second = HornClause(
                            pivot, tuple(c.body[p] for p in b_pos))
                        if member(mem, first) and member(mem, second):
                            yield first, second, fpairs


def random_headed_clause(rng: random.Random) -> HornClause:
    """A headed clause of 2-7 body atoms of arity 1-3 over a few variables,
    so that variables sit in 1-5 literals and atoms may repeat one."""
    names = [f"x{k}" for k in range(rng.randint(2, 6))]

    def atom(k):
        return Atom.of(f"P{k}", *rng.choices(names, k=rng.randint(1, 3)))

    body = tuple(atom(k) for k in range(1, rng.randint(3, 8)))
    return HornClause(atom(0), body)


def test_pruned_cut_walk_matches_the_unpruned_walk():
    # Pruning drops only cuts the default policy rejects, and the walk
    # yields the survivors in combinations order, so the streams are equal.
    # The exhaustive policy never prunes, and its premises multiply with
    # the body, so it runs up to five atoms.
    rng = random.Random(23)
    counts = {k: 0 for k in range(1, 6)}
    candidates = 0
    for _ in range(60):
        c = random_headed_clause(rng)
        for _, m, h in _var_masks(c):
            counts[min(m.bit_count() + h, 5)] += 1
        policies = (False, True) if c.body_size <= 5 else (False,)
        for build in CLASSES.values():
            frag = build(c.max_arity(), c.body_size)
            for arity_cap in (1, 2, 3):
                for overlap in (0, 1, 2):
                    for exhaustive in policies:
                        args = (c, frag, arity_cap, overlap, exhaustive)
                        got = list(_cut_premises(*args))
                        assert got == list(reference_cut_premises(*args)), \
                            (str(c), arity_cap, overlap, exhaustive)
                        candidates += len(got)
    assert all(counts.values()), counts
    assert candidates > 10000


def test_family_member_walk_reads_few_cuts(monkeypatch):
    # The body-11 member crosses more than two light variables on most
    # branches: the unpruned walk tested 2,035 cuts, the pruned one 89.
    calls = []
    pending = hornreduce.reduction._pending
    monkeypatch.setattr(hornreduce.reduction, "_pending",
                        lambda *a: calls.append(1) or pending(*a))
    assert is_reducible(hnr_family(2)[0], "sld", horn_2c(2, 11)) is None
    assert len(calls) == 89
