"""The four benchmark workloads.

A workload turns a seed into a list of units, each one program call with
its own inputs and expected answer.  A run repeats the whole list in rounds
(``run_round``), every round in a new seeded order.  Between calls it times
the reference load of ``reference.py``, so that each call's time can be
scaled to a core of fixed speed (``Call.scaled``).  Units are short (0.1 ms
to about 150 ms), so that the core's speed changes little within one call.

Every unit starts cold: all ``functools`` caches in ``hornreduce`` modules
are cleared and its inputs are parsed into fresh objects before its timer
starts, so no repetition reuses work an earlier one (or set-up) did.  Only
the program call is timed; every answer is checked after the round against
``data/expected.json``, which ``freeze.py`` writes from the program itself.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hornreduce as hr
import hornreduce.cli

from reference import reference_time, scale

EXPECTED_PATH = Path(__file__).resolve().parent / "data" / "expected.json"
REGRESSION_PATH = (Path(__file__).resolve().parent.parent / "tests" / "data"
                   / "regression_constants.json")

# Units per round.  enumerate: six fragments and SPLITS spanning-tree
# splits.  decide: 3 fixed + 70 horn_c(2,4) partition + 15 family + 15
# body-3 horn_c(2,4) forward-oracle queries = 103, so that the 90th
# percentile has ten queries beyond it; the median falls among the
# sub-millisecond partition queries and the 90th percentile among the
# family and forward ones, each well inside its group, so that neither
# rests on where a seeded sample puts the border between the two.
# derive: 64 standard-mode and 40 sld-mode goals = 104, for the same
# reason.
SPLITS = 300
DECIDE_PARTITION = 70
DECIDE_FAMILY = 15
DECIDE_FORWARD = 15

# (mode, max depth, goals per round); every search has max_body 5.
DERIVE_MODES = (("standard", 1, 64), ("sld", 2, 40))
DERIVE_MAX_BODY = 5


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def regression_constant(key: str) -> int:
    """A count frozen in the project's own regression table."""
    return json.loads(REGRESSION_PATH.read_text(encoding="utf-8"))[key]


def sha256_lines(items) -> str:
    return hashlib.sha256(
        "".join(str(x) + "\n" for x in items).encode()).hexdigest()


def cache_clearers() -> list:
    """The ``cache_clear`` of every functools cache reachable from a
    ``hornreduce`` module, looking through wrappers (``__wrapped__``) such
    as the tracer's."""
    seen: set[int] = set()
    out = []
    for name, mod in list(sys.modules.items()):
        if name != "hornreduce" and not name.startswith("hornreduce."):
            continue
        for obj in vars(mod).values():
            while obj is not None and id(obj) not in seen:
                seen.add(id(obj))
                if hasattr(obj, "cache_clear"):
                    out.append(obj.cache_clear)
                    break
                obj = getattr(obj, "__wrapped__", None)
    return out


def split_targets(members) -> list:
    """The split targets: fragment members with body >= 3."""
    return [c for c in members if c.body_size >= 3]


def fragment(arity: int, body: int, cls: str):
    builders = {"c": hr.horn_c, "2c": hr.horn_2c}
    return builders[cls](arity, body)


def stratified_sample(rng: random.Random, items: list, strata, k: int,
                      cost=None) -> list:
    """``k`` items drawn so that each stratum keeps its population share
    (largest remainder), which keeps the sampled work steady across seeds.

    With ``cost``, each stratum is sampled systematically along its cost
    order (a seeded offset, then even steps), so the sample's spread of
    costs follows the population's as well."""
    groups: dict = {}
    for item in items:
        groups.setdefault(strata(item), []).append(item)
    keys = sorted(groups)
    exact = {s: k * len(groups[s]) / len(items) for s in keys}
    take = {s: int(exact[s]) for s in keys}
    by_remainder = sorted(keys, key=lambda s: (-(exact[s] - take[s]), s))
    for s in by_remainder[:k - sum(take.values())]:
        take[s] += 1
    out = []
    for s in keys:
        group, n = groups[s], take[s]
        if cost is None or n == 0:
            out.extend(rng.sample(group, n))
            continue
        group = sorted(group, key=cost)
        step = len(group) / n
        start = rng.random() * step
        out.extend(group[int(start + i * step)] for i in range(n))
    return out


@dataclass
class Unit:
    """One program call.  ``prepare`` builds fresh inputs (untimed) and
    returns the call; ``check(output, deep)`` lists its wrong answers,
    ``deep`` adding the replay checks."""

    label: str
    prepare: Callable[[], Callable[[], object]]
    check: Callable[[object, bool], list]


@dataclass
class Call:
    """One timed unit call of a round; ``reference`` is the reference
    load's time around it (the mean of the runs before and after)."""

    unit: int
    seconds: float
    reference: float
    output: object
    error: str | None

    @property
    def scaled(self) -> float:
        """The call's time on a core of the reference speed."""
        return scale(self.seconds, self.reference)


class Workload:
    """Units made from a seed; rounds over them; answer checks."""

    name = ""

    def __init__(self, expected: dict, seed: int):
        self.expected = expected[self.name]
        self.rng = random.Random(seed)
        self.units: list[Unit] = []
        self._clearers = cache_clearers()

    def run_round(self, order: list[int]) -> list[Call]:
        """Run the units in ``order``, each cold and timed on its own, with
        the reference load timed between them."""
        calls = []
        clock = time.perf_counter
        before = reference_time(clock)
        for k in order:
            thunk = self.units[k].prepare()
            for clear in self._clearers:
                clear()
            start = clock()
            try:
                out, err = thunk(), None
            except Exception as exc:  # a raising call is a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            seconds = clock() - start
            after = reference_time(clock)
            calls.append(Call(k, seconds, (before + after) / 2, out, err))
            before = after
        return calls

    def check(self, calls: list[Call], deep: bool) -> list[str]:
        """The failed calls of a round, one line each."""
        bad = []
        for call in calls:
            unit = self.units[call.unit]
            wrong = ([call.error] if call.error is not None
                     else unit.check(call.output, deep))
            if wrong:
                bad.append(f"{unit.label}: " + "; ".join(wrong[:3]))
        return bad


class Enumerate(Workload):
    """Cold ``enumerate_fragment`` of six small fragments: horn_c(2,3)
    (282 members, mostly the most-generality filter), the connected
    distinct-predicate (2,3) fragment (1,033 members, mostly canonical
    dedup), horn_2c(2,3), horn_c(2,2), horn_c(3,1) and horn_2c(2,2); and
    ``spanning_tree_split`` of SPLITS seeded horn_c(2,4) members with body
    >= 3.  Fragments, canonicalization and clause graphs do nearly all the
    work; resolution almost none."""

    name = "enumerate"

    SPECS = {
        "horn_c(2,3)": lambda: hr.horn_c(2, 3),
        "connected(2,3)": lambda: hr.FragmentSpec(
            2, 3, connected=True, distinct_predvars=True),
        "horn_2c(2,3)": lambda: hr.horn_2c(2, 3),
        "horn_c(2,2)": lambda: hr.horn_c(2, 2),
        "horn_c(3,1)": lambda: hr.horn_c(3, 1),
        "horn_2c(2,2)": lambda: hr.horn_2c(2, 2),
    }
    # members the project's regression table pins
    REGRESSION = {"horn_c(2,3)": "count_connected_arity2_body3",
                  "horn_2c(2,2)": "count_two_connected_arity2_body2"}

    def __init__(self, expected: dict, seed: int):
        super().__init__(expected, seed)
        for name, spec in self.SPECS.items():
            self.units.append(Unit(
                f"enumerate {name}",
                lambda spec=spec: lambda: hr.enumerate_fragment(spec()),
                lambda got, deep, name=name: self._check_members(
                    name, got, deep)))
        splits = stratified_sample(self.rng, self.expected["splits"],
                                   lambda e: e["body"], SPLITS)
        for e in splits:
            self.units.append(Unit(
                f"split {e['clause']}",
                lambda text=e["clause"]: lambda c=hr.parse_clause(text):
                (c, hr.spanning_tree_split(c)),
                lambda got, deep, e=e: self._check_split(e, got, deep)))

    def _check_members(self, name, got, deep) -> list[str]:
        want = self.expected["specs"][name]
        bad = []
        if len(got) != want["count"] or sha256_lines(got) != want["sha256"]:
            bad.append(f"{len(got)} members or their text differ from the "
                       "frozen enumeration")
        if deep and name in self.REGRESSION:
            pinned = regression_constant(self.REGRESSION[name])
            if len(got) != pinned:
                bad.append(f"{len(got)} members, not {pinned}")
        return bad

    @staticmethod
    def _check_split(e, got, deep) -> list[str]:
        c, (first, second, q) = got
        if f"{first} | {second} | {q.text()}" != e["split"]:
            return ["the split differs from the frozen one"]
        if deep:
            step = hr.resolve(first, second, 0, hr.KIND_SLD)
            if ((first.body_size, second.body_size) != (c.body_size - 1, 2)
                    or step is None
                    or hr.is_instance(c, step.conclusion) is None):
                return ["the split does not resolve back onto its clause"]
        return []


class Reduce(Workload):
    """``hornreduce reduce --fragment F`` in process for five small
    fragments: each run enumerates the fragment, finds its core by inverse
    single-step search (which canonicalizes the same clauses again and
    again), and writes every removal proof as JSON.  Little enumeration and
    no closure.  The seed sets only the order of the calls and the hash
    seed, under which the stdout bytes must not change."""

    name = "reduce"

    FRAGMENTS = ("2,2,c", "3,1,2c", "2,2,2c", "1,4,c", "1,3,c")
    REGRESSION = {"2,2,2c": "count_two_connected_arity2_body2"}
    # checked by the benchmark's tests and by freeze.py, not timed
    HORN_C23_ARGV = ("reduce", "--fragment", "2,3,c")

    def __init__(self, expected: dict, seed: int):
        super().__init__(expected, seed)
        for token in self.FRAGMENTS:
            argv = ["reduce", "--fragment", token]
            self.units.append(Unit(
                "cli " + " ".join(argv),
                lambda argv=argv: lambda: hr.cli.run(list(argv)),
                lambda got, deep, token=token: self._check(token, got, deep)))

    def _check(self, token, got, deep) -> list[str]:
        want = self.expected["runs"][token]
        code, out, _ = got
        if code != 0:
            return [f"exited {code}"]
        if hashlib.sha256(out.encode()).hexdigest() != want["stdout_sha256"]:
            return ["stdout differs from the frozen bytes"]
        if not deep:
            return []
        payload = json.loads(out)
        bad = []
        total = len(payload["core"]) + len(payload["removed"])
        pinned = self.REGRESSION.get(token)
        if total != want["members"] or (
                pinned and total != regression_constant(pinned)):
            bad.append(f"core plus removed is {total}, not the fragment's "
                       f"{want['members']}")
        core = hr.Theory(hr.parse_clause(t) for t in payload["core"])
        for entry in payload["removed"]:
            proof = hr.proof_from_json_dict(entry["proof"])
            if not (hr.replay_proof(proof, core) and hr.alpha_equivalent(
                    proof.conclusion, hr.parse_clause(entry["clause"]))):
                bad.append(f"removal proof of {entry['clause']} does not "
                           "replay from the core")
        return bad


class Decide(Workload):
    """``is_reducible`` verdicts: the base clause at horn_2c(2,5) in both
    modes and the triadic clause at horn_2c(3,3) by partition; a seeded
    sample of the depth-2 extension family by partition (cut enumeration
    and pool enumeration); a seeded sample of horn_c(2,4) members with body
    >= 3 by partition (fragment membership); and a seeded sample of its
    body-3 members by the forward oracle (pair scans of resolve, factor and
    is_instance).  Canonical keys do almost none of the work."""

    name = "decide"

    def __init__(self, expected: dict, seed: int):
        super().__init__(expected, seed)
        exp = self.expected
        by_work = lambda key: lambda e: (e[key], e["clause"])  # noqa: E731
        # (clause text, mode, fragment, method, expected verdict)
        plan = [(q["clause"], q["mode"], tuple(q["fragment"]), q["method"],
                 q["verdict"]) for q in exp["fixed"]]
        plan += [(e["clause"], "sld", (2, e["body"], "2c"),
                  hr.METHOD_PARTITION, e["verdict"])
                 for e in stratified_sample(
                     self.rng, exp["family"], lambda e: e["verdict"],
                     DECIDE_FAMILY, by_work("work"))]
        plan += [(e["clause"], "sld", (2, e["body"], "c"),
                  hr.METHOD_PARTITION, e["partition"])
                 for e in stratified_sample(
                     self.rng, exp["horn_c24"],
                     lambda e: (e["body"], e["partition"]),
                     DECIDE_PARTITION, by_work("partition_work"))]
        plan += [(e["clause"], "sld", (2, e["body"], "c"),
                  hr.METHOD_FORWARD, e["forward"])
                 for e in stratified_sample(
                     self.rng, [e for e in exp["horn_c24"] if "forward" in e],
                     lambda e: e["forward"], DECIDE_FORWARD,
                     by_work("forward_work"))]
        for text, mode, frag, method, want in plan:
            self.units.append(Unit(
                f"is_reducible {text} {mode} {method}",
                lambda text=text, mode=mode, frag=frag, method=method:
                lambda c=hr.parse_clause(text): (c, hr.is_reducible(
                    c, mode, fragment(*frag), method)),
                lambda got, deep, want=want, mode=mode, frag=frag,
                method=method: self._check(want, got, deep, mode, frag,
                                           method)))

    @staticmethod
    def _check(want, got, deep, mode, frag, method) -> list[str]:
        c, result = got
        verdict = reducibility(result)
        if verdict != want:
            return [f"{verdict}, expected {want}"]
        if not deep:
            return []
        if result is not None:
            proof = (result if isinstance(result, hr.Proof)
                     else result.to_proof(c))
            if not (hr.replay_proof(proof) and proof.conclusion == c):
                return ["the proof does not replay"]
        if method == hr.METHOD_FORWARD:
            other = reducibility(hr.is_reducible(
                c, mode, fragment(*frag), hr.METHOD_PARTITION))
            if other != verdict:
                return [f"partition says {other}: the deciders disagree"]
        return []


class Derive(Workload):
    """``search_derivation`` of seeded body-4 horn_c(2,4) goals from the
    4-clause horn_c(2,3) core: standard mode at depth 1 and sld mode at
    depth 2, both with max_body 5, so that every search saturates through
    ``closure`` (forward resolve and factor, admit-time canonicalization);
    most end truncated.  The opposite use of the resolution layer to
    reduce's."""

    name = "derive"

    def __init__(self, expected: dict, seed: int):
        super().__init__(expected, seed)
        core = self.expected["core"]
        for mode, depth, k in DERIVE_MODES:
            goals = stratified_sample(
                self.rng, self.expected["goals"], lambda e: e[mode], k,
                cost=lambda e: (e[f"{mode}_work"], e["goal"]))
            for e in goals:
                self.units.append(Unit(
                    f"search_derivation {e['goal']} {mode}",
                    lambda goal=e["goal"], mode=mode, depth=depth:
                    self._search(core, goal, mode, depth),
                    lambda got, deep, want=e[mode]: self._check(
                        want, got, deep)))

    @staticmethod
    def _search(core_text, goal_text, mode, depth):
        # One clause per line: the core reuses P0 at two arities, which
        # parse_theory rejects for hand-written files.
        core = hr.Theory(hr.parse_clause(t) for t in core_text)
        goal = hr.parse_clause(goal_text)
        return lambda: (core, goal, hr.search_derivation(
            core, goal, depth, mode=mode, max_body=DERIVE_MAX_BODY))

    @staticmethod
    def _check(want, got, deep) -> list[str]:
        core, goal, res = got
        if outcome(res) != want:
            return [f"{outcome(res)}, expected {want}"]
        if deep and res.found and not (
                hr.replay_proof(res.proof, core)
                and hr.alpha_equivalent(res.proof.conclusion, goal)):
            return ["the proof does not replay"]
        return []


def reducibility(result) -> str:
    """An ``is_reducible`` result as one word: reducible or irreducible."""
    return "irreducible" if result is None else "reducible"


def outcome(res) -> str:
    """A search result as one word: found, truncated or underivable."""
    if res.found:
        return "found"
    return "truncated" if res.truncated else "underivable"


WORKLOADS = {w.name: w for w in (Enumerate, Reduce, Decide, Derive)}
