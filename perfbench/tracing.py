"""Outside-in tracing of ``hornreduce`` for the per-layer metrics.

:meth:`Tracer.install` replaces every public function of the layer modules
(and ``Theory.__init__``) with a wrapper, in every ``hornreduce.*`` module
namespace that binds it, so ``from ... import`` copies are traced too;
:meth:`Tracer.uninstall` puts the originals back.  The program's source is
not touched.

Spans are aggregated in memory per (function, calling traced function) into
a call count, a total time and a self time (total minus the time covered by
traced callees).  Generators get no span, since their work interleaves with
the consumer's; their yielded items are counted instead.  A few results are
inspected to count outcomes (hits, successes, members) for the ratios.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("clauses", "graphs", "fragments", "resolution", "reduction", "cli")

# Outcome counters taken from a traced function's result.
_OUTCOMES = {
    "clauses.is_instance": lambda r: {"hit": r is not None},
    "resolution.resolve": lambda r: {"success": r is not None},
    "resolution.factor": lambda r: {"success": r is not None},
    "resolution.closure": lambda r: {"admitted": len(r.clauses),
                                     "truncated": r.truncated},
    "resolution.search_derivation": lambda r: {"found": r.found},
    "reduction.is_reducible": lambda r: {"reducible": r is not None},
    "cli.run": lambda r: {"stdout_bytes": len(r[1].encode())},
}


class Tracer:
    """Span and outcome aggregation for one traced stretch of work."""

    def __init__(self) -> None:
        # (function, parent function) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = [["", 0.0]]  # [name, time in callees]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hornreduce.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "hornreduce" and not name.startswith("hornreduce."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))
        theory = importlib.import_module("hornreduce.clauses").Theory
        init = theory.__init__
        theory.__init__ = self._wrap("clauses.Theory.__init__", init)
        self._undo.append((theory, "__init__", init))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, obj = self._undo.pop()
            setattr(target, attr, obj)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack, spans, counts = self._stack, self.spans, self.counts
        outcome = _OUTCOMES.get(name)
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            misses = cache_info().misses if cache_info is not None else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if cache_info is not None and cache_info().misses != misses:
                counts[f"{name}.missed_items"] += len(result)
            if outcome is not None:
                for key, n in outcome(result).items():
                    counts[f"{name}.{key}"] += int(n)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        counts = self.counts
        key = f"{name}.yielded"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                for item in it:
                    counts[key] += 1
                    yield item
            finally:
                it.close()

        return traced

    # -- aggregation ------------------------------------------------------

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(rec[0] for (n, p), rec in self.spans.items()
                   if n == name and parent in (None, p))

    def total_s(self, name: str, parent: str | None = None) -> float:
        return sum(rec[1] for (n, p), rec in self.spans.items()
                   if n == name and parent in (None, p))

    def self_s(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def table(self) -> list[str]:
        """Human-readable span lines, heaviest self time first."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        return [f"{n:38s} <- {p or '(round)':32s} {rec[0]:9d} calls "
                f"{rec[1]:9.3f} s total {rec[2]:9.3f} s self"
                for (n, p), rec in rows]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_CANON = ("clauses.canonical_key", "clauses.canonical_form")
_ENUM = "fragments.enumerate_fragment"

# name -> (unit, better, value from the tracer).  trace.overhead_ratio is
# added by the caller, which times an untraced round as well.
PER_LAYER = {
    "clauses.canonical.calls": (
        "count", "lower", lambda t: sum(t.calls(n) for n in _CANON)),
    "clauses.canonical.self_s": (
        "s", "lower", lambda t: sum(t.self_s(n) for n in _CANON)),
    "clauses.alpha_equivalent.calls": (
        "count", "lower", lambda t: t.calls("clauses.alpha_equivalent")),
    "clauses.theory_build.calls": (
        "count", "lower", lambda t: t.calls("clauses.Theory.__init__")),
    "clauses.is_instance.calls": (
        "count", "lower", lambda t: t.calls("clauses.is_instance")),
    "clauses.is_instance.hit_ratio": (
        "ratio", "higher", lambda t: _ratio(
            t.counts["clauses.is_instance.hit"],
            t.calls("clauses.is_instance"))),
    "clauses.is_instance.self_s": (
        "s", "lower", lambda t: t.self_s("clauses.is_instance")),
    "clauses.parse.self_s": (
        "s", "lower", lambda t: t.self_s("clauses.parse_clause")
        + t.self_s("clauses.parse_theory")),
    "graphs.is_connected.calls": (
        "count", "lower", lambda t: t.calls("graphs.is_connected")),
    "graphs.is_connected.self_s": (
        "s", "lower", lambda t: t.self_s("graphs.is_connected")),
    "graphs.light_pair.self_s": (
        "s", "lower", lambda t: t.self_s("graphs.find_light_pair")),
    "fragments.enumerate.self_s": (
        "s", "lower", lambda t: t.self_s(_ENUM)),
    "fragments.enumerate.members": (
        "count", "higher", lambda t: t.counts[f"{_ENUM}.missed_items"]),
    "fragments.raw_per_member": (
        "ratio", "lower", lambda t: _ratio(
            sum(t.calls(n, _ENUM) for n in _CANON),
            t.counts[f"{_ENUM}.missed_items"])),
    "fragments.most_general_in.calls": (
        "count", "lower", lambda t: t.calls("fragments.most_general_in")),
    "fragments.most_general_in.self_s": (
        "s", "lower", lambda t: t.self_s("fragments.most_general_in")),
    "fragments.member.calls": (
        "count", "lower", lambda t: t.calls("fragments.member")),
    "fragments.member.self_s": (
        "s", "lower", lambda t: t.self_s("fragments.member")),
    "resolution.resolve.calls": (
        "count", "lower", lambda t: t.calls("resolution.resolve")),
    "resolution.resolve.success_ratio": (
        "ratio", "higher", lambda t: _ratio(
            t.counts["resolution.resolve.success"],
            t.calls("resolution.resolve"))),
    "resolution.resolve.self_s": (
        "s", "lower", lambda t: t.self_s("resolution.resolve")),
    "resolution.factor.calls": (
        "count", "lower", lambda t: t.calls("resolution.factor")),
    "resolution.factor.success_ratio": (
        "ratio", "higher", lambda t: _ratio(
            t.counts["resolution.factor.success"],
            t.calls("resolution.factor"))),
    "resolution.closure.calls": (
        "count", "lower", lambda t: t.calls("resolution.closure")),
    "resolution.closure.admitted": (
        "count", "lower", lambda t: t.counts["resolution.closure.admitted"]),
    "resolution.closure.truncated_share": (
        "ratio", "lower", lambda t: _ratio(
            t.counts["resolution.closure.truncated"],
            t.calls("resolution.closure"))),
    "resolution.closure.self_s": (
        "s", "lower", lambda t: t.self_s("resolution.closure")),
    "resolution.search_derivation.calls": (
        "count", "lower", lambda t: t.calls("resolution.search_derivation")),
    "resolution.search_derivation.found_ratio": (
        "ratio", "higher", lambda t: _ratio(
            t.counts["resolution.search_derivation.found"],
            t.calls("resolution.search_derivation"))),
    "resolution.step_candidates.yielded": (
        "count", "lower",
        lambda t: t.counts["resolution.single_step_candidates.yielded"]),
    "resolution.replay_proof.self_s": (
        "s", "lower", lambda t: t.self_s("resolution.replay_proof")),
    "resolution.proof_json.self_s": (
        "s", "lower", lambda t: t.self_s("resolution.proof_to_json_dict")),
    "reduction.is_reducible.calls": (
        "count", "lower", lambda t: t.calls("reduction.is_reducible")),
    "reduction.is_reducible.self_s": (
        "s", "lower", lambda t: t.self_s("reduction.is_reducible")),
    "reduction.is_reducible.reducible_ratio": (
        "ratio", "higher", lambda t: _ratio(
            t.counts["reduction.is_reducible.reducible"],
            t.calls("reduction.is_reducible"))),
    "reduction.pool_enumeration_s": (
        "s", "lower", lambda t: t.total_s(_ENUM, "reduction.is_reducible")),
    "reduction.reduce_theory.self_s": (
        "s", "lower", lambda t: t.self_s("reduction.reduce_theory")),
    "reduction.split.self_s": (
        "s", "lower", lambda t: t.self_s("reduction.spanning_tree_split")),
    "cli.run.self_s": (
        "s", "lower", lambda t: t.self_s("cli.run")),
    "cli.stdout_bytes": (
        "bytes", "lower", lambda t: t.counts["cli.run.stdout_bytes"]),
}
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
    out = {name: {"value": fn(tracer), "unit": unit}
           for name, (unit, _, fn) in PER_LAYER.items()}
    out[OVERHEAD[0]] = {"value": overhead_ratio, "unit": OVERHEAD[1]}
    return out
