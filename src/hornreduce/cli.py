"""Command-line front end for fragment enumeration, reduction, and checks.

Verbs: ``enumerate`` lists or counts a fragment; ``reduce`` shrinks a theory
or enumerated fragment to a core; ``check`` decides reducibility of one
clause; ``derive`` searches for a bounded derivation of a goal; ``graph``
reports clause-graph structure (optionally as DOT); ``extend`` applies the
irreducibility-preserving body extension.

Machine-readable results go to stdout and are byte-deterministic for a
given argv and input files; human summaries and timing go to stderr.  Exit
codes: 0 success (for ``check``: irreducible; for ``derive``: found),
1 the complementary answer (reducible / not derivable), 2 inconclusive
within resource bounds (also for clauses too long to process), 64 usage
errors, 65 clause or theory parse errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from hornreduce.clauses import (
    ArityMismatchError,
    ClauseParseError,
    HornClause,
    Substitution,
    Theory,
    parse_clause,
    parse_theory,
    pending_variables,
)
from hornreduce.fragments import (
    FragmentSpec,
    count_fragment,
    enumerate_fragment,
    horn,
    horn_2c,
    horn_c,
)
from hornreduce.graphs import clause_graph
from hornreduce.reduction import (
    METHOD_FORWARD,
    METHOD_PARTITION,
    OracleCapError,
    extension_family,
    is_reducible,
    nonred_extend,
    reduce_fragment,
    reduce_theory,
)
from hornreduce.resolution import (
    MODES,
    Proof,
    proof_to_json_dict,
    search_derivation,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PARSE = 65

_METHOD_TOKENS = {"partition": METHOD_PARTITION, "forward": METHOD_FORWARD}
_CLASS_BUILDERS = {"any": horn, "c": horn_c, "2c": horn_2c}


class _UsageError(Exception):
    """Raised for invalid flags or flag combinations."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise _UsageError(message)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_theory_file(path: str) -> Theory:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise _UsageError(f"cannot read theory file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ClauseParseError(f"theory file is not UTF-8: {exc}") from exc
    return Theory(parse_theory(text))


def _fragment_from_token(token: str) -> FragmentSpec:
    parts = [p.strip() for p in token.split(",")]
    if len(parts) == 2:
        parts.append("any")
    if len(parts) != 3 or parts[2] not in _CLASS_BUILDERS:
        raise _UsageError(
            "fragment must be 'ARITY,BODY' optionally followed by ',c' or ',2c'")
    try:
        arity, body = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _UsageError("fragment arity and body must be integers") from exc
    try:
        return _CLASS_BUILDERS[parts[2]](arity, body)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _non_negative_int(text: str) -> int:
    """argparse type of the count and bound flags: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


def _clause_lines(clauses) -> str:
    return "".join(str(c) + "\n" for c in clauses)


# ---------------------------------------------------------------------------
# Verb handlers: each returns (exit code, stdout text, stderr text)
# ---------------------------------------------------------------------------

def _cmd_enumerate(ns) -> tuple[int, str, str]:
    try:
        spec = FragmentSpec(
            max_arity=ns.arity, max_body=ns.body,
            connected=ns.connected or ns.two_connected,
            two_connected=ns.two_connected,
            distinct_predvars=True, most_general=ns.most_general)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if ns.count:
        n = count_fragment(spec)
        return EXIT_OK, f"{n}\n", f"{n} clause(s)\n"
    clauses = enumerate_fragment(spec)
    if ns.json:
        payload = {"schema_version": SCHEMA_VERSION, "command": "enumerate",
                   "count": len(clauses),
                   "clauses": [str(c) for c in clauses]}
        return EXIT_OK, _json_text(payload), f"{len(clauses)} clause(s)\n"
    return EXIT_OK, _clause_lines(clauses), f"{len(clauses)} clause(s)\n"


def _cmd_reduce(ns) -> tuple[int, str, str]:
    if (ns.theory is None) == (ns.fragment is None):
        raise _UsageError("exactly one of --theory or --fragment is required")
    if ns.theory is not None:
        report = reduce_theory(
            _read_theory_file(ns.theory), ns.mode, max_depth=ns.max_depth,
            max_body=ns.max_body, max_clauses=ns.max_clauses)
    else:
        report = reduce_fragment(
            _fragment_from_token(ns.fragment), ns.mode,
            max_depth=ns.max_depth, max_body=ns.max_body,
            max_clauses=ns.max_clauses)
    core = report.core.ordered(lambda key, d: (d.body_size, key))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reduce",
        "mode": report.mode,
        "bounds": report.bounds,
        "bounds_hit": report.bounds_hit,
        "core": [str(c) for c in core],
        "removed": [{"clause": str(c), "proof": proof_to_json_dict(p)}
                    for c, p in report.removed],
    }
    summary = (f"core {len(core)} clause(s), removed {len(report.removed)}, "
               f"bounds {'hit' if report.bounds_hit else 'not hit'}\n")
    return EXIT_OK, _json_text(payload), summary


def _witness_json(proof: Proof) -> dict:
    """The sld payload: the resolution step of ``proof`` and the unifier of
    its final unification, none when the resolvent is the clause itself."""
    step, last = proof.steps[0], proof.steps[-1]
    c1, c2 = step.premises
    unification = last.unifier if last is not step else Substitution()
    return {"c1": str(c1), "c2": str(c2), "pivot": step.pivot.text(),
            "resolvent": str(step.conclusion), "body_index": step.body_index,
            "unification": unification.to_json_dict()}


def _cmd_check(ns) -> tuple[int, str, str]:
    clause = parse_clause(ns.clause)
    arity_cap = ns.arity_cap if ns.arity_cap is not None else clause.max_arity()
    max_body = ns.max_body if ns.max_body is not None else \
        max(clause.body_size, 1)
    try:
        fragment = _CLASS_BUILDERS[ns.fragment_class](arity_cap, max_body)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    payload = {"schema_version": SCHEMA_VERSION, "command": "check",
               "clause": str(clause), "mode": ns.mode, "method": ns.method,
               "arity_cap": arity_cap, "fragment_class": ns.fragment_class}
    try:
        result = is_reducible(
            clause, ns.mode, fragment, _METHOD_TOKENS[ns.method],
            max_factor=ns.max_factor, pool_body_cap=ns.pool_body_cap,
            max_pool=ns.max_pool)
    except OracleCapError as exc:
        payload["result"] = "inconclusive"
        payload["reason"] = str(exc)
        return EXIT_INCONCLUSIVE, _json_text(payload), f"inconclusive: {exc}\n"
    if result is None:
        payload["result"] = "irreducible"
        return EXIT_OK, _json_text(payload), "irreducible\n"
    payload["result"] = "reducible"
    if ns.mode == "sld":
        payload["witness"] = _witness_json(result)
    else:
        payload["proof"] = proof_to_json_dict(result)
    return EXIT_NEGATIVE, _json_text(payload), "reducible\n"


def _cmd_derive(ns) -> tuple[int, str, str]:
    theory = _read_theory_file(ns.theory)
    goal = parse_clause(ns.goal)
    res = search_derivation(theory, goal, ns.max_depth, mode=ns.mode,
                            max_body=ns.max_body, max_clauses=ns.max_clauses)
    payload = {"schema_version": SCHEMA_VERSION, "command": "derive",
               "goal": str(goal), "mode": ns.mode,
               "max_depth": ns.max_depth, "truncated": res.truncated}
    if res.found:
        payload["result"] = "found"
        payload["proof"] = proof_to_json_dict(res.proof)
        return EXIT_OK, _json_text(payload), "derivation found\n"
    if res.truncated:
        payload["result"] = "unknown"
        return (EXIT_INCONCLUSIVE, _json_text(payload),
                "not found within bounds\n")
    payload["result"] = "not-derivable"
    return EXIT_NEGATIVE, _json_text(payload), "not derivable\n"


def _dot_text(clause: HornClause) -> str:
    graph = clause_graph(clause)
    lines = ["graph clause {"]
    for idx, atom in enumerate(graph.atoms):
        role = "head" if clause.head is not None and idx == 0 else "body"
        lines.append(f'  v{idx} [label="{atom.text()}" role="{role}"];')
    for e in graph.edges:
        lines.append(f'  v{e.u} -- v{e.v} [label="{e.var}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_graph(ns) -> tuple[int, str, str]:
    clause = parse_clause(ns.clause)
    if ns.dot:
        return EXIT_OK, _dot_text(clause), ""
    graph = clause_graph(clause)
    connected = graph.is_connected()
    pending = sorted(pending_variables(clause))
    lines = [
        f"clause: {clause}",
        f"vertices: {graph.vertex_count}",
        f"edges: {len(graph.edges)}",
        f"connected: {'yes' if connected else 'no'}",
        f"two-connected: {'yes' if connected and not pending else 'no'}",
        f"pending: {', '.join(pending) if pending else '(none)'}",
    ]
    return EXIT_OK, "".join(line + "\n" for line in lines), ""


def _cmd_extend(ns) -> tuple[int, str, str]:
    clause = parse_clause(ns.clause)
    if (ns.pairs is None) == (ns.depth is None):
        raise _UsageError("exactly one of --pairs or --depth is required")
    if ns.pairs is not None:
        parts = ns.pairs.split(",")
        try:
            i, j = (int(p.strip()) for p in parts)
        except ValueError as exc:
            raise _UsageError("--pairs expects two comma-separated indices") \
                from exc
        try:
            ext = nonred_extend(clause, i, j)
        except (ValueError, IndexError) as exc:
            raise _UsageError(str(exc)) from exc
        return EXIT_OK, str(ext) + "\n", "1 extension\n"
    members = extension_family(clause, ns.depth)
    return (EXIT_OK, _clause_lines(members),
            f"{len(members)} extension(s) at depth {ns.depth}\n")


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "reduce": _cmd_reduce,
    "check": _cmd_check,
    "derive": _cmd_derive,
    "graph": _cmd_graph,
    "extend": _cmd_extend,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hornreduce",
        description="Derivation reduction of second-order Horn clauses.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list or count a fragment")
    p.add_argument("--arity", type=int, required=True,
                   help="maximum literal arity")
    p.add_argument("--body", type=int, required=True,
                   help="maximum body size")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--connected", action="store_true")
    group.add_argument("--two-connected", action="store_true")
    p.add_argument("--most-general", action="store_true",
                   help="keep only most-general members")
    p.add_argument("--count", action="store_true",
                   help="print the member count only")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="reduce a theory or fragment to a core")
    p.add_argument("--theory", help="theory file, one clause per line")
    p.add_argument("--fragment",
                   help="fragment as 'ARITY,BODY[,c|2c]' to enumerate")
    p.add_argument("--mode", choices=MODES, default="sld")
    p.add_argument("--max-depth", type=_non_negative_int, default=1)
    p.add_argument("--max-body", type=_non_negative_int, default=None)
    p.add_argument("--max-clauses", type=_non_negative_int, default=None)

    p = sub.add_parser("check", help="decide reducibility of one clause")
    p.add_argument("--clause", required=True)
    p.add_argument("--mode", choices=MODES, default="sld")
    p.add_argument("--arity-cap", type=int, default=None,
                   help="pivot/premise arity cap (default: clause max arity)")
    p.add_argument("--method", choices=sorted(_METHOD_TOKENS),
                   default="partition")
    p.add_argument("--fragment-class", choices=sorted(_CLASS_BUILDERS),
                   default="2c", help="premise class (default: 2c)")
    p.add_argument("--max-body", type=_non_negative_int, default=None,
                   help="premise class body cap (default: clause body size)")
    p.add_argument("--max-factor", type=_non_negative_int, default=2)
    p.add_argument("--pool-body-cap", type=_non_negative_int, default=4)
    p.add_argument("--max-pool", type=_non_negative_int, default=6000)

    p = sub.add_parser("derive", help="search a bounded derivation of a goal")
    p.add_argument("--theory", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max-depth", type=_non_negative_int, default=1)
    p.add_argument("--mode", choices=MODES, default="sld")
    p.add_argument("--max-body", type=_non_negative_int, default=None)
    p.add_argument("--max-clauses", type=_non_negative_int, default=None)

    p = sub.add_parser("graph", help="clause-graph structure report")
    p.add_argument("--clause", required=True)
    p.add_argument("--dot", action="store_true",
                   help="emit DOT instead of the text report")

    p = sub.add_parser("extend", help="irreducibility-preserving extension")
    p.add_argument("--clause", required=True)
    p.add_argument("--pairs", help="body indices 'i,j' for one extension")
    p.add_argument("--depth", type=_non_negative_int, default=None,
                   help="emit all canonical extensions after DEPTH rounds")

    return parser


def run(argv: list[str]) -> tuple[int, str, str]:
    """Execute one command line; returns (exit code, stdout, stderr)."""
    out_io, err_io = io.StringIO(), io.StringIO()
    parser = build_parser()
    try:
        with redirect_stdout(out_io), redirect_stderr(err_io):
            ns = parser.parse_args(argv)
    except _UsageError as exc:
        return EXIT_USAGE, out_io.getvalue(), \
            err_io.getvalue() + f"error: {exc}\n"
    except SystemExit as exc:  # --help exits argparse directly
        code = exc.code if isinstance(exc.code, int) else 0
        return code, out_io.getvalue(), err_io.getvalue()
    started = time.perf_counter()
    try:
        code, out, err = _HANDLERS[ns.verb](ns)
    except _UsageError as exc:
        return EXIT_USAGE, "", f"error: {exc}\n"
    except (ClauseParseError, ArityMismatchError) as exc:
        return EXIT_PARSE, "", f"parse error: {exc}\n"
    except RecursionError:
        return EXIT_INCONCLUSIVE, "", "error: clause too long to process\n"
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return code, out, err + f"completed in {elapsed_ms:.1f} ms\n"


def main(argv: list[str] | None = None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
