"""Write ``data/expected.json``: the answers every benchmark unit is checked
against, computed over the whole population each workload samples from, so
that any seed can be checked.

The answers are the program's own at the commit that froze them; the
project holds them fixed, so re-run this only when an answer is meant to
change:

    python3 perfbench/freeze.py

It takes a few minutes.  Next to each sampled query's answer it stores the
query's work: the number of traced program calls it makes, a deterministic
cost along which the samplers spread their picks.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hornreduce as hr  # noqa: E402
import hornreduce.cli  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def _progress(msg: str) -> None:
    print(f"freeze: {msg}", file=sys.stderr, flush=True)


def _traced(fn):
    """``fn()`` and the number of program calls it made, from cold."""
    for clear in wl.cache_clearers():
        clear()
    tracer = Tracer()
    tracer.install()
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return result, sum(rec[0] for rec in tracer.spans.values())


def _split_targets() -> list:
    return [hr.parse_clause(str(c)) for c in
            wl.split_targets(hr.enumerate_fragment(hr.horn_c(2, 4)))]


def freeze_enumerate() -> dict:
    specs = {}
    for name, spec in wl.Enumerate.SPECS.items():
        members = hr.enumerate_fragment(spec())
        specs[name] = {"count": len(members),
                       "sha256": wl.sha256_lines(members)}
    splits = []
    for c in _split_targets():
        a, b, q = hr.spanning_tree_split(c)
        splits.append({"clause": str(c), "body": c.body_size,
                       "split": f"{a} | {b} | {q.text()}"})
    return {"specs": specs, "splits": splits}


def freeze_reduce() -> dict:
    # the project's own reduce of horn_c(2,3): too long to time (5-7 s),
    # but its stdout bytes are held fixed and its core is derive's theory
    code, out, _ = hr.cli.run(list(wl.Reduce.HORN_C23_ARGV))
    if code != 0:
        raise SystemExit(f"cli reduce 2,3,c exited {code}")
    horn_c23 = {"stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
                "core": json.loads(out)["core"]}
    runs = {}
    for token in wl.Reduce.FRAGMENTS:
        code, out, _ = hr.cli.run(["reduce", "--fragment", token])
        if code != 0:
            raise SystemExit(f"cli reduce {token} exited {code}")
        payload = json.loads(out)
        runs[token] = {
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "core": payload["core"],
            "members": len(payload["core"]) + len(payload["removed"])}
    return {"runs": runs, "horn_c23": horn_c23}


def freeze_decide() -> dict:
    fixed = []
    for clause, frag, modes in (
            (hr.c_base(), (2, 5, "2c"), ("sld", "standard")),
            (hr.triadic_counterexample(), (3, 3, "2c"), ("sld",))):
        for mode in modes:
            got = hr.is_reducible(clause, mode, wl.fragment(*frag),
                                  hr.METHOD_PARTITION)
            fixed.append({"clause": str(clause), "mode": mode,
                          "fragment": list(frag),
                          "method": hr.METHOD_PARTITION,
                          "verdict": wl.reducibility(got)})
    family = []
    for m in hr.hnr_family(2):
        c = hr.parse_clause(str(m))
        got, work = _traced(lambda: hr.is_reducible(
            c, "sld", hr.horn_2c(2, c.body_size), hr.METHOD_PARTITION))
        family.append({"clause": str(c), "body": c.body_size,
                       "verdict": wl.reducibility(got), "work": work})
    _progress(f"decide: {len(family)} family members done")
    c24 = []
    for c in _split_targets():
        frag = hr.horn_c(2, c.body_size)
        got, work = _traced(lambda: hr.is_reducible(
            c, "sld", frag, hr.METHOD_PARTITION))
        entry = {"clause": str(c), "body": c.body_size,
                 "partition": wl.reducibility(got), "partition_work": work}
        if c.body_size == 3:
            got, work = _traced(lambda: hr.is_reducible(
                c, "sld", frag, hr.METHOD_FORWARD))
            entry["forward"] = wl.reducibility(got)
            entry["forward_work"] = work
            if entry["forward"] != entry["partition"]:
                raise SystemExit(f"the deciders disagree on {c}")
        c24.append(entry)
    _progress(f"decide: {len(c24)} horn_c(2,4) members done")
    return {"fixed": fixed, "family": family, "horn_c24": c24}


def freeze_derive(core: list[str]) -> dict:
    theory = hr.Theory(hr.parse_clause(t) for t in core)
    goals = []
    members = [c for c in hr.enumerate_fragment(hr.horn_c(2, 4))
               if c.body_size == 4]
    for k, g in enumerate(members):
        entry = {"goal": str(g)}
        for mode, depth, _ in wl.DERIVE_MODES:
            res, work = _traced(lambda: hr.search_derivation(
                theory, g, depth, mode=mode, max_body=wl.DERIVE_MAX_BODY))
            entry[mode] = wl.outcome(res)
            entry[f"{mode}_work"] = work
        goals.append(entry)
        if k % 200 == 199:
            _progress(f"derive: {k + 1}/{len(members)} goals")
    return {"core": core, "goals": goals}


def main() -> None:
    started = time.perf_counter()
    expected = {"enumerate": freeze_enumerate()}
    _progress("enumerate done")
    expected["reduce"] = freeze_reduce()
    _progress("reduce done")
    expected["decide"] = freeze_decide()
    expected["derive"] = freeze_derive(
        expected["reduce"]["horn_c23"]["core"])
    wl.EXPECTED_PATH.parent.mkdir(exist_ok=True)
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n",
                                encoding="utf-8")
    _progress(f"wrote {wl.EXPECTED_PATH} in "
              f"{time.perf_counter() - started:.0f} s")


if __name__ == "__main__":
    main()
