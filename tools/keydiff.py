"""Compare canonical keys, enumerations and closures with another commit.

Usage, inside a git checkout::

    python3 tools/keydiff.py --against REF

Extracts ``src/`` at commit ``REF`` into a temporary directory with ``git
archive`` and runs it and this checkout's ``src/`` in one subprocess each.
Both compute ``canonical_key`` of the same seeded random corpus (repeated
predicate names and atoms, headless clauses, symmetric lines), the sha256
of ``enumerate_fragment`` on a fixed list of specs, and the sha256 of the
clause text of ``closure`` over the 4-clause horn_c(2,3) core, with its
``truncated`` flag, in each mode.  Prints one ``<mismatches>/<compared>
<what>`` row per part and exits 1 on any mismatch, 0 when there is none.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile

CORPUS_SEED = 6
CORPUS_SIZE = 20000

# FragmentSpec keyword arguments besides the size bounds: horn, horn_c,
# horn_2c, the plain connected and distinct-predicate fragments, and the
# two-connected but not connected most-general one.
_KINDS = {
    "horn": {"distinct_predvars": True, "most_general": True},
    "horn_c": {"connected": True, "distinct_predvars": True,
               "most_general": True},
    "horn_2c": {"connected": True, "two_connected": True,
                "distinct_predvars": True, "most_general": True},
    "connected": {"connected": True, "distinct_predvars": True},
    "general_2c": {"two_connected": True, "most_general": True},
}
SPECS = [
    ("horn_c", 1, 3), ("horn_c", 1, 4), ("horn_c", 2, 2), ("horn_c", 2, 3),
    ("horn_c", 2, 4), ("horn_c", 3, 1), ("horn_c", 3, 2), ("horn_2c", 2, 2),
    ("horn_2c", 2, 3), ("horn_2c", 2, 4), ("horn", 2, 2), ("horn", 2, 3),
    ("horn", 3, 2), ("connected", 2, 2), ("connected", 2, 3),
    ("general_2c", 3, 1)]

# The core of horn_c(2,3), closed to depth 2 with max_body 5 in each mode:
# the closure spells every clause it admits from the clause's key.
CORE = ["P0(x1) :- P1(x2,x1).", "P0(x1,x2) :- P1(x2).",
        "P0(x1,x2) :- P1(x3,x1).", "P0(x1,x2) :- P1(x3,x2), P2(x4,x3)."]
CLOSURE_DEPTH = 2
CLOSURE_MAX_BODY = 5
MODES = ["sld", "standard"]

# Run with a tree's src/ first on sys.path; reads the corpus, specs and core
# as JSON on stdin and writes each clause's key, each spec's digest and each
# mode's closure digest and truncated flag.
_WORKER = """
import hashlib, json, sys
from hornreduce.clauses import Atom, HornClause, canonical_key, parse_clause
from hornreduce.fragments import FragmentSpec, enumerate_fragment
from hornreduce.resolution import closure
data = json.load(sys.stdin)
keys = []
for head, body in data["clauses"]:
    c = HornClause(None if head is None else Atom.of(*head),
                   tuple(Atom.of(*a) for a in body))
    keys.append(repr(canonical_key(c)))
digests = []
for arity, size, flags in data["specs"]:
    text = "\\n".join(map(str, enumerate_fragment(
        FragmentSpec(arity, size, **flags))))
    digests.append(hashlib.sha256(text.encode()).hexdigest())
core = [parse_clause(t) for t in data["core"]]
closures = []
for mode in data["modes"]:
    result = closure(core, data["depth"], mode=mode, max_body=data["max_body"])
    text = "\\n".join(map(str, result.clauses))
    closures.append([hashlib.sha256(text.encode()).hexdigest(),
                     result.truncated])
json.dump({"keys": keys, "fragments": digests, "closures": closures},
          sys.stdout)
"""


def corpus(seed: int, size: int) -> list:
    """``size`` random clauses as ``[head, body]`` with atoms as
    ``[name, *args]`` lists and ``None`` for no head."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        terms = [f"x{i}" for i in range(rng.randint(1, 6))]
        if rng.random() < 0.2:  # a symmetric line, its last atom reversed
            args = [rng.choice(terms) for _ in range(rng.randint(1, 3))]
            body = [[f"L{k}", *args] for k in range(rng.randint(1, 7))]
            if rng.random() < 0.5:
                body[-1] = ["M", *reversed(args)]
            head = ["H", *args] if rng.random() < 0.7 else None
        else:  # names reused at one arity each, atoms repeated
            arity = {f"P{i}": rng.randint(1, 3)
                     for i in range(rng.randint(1, 6))}
            names = list(arity)

            def atom() -> list:
                name = rng.choice(names)
                return [name, *(rng.choice(terms) for _ in range(arity[name]))]

            body = [atom() for _ in range(rng.randint(0, 7))]
            if body and rng.random() < 0.3:
                body.append(rng.choice(body))
            head = atom() if rng.random() < 0.8 else None
        out.append([head, body])
    return out


def run_tree(src: str, worker: str, payload: str):
    """The answers ``worker`` writes for the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", worker], input=payload,
                              capture_output=True, text=True, env=env,
                              cwd=cwd, check=True)
    return json.loads(proc.stdout)


def run_against(ref: str, worker: str, payload: str) -> tuple | None:
    """``worker``'s answers for ``src/`` at commit ``ref`` (extracted with
    ``git archive``) and for this checkout's ``src/``; None, with the
    error on stderr, when git or a worker fails."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        tar = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                             capture_output=True, check=True,
                             cwd=top).stdout
        with tempfile.TemporaryDirectory() as tmp:
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(tmp, filter="data")
            before = run_tree(os.path.join(tmp, "src"), worker, payload)
        after = run_tree(os.path.join(top, "src"), worker, payload)
    except subprocess.CalledProcessError as e:
        err = e.stderr
        print((err.decode() if isinstance(err, bytes) else err).strip(),
              file=sys.stderr)
        return None
    return before, after


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "--against":
        print(__doc__.strip(), file=sys.stderr)
        return 64
    payload = json.dumps({
        "clauses": corpus(CORPUS_SEED, CORPUS_SIZE),
        "specs": [(arity, body, _KINDS[kind]) for kind, arity, body in SPECS],
        "core": CORE, "depth": CLOSURE_DEPTH, "max_body": CLOSURE_MAX_BODY,
        "modes": MODES,
    })
    answers = run_against(argv[1], _WORKER, payload)
    if answers is None:
        return 1
    before, after = answers
    keys = sum(b != a for b, a in zip(before["keys"], after["keys"]))
    print(f"{keys}/{CORPUS_SIZE}  canonical keys (seed {CORPUS_SEED})")
    frags = 0
    for (kind, arity, body), b, a in zip(SPECS, before["fragments"],
                                         after["fragments"]):
        if b != a:
            frags += 1
            print(f"mismatch  enumerate_fragment {kind}({arity},{body})")
    print(f"{frags}/{len(SPECS)}  enumerate_fragment sha256")
    closures = 0
    for mode, b, a in zip(MODES, before["closures"], after["closures"]):
        if b != a:
            closures += 1
            print(f"mismatch  closure {mode}")
    print(f"{closures}/{len(MODES)}  closure sha256 and truncated "
          f"(horn_c(2,3) core, depth {CLOSURE_DEPTH}, "
          f"max_body {CLOSURE_MAX_BODY})")
    return 1 if keys or frags or closures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
