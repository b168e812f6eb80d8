"""Compare the CLI's stdout and exit codes with another commit.

Usage, inside a git checkout::

    python3 tools/stdoutdiff.py --against REF

Extracts ``src/`` at commit ``REF`` into a temporary directory with ``git
archive`` and runs it and this checkout's ``src/`` in one subprocess each.
Both run the same fixed command lines through ``hornreduce.cli.run``:
``reduce --fragment`` of six fragments in both modes, five ``check``
lines (a standard-mode proof, the partition decider's and the forward
oracle's sld witnesses for one clause, the first depth-2 extension family
member in sld and a 12-literal open chain in standard mode, both
irreducible after the whole cut walk), one ``enumerate --json`` of a
two-connected fragment, the depth-1 extension family of the base clause,
the forward oracle's standard-mode proof of the base clause (a pool scan
with a factoring chain), two ``check`` lines that read clause text (one
with tabs and no spaces, one that is no clause) and one ``derive`` that
prints a proof: 23 command lines.
Prints a ``mismatch`` row per command line whose exit code or stdout
differs, then ``<mismatches>/<compared>``, and exits 1 on any mismatch,
0 when there is none.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from keydiff import run_against  # noqa: E402

# The dyadic base clause, ``hornreduce.reduction.c_base``.
C_BASE = ("P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), P4(x2,x4), "
          "P5(x3,x4).")
# The theory file of the ``derive`` line, whose argv names it THEORY.
THEORY = "P0(x) :- P1(x).\nP0(x) :- P1(x), P2(x).\n"
ARGV = [
    ["reduce", "--fragment", fragment, "--mode", mode]
    for fragment in ("2,2,c", "3,1,2c", "2,2,2c", "1,4,c", "1,3,c", "2,3,c")
    for mode in ("sld", "standard")
] + [
    ["check", "--clause", C_BASE, "--mode", "standard", "--fragment-class",
     "c"],
] + [
    ["check", "--clause", "P0(x1,x2) :- P1(x1,x2), P2(x2,x3), P3(x3,x1).",
     "--mode", "sld", "--fragment-class", "c"] + method
    for method in ([], ["--method", "forward"])
] + [
    ["check", "--clause", "P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), "
     "P4(x4,x5), P5(x5,x3), P6(x5,x6), P7(x6,x7), P8(x6,x8), P9(x7,x2), "
     "P10(x7,x8), P11(x8,x4).", "--mode", "sld", "--fragment-class", "2c"],
    ["check", "--clause", "P0(x0) :- " + ", ".join(
        f"P{i}(x{i - 1},x{i})" for i in range(1, 12)) + ".",
     "--mode", "standard"],
] + [
    ["enumerate", "--arity", "2", "--body", "3", "--two-connected",
     "--most-general", "--json"],
    ["extend", "--clause", C_BASE, "--depth", "1"],
    ["check", "--clause", C_BASE, "--mode", "standard",
     "--fragment-class", "c", "--method", "forward"],
    # clause text with tabs and no spaces around ":-" and the commas, and
    # text that is not a clause (exit 65, empty stdout)
    ["check", "--clause", "P0(x1,x2):-P1(x1,x3),\tP2(x2,x3),P3(x3,x1)."],
    ["check", "--clause", "P0(x1) :- P1(x1,."],
    # last: tests/test_tools.py runs ARGV[-1], which reads THEORY
    ["derive", "--theory", "THEORY", "--goal",
     "P0(z) :- P1(z), P2(z), P3(z), P4(z).", "--max-depth", "2",
     "--mode", "standard"],
]

# Run with a tree's src/ first on sys.path; reads the theory text and the
# command lines as JSON on stdin and writes each line's exit code and the
# sha256 of its stdout.
_WORKER = """
import hashlib, json, sys
from hornreduce.cli import run
data = json.load(sys.stdin)
with open("theory.thy", "w", encoding="utf-8") as f:
    f.write(data["theory"])
answers = []
for argv in data["argv"]:
    code, out, _ = run(["theory.thy" if a == "THEORY" else a for a in argv])
    answers.append([code, hashlib.sha256(out.encode()).hexdigest()])
json.dump(answers, sys.stdout)
"""


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "--against":
        print(__doc__.strip(), file=sys.stderr)
        return 64
    payload = json.dumps({"theory": THEORY, "argv": ARGV})
    answers = run_against(argv[1], _WORKER, payload)
    if answers is None:
        return 1
    before, after = answers
    bad = 0
    for line, b, a in zip(ARGV, before, after):
        if b != a:
            bad += 1
            print(f"mismatch  {' '.join(line)}")
    print(f"{bad}/{len(ARGV)}  cli exit code and stdout")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
