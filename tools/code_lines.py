"""Count the lines that hold code in Python modules.

A line holds code when some token other than a comment sits on it; blank
lines, comment-only lines and docstrings (a string that is a statement of
its own) do not count.  Usage::

    python3 tools/code_lines.py src/hornreduce [more files or directories]
    python3 tools/code_lines.py --against REF src/hornreduce

The first form prints one ``<lines>  <path>`` row per module, then the
total.  The second, run inside a git checkout, prints ``<before> <after>
<delta>  <path>`` rows, reading the modules under the same paths at commit
``REF`` through ``git show``; a module missing on one side counts 0.
Without a path, or with ``--help``, prints this text to stderr; an
unknown option or a path that does not exist is a one-line error.  Both
exit 64.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def source_lines(source: bytes) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
              if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines: set[int] = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[k - 1].type in _STATEMENT_START
                and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a docstring, or a bare string statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    return source_lines(path.read_bytes())


def modules(args: list[str]) -> list[Path]:
    out: list[Path] = []
    for arg in args:
        p = Path(arg)
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True,
                          check=True).stdout


def counts_at(ref: str, args: list[str]) -> dict[str, int]:
    """Code lines per module under ``args`` at commit ``ref``, keyed by
    path relative to the working directory."""
    out: dict[str, int] = {}
    for arg in args:
        listing = _git("ls-tree", "-r", "-z", "--name-only", ref, "--",
                       os.path.relpath(arg))
        for name in listing.decode().split("\0"):
            if name.endswith(".py"):
                out[name] = source_lines(_git("show", f"{ref}:./{name}"))
    return out


def main(argv: list[str]) -> int:
    ref = None
    if argv[:1] == ["--against"]:
        ref, argv = (argv[1] if len(argv) > 1 else None), argv[2:]
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 64
    for arg in argv:
        if arg.startswith("-") or not Path(arg).exists():
            what = "unknown option" if arg.startswith("-") \
                else "no such file or directory"
            print(f"code_lines: {what}: {arg}", file=sys.stderr)
            return 64
    after = {str(p) if ref is None else os.path.relpath(p): code_lines(p)
             for p in modules(argv)}
    if ref is None:
        for path, n in after.items():
            print(f"{n:6d}  {path}")
        print(f"{sum(after.values()):6d}  total")
        return 0
    try:
        before = counts_at(ref, argv)
    except subprocess.CalledProcessError as e:
        print(e.stderr.decode().strip(), file=sys.stderr)
        return 1
    for path in sorted(before.keys() | after.keys()):
        b, a = before.get(path, 0), after.get(path, 0)
        print(f"{b:6d} {a:6d} {a - b:+6d}  {path}")
    b, a = sum(before.values()), sum(after.values())
    print(f"{b:6d} {a:6d} {a - b:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
