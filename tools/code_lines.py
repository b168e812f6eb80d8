"""Count the lines that hold code in Python modules.

A line holds code when some token other than a comment sits on it; blank
lines, comment-only lines and docstrings (a string that is a statement of
its own) do not count.  Usage::

    python3 tools/code_lines.py src/hornreduce [more files or directories]

prints one ``<lines>  <path>`` row per module, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                    tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
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


def modules(args: list[str]) -> list[Path]:
    out: list[Path] = []
    for arg in args:
        p = Path(arg)
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    total = 0
    for path in modules(argv):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
