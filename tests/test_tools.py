"""The repository's helper scripts under ``tools/``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

_spec = importlib.util.spec_from_file_location(
    "code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment-only line

import os  # a trailing comment does not hide the code
"a bare string statement"


def f(x):
    """Docstring."""
    y = (x +
         1)
    s = """a
b"""
    return "t".join([y, s])
'''


def test_code_lines_counts_only_lines_holding_code(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # import, def, both lines of y, both lines of s, return.
    assert code_lines.code_lines(path) == 7


def test_code_lines_totals_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["7", "1", "8"]
    assert rows[-1].split()[1] == "total"


def test_code_lines_without_arguments_exits_64():
    proc = subprocess.run([sys.executable, str(TOOLS / "code_lines.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert "Usage" in proc.stderr


def test_code_lines_against_a_commit(tmp_path, monkeypatch, capsys):
    # A temporary repository: pkg/a.py grows by a line after the commit,
    # pkg/b.py is deleted and pkg/c.py is new.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(SAMPLE, encoding="utf-8")
    (pkg / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    monkeypatch.chdir(tmp_path)
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "pkg"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    (pkg / "a.py").write_text(SAMPLE + "z = 3\n", encoding="utf-8")
    (pkg / "b.py").unlink()
    (pkg / "c.py").write_text("w = 4\n", encoding="utf-8")
    assert code_lines.main(["--against", "HEAD", "pkg"]) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert rows == [["7", "8", "+1", "pkg/a.py"],
                    ["2", "0", "-2", "pkg/b.py"],
                    ["0", "1", "+1", "pkg/c.py"],
                    ["9", "9", "+0", "total"]]
    assert code_lines.main(["--against", "no-such-ref", "pkg"]) == 1
    assert code_lines.main(["--against", "HEAD"]) == 64
