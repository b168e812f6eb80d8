"""The repository's helper scripts under ``tools/``."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"



def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
keydiff = _load("keydiff")
stdoutdiff = _load("stdoutdiff")

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


def test_keydiff_against_a_commit(tmp_path, monkeypatch, capsys):
    # A temporary repository holding this package: equal to its own
    # commit, then a working-tree change that reverses every key's atoms.
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    monkeypatch.chdir(tmp_path)
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "src"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    monkeypatch.setattr(keydiff, "CORPUS_SIZE", 300)
    monkeypatch.setattr(keydiff, "SPECS", [("horn_c", 2, 2), ("horn", 1, 2)])
    assert keydiff.main(["--against", "HEAD"]) == 0
    closure_row = ("closure sha256 and truncated "
                   "(horn_c(2,3) core, depth 2, max_body 5)")
    assert capsys.readouterr().out.splitlines() == [
        "0/300  canonical keys (seed 6)", "0/2  enumerate_fragment sha256",
        f"0/2  {closure_row}"]
    with open(tmp_path / "src" / "hornreduce" / "clauses.py", "a",
              encoding="utf-8") as f:
        f.write("\n_serialize = _canonical_serialization\n\n\n"
                "def _canonical_serialization(c):\n"
                "    has_head, atoms = _serialize(c)\n"
                "    return has_head, atoms[::-1]\n")
    assert keydiff.main(["--against", "HEAD"]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].endswith("/300  canonical keys (seed 6)")
    assert rows[0] != "0/300  canonical keys (seed 6)"
    assert rows[1:] == ["mismatch  enumerate_fragment horn_c(2,2)",
                        "mismatch  enumerate_fragment horn(1,2)",
                        "2/2  enumerate_fragment sha256",
                        "mismatch  closure sld", "mismatch  closure standard",
                        f"2/2  {closure_row}"]
    assert keydiff.main(["--against", "no-such-ref"]) == 1
    assert keydiff.main([]) == 64


def test_stdoutdiff_against_a_commit(tmp_path, monkeypatch, capsys):
    # A temporary repository holding this package: equal to its own
    # commit, then a working-tree change that adds a space to every JSON
    # payload.
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    monkeypatch.chdir(tmp_path)
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "src"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], check=True)
    reduce = ["reduce", "--fragment", "1,3,c"]
    monkeypatch.setattr(stdoutdiff, "ARGV", [reduce, stdoutdiff.ARGV[-1],
                                             ["graph", "--clause", "P(x)."]])
    assert stdoutdiff.main(["--against", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0/3  cli exit code and stdout"]
    with open(tmp_path / "src" / "hornreduce" / "cli.py", "a",
              encoding="utf-8") as f:
        f.write("\n_text = _json_text\n\n\n"
                "def _json_text(payload):\n"
                "    return _text(payload) + ' '\n")
    assert stdoutdiff.main(["--against", "HEAD"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mismatch  reduce --fragment 1,3,c",
        "mismatch  " + " ".join(stdoutdiff.ARGV[1]),
        "2/3  cli exit code and stdout"]
    assert stdoutdiff.main(["--against", "no-such-ref"]) == 1
    assert stdoutdiff.main([]) == 64
