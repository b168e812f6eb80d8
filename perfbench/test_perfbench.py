"""Self-tests of the benchmark (not of hornreduce):

    python3 -m pytest -q perfbench

They check that ``BENCHMARK.json`` names exactly the metrics the code
reports, that every timed round starts cold, that per-layer counts do not
depend on the hash seed, that each workload drives the layers it is meant
to (and not those it is meant to bypass), that ``reduce --fragment 2,3,c``
prints its frozen bytes under several hash seeds, and that the benchmark
refuses to run without the program's sources.  They take about a minute:
every workload is traced under two hash seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# Per-layer metric -> workloads on which it must be non-zero.
COVERAGE = {
    "clauses.canonical.calls": ("reduce", "enumerate"),
    "clauses.canonical.self_s": ("reduce", "enumerate"),
    "clauses.alpha_equivalent.calls": ("reduce",),
    "clauses.theory_build.calls": ("reduce",),
    "clauses.is_instance.calls": ("decide", "derive"),
    "clauses.is_instance.hit_ratio": ("decide", "derive"),
    "clauses.is_instance.self_s": ("decide", "derive"),
    "clauses.parse.self_s": ("decide", "derive"),
    "graphs.is_connected.calls": ("enumerate",),
    "graphs.is_connected.self_s": ("enumerate",),
    "graphs.light_pair.self_s": ("enumerate",),
    "fragments.enumerate.self_s": ("enumerate",),
    "fragments.enumerate.members": ("enumerate",),
    "fragments.raw_per_member": ("enumerate",),
    "fragments.most_general_in.calls": ("enumerate",),
    "fragments.most_general_in.self_s": ("enumerate",),
    "fragments.member.calls": ("decide",),
    "fragments.member.self_s": ("decide",),
    "resolution.resolve.calls": ("decide", "derive"),
    "resolution.resolve.success_ratio": ("decide", "derive"),
    "resolution.resolve.self_s": ("decide", "derive"),
    "resolution.factor.calls": ("decide", "derive"),
    "resolution.factor.success_ratio": ("decide", "derive"),
    "resolution.closure.calls": ("derive",),
    "resolution.closure.admitted": ("derive",),
    "resolution.closure.truncated_share": ("derive",),
    "resolution.closure.self_s": ("derive",),
    "resolution.search_derivation.calls": ("reduce",),
    "resolution.search_derivation.found_ratio": ("reduce",),
    "resolution.step_candidates.yielded": ("reduce",),
    "resolution.replay_proof.self_s": ("reduce",),
    "resolution.proof_json.self_s": ("reduce",),
    "reduction.is_reducible.calls": ("decide",),
    "reduction.is_reducible.self_s": ("decide",),
    "reduction.is_reducible.reducible_ratio": ("decide",),
    "reduction.pool_enumeration_s": ("decide",),
    "reduction.reduce_theory.self_s": ("reduce",),
    "reduction.split.self_s": ("enumerate",),
    "cli.run.self_s": ("reduce",),
    "cli.stdout_bytes": ("reduce",),
    "trace.overhead_ratio": run.WORKLOADS,
}


def _counts(layers: dict) -> dict:
    return {k: v["value"] for k, v in layers.items()
            if v["unit"] in ("count", "bytes")}


def _traced_report(workload: str, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
        check=True).stdout.splitlines()
    assert out[0] == "ready"
    return json.loads(out[-1])


@pytest.fixture(scope="module")
def traced():
    """Traced reports per workload under hash seeds 0 and 1."""
    return {w: [_traced_report(w, h) for h in (0, 1)] for w in run.WORKLOADS}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    want = {n: (u, b) for n, (u, b, _) in tracing.PER_LAYER.items()}
    want[tracing.OVERHEAD[0]] = tracing.OVERHEAD[1:]
    assert layers == want
    assert set(COVERAGE) == set(layers)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "query_p50_ms", "query_p90_ms", "setup_s", "peak_rss_mb"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_rounds_start_cold():
    """A second round in the same process does the same work as the first."""
    work = workloads.Enumerate(workloads.load_expected(), SEED)
    order = list(range(len(work.units)))
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            calls = work.run_round(order)
        finally:
            tracer.uninstall()
        assert work.check(calls, deep=False) == []
        layers = tracing.layer_metrics(tracer, 1.0)
        counts.append(_counts(layers))
        counts[-1]["raw_per_member"] = \
            layers["fragments.raw_per_member"]["value"]
    assert counts[0] == counts[1]
    assert counts[0]["graphs.is_connected.calls"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_do_not_depend_on_hash_seed(traced, workload):
    first, second = traced[workload]
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["layers"]) == _counts(second["layers"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workloads_drive_their_layers(traced, workload):
    layers = traced[workload][0]["layers"]
    idle = [m for m, ws in COVERAGE.items()
            if workload in ws and not layers[m]["value"] > 0]
    assert idle == []
    if workload == "reduce":
        assert layers["resolution.closure.calls"]["value"] == 0


def test_partition_queries_do_not_canonicalize():
    work = workloads.Decide(workloads.load_expected(), SEED)
    order = [k for k, u in enumerate(work.units)
             if u.label.endswith(" " + workloads.hr.METHOD_PARTITION)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        calls = work.run_round(order)
    finally:
        tracer.uninstall()
    assert work.check(calls, deep=False) == []
    layers = tracing.layer_metrics(tracer, 1.0)
    assert layers["reduction.is_reducible.calls"]["value"] == len(order)
    assert layers["clauses.canonical.calls"]["value"] == 0


def test_reduce_stdout_does_not_depend_on_hash_seed():
    """The project's reduce of horn_c(2,3), too long to be a unit, prints
    the frozen bytes under several hash seeds."""
    want = workloads.load_expected()["reduce"]["horn_c23"]["stdout_sha256"]
    script = ("import hashlib, sys, hornreduce.cli; "
              "code, out, _ = hornreduce.cli.run(sys.argv[1:]); "
              "print(code, hashlib.sha256(out.encode()).hexdigest())")
    for hash_seed in (0, 1, 2):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=str(ROOT / "src"))
        got = subprocess.run(
            [sys.executable, "-c", script, *workloads.Reduce.HORN_C23_ARGV],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
            check=True).stdout.split()
        assert got == ["0", want]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert got.returncode != 0
    assert got.stdout.strip() == ""
