"""hornreduce benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: enumerate, reduce, decide, derive (see workloads.py for what
each runs and why).  With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced round.  ``all`` runs every workload
in turn and prints one table.

Every run uses fresh processes, one at a time: set-up is timed in
``SETUPS`` processes that stop when ready (the median is ``setup_s``), and
one more, between them, runs the timed rounds.  Each process gets ``PYTHONHASHSEED`` from the seed,
so the frozen answers also check that no answer depends on the hash seed.

A round runs every unit (program call) of the workload once, cold.  Each
call's time, and each set-up time, is scaled to a core of fixed speed by
the reference load of ``reference.py`` timed next to it, and a unit's time
is the median of its scaled times over the run's rounds: ``wall_s`` is the
sum of those, one round, and ``query_p50_ms`` and ``query_p90_ms`` are
percentiles over them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import reference_time, scale  # noqa: E402

WORKLOADS = ("enumerate", "reduce", "decide", "derive")
SETUPS = 9
DEADLINE_S = 170.0


class _Worker:
    """A worker process whose stdout lines are read against a deadline."""

    def __init__(self, args: list[str], seed: int):
        env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self._buf = b""

    def line(self, deadline: float) -> str:
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("worker missed the run deadline")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    raise RuntimeError(
                        f"worker exited early (code {self.proc.wait()})")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _run_worker(args: list[str], seed: int, deadline: float) -> dict:
    """Run a worker to its end; return its report."""
    worker = _Worker(args, seed)
    try:
        if worker.line(deadline) != "ready":
            raise RuntimeError("worker did not report ready")
        report = json.loads(worker.line(deadline))
        if worker.proc.wait(max(0.0, deadline - time.monotonic())) != 0:
            raise RuntimeError(f"worker exited {worker.proc.returncode}")
        return report
    finally:
        worker.close()


def _setup_time(args: list[str], seed: int, deadline: float) -> float:
    """One worker's set-up time, from spawn to ready, scaled by the
    reference load timed just before the spawn and after the exit."""
    before = reference_time()
    start = time.perf_counter()
    worker = _Worker(args + ["--setup-only"], seed)
    try:
        if worker.line(deadline) != "ready":
            raise RuntimeError("worker did not report ready")
        setup_s = time.perf_counter() - start
        if worker.proc.wait(max(0.0, deadline - time.monotonic())) != 0:
            raise RuntimeError(f"worker exited {worker.proc.returncode}")
    finally:
        worker.close()
    return scale(setup_s, (before + reference_time()) / 2)


def _percentile(xs: list[float], q: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run; the result object the benchmark prints."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    if trace:
        report = _run_worker(base + ["--trace", "1"], seed, deadline)
        metrics = report["layers"]
        for line in report["spans"]:
            print(f"  {line}", file=sys.stderr)
    else:
        # set-up is timed before and after the rounds, so that its median
        # does not rest on one stretch of a noisy host
        setups = [_setup_time(base, seed, deadline)
                  for _ in range(SETUPS // 2)]
        report = _run_worker(base + ["--seconds", str(seconds)], seed,
                             deadline)
        setups += [_setup_time(base, seed, deadline)
                   for _ in range(SETUPS - SETUPS // 2)]
        units = report["unit_s"]
        lat = [t * 1000.0 for t in units]
        metrics = {
            "wall_s": {"value": math.fsum(units), "unit": "s"},
            "query_p50_ms": {"value": _percentile(lat, 50), "unit": "ms"},
            "query_p90_ms": {"value": _percentile(lat, 90), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{name}: {len(report['round_s'])} rounds of {len(lat)} "
              "calls, scaled "
              + ", ".join(f"{w:.3f}" for w in report["round_s"])
              + " s; unscaled, the fastest calls sum to "
              f"{math.fsum(report['best_raw_s']):.4f} s and the reference "
              f"load took {report['reference_s'] * 1e6:.1f} us; set-up "
              + ", ".join(f"{s:.3f}" for s in setups) + " s",
              file=sys.stderr)
    for failure in report["failures"]:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hornreduce" / "__init__.py").is_file():
        print(f"run.py: no hornreduce sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except (OSError, RuntimeError, TimeoutError, ValueError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {}}
    for name, r in results.items():
        share = r["failed"] / r["attempted"]
        rows = [(m, v["value"], v["unit"]) for m, v in r["metrics"].items()]
        rows.append(("failed_share", share, "ratio"))
        for metric, value, unit in rows:
            print(f"{name:10s} {metric:44s} {value:14.6g} {unit}")
            summary["metrics"][f"{name}.{metric}"] = {"value": value,
                                                      "unit": unit}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
