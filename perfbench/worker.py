"""One benchmark process: set up one workload, run its rounds, check them.

Started by ``run.py``, never by hand.  It prints ``ready`` once set-up is
done (the program imported, the expected answers loaded, the units made),
then, unless ``--setup-only``, one JSON line with each unit's time (the
median over the rounds of its scaled time, see ``workloads``), the round
times, the answer checks and, with ``--trace 1``, the per-layer metrics.
Unscaled figures ride along for the record: each unit's fastest raw time
and the median reference-load time.

Without tracing it runs rounds, each over every unit in a new seeded order,
until the next round would end past ``--seconds`` (answer checks included)
and at least ``MIN_ROUNDS`` are done.  With tracing it runs one traced
round (set-up parsing is traced too) and then one untraced round; the
ratio of their times is the tracing overhead.  Each round is checked when
it ends, outside the timed calls and with tracing off, and its outputs are
then dropped.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

MIN_ROUNDS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import hornreduce
    if Path(hornreduce.__file__).resolve().parent != ROOT / "src" / "hornreduce":
        print(f"worker: hornreduce imported from {hornreduce.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](
        workloads.load_expected(), args.seed)
    # set-up's objects (the expected answers above all) stay alive; keep
    # the collector from scanning them again inside the timed calls
    gc.collect()
    gc.freeze()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    n = len(workload.units)
    scaled: list[list[float]] = [[] for _ in range(n)]
    best = [float("inf")] * n
    references: list[float] = []
    round_s: list[float] = []
    failures: list[str] = []
    attempted = 0
    peak_rss_mb = 0.0
    rng = random.Random(args.seed)
    started = time.perf_counter()
    while True:
        order = list(range(n))
        rng.shuffle(order)
        began = time.perf_counter()
        calls = workload.run_round(order)
        if tracer is not None:
            tracer.uninstall()
        if not round_s:
            # after the first round, so the figure does not grow with the
            # number of rounds or with the answer checks
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        failures += workload.check(calls, deep=not round_s)
        for call in calls:
            scaled[call.unit].append(call.scaled)
            best[call.unit] = min(best[call.unit], call.seconds)
            references.append(call.reference)
        round_s.append(math.fsum(call.scaled for call in calls))
        attempted += len(calls)
        del calls
        if tracer is not None:
            if len(round_s) == 2:
                break
            continue
        now = time.perf_counter()
        if (len(round_s) >= MIN_ROUNDS
                and now + (now - began) - started > args.seconds):
            break
    report = {
        "unit_s": [statistics.median(xs) for xs in scaled],
        "best_raw_s": best,
        "reference_s": statistics.median(references),
        "round_s": round_s,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        from tracing import layer_metrics
        report["layers"] = layer_metrics(tracer, round_s[0] / round_s[1])
        report["spans"] = tracer.table()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
