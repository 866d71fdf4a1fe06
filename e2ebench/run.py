"""End-to-end scenario benchmark of the two-level power manager.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload testbed-light --seed 1 \
        --seconds 30 --trace 0

Runs one workload of :mod:`workloads` through the production defaults
of :class:`repro.engine.kernel.ControlPlane` for about ``--seconds``
seconds of host time, checks every execution's outputs, and prints one
JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
first input draw untraced and then traced (see :mod:`layers`) and
reports the per-layer metrics.  The line before the result holds the
environment fingerprint and each draw's simulated outcomes.
See ``e2ebench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PHASES = ("faults", "sense", "sysid", "control", "arbitrate", "optimize",
          "actuate", "telemetry")


#: Units of the end-to-end metrics; per-layer units follow the names.
UNITS = {"peak_rss_mb": "MB", "energy_wh": "Wh", "sla_miss_frac": "ratio",
         "migrations": "count"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment(seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


class Ledger:
    """Attempted/failed executions and the first outcome of each draw."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.outcomes: Dict[int, Dict[str, float]] = {}

    def run(self, draw: int, spec, label: str):
        from workloads import CheckFailed, execute, mismatch

        self.attempted += 1
        try:
            ex = execute(spec)
            first = self.outcomes.setdefault(draw, ex.outcome)
            diff = mismatch(first, ex.outcome)
            if diff is not None:
                raise CheckFailed(f"{label} differs from the first run: {diff}")
            return ex
        except Exception:
            self.failed += 1
            print(f"[{label}] execution failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None


#: Mean duration of one :func:`calibrate` chunk on the reference box
#: (2-core VM, Python 3.11, numpy 2.4, in its fast state).  End-to-end
#: times are scaled by ``CALIBRATION_REF_S`` over the run's mean chunk
#: time, so a host that slows down for minutes at a time (shared CPUs)
#: does not shift the reported times with it.
CALIBRATION_REF_S = 0.03


def calibrate(chunks: int = 10) -> List[float]:
    """Durations of fixed-work chunks that mix the scenarios' kinds of
    work: event-heap churn (the DES), interpreter arithmetic and dict
    updates (Minimum Slack, bookkeeping) and small dense solves (MPC)."""
    import heapq

    import numpy as np

    a = np.random.default_rng(0).standard_normal((16, 16))
    a = a @ a.T + np.eye(16)
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        heap: List = []
        for i in range(20000):
            heapq.heappush(heap, ((i * 7919) % 10007, i, (i, i)))
            if i & 1:
                heapq.heappop(heap)
        x = 0
        table = {}
        for i in range(40000):
            x += i * i % 7
            table[i & 1023] = x
        for i in range(400):
            np.linalg.solve(a, a[i & 15])
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(workload, seed: int, seconds: float, ledger: Ledger):
    """Run every draw once, the first draw again (determinism check), and
    keep cycling until *seconds* pass.  Timings are medians over all
    executions, scaled to the calibration reference; simulated outcomes
    average over the draws."""
    specs = [workload.make_spec(s, False) for s in workload.seeds(seed)]
    execs: List = []
    cal = calibrate()
    start = time.perf_counter()
    n = 0
    while n <= len(specs) or time.perf_counter() - start < seconds:
        i = n % len(specs)
        ex = ledger.run(i, specs[i], f"draw {i} run {n // len(specs)}")
        cal += calibrate()
        if ex is not None:
            execs.append(ex)
        n += 1
    if not execs:
        return {}, {}
    speed = CALIBRATION_REF_S / statistics.fmean(cal)
    unscaled = {
        name: statistics.median(getattr(ex, name) for ex in execs)
        for name in ("setup_s", "run_s", "decide_s")
    }
    outcomes = list(ledger.outcomes.values())
    values = {
        **{name: value * speed for name, value in unscaled.items()},
        "peak_rss_mb": max(ex.rss_mb for ex in execs),
        "energy_wh": statistics.fmean(o["energy_wh"] for o in outcomes),
        "sla_miss_frac": sum(o["missed"] for o in outcomes)
        / sum(o["served"] for o in outcomes),
        "migrations": statistics.fmean(o["migrations"] for o in outcomes),
    }
    return values, {"speed": speed, "calibration_s": cal, "unscaled": unscaled}


def per_layer(workload, seed: int, seconds: float, ledger: Ledger):
    """Untraced then traced executions of the first draw, repeated until
    *seconds* pass.  Pods run inline when traced; the pooled run gives
    ``pods.advance.s`` and an inline untraced run the overhead base."""
    from layers import LayerTrace

    seeds = workload.seeds(seed)[0]
    default = workload.make_spec(seeds, False)
    inline = workload.make_spec(seeds, True)
    sharded = default.harness == "sharded"
    trace = LayerTrace()
    pooled: List = []
    base: List = []
    traced: List = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        ex = ledger.run(0, default, "untraced")
        if ex is not None:
            (pooled if sharded else base).append(ex)
        if sharded:
            ex = ledger.run(0, inline, "untraced inline")
            if ex is not None:
                base.append(ex)
        with trace:
            ex = ledger.run(0, inline, "traced")
        if ex is None:
            break
        traced.append(ex)
    if not (traced and base):
        return {}, {"absent": trace.absent}
    out = trace.metrics(len(traced))
    for name in PHASES:
        out[f"engine.phase.{name}.s"] = statistics.fmean(
            e.phase_s.get(name, 0.0) for e in traced
        )
    run_s = statistics.median(e.run_s for e in traced)
    out["trace.run_s"] = run_s
    out["trace.overhead_s"] = run_s - statistics.median(e.run_s for e in base)
    out["pods.advance.s"] = (
        statistics.median(e.phase_s["optimize"] for e in pooled) if pooled else 0.0
    )
    pool_run_s = statistics.median(e.run_s for e in pooled) if pooled else run_s
    out["share.control"] = out["engine.phase.control.s"] / run_s
    out["share.des"] = out["plant.run_period.s"] / run_s
    out["share.minslack"] = out["mbs.s"] / run_s
    out["share.pool"] = out["pods.advance.s"] / pool_run_s
    # Inline over pooled wall time: what the pod pool buys.
    out["pods.speedup_ratio"] = (
        statistics.median(e.run_s for e in base) / pool_run_s if pooled else 0.0
    )
    return out, {"absent": trace.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e2ebench: no src/repro under {ROOT}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    measure = per_layer if args.trace else end_to_end
    values, notes = measure(workload, args.seed, args.seconds, ledger)
    print(json.dumps({
        "workload": workload.name,
        "env": environment(args.seed),
        "outcomes": ledger.outcomes,
        **notes,
    }))
    print(json.dumps({
        "correct": ledger.failed == 0 and bool(values),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in values.items()
        },
    }))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
