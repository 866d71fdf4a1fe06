"""The tracked performance suite: fast lane vs reference, end to end.

Each case times one optimized hot path against the unoptimized
reference path *in the same process on the same inputs*, so the
reported ``speedup`` is machine-independent — CI compares speedups,
never absolute wall-clock, against the committed ``BENCH_perf.json``.

Cases
-----
``mpc_solve``
    400 closed-loop MPC periods with binding rate/capacity constraints.
    Fast: cached prediction matrices + warm-started active set.
    Reference: warm start off and the matrix cache busted every period
    (what the pre-fast-lane controller recomputed each solve).
``minslack``
    A drifting-demand repack sequence for one server.  Fast: dominance
    pruning + the previous period's selection as starting incumbent.
    Reference: exhaustive cold search each period.
``ipac``
    Full PAC consolidations (the repack the ``pac``/``static_peak``
    schemes and the evacuation path issue) over a drifting-demand
    sequence on a near-subset-sum instance.  Fast:
    ``PACConfig.incremental`` seeds each server's Minimum Slack search
    with the standing selection, which revalidates in zero steps while
    demand drifts slowly.  Reference: every search from scratch.
    (Steady-state :func:`~repro.core.optimizer.ipac.ipac` calls never
    exercise this seam — its relief phase is idle without overloads and
    its drain seeds point at the excluded victim — so the case times
    the call sites where the seed actually binds.)
``mpc_batch``
    A homogeneous fleet of MPC controllers solved per period.  Fast:
    :func:`~repro.control.mpc_core.solve_mpc_batch` — shared-model
    controllers grouped into one stacked-RHS QP solve per active-set
    round.  Reference: one scalar :meth:`MPCController.solve` each.
``rls_batch``
    Per-app ARX adaptation across a fleet.  Fast:
    :func:`~repro.sysid.rls.rls_update_batch` — stacked ``(B, n, n)``
    covariance einsums.  Reference: sequential per-app updates.
``fleet_control``
    The production control step end to end at a paper-scale app count:
    hundreds of registered controllers driven through
    :meth:`~repro.core.manager.PowerManager.control_step`.  Fast:
    ``control_mode="fleet"`` (the default) — one
    :class:`~repro.core.fleet.FleetControlStep` run per period.
    Reference: ``control_mode="scalar"``, the per-app loop.  Unlike
    ``mpc_batch``/``rls_batch`` this includes the manager dispatch,
    measurement handling, and demand fan-out around the kernels.
``sharded``
    The paper-scale control plane (5,415 servers / 20,000 VMs at full
    scale) through :class:`~repro.engine.sharded_backend.ShardedBackend`.
    Fast: pods on a multiprocess worker pool.  Reference: the same pods
    inline in one process (``workers=1``).  The speedup is bounded by
    the physical cores available — on a single-core machine it sits at
    or slightly below 1.0 (IPC overhead), which is the honest number
    for that machine; the committed baseline records the measuring
    box's core count in ``detail.cpu_count``.
``sharded_smoke``
    CI-sized sharded case: asserts the pooled run is *bit-identical*
    (event-log hash and per-VM energy ledger) to the inline run, then
    times 2 workers against 1.  Scale-independent; wired into the CI
    benchmark-smoke job.
``des``
    The request-level plant itself, controller excluded (uncontrolled
    testbed, static allocations).  Fast: the hybrid plant — MVA
    fast-forward over quasi-static periods, exact DES at transients —
    on the allocation-free array-PS kernel.  Reference: pure DES on the
    pre-fast-lane dict-PS kernel (``des_kernel="reference"``).  This is
    the headline DES fast-lane number; target ≥ 10x at full scale.
``des_hybrid``
    The same fast-vs-reference plant comparison at 100x the original
    closed-loop client count (1000 clients on one app): the scale the
    hybrid exists for.  Exact DES runs only at startup/settling; nearly
    everything after is MVA fast-forward.
``telemetry``
    Observability overhead on the DES hot path.  "Fast" is the fully
    instrumented run — kernel ``phase.*`` spans (sampled), request
    tracing, per-tier power attribution — against the same run with
    telemetry disabled.  Speedup here is *expected* to sit at or just
    below 1.0; the case exists so the cost of watching the system is a
    tracked number instead of a silent tax on ``des``.  The regression
    check judges its smoke run by ``detail.overhead_pct`` against a
    fixed ceiling (:data:`TELEMETRY_SMOKE_MAX_OVERHEAD_PCT`), not by
    speedup.
``largescale``
    The trace-driven harness at several hundred VMs — the end-to-end
    number.  Fast: default config (pruning, trusted snapshot
    construction, vectorized accounting) + incremental packing.
    Reference speed is the committed seed measurement
    (``baseline_wall_s``), re-measured only when the seed changes.

Every case reports ``{wall_s, iters, warm_hit_rate}`` (the latter is
``null`` where warm starting does not apply) plus the reference timing
and the speedup.  Timings run under a ``repro.obs`` telemetry scope so
the spans of each case land in the same report.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster import Application, DataCenter, Server, VM
from repro.cluster.catalog import TESTBED_SERVER
from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController, solve_mpc_batch
from repro.core import ControllerConfig, PowerManager, ResponseTimeController
from repro.core.optimizer.minslack import MinSlackConfig
from repro.core.optimizer.pac import PACConfig, pac
from repro.packing.mbs import MemoryConstraint, minimum_bin_slack
from repro.core.optimizer.types import (
    PlacementProblem,
    ServerInfo,
    make_vm_infos,
)
from repro.engine.sharded_backend import (
    ShardedConfig,
    build_sharded_engine,
    run_sharded,
)
from repro.obs import InMemoryBackend, Telemetry, get_telemetry, use_telemetry
from repro.sim.largescale import LargeScaleConfig, run_largescale
from repro.sim.testbed import TestbedConfig, TestbedExperiment
from repro.sysid.rls import RecursiveARXEstimator, rls_update_batch
from repro.traces.generator import TraceConfig, generate_trace

__all__ = [
    "CaseResult",
    "run_suite",
    "write_report",
    "compare_to_baseline",
    "CASES",
    "TELEMETRY_SMOKE_MAX_OVERHEAD_PCT",
]

#: Wall seconds the seed revision (commit 0c57883) needs for the
#: ``largescale`` case on the reference machine.  The fast lane is
#: measured live and compared against this; re-measure via
#: ``git worktree`` if the scenario below ever changes.
LARGESCALE_SEED_WALL_S = {"full": 0.77, "smoke": 0.12}

#: Ceiling on the smoke-scale ``telemetry`` case's ``detail.overhead_pct``,
#: which judges that case instead of its speedup.  The case times an
#: instrumented run against the same run dark; its honest speedup sits
#: just below 1.0, and the smoke baseline (x1.046) is above it, so the
#: rule that a fast path must not lose to its reference would fail on
#: any overhead at all.  Derived from 24 smoke-scale runs of the parent
#: revision on a shared 2-core box (median +9.2%, worst +41.1%); see
#: CHANGES.md.  The full-scale baseline (x0.92) is below 1.0, so the
#: speedup floor already allows for overhead there and still applies.
TELEMETRY_SMOKE_MAX_OVERHEAD_PCT = 50.0


@dataclass(frozen=True)
class CaseResult:
    """One benchmark case: the fast path against its reference path."""

    name: str
    wall_s: float
    reference_wall_s: float
    speedup: float
    iters: int
    warm_hit_rate: Optional[float]
    detail: Dict[str, float]

    def row(self) -> str:
        hit = "-" if self.warm_hit_rate is None else f"{self.warm_hit_rate:.0%}"
        return (
            f"{self.name:<12} {self.wall_s * 1e3:>9.1f}ms "
            f"{self.reference_wall_s * 1e3:>9.1f}ms  x{self.speedup:>5.2f}  "
            f"iters={self.iters:<7d} warm={hit}"
        )


def _time(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------- mpc --


def _mpc_loop(n_periods: int, warm: bool, bust_cache: bool) -> MPCController:
    """Closed MPC loop against a 3-input plant with binding constraints.

    The horizon (P=24, M=8, three applications) makes the per-period
    matrix work (lifted prediction matrix, Hessian, constraint stack)
    comparable to a busy multi-tier controller; the tight ``delta_max``
    keeps the rate constraints active so the QP working set is non-empty
    and warm starting has something to carry over.  ``bust_cache``
    discards the matrix cache every period — the pre-fast-lane
    controller recomputed all of it each solve.
    """
    model = ARXModel(
        a=[0.4],
        b=[[-800.0, -300.0, -500.0], [-100.0, -50.0, -80.0]],
        g=1800.0,
    )
    ctrl = MPCController(
        model,
        MPCConfig(
            prediction_horizon=24,
            control_horizon=8,
            q_weight=1.0,
            r_weight=1e3,
            delta_max=0.03,
            power_weight=200.0,
            warm_start=warm,
        ),
    )
    rng = np.random.default_rng(3)
    t_hist = [900.0, 950.0]
    c0 = np.full(3, 0.7)
    c_hist = np.vstack([c0, c0])
    ref = np.full(24, 1000.0)
    for k in range(n_periods):
        t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
        t_hist = [t_now] + t_hist[:1]
        if bust_cache:
            ctrl._cache_key = None  # re-derive matrices, as the seed did
        sol = ctrl.solve(
            t_hist, c_hist, ref, 1000.0, [0.2] * 3, [3.0] * 3
        )
        c_hist = np.vstack(
            [np.clip(c_hist[0] + sol.delta_c, 0.2, 3.0), c_hist[0]]
        )
    return ctrl


def bench_mpc_solve(scale: str) -> CaseResult:
    n = 300 if scale == "full" else 100
    _mpc_loop(30, warm=True, bust_cache=False)  # warm the process up
    with get_telemetry().span("bench.mpc_solve", periods=n):
        t0 = time.perf_counter()
        ctrl = _mpc_loop(n, warm=True, bust_cache=False)
        wall = time.perf_counter() - t0
        ref_wall = _time(lambda: _mpc_loop(n, warm=False, bust_cache=True))
    hit_rate = ctrl.warm_hits / max(ctrl.solves, 1)
    return CaseResult(
        name="mpc_solve",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=n,
        warm_hit_rate=hit_rate,
        detail={"periods": float(n)},
    )


# ----------------------------------------------------------- minslack --


def _drift_demands(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One period of demand drift, clipped away from zero."""
    return np.clip(
        base * rng.uniform(0.9998, 1.0002, size=base.shape), 0.05, None
    )


class _GenericMemoryConstraint(MemoryConstraint):
    """Same semantics as :class:`MemoryConstraint`, but a subclass.

    ``minimum_bin_slack`` inlines the *exact* ``MemoryConstraint`` type;
    a subclass takes the generic accepts/push/pop protocol path — one
    bound-method call per node, which is how the pre-fast-lane search
    evaluated every constraint.  The reference timing runs through it.
    """


def _minslack_rounds(
    n_items: int, rounds: int, seed: int, fast: bool
) -> tuple[int, int]:
    """Repack one server ``rounds`` times under slowly drifting demands.

    The instance plants a hidden subset whose total, plus a 3 ms-of-GHz
    offset, is the capacity: fills within the 0.005 GHz epsilon are rare
    (near subset-sum), so the cold search does real branch-and-bound
    work each round, while the seeded search revalidates the previous
    selection and exits immediately.  Returns (total_steps, seeded).
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.3, 0.9, size=n_items)
    planted = rng.choice(n_items, size=n_items // 3, replace=False)
    capacity = float(base[planted].sum()) + 0.003
    mems = rng.uniform(256.0, 2048.0, size=n_items)
    mem_total = float(mems.sum())
    prev: Optional[Sequence[int]] = None
    total_steps = 0
    seeded = 0
    for _ in range(rounds):
        demands = _drift_demands(base, rng)
        cons_type = MemoryConstraint if fast else _GenericMemoryConstraint
        res = minimum_bin_slack(
            demands,
            capacity,
            constraint=cons_type(mems, mem_total),
            epsilon=0.005,
            max_steps=60000,
            incumbent=prev if fast else None,
            prune=fast,
        )
        total_steps += res.steps
        seeded += int(res.seeded)
        prev = res.selected
    return total_steps, seeded


def bench_minslack(scale: str) -> CaseResult:
    n_items = 14
    seeds, rounds = (range(7, 15), 15) if scale == "full" else (range(7, 11), 6)
    _minslack_rounds(n_items, 2, 7, fast=True)  # warm the process up
    _minslack_rounds(n_items, 2, 7, fast=False)
    steps = ref_steps = seeded = 0
    with get_telemetry().span(
        "bench.minslack", items=n_items, instances=len(seeds), rounds=rounds
    ):
        t0 = time.perf_counter()
        for seed in seeds:
            s, sd = _minslack_rounds(n_items, rounds, seed, fast=True)
            steps += s
            seeded += sd
        wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        for seed in seeds:
            s, _ = _minslack_rounds(n_items, rounds, seed, fast=False)
            ref_steps += s
        ref_wall = time.perf_counter() - t0
    n_rounds = len(seeds) * rounds
    return CaseResult(
        name="minslack",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=steps,
        warm_hit_rate=seeded / max(n_rounds, 1),
        detail={"reference_steps": float(ref_steps), "rounds": float(n_rounds)},
    )


# --------------------------------------------------------------- ipac --


def _pac_repack_rounds(
    n_servers: int, group: int, rounds: int, incremental: bool
) -> float:
    """Repeated full consolidations under slowly drifting demands.

    Each server's capacity is planted so that its resident VM group,
    plus a 3 ms-of-GHz offset, fills it to the 0.95 packing target —
    a near-subset-sum instance per server, the regime where the cold
    Minimum Slack search does real branch-and-bound work every round
    while the incremental seed (the standing selection) revalidates and
    early-exits immediately.  The mapping is carried forward between
    rounds, as every real repack call site does.
    """
    rng = np.random.default_rng(23)
    n_vms = n_servers * group
    base = rng.uniform(0.3, 0.9, size=n_vms)
    mems = rng.uniform(512.0, 4096.0, size=n_vms)
    servers = tuple(
        ServerInfo(
            server_id=f"s{j}",
            max_capacity_ghz=float(
                (base[j * group : (j + 1) * group].sum() + 0.003) / 0.95
            ),
            memory_mb=64_000.0,
            efficiency=0.04 + 0.0005 * (j % 7),
            active=True,
            idle_w=160.0,
            busy_w=300.0,
            sleep_w=10.0,
        )
        for j in range(n_servers)
    )
    mapping = {f"vm{i}": f"s{i // group}" for i in range(n_vms)}
    cfg = PACConfig(
        minslack=MinSlackConfig(epsilon_ghz=0.005, max_steps=20000),
        target_utilization=0.95,
        incremental=incremental,
    )
    t0 = time.perf_counter()
    for _ in range(rounds):
        demands = _drift_demands(base, rng)
        vms = make_vm_infos([f"vm{i}" for i in range(n_vms)], demands, mems)
        problem = PlacementProblem(servers=servers, vms=vms, mapping=mapping)
        plan = pac(problem, None, cfg)
        mapping = dict(plan.final_mapping)
    return time.perf_counter() - t0


def bench_ipac(scale: str) -> CaseResult:
    n_servers, group, rounds = (16, 12, 24) if scale == "full" else (8, 14, 8)
    _pac_repack_rounds(n_servers, group, 1, True)  # warm the process up
    with get_telemetry().span(
        "bench.ipac", servers=n_servers, group=group, rounds=rounds
    ):
        wall = _time(lambda: _pac_repack_rounds(n_servers, group, rounds, True))
        ref_wall = _time(
            lambda: _pac_repack_rounds(n_servers, group, rounds, False)
        )
    return CaseResult(
        name="ipac",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=rounds,
        warm_hit_rate=None,
        detail={
            "n_vms": float(n_servers * group),
            "n_servers": float(n_servers),
        },
    )


# ---------------------------------------------------------------- des --


def _plant_run(
    plant_mode: str,
    des_kernel: str,
    duration_s: float,
    concurrency: int,
    n_servers: int = 2,
    n_apps: int = 2,
    alloc_ghz: float = 1.6,
):
    """One uncontrolled testbed run: the plant alone, no controller.

    ``controlled=False`` keeps allocations static, so both arms time
    pure plant simulation — the MPC stack has its own case.  The model
    is unused in an uncontrolled run, but passing one skips the
    system-identification pre-run (a full DES experiment that would
    otherwise dominate both arms and drown the kernel difference).
    """
    b = [[-800.0] * n_apps, [-100.0] * n_apps]
    model = ARXModel(a=[0.4], b=b, g=1800.0)
    cfg = TestbedConfig(
        n_servers=n_servers,
        n_apps=n_apps,
        duration_s=duration_s,
        warmup_s=20.0,
        concurrency=concurrency,
        initial_alloc_ghz=alloc_ghz,
        controlled=False,
        plant_mode=plant_mode,
        des_kernel=des_kernel,
        seed=77,
    )
    return TestbedExperiment(cfg, model=model).run()


def bench_des(scale: str) -> CaseResult:
    duration = 600.0 if scale == "full" else 240.0
    conc = 200
    _plant_run("hybrid", "fast", 60.0, conc)  # warm the process up
    with get_telemetry().span("bench.des", duration_s=duration):
        t0 = time.perf_counter()
        res = _plant_run("hybrid", "fast", duration, conc)
        wall = time.perf_counter() - t0
        ref_wall = _time(
            lambda: _plant_run("des", "reference", duration, conc)
        )
    modes = res.hybrid["app0"]
    return CaseResult(
        name="des",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=int(duration),
        warm_hit_rate=None,
        detail={
            "duration_s": duration,
            "concurrency": float(conc),
            "mva_periods": float(modes["mva_periods"]),
            "exact_periods": float(modes["exact_periods"]),
        },
    )


def bench_des_hybrid(scale: str) -> CaseResult:
    duration = 240.0 if scale == "full" else 120.0
    conc = 1000  # 100x the original closed-loop client count of 10
    _plant_run(
        "hybrid", "fast", 60.0, conc, n_servers=1, n_apps=1, alloc_ghz=2.0
    )  # warm the process up
    with get_telemetry().span(
        "bench.des_hybrid", duration_s=duration, concurrency=conc
    ):
        t0 = time.perf_counter()
        res = _plant_run(
            "hybrid", "fast", duration, conc,
            n_servers=1, n_apps=1, alloc_ghz=2.0,
        )
        wall = time.perf_counter() - t0
        ref_wall = _time(
            lambda: _plant_run(
                "des", "reference", duration, conc,
                n_servers=1, n_apps=1, alloc_ghz=2.0,
            )
        )
    modes = res.hybrid["app0"]
    return CaseResult(
        name="des_hybrid",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=int(duration),
        warm_hit_rate=None,
        detail={
            "duration_s": duration,
            "concurrency": float(conc),
            "clients_x_base": 100.0,
            "mva_periods": float(modes["mva_periods"]),
            "exact_periods": float(modes["exact_periods"]),
        },
    )


# ---------------------------------------------------------- telemetry --


def _obs_testbed_run(duration_s: float, instrumented: bool) -> int:
    """One testbed run, fully observed or fully dark.

    The instrumented variant is the worst reasonable case a user would
    actually run: an in-memory backend, kernel phase spans sampled 1:8,
    request tracing at 1:8, and per-tier power attribution on.  The dark
    variant nests a disabled :class:`Telemetry` so the suite's own
    telemetry scope does not leak into the reference timing.  Returns
    the number of records captured (0 when dark).
    """
    model = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
    cfg = TestbedConfig(
        n_servers=2,
        n_apps=2,
        duration_s=duration_s,
        warmup_s=20.0,
        concurrency=10,
        initial_alloc_ghz=0.6,
        trace_requests_every=8 if instrumented else 0,
        attribute_power=instrumented,
        seed=77,
    )
    if instrumented:
        backend = InMemoryBackend()
        with use_telemetry(Telemetry(backend, span_sample_every=8)):
            TestbedExperiment(cfg, model).run()
        return len(backend.records)
    with use_telemetry(Telemetry()):
        TestbedExperiment(cfg, model).run()
    return 0


def bench_telemetry(scale: str) -> CaseResult:
    duration = 300.0 if scale == "full" else 120.0
    _obs_testbed_run(60.0, instrumented=True)  # warm the process up
    with get_telemetry().span("bench.telemetry", duration_s=duration):
        t0 = time.perf_counter()
        n_records = _obs_testbed_run(duration, instrumented=True)
        wall = time.perf_counter() - t0
        ref_wall = _time(lambda: _obs_testbed_run(duration, instrumented=False))
    return CaseResult(
        name="telemetry",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=n_records,
        warm_hit_rate=None,
        detail={
            "duration_s": duration,
            "records": float(n_records),
            "overhead_pct": (wall / ref_wall - 1.0) * 100.0,
        },
    )


# --------------------------------------------------------- largescale --


def _largescale_run(scale: str) -> None:
    if scale == "full":
        trace = generate_trace(TraceConfig(n_servers=600, n_days=1), rng=42)
        cfg = LargeScaleConfig(
            n_vms=530, n_servers=900, seed=11, incremental=True
        )
    else:
        trace = generate_trace(TraceConfig(n_servers=120, n_days=1), rng=42)
        cfg = LargeScaleConfig(
            n_vms=110, n_servers=200, seed=11, incremental=True
        )
    run_largescale(trace, cfg)


def bench_largescale(scale: str) -> CaseResult:
    with get_telemetry().span("bench.largescale", scale=scale):
        wall = _time(lambda: _largescale_run(scale))
    ref_wall = LARGESCALE_SEED_WALL_S[scale]
    return CaseResult(
        name="largescale",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=1,
        warm_hit_rate=None,
        detail={"reference_is_committed_seed_measurement": 1.0},
    )


# ------------------------------------------------------- batch kernel --


def _mpc_fleet_periods(
    n_ctrls: int, n_periods: int, batch: bool
) -> tuple[int, int]:
    """Drive a homogeneous MPC fleet; returns (solves, warm_hits).

    The set point is reachable under the rate limit (unlike the
    deliberately saturating ``mpc_solve`` plant): a certified-infeasible
    terminal sends its member through the scalar softened solve, which
    would time that path instead of the stacked-RHS kernel in both arms.
    """
    model = ARXModel(
        a=[0.4], b=[[-800.0, -300.0, -500.0], [-100.0, -50.0, -80.0]], g=1800.0
    )
    cfg = MPCConfig(
        prediction_horizon=8,
        control_horizon=2,
        r_weight=1e3,
        delta_max=0.5,
        power_weight=200.0,
    )
    ctrls = [MPCController(model, cfg) for _ in range(n_ctrls)]
    rng = np.random.default_rng(9)
    t_hists = [[600.0 + 50.0 * rng.normal(), 600.0] for _ in range(n_ctrls)]
    c_hists = [np.vstack([np.full(3, 0.7)] * 2) for _ in range(n_ctrls)]
    ref = np.full(8, 600.0)
    for k in range(n_periods):
        reqs = []
        for i in range(n_ctrls):
            t_now = 600.0 + 40.0 * np.sin(k / 6.0) + rng.normal(0, 10)
            t_hists[i] = [t_now] + t_hists[i][:1]
            reqs.append(
                dict(
                    t_hist=t_hists[i], c_hist=c_hists[i], reference=ref,
                    setpoint=600.0, c_min=[0.2] * 3, c_max=[3.0] * 3,
                )
            )
        if batch:
            sols = solve_mpc_batch(ctrls, reqs)
        else:
            sols = [c.solve(**r) for c, r in zip(ctrls, reqs)]
        for i, sol in enumerate(sols):
            c_hists[i] = np.vstack(
                [np.clip(c_hists[i][0] + sol.delta_c, 0.2, 3.0), c_hists[i][0]]
            )
    return (
        sum(c.solves for c in ctrls),
        sum(c.warm_hits for c in ctrls),
    )


def bench_mpc_batch(scale: str) -> CaseResult:
    n_ctrls, n_periods = (192, 24) if scale == "full" else (96, 8)
    _mpc_fleet_periods(8, 4, batch=True)  # warm the process up
    with get_telemetry().span(
        "bench.mpc_batch", controllers=n_ctrls, periods=n_periods
    ):
        t0 = time.perf_counter()
        solves, warm = _mpc_fleet_periods(n_ctrls, n_periods, batch=True)
        wall = time.perf_counter() - t0
        ref_wall = _time(
            lambda: _mpc_fleet_periods(n_ctrls, n_periods, batch=False)
        )
    return CaseResult(
        name="mpc_batch",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=solves,
        warm_hit_rate=warm / max(solves, 1),
        detail={"controllers": float(n_ctrls), "periods": float(n_periods)},
    )


def _rls_fleet_steps(n_apps: int, n_steps: int, batch: bool) -> int:
    model = ARXModel(a=[0.55], b=[[-0.8, -0.4]], g=3.0)
    ests = [RecursiveARXEstimator(model) for _ in range(n_apps)]
    rng = np.random.default_rng(5)
    for _ in range(n_steps):
        meas = []
        for _i in range(n_apps):
            t_hist = [2.0 + 0.1 * rng.normal()]
            c_hist = np.abs(rng.normal(size=(1, 2))) + 1.0
            y = (
                3.0 + 0.55 * t_hist[0] - 0.8 * c_hist[0, 0]
                - 0.4 * c_hist[0, 1] + 0.02 * rng.normal()
            )
            meas.append((y, t_hist, c_hist))
        if batch:
            rls_update_batch(ests, meas)
        else:
            for est, mm in zip(ests, meas):
                est.update(*mm)
    return sum(e.n_updates for e in ests)


def bench_rls_batch(scale: str) -> CaseResult:
    n_apps, n_steps = (400, 40) if scale == "full" else (120, 12)
    _rls_fleet_steps(8, 4, batch=True)  # warm the process up
    with get_telemetry().span("bench.rls_batch", apps=n_apps, steps=n_steps):
        t0 = time.perf_counter()
        updates = _rls_fleet_steps(n_apps, n_steps, batch=True)
        wall = time.perf_counter() - t0
        ref_wall = _time(lambda: _rls_fleet_steps(n_apps, n_steps, batch=False))
    return CaseResult(
        name="rls_batch",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=updates,
        warm_hit_rate=None,
        detail={"apps": float(n_apps), "steps": float(n_steps)},
    )


def _fleet_manager_periods(n_apps: int, n_periods: int, mode: str) -> int:
    """Drive ``PowerManager.control_step`` for a fleet of 2-tier apps.

    Unlike ``mpc_batch``/``rls_batch`` — which time the kernels in
    isolation — this measures the whole production phase 1: manager
    dispatch, measurement handling, the solve (batched or per-app), and
    the demand fan-out.  Enough hosts that arbitration stays trivial
    (the arbitration cost is identical in both arms and would only
    dilute the number being measured).  Returns total MPC solves.
    """
    dc = DataCenter()
    n_hosts = max(2, n_apps // 4)
    for j in range(2):
        for s in range(n_hosts):
            dc.add_server(Server(f"H{j}-{s}", TESTBED_SERVER))
    model = ARXModel(a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0)
    cfg = ControllerConfig(util_band=None)
    mgr = PowerManager(dc, control_mode=mode)
    for i in range(n_apps):
        web, db = f"a{i}-web", f"a{i}-db"
        for j, vm_id in enumerate((web, db)):
            dc.add_vm(VM(vm_id, app_id=f"a{i}", tier_index=j,
                         memory_mb=256, demand_ghz=0.8))
            dc.place(vm_id, f"H{j}-{i % n_hosts}")
        dc.add_application(Application(f"a{i}", [web, db]))
        mgr.register_controller(
            f"a{i}",
            ResponseTimeController(
                model, cfg, c_min=[0.2, 0.2], c_max=[3.0, 3.0],
                initial_alloc_ghz=[0.8, 0.8],
            ),
        )
    rng = np.random.default_rng(17)
    for k in range(n_periods):
        meas = {
            f"a{i}": 600.0 + 40.0 * np.sin(k / 6.0 + i) + rng.normal(0, 10)
            for i in range(n_apps)
        }
        mgr.control_step(meas)
    return sum(c._mpc.solves for c in mgr.controllers.values())


def bench_fleet_control(scale: str) -> CaseResult:
    """The tentpole number: fleet control_step vs the scalar loop at a
    paper-scale app count (the paper's testbed is small, but §V argues
    hundreds-to-thousands of applications per manager)."""
    n_apps, n_periods = (300, 8) if scale == "full" else (100, 4)
    _fleet_manager_periods(8, 2, "fleet")  # warm the process up
    with get_telemetry().span(
        "bench.fleet_control", apps=n_apps, periods=n_periods
    ):
        t0 = time.perf_counter()
        solves = _fleet_manager_periods(n_apps, n_periods, "fleet")
        wall = time.perf_counter() - t0
        ref_wall = _time(
            lambda: _fleet_manager_periods(n_apps, n_periods, "scalar")
        )
    return CaseResult(
        name="fleet_control",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=solves,
        warm_hit_rate=None,
        detail={"apps": float(n_apps), "periods": float(n_periods)},
    )


# ------------------------------------------------------------ sharded --

#: Records excluded from the golden event-log hash (mirrors
#: ``repro.service.runner.HASH_EXCLUDED_KINDS`` for in-memory records).
_HASH_EXCLUDED_KINDS = ("span", "metrics")


def _records_hash(records: Sequence[Dict[str, object]]) -> str:
    """sha256 over non-span/metrics records — the golden event-log hash
    (same formula as :func:`repro.service.runner.eventlog_hash`)."""
    events = [r for r in records if r.get("kind") not in _HASH_EXCLUDED_KINDS]
    return hashlib.sha256(
        json.dumps(events, sort_keys=True, default=str).encode()
    ).hexdigest()


def _sharded_wall(trace, base: LargeScaleConfig, n_pods: int, workers: int) -> float:
    cfg = ShardedConfig(base=base, n_pods=n_pods, workers=workers)
    with use_telemetry(Telemetry()):  # time the plant, not the observers
        return _time(lambda: run_sharded(trace, cfg))


def _sharded_observed(trace, base: LargeScaleConfig, n_pods: int, workers: int):
    """One observed sharded run; returns (hash, ledger, total_energy)."""
    cfg = ShardedConfig(base=base, n_pods=n_pods, workers=workers)
    backend_mem = InMemoryBackend()
    with use_telemetry(Telemetry(backend_mem)):
        engine, backend = build_sharded_engine(trace, cfg)
        try:
            backend.start()
            engine.run()
            result = backend.result()
            ledger = backend.vm_energy_ledger()
        finally:
            backend.close()
    return (
        _records_hash(backend_mem.records),
        ledger,
        float(result.total_energy_wh),
    )


def bench_sharded(scale: str) -> CaseResult:
    if scale == "full":
        # Paper scale: 5,415 servers hosting 20,000 VMs (§V).
        n_vms, n_servers, n_pods = 20000, 5415, 8
        trace = generate_trace(TraceConfig(n_servers=n_vms, n_days=1), rng=13)
        sweep = (1, 2, 4)
    else:
        n_vms, n_servers, n_pods = 2000, 600, 2
        trace = generate_trace(TraceConfig(n_servers=n_vms, n_days=1), rng=13)
        sweep = (1, 2)
    base = LargeScaleConfig(
        n_vms=n_vms, n_servers=n_servers, seed=5, incremental=True
    )
    walls: Dict[int, float] = {}
    with get_telemetry().span(
        "bench.sharded", vms=n_vms, servers=n_servers, pods=n_pods
    ):
        for w in sweep:
            walls[w] = _sharded_wall(trace, base, n_pods, w)
    wall = walls[sweep[-1]]
    ref_wall = walls[1]
    detail = {f"wall_s_workers_{w}": walls[w] for w in sweep}
    detail.update(
        {
            "n_vms": float(n_vms),
            "n_servers": float(n_servers),
            "n_pods": float(n_pods),
            "cpu_count": float(os.cpu_count() or 1),
        }
    )
    return CaseResult(
        name="sharded",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=n_vms,
        warm_hit_rate=None,
        detail=detail,
    )


def bench_sharded_smoke(scale: str) -> CaseResult:
    """CI case: pooled ≡ inline (bit-identical), then 2 vs 1 workers."""
    # Identity first, at a size where observing every event is cheap.
    id_trace = generate_trace(TraceConfig(n_servers=80, n_days=1), rng=13)
    id_base = LargeScaleConfig(
        n_vms=64, n_servers=100, seed=5, incremental=True, attribute_power=True
    )
    h_inline, led_inline, e_inline = _sharded_observed(id_trace, id_base, 2, 1)
    h_pooled, led_pooled, e_pooled = _sharded_observed(id_trace, id_base, 2, 2)
    if h_inline != h_pooled:
        raise RuntimeError(
            f"sharded pooled run diverged from inline: event-log hash "
            f"{h_pooled} != {h_inline}"
        )
    if led_inline is None or led_pooled is None or not np.array_equal(
        led_inline, led_pooled
    ):
        raise RuntimeError("sharded pooled vm_energy ledger diverged from inline")
    if e_inline != e_pooled:
        raise RuntimeError(
            f"sharded pooled total energy diverged: {e_pooled} != {e_inline}"
        )
    # Then the timing pair, sized so two real cores show a >1 speedup.
    n_vms, n_servers = 1500, 500
    trace = generate_trace(TraceConfig(n_servers=n_vms, n_days=1), rng=13)
    base = LargeScaleConfig(
        n_vms=n_vms, n_servers=n_servers, seed=5, incremental=True
    )
    with get_telemetry().span("bench.sharded_smoke", vms=n_vms):
        wall = _sharded_wall(trace, base, 2, 2)
        ref_wall = _sharded_wall(trace, base, 2, 1)
    return CaseResult(
        name="sharded_smoke",
        wall_s=wall,
        reference_wall_s=ref_wall,
        speedup=ref_wall / wall,
        iters=n_vms,
        warm_hit_rate=None,
        detail={
            "n_vms": float(n_vms),
            "n_servers": float(n_servers),
            "identity_events_hash_match": 1.0,
            "cpu_count": float(os.cpu_count() or 1),
        },
    )


CASES: Dict[str, Callable[[str], CaseResult]] = {
    "mpc_solve": bench_mpc_solve,
    "minslack": bench_minslack,
    "ipac": bench_ipac,
    "mpc_batch": bench_mpc_batch,
    "rls_batch": bench_rls_batch,
    "fleet_control": bench_fleet_control,
    "des": bench_des,
    "des_hybrid": bench_des_hybrid,
    "telemetry": bench_telemetry,
    "largescale": bench_largescale,
    "sharded": bench_sharded,
    "sharded_smoke": bench_sharded_smoke,
}


# ------------------------------------------------------------- driver --


def run_suite(
    scale: str = "full", cases: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """Run the selected cases and return the report dict.

    ``scale`` is ``"full"`` (the committed baseline numbers) or
    ``"smoke"`` (reduced sizes for CI).  ``cases`` restricts to a subset
    of :data:`CASES` (``None`` = all, in definition order).
    """
    if scale not in ("full", "smoke"):
        raise ValueError(f"scale must be 'full' or 'smoke', got {scale!r}")
    names = list(CASES) if cases is None else list(cases)
    for name in names:
        if name not in CASES:
            raise KeyError(
                f"unknown case {name!r}; known: {', '.join(CASES)}"
            )
    backend = InMemoryBackend()
    results: List[CaseResult] = []
    # Sample the kernel's per-period phase spans hard (first span of
    # each name is always kept, so the bench.* markers survive): the
    # suite's own instrumentation must not tax the paths it times.
    with use_telemetry(Telemetry(backend, span_sample_every=32)):
        for name in names:
            results.append(CASES[name](scale))
    return {
        "schema": 1,
        "scale": scale,
        "cases": {r.name: asdict(r) for r in results},
    }


def write_report(report: Dict[str, object], path: str) -> None:
    """Merge this run's scale section into the JSON report at ``path``.

    The on-disk document keys case tables by scale —
    ``{"schema": 1, "scales": {"full": {"cases": ...}, "smoke": ...}}``
    — so the committed ``BENCH_perf.json`` can hold both the full
    baseline numbers and the reduced CI variant.  Sections for other
    scales already in the file are preserved.
    """
    doc: Dict[str, object] = {"schema": 1, "scales": {}}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and isinstance(
            existing.get("scales"), dict
        ):
            doc["scales"].update(existing["scales"])
    except (OSError, ValueError):
        pass
    doc["scales"][report["scale"]] = {"cases": report["cases"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _baseline_cases(
    baseline: Dict[str, object], scale: object
) -> Dict[str, Dict[str, object]]:
    """Case table of ``baseline`` for ``scale`` (either document shape)."""
    scales = baseline.get("scales")
    if isinstance(scales, dict):
        section = scales.get(scale, {})
        return section.get("cases", {}) if isinstance(section, dict) else {}
    return baseline.get("cases", {})


def compare_to_baseline(
    report: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.25,
) -> List[str]:
    """Regression check against a committed baseline report.

    Compares *speedups* (fast path vs reference path, both measured in
    the same process), never absolute wall-clock — so the check is
    stable across machines.  The baseline section matching the report's
    scale is used (a full-scale run is never judged against smoke
    numbers).  A case regresses when its measured speedup falls more
    than ``tolerance`` (fraction) below the baseline's — or, regardless
    of tolerance, when a fast path whose baseline shows a genuine win
    (speedup >= 1.0) measures *slower than its own reference* (< 1.0):
    a tolerance wide enough to excuse losing the entire win would
    otherwise hide exactly the regression the suite exists to catch.
    The smoke-scale ``telemetry`` case measures a cost, not a win: it
    fails only when ``detail.overhead_pct`` exceeds
    :data:`TELEMETRY_SMOKE_MAX_OVERHEAD_PCT`.
    Returns a list of human-readable failures (empty = pass); cases
    present in only one report are skipped.
    """
    failures: List[str] = []
    base_cases = _baseline_cases(baseline, report.get("scale"))
    for name, case in report.get("cases", {}).items():
        base = base_cases.get(name)
        if base is None:
            continue
        if name == "telemetry" and report.get("scale") == "smoke":
            overhead = float(case["detail"]["overhead_pct"])
            if overhead > TELEMETRY_SMOKE_MAX_OVERHEAD_PCT:
                failures.append(
                    f"{name}: overhead {overhead:+.1f}% exceeds the "
                    f"{TELEMETRY_SMOKE_MAX_OVERHEAD_PCT:.0f}% ceiling"
                )
            continue
        measured = float(case["speedup"])
        base_speedup = float(base["speedup"])
        floor = base_speedup * (1.0 - tolerance)
        if measured < 1.0 <= base_speedup:
            failures.append(
                f"{name}: speedup x{measured:.2f} fell below x1.00 — the "
                f"fast path is slower than its reference (baseline "
                f"x{base_speedup:.2f})"
            )
        elif measured < floor:
            failures.append(
                f"{name}: speedup x{case['speedup']:.2f} is below "
                f"x{floor:.2f} (baseline x{base['speedup']:.2f} "
                f"- {tolerance:.0%} tolerance)"
            )
    return failures
