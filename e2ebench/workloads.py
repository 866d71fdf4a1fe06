"""Scenario workloads of the end-to-end benchmark and their output check.

Each workload is a family of :class:`repro.engine.scenario.ScenarioSpec`
instances.  One benchmark run draws ``instances`` input sets from its
``--seed`` (request streams on the testbed, utilization trace plus VM
and server draws on the sharded plant), so the simulated outcomes it
reports average over several draws instead of resting on one.

An *execution* builds one instance, starts it, steps its
:class:`~repro.engine.kernel.ControlPlane` to the end and reads the
simulated outcomes back.  Every execution is checked: the engine ran
every period, energy is finite and positive, and the harness-specific
invariants below hold.  Repeats of one instance must agree exactly.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine.kernel import Phase
from repro.engine.scenario import ScenarioSpec, builtin_registry

#: Phases that make control or placement decisions (``decide_s``).
DECISION_PHASES = ("sysid", "control", "arbitrate", "optimize")


class CheckFailed(AssertionError):
    """An execution produced outputs that break an invariant."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Input draws per benchmark run (see module docstring).
    instances: int
    make_spec: Callable[[List[int], bool], ScenarioSpec]

    def seeds(self, seed: int) -> List[List[int]]:
        """Per-instance integer seeds derived from the run's ``--seed``."""
        state = np.random.SeedSequence(seed).generate_state(2 * self.instances)
        return [
            [int(state[2 * i]) % 2**31, int(state[2 * i + 1]) % 2**31]
            for i in range(self.instances)
        ]


def _testbed_model() -> dict:
    # The shared fixed ARX model of the builtin testbed scenarios, so no
    # system identification runs inside the benchmark.
    return dict(builtin_registry().get("testbed-small").model)


def _testbed_light(seeds: List[int], inline: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="testbed-light",
        description="8 apps x 10 clients on 4 servers, 600 s, one IPAC epoch",
        harness="testbed",
        params={
            "n_servers": 4,
            "n_apps": 8,
            "concurrency": 10,
            "duration_s": 600.0,
            "initial_alloc_ghz": 0.6,
            "optimize_at_s": [300.0],
            "seed": seeds[0],
        },
        model=_testbed_model(),
    )


def _testbed_step(seeds: List[int], inline: bool) -> ScenarioSpec:
    step = {"type": "step", "base": 40, "high": 80,
            "start_s": 200.0, "end_s": 400.0}
    return ScenarioSpec(
        name="testbed-step",
        description="8 apps x 40 clients on 4 servers, apps 1 and 5 step "
        "to 80 clients over 200-400 s, IPAC epochs at 150 s and 450 s",
        harness="testbed",
        params={
            "n_servers": 4,
            "n_apps": 8,
            "concurrency": 40,
            "duration_s": 600.0,
            "optimize_at_s": [150.0, 450.0],
            "seed": seeds[0],
        },
        model=_testbed_model(),
        workloads={"1": step, "5": step},
    )


def _sharded_pods(seeds: List[int], inline: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="sharded-pods",
        description="5,000 VMs on 1,354 servers over a 1-day trace, "
        "2 pods of sharded-paper size",
        harness="sharded",
        params={
            "n_vms": 5000,
            "n_servers": 1354,
            "seed": seeds[0],
            "n_pods": 2,
            "workers": 1 if inline else 2,
        },
        trace={"n_servers": 5000, "n_days": 1, "seed": seeds[1]},
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "testbed-light",
            "light load leaves the set point unreachable from below, so most "
            "MPC terminal constraints are infeasible and control dominates",
            9, _testbed_light,
        ),
        # Not listed in BENCHMARK.json: its decide_s varies too much
        # between request streams to carry a bound (see README.md).  Kept
        # for traced runs, where the DES is the largest share.
        Workload(
            "testbed-step",
            "40-80 closed-loop clients per app make the request-level DES "
            "the main cost while QPs are mostly feasible",
            4, _testbed_step,
        ),
        Workload(
            "sharded-pods",
            "two paper-size pods on two workers: Minimum Slack budget "
            "exhaustion and the pod pool, no MPC",
            6, _sharded_pods,
        ),
    )
}


@dataclass
class Execution:
    """Timings and simulated outcomes of one instance run end to end."""

    setup_s: float
    run_s: float
    phase_s: Dict[str, float]
    outcome: Dict[str, float]
    rss_mb: float

    @property
    def decide_s(self) -> float:
        return sum(self.phase_s.get(name, 0.0) for name in DECISION_PHASES)


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    pids = ["self"]
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids += fh.read().split()
    except OSError:
        pass
    return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def _timed_phases(engine, phase_s: Dict[str, float], after: Dict[str, Callable]):
    """Wrap every phase of *engine* with a wall-clock accumulator."""

    def wrap(phase: Phase) -> Phase:
        inner = phase.run
        hook = after.get(phase.name)
        phase_s[phase.name] = 0.0

        def run(ctx):
            t0 = time.perf_counter()
            inner(ctx)
            phase_s[phase.name] += time.perf_counter() - t0
            if hook is not None:
                hook(ctx)

        return Phase(phase.name, run)

    engine.phases = [wrap(phase) for phase in engine.phases]


def execute(spec: ScenarioSpec) -> Execution:
    """Build, start and run one scenario instance; check its outputs."""
    gc.collect()
    t0 = time.perf_counter()
    engine, backend = spec.build()
    try:
        backend.start()
        setup_s = time.perf_counter() - t0
        phase_s: Dict[str, float] = {}
        tally = {"requests": 0, "missed": 0}
        after: Dict[str, Callable] = {}
        if spec.harness == "testbed":
            setpoint = backend.config.setpoint_ms

            def count_requests(ctx) -> None:
                # Per-request response times of the period just sensed.
                for plant in backend.plants:
                    rts = np.asarray(plant._period_rts, dtype=float)
                    tally["requests"] += int(rts.size)
                    tally["missed"] += int(np.count_nonzero(rts > setpoint))

            after["sense"] = count_requests
        _timed_phases(engine, phase_s, after)
        t0 = time.perf_counter()
        periods = engine.run()
        run_s = time.perf_counter() - t0
        rss_mb = _peak_rss_mb()
        if periods != engine.n_periods or not engine.finished:
            raise CheckFailed(
                f"ran {periods} of {engine.n_periods} periods"
            )
        if spec.harness == "testbed":
            outcome = _testbed_outcome(backend, tally)
        else:
            outcome = _sharded_outcome(backend)
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    return Execution(setup_s, run_s, phase_s, outcome, rss_mb)


def _check_energy(energy_wh: float) -> None:
    if not (math.isfinite(energy_wh) and energy_wh > 0):
        raise CheckFailed(f"energy {energy_wh!r} Wh is not finite and positive")


def _testbed_outcome(backend, tally: Dict[str, int]) -> Dict[str, float]:
    cfg = backend.config
    rec = backend.recorder
    power = np.asarray(rec.values("power/total"), dtype=float)
    if power.size != backend.n_periods:
        raise CheckFailed(
            f"{power.size} power samples for {backend.n_periods} periods"
        )
    energy_wh = float(power.sum()) * cfg.control_period_s / 3600.0
    _check_energy(energy_wh)
    for i in range(cfg.n_apps):
        for j in range(2):
            alloc = np.asarray(rec.values(f"alloc/app{i}/tier{j}"), dtype=float)
            if alloc.size != backend.n_periods:
                raise CheckFailed(f"app{i} tier{j}: {alloc.size} allocations")
            if not np.all(
                (alloc >= cfg.min_alloc_ghz - 1e-9)
                & (alloc <= cfg.max_alloc_ghz + 1e-9)
            ):
                raise CheckFailed(
                    f"app{i} tier{j}: allocation outside "
                    f"[{cfg.min_alloc_ghz}, {cfg.max_alloc_ghz}] GHz"
                )
    if tally["requests"] <= 0:
        raise CheckFailed("no request completed")
    moves = (
        float(sum(rec.values("optimizer/moves")))
        if "optimizer/moves" in rec.names() else 0.0
    )
    return {
        "energy_wh": energy_wh,
        "missed": float(tally["missed"]),
        "served": float(tally["requests"]),
        "migrations": moves,
    }


def _sharded_outcome(backend) -> Dict[str, float]:
    from repro.engine.checkpoint import decode_array

    res = backend.result()
    if backend.steps_done != res.n_steps:
        raise CheckFailed(f"advanced {backend.steps_done} of {res.n_steps} steps")
    _check_energy(res.total_energy_wh)
    n_placed = n_unplaced = 0
    for pod in backend.state_dict()["pods"]:
        assignment = decode_array(pod["assignment"])
        n_placed += int(np.count_nonzero(assignment >= 0))
        n_unplaced += int(np.count_nonzero(assignment < 0))
    if n_placed + n_unplaced != res.n_vms:
        raise CheckFailed(
            f"{n_placed} placed + {n_unplaced} unplaced VMs != {res.n_vms}"
        )
    if not 0 <= res.unplaced_vm_steps <= res.n_vms * res.n_steps:
        raise CheckFailed(f"unplaced VM-steps {res.unplaced_vm_steps} out of range")
    hosting_steps = int(np.sum(res.active_series))
    return {
        "energy_wh": float(res.total_energy_wh),
        # Overloaded hosting server-steps, each unplaced VM-step counted
        # as one more missed slot.
        "missed": float(res.overload_server_steps + res.unplaced_vm_steps),
        "served": float(hosting_steps + res.unplaced_vm_steps),
        "migrations": float(res.migrations + res.info.get("relief_moves", 0.0)),
    }


def mismatch(a: Dict[str, float], b: Dict[str, float]) -> Optional[str]:
    """First simulated outcome on which two executions disagree."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key}: {a.get(key)!r} != {b.get(key)!r}"
    return None
