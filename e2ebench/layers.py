"""Per-layer tracing for the benchmark's traced run.

:class:`LayerTrace` wraps the public entry points of each layer where
their callers look them up — module attributes for functions imported
by name, class attributes for methods — and records calls, inclusive
wall time and the counts each layer's results carry.  The wrappers
only observe: arguments and return values pass through untouched, so a
traced run must reproduce the untraced run's simulated outcomes
exactly (the benchmark checks that).

A target that no longer exists (a solver folded into another, a status
that is gone) is recorded in :attr:`LayerTrace.absent`; its metrics
read 0 and the traced run goes on.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: QP outcome statuses reported as ``qp.status.<name>``.
QP_STATUSES = ("optimal", "infeasible", "fallback")


def _arg_getter(func: Callable, name: str) -> Callable[[tuple, dict], Any]:
    """Fast lookup of argument *name* (keyword, position or default);
    ``None`` when *func* no longer takes it."""
    params = list(inspect.signature(func).parameters.values())
    names = [p.name for p in params]
    if name not in names:
        return lambda args, kwargs: None
    index = names.index(name)
    default = params[index].default

    def get(args: tuple, kwargs: dict) -> Any:
        if name in kwargs:
            return kwargs[name]
        if index < len(args):
            return args[index]
        return default

    return get


class LayerTrace:
    """Installs timing wrappers around layer entry points."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------

    def _resolve(self, target: str) -> Optional[Tuple[Any, str, Any]]:
        """``"pkg.mod:Class.attr"`` -> (owner, attr, current value)."""
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    def wrap(
        self,
        key: str,
        target: str,
        observe: Optional[Callable[[Any, tuple, dict], None]] = None,
        make_observe: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Time calls of *target* under metric prefix *key*."""
        found = self._resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, attr, original = found
        if make_observe is not None:
            observe = make_observe(original)
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            seconds[key] += time.perf_counter() - t0
            calls[key] += 1
            if observe is not None:
                observe(result, args, kwargs)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        """Wrap every layer the benchmark reports on."""
        self.absent = []
        counts = self.counts
        qp = importlib.import_module("repro.control.qp")
        if not hasattr(qp, "_scipy_fallback"):
            self.absent.append("repro.control.qp:fallback status")

        def qp_outcomes(results, max_iter: Optional[int]) -> None:
            for res in results:
                status = getattr(res, "status", None)
                if status in QP_STATUSES:
                    counts[f"qp.status.{status}"] += 1
                iterations = getattr(res, "iterations", 0)
                counts["qp.iterations"] += iterations
                if max_iter is not None and iterations >= max_iter:
                    counts["qp.max_iter_hits"] += 1

        def solve_observer(func):
            max_iter = _arg_getter(func, "max_iter")
            return lambda res, a, kw: qp_outcomes([res], max_iter(a, kw))

        def batch_observer(func):
            max_iter = _arg_getter(func, "max_iter")

            def observe(results, a, kw) -> None:
                counts["qp.batch.problems"] += len(results)
                counts["qp.batch.infeasible"] += sum(
                    getattr(r, "status", None) == "infeasible" for r in results
                )
                qp_outcomes(results, max_iter(a, kw))

            return observe

        def mbs_observer(func):
            max_steps = _arg_getter(func, "max_steps")

            def observe(res, a, kw) -> None:
                steps = getattr(res, "steps", 0)
                budget = max_steps(a, kw)
                counts["mbs.steps"] += steps
                counts["mbs.budget_hits"] += budget is not None and steps >= budget
                counts["mbs.early_exit"] += bool(getattr(res, "early_exit", False))
                counts["mbs.seeded"] += bool(getattr(res, "seeded", False))

            return observe

        def plan_moves(plan, a, kw) -> None:
            counts["ipac.moves"] += plan.n_moves

        def period_requests(stats, a, kw) -> None:
            counts["plant.requests"] += stats.completed

        self.wrap("manager.control_step",
                  "repro.core.manager:PowerManager.control_step")
        self.wrap("manager.optimize", "repro.core.manager:PowerManager.optimize")
        self.wrap("fleet.run", "repro.core.fleet:FleetControlStep.run")
        self.wrap("mpc.batch", "repro.core.fleet:solve_mpc_batch")
        self.wrap("qp.batch", "repro.control.mpc_core:solve_qp_batch",
                  make_observe=batch_observer)
        self.wrap("qp.solve", "repro.control.mpc_core:solve_qp",
                  make_observe=solve_observer)
        self.wrap("rls.batch", "repro.core.fleet:rls_update_batch")
        self.wrap("arbitrator",
                  "repro.core.arbitrator:CPUResourceArbitrator.arbitrate")
        # IPAC is looked up by the testbed's manager and by the
        # large-scale pods' optimizer closure.
        self.wrap("ipac", "repro.core.manager:ipac", plan_moves)
        self.wrap("ipac", "repro.engine.largescale_backend:ipac", plan_moves)
        self.wrap("mbs", "repro.core.optimizer.minslack:minimum_bin_slack",
                  make_observe=mbs_observer)
        self.wrap("plant.run_period", "repro.apps.rubbos:MultiTierApp.run_period",
                  period_requests)
        self.wrap("plant.warmup", "repro.apps.rubbos:MultiTierApp.warmup")
        self.wrap("trace.generate", "repro.traces.generator:generate_trace")

    # -- report --------------------------------------------------------

    def metrics(self, n_runs: int) -> Dict[str, float]:
        """Per-layer metrics, averaged over *n_runs* traced executions."""
        c, s, n = self.calls, self.seconds, self.counts
        mbs_calls = c["mbs"]
        totals: Dict[str, float] = {
            "manager.control_step.calls": c["manager.control_step"],
            "manager.control_step.s": s["manager.control_step"],
            "manager.optimize.calls": c["manager.optimize"],
            "manager.optimize.s": s["manager.optimize"],
            "fleet.run.s": s["fleet.run"],
            "mpc.batch.calls": c["mpc.batch"],
            "mpc.batch.s": s["mpc.batch"],
            "qp.batch.calls": c["qp.batch"],
            "qp.batch.problems": n["qp.batch.problems"],
            "qp.batch.s": s["qp.batch"],
            "qp.batch.infeasible": n["qp.batch.infeasible"],
            "qp.solve.calls": c["qp.solve"],
            "qp.solve.s": s["qp.solve"],
            **{f"qp.status.{st}": n[f"qp.status.{st}"] for st in QP_STATUSES},
            "qp.iterations": n["qp.iterations"],
            "qp.max_iter_hits": n["qp.max_iter_hits"],
            "rls.batch.calls": c["rls.batch"],
            "rls.batch.s": s["rls.batch"],
            "arbitrator.calls": c["arbitrator"],
            "arbitrator.s": s["arbitrator"],
            "ipac.calls": c["ipac"],
            "ipac.s": s["ipac"],
            "ipac.moves": n["ipac.moves"],
            "mbs.calls": mbs_calls,
            "mbs.s": s["mbs"],
            "mbs.steps": n["mbs.steps"],
            "mbs.budget_hits": n["mbs.budget_hits"],
            "mbs.seeded": n["mbs.seeded"],
            "plant.run_period.calls": c["plant.run_period"],
            "plant.run_period.s": s["plant.run_period"],
            "plant.warmup.s": s["plant.warmup"],
            "plant.requests": n["plant.requests"],
            "trace.generate.s": s["trace.generate"],
        }
        out = {key: value / n_runs for key, value in totals.items()}
        # A ratio, not a per-run total.
        out["mbs.early_exit_ratio"] = (
            n["mbs.early_exit"] / mbs_calls if mbs_calls else 0.0
        )
        return out
