"""Fast-lane regression tests.

Pins the three hot-path optimizations to their correctness contracts:

* **Golden bit-identity** — with the fast modes disabled (and for the
  pruned default, which preserves results when no step budget binds),
  the simulators reproduce event logs and aggregates captured on the
  pre-fast-lane revision, bit for bit.
* **QP warm starting** — a warm-started solve agrees with the cold
  solve on the same problem (objective within 1e-9), and survives
  garbage, inconsistent, stale and out-of-range seeds.
* **MPC matrix caching** — cached prediction/Hessian matrices are
  bitwise equal to freshly derived ones, and solutions are unchanged.
* **Incremental packing** — incumbent seeding never worsens a search,
  replays the previous placement on an unchanged problem, and the
  pruned search returns the unpruned search's selection.  The inlined
  memory path, which counts runs of rejected positions in bulk, agrees
  with the generic constraint protocol on every result field.
* **Benchmark harness** — report schema, scale-aware baseline
  comparison, and the merge behavior of the committed report file.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.arx import ARXModel
from repro.control.mpc_core import MPCConfig, MPCController
from repro.control.qp import solve_qp
from repro.core.optimizer.minslack import MinSlackConfig, select_vms_for_server
from repro.core.optimizer.pac import PACConfig, pac
from repro.core.optimizer.types import PlacementProblem, make_vm_infos
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from repro.packing.mbs import MemoryConstraint, minimum_bin_slack
from repro.sim.largescale import LargeScaleConfig, run_largescale
from repro.sim.testbed import TestbedConfig, TestbedExperiment
from repro.traces.generator import TraceConfig, generate_trace
from tests.conftest import make_server_info


def _eventlog_hash(records):
    events = [r for r in records if r.get("kind") not in ("span", "metrics")]
    digest = hashlib.sha256(
        json.dumps(events, sort_keys=True, default=str).encode()
    ).hexdigest()
    return digest, len(events)


# Captured on the pre-fast-lane revision; the fast lanes must not move
# any of these.  _TB_GOLDEN was re-pinned when the QP solver began
# certifying infeasibility: one hard-terminal QP of this run is feasible
# (LP margin 1.5e-3) but was softened by the iteration-budget solver.
_LS_GOLDEN = {
    "energy_wh": 13631.487937070524,
    "migrations": 3,
    "mean_active": 4.0,
    "power_sha": "6abedb859fbca99c36dbbba6c6970ecf1806b8cede2ba02d6a0b5f7e2f1d3762",
    "eventlog_sha": "f9a97723c15599b1553e2ad385bea2bc42e26deff5279f9e611949f555d46e83",
    "n_events": 107,
}
_TB_GOLDEN = {
    "eventlog_sha": "f4d846b5039ed819c347ae0fb37b9ca2db5a2a4c7f0f18de749246392526bd1e",
    "n_events": 25,
    "power_mean": 169.7860277744788,
}


class TestGoldenBitIdentity:
    def _run_largescale(self, **overrides):
        backend = InMemoryBackend()
        trace = generate_trace(TraceConfig(n_servers=40, n_days=1), rng=13)
        with use_telemetry(Telemetry(backend)):
            res = run_largescale(
                trace,
                LargeScaleConfig(n_vms=30, n_servers=50, seed=5, **overrides),
            )
        return res, backend

    def _check_largescale(self, res, backend):
        assert res.total_energy_wh == _LS_GOLDEN["energy_wh"]
        assert res.migrations == _LS_GOLDEN["migrations"]
        assert float(np.mean(res.active_series)) == _LS_GOLDEN["mean_active"]
        power_sha = hashlib.sha256(
            np.asarray(res.power_series_w).tobytes()
        ).hexdigest()
        assert power_sha == _LS_GOLDEN["power_sha"]
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _LS_GOLDEN["eventlog_sha"],
            _LS_GOLDEN["n_events"],
        )

    def test_largescale_default_config_matches_golden(self):
        # prune=True is the default; on this instance no step budget
        # binds, so results must be bitwise identical to the unpruned
        # pre-fast-lane run.
        self._check_largescale(*self._run_largescale())

    def test_largescale_fast_modes_off_matches_golden(self):
        self._check_largescale(
            *self._run_largescale(minslack_prune=False, incremental=False)
        )

    def test_testbed_warm_start_off_matches_golden(self):
        backend = InMemoryBackend()
        model = ARXModel(
            a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0
        )
        cfg = TestbedConfig(
            n_servers=2,
            n_apps=2,
            duration_s=180.0,
            warmup_s=20.0,
            concurrency=10,
            initial_alloc_ghz=0.6,
            mpc_warm_start=False,
            # The golden was captured on the per-app loop; the fleet
            # path is allclose, not bit-identical (tests/test_fleet.py).
            control_mode="scalar",
            seed=77,
        )
        with use_telemetry(Telemetry(backend)):
            result = TestbedExperiment(cfg, model).run()
        digest, n = _eventlog_hash(backend.records)
        assert (digest, n) == (
            _TB_GOLDEN["eventlog_sha"],
            _TB_GOLDEN["n_events"],
        )
        summary = result.power_summary()
        assert summary["mean"] == _TB_GOLDEN["power_mean"]


def _box_qp(data, n):
    """A strictly convex QP with box constraints, always feasible."""
    A = np.asarray(
        [[data.draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(n)]
    )
    H = A @ A.T + n * np.eye(n)
    g = np.asarray([data.draw(st.floats(-5.0, 5.0)) for _ in range(n)])
    lo = np.asarray([data.draw(st.floats(-1.0, 0.0)) for _ in range(n)])
    hi = np.asarray([data.draw(st.floats(0.1, 1.0)) for _ in range(n)])
    A_ub = np.vstack([np.eye(n), -np.eye(n)])
    b_ub = np.concatenate([hi, -lo])
    return H, g, A_ub, b_ub


def _objective(H, g, x):
    return 0.5 * x @ H @ x + g @ x


class TestQPWarmStart:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_warm_agrees_with_cold(self, data):
        n = data.draw(st.integers(2, 6))
        H, g, A_ub, b_ub = _box_qp(data, n)
        cold = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        assert cold.ok
        assert not cold.warm_started
        # Seed from the cold active set on a slightly perturbed problem:
        # the receding-horizon usage pattern.
        g2 = g + np.asarray(
            [data.draw(st.floats(-0.05, 0.05)) for _ in range(n)]
        )
        cold2 = solve_qp(H, g2, A_ub=A_ub, b_ub=b_ub)
        warm2 = solve_qp(
            H, g2, A_ub=A_ub, b_ub=b_ub, warm_start=cold.active_set
        )
        assert cold2.ok and warm2.ok
        assert _objective(H, g2, warm2.x) == pytest.approx(
            _objective(H, g2, cold2.x), abs=1e-9
        )
        assert np.all(A_ub @ warm2.x <= b_ub + 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inconsistent_seed_falls_back_to_cold_result(self, data):
        n = data.draw(st.integers(2, 5))
        H, g, A_ub, b_ub = _box_qp(data, n)
        cold = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        # Seeding EVERY box row pins x to lower and upper bounds at
        # once — an inconsistent working set the verification step must
        # throw away, leaving exactly the cold result.
        warm = solve_qp(
            H, g, A_ub=A_ub, b_ub=b_ub, warm_start=range(2 * n)
        )
        assert warm.ok
        assert np.array_equal(warm.x, cold.x)
        assert warm.active_set == cold.active_set

    def test_out_of_range_seed_indices_ignored(self):
        H = np.eye(2)
        g = np.array([-1.0, -1.0])
        A_ub = np.vstack([np.eye(2), -np.eye(2)])
        b_ub = np.array([0.5, 0.5, 0.0, 0.0])
        res = solve_qp(
            H, g, A_ub=A_ub, b_ub=b_ub, warm_start=[99, -3, 0, 0]
        )
        assert res.ok
        assert res.x == pytest.approx([0.5, 0.5])

    def test_empty_seed_is_a_cold_solve(self):
        H = np.eye(2)
        g = np.array([-1.0, 0.0])
        res = solve_qp(H, g, warm_start=[])
        assert not res.warm_started
        assert res.x == pytest.approx([1.0, 0.0])

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stale_or_out_of_range_seed_reaches_cold_optimum(self, data):
        n = data.draw(st.integers(2, 4))
        H, g, A_ub, b_ub = _box_qp(data, n)
        cold = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        # A seed from some other problem: any rows, repeats, and
        # indices past either end of the constraint list.
        seed = data.draw(
            st.lists(st.integers(-3, 2 * n + 3), min_size=1, max_size=2 * n + 2)
        )
        warm = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub, warm_start=seed)
        assert warm.status == "optimal"
        # The working sets may differ where a bound is met with a zero
        # multiplier; the optimum may not.
        assert _objective(H, g, warm.x) == pytest.approx(
            _objective(H, g, cold.x), abs=1e-9
        )
        np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-9)


class TestMPCFastLane:
    def _controller(self, warm=True):
        model = ARXModel(
            a=[0.4], b=[[-800.0, -300.0], [-100.0, -50.0]], g=1800.0
        )
        return MPCController(
            model,
            MPCConfig(
                prediction_horizon=10,
                control_horizon=4,
                q_weight=1.0,
                r_weight=1e3,
                delta_max=0.03,
                power_weight=200.0,
                warm_start=warm,
            ),
        )

    def _drive(self, ctrl, n=20):
        rng = np.random.default_rng(3)
        t_hist = [900.0, 950.0]
        c_hist = np.array([[0.8, 0.6], [0.8, 0.6]])
        ref = np.full(10, 1000.0)
        out = []
        for k in range(n):
            t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
            t_hist = [t_now] + t_hist[:1]
            sol = ctrl.solve(
                t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0]
            )
            out.append(sol)
            c_hist = np.vstack(
                [np.clip(c_hist[0] + sol.delta_c, 0.2, 3.0), c_hist[0]]
            )
        return out

    def test_cached_matrices_match_fresh_derivation(self):
        ctrl = self._controller(warm=False)
        sols_cached = self._drive(ctrl)
        busted = self._controller(warm=False)
        # Busting the key before every period forces a fresh derivation
        # of psi / Hessian / constraint stack each time.
        rng = np.random.default_rng(3)
        t_hist = [900.0, 950.0]
        c_hist = np.array([[0.8, 0.6], [0.8, 0.6]])
        ref = np.full(10, 1000.0)
        for k, cached_sol in enumerate(sols_cached):
            t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
            t_hist = [t_now] + t_hist[:1]
            busted._cache_key = None
            sol = busted.solve(
                t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0]
            )
            assert np.array_equal(sol.delta_c, cached_sol.delta_c)
            c_hist = np.vstack(
                [np.clip(c_hist[0] + sol.delta_c, 0.2, 3.0), c_hist[0]]
            )

    def test_warm_start_hits_and_solution_parity(self):
        warm = self._controller(warm=True)
        cold = self._controller(warm=False)
        # Feed both controllers the SAME closed-loop trajectory (driven
        # by the cold solutions) so every period is a like-for-like
        # solve: identical solutions, not just similar cost, is the
        # acceptance bar for enabling warm starts by default.
        rng = np.random.default_rng(3)
        t_hist = [900.0, 950.0]
        c_hist = np.array([[0.8, 0.6], [0.8, 0.6]])
        ref = np.full(10, 1000.0)
        warm_started_any = False
        for k in range(20):
            t_now = 900.0 + 200.0 * np.sin(k / 6.0) + rng.normal(0, 25)
            t_hist = [t_now] + t_hist[:1]
            cs = cold.solve(t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0])
            ws = warm.solve(t_hist, c_hist, ref, 1000.0, [0.2, 0.2], [3.0, 3.0])
            assert not cs.qp.warm_started
            warm_started_any = warm_started_any or ws.qp.warm_started
            assert ws.delta_c == pytest.approx(cs.delta_c, abs=1e-9)
            c_hist = np.vstack(
                [np.clip(c_hist[0] + cs.delta_c, 0.2, 3.0), c_hist[0]]
            )
        assert warm_started_any
        assert warm.warm_hits > 0
        assert cold.warm_hits == 0

    def test_adopted_warm_state_survives_first_solve(self):
        donor = self._controller(warm=True)
        self._drive(donor, n=10)
        assert donor._warm_active  # non-empty working sets to hand over
        heir = self._controller(warm=True)
        heir.adopt_warm_state(donor)
        sols = self._drive(heir, n=1)
        assert sols[0].qp.warm_started
        assert heir.warm_hits >= 1

    def test_cache_invalidated_on_model_change(self):
        ctrl = self._controller(warm=False)
        self._drive(ctrl, n=1)
        key_before = ctrl._cache_key
        ctrl.model = ARXModel(
            a=[0.5], b=[[-700.0, -250.0], [-90.0, -40.0]], g=1700.0
        )
        self._drive(ctrl, n=1)
        assert ctrl._cache_key != key_before


class _RecordingConstraint(MemoryConstraint):
    """MemoryConstraint that logs protocol calls (generic dispatch)."""

    def __init__(self, sizes, capacity):
        super().__init__(sizes, capacity)
        self.log = []

    def accepts(self, idx):
        self.log.append(("accepts", idx))
        return super().accepts(idx)

    def push(self, idx):
        self.log.append(("push", idx))
        super().push(idx)

    def pop(self, idx):
        self.log.append(("pop", idx))
        super().pop(idx)


def _assert_same_result(fast, generic):
    """Every MBSResult field equal, floats included (no tolerance)."""
    for field in dataclasses.fields(fast):
        name = field.name
        assert getattr(fast, name) == getattr(generic, name), name


class TestPackingFastLane:
    def test_memory_constraint_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            MemoryConstraint([1.0, float("nan")], 10.0)
        with pytest.raises(ValueError, match="finite"):
            MemoryConstraint([1.0, float("inf")], 10.0)
        with pytest.raises(ValueError, match="finite"):
            MemoryConstraint([1.0, 2.0], float("nan"))

    @pytest.mark.parametrize(
        "sizes, capacity",
        [
            ([float("nan"), 0.5, 0.4], 1.0),
            ([float("inf"), 0.5, 0.4], 1.0),
            ([0.5, 0.4], float("nan")),
            ([0.5, 0.4], float("inf")),
        ],
    )
    def test_minimum_bin_slack_rejects_nan_and_inf(self, sizes, capacity):
        with pytest.raises(ValueError, match="finite"):
            minimum_bin_slack(sizes, capacity)

    def test_protocol_balance_and_ordering(self):
        sizes = [4.0, 3.0, 2.0, 1.0]
        cons = _RecordingConstraint([1.0] * 4, 100.0)
        minimum_bin_slack(sizes, 6.0, constraint=cons, epsilon=0.0)
        assert cons.used == 0.0  # balanced: state restored
        pushes = [e for e in cons.log if e[0] == "push"]
        pops = [e for e in cons.log if e[0] == "pop"]
        assert len(pushes) == len(pops)
        # Every push is preceded by an accepts for the same item.
        for i, (kind, idx) in enumerate(cons.log):
            if kind == "push":
                assert ("accepts", idx) in cons.log[:i]

    def test_subclass_takes_generic_path_with_identical_results(self):
        rng = np.random.default_rng(5)
        sizes = rng.uniform(0.2, 1.0, size=12)
        mems = rng.uniform(100.0, 900.0, size=12)
        fast = minimum_bin_slack(
            sizes, 3.0, constraint=MemoryConstraint(mems, 3000.0), epsilon=0.0
        )
        generic = minimum_bin_slack(
            sizes,
            3.0,
            constraint=_RecordingConstraint(mems, 3000.0),
            epsilon=0.0,
        )
        assert fast.selected == generic.selected
        assert fast.slack == generic.slack
        assert fast.steps == generic.steps

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_inlined_memory_path_matches_generic_protocol(self, data):
        # The inlined MemoryConstraint path counts runs of rejected
        # positions in bulk; the generic accepts/push/pop path (taken by
        # any subclass) steps through them one at a time.  Memory binds a
        # few items deep, so most steps fall in such runs, and the step
        # budget, the hard cap and the prune point land inside them.
        n = data.draw(st.integers(1, 40), label="n")
        sizes = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n), label="sizes"
        )
        classes = data.draw(
            st.lists(
                st.sampled_from([256.0, 512.0, 768.0, 1024.0, 1536.0, 2048.0]),
                min_size=2, max_size=4, unique=True,
            ),
            label="memory classes",
        )
        mems = data.draw(
            st.lists(st.sampled_from(classes), min_size=n, max_size=n), label="mems"
        )
        mem_cap = data.draw(st.integers(1, 5), label="depth") * max(classes) + (
            data.draw(st.sampled_from([0.0, 100.0]), label="mem slack")
        )
        capacity = data.draw(st.floats(0.5, max(0.5, 0.8 * sum(sizes))), label="cap")
        kwargs = dict(
            epsilon=data.draw(st.sampled_from([0.0, 0.01, 0.1]), label="eps"),
            max_steps=data.draw(st.integers(1, 50), label="max_steps"),
            epsilon_step=data.draw(st.sampled_from([None, 1e-3, 0.05]), label="eps_step"),
            prune=data.draw(st.booleans(), label="prune"),
        )
        if data.draw(st.booleans(), label="seeded"):
            kwargs["incumbent"] = data.draw(
                st.lists(st.integers(0, n - 1), max_size=6), label="incumbent"
            )
        uncapped = minimum_bin_slack(
            sizes, capacity, constraint=_RecordingConstraint(mems, mem_cap), **kwargs
        )
        kwargs["hard_step_cap"] = data.draw(
            st.one_of(st.none(), st.integers(1, max(1, uncapped.steps))), label="cap_at"
        )
        generic_cons = _RecordingConstraint(mems, mem_cap)
        generic = minimum_bin_slack(sizes, capacity, constraint=generic_cons, **kwargs)
        fast = minimum_bin_slack(
            sizes, capacity, constraint=MemoryConstraint(mems, mem_cap), **kwargs
        )
        _assert_same_result(fast, generic)
        assert generic_cons.used == 0.0

    @pytest.mark.parametrize("hard_step_cap", [None, 4321])
    def test_paper_pod_call_reaches_budget_with_identical_results(self, hard_step_cap):
        # Shaped like one server's call in a sharded-paper pod: ~2,000
        # candidates with memory classes (512, 1024, 1536, 2048) MB, a
        # 16 GB server and the large-scale Minimum Slack settings.  The
        # search runs past max_steps, so the budget escalates epsilon.
        rng = np.random.default_rng(2)
        n = 2000
        cpu = rng.uniform(0.035, 0.77, size=n)
        mems = rng.choice((512.0, 1024.0, 1536.0, 2048.0), size=n)
        kwargs = dict(epsilon=0.1, max_steps=3000, hard_step_cap=hard_step_cap)
        fast = minimum_bin_slack(
            cpu, 10.8, constraint=MemoryConstraint(mems, 16384.0), **kwargs
        )
        generic = minimum_bin_slack(
            cpu, 10.8, constraint=_RecordingConstraint(mems, 16384.0), **kwargs
        )
        assert fast.steps >= 3000
        assert fast.epsilon_used > 0.1  # escalated
        _assert_same_result(fast, generic)
        if hard_step_cap is None:
            # Pinned from the search that stepped one position at a time.
            assert fast.steps == 7956
            assert fast.early_exit
            assert len(fast.selected) == 13
        else:
            assert fast.steps == hard_step_cap
            assert not fast.early_exit

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prune_returns_unpruned_selection(self, data):
        n = data.draw(st.integers(1, 10))
        sizes = [data.draw(st.floats(0.1, 2.0)) for _ in range(n)]
        capacity = data.draw(st.floats(0.5, 5.0))
        eps = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
        pruned = minimum_bin_slack(
            sizes, capacity, epsilon=eps, max_steps=10**6, prune=True
        )
        full = minimum_bin_slack(
            sizes, capacity, epsilon=eps, max_steps=10**6, prune=False
        )
        assert pruned.selected == full.selected
        # Slack may differ in the last float bits (the pruned search
        # accumulates the running fill in a different order); the
        # selection — what downstream placement consumes — is exact.
        assert pruned.slack == pytest.approx(full.slack, abs=1e-12)
        assert pruned.steps <= full.steps

    def test_step_budget_escalation_boundary(self):
        # Escalation must fire after *exactly* max_steps evaluations:
        # epsilon_used == epsilon + epsilon_step * (steps // max_steps).
        sizes = list(np.linspace(0.31, 0.97, 12))
        res = minimum_bin_slack(
            sizes, 2.0001, epsilon=0.0, max_steps=7, epsilon_step=0.01
        )
        assert res.steps >= 7
        assert res.epsilon_used == pytest.approx(
            0.0 + 0.01 * (res.steps // 7)
        )

    def test_hard_step_cap_is_exact(self):
        sizes = [0.5] * 30
        res = minimum_bin_slack(
            sizes,
            7.77,  # unreachable exactly: search would run long
            epsilon=0.0,
            max_steps=10,
            epsilon_step=1e-12,  # escalations never unlock an early exit
            hard_step_cap=23,
        )
        assert res.steps == 23

    def test_incumbent_seeds_and_never_worsens(self):
        rng = np.random.default_rng(9)
        sizes = rng.uniform(0.2, 1.0, size=14)
        capacity = float(sizes[:5].sum()) + 0.003
        cold = minimum_bin_slack(sizes, capacity, epsilon=0.005)
        seeded = minimum_bin_slack(
            sizes, capacity, epsilon=0.005, incumbent=cold.selected
        )
        assert seeded.seeded
        assert seeded.early_exit
        assert seeded.steps == 0  # the seed already meets epsilon
        assert seeded.slack <= cold.slack + 1e-9

    def test_incumbent_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            minimum_bin_slack([1.0, 2.0], 3.0, incumbent=[0, 7])

    def test_incumbent_items_that_no_longer_fit_are_dropped(self):
        # Item 0 alone overflows the bin: the seed reduces to item 1.
        res = minimum_bin_slack(
            [5.0, 1.0], 2.0, epsilon=1.5, incumbent=[0, 1]
        )
        assert res.seeded
        assert res.selected == (1,)


class TestIncrementalPAC:
    def _problem(self, seed, n_vms=24, n_servers=6):
        rng = np.random.default_rng(seed)
        servers = tuple(
            make_server_info(
                f"s{j}",
                capacity=8.0,
                memory=32768.0,
                efficiency=0.05 - 0.002 * j,
            )
            for j in range(n_servers)
        )
        vms = make_vm_infos(
            [f"vm{i}" for i in range(n_vms)],
            rng.uniform(0.3, 1.4, size=n_vms),
            rng.uniform(256.0, 2048.0, size=n_vms),
        )
        return PlacementProblem(servers=servers, vms=vms, mapping={})

    def test_unchanged_problem_replays_previous_placement(self):
        for seed in range(5):
            problem = self._problem(seed)
            scratch = pac(problem, config=PACConfig())
            again = PlacementProblem(
                servers=problem.servers,
                vms=problem.vms,
                mapping=scratch.final_mapping,
            )
            incr = pac(again, config=PACConfig(incremental=True))
            assert incr.final_mapping == scratch.final_mapping
            assert incr.migrations == []

    def test_incremental_never_uses_more_active_servers(self):
        for seed in range(8):
            problem = self._problem(seed)
            base = pac(problem, config=PACConfig())
            # Drift demands a little, as between optimizer periods.
            rng = np.random.default_rng(100 + seed)
            drifted_vms = make_vm_infos(
                [v.vm_id for v in problem.vms],
                [
                    v.demand_ghz * rng.uniform(0.98, 1.02)
                    for v in problem.vms
                ],
                [v.memory_mb for v in problem.vms],
            )
            drifted = PlacementProblem(
                servers=problem.servers,
                vms=drifted_vms,
                mapping=base.final_mapping,
            )
            scratch = pac(drifted, config=PACConfig())
            incr = pac(drifted, config=PACConfig(incremental=True))
            assert not incr.unplaced and not scratch.unplaced
            assert len(set(incr.final_mapping.values())) <= len(
                set(scratch.final_mapping.values())
            )

    def test_ipac_incremental_matches_scratch_active_servers(self):
        from repro.core.optimizer.ipac import IPACConfig, ipac

        for seed in range(4):
            base = self._problem(seed)
            start = pac(base, config=PACConfig())
            problem = PlacementProblem(
                servers=base.servers,
                vms=base.vms,
                mapping=start.final_mapping,
            )
            scratch = ipac(problem, config=IPACConfig())
            incr = ipac(
                problem, config=IPACConfig(pac=PACConfig(incremental=True))
            )
            assert len(set(incr.final_mapping.values())) <= len(
                set(scratch.final_mapping.values())
            )

    def test_minslack_incumbent_ids_filter_unknown(self):
        vms = make_vm_infos(
            ["a", "b", "c"], [1.0, 0.8, 0.5], [256.0, 256.0, 256.0]
        )
        chosen, res = select_vms_for_server(
            1.9,
            10_000.0,
            vms,
            MinSlackConfig(epsilon_ghz=0.2),
            incumbent_ids=["a", "ghost", "c"],
        )
        assert res.seeded
        assert {vm.vm_id for vm in chosen} <= {"a", "b", "c"}


class TestBenchHarness:
    def test_run_suite_rejects_unknown_inputs(self):
        from repro.bench import run_suite

        with pytest.raises(ValueError, match="scale"):
            run_suite(scale="huge")
        with pytest.raises(KeyError, match="unknown case"):
            run_suite(scale="smoke", cases=["nope"])

    def test_minslack_case_reports_schema(self):
        from repro.bench import run_suite

        report = run_suite(scale="smoke", cases=["minslack"])
        assert report["schema"] == 1
        assert report["scale"] == "smoke"
        case = report["cases"]["minslack"]
        for key in ("wall_s", "reference_wall_s", "speedup", "iters",
                    "warm_hit_rate"):
            assert key in case
        assert case["wall_s"] > 0 and case["reference_wall_s"] > 0

    def test_compare_to_baseline_is_scale_aware(self):
        from repro.bench import compare_to_baseline

        report = {
            "schema": 1,
            "scale": "smoke",
            "cases": {"mpc_solve": {"speedup": 2.0}},
        }
        baseline = {
            "schema": 1,
            "scales": {
                "smoke": {"cases": {"mpc_solve": {"speedup": 2.1}}},
                "full": {"cases": {"mpc_solve": {"speedup": 50.0}}},
            },
        }
        # 2.0 vs smoke-baseline 2.1 is within 25%; the full-scale 50.0
        # must not be consulted.
        assert compare_to_baseline(report, baseline) == []
        baseline["scales"]["smoke"]["cases"]["mpc_solve"]["speedup"] = 4.0
        failures = compare_to_baseline(report, baseline)
        assert len(failures) == 1 and "mpc_solve" in failures[0]
        # Cases missing from the baseline are skipped, not errors.
        report["cases"]["brand_new"] = {"speedup": 0.1}
        assert len(compare_to_baseline(report, baseline)) == 1

    def test_overhead_case_judged_by_ceiling_not_speedup(self):
        from repro.bench.perf_suite import (
            TELEMETRY_SMOKE_MAX_OVERHEAD_PCT as ceiling,
            compare_to_baseline,
        )

        baseline = {"schema": 1, "scales": {
            "smoke": {"cases": {
                "telemetry": {"speedup": 1.046, "detail": {"overhead_pct": -4.4}},
            }},
            "full": {"cases": {
                "telemetry": {"speedup": 0.922, "detail": {"overhead_pct": 8.4}},
            }},
        }}

        def report(overhead_pct, scale="smoke"):
            return {"schema": 1, "scale": scale, "cases": {"telemetry": {
                "speedup": 1.0 / (1.0 + overhead_pct / 100.0),
                "detail": {"overhead_pct": overhead_pct},
            }}}

        # A modest overhead reads below x1.00 against a x1.046 baseline;
        # at smoke scale the ceiling, not the "slower than reference"
        # rule, decides.
        assert compare_to_baseline(report(12.0), baseline, 0.4) == []
        assert compare_to_baseline(report(ceiling), baseline, 0.4) == []
        failures = compare_to_baseline(report(ceiling + 0.5), baseline, 0.4)
        assert len(failures) == 1 and "telemetry" in failures[0]
        assert "ceiling" in failures[0]
        # At full scale the ceiling does not apply: the speedup floor
        # (x0.922 - 40% = x0.553, i.e. about +81% overhead) judges it.
        assert compare_to_baseline(report(ceiling + 0.5, "full"), baseline, 0.4) == []
        failures = compare_to_baseline(report(90.0, "full"), baseline, 0.4)
        assert len(failures) == 1 and "below x0.55" in failures[0]

    def test_write_report_merges_scales(self, tmp_path):
        from repro.bench import write_report

        path = str(tmp_path / "bench.json")
        write_report(
            {"schema": 1, "scale": "full", "cases": {"a": {"speedup": 3.0}}},
            path,
        )
        write_report(
            {"schema": 1, "scale": "smoke", "cases": {"a": {"speedup": 2.0}}},
            path,
        )
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc["scales"]) == {"full", "smoke"}
        assert doc["scales"]["full"]["cases"]["a"]["speedup"] == 3.0
