"""Fast DES kernel vs the preserved reference: bit-for-bit equivalence.

The optimized :class:`repro.sim.des.PSResource` (preallocated slot
array, vectorized advance, min-remaining cache) claims *bit-identical*
results to :class:`repro.sim.des_reference.ReferencePSResource` (the
original per-job dict implementation).  These tests drive both kernels
through the same operation sequences — random arrivals, capacity
changes, degradations, idle gaps — and compare every observable float
with ``==``, never with a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.rubbos import AppSpec, MultiTierApp
from repro.sim.des import PSResource, Simulator
from repro.sim.des_reference import ReferencePSResource, ReferenceSimulator


def _drive(sim_cls, res_cls, capacity, ops):
    """Run one op sequence; return every observable as exact floats.

    Completions are recorded as ``(completion_time, sojourn)`` pairs in
    firing order — the full event log of the resource.  After the ops
    the capacity is restored to a positive value and the queue drained,
    so sequences that stall the resource (zero capacity, zero share)
    still produce comparable departure times for every job.
    """
    sim = sim_cls()
    res = res_cls(sim, capacity)
    completions = []
    n_submitted = 0
    for op in ops:
        kind, value = op
        if kind == "submit":
            ev = res.submit(value)
            ev.on_success(lambda rt: completions.append((sim.now, rt)))
            n_submitted += 1
        elif kind == "advance":
            sim.run_until(sim.now + value)
        elif kind == "capacity":
            res.set_capacity(value)
        elif kind == "degrade":
            res.degrade(value)
    res.degrade(1.0)
    res.set_capacity(max(res.nominal_capacity_ghz, 1.0))
    sim.run_until(sim.now + 1e6)
    assert res.queue_length == 0, "drain must complete every job"
    assert res.completed_jobs == n_submitted
    return completions, res.busy_time, res.work_done, sim.now


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
        ),
        st.tuples(
            st.just("advance"),
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        ),
        # Capacity/degrade are exactly zero (the stall path) or far
        # enough from zero that completion delays stay finite; both
        # kernels reject subnormal capacities the same way, but that
        # raise would abort the sequence before any comparison.
        st.tuples(
            st.just("capacity"),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.01, max_value=4.0, allow_nan=False),
            ),
        ),
        st.tuples(
            st.just("degrade"),
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            ),
        ),
    ),
    min_size=1,
    max_size=50,
)


def _drive_bursts(sim_cls, res_cls, capacity, cycles):
    """Burst/drain cycles on one resource; observables plus, per cycle,
    the peak queue length and the length the drain stopped at."""
    sim = sim_cls()
    res = res_cls(sim, capacity)
    completions = []

    def drain_to(target):
        while res.queue_length > target:
            assert sim.step(), "queue stalled above its drain target"

    lengths = []
    for works, cap_burst, frac, gap, cap_drain, mid, low in cycles:
        half = len(works) // 2
        for i, work in enumerate(works):
            if i == half:
                res.set_capacity(cap_burst)
            ev = res.submit(work)
            ev.on_success(lambda rt: completions.append((sim.now, rt)))
        peak = res.queue_length
        res.degrade(frac)
        sim.run_until(sim.now + gap)
        res.degrade(1.0)
        res.set_capacity(cap_drain)
        drain_to(mid)
        res.degrade(0.5)
        drain_to(low)
        res.restore()
        lengths.append((peak, res.queue_length))
    sim.run_until(sim.now + 1e6)
    assert res.queue_length == 0
    return (completions, res.busy_time, res.work_done, res.completed_jobs, sim.now), lengths


_POSITIVE_CAP = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)

_BURSTS = st.lists(
    st.tuples(
        st.lists(
            st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
            min_size=40,
            max_size=100,
        ),
        st.one_of(st.just(0.0), _POSITIVE_CAP),  # capacity mid-burst
        st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=1.0)),  # degrade
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),  # degraded gap
        _POSITIVE_CAP,  # capacity for the drain
        st.integers(min_value=33, max_value=39),  # drain stage 1 (array store)
        st.integers(min_value=0, max_value=15),  # drain stage 2 (list store)
    ),
    min_size=2,
    max_size=4,
)


class TestPSBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.floats(min_value=0.1, max_value=4.0), ops=_OPS)
    def test_random_sequences(self, capacity, ops):
        fast = _drive(Simulator, PSResource, capacity, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, capacity, ops)
        assert fast == ref  # exact float equality, element by element

    def test_single_job(self):
        ops = [("submit", 0.75), ("advance", 0.1)]
        assert _drive(Simulator, PSResource, 1.5, ops) == _drive(
            ReferenceSimulator, ReferencePSResource, 1.5, ops
        )

    def test_zero_share_stall_and_resume(self):
        # Capacity drops to zero mid-service: jobs hold their remaining
        # work through the stall, then finish after capacity returns.
        ops = [
            ("submit", 1.0),
            ("submit", 2.0),
            ("advance", 0.5),
            ("capacity", 0.0),
            ("advance", 3.0),
            ("submit", 0.25),
            ("capacity", 2.0),
        ]
        fast = _drive(Simulator, PSResource, 1.0, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, 1.0, ops)
        assert fast == ref

    def test_full_degrade_is_zero_share(self):
        ops = [
            ("submit", 1.0),
            ("advance", 0.25),
            ("degrade", 0.0),
            ("advance", 5.0),
            ("degrade", 0.5),
            ("advance", 0.5),
        ]
        fast = _drive(Simulator, PSResource, 1.0, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, 1.0, ops)
        assert fast == ref

    @settings(max_examples=50, deadline=None)
    @given(
        works=st.lists(
            st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
            min_size=65,
            max_size=80,
        )
    )
    def test_large_batch_vectorized_sweep(self, works):
        # More than 64 concurrent jobs takes the numpy completion-sweep
        # path in the fast kernel; the scalar path covers n <= 64.
        ops = [("submit", w) for w in works] + [("advance", 0.01)]
        fast = _drive(Simulator, PSResource, 2.0, ops)
        ref = _drive(ReferenceSimulator, ReferencePSResource, 2.0, ops)
        assert fast == ref

    @settings(max_examples=40, deadline=None)
    @given(capacity=st.floats(min_value=0.1, max_value=4.0), cycles=_BURSTS)
    def test_list_array_threshold_crossings(self, capacity, cycles):
        # Each cycle bursts the queue past LIST_MAX (list -> array),
        # changes capacity mid-burst and mid-drain, degrades (in the
        # array store unless a batch of equal jobs finishes at once),
        # then drains to at most 15 jobs (array -> list).
        fast, fast_lengths = _drive_bursts(Simulator, PSResource, capacity, cycles)
        ref, ref_lengths = _drive_bursts(
            ReferenceSimulator, ReferencePSResource, capacity, cycles
        )
        assert fast == ref
        assert fast_lengths == ref_lengths
        for peak, floor in fast_lengths:
            assert peak > PSResource.LIST_MAX
            assert floor < 16


class TestAppBitIdentity:
    """Same app workload on both kernels: identical period statistics."""

    def _run(self, kernel):
        app = MultiTierApp(
            AppSpec.rubbos(),
            initial_allocations_ghz=[0.8, 0.6],
            concurrency=25,
            rng=np.random.default_rng(42),
            kernel=kernel,
        )
        app.warmup(10.0)
        out = []
        for alloc in ([0.8, 0.6], [1.2, 0.9], [0.5, 0.4]):
            app.set_allocations(alloc)
            stats = app.run_period(30.0)
            out.append(
                (
                    stats.completed,
                    stats.rt_mean_ms,
                    stats.rt_p50_ms,
                    stats.rt_p90_ms,
                    tuple(stats.utilizations),
                )
            )
        return out

    def test_period_stats_identical(self):
        assert self._run("fast") == self._run("reference")

    def test_fault_path_identical(self):
        def run(kernel):
            app = MultiTierApp(
                AppSpec.rubbos(),
                concurrency=20,
                rng=np.random.default_rng(7),
                kernel=kernel,
            )
            app.warmup(5.0)
            app.degrade_tier(1, 0.3)
            s1 = app.run_period(20.0)
            app.degrade_tier(1, 1.0)
            s2 = app.run_period(20.0)
            return (s1.completed, s1.rt_mean_ms, s2.completed, s2.rt_mean_ms)

        assert run("fast") == run("reference")
