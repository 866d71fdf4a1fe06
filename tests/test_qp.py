"""Dual active-set QP solver, validated against SciPy on random problems.

SciPy appears here only as a test oracle: ``trust-constr`` for optima
and ``linprog`` (HiGHS) for whether a constraint set is empty.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.control.qp import solve_qp, solve_qp_batch
from repro.obs import InMemoryBackend, Telemetry, use_telemetry
from tests.conftest import mpc_shaped_qp


def _scipy_reference(H, g, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    n = g.shape[0]
    cons = []
    if A_eq is not None:
        cons.append(optimize.LinearConstraint(A_eq, b_eq, b_eq))
    if A_ub is not None:
        cons.append(optimize.LinearConstraint(A_ub, -np.inf, b_ub))
    res = optimize.minimize(
        lambda x: 0.5 * x @ H @ x + g @ x,
        np.zeros(n),
        jac=lambda x: H @ x + g,
        constraints=cons,
        method="trust-constr",
        options={"maxiter": 3000, "gtol": 1e-10},
    )
    return res.x, res.fun


class TestUnconstrained:
    def test_quadratic_minimum(self):
        H = 2.0 * np.eye(2)
        g = np.array([-2.0, -4.0])
        r = solve_qp(H, g)
        assert r.ok
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_qp(np.eye(3), np.zeros(2))


class TestEquality:
    def test_projection_onto_plane(self):
        # min |x|^2 s.t. x0 + x1 = 2 -> (1, 1)
        r = solve_qp(2 * np.eye(2), np.zeros(2), A_eq=[[1.0, 1.0]], b_eq=[2.0])
        np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-9)

    def test_multiple_equalities(self):
        H = 2 * np.eye(3)
        A = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        b = np.array([3.0, -1.0])
        r = solve_qp(H, np.zeros(3), A_eq=A, b_eq=b)
        np.testing.assert_allclose(r.x, [3.0, -1.0, 0.0], atol=1e-9)


class TestInequality:
    def test_active_inequality(self):
        # min (x0-1)^2 + (x1-2)^2 s.t. x0 + x1 <= 2 -> (0.5, 1.5)
        r = solve_qp(2 * np.eye(2), np.array([-2.0, -4.0]),
                     A_ub=[[1.0, 1.0]], b_ub=[2.0])
        np.testing.assert_allclose(r.x, [0.5, 1.5], atol=1e-8)
        assert r.active_set == (0,)

    def test_inactive_inequality_ignored(self):
        r = solve_qp(2 * np.eye(2), np.array([-2.0, -4.0]),
                     A_ub=[[1.0, 1.0]], b_ub=[100.0])
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-9)
        assert r.active_set == ()

    def test_box_constraints(self):
        # min (x-5)^2 s.t. x <= 1, -x <= 0
        r = solve_qp(np.array([[2.0]]), np.array([-10.0]),
                     A_ub=[[1.0], [-1.0]], b_ub=[1.0, 0.0])
        np.testing.assert_allclose(r.x, [1.0], atol=1e-9)

    def test_mixed_eq_and_ineq(self):
        # min |x|^2 s.t. x0 + x1 = 4, x0 <= 1 -> (1, 3)
        r = solve_qp(2 * np.eye(2), np.zeros(2),
                     A_eq=[[1.0, 1.0]], b_eq=[4.0],
                     A_ub=[[1.0, 0.0]], b_ub=[1.0])
        np.testing.assert_allclose(r.x, [1.0, 3.0], atol=1e-8)

    def test_constraint_add_then_drop(self):
        """A constraint activated early in the search must be dropped when
        its multiplier turns negative."""
        # min (x0-2)^2 + (x1-2)^2 s.t. x0 <= 1, x0 + x1 <= 10.
        r = solve_qp(2 * np.eye(2), np.array([-4.0, -4.0]),
                     A_ub=[[1.0, 0.0], [1.0, 1.0]], b_ub=[1.0, 10.0])
        np.testing.assert_allclose(r.x, [1.0, 2.0], atol=1e-8)
        assert r.active_set == (0,)


class TestAgainstScipy:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), m=st.integers(0, 8))
    def test_random_inequality_qps(self, data, n, m):
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(n, n))
        H = L @ L.T + n * np.eye(n)  # well-conditioned SPD
        g = rng.normal(scale=3.0, size=n)
        A_ub = rng.normal(size=(m, n)) if m else None
        b_ub = rng.uniform(0.5, 3.0, size=m) if m else None  # x=0 feasible
        ours = solve_qp(H, g, A_ub=A_ub, b_ub=b_ub)
        assert ours.ok
        ref_x, ref_f = _scipy_reference(H, g, A_ub=A_ub, b_ub=b_ub)
        our_f = 0.5 * ours.x @ H @ ours.x + g @ ours.x
        assert our_f <= ref_f + 1e-5 * (1 + abs(ref_f))
        if A_ub is not None:
            assert np.max(A_ub @ ours.x - b_ub) <= 1e-7

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5))
    def test_random_equality_qps(self, data, n):
        seed = data.draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        L = rng.normal(size=(n, n))
        H = L @ L.T + n * np.eye(n)
        g = rng.normal(size=n)
        A_eq = rng.normal(size=(1, n))
        b_eq = rng.normal(size=1)
        ours = solve_qp(H, g, A_eq=A_eq, b_eq=b_eq)
        assert ours.ok
        assert abs(A_eq @ ours.x - b_eq)[0] < 1e-7
        ref_x, ref_f = _scipy_reference(H, g, A_eq=A_eq, b_eq=b_eq)
        our_f = 0.5 * ours.x @ H @ ours.x + g @ ours.x
        assert our_f <= ref_f + 1e-5 * (1 + abs(ref_f))


class TestDegenerate:
    def test_infeasible_equalities_certified(self):
        # x = 1 and x = 2 simultaneously: infeasible.
        r = solve_qp(np.array([[2.0]]), np.zeros(1),
                     A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0])
        assert r.status == "infeasible"
        assert r.x is None

    def test_redundant_equalities_are_skipped(self):
        # x0 + x1 = 2 stated twice: consistent, so still solvable.
        r = solve_qp(2 * np.eye(2), np.zeros(2),
                     A_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[2.0, 2.0])
        assert r.status == "optimal"
        np.testing.assert_allclose(r.x, [1.0, 1.0], atol=1e-9)

    def test_empty_box_is_certified(self):
        # x <= 0 and x >= 1.
        r = solve_qp(np.array([[2.0]]), np.array([1.0]),
                     A_ub=[[1.0], [-1.0]], b_ub=[0.0, -1.0])
        assert r.status == "infeasible"

    def test_redundant_constraints(self):
        # Same inequality twice must not confuse the working set.
        r = solve_qp(2 * np.eye(2), np.array([-4.0, -4.0]),
                     A_ub=[[1.0, 0.0], [1.0, 0.0]], b_ub=[1.0, 1.0])
        assert r.ok
        assert r.x[0] == pytest.approx(1.0, abs=1e-7)


# -- MPC-shaped problems -------------------------------------------------


def _feasibility_margin(A_eq, b_eq, A_ub, b_ub):
    """Largest uniform slack of the inequalities under the equalities
    (capped at 1); negative when the constraint set is empty."""
    n = A_ub.shape[1]
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = optimize.linprog(
        cost,
        A_ub=np.hstack([A_ub, np.ones((A_ub.shape[0], 1))]), b_ub=b_ub,
        A_eq=np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]), b_eq=b_eq,
        bounds=[(None, None)] * n + [(None, 1.0)], method="highs",
    )
    if res.status == 2:
        return -np.inf
    assert res.status == 0, res.message
    return -res.fun


def _assert_kkt(H, g, A_eq, b_eq, A_ub, b_ub, res, tol=1e-8):
    """Stationarity, primal and dual feasibility, relative to scale."""
    x = res.x
    active = list(res.active_set)
    C = np.vstack([A_eq, A_ub[active]])
    grad = H @ x + g
    lam = np.linalg.lstsq(C.T, -grad, rcond=None)[0]
    scale = max(1.0, np.linalg.norm(g), np.linalg.norm(H @ x))
    assert np.linalg.norm(grad + C.T @ lam) <= tol * scale
    x_scale = 1.0 + np.abs(x).max()
    assert np.max(A_ub @ x - b_ub) <= tol * x_scale
    eq_scale = np.abs(A_eq).max() * x_scale
    assert np.max(np.abs(A_eq @ x - b_eq)) <= tol * eq_scale
    if active:
        ineq = lam[A_eq.shape[0]:]
        assert ineq.min() >= -tol * max(1.0, np.abs(lam).max())


class TestMPCShapedProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_infeasible_exactly_when_lp_finds_no_point(self, data):
        H, g, A_eq, b_eq, A_ub, b_ub = mpc_shaped_qp(data)
        margin = _feasibility_margin(A_eq, b_eq, A_ub, b_ub)
        assume(abs(margin) > 1e-7)  # too close to the boundary to judge
        res = solve_qp(H, g, A_eq, b_eq, A_ub, b_ub)
        assert res.status == ("optimal" if margin > 0 else "infeasible")
        assert res.iterations < 200

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_optimum_satisfies_kkt_and_warm_equals_cold(self, data):
        H, g, A_eq, b_eq, A_ub, b_ub = mpc_shaped_qp(data)
        cold = solve_qp(H, g, A_eq, b_eq, A_ub, b_ub)
        assume(cold.ok)
        _assert_kkt(H, g, A_eq, b_eq, A_ub, b_ub, cold)
        seeds = [
            cold.active_set,
            data.draw(st.lists(st.integers(0, A_ub.shape[0] - 1), max_size=4)),
        ]
        f_cold = 0.5 * cold.x @ H @ cold.x + g @ cold.x
        # Rounding scale of the objective: the size of the terms summed,
        # which can exceed the objective itself by orders of magnitude.
        ax = np.abs(cold.x)
        f_scale = 0.5 * ax @ np.abs(H) @ ax + np.abs(g) @ ax
        for seed in seeds:
            warm = solve_qp(H, g, A_eq, b_eq, A_ub, b_ub, warm_start=seed)
            assert warm.status == "optimal"
            _assert_kkt(H, g, A_eq, b_eq, A_ub, b_ub, warm)
            f_warm = 0.5 * warm.x @ H @ warm.x + g @ warm.x
            assert abs(f_warm - f_cold) <= 1e-9 * (1.0 + f_scale)
        # Seeded with its own optimal working set, the solve is one
        # KKT system.
        assert solve_qp(
            H, g, A_eq, b_eq, A_ub, b_ub, warm_start=cold.active_set
        ).iterations == 1


class TestCapturedTestbedQP:
    def test_reachable_terminal_is_kept_hard(self):
        """A testbed-light QP whose terminal set point is reachable by
        1.19 ms: the iteration-budget solver gave up on it and the
        controller softened the terminal; it must solve as optimal."""
        path = Path(__file__).parent / "data" / "testbed_light_reachable_terminal_qp.json"
        doc = json.loads(path.read_text())
        args = [np.asarray(doc[k]) for k in ("H", "g", "A_eq", "b_eq", "A_ub", "b_ub")]
        margin = _feasibility_margin(*args[2:])
        assert margin > 0
        res = solve_qp(*args)
        assert res.status == "optimal"
        assert res.iterations <= 20
        _assert_kkt(*args, res)


class TestTelemetry:
    def test_status_counters_and_iteration_histogram(self):
        H = 2.0 * np.eye(2)
        g = np.array([-2.0, -4.0])
        A_ub = [[1.0, 1.0]]
        off = [
            solve_qp(H, g, A_ub=A_ub, b_ub=[2.0]),
            solve_qp(H, g, A_eq=[[1.0, 0.0]], b_eq=[1.0],
                     A_ub=[[-1.0, 0.0]], b_ub=[-2.0]),
        ]
        backend = InMemoryBackend()
        tel = Telemetry(backend)
        with use_telemetry(tel, close=False):
            on = [
                solve_qp(H, g, A_ub=A_ub, b_ub=[2.0]),
                solve_qp(H, g, A_eq=[[1.0, 0.0]], b_eq=[1.0],
                         A_ub=[[-1.0, 0.0]], b_ub=[-2.0]),
            ]
            solve_qp_batch(H, np.stack([g, g]), A_ub=A_ub,
                           b_ub_batch=[[2.0], [100.0]])
        snap = tel.registry.snapshot()
        assert snap["counters"]["qp.status.optimal"] == 3.0
        assert snap["counters"]["qp.status.infeasible"] == 1.0
        assert snap["histograms"]["qp.iterations"]["count"] == 4.0
        # Telemetry observes only: identical numerics either way.
        assert on[1].status == off[1].status == "infeasible"
        assert np.array_equal(on[0].x, off[0].x)
        assert on[0].iterations == off[0].iterations
