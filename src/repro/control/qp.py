"""Dense convex quadratic programming by a dual active-set method.

Solves ``min 0.5 x'Hx + g'x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub`` for
small dense problems — exactly the shape the MPC controller produces
every control period (a handful of decision variables, a few dozen
constraints).  The method is Goldfarb & Idnani's dual active-set
scheme (Math. Programming 27, 1983):

1. start at the minimiser subject to the equalities alone (plus a
   warm-start working set, see :func:`solve_qp`), which is dual
   feasible: no inequality multiplier is negative;
2. pick the most violated inequality ``p``;
3. raise ``p``'s multiplier, moving the primal point and the working
   set's multipliers along the KKT solution for ``working set + p``,
   until ``p`` is satisfied (a *full* step: ``p`` joins the working
   set) or an active inequality's multiplier reaches zero first (a
   *partial* step: that constraint leaves, and step 3 repeats for the
   same ``p``);
4. stop when no inequality is violated.

Every step raises the dual objective, so no working set repeats and
the method terminates finitely.  When ``p`` is linearly dependent on
the working set and no active multiplier limits the dual step, ``p``
can never be satisfied together with the working set: the constraint
set is empty, and ``status == "infeasible"`` certifies it.  There is no
iteration-budget guess and no third-party fallback.

``H`` must be positive definite (the MPC cost has a strictly positive
control penalty ``R``, which guarantees this).  Each iterate is one
dense KKT solve; the optimum is the KKT solution of the final working
set with its rows in the order they joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_telemetry

__all__ = ["QPResult", "solve_qp", "solve_qp_batch"]

#: A violated row ``a`` counts as linearly dependent on the working set
#: when the curvature ``z'Hz`` of its step is below this fraction of its
#: unconstrained curvature ``a H^-1 a'`` — i.e. the row's angle to the
#: working set's span (in the ``H^-1`` metric) is below about 1e-5 rad.
_DEPENDENT_TOL = 1e-10

#: A dual-step component below ``-_BLOCK_TOL * max|r|`` can block the
#: step; smaller ones are rounding noise of an exact zero.
_BLOCK_TOL = 1e-12

#: How far a warm-start working set's rows may miss their right-hand
#: side at the set's own KKT point before the seed counts as
#: inconsistent and is discarded.
_SEED_TOL = 1e-6


@dataclass(frozen=True)
class QPResult:
    """Outcome of a QP solve.

    ``status`` is ``"optimal"``, ``"infeasible"`` (certified: the
    constraint set is empty) or ``"max_iter"`` (the iteration cap was
    reached; finite termination makes this a sign of a non-convex or
    badly scaled problem).  ``x`` is ``None`` unless optimal.
    ``active_set`` is the final working set of inequality indices — feed
    it back as ``warm_start`` on the next structurally-identical solve;
    ``warm_started`` reports whether this solve was seeded that way.
    ``iterations`` counts the KKT systems solved.
    """

    x: Optional[np.ndarray]
    status: str
    iterations: int
    active_set: Tuple[int, ...]
    warm_started: bool = False

    @property
    def ok(self) -> bool:
        """True when a solution was produced."""
        return self.x is not None


def _kkt_matrix(H: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``[[H, C'], [C, 0]]`` (just ``H`` when there are no rows)."""
    n = H.shape[0]
    m = C.shape[0]
    if m == 0:
        return H
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    kkt[:n, n:] = C.T
    kkt[n:, :n] = C
    return kkt


def _advance(H, C, rows, states, rhs) -> None:
    """Solve the KKT system on ``rows`` once — ``rhs`` holds one column
    per state, or is a vector for a single state — and advance every
    state with its solution column.

    A singular system is reported as ``None`` to states that are
    :attr:`~_DualActiveSet.probing`; the others get a least-squares
    solution.
    """
    kkt = _kkt_matrix(H, C[rows])
    try:
        sol = np.linalg.solve(kkt, rhs)
        singular = False
    except np.linalg.LinAlgError:
        singular = True
        sol = None
        if not all(state.probing for state in states):
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    if sol is not None:
        sol = sol.reshape(len(rhs), -1)
    for col, state in enumerate(states):
        state.advance(None if singular and state.probing else sol[:, col])


#: Kinds of KKT system a problem asks for next (see _DualActiveSet).
_ANCHOR, _TRIAL, _DIRECTION = 0, 1, 2


class _DualActiveSet:
    """Goldfarb–Idnani iteration state of one problem.

    The driver owns the linear algebra: :meth:`system` names the KKT
    system the next step needs (its rows and right-hand side), and
    :meth:`advance` consumes the solution.  This split is what lets
    :func:`solve_qp_batch` factor one KKT matrix for every problem that
    currently asks for the same rows.

    Rows of ``C`` are the equalities (``n_eq`` of them) followed by the
    inequalities; the working set ``W`` lists rows in the order they
    joined, equalities first.  Three kinds of system are solved:

    * *anchor* — rows ``W``, right-hand side ``[-g; b_W]``: the exact
      primal-dual point of the working set;
    * *trial* — rows ``W + [p]``: the point a full step for the violated
      row ``p`` ends at.  The GI step runs along the segment from the
      current point to it: if no active multiplier turns negative on
      the way, ``p`` joins (the trial point is the new, exact iterate);
      otherwise the step stops where the first one reaches zero and that
      row leaves.  A feasible, nondegenerate solve therefore costs one
      KKT system per constraint that joins, like a primal active-set
      method;
    * *direction* — rows ``W``, right-hand side ``[-a_p; 0]``: the step
      direction itself, used when ``p`` looks linearly dependent on
      ``W`` (the trial system is then singular).  It is the textbook GI
      step and decides infeasibility.
    """

    __slots__ = (
        "neg_g", "C", "b", "n", "n_eq", "tol", "max_iter", "curvature",
        "working_set", "k_eq", "lam", "x", "p", "sigma", "t_p", "mode",
        "settling", "seed_unverified", "warm", "skipped", "iterations",
        "result",
    )

    def __init__(self, g, C, b, n_eq, tol, max_iter, curvature, seed):
        self.neg_g = -g
        self.C = C
        self.b = b
        self.n = C.shape[1]
        self.n_eq = n_eq
        self.tol = tol
        self.max_iter = max_iter
        self.curvature = curvature
        self.lam = np.empty(0)  # multipliers of the working-set rows
        self.x: Optional[np.ndarray] = None
        self.p = -1  # constraint being added; -1 when none
        self.sigma = 1.0  # orientation of p (equalities may point down)
        self.t_p = 0.0  # p's multiplier so far
        self.mode = _ANCHOR
        self.skipped: set = set()  # redundant, satisfied equality rows
        self.iterations = 0
        self.result: Optional[QPResult] = None
        rows: List[int] = []
        if seed is not None:
            n_ub = C.shape[0] - n_eq
            for i in seed:
                i = int(i)
                if 0 <= i < n_ub and n_eq + i not in rows:
                    rows.append(n_eq + i)
        self.warm = bool(rows)
        # The first anchor is every equality plus the warm-start seed;
        # the seed's negative-multiplier rows are then dropped until the
        # point is dual feasible.
        self.working_set: List[int] = list(range(n_eq)) + rows
        self.k_eq = n_eq  # equalities in the working set (they lead it)
        self.settling = self.warm
        self.seed_unverified = bool(self.working_set)

    # -- what the driver solves next -------------------------------------

    def system(self) -> Tuple[List[int], np.ndarray]:
        """Rows and right-hand side of the next KKT system."""
        W = self.working_set
        if self.mode == _DIRECTION:
            rhs = np.zeros(self.n + len(W))
            rhs[: self.n] = -self.sigma * self.C[self.p]
            return W, rhs
        rows = W if self.mode == _ANCHOR else W + [self.p]
        if not rows:
            return rows, self.neg_g
        return rows, np.concatenate((self.neg_g, self.b[rows]))

    @property
    def probing(self) -> bool:
        """Whether the next system may be singular by design: a trial
        row can depend on the working set, and a start can be
        inconsistent.  Any other singular system is solved by least
        squares."""
        return self.mode == _TRIAL or self.seed_unverified

    def advance(self, sol: Optional[np.ndarray]) -> None:
        """Consume the solution of :meth:`system`; ``None`` reports a
        singular system while :attr:`probing`."""
        self.iterations += 1
        mode = self.mode
        if sol is None:
            if mode == _TRIAL:
                self.mode = _DIRECTION  # p depends on the working set
            else:
                self._reject_start()
        elif mode == _ANCHOR:
            self._anchored(sol[: self.n], sol[self.n :])
        elif mode == _TRIAL:
            self._tried(sol[: self.n], sol[self.n :])
        else:
            self._step(sol[: self.n], sol[self.n :])
        if self.result is None and self.iterations >= self.max_iter:
            self.result = QPResult(
                None, "max_iter", self.iterations, (), self.warm
            )

    # -- transitions ------------------------------------------------------

    def _finish(self, x: Optional[np.ndarray], status: str) -> None:
        active: Tuple[int, ...] = ()
        if x is not None:
            x = x.copy()
            n_eq = self.n_eq
            active = tuple(sorted(i - n_eq for i in self.working_set[self.k_eq :]))
        self.result = QPResult(x, status, self.iterations, active, self.warm)

    def _reject_start(self) -> None:
        """The first anchor missed its own rows: fall back one level."""
        if self.warm:
            # A stale seed can be inconsistent under the current
            # right-hand side: discard it whole, keep the equalities.
            self.working_set = list(range(self.n_eq))
            self.warm = self.settling = False
            self.seed_unverified = bool(self.working_set)
        else:
            # Dependent or inconsistent equalities: add them one at a
            # time, so the dual iteration skips or certifies them.
            self.working_set = []
            self.k_eq = 0
            self.seed_unverified = False

    def _anchored(self, x: np.ndarray, lam: np.ndarray) -> None:
        W = self.working_set
        if self.seed_unverified:
            # An inconsistent start makes the KKT system (nearly)
            # singular; its solution then misses some of the rows.
            miss = np.abs(self.C[W] @ x - self.b[W]).max()
            if not miss <= _SEED_TOL:
                self._reject_start()
                return
            self.seed_unverified = False
        if self.settling:
            k = self.k_eq
            if k < len(W):
                worst = k + int(np.argmin(lam[k:]))
                if lam[worst] < -self.tol:
                    del W[worst]
                    return  # re-anchor without that row
            self.settling = False
        self.x = x
        self.lam = lam
        self._pick(exact=True)

    def _pick(self, exact: bool) -> None:
        """Choose the next constraint to add, or finish.

        ``exact`` says whether ``self.x`` is the solved KKT point of the
        working set; a point reached by a direction step is re-anchored
        before it is declared optimal.
        """
        resid = self.C @ self.x - self.b
        p = -1
        if self.k_eq + len(self.skipped) < self.n_eq:
            # Equalities join first (only after a rejected start).
            for i in range(self.n_eq):
                if i not in self.skipped and i not in self.working_set:
                    p = i
                    self.sigma = -1.0 if resid[i] < 0.0 else 1.0
                    break
        if p < 0 and resid.size:
            # Rows already in the working set (or skipped) are met.
            if self.working_set:
                resid[self.working_set] = -np.inf
            if self.skipped:
                resid[list(self.skipped)] = -np.inf
            worst = int(resid.argmax())
            if resid[worst] > self.tol:
                p = worst
                self.sigma = 1.0
        self.p = p
        self.t_p = 0.0
        if p >= 0:
            # With n rows in the working set, x is pinned: p depends on it.
            self.mode = _TRIAL if len(self.working_set) < self.n else _DIRECTION
        elif exact:
            self._finish(self.x, "optimal")
        else:
            self.mode = _ANCHOR

    def _dependent(self, slack: float, dt: float) -> bool:
        """Whether a step of multiplier ``dt`` closing ``slack`` means p
        depends on the working set (see ``_DEPENDENT_TOL``)."""
        return not slack > _DEPENDENT_TOL * self.curvature[self.p] * dt

    def _tried(self, x: np.ndarray, lam: np.ndarray) -> None:
        p, W, k = self.p, self.working_set, self.k_eq
        slack = self.sigma * (self.C[p] @ self.x - self.b[p])  # > 0: violated
        dt = self.sigma * lam[-1] - self.t_p  # p's multiplier gain
        if not dt > 0.0 or self._dependent(slack, dt):
            self.mode = _DIRECTION
            return
        lam_W = lam[:-1]
        if k == len(W) or lam_W[k:].min() >= -self.tol:
            # Full step: p joins, and the trial point is exact.
            W.append(p)
            self.k_eq += p < self.n_eq
            self.x = x
            self.lam = lam
            self._pick(exact=True)
            return
        # Partial step: stop where the first multiplier reaches zero.
        neg = np.flatnonzero(lam_W[k:] < -self.tol)
        now = self.lam[k:][neg]
        frac = now / (now - lam_W[k:][neg])
        best = int(np.argmin(frac))
        f = min(max(float(frac[best]), 0.0), 1.0)
        self.x = self.x + f * (x - self.x)
        self.lam = self.lam + f * (lam_W - self.lam)
        self.t_p += f * dt
        self._drop(k + int(neg[best]))

    def _step(self, z: np.ndarray, r: np.ndarray) -> None:
        p, sigma, W = self.p, self.sigma, self.working_set
        slack = sigma * (self.C[p] @ self.x - self.b[p])  # > 0: violated
        curvature = -sigma * (self.C[p] @ z)

        # Partial step length: the first active inequality whose
        # multiplier the dual step drives to zero.
        t_block, block = np.inf, -1
        k = self.k_eq  # equalities never block
        if k < len(W):
            r_ub = r[k:]
            limit = -_BLOCK_TOL * max(1.0, float(np.abs(r).max()))
            cand = np.flatnonzero(r_ub < limit)
            if cand.size:
                ratios = self.lam[k:][cand] / -r_ub[cand]
                best = int(np.argmin(ratios))
                block = k + int(cand[best])
                t_block = max(float(ratios[best]), 0.0)

        if self._dependent(curvature, 1.0):
            if block < 0:
                if p < self.n_eq and abs(slack) <= self.tol:
                    # A redundant equality the working set already meets.
                    self.skipped.add(p)
                    self._pick(exact=False)
                else:
                    self._finish(None, "infeasible")
                return
            # Dual-only step: shift weight onto p, release the blocker.
            self.lam = self.lam + t_block * r
            self.t_p += t_block
            self._drop(block)
            return

        t_full = slack / curvature
        t = min(t_full, t_block)
        self.x = self.x + t * z
        self.lam = self.lam + t * r
        self.t_p += t
        if t_full <= t_block:
            W.append(p)
            self.k_eq += p < self.n_eq
            self.lam = np.append(self.lam, sigma * self.t_p)
            self._pick(exact=False)
        else:
            self._drop(block)

    def _drop(self, pos: int) -> None:
        del self.working_set[pos]
        self.lam = np.concatenate((self.lam[:pos], self.lam[pos + 1 :]))


class _RowCurvature:
    """``a_i H^-1 a_i'`` for every constraint row, computed on first use
    (a warm start that needs no step never pays for it) and shared by
    all problems of a batch."""

    __slots__ = ("H", "C", "values")

    def __init__(self, H: np.ndarray, C: np.ndarray):
        self.H = H
        self.C = C
        self.values: Optional[np.ndarray] = None

    def __getitem__(self, row: int) -> float:
        if self.values is None:
            Hinv_Ct = np.linalg.solve(self.H, self.C.T)
            self.values = np.einsum("ij,ji->i", self.C, Hinv_Ct)
        return float(self.values[row])


def _dense(A, b, n: int, name: str) -> Tuple[np.ndarray, np.ndarray]:
    A = np.zeros((0, n)) if A is None else np.atleast_2d(np.asarray(A, float))
    b = np.zeros(0) if b is None else np.atleast_1d(np.asarray(b, float))
    if A.shape != (b.shape[0], n):
        raise ValueError(
            f"{name} shape {A.shape} inconsistent with n={n}, rhs={b.shape}"
        )
    return A, b


def _record(results: Sequence[QPResult]) -> None:
    """``qp.status.<status>`` counters and the ``qp.iterations`` histogram."""
    tel = get_telemetry()
    if not tel.enabled:
        return
    for res in results:
        tel.count(f"qp.status.{res.status}")
        tel.observe("qp.iterations", res.iterations)


def solve_qp(
    H: np.ndarray,
    g: np.ndarray,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    warm_start: Optional[Sequence[int]] = None,
) -> QPResult:
    """Solve a dense convex QP (see module docstring for the form).

    Parameters are NumPy arrays; ``A_eq``/``A_ub`` may be ``None`` or
    empty.  Returns a :class:`QPResult`; check ``result.ok`` before using
    ``result.x``.  ``tol`` is the absolute violation below which a
    constraint counts as met.

    ``warm_start`` seeds the initial working set with inequality indices
    from a previous solve of a structurally similar problem (typically
    ``QPResult.active_set`` of the last control period).  The seed rows
    and the equalities are solved as one KKT system, rows with negative
    multipliers are dropped until that point is dual feasible, and the
    dual iteration continues from there.  When the optimal active set
    barely changes between periods — the common case for receding-horizon
    MPC — the solve ends after one or two KKT systems.  Out of range
    indices are ignored and an inconsistent seed is discarded; the
    result is the same optimum either way, only reached faster.
    """
    H = np.asarray(H, dtype=float)
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if H.shape != (n, n):
        raise ValueError(f"H must be {n}x{n}, got {H.shape}")
    H = 0.5 * (H + H.T)  # symmetrize against numerical asymmetry
    A_eq, b_eq = _dense(A_eq, b_eq, n, "A_eq")
    A_ub, b_ub = _dense(A_ub, b_ub, n, "A_ub")
    C = np.concatenate((A_eq, A_ub))
    b = np.concatenate((b_eq, b_ub))
    state = _DualActiveSet(
        g, C, b, A_eq.shape[0], tol, max_iter, _RowCurvature(H, C), warm_start
    )
    while state.result is None:
        rows, rhs = state.system()
        _advance(H, C, rows, [state], rhs)
    _record((state.result,))
    return state.result


def solve_qp_batch(
    H: np.ndarray,
    g_batch: np.ndarray,
    A_eq: Optional[np.ndarray] = None,
    b_eq_batch: Optional[np.ndarray] = None,
    A_ub: Optional[np.ndarray] = None,
    b_ub_batch: Optional[np.ndarray] = None,
    max_iter: int = 200,
    tol: float = 1e-8,
    warm_starts: Optional[Sequence[Optional[Sequence[int]]]] = None,
) -> List[QPResult]:
    """Solve B convex QPs sharing ``H``/``A_eq``/``A_ub`` in lock step.

    This is the batch form of :func:`solve_qp` for fleets of structurally
    identical controllers (same model horizon, same constraint geometry)
    whose per-period data differ only in the linear term ``g`` and the
    right-hand sides: ``g_batch`` is ``(B, n)``, ``b_eq_batch`` is
    ``(B, n_eq)``, ``b_ub_batch`` is ``(B, n_ub)``.

    Every problem runs the same dual iteration as :func:`solve_qp`.
    Each round groups the unfinished problems by the rows of the KKT
    system they ask for next; a group shares one KKT matrix, so each
    member's right-hand side — its working-set point, its trial step,
    or the step direction for its own violated row — is one column of a
    single multi-RHS ``np.linalg.solve``.  Every problem finishes in the
    batch, with the scalar solver's status and an allclose optimum.

    Equivalence: LAPACK's multi-RHS solve is *allclose* to, but not
    bit-identical with, a sequence of single-RHS solves — callers that
    pin golden hashes must stay on :func:`solve_qp`.
    """
    H = np.asarray(H, dtype=float)
    g_batch = np.atleast_2d(np.asarray(g_batch, dtype=float))
    B, n = g_batch.shape
    if H.shape != (n, n):
        raise ValueError(f"H must be {n}x{n}, got {H.shape}")
    H = 0.5 * (H + H.T)

    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    n_eq = A_eq.shape[0]
    n_ub = A_ub.shape[0]
    if b_eq_batch is None:
        b_eq_batch = np.zeros((B, n_eq))
    b_eq_batch = np.atleast_2d(np.asarray(b_eq_batch, dtype=float))
    if b_ub_batch is None:
        b_ub_batch = np.zeros((B, n_ub))
    b_ub_batch = np.atleast_2d(np.asarray(b_ub_batch, dtype=float))
    if b_eq_batch.shape != (B, n_eq):
        raise ValueError(
            f"b_eq_batch must be ({B}, {n_eq}), got {b_eq_batch.shape}"
        )
    if b_ub_batch.shape != (B, n_ub):
        raise ValueError(
            f"b_ub_batch must be ({B}, {n_ub}), got {b_ub_batch.shape}"
        )
    if warm_starts is not None and len(warm_starts) != B:
        raise ValueError(f"warm_starts must have length {B}, got {len(warm_starts)}")

    C = np.concatenate((A_eq, A_ub))
    b_batch = np.concatenate((b_eq_batch, b_ub_batch), axis=1)
    curvature = _RowCurvature(H, C)
    states = [
        _DualActiveSet(
            g_batch[i], C, b_batch[i], n_eq, tol, max_iter, curvature,
            warm_starts[i] if warm_starts is not None else None,
        )
        for i in range(B)
    ]
    pending = states
    while pending:
        groups: dict = {}
        for state in pending:
            rows, rhs = state.system()
            groups.setdefault(tuple(rows), []).append((state, rhs))
        for rows, members in groups.items():
            rhs = np.empty((n + len(rows), len(members)))
            for col, (_, column) in enumerate(members):
                rhs[:, col] = column
            _advance(H, C, list(rows), [state for state, _ in members], rhs)
        pending = [state for state in pending if state.result is None]
    results = [state.result for state in states]
    _record(results)
    return results  # type: ignore[return-value]
