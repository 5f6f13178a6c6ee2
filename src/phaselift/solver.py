"""Trace-regularized least squares over the PSD cone.

Accelerated proximal gradient (with adaptive restart) for

    minimize  0.5 * ||A(X) - b||^2 + lam * Tr(X)   s.t.  X >= 0  (or Tr X = tau),

plus Newton root finding on the Pareto curve phi(tau) = min ||A(X) - b|| over
{X >= 0, Tr X <= tau} for min Tr X s.t. ||A(X) - b||_2 <= eps (van den Berg &
Friedlander, "Probing the Pareto frontier", SIAM J. Sci. Comput. 2008).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import DTYPES, as_hermitian
from .measurement import IntensityData, SensingEnsemble, apply_adjoint, apply_measurement

#: The eps a noiseless (eps = 0) solve aims at, relative to ||b||.
NOISELESS_EPS_REL = 1e-5
#: Newton aims at phi = (1 - EPS_REL_TOL) * eps and stops if a probe gains < EPS_REL_TOL * eps.
EPS_REL_TOL = 1e-3
#: FISTA stops once ||X_new - X|| <= STEP_REL_TOL * ||X_new||.
STEP_REL_TOL = 1e-8
#: Under a finite trace cap FISTA also stops on duality gap <= GAP_REL_TOL * ||r||^2.
GAP_REL_TOL, GAP_EVERY = 1e-4, 10
#: Default cap on FISTA iterations per regularized solve (per probe).
MAX_ITERS = 5000
#: Under a finite trace cap the step starts at STEP_START/L; the curvature on trace-zero X is ~L/4.
STEP_START = 3.5


@dataclass
class SolveReport:
    X_hat: np.ndarray
    iterations: int
    residual: float = 0.0
    lambda_used: float = 0.0
    converged: bool = False


def prox_psd_trace(V: np.ndarray, shift: float, cap: float = np.inf) -> np.ndarray:
    """Prox of shift*Tr(.) over X >= 0: shrink eigenvalues by shift and clip at 0.  A finite cap
    projects onto the spectraplex {X >= 0, Tr X = cap} instead, the eigenvalues onto the simplex
    {w >= 0, sum w = cap} by a theta that may be negative; Tr X is fixed, so shift is irrelevant."""
    if shift < 0 or not cap >= 0:
        raise ValueError("shift and cap must be nonnegative")
    V = as_hermitian(V)
    w, U = np.linalg.eigh(V)  # sign convention irrelevant: only U w U* is used
    if cap < np.inf:
        u = w[::-1]  # eigh's order is ascending
        excess = (np.cumsum(u) - cap) / np.arange(1, u.size + 1)
        w = np.maximum(w - excess[np.nonzero(u >= excess)[0][-1]], 0.0)
        w *= cap / max(w.sum(), np.finfo(float).tiny)  # undo the round-off of theta - u
    else:
        w = np.maximum(w - shift, 0.0)
    pos = w > 0
    U = U[:, pos]
    X = (U * w[pos]) @ U.conj().T
    return (X + X.conj().T) / 2


def estimate_lipschitz(ens: SensingEnsemble) -> float:
    """Upper bound on the operator norm L of X -> A*(A(X)), from two round trips.

    L = lambda_max(G) for the Gram matrix G_ij = |<z_i, z_j>|^2 >= 0, and
    G y = A(A*(y)).  With v = G 1 (so v_i >= ||z_i||^4), the Collatz-Wielandt
    inequality gives lambda_max(G) <= max_i (G v)_i / v_i.  A zero z_i is a
    zero row and column of G, so rows with v_i = 0 are skipped.
    """
    v = apply_measurement(ens, apply_adjoint(ens, np.ones(ens.m)))
    pos = v > 0
    if not np.any(pos):
        raise ValueError("every sensing vector is zero, so A*A has norm 0 and no step size")
    Gv = apply_measurement(ens, apply_adjoint(ens, v))
    return float(np.max(Gv[pos] / v[pos]))


def solve_regularized(
    ens: SensingEnsemble,
    b: np.ndarray,
    lam: float,
    X0: np.ndarray | None = None,
    max_iters: int = MAX_ITERS,
    tau: float = np.inf,
) -> SolveReport:
    """FISTA with adaptive restart for the trace-regularized problem, or on the spectraplex
    {X >= 0, Tr X = tau} for a finite tau.

    The residuals r = A(X) - b and rY = A(Y) - b travel with the iterates;
    rY follows from r by linearity, so each prox step costs one forward map.
    The lambda form steps 1/L.  A finite tau rescales X0 to trace tau (no X0: tau I / n),
    starts at STEP_START/L and backtracks (see `_prox_step`), and adds the `_duality_gap`
    stop, checked every GAP_EVERY iterations, on the step rule from the first check on,
    and at max_iters; lambda_used is then its multiplier.
    """
    if lam < 0 or not tau >= 0:
        raise ValueError("lambda and tau must be nonnegative")
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (ens.m,):
        raise ValueError("data length does not match ensemble")
    step_min = 1.0 / estimate_lipschitz(ens)
    step = step_min if tau == np.inf else STEP_START * step_min

    X = np.zeros((ens.n, ens.n), DTYPES[ens.field]) if X0 is None else as_hermitian(X0, ens.field)
    if tau < np.inf:  # start on the spectraplex, so that every step is trace-zero
        tr = np.trace(X).real
        X = X * (tau / tr) if tr > 0 else np.eye(ens.n, dtype=X.dtype) * (tau / ens.n)
    r = apply_measurement(ens, X) - b
    obj = 0.5 * float(r @ r) + lam * float(np.trace(X).real)
    Y, rY = X, r
    t = 1.0
    lam_used = lam
    for iters in range(1, max_iters + 1):
        X_new, r_new, obj_new, step = _prox_step(ens, b, lam, tau, Y, rY, step, step_min)
        if not np.isfinite(obj_new):
            raise RuntimeError("objective is not finite: inf/NaN or overflow in the data")
        if obj_new > obj:
            # kill momentum and retake the step from the last iterate
            t = 1.0
            X_new, r_new, obj_new, step = _prox_step(ens, b, lam, tau, X, r, step, step_min)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_new
        dX = X_new - X
        Y = X_new + beta * dX
        rY = r_new + beta * (r_new - r)
        step_small = np.linalg.norm(dX) <= STEP_REL_TOL * np.linalg.norm(X_new)
        X, r, t, obj = X_new, r_new, t_new, obj_new
        if tau < np.inf and (step_small or iters % GAP_EVERY == 0 or iters == max_iters):
            gap, lam_used = _duality_gap(ens, b, r, lam, tau)
            # a warm start can stall for an iteration or two before it moves
            step_small = (step_small and iters >= GAP_EVERY) or gap <= GAP_REL_TOL * float(r @ r)
        if step_small:
            break
    return SolveReport(X, iters, float(np.linalg.norm(r)), float(lam_used), converged=step_small)


def _prox_step(ens, b, lam, tau, V, rV, step, step_min):
    """Prox-gradient step from V, whose residual is rV; returns X, its residual, objective and
    the step taken.  A step above step_min = 1/L is halved, never below step_min, until
    ||A(X) - A(V)||^2 <= ||X - V||^2 / step (Beck & Teboulle 2009); r - rV is that A(X - V)."""
    G = apply_adjoint(ens, rV)
    while True:
        X = prox_psd_trace(V - step * G, step * lam, tau)
        r = apply_measurement(ens, X) - b
        if step <= step_min or step * float((r - rV) @ (r - rV)) <= np.linalg.norm(X - V) ** 2:
            return X, r, 0.5 * float(r @ r) + lam * float(np.trace(X).real), step
        step = max(step / 2, step_min)


def _duality_gap(ens, b, r, lam, tau):
    """Frank-Wolfe gap over the spectraplex {X >= 0, Tr X = tau} of the X whose residual is r,
    which bounds the objective's excess over its minimum, and the lambda-form multiplier
    max(lam, mu), where mu = lambda_max(A*(-r)) may be negative."""
    mu = float(np.linalg.eigvalsh(apply_adjoint(ens, -r))[-1])
    return float(r @ (r + b)) + tau * mu, max(lam, mu)


def zero_solution_lambda(ens: SensingEnsemble, b: np.ndarray) -> float:
    """Smallest lambda at which X = 0 solves the regularized problem.

    First-order optimality of 0 over the PSD cone reduces to
    lam >= lambda_max(A*(b)).
    """
    w = np.linalg.eigvalsh(apply_adjoint(ens, np.asarray(b, dtype=np.float64)))
    return max(float(w[-1]), 0.0)


def solve_constrained(
    ens: SensingEnsemble,
    data: IntensityData,
    max_iters: int = MAX_ITERS,
) -> SolveReport:
    """Solve min Tr X s.t. ||A(X) - b|| <= eps, X >= 0, by Newton steps on the Pareto curve.

    Noiseless data (eps = 0) aims at eps = NOISELESS_EPS_REL * ||b||.  (b, eps) is
    first scaled by the power of two that puts max |b_i| in [1, 2), which is exact,
    and X_hat, the residual and lambda are scaled back, so the solve is scale-free.
    From tau = 0, each warm-started probe sits where the tangent of phi, of slope
    -lambda / phi, meets (1 - EPS_REL_TOL) * eps; phi is convex, so tau never
    overshoots.  The first probe with residual <= eps is returned, converged if
    its stop rule was met; a probe with multiplier 0 or a gain in phi below
    EPS_REL_TOL * eps ends the search, and one with residual > eps is not converged.
    """
    e = int(np.frexp(np.max(np.abs(data.b), initial=0.0))[1]) - 1
    b = np.ldexp(np.asarray(data.b, dtype=np.float64), -e)
    b_norm = float(np.linalg.norm(b))
    eps = float(np.ldexp(data.eps, -e)) or NOISELESS_EPS_REL * b_norm

    zero = np.zeros((ens.n, ens.n), DTYPES[ens.field])
    rep = SolveReport(zero, 0, b_norm, zero_solution_lambda(ens, b), converged=True)
    tau, total_iters = 0.0, 0
    while rep.residual > eps and rep.lambda_used > 0.0:  # at the start, X = 0 may already do
        phi = rep.residual
        tau += (phi - eps * (1.0 - EPS_REL_TOL)) * phi / rep.lambda_used
        rep = solve_regularized(ens, b, 0.0, X0=rep.X_hat, max_iters=max_iters, tau=tau)
        total_iters += rep.iterations
        if phi - rep.residual < EPS_REL_TOL * eps:
            break
    rep.iterations = total_iters
    rep.converged = rep.converged and rep.residual <= eps
    scale = 2.0**e
    rep.X_hat, rep.residual = rep.X_hat * scale, rep.residual * scale
    rep.lambda_used *= scale
    return rep
