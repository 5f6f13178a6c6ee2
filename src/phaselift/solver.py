"""Trace-regularized least squares over the PSD cone.

Accelerated proximal gradient (with adaptive restart) for

    minimize  0.5 * ||A(X) - b||^2 + lam * Tr(X)   s.t.  X >= 0,  Tr(X) <= tau,

plus Newton root finding on the Pareto curve phi(tau) = min ||A(X) - b|| over
{X >= 0, Tr X <= tau} for min Tr X s.t. ||A(X) - b||_2 <= eps (van den Berg &
Friedlander, "Probing the Pareto frontier", SIAM J. Sci. Comput. 2008).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import DTYPES, as_hermitian
from .measurement import IntensityData, SensingEnsemble, apply_adjoint, apply_measurement

#: Residual a noiseless (eps = 0) solve must reach, relative to ||b||, to count as converged.
NOISELESS_EPS_REL = 1e-5
#: Newton aims at phi = (1 - EPS_REL_TOL) * eps and stops if a probe gains < EPS_REL_TOL * eps.
EPS_REL_TOL = 1e-3
#: FISTA stops once ||X_new - X|| <= STEP_REL_TOL * ||X_new||.
STEP_REL_TOL = 1e-8
#: Under a finite trace cap FISTA also stops on duality gap <= GAP_REL_TOL * ||r||^2.
GAP_REL_TOL, GAP_EVERY = 1e-4, 10
#: Default cap on FISTA iterations per regularized solve (per probe).
MAX_ITERS = 5000


@dataclass
class SolveReport:
    X_hat: np.ndarray
    iterations: int
    residual: float = 0.0
    lambda_used: float = 0.0
    converged: bool = False


def prox_psd_trace(V: np.ndarray, shift: float, cap: float = np.inf) -> np.ndarray:
    """Prox of shift*Tr(.) over {X >= 0, Tr X <= cap}: shrink eigenvalues by shift, clip
    at 0, and past cap shift them by the theta of the simplex projection {w >= 0, sum w = cap}."""
    if shift < 0 or not cap >= 0:
        raise ValueError("shift and cap must be nonnegative")
    V = as_hermitian(V)
    w, U = np.linalg.eigh(V)  # sign convention irrelevant: only U w U* is used
    w = np.maximum(w - shift, 0.0)
    if w.sum() > cap:
        u = w[::-1]  # eigh's ascending order survives the shift and the clip
        excess = (np.cumsum(u) - cap) / np.arange(1, u.size + 1)
        w = np.maximum(w - excess[np.nonzero(u >= excess)[0][-1]], 0.0)
        w *= cap / max(w.sum(), np.finfo(float).tiny)  # undo the round-off of theta - u
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
    """FISTA with adaptive restart for the trace-regularized problem, Tr X capped at tau.

    The residuals r = A(X) - b and rY = A(Y) - b travel with the iterates;
    rY follows from r by linearity, so each prox step costs one forward map.
    A finite tau adds the `_duality_gap` stop, checked every GAP_EVERY iterations,
    on the step rule and at max_iters; lambda_used is then its multiplier.
    """
    if lam < 0 or not tau >= 0:
        raise ValueError("lambda and tau must be nonnegative")
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (ens.m,):
        raise ValueError("data length does not match ensemble")
    step = 1.0 / estimate_lipschitz(ens)

    def evaluate(X):
        r = apply_measurement(ens, X) - b
        return X, r, 0.5 * float(r @ r) + lam * float(np.trace(X).real)

    def prox_step(V, rV):
        return evaluate(prox_psd_trace(V - step * apply_adjoint(ens, rV), step * lam, tau))

    X, r, obj = evaluate(
        np.zeros((ens.n, ens.n), DTYPES[ens.field]) if X0 is None else as_hermitian(X0, ens.field)
    )
    Y, rY = X, r
    t = 1.0
    converged = False
    iters = 0
    lam_used = lam
    for k in range(max_iters):
        iters = k + 1
        X_new, r_new, obj_new = prox_step(Y, rY)
        if not np.isfinite(obj_new):
            raise RuntimeError("objective is not finite: inf/NaN or overflow in the data")
        if obj_new > obj:
            # kill momentum and retake the step from the last iterate
            t = 1.0
            X_new, r_new, obj_new = prox_step(X, r)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_new
        dX = X_new - X
        Y = X_new + beta * dX
        rY = r_new + beta * (r_new - r)
        step_small = np.linalg.norm(dX) <= STEP_REL_TOL * np.linalg.norm(X_new)
        X, r, t, obj = X_new, r_new, t_new, obj_new
        if tau < np.inf and (step_small or iters % GAP_EVERY == 0 or iters == max_iters):
            gap, lam_used = _duality_gap(ens, b, X, r, lam, tau)
            step_small = step_small or gap <= GAP_REL_TOL * float(r @ r)
        if step_small:
            converged = True
            break
    return SolveReport(
        X_hat=X,
        iterations=iters,
        residual=float(np.linalg.norm(r)),
        lambda_used=float(lam_used),
        converged=converged,
    )


def _duality_gap(ens, b, X, r, lam, tau):
    """Frank-Wolfe gap of X over {X >= 0, Tr X <= tau}, which bounds the objective's excess
    over its minimum, and the lambda-form multiplier max(lam, lambda_max(A*(-r))) (>= 0)."""
    mu = zero_solution_lambda(ens, -r)
    gap = float(r @ (r + b)) + lam * float(np.trace(X).real) + tau * max(0.0, mu - lam)
    return gap, max(lam, mu)


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

    From tau = 0, each warm-started probe sits where the tangent of phi, of slope
    -lambda / phi, meets (1 - EPS_REL_TOL) * eps; phi is convex, so tau never
    overshoots.  The first probe with residual <= eps is returned, converged if
    its stop rule was met; a probe with multiplier 0 or a gain in phi below
    EPS_REL_TOL * eps comes back with converged=False.  Noiseless data (eps = 0)
    is one lambda-form probe at 1e-8 * lambda_max(A*(b)), converged when FISTA's
    step rule was met and the residual is at most NOISELESS_EPS_REL * ||b||.
    """
    b = np.asarray(data.b, dtype=np.float64)
    b_norm = float(np.linalg.norm(b))
    eps = float(data.eps) or NOISELESS_EPS_REL * b_norm  # the floor is for noiseless data

    lam_hi = zero_solution_lambda(ens, b)
    if b_norm <= eps or lam_hi == 0.0:
        # X = 0 is feasible (or optimal for every lambda)
        return SolveReport(
            X_hat=np.zeros((ens.n, ens.n), DTYPES[ens.field]),
            iterations=0,
            residual=b_norm,
            lambda_used=lam_hi,
            converged=True,
        )
    if data.eps == 0:
        rep = solve_regularized(ens, b, lam_hi * 1e-8, max_iters=max_iters)
    else:
        tau, phi, lam, warm, total_iters = 0.0, b_norm, lam_hi, None, 0
        while True:
            tau += (phi - eps * (1.0 - EPS_REL_TOL)) * phi / lam
            rep = solve_regularized(ens, b, 0.0, X0=warm, max_iters=max_iters, tau=tau)
            total_iters += rep.iterations
            stalled = rep.lambda_used == 0.0 or phi - rep.residual < EPS_REL_TOL * eps
            if rep.residual <= eps or stalled:
                break
            phi, lam, warm = rep.residual, rep.lambda_used, rep.X_hat
        rep.iterations = total_iters
    rep.converged = rep.converged and rep.residual <= eps
    return rep
