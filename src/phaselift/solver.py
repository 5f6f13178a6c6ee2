"""Trace-regularized least squares over the PSD cone.

Accelerated proximal gradient (with adaptive restart) for

    minimize  0.5 * ||A(X) - b||^2 + lam * Tr(X)   s.t.  X >= 0,

plus a bisection wrapper that finds the largest lam whose solution
satisfies the residual constraint ||A(X) - b||_2 <= eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermitian import DTYPES, as_hermitian
from .measurement import IntensityData, SensingEnsemble, apply_adjoint, apply_measurement

#: Residual a noiseless (eps = 0) solve must reach, relative to ||b||, to count as converged.
NOISELESS_EPS_REL = 1e-5
#: Relative width of the final lambda bracket in the bisection.
LAMBDA_REL_TOL = 1e-3
#: FISTA stops once ||X_new - X|| <= STEP_REL_TOL * max(1, ||X_new||).
STEP_REL_TOL = 1e-8
#: Default cap on FISTA iterations per regularized solve (per probe).
MAX_ITERS = 5000


@dataclass
class SolveReport:
    X_hat: np.ndarray
    iterations: int
    objective_trace: list[float] = field(repr=False, default_factory=list)
    residual: float = 0.0
    lambda_used: float = 0.0
    converged: bool = False


def prox_psd_trace(V: np.ndarray, tau: float) -> np.ndarray:
    """Prox of tau*Tr(.) restricted to the PSD cone: shrink eigenvalues by tau, clip at 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    V = as_hermitian(V)
    w, U = np.linalg.eigh(V)  # sign convention irrelevant: only U w U* is used
    w = np.maximum(w - tau, 0.0)
    pos = w > 0
    if not np.any(pos):
        return np.zeros_like(V)
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
) -> SolveReport:
    """FISTA with adaptive restart for the trace-regularized problem.

    The residuals r = A(X) - b and rY = A(Y) - b travel with the iterates;
    rY follows from r by linearity, so each prox step costs one forward map.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
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
        return evaluate(prox_psd_trace(V - step * apply_adjoint(ens, rV), step * lam))

    X, r, obj = evaluate(
        np.zeros((ens.n, ens.n), DTYPES[ens.field]) if X0 is None else as_hermitian(X0, ens.field)
    )
    Y, rY = X, r
    t = 1.0
    trace = [obj]
    converged = False
    iters = 0
    for k in range(max_iters):
        iters = k + 1
        X_new, r_new, obj_new = prox_step(Y, rY)
        if not np.isfinite(obj_new):
            raise RuntimeError("objective is not finite: inf/NaN or overflow in the data")
        if obj_new > obj:
            # kill momentum and retake the step from the last iterate
            t = 1.0
            X_new, r_new, obj_new = prox_step(X, r)
        trace.append(obj_new)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_new
        dX = X_new - X
        Y = X_new + beta * dX
        rY = r_new + beta * (r_new - r)
        step_small = np.linalg.norm(dX) <= STEP_REL_TOL * max(1.0, np.linalg.norm(X_new))
        X, r, t, obj = X_new, r_new, t_new, obj_new
        if step_small:
            converged = True
            break
    return SolveReport(
        X_hat=X,
        iterations=iters,
        objective_trace=trace,
        residual=float(np.linalg.norm(r)),
        lambda_used=float(lam),
        converged=converged,
    )


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
    """Solve the residual-constrained problem by bisection on lambda.

    Finds the largest lambda whose regularized solution has residual at
    most eps (warm-starting each probe).  Noiseless data (eps = 0) is
    solved by the first, smallest-lambda probe alone; it counts as
    converged when FISTA's step rule was met and the residual is at most
    NOISELESS_EPS_REL * ||b||.  If even the smallest probed lambda cannot
    meet eps, the minimal-residual iterate is returned with
    converged=False.
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
            objective_trace=[0.5 * b_norm**2],
            residual=b_norm,
            lambda_used=lam_hi,
            converged=True,
        )

    lo = lam_hi * 1e-8
    rep = solve_regularized(ens, b, lo, max_iters=max_iters)
    if rep.residual > eps or data.eps == 0:
        # eps is infeasibly small for this data, or the data is noiseless
        rep.converged = rep.converged and rep.residual <= eps
        return rep

    # each probe halves log(hi / lo) from ln(1e8), so the loop ends after 15 probes
    rep_lo, hi = rep, lam_hi
    total_iters = rep.iterations
    warm = rep.X_hat
    while hi / lo > 1.0 + LAMBDA_REL_TOL:
        mid = np.sqrt(lo * hi)
        rep_mid = solve_regularized(ens, b, mid, X0=warm, max_iters=max_iters)
        total_iters += rep_mid.iterations
        warm = rep_mid.X_hat
        if rep_mid.residual <= eps:
            lo, rep_lo = mid, rep_mid
        else:
            hi = mid
    rep_lo.iterations = total_iters
    return rep_lo
