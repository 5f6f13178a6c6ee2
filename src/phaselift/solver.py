"""min Tr X s.t. ||A(X) - b||_2 <= eps, X >= 0, by Newton root finding on the Pareto curve
phi(tau) = min ||A(X) - b|| over {X >= 0, Tr X <= tau} (van den Berg & Friedlander, "Probing
the Pareto frontier", SIAM J. Sci. Comput. 2008).  Each probe is accelerated projected gradient
(FISTA with adaptive restart) for 0.5 * ||A(X) - b||^2 on the spectraplex {X >= 0, Tr X = tau}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import DTYPES, _checked, as_hermitian, field_of
from .measurement import (
    IntensityData,
    SensingEnsemble,
    _forward_factor,
    apply_adjoint,
    apply_measurement,
)

#: The eps a noiseless (eps = 0) solve aims at, relative to ||b||.
NOISELESS_EPS_REL = 1e-5
#: Newton aims at phi = (1 - EPS_REL_TOL) * eps and stops if a probe gains < EPS_REL_TOL * eps.
EPS_REL_TOL = 1e-3
#: A probe whose tau was set from residual phi may stop, unconverged, on a duality gap of at most
#: SLACK_REL * eps * (phi - eps) while its residual is above eps (van den Berg & Friedlander 2008).
SLACK_REL = 0.1
#: FISTA stops once ||X_new - X|| <= STEP_REL_TOL * ||X_new||.
STEP_REL_TOL = 3e-9
#: FISTA also stops on duality gap <= GAP_REL_TOL * ||r||^2, a gap it takes every GAP_EVERY
#: iterations but only after a step ||X_new - X|| <= GAP_REL_TOL * ||X_new||.
GAP_REL_TOL, GAP_EVERY = 1e-5, 10
#: Default cap on FISTA iterations per probe.
MAX_ITERS = 5000
#: The first step tries STEP_START/L; the curvature on trace-zero X (a probe's steps) is ~L/4.
STEP_START = 3.5
#: Each FISTA step first tries STEP_GROW times the last accepted step.
STEP_GROW = 1.25
# A warm capped prox works in [Q, VQ, ..., V^_KRYLOV_STEPS Q], Q = [basis, _KRYLOV_EXTRA columns].
_KRYLOV_EXTRA, _KRYLOV_STEPS = 4, 3


@dataclass
class SolveReport:
    X_hat: np.ndarray
    iterations: int
    residual: float
    lambda_used: float
    converged: bool


def prox_psd_trace(V: np.ndarray, cap: float, basis=None):
    """Projection onto the spectraplex {X >= 0, Tr X = cap}: the eigenvalues w go onto the simplex
    {w >= 0, sum w = cap} as max(w - theta, 0), theta of either sign.  Returns (X, F), F the
    n x rank factor with X = F F* up to round-off.  A basis (of V's field) that `_krylov_fits`
    uses the Ritz pairs of V on [Q, VQ, ..., V^_KRYLOV_STEPS Q], Q = [basis, _KRYLOV_EXTRA
    columns cos(i j)], not a full `eigh`: X is exact if they span V's eigenvectors above theta,
    and is retaken by `eigh` if its rank passes rank(basis) + _KRYLOV_EXTRA / 2."""
    if not 0 <= cap < np.inf:
        raise ValueError("cap must be finite and nonnegative")
    V, w = as_hermitian(V), None
    if basis is not None:
        basis = _checked(np.asarray(basis), field_of(V), "basis")
    if _krylov_fits(basis, len(V)):
        Q = [np.hstack([basis, np.cos(np.outer(range(len(V)), range(1, _KRYLOV_EXTRA + 1)))])]
        for _ in range(_KRYLOV_STEPS):  # unit (or zero) columns: no power over- or underflows
            Q[-1] = Q[-1] / np.maximum(np.linalg.norm(Q[-1], axis=0), np.finfo(float).tiny)
            Q.append(V @ Q[-1])
        Q = np.linalg.qr(np.hstack(Q))[0]
        w, U = np.linalg.eigh(Q.conj().T @ V @ Q)
        w, U = _simplex(w, cap), Q @ U
        if np.count_nonzero(w) > basis.shape[1] + _KRYLOV_EXTRA / 2:
            w = None
    if w is None:
        w, U = np.linalg.eigh(V)  # sign convention irrelevant: only U w U* is used
        w = _simplex(w, cap)
    pos = w > 0
    U, w = U[:, pos], w[pos]
    X = (U * w) @ U.conj().T
    X = (X + X.conj().T) / 2
    return X, U * np.sqrt(w)


def _simplex(w, cap):
    """Ascending eigenvalues w projected onto the simplex {w >= 0, sum w = cap}."""
    u = w[::-1]
    excess = (np.cumsum(u) - cap) / np.arange(1, u.size + 1)
    w = np.maximum(w - excess[np.nonzero(u >= excess)[0][-1]], 0.0)
    return w * (cap / max(w.sum(), np.finfo(float).tiny))  # undo the round-off of theta - u


def _krylov_fits(basis, n):
    """Whether a basis spans a Krylov space at most n / 2 wide."""
    return basis is not None and (_KRYLOV_STEPS + 1) * (basis.shape[1] + _KRYLOV_EXTRA) <= n / 2


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
    tau: float,
    X0: np.ndarray | None = None,
    max_iters: int = MAX_ITERS,
    *,
    eps: float = 0.0,
    slack: float = 0.0,
) -> SolveReport:
    """One Pareto probe: FISTA with adaptive restart for 0.5 * ||A(X) - b||^2 on the spectraplex
    {X >= 0, Tr X = tau}, from X0 rescaled to trace tau (no X0: tau I / n).

    Each iterate carries its residual r = A(X) - b and gradient G = A*(r).  Only the start
    pays a dense forward map: a step maps the prox's factor forward (`_forward_factor`) and
    takes one adjoint, and the extrapolated point's residual and gradient follow by linearity.
    The first step tries STEP_START/L, each later one STEP_GROW times the last accepted step,
    and backtracks as `_fista_step` says, which also restarts the momentum on its gradient test.
    The probe carries no objective, and a non-finite ||r||^2 raises.  The probe stops,
    converged, on a step of at most STEP_REL_TOL * ||X_new|| through an exact prox (a Krylov
    prox's short step only drops the factor, so the next prox is a full `eigh`) or on a
    `_duality_gap` of at most GAP_REL_TOL * ||r||^2 after a step of at most GAP_REL_TOL *
    ||X_new||, else unconverged at max_iters.  lambda_used is the multiplier of the
    `_duality_gap` at the last iterate.

    An inexact Newton probe (`solve_constrained`) passes a slack > 0: while ||r|| > eps, the gap
    is also taken every GAP_EVERY iterations after any step, and a gap <= slack stops the probe,
    unconverged.  Once ||r|| <= eps the slack is 0 for the rest of the probe, which finishes on
    the stop above.  The gap checks leave the iterates alone, so a probe that ends with
    ||r|| <= eps returns what it returns without a slack, bit for bit."""
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be finite and nonnegative")
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (ens.m,):
        raise ValueError("data length does not match ensemble")
    step_min = 1.0 / estimate_lipschitz(ens)
    step = trial = STEP_START * step_min

    X = np.zeros((ens.n, ens.n), DTYPES[ens.field]) if X0 is None else as_hermitian(X0, ens.field)
    tr = np.trace(X).real  # start on the spectraplex, so that every step is trace-zero
    X = X * (tau / tr) if tr > 0 else np.eye(ens.n, dtype=X.dtype) * (tau / ens.n)
    r = apply_measurement(ens, X) - b
    cur = prev = (X, r, apply_adjoint(ens, r), None)  # no factor yet: the first prox is exact
    t = 1.0
    for iters in range(1, max_iters + 1):
        X_new, r_new, s, t, F = _fista_step(ens, b, tau, cur, prev, t, step, trial, step_min)
        if not np.isfinite(float(r_new @ r_new)):
            raise RuntimeError("objective is not finite: inf/NaN or overflow in the data")
        dx, xn = np.linalg.norm(X_new - cur[0]), np.linalg.norm(X_new)
        short, small = dx <= STEP_REL_TOL * xn, dx <= GAP_REL_TOL * xn
        if short and _krylov_fits(cur[3], ens.n):
            # a Krylov prox may stall short of the fixed point: the next prox is exact
            short, F = False, None
        prev, cur = cur, (X_new, r_new, apply_adjoint(ens, r_new), F)
        step, trial = s, STEP_GROW * s
        if slack > 0 and float(np.linalg.norm(r_new)) <= eps:
            slack = 0.0  # within the budget: this probe may answer, so it finishes exactly
        if short or iters == max_iters or ((small or slack > 0) and iters % GAP_EVERY == 0):
            gap, lambda_used = _duality_gap(cur)
            # the gap certifies the objective, and a small step that X has settled
            converged = short or (small and gap <= GAP_REL_TOL * float(r_new @ r_new))
            if converged or iters == max_iters or gap <= slack:
                res = float(np.linalg.norm(r_new))
                return SolveReport(X_new, iters, res, lambda_used, bool(converged))


def _fista_step(ens, b, tau, cur, prev, t, step, trial, step_min):
    """One FISTA step with backtracking (Scheinberg, Goldfarb & Bai 2014) from the iterate
    cur = (X, r, G, F) and the one before it, prev; step is the last accepted step, and t = 1
    (a probe's start, or a restart) takes no momentum.  Each try at s (first `trial`, then
    halved, never below step_min) sets t_new = (1 + sqrt(1 + 4 (step / s) t^2)) / 2 and
    Y = X + (t - 1) / t_new (X - X_prev), whose residual rY and gradient GY follow by
    linearity, until ||A(X_new - Y)||^2 <= ||X_new - Y||^2 / s (Beck & Teboulle 2009); that
    A(X_new - Y) is r_new - rY.  The prox takes X's factor F (None: exact) as its basis.
    Returns X_new, its residual, s, the next step's t and X_new's factor; that t is 1 (a
    restart) when Re <Y - X_new, X_new - X> > 0, the gradient test of O'Donoghue & Candes
    (2015), which needs no objective and is blind to the data's scale, else t_new."""
    (X, r, G, F), (Xp, rp, Gp, _) = cur, prev
    s = trial
    while True:
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * (step / s) * t * t)) / 2.0
        beta = (t - 1.0) / t_new
        Y, rY, GY = X + beta * (X - Xp), r + beta * (r - rp), G + beta * (G - Gp)
        X_new, F_new = prox_psd_trace(Y - s * GY, tau, basis=F)
        r_new = _forward_factor(ens, F_new) - b
        d = r_new - rY
        if s <= step_min or s * float(d @ d) <= np.linalg.norm(X_new - Y) ** 2:
            restart = np.vdot(Y - X_new, X_new - X).real > 0  # the gradient test
            return X_new, r_new, s, 1.0 if restart else t_new, F_new
        s = max(s / 2, step_min)


def _duality_gap(cur):
    """Frank-Wolfe gap over the spectraplex {X >= 0, Tr X = tau} of the iterate cur = (X, r, G, F),
    which bounds the objective's excess over its minimum, and the trace multiplier max(0, mu),
    where mu = lambda_max(-G) = lambda_max(A*(-r)) may be negative.

    The gap <G, X> + tau mu = <G + mu I, X> is summed as sum_i (mu - w_i) u_i* X u_i over the
    eigenpairs (w_i, u_i) of -G: terms >= 0 for X >= 0, where <A*(r), X> + tau mu would cancel
    to a round-off of ||r|| ||A(X)||, far above the gap when the cap puts A(X) far from b."""
    X, _, G, _ = cur
    w, U = np.linalg.eigh(-G)
    mu = float(w[-1])
    d = np.einsum("ij,ij->j", U.conj(), X @ U).real  # u_i* X u_i, up to round-off
    return float((mu - w) @ np.maximum(d, 0.0)), max(0.0, mu)


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
    -lambda / phi, meets (1 - EPS_REL_TOL) * eps; phi is convex, so from exact probes
    tau never overshoots.  A probe whose residual is above eps only sets the next tau,
    so it may stop, unconverged, on a duality gap of at most SLACK_REL * eps * (phi -
    eps), phi the residual that set its tau (the inexact Newton steps of van den Berg
    & Friedlander; Aravkin et al., Math. Program. 2019).  Its residual and multiplier
    are those of an iterate, so the next tau can pass the root by a little.  Once a
    probe's residual reaches eps it drops that slack and finishes to the full stop.
    The first probe with residual <= eps is returned, converged if its stop rule was
    met; a probe with multiplier 0 or a gain in phi below EPS_REL_TOL * eps ends the
    search, and one with residual > eps is not converged.
    """
    e = int(np.frexp(np.max(np.abs(data.b), initial=0.0))[1]) - 1
    b = np.ldexp(np.asarray(data.b, dtype=np.float64), -e)
    b_norm = float(np.linalg.norm(b))
    eps = float(np.ldexp(data.eps, -e)) or NOISELESS_EPS_REL * b_norm

    zero = np.zeros((ens.n, ens.n), DTYPES[ens.field])
    _, lam = _duality_gap((zero, -b, apply_adjoint(ens, -b), None))  # Newton's first slope
    rep = SolveReport(zero, 0, b_norm, lam, converged=True)
    tau, total_iters = 0.0, 0
    while rep.residual > eps and rep.lambda_used > 0.0:  # at the start, X = 0 may already do
        phi = rep.residual
        tau += (phi - eps * (1.0 - EPS_REL_TOL)) * phi / rep.lambda_used
        slack = SLACK_REL * eps * (phi - eps)
        rep = solve_regularized(
            ens, b, tau, X0=rep.X_hat, max_iters=max_iters, eps=eps, slack=slack
        )
        total_iters += rep.iterations
        if phi - rep.residual < EPS_REL_TOL * eps:
            break
    scale, ok = 2.0**e, rep.converged and rep.residual <= eps
    return SolveReport(
        rep.X_hat * scale, total_iters, rep.residual * scale, rep.lambda_used * scale, ok
    )
