from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phaselift.measurement import (
    MODELS,
    IntensityData,
    SensingEnsemble,
    add_noise,
    apply_adjoint,
    apply_measurement,
    intensities,
    sample_ensemble,
)
from phaselift.recovery import rel_mse, recover
from phaselift.solver import (
    GAP_REL_TOL,
    NOISELESS_EPS_REL,
    STEP_REL_TOL,
    estimate_lipschitz,
    prox_psd_trace,
    solve_constrained,
    solve_regularized,
)

from oracles import capped_prox, gram_lambda_max, plain_proximal_gradient, random_hermitian


def _count_probes(monkeypatch):
    """Record every solve_regularized call made through the solver module."""
    import phaselift.solver as solver

    probes = []
    original = solver.solve_regularized

    def counted(*args, **kwargs):
        probes.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_regularized", counted)
    return probes


def _sgb(t, step, taken):
    """The SGB momentum t_new of a FISTA step at t, from the last step and the accepted one."""
    return (1 + np.sqrt(1 + 4 * (step / taken) * t * t)) / 2


def _extrapolated(cur, prev, t, t_new):
    """(Y, rY, GY) of a FISTA step from the iterates cur and prev, by linearity."""
    beta = (t - 1.0) / t_new
    return tuple(c + beta * (c - p) for c, p in zip(cur[:3], prev[:3]))


def _objective(v):
    """0.5 * ||r||^2 of a carried iterate v = (X, r, G, F), as the probe computes it."""
    return 0.5 * float(v[1] @ v[1])


def _check_sgb_momentum(calls, b):
    """Check the recorded (cur, prev, t, step, trial, out) of each `_fista_step` call of a probe.

    Each call's t_new is (1 + sqrt(1 + 4 (step / s) t^2)) / 2 at its accepted step s, with
    Y = X + (t - 1) / t_new (X - X_prev).  It returns t = 1 for the next call when the gradient
    test Re <Y - X_new, X_new - X> > 0 holds (a restart), else t_new, and a new iterate carries
    that t and s into the next call.  A call at t = 1 has Y = X, so it never restarts; it is a
    proximal-gradient step under the backtracking inequality, so its objective does not rise
    past the round-off of r.  Returns the events seen.
    """
    events = set()
    for k, (cur, prev, t, step, trial, out) in enumerate(calls):
        X_new, _, taken, t_next, _ = out
        t_new = _sgb(t, step, taken)
        Y = _extrapolated(cur, prev, t, t_new)[0]
        if np.vdot(Y - X_new, X_new - cur[0]).real > 0:
            events.add("restart")
            assert t_next == 1.0 and t != 1.0
        else:
            assert t_next == pytest.approx(t_new, rel=1e-15)
        if taken > step:
            events.add("growth")
        if taken < trial:
            events.add("backtrack")
        if t == 1.0:
            scale = np.linalg.norm(b) * max(np.linalg.norm(cur[1]), np.linalg.norm(out[1]))
            assert _objective(out) - _objective(cur) <= 1e-13 * scale
        if k == 0:
            assert t == 1.0 and prev is cur
            continue
        last_cur, _, _, _, _, last_out = calls[k - 1]
        assert cur[0] is last_out[0] and prev is last_cur
        assert step == last_out[2] and t == last_out[3]
    return events


class TestProx:
    def test_hand_shrinkage(self):
        # the spectraplex projection of eigenvalues 3, 1, -2 with the cap 2 shifts them by 1
        out, _ = prox_psd_trace(np.diag([3.0, 1.0, -2.0]), 2.0)
        assert np.allclose(out, np.diag([2.0, 0.0, 0.0]))

    def test_cap_at_the_positive_trace_is_psd_projection(self):
        out, _ = prox_psd_trace(np.diag([3.0, 1.0, -2.0]), 4.0)
        assert np.allclose(out, np.diag([3.0, 1.0, 0.0]))

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            prox_psd_trace(np.eye(2), -0.1)

    def test_negative_or_nan_cap_rejected(self):
        for cap in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="cap"):
                prox_psd_trace(np.eye(2), cap)

    def test_infinite_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            prox_psd_trace(np.eye(2), np.inf)

    def test_local_optimality_against_sampled_psd_perturbations(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((3, 3))
        V = (V + V.T) / 2
        cap = 0.5
        X, _ = prox_psd_trace(V, cap)
        base = np.linalg.norm(X - V)
        for _ in range(500):
            B = rng.standard_normal((3, 3))
            S = cap * (B @ B.T) / np.trace(B @ B.T)
            # PSD perturbations toward a point of the spectraplex keep feasibility
            P = X + 0.1 * rng.uniform() * (S - X)
            assert np.linalg.norm(P - V) > base

    def test_output_is_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out, _ = prox_psd_trace((V + V.conj().T) / 2, 0.3)
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        cap=st.one_of(st.just(0.0), st.floats(1e-6, 20.0)),
    )
    def test_capped_prox_matches_bisection_oracle(self, field, n, seed, cap):
        # the eigenvalues go onto the simplex {w >= 0, sum w = cap}; theta may be negative
        V = 3.0 * random_hermitian(n, field, np.random.default_rng(seed))
        out, F = prox_psd_trace(V, cap)
        scale = max(1.0, np.linalg.norm(V))
        assert np.linalg.eigvalsh(out).min() >= -1e-12 * scale
        assert abs(np.trace(out).real - cap) <= cap * 1e-12 + 1e-15
        assert np.linalg.norm(out - capped_prox(V, cap)) <= 1e-10 * scale
        assert np.linalg.norm(F @ F.conj().T - out) <= 1e-12 * scale

    def test_hand_capped_shrinkage(self):
        # the spectraplex projection of eigenvalues 3, 1, -2 shifts them by theta = 2 for the
        # cap 1, and that of 3, 2, -2 by theta = 0 for the cap 3
        V = np.diag([3.0, 1.0, -2.0])
        assert np.allclose(prox_psd_trace(V, cap=1.0)[0], np.diag([1.0, 0.0, 0.0]))
        out, _ = prox_psd_trace(np.diag([3.0, 2.0, -2.0]), cap=3.0)
        assert np.allclose(out, np.diag([2.0, 1.0, 0.0]))
        # the cap 2 lifts eigenvalues 0.5, 0.2, -1 by theta = -0.65
        out, _ = prox_psd_trace(np.diag([0.5, 0.2, -1.0]), cap=2.0)
        assert np.allclose(out, np.diag([1.15, 0.85, 0.0]))


def _gaussian_columns(n, k, field, rng):
    B = rng.standard_normal((n, k))
    return B + 1j * rng.standard_normal((n, k)) if field == "complex" else B


class TestKrylovProx:
    """The capped prox given a basis, at n >= 8 (rank + 4), where its block Krylov space fits."""

    @settings(max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        k=st.integers(1, 3),
        spikes=st.integers(0, 3),
        extra_n=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(["random", "rank-deficient", "zero-column"]),
        cap=st.floats(1e-3, 10.0),
    )
    def test_any_basis_gives_a_point_of_the_spectraplex(
        self, field, k, spikes, extra_n, seed, kind, cap
    ):
        import phaselift.solver as solver

        n = 8 * (k + 4) + extra_n
        rng = np.random.default_rng(seed)
        U = _gaussian_columns(n, spikes, field, rng)
        V = random_hermitian(n, field, rng) / np.sqrt(n) + U @ U.conj().T
        B = _gaussian_columns(n, k, field, rng)
        if kind == "rank-deficient":
            B = B[:, :1] * rng.standard_normal(k)
        elif kind == "zero-column":
            B[:, 0] = 0.0
        assert solver._krylov_fits(B, n)
        X, F = prox_psd_trace(V, cap, basis=B)
        assert np.linalg.eigvalsh(X).min() >= -1e-12 * cap
        assert np.trace(X).real == pytest.approx(cap, rel=1e-12)
        assert np.linalg.norm(X - F @ F.conj().T) <= 1e-12 * np.linalg.norm(X)

    @settings(max_examples=40, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        spikes=st.integers(1, 3),
        extra_n=st.integers(0, 40),
        seed=st.integers(0, 2**16),
        cap=st.floats(1e-3, 10.0),
    )
    def test_basis_spanning_the_eigenvectors_above_theta_is_exact(
        self, field, spikes, extra_n, seed, cap
    ):
        # spikes of size ~n over a floor of norm ~2 keep the rank <= spikes for cap <= 10
        n = 8 * (spikes + 4) + extra_n
        rng = np.random.default_rng(seed)
        U = _gaussian_columns(n, spikes, field, rng)
        V = random_hermitian(n, field, rng) / np.sqrt(n) + U @ U.conj().T
        X_ref, F_ref = prox_psd_trace(V, cap)
        r = F_ref.shape[1]
        assert r <= spikes
        # any basis of the span of the top r eigenvectors
        basis = np.linalg.eigh(V)[1][:, -r:] @ _gaussian_columns(r, r, field, rng)
        X, F = prox_psd_trace(V, cap, basis=basis)
        assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)
        assert F.shape[1] == r

    @settings(max_examples=20, deadline=None)
    @given(
        field=st.sampled_from(["real", "complex"]),
        extra_n=st.integers(0, 40),
        seed=st.integers(0, 2**16),
    )
    def test_rank_jump_past_the_oversampling_is_the_eigh_result(self, field, extra_n, seed):
        # a flat spectrum and cap = n keep every eigenvalue, and every Ritz value, above theta
        import phaselift.solver as solver

        n = 40 + extra_n
        rng = np.random.default_rng(seed)
        V = 5.0 * np.eye(n) + random_hermitian(n, field, rng) / n
        X_ref, F_ref = prox_psd_trace(V, float(n))
        X, F = prox_psd_trace(V, float(n), basis=_gaussian_columns(n, 1, field, rng))
        assert F_ref.shape[1] > 1 + solver._KRYLOV_EXTRA / 2
        assert np.array_equal(X, X_ref) and np.array_equal(F, F_ref)

    def test_complex_basis_of_a_real_matrix_rejected(self):
        # a real V keeps a real X: a complex basis is the field error of `hermitian`
        V = random_hermitian(64, "real", np.random.default_rng(0))
        with pytest.raises(ValueError, match="complex entries in a real-field basis"):
            prox_psd_trace(V, 1.0, basis=np.ones((64, 1)) + 0j)
        X, F = prox_psd_trace(V, 1.0, basis=np.ones((64, 1)))
        assert X.dtype == F.dtype == np.float64


class TestLipschitz:
    def test_single_rank1_term(self):
        ens = SensingEnsemble(vectors=np.eye(2)[:1], model="real-gaussian")
        assert estimate_lipschitz(ens) == pytest.approx(1.0, rel=1e-12)

    def test_zero_rows_are_skipped(self):
        ens = SensingEnsemble(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), "real-gaussian")
        assert estimate_lipschitz(ens) == 1.0

    def test_all_zero_ensemble_rejected(self):
        ens = SensingEnsemble(np.zeros((3, 2)), "real-gaussian")
        with pytest.raises(ValueError, match="zero"):
            estimate_lipschitz(ens)
        with pytest.raises(ValueError, match="zero"):
            solve_regularized(ens, np.ones(3), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        duplicate=st.booleans(),
    )
    def test_upper_bounds_gram_lambda_max(self, model, n, m, seed, duplicate):
        ens = sample_ensemble(n, m, model, seed)
        if duplicate:
            Z = np.vstack([ens.vectors, ens.vectors[:1]])
            ens = SensingEnsemble(vectors=Z, model=model)
        assert estimate_lipschitz(ens) >= gram_lambda_max(ens) * (1 - 1e-12)

    @pytest.mark.parametrize("model,n", [("complex-unit-sphere", 32), ("real-unit-sphere", 128)])
    def test_bound_is_tight_on_workload_shapes(self, model, n):
        for seed in range(5):
            ens = sample_ensemble(n, 6 * n, model, seed)
            assert estimate_lipschitz(ens) <= 1.05 * gram_lambda_max(ens)

    def test_quartic_scaling(self):
        ens = sample_ensemble(4, 10, "real-gaussian", seed=2)
        doubled = SensingEnsemble(vectors=np.sqrt(2.0) * ens.vectors, model=ens.model)
        assert estimate_lipschitz(doubled) == pytest.approx(4.0 * estimate_lipschitz(ens), rel=0.01)

    def test_descent_with_estimated_step(self):
        ens = sample_ensemble(4, 20, "real-gaussian", seed=3)
        rng = np.random.default_rng(2)
        b = rng.uniform(0.0, 2.0, size=20)
        L = estimate_lipschitz(ens)
        X = np.zeros((4, 4))
        prev = np.inf
        for _ in range(100):
            r = apply_measurement(ens, X) - b
            obj = 0.5 * float(r @ r)
            assert obj <= prev + 1e-12
            prev = obj
            X = X - (0.9 / L) * apply_adjoint(ens, r)


class TestRegularized:
    def test_zero_data(self):
        ens = sample_ensemble(4, 12, "real-gaussian", seed=4)
        rep = solve_regularized(ens, np.zeros(12), 0.0)
        assert np.abs(rep.X_hat).max() == 0.0 and rep.residual == 0.0 and rep.converged

    def test_zero_tau_gives_zero_at_newtons_first_slope(self):
        ens = sample_ensemble(4, 12, "complex-gaussian", seed=5)
        rng = np.random.default_rng(3)
        b = rng.uniform(0.0, 1.0, size=12)
        rep = solve_regularized(ens, b, 0.0)
        assert np.abs(rep.X_hat).max() == 0.0 and rep.converged
        lam = max(np.linalg.eigvalsh(apply_adjoint(ens, b))[-1], 0)
        assert rep.lambda_used == pytest.approx(lam, rel=1e-12)

    def test_large_lambda_gives_zero(self):
        # past lambda_max(A*(b)), X = 0 solves the lambda form: the oracle never leaves it
        ens = sample_ensemble(4, 12, "complex-gaussian", seed=5)
        rng = np.random.default_rng(3)
        b = rng.uniform(0.0, 1.0, size=12)
        lam = max(np.linalg.eigvalsh(apply_adjoint(ens, b))[-1], 0) * 1.001
        step = 1.0 / gram_lambda_max(ens)
        (X,), _ = plain_proximal_gradient([ens], [b], [lam], [step], iters=200)
        assert np.abs(X).max() <= 1e-12

    def test_clean_rank1_recovery(self):
        ens = sample_ensemble(16, 96, "complex-unit-sphere", seed=6)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = intensities(ens, x)
        rep = solve_regularized(ens, b, np.linalg.norm(x) ** 2)
        target = np.outer(x, x.conj())
        assert np.linalg.norm(rep.X_hat - target) <= 1e-3 * np.linalg.norm(target)

    def test_iterates_psd_and_trace_monotone(self):
        # every iterate is PSD with Tr X = tau; the probe restarts its momentum within 30 steps,
        # and a step at t = 1 does not raise the objective
        import phaselift.solver as solver

        ens = sample_ensemble(5, 25, "real-gaussian", seed=7)
        rng = np.random.default_rng(5)
        b = rng.uniform(0.0, 2.0, size=25)
        tau = 1.0
        r = apply_measurement(ens, np.eye(5) * (tau / 5)) - b
        objs = [0.5 * float(r @ r)]  # the objective at the start X = tau I / n
        for k in range(1, 31):
            # runs are deterministic, so the k-iteration run ends at the k-th iterate
            rep = solve_regularized(ens, b, tau, max_iters=k)
            assert np.linalg.eigvalsh(rep.X_hat).min() >= -1e-9 * np.linalg.norm(rep.X_hat)
            assert np.trace(rep.X_hat).real == pytest.approx(tau, rel=1e-12)
            objs.append(0.5 * rep.residual**2)
        ts, t_next, original = [], [], solver._fista_step

        def recorded(*args):
            ts.append(args[5])
            out = original(*args)
            t_next.append(out[3])
            return out

        with mock.patch.object(solver, "_fista_step", recorded):
            solve_regularized(ens, b, tau, max_iters=30)
        assert 1.0 in t_next  # a restart: the gradient test fired
        rises = np.diff(objs) > 1e-12
        assert not any(rise for rise, t in zip(rises, ts) if t == 1.0)

    def test_no_iterations_or_wrong_data_length_rejected(self):
        ens = sample_ensemble(3, 6, "real-gaussian", seed=8)
        with pytest.raises(ValueError, match="max_iters"):
            solve_regularized(ens, np.zeros(6), 1.0, max_iters=0)
        with pytest.raises(ValueError, match="data length"):
            solve_regularized(ens, np.zeros(5), 1.0)

    def test_overflowing_objective_raises(self):
        # 1/2 ||r||^2 of data near 1e200 is inf from the first iterate on
        ens = sample_ensemble(3, 6, "real-gaussian", seed=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="finite"):
                solve_regularized(ens, np.full(6, 1e200), 1.0)

    @pytest.mark.parametrize("model", ["real-gaussian", "complex-unit-sphere"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_carried_residual_matches_forward_map(self, model, warm):
        ens = sample_ensemble(6, 30, model, seed=17)
        rng = np.random.default_rng(12)
        b = rng.uniform(0.0, 2.0, size=30)
        X0 = None
        if warm:
            B = rng.standard_normal((6, 2))
            X0 = B @ B.T
        rep = solve_regularized(ens, b, 1.0, X0=X0, max_iters=200)
        direct = np.linalg.norm(apply_measurement(ens, rep.X_hat) - b)
        assert rep.residual == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("tau", [0.5, 2.0])
    def test_one_forward_map_per_prox_step(self, monkeypatch, tau):
        # one dense forward map per probe (its start residual); every prox attempt maps its
        # factor forward, and every iterate, the start included, pays one adjoint
        import phaselift.solver as solver

        calls = {"forward": 0, "factor": 0, "adjoint": 0, "prox": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        ens = sample_ensemble(5, 25, "complex-gaussian", seed=18)
        rng = np.random.default_rng(13)
        b = rng.uniform(0.0, 2.0, size=25)
        L = estimate_lipschitz(ens)
        monkeypatch.setattr(solver, "estimate_lipschitz", lambda _ens: L)
        monkeypatch.setattr(solver, "apply_measurement", counted("forward", solver.apply_measurement))
        monkeypatch.setattr(solver, "_forward_factor", counted("factor", solver._forward_factor))
        monkeypatch.setattr(solver, "apply_adjoint", counted("adjoint", solver.apply_adjoint))
        monkeypatch.setattr(solver, "prox_psd_trace", counted("prox", solver.prox_psd_trace))
        rep = solve_regularized(ens, b, tau)
        assert calls["prox"] > rep.iterations > 1  # some steps restarted or backtracked
        assert calls["forward"] == 1
        assert calls["factor"] == calls["prox"]
        assert calls["adjoint"] == rep.iterations + 1

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        tau=st.floats(0.0, 10.0),
    )
    # the cap puts A(X) far from a small b, where <A*(r), X> + tau mu cancels past the gap
    @example(model="real-gaussian", n=1, m=1, seed=34, tau=3.0)
    def test_duality_gap_is_nonnegative_at_every_check(self, model, n, m, seed, tau):
        import phaselift.solver as solver

        ens = sample_ensemble(n, m, model, seed)
        b = np.random.default_rng(seed).uniform(0.0, 2.0, size=m)
        gaps = []
        original = solver._duality_gap

        def recorded(*args):
            out = original(*args)
            gaps.append(out[0])
            return out

        with mock.patch.object(solver, "_duality_gap", recorded):
            rep = solve_regularized(ens, b, tau, max_iters=200)
        assert gaps  # the final iterate is always checked
        assert min(gaps) >= -1e-12 * float(b @ b)
        assert np.trace(rep.X_hat).real <= tau * (1 + 1e-12) + 1e-15
        assert rep.lambda_used >= 0.0 and type(rep.converged) is bool

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        tau=st.floats(0.0, 10.0),
        warm=st.booleans(),
    )
    def test_gap_is_taken_only_where_it_can_stop_the_probe(self, model, n, m, seed, tau, warm):
        # every gap but the one at max_iters follows a step ||X_new - X|| <= GAP_REL_TOL ||X_new||
        import phaselift.solver as solver

        ens = sample_ensemble(n, m, model, seed)
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 2.0, size=m)
        B = random_hermitian(n, ens.field, rng)
        X0 = B @ B.conj().T if warm else None
        steps, gaps = [], []
        step, gap = solver._fista_step, solver._duality_gap

        def recorded_step(*args):
            out = step(*args)
            steps.append((args[3][0], out[0]))
            return out

        def recorded_gap(cur):
            X, X_new = steps[-1]
            assert cur[0] is X_new
            gaps.append(np.linalg.norm(X_new - X) <= GAP_REL_TOL * np.linalg.norm(X_new))
            return gap(cur)

        with mock.patch.object(solver, "_fista_step", recorded_step):
            with mock.patch.object(solver, "_duality_gap", recorded_gap):
                rep = solve_regularized(ens, b, tau, X0=X0, max_iters=60)
        if rep.iterations == 60:
            gaps.pop()
        assert all(gaps)

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["real-gaussian", "complex-unit-sphere"]),
        seed=st.integers(0, 2**16),
        tau_rel=st.floats(0.5, 1.2),
        slack_rel=st.floats(1e-4, 1.0),
        warm=st.booleans(),
    )
    # a probe that ends within eps (80 iterations either way), and one that stops on its slack
    # at iteration 20, where the exact probe takes 60
    @example(model="real-gaussian", seed=53820, tau_rel=1.058, slack_rel=0.0074, warm=True)
    @example(model="complex-unit-sphere", seed=40966, tau_rel=1.128, slack_rel=0.127, warm=True)
    def test_slack_probe_answers_only_as_the_exact_probe(
        self, model, seed, tau_rel, slack_rel, warm
    ):
        # a slack only adds gap checks, so a slack probe runs the exact probe's iterates: one that
        # ends within eps is the exact probe bit for bit, and one that ends unconverged before
        # max_iters stopped on its slack, above eps
        import phaselift.solver as solver

        ens = sample_ensemble(5, 30, model, seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(5) + (1j * rng.standard_normal(5) if ens.field == "complex" else 0)
        data = add_noise(intensities(ens, x), "gaussian", 30.0, seed=seed)
        b, eps, tau = data.b, data.eps, tau_rel * np.linalg.norm(x) ** 2
        B = random_hermitian(5, ens.field, rng)
        X0 = B @ B.conj().T if warm else None
        slack, gaps, gap = slack_rel * eps * np.linalg.norm(b), [], solver._duality_gap

        def recorded(cur):
            out = gap(cur)
            gaps.append(out[0])
            return out

        with mock.patch.object(solver, "_duality_gap", recorded):
            inexact = solve_regularized(ens, b, tau, X0=X0, max_iters=300, eps=eps, slack=slack)
        exact = solve_regularized(ens, b, tau, X0=X0, max_iters=300)
        assert inexact.iterations <= exact.iterations
        if inexact.residual <= eps:
            assert inexact.converged is exact.converged
            assert inexact.iterations == exact.iterations
            assert np.array_equal(inexact.X_hat, exact.X_hat)
            assert inexact.lambda_used == exact.lambda_used
        if not inexact.converged and inexact.iterations < 300:
            assert inexact.residual > eps and gaps[-1] <= slack

    @settings(max_examples=16, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    @example(model="complex-unit-sphere", n=4, m=20, seed=1)
    def test_reprobe_stops_on_its_first_short_step(self, model, n, m, seed):
        # a noiseless probe at tau = ||x||^2 ends on a short step; started again from its answer,
        # the probe stops on its first step of at most STEP_REL_TOL ||X_new||, however early
        import phaselift.solver as solver

        ens = sample_ensemble(n, m, model, seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if ens.field == "complex" else 0)
        b, tau = intensities(ens, x), np.linalg.norm(x) ** 2
        first = solve_regularized(ens, b, tau)
        assume(first.converged)
        steps = []
        original = solver._fista_step

        def recorded(ens, b, tau, cur, *args):
            out = original(ens, b, tau, cur, *args)
            steps.append((cur[0], out[0]))
            return out

        with mock.patch.object(solver, "_fista_step", recorded):
            again = solve_regularized(ens, b, tau, X0=first.X_hat)
        short = [np.linalg.norm(new - X) <= STEP_REL_TOL * np.linalg.norm(new) for X, new in steps]
        assert len(short) == again.iterations and not any(short[:-1])
        assert again.converged is True

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        tau=st.floats(0.0, 10.0),
        warm=st.booleans(),
    )
    def test_backtracking_inequality_holds_at_every_step(self, model, n, m, seed, tau, warm):
        # the accepted step s satisfies ||A(X_new - Y)||^2 <= ||X_new - Y||^2 / s, and s >= 1/L;
        # at s = 1/L that is the bound L >= ||A*A||, so allow the round-off of the carried rY
        import phaselift.solver as solver

        ens = sample_ensemble(n, m, model, seed)
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.0, 2.0, size=m)
        B = random_hermitian(n, ens.field, rng)
        steps = []
        original = solver._fista_step

        def checked(ens, b, tau, cur, prev, t, step, trial, step_min):
            out = original(ens, b, tau, cur, prev, t, step, trial, step_min)
            X, r, taken, _, _ = out
            Y, rY, _ = _extrapolated(cur, prev, t, _sgb(t, step, taken))
            slack = 1e-12 * float(b @ b) * taken
            assert step_min <= taken <= trial
            d = r - rY
            assert taken * float(d @ d) <= np.linalg.norm(X - Y) ** 2 * (1 + 1e-9) + slack
            steps.append((trial, taken))
            return out

        with mock.patch.object(solver, "_fista_step", checked):
            X0 = B @ B.conj().T if warm else None
            rep = solve_regularized(ens, b, tau, X0=X0, max_iters=200)
        assert steps and type(rep.converged) is bool
        # each try is at most STEP_GROW times the previous accepted step
        tries, taken = zip(*steps)
        assert all(tries[k + 1] <= solver.STEP_GROW * taken[k] for k in range(len(steps) - 1))

    @pytest.mark.parametrize("tau_rel", [0.25, 0.5])
    def test_probe_steps_past_one_over_l(self, monkeypatch, tau_rel):
        # on a workload shape a tau-probe starts at STEP_START/L, grows its step past that and
        # never steps below 1/L; it pays one dense forward map, its start residual, and one prox
        # per try, each try halving the step
        import phaselift.solver as solver

        ens = sample_ensemble(16, 96, "complex-unit-sphere", seed=22)
        b = intensities(ens, np.random.default_rng(16).standard_normal(16) + 0j)
        L = estimate_lipschitz(ens)
        calls = {"forward": 0, "prox": 0}
        steps = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        original = solver._fista_step

        def recorded(*args):
            before = calls["prox"]
            out = original(*args)
            trial, step_min, taken = args[7], args[8], out[2]
            assert taken == max(trial / 2 ** (calls["prox"] - before - 1), step_min)
            steps.append((trial, taken, step_min))
            return out

        monkeypatch.setattr(solver, "estimate_lipschitz", lambda _ens: L)
        monkeypatch.setattr(solver, "apply_measurement", counted("forward", solver.apply_measurement))
        monkeypatch.setattr(solver, "prox_psd_trace", counted("prox", solver.prox_psd_trace))
        monkeypatch.setattr(solver, "_fista_step", recorded)
        solve_regularized(ens, b, tau_rel * np.linalg.norm(b), max_iters=100)
        assert calls["forward"] == 1
        assert steps[0][0] == solver.STEP_START * steps[0][2]
        assert all(taken >= step_min for _, taken, step_min in steps)
        assert max(taken for _, taken, _ in steps) > solver.STEP_START * steps[0][2]

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        n=st.integers(1, 8),
        m=st.integers(1, 40),
        seed=st.integers(0, 2**16),
        tau=st.floats(0.0, 10.0),
    )
    def test_carried_gradient_and_momentum(self, model, n, m, seed, tau):
        # every iterate carries G = A*(r); the extrapolated gradient GY follows by linearity
        # and equals A*(rY) to round-off
        import phaselift.solver as solver

        ens = sample_ensemble(n, m, model, seed)
        b = np.random.default_rng(seed).uniform(0.0, 2.0, size=m)
        calls = []
        original = solver._fista_step

        def checked(ens, b, tau, cur, prev, t, step, trial, step_min):
            out = original(ens, b, tau, cur, prev, t, step, trial, step_min)
            for X, r, G, _ in (cur, prev):
                assert np.array_equal(G, apply_adjoint(ens, r))
            _, rY, GY = _extrapolated(cur, prev, t, _sgb(t, step, out[2]))
            # the round-off of A*(r) scales with A*(|r|), not with A*(r), which may cancel
            scale = sum(np.linalg.norm(apply_adjoint(ens, np.abs(v[1]))) for v in (cur, prev))
            assert np.linalg.norm(GY - apply_adjoint(ens, rY)) <= 1e-12 * scale * (1 + t)
            calls.append((cur, prev, t, step, trial, out))
            return out

        with mock.patch.object(solver, "_fista_step", checked):
            rep = solve_regularized(ens, b, tau, max_iters=200)
        _check_sgb_momentum(calls, b)
        assert type(rep.converged) is bool

    def test_momentum_follows_sgb_after_growth_backtracks_and_restarts(self, monkeypatch):
        import phaselift.solver as solver

        ens = sample_ensemble(16, 96, "complex-unit-sphere", seed=22)
        b = intensities(ens, np.random.default_rng(16).standard_normal(16) + 0j)
        calls = []
        original = solver._fista_step

        def recorded(ens, b, tau, cur, prev, t, step, trial, step_min):
            out = original(ens, b, tau, cur, prev, t, step, trial, step_min)
            calls.append((cur, prev, t, step, trial, out))
            return out

        monkeypatch.setattr(solver, "_fista_step", recorded)
        solve_regularized(ens, b, 0.9 * np.linalg.norm(b), max_iters=300)
        events = _check_sgb_momentum(calls, b)
        assert events == {"growth", "backtrack", "restart"}

    @pytest.mark.parametrize("probe", ["restart", "krylov"])
    def test_one_fista_step_per_iteration(self, monkeypatch, probe):
        # a restart takes the next step at t = 1, and a short Krylov step leaves the next prox
        # exact: neither retakes a step, so each iteration is one `_fista_step` call
        import phaselift.solver as solver

        if probe == "restart":
            ens = sample_ensemble(16, 96, "complex-unit-sphere", seed=22)
            b = intensities(ens, np.random.default_rng(16).standard_normal(16) + 0j)
            tau = 0.9 * np.linalg.norm(b)
        else:
            x = np.random.default_rng(0).standard_normal(64)
            ens = sample_ensemble(64, 384, "real-gaussian", seed=0)
            b, tau = intensities(ens, x), 0.995 * (x @ x)
        calls, original = [], solver._fista_step

        def recorded(ens, b, tau, cur, prev, t, *args):
            calls.append((cur[3], t))
            return original(ens, b, tau, cur, prev, t, *args)

        monkeypatch.setattr(solver, "_fista_step", recorded)
        rep = solve_regularized(ens, b, tau, max_iters=300)
        assert len(calls) == rep.iterations
        if probe == "restart":  # t_new > 1, so t = 1 past the first step marks a restart
            assert any(t == 1.0 for _, t in calls[1:])
        else:  # only a short Krylov step drops the factor the next prox takes
            assert any(F is None for F, _ in calls[1:])

    def test_capped_solution_solves_the_lambda_form_at_its_multiplier(self):
        # a tau-capped solution with an active cap solves the lambda form at lambda_used, here
        # solved by the oracle
        ens = sample_ensemble(6, 36, "complex-gaussian", seed=21)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = intensities(ens, x) + 0.1 * rng.standard_normal(36)
        capped = solve_regularized(ens, b, 0.5 * np.linalg.norm(x) ** 2)
        assert capped.converged
        assert np.trace(capped.X_hat).real == pytest.approx(0.5 * np.linalg.norm(x) ** 2, rel=1e-9)
        step = 1.0 / gram_lambda_max(ens)
        (free,), _ = plain_proximal_gradient([ens], [b], [capped.lambda_used], [step], iters=2_000)
        assert np.linalg.norm(free - capped.X_hat) <= 1e-3 * np.linalg.norm(capped.X_hat)

    def test_negative_or_nan_tau_rejected(self):
        ens = sample_ensemble(3, 6, "real-gaussian", seed=8)
        for tau in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="tau"):
                solve_regularized(ens, np.zeros(6), tau)

    def test_infinite_tau_rejected(self):
        ens = sample_ensemble(3, 6, "real-gaussian", seed=8)
        with pytest.raises(ValueError, match="tau"):
            solve_regularized(ens, np.zeros(6), np.inf)

    def test_oracle_equivalence_light(self):
        # light version of the long-run equivalence check in acceptance: by the KKT conditions
        # the probe capped at tau = Tr X_ref, the one solve_constrained runs, has the lambda
        # form's solution
        ens = sample_ensemble(3, 12, "real-gaussian", seed=9)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        b = intensities(ens, x) + 0.05 * rng.standard_normal(12)
        lam = 0.05 * max(np.linalg.eigvalsh(apply_adjoint(ens, b))[-1], 0)
        step = 0.1 / gram_lambda_max(ens)
        (X_ref,), (obj_ref,) = plain_proximal_gradient([ens], [b], [lam], [step], iters=20_000)
        probe = solve_regularized(ens, b, np.trace(X_ref).real)
        obj = 0.5 * probe.residual**2 + lam * np.trace(probe.X_hat).real
        assert obj == pytest.approx(obj_ref, rel=1e-6)
        assert np.linalg.norm(probe.X_hat - X_ref) <= 1e-4


class TestConstrained:
    def test_huge_eps_returns_zero(self):
        ens = sample_ensemble(4, 12, "real-gaussian", seed=10)
        rng = np.random.default_rng(7)
        b = rng.uniform(0.0, 1.0, size=12)
        data = IntensityData(b=b, eps=2.0 * np.linalg.norm(b))
        rep = solve_constrained(ens, data)
        assert np.abs(rep.X_hat).max() == 0.0 and rep.converged

    def test_noiseless_recovery(self):
        ens = sample_ensemble(16, 96, "complex-unit-sphere", seed=11)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        b = intensities(ens, x)
        data = IntensityData(b=b, eps=0.0)
        rep = solve_constrained(ens, data)
        target = np.outer(x, x.conj())
        assert np.linalg.norm(rep.X_hat - target) <= 1e-3 * np.linalg.norm(target)

    def test_feasible_result_respects_eps(self):
        ens = sample_ensemble(8, 48, "complex-unit-sphere", seed=12)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        # at 120 dB, eps lies below the noiseless floor of 1e-5 * ||b||, which must not apply
        for snr_db, must_converge in ((30.0, False), (120.0, True)):
            data = add_noise(intensities(ens, x), "gaussian", snr_db, seed=13)
            rep = solve_constrained(ens, data)
            assert rep.converged or not must_converge
            if rep.converged:
                assert rep.residual <= data.eps * (1 + 1e-6)

    def test_noisy_error_tracks_eps(self):
        # stability constant at this size stays below the acceptance bound of 10
        cs = []
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            ens = sample_ensemble(32, 192, "complex-unit-sphere", seed=200 + trial)
            data = add_noise(intensities(ens, x), "gaussian", 40.0, seed=300 + trial)
            rep = solve_constrained(ens, data)
            cs.append(np.linalg.norm(rep.X_hat - np.outer(x, x.conj())) / data.eps)
        assert np.median(cs) <= 10.0

    def test_residual_monotone_in_tau(self):
        # phi(tau) is nonincreasing along a tau grid below the trace where the cap stops binding
        ens = sample_ensemble(6, 36, "real-gaussian", seed=14)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(6)
        b = intensities(ens, x) + 0.1 * rng.standard_normal(36)
        probes = [solve_regularized(ens, b, tau) for tau in np.linspace(0.0, 0.9, 10) * (x @ x)]
        residuals = [rep.residual for rep in probes]
        assert all(rep.converged and rep.lambda_used > 0.0 for rep in probes)
        assert np.all(np.diff(residuals) <= 1e-8 * max(residuals))

    def test_residual_monotone_in_lambda(self):
        # a probe solves the lambda form at its multiplier lambda_used, which falls as tau
        # grows; ordered by that lambda, the residual never falls
        ens = sample_ensemble(6, 36, "real-gaussian", seed=14)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(6)
        b = intensities(ens, x) + 0.1 * rng.standard_normal(36)
        probes = [solve_regularized(ens, b, tau) for tau in np.linspace(0.0, 0.9, 10) * (x @ x)]
        lams = [rep.lambda_used for rep in probes]
        residuals = [rep.residual for rep in probes]
        lam = max(np.linalg.eigvalsh(apply_adjoint(ens, b))[-1], 0)
        assert lams[0] == pytest.approx(lam, rel=1e-12)
        assert np.all(np.diff(lams) < 0.0)
        assert np.all(np.diff(residuals[::-1]) >= -1e-8 * max(residuals))

    def test_infeasible_eps_flagged_not_thrown(self):
        # inconsistent data declared noiseless: the NOISELESS_EPS_REL*||b||
        # residual floor is unreachable, so the minimal-residual iterate
        # comes back flagged instead of raising
        ens = sample_ensemble(4, 24, "real-gaussian", seed=15)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4)
        b = intensities(ens, x) + rng.uniform(0.2, 0.5, size=24)
        data = IntensityData(b=b, eps=0.0)
        rep = solve_constrained(ens, data)
        assert not rep.converged
        assert rep.residual > NOISELESS_EPS_REL * np.linalg.norm(b)

    def test_noiseless_solve_is_a_few_converged_newton_probes(self, monkeypatch):
        probes = _count_probes(monkeypatch)
        ens = sample_ensemble(8, 48, "real-unit-sphere", seed=19)
        b = intensities(ens, np.random.default_rng(15).standard_normal(8))
        rep = solve_constrained(ens, IntensityData(b=b, eps=0.0))
        assert 1 <= len(probes) <= 6
        assert all(np.diff(probes) > 0)  # Newton from the left: tau only grows
        assert rep.converged
        assert rep.residual <= NOISELESS_EPS_REL * np.linalg.norm(b)

    @staticmethod
    def _noisy_n32(snr_db):
        rng = np.random.default_rng(100)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        ens = sample_ensemble(32, 192, "complex-unit-sphere", seed=200)
        return ens, add_noise(intensities(ens, x), "gaussian", snr_db, seed=300)

    @pytest.mark.parametrize("snr_db", [20.0, 40.0, 60.0])
    def test_noisy_solve_takes_few_newton_probes(self, monkeypatch, snr_db):
        probes = _count_probes(monkeypatch)
        ens, data = self._noisy_n32(snr_db)
        rep = solve_constrained(ens, data)
        assert 1 <= len(probes) <= 6
        assert all(np.diff(probes) > 0)  # Newton from the left: tau only grows
        assert rep.converged and rep.residual <= data.eps

    # the iterations of each solve when every probe ran to the full stop: 4 probes at 20 dB,
    # 5 at 40 dB and 6 at 60 dB, all converged
    @pytest.mark.parametrize("snr_db, exact_iters", [(20.0, 210), (40.0, 528), (60.0, 692)])
    def test_slack_stops_fire_but_never_answer(self, monkeypatch, snr_db, exact_iters):
        import phaselift.solver as solver

        probes, original = [], solver.solve_regularized

        def recorded(*args, **kwargs):
            rep = original(*args, **kwargs)
            probes.append((rep, kwargs["eps"]))  # eps as the probe sees it, scaled with b
            return rep

        monkeypatch.setattr(solver, "solve_regularized", recorded)
        ens, data = self._noisy_n32(snr_db)
        rep = solve_constrained(ens, data)
        *early, (last, eps) = probes
        assert any(not p.converged and p.residual > e for p, e in early)
        assert last.converged is True and last.residual <= eps
        assert rep.converged and rep.iterations < exact_iters

    @pytest.mark.parametrize("eps_rel", [1e-2, 1e-4, 1e-6])
    def test_inconsistent_data_flagged_within_ten_probes(self, monkeypatch, eps_rel):
        probes = _count_probes(monkeypatch)
        ens = sample_ensemble(4, 24, "real-gaussian", seed=15)
        rng = np.random.default_rng(11)
        b = intensities(ens, rng.standard_normal(4)) + rng.uniform(0.2, 0.5, size=24)
        eps = eps_rel * np.linalg.norm(b)
        rep = solve_constrained(ens, IntensityData(b=b, eps=eps))
        assert not rep.converged
        assert rep.residual > eps
        assert len(probes) <= 10

    @settings(max_examples=20, deadline=None)
    @given(
        model=st.sampled_from(["real-gaussian", "complex-unit-sphere"]),
        noisy=st.booleans(),
        c=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**16),
        k=st.integers(-600, 600),
    )
    # draws on which the round-off of c b once moved a stop or flipped a restart; here both
    # solves take 66 iterations, and X ends 7.4e-16 apart
    @example(model="complex-unit-sphere", noisy=False, c=9.75, seed=62581, k=600)
    # ... 50 iterations, X ends 1.2e-15 apart
    @example(model="real-gaussian", noisy=True, c=519.8718871244287, seed=30563, k=-600)
    # ... 60 iterations, X ends 2.6e-15 apart
    @example(model="complex-unit-sphere", noisy=True, c=0.011976101997704405, seed=23184, k=1)
    def test_scale_equivariance(self, model, noisy, c, seed, k):
        # (b, eps) -> (c b, c eps) maps the solution X to c X up to the round-off of c b.  The
        # restart's gradient test scales by c^2, so that round-off does not flip it: on 10,000
        # draws (default_rng(12345); c log-uniform in [1e-3, 1e3]) both solves took the same
        # iterations, and X stayed within 2.0e-13 ||X||.  For c = 2^k far past float64's square
        # range it does so bit for bit, iteration for iteration
        ens = sample_ensemble(5, 30, model, seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(5) + (1j * rng.standard_normal(5) if ens.field == "complex" else 0)
        b = intensities(ens, x)
        data = add_noise(b, "gaussian", 30.0, seed=seed) if noisy else IntensityData(b, 0.0)
        ref = solve_constrained(ens, data)
        scaled = solve_constrained(ens, IntensityData(c * data.b, c * data.eps))
        assert type(ref.converged) is bool and scaled.converged == ref.converged
        assert scaled.iterations == ref.iterations
        assert np.linalg.norm(scaled.X_hat / c - ref.X_hat) <= 1e-10 * np.linalg.norm(ref.X_hat)
        c = 2.0**k
        exact = solve_constrained(ens, IntensityData(c * data.b, c * data.eps))
        assert exact.iterations == ref.iterations and exact.converged is ref.converged
        assert np.array_equal(exact.X_hat / c, ref.X_hat)
        assert exact.residual / c == ref.residual and exact.lambda_used / c == ref.lambda_used

    def test_krylov_probes_converge_reproducibly_and_stop_on_an_exact_step(self, monkeypatch):
        # at real n = 64 the warm prox takes the Krylov path on part of its calls; a probe that
        # stops on the step rule (not on its gap) must have taken its last step through eigh
        import phaselift.solver as solver

        n, instances = 64, []
        for seed in range(3):
            x = np.random.default_rng(seed).standard_normal(n)
            ens = sample_ensemble(n, 6 * n, "real-gaussian", seed=seed)
            instances.append((ens, IntensityData(intensities(ens, x), 0.0), x))
        first = [solve_constrained(ens, data).X_hat for ens, data, _ in instances]

        shapes, full_eigh, probes, gap_small = [], [], [], []
        eigh, prox, probe, gap = (
            np.linalg.eigh, solver.prox_psd_trace, solver.solve_regularized, solver._duality_gap
        )

        def recorded_eigh(A, *args, **kwargs):
            shapes.append(A.shape[0])
            return eigh(A, *args, **kwargs)

        def recorded_prox(*args, **kwargs):
            shapes.clear()
            out = prox(*args, **kwargs)
            full_eigh.append(n in shapes)
            return out

        def recorded_gap(cur):
            out = gap(cur)
            gap_small.append(out[0] <= solver.GAP_REL_TOL * float(cur[1] @ cur[1]))
            return out

        def recorded_probe(*args, **kwargs):
            rep = probe(*args, **kwargs)
            probes.append((rep.converged and not gap_small[-1], full_eigh[-1]))
            return rep

        monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
        monkeypatch.setattr(solver, "prox_psd_trace", recorded_prox)
        monkeypatch.setattr(solver, "_duality_gap", recorded_gap)
        monkeypatch.setattr(solver, "solve_regularized", recorded_probe)
        for (ens, data, x), X_hat in zip(instances, first):
            rep = solve_constrained(ens, data)
            assert rep.converged and recover(rep.X_hat, x_true=x).rel_mse <= 1e-4
            assert np.array_equal(rep.X_hat, X_hat)
        assert full_eigh.count(False) > 0  # the Krylov path ran
        step_stops = [last_full for by_step, last_full in probes if by_step]
        assert step_stops and all(step_stops)
