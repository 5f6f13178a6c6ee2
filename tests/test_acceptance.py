"""End-to-end acceptance gate.

One test per criterion; each prints a PASS/FAIL line (visible with
pytest -s or in the captured output of a failing run) and asserts at
the stated tolerance.
"""

import time

import numpy as np
import pytest

import phaselift as pl

from oracles import gram_lambda_max, phase_grid_rel_mse, plain_proximal_gradient


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def recovery_trial(n, m, snr_db, noise, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ens = pl.sample_ensemble(n, m, "complex-unit-sphere", seed + 50_000)
    data = pl.add_noise(pl.intensities(ens, x), noise, snr_db, seed + 90_000)
    rep = pl.solve_constrained(ens, data)
    res = pl.recover(rep.X_hat, x_true=x)
    rms_debiased = float(np.sqrt(pl.rel_mse(x, res.x_hat_debiased)))
    matrix_err = float(np.linalg.norm(rep.X_hat - np.outer(x, x.conj())))
    return res.rel_mse, res.rel_rms, rms_debiased, matrix_err, data.eps


def test_criterion_1_noiseless_exact_recovery():
    t0 = time.perf_counter()
    hits = 0
    for trial in range(10):
        mse, *_ = recovery_trial(32, 6 * 32, float("inf"), "none", 1_000 + trial)
        hits += mse <= 1e-4
    elapsed = time.perf_counter() - t0
    report(
        1,
        "noiseless exact recovery",
        hits >= 9 and elapsed <= 300.0,
        f"hits={hits}/10 elapsed={elapsed:.1f}s",
    )


def test_criterion_2_stability_linearity():
    levels = (20.0, 40.0, 60.0)
    medians, mean_rms = [], []
    for snr in levels:
        ratios, rms = [], []
        for trial in range(10):
            _, rel_rms, _, matrix_err, eps = recovery_trial(
                32, 6 * 32, snr, "gaussian", 2_000 + 100 * int(snr) + trial
            )
            ratios.append(matrix_err / eps)
            rms.append(rel_rms)
        medians.append(float(np.median(ratios)))
        mean_rms.append(float(np.mean(rms)))
    slope = float(np.polyfit(levels, np.log10(mean_rms), 1)[0])
    ok = all(mc <= 10.0 for mc in medians) and -0.07 <= slope <= -0.03
    report(
        2,
        "stability error tracks noise level",
        ok,
        f"median err/eps={[round(mc, 2) for mc in medians]} slope={slope:.4f}/dB",
    )


def test_criterion_3_debiasing_benefit():
    ok = True
    details = []
    for snr in (5.0, 10.0):
        wins = 0
        for trial in range(10):
            _, raw, debiased, _, _ = recovery_trial(
                32, 6 * 32, snr, "poisson", 3_000 + 100 * int(snr) + trial
            )
            wins += debiased <= raw
        details.append(f"{snr}dB:{wins}/10")
        ok = ok and wins >= 7
    report(3, "debiasing helps at low SNR", ok, " ".join(details))


def test_criterion_4_oversampling_halves_error():
    means = []
    for m_over_n in (6, 12):
        rms = [
            recovery_trial(32, m_over_n * 32, 15.0, "poisson", 4_000 + 1000 * m_over_n + t)[1]
            for t in range(10)
        ]
        means.append(float(np.mean(rms)))
    ratio = means[0] / means[1]
    report(4, "doubling m roughly halves RMS", 1.4 <= ratio <= 2.8, f"ratio={ratio:.2f}")


def test_criterion_5_mean_gram_identity():
    err_real = pl.check_mean_gram("real", 4, 200_000, seed=5)
    err_complex = pl.check_mean_gram("complex", 4, 200_000, seed=6)
    report(
        5,
        "Gaussian mean-Gram closed form",
        err_real <= 0.05 and err_complex <= 0.05,
        f"real={err_real:.4f} complex={err_complex:.4f}",
    )


def test_criterion_6_rank2_l1_moment_curves():
    grid = np.linspace(0.0, 1.0, 10_001)
    real_floor = float(pl.rank2_l1_mean_real(grid).min())
    fine = np.linspace(0.0, 1.0, 1_000_001)
    complex_min = float(pl.rank2_l1_mean_complex(fine).min())
    target = 2.0 * (np.sqrt(2.0) - 1.0)
    ok = real_floor >= 0.94 and abs(complex_min - target) <= 1e-6
    mc_ok = True
    for field, closed in (
        ("real", pl.rank2_l1_mean_real),
        ("complex", pl.rank2_l1_mean_complex),
    ):
        for i, t in enumerate((0.0, 0.25, 0.5, 0.75, 1.0)):
            mean, se = pl.rank2_l1_mc(t, field, 1_000_000, seed=600 + i)
            mc_ok = mc_ok and abs(mean - float(closed(t))) <= 4 * se
    report(
        6,
        "closed-form moment curves",
        ok and mc_ok,
        f"real_floor={real_floor:.4f} complex_min={complex_min:.7f} mc_ok={mc_ok}",
    )


def test_criterion_7_certificate_thresholds():
    n = 64
    x = np.zeros(n)
    x[0] = 1.0
    m = 20 * n * int(np.ceil(np.log(n)))
    passes = 0
    for seed in range(10):
        ens = pl.sample_ensemble(n, m, "real-gaussian", 7_000 + seed)
        Y, _ = pl.build_certificate(ens, x, beta=3.0)
        passes += pl.verify_certificate(Y, x).passed
    medians = []
    for mult in (2, 8, 32):
        dists = []
        for seed in range(10):
            ens = pl.sample_ensemble(n, mult * n, "real-gaussian", 7_500 + 10 * mult + seed)
            Y, _ = pl.build_certificate(ens, x, beta=3.0)
            dists.append(pl.verify_certificate(Y, x).dist_tangent)
        medians.append(float(np.median(dists)))
    ok = passes >= 9 and medians[0] > medians[1] > medians[2]
    report(
        7,
        "dual certificate thresholds",
        ok,
        f"passes={passes}/10 dist_medians={[round(d, 3) for d in medians]}",
    )


def test_criterion_8_l1_isometry_trends():
    medians = []
    for m in (64, 256, 1024):
        deltas = [
            pl.l1_isometry_check("real", 16, m, trials=1, seed=8_000 + m + s).delta_observed
            for s in range(10)
        ]
        medians.append(float(np.median(deltas)))
    real_floor = pl.l1_isometry_check("real", 16, 256 * 16, trials=500, seed=8_100)
    complex_floor = pl.l1_isometry_check("complex", 16, 256 * 16, trials=500, seed=8_200)
    ok = (
        medians[0] > medians[1] > medians[2]
        and real_floor.rank2_min_ratio >= 0.80
        and complex_floor.rank2_min_ratio >= 0.70
    )
    report(
        8,
        "l1-isometry constants",
        ok,
        f"delta_medians={[round(d, 3) for d in medians]} "
        f"rank2 real={real_floor.rank2_min_ratio:.3f} complex={complex_floor.rank2_min_ratio:.3f}",
    )


def test_criterion_9_solver_oracle_equivalence():
    # the probe capped at tau = Tr X_ref, the one solve_constrained runs, has by the KKT
    # conditions the lambda form's solution
    worst_obj, worst_x = 0.0, 0.0
    ensembles, bs, lams = [], [], []
    for inst in range(5):
        ens = pl.sample_ensemble(3, 12, "real-gaussian", 9_000 + inst)
        rng = np.random.default_rng(inst)
        x = rng.standard_normal(3)
        b = pl.intensities(ens, x) + 0.05 * rng.standard_normal(12)
        ensembles.append(ens)
        bs.append(b)
        lams.append(0.05 * max(np.linalg.eigvalsh(pl.apply_adjoint(ens, b))[-1], 0))
    steps = [0.1 / gram_lambda_max(ens) for ens in ensembles]
    X_refs, obj_refs = plain_proximal_gradient(ensembles, bs, lams, steps, iters=100_000)
    for ens, b, lam, X_ref, obj_ref in zip(ensembles, bs, lams, X_refs, obj_refs):
        rep = pl.solve_regularized(ens, b, np.trace(X_ref).real)
        obj = 0.5 * rep.residual**2 + lam * np.trace(rep.X_hat).real
        worst_obj = max(worst_obj, abs(obj - obj_ref) / max(abs(obj_ref), 1e-300))
        worst_x = max(worst_x, float(np.linalg.norm(rep.X_hat - X_ref)))
    report(
        9,
        "accelerated solver matches long-run proximal gradient",
        worst_obj <= 1e-6 and worst_x <= 1e-4,
        f"probe_obj_rel={worst_obj:.2e} probe_X_fro={worst_x:.2e}",
    )


def test_criterion_10_phase_metric_oracle():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x_hat = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        worst = max(worst, abs(pl.rel_mse(x, x_hat) - phase_grid_rel_mse(x, x_hat)))
    report(10, "phase-invariant metric closed form", worst <= 1e-8, f"worst={worst:.2e}")
