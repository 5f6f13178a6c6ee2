"""The benchmark's three workloads and their correctness checks.

Each workload is a closed loop driven by `run.py`: one trial at a time,
single process.  Trial k's inputs depend only on (seed, k), so a replay
of trial k repeats its work exactly.  `prepare(seed, count)` builds the
inputs of trials 0..count-1 (the set-up), `run(k)` is the timed trial,
and `check(k, out)` returns the trial's check outcome.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

import phaselift as pl
from phaselift.experiments import ExperimentConfig

#: Criterion 1's tolerance on the phase-invariant relative MSE.
NOISELESS_REL_MSE_MAX = 1e-4
#: Criterion 2's tolerance on the median of ||X_hat - xx*||_F / eps.
NOISY_ERR_OVER_EPS_MAX = 10.0
#: f-curve Monte Carlo means must lie this many stderr from the closed form.
#: 101 points a batch and ~1e3 batches a check: 6 keeps false alarms below 1e-3.
F_CURVE_MAX_Z = 6.0


def child_seed(seed: int, *path: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


@dataclass
class Check:
    ok: bool
    detail: str = ""
    rel_mse: float | None = None
    err_over_eps: float | None = None


class Workload:
    """Defaults shared by the workloads: no run-level check, CSV outputs removed on close."""

    outputs: tuple[str, ...] = ()
    #: Spans (see spans.LAYERS) a trial must call; zero calls means a wrapper missed a binding.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, out_dir: str) -> None:
        pass

    def run_problems(self, checks: list[Check]) -> list[str]:
        return []

    def close(self) -> None:
        for path in self.outputs:
            for p in (path, path + ".timing.csv"):
                if os.path.exists(p):
                    os.remove(p)


def read_trial_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [r for r in csv.DictReader(lines) if r["row_type"] == "trial"]


class NoiselessRealN128(Workload):
    """Direct solve_constrained + recover on noiseless real data; one bisection probe per solve."""

    name = "noiseless-real-n128"
    why = (
        "n=128 real, m=6n, noiseless: one probe of ~800-1200 FISTA iterations per solve, so the "
        "lambda search is bypassed and forward/adjoint/prox kernels dominate"
    )
    n, m = 128, 6 * 128
    expected_spans = (
        "measurement.forward",
        "measurement.adjoint",
        "measurement.sample_ensemble",
        "measurement.add_noise",
        "solver.prox",
        "solver.lipschitz",
        "solver.probe",
        "solver.solve",
        "hermitian.eig",
        "recovery.recover",
    )
    pool = 24  # trials cycle through this many instances; ~7 fit in a 30 s run today

    def prepare(self, seed: int, count: int) -> None:
        self.instances = []
        for k in range(min(count, self.pool)):
            x = np.random.default_rng(child_seed(seed, k, 0)).standard_normal(self.n)
            ens = pl.sample_ensemble(self.n, self.m, "real-unit-sphere", child_seed(seed, k, 1))
            data = pl.add_noise(pl.intensities(ens, x), "none", float("inf"), child_seed(seed, k, 2))
            self.instances.append((x, ens, data))

    def run(self, k: int):
        x, ens, data = self.instances[k % self.pool]
        rep = pl.solve_constrained(ens, data)
        return rep, pl.recover(rep.X_hat, x_true=x)

    def check(self, k: int, out) -> Check:
        rep, res = out
        ok = bool(np.isfinite(res.rel_mse)) and res.rel_mse <= NOISELESS_REL_MSE_MAX
        return Check(ok, f"rel_mse={res.rel_mse:.3g}", rel_mse=res.rel_mse)


class SnrSweepN32(Workload):
    """run_experiment('snr-sweep'), one noisy trial per call, cycling 20/40/60 dB."""

    name = "snr-sweep-n32"
    why = (
        "n=32 complex, m=6n, Gaussian noise at 20/40/60 dB through run_experiment: 16 bisection "
        "probes and ~4-6k FISTA iterations per solve, so lambda search and per-iteration cost show"
    )
    levels = (20.0, 40.0, 60.0)
    expected_spans = (
        "measurement.forward",
        "measurement.adjoint",
        "measurement.sample_ensemble",
        "measurement.add_noise",
        "solver.prox",
        "solver.lipschitz",
        "solver.probe",
        "solver.solve",
        "hermitian.eig",
        "recovery.recover",
        "experiments.write_csv",
        "experiments.run",
    )

    def __init__(self, out_dir: str) -> None:
        self.out = os.path.join(out_dir, f"{self.name}-{os.getpid()}.csv")
        self.outputs = (self.out,)

    def prepare(self, seed: int, count: int) -> None:
        self.configs = [
            ExperimentConfig(
                experiment="snr-sweep",
                n=32,
                field="complex",
                noise="gaussian",
                snr_db=[self.levels[k % len(self.levels)]],
                trials=1,
                seed=child_seed(seed, k),
                out=self.out,
            )
            for k in range(count)
        ]

    def run(self, k: int):
        return pl.experiments.run_experiment(self.configs[k])

    def check(self, k: int, out) -> Check:
        (row,) = read_trial_rows(self.out)
        residual, eps = float(row["residual"]), float(row["eps"])
        err = float(row["matrix_err_fro"]) / eps
        rel = float(row["rel_mse"])
        ok = (
            out == 0
            and row["converged"] == "1"
            and residual <= eps * (1 + 1e-9)
            and bool(np.isfinite(err))
            and bool(np.isfinite(rel))
        )
        detail = f"snr={row['snr_db']} converged={row['converged']} residual/eps={residual / eps:.4g} err/eps={err:.3g}"
        return Check(ok, detail, rel_mse=rel, err_over_eps=err)

    def run_problems(self, checks: list[Check]) -> list[str]:
        errs = [c.err_over_eps for c in checks if c.err_over_eps is not None]
        med = float(np.median(errs))
        if med > NOISY_ERR_OVER_EPS_MAX:
            return [f"median err/eps {med:.3g} exceeds {NOISY_ERR_OVER_EPS_MAX}"]
        return []


class TheoryBatch(Workload):
    """certificate-study, rip1-study and f-curves through run_experiment; the solver never runs."""

    name = "theory-batch"
    why = (
        "certificate-study (complex n=128, m up to 32n), rip1-study (real n=64) and f-curves: "
        "one-shot quadratic math on large m plus analysis and certificate, no solver"
    )
    expected_spans = (
        "measurement.sample_ensemble",
        "certificate.build",
        "certificate.verify",
        "analysis.l1_isometry",
        "analysis.rank2_mc",
        "experiments.write_csv",
        "experiments.run",
    )

    def __init__(self, out_dir: str) -> None:
        self.outs = {
            exp: os.path.join(out_dir, f"{self.name}-{exp}-{os.getpid()}.csv")
            for exp in ("certificate-study", "rip1-study", "f-curves")
        }
        self.outputs = tuple(self.outs.values())

    def prepare(self, seed: int, count: int) -> None:
        self.batches = []
        for k in range(count):
            self.batches.append(
                [
                    ExperimentConfig(
                        experiment="certificate-study",
                        field="complex",
                        n=128,
                        trials=1,
                        seed=child_seed(seed, k, 0),
                        out=self.outs["certificate-study"],
                    ),
                    ExperimentConfig(
                        experiment="rip1-study",
                        field="real",
                        n=64,
                        trials=1,
                        seed=child_seed(seed, k, 1),
                        out=self.outs["rip1-study"],
                    ),
                    ExperimentConfig(
                        experiment="f-curves",
                        field="complex",
                        seed=child_seed(seed, k, 2),
                        out=self.outs["f-curves"],
                    ),
                ]
            )

    def run(self, k: int):
        return [pl.experiments.run_experiment(cfg) for cfg in self.batches[k]]

    def check(self, k: int, out) -> Check:
        problems = []
        cert = read_trial_rows(self.outs["certificate-study"])
        dist = [float(r["dist_tangent"]) for r in cert]
        opn = [float(r["opnorm_complement"]) for r in cert]
        # criterion 7's trend: both certificate defects shrink as m grows
        if not (len(cert) == 3 and all(a > b for a, b in zip(dist, dist[1:])) and all(a > b for a, b in zip(opn, opn[1:]))):
            problems.append(f"certificate not improving with m: dist={dist} opnorm={opn}")
        lo, hi = pl.certificate.THRESHOLDS["complex"]
        for r, d, o in zip(cert, dist, opn):
            if (r["pass"] == "1") != (d <= lo and o <= hi):
                problems.append(f"certificate pass flag disagrees with thresholds at m={r['m']}")
        rip = read_trial_rows(self.outs["rip1-study"])
        delta = [float(r["delta_observed"]) for r in rip]
        # criterion 8's trend: the observed isometry constant shrinks as m grows
        if not (len(rip) == 3 and all(a > b for a, b in zip(delta, delta[1:]))) or any(
            float(r["rank2_min_ratio"]) <= 0 for r in rip
        ):
            problems.append(f"rip1 constants off: delta={delta}")
        fc = read_trial_rows(self.outs["f-curves"])
        z = max(abs(float(r["mc_mean"]) - float(r["f_closed"])) / float(r["mc_stderr"]) for r in fc)
        if not (len(fc) == 101 and z <= F_CURVE_MAX_Z):
            problems.append(f"f-curve Monte Carlo off the closed form: max z={z:.3g}")
        ok = not problems and all(o == 0 for o in out)
        return Check(ok, "; ".join(problems) or f"dist={dist[-1]:.3g} max_z={z:.3g}")


WORKLOADS = {cls.name: cls for cls in (SnrSweepN32, NoiselessRealN128, TheoryBatch)}
