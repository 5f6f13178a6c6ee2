"""Batch experiments emitting deterministic CSV, all through one grid driver.

Every experiment is a grid of points, k seeded trials per point and at
most one summary row per point; it declares only its grid, its trial
function and its summary function, and `run_grid` does the rest.  Each
trial draws from its own substream keyed by (seed, grid index, trial),
trials run in a worker pool, and rows are written in grid order, so
re-runs produce byte-identical CSVs.  A summary row covers only the
trial rows directly above it.  Wall-clock timings go to a sidecar file
(<out>.timing.csv) to keep the main CSV reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._rng import child_seed, substream
from .analysis import l1_isometry_check, rank2_l1_mc, rank2_l1_mean_complex, rank2_l1_mean_real
from .certificate import DEFAULT_TRUNCATION_BETA, build_certificate, verify_certificate
from .hermitian import COMPLEX, DTYPES, REAL
from .measurement import NOISE_MODELS, add_noise, intensities, sample_ensemble
from .recovery import recover, rel_mse
from .solver import MAX_ITERS, solve_constrained

SCHEMA_VERSION = "phaselift-csv-2"

#: Success threshold for phase-transition runs (relative MSE).
PHASE_TRANSITION_SUCCESS = 1e-5


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 32
    m: list[int] | None = None
    m_over_n: list[int] | None = None
    field: str = COMPLEX
    noise: str = "gaussian"
    snr_db: list[float] | None = None
    trials: int = 10
    seed: int = 0
    out: str = "results.csv"
    mc_samples: int = 100_000
    beta: float = DEFAULT_TRUNCATION_BETA
    max_iters: int = MAX_ITERS

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n < 1 or self.trials < 1 or self.max_iters < 1:
            raise ConfigError("n, trials and max_iters must be positive")
        if self.mc_samples < 1000:
            raise ConfigError(f"mc_samples must be at least 1000, got {self.mc_samples}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if self.field not in DTYPES:
            raise ConfigError(f"unknown field {self.field!r}")
        if self.noise not in NOISE_MODELS:
            raise ConfigError(f"unknown noise model {self.noise!r}")
        reads = _EXPERIMENTS[self.experiment].grids
        for name in ("m", "m_over_n", "snr_db"):
            grid = getattr(self, name)
            if grid is None:
                continue
            if len(grid) == 0:
                raise ConfigError(f"grid {name} must be nonempty")
            if name not in reads:
                raise ConfigError(f"{self.experiment} does not read grid {name}")
            if reads[name] is not None and len(grid) > reads[name]:
                raise ConfigError(
                    f"{self.experiment} reads at most {reads[name]} value of grid {name}, "
                    f"got {len(grid)}"
                )
        for name in ("m", "m_over_n"):
            if min(getattr(self, name) or [1]) < 1:
                raise ConfigError(f"grid {name} entries must be positive")
        if any(np.isnan(s) or np.isneginf(s) for s in self.snr_db or []):
            raise ConfigError("grid snr_db entries must be finite or inf")

    def digest(self) -> str:
        """Hash of every field except `out`, so one config hashes the same at any path."""
        fields = {k: v for k, v in asdict(self).items() if k != "out"}
        blob = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("config must name an experiment")
        for key, value in raw.items():
            # `experiment` has no default and is checked against "" as a string
            if _wrong_type(getattr(cls, key, ""), value):
                raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
        return cls(**raw)


def _wrong_type(default, value) -> bool:
    """Whether a JSON value cannot replace `default`; a bool is never a number.

    A float field takes an int or a float, a grid (default None) null or a
    list of numbers, and any other field a value of its default's type.
    """
    if default is None:
        return value is not None and (
            type(value) is not list or any(_wrong_type(0.0, v) for v in value)
        )
    return type(value) not in ((int, float) if type(default) is float else (type(default),))


def _map_trials(fn, args_list):
    workers = max(1, int(os.environ.get("PHASELIFT_THREADS", "1")))
    if workers == 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, cfg: ExperimentConfig, fieldnames: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    buf.write(f"# config={json.dumps(asdict(cfg), sort_keys=True, default=str)}\n")
    buf.write(f"# config_sha256={cfg.digest()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row.get(k, "")) for k in fieldnames])
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def _write_timing(path: str, timings: list[dict]) -> None:
    with open(path + ".timing.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["experiment", "key", "trial", "wall_time_ms"])
        writer.writeheader()
        writer.writerows(timings)


# --- the grid driver ------------------------------------------------------------


def _mean(rows: list[dict], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _median(rows: list[dict], key: str) -> float:
    return float(np.median([r[key] for r in rows]))


def run_grid(cfg: ExperimentConfig, points: list[dict], trial, summary=None, trials=None):
    """Run seeded trials at every grid point; return (rows, timing rows).

    Each point is a dict of grid coordinates, e.g. {"m": 48, "snr": 20.0};
    its "k=v" pairs form the timing key.  `trial(cfg, point, gi, t)`
    returns the measured columns of trial t at point index gi, drawing
    its randomness from `child_seed(cfg.seed, gi, t, stream)`.  The rows
    list each point's `trials` (default cfg.trials) trial rows, then,
    when `summary(block)` is given, one summary row computed from that
    block alone.  Every row also carries the experiment, row type, n,
    field and the point's coordinates.
    """
    k = cfg.trials if trials is None else trials

    def timed(args):
        t0 = time.perf_counter()
        row = trial(cfg, *args)
        return row, (time.perf_counter() - t0) * 1e3

    results = _map_trials(timed, [(p, gi, t) for gi, p in enumerate(points) for t in range(k)])
    rows, timings = [], []
    for gi, point in enumerate(points):
        base = {"experiment": cfg.experiment, "n": cfg.n, "field": cfg.field, **point}
        key = ",".join(f"{name}={value}" for name, value in point.items())
        block = []
        for t, (measured, ms) in enumerate(results[gi * k : (gi + 1) * k]):
            block.append({**base, "row_type": "trial", "trial": t, **measured})
            timings.append(
                {"experiment": cfg.experiment, "key": key, "trial": t, "wall_time_ms": ms}
            )
        rows += block
        if summary is not None:
            rows.append({**base, "row_type": "summary", **summary(block)})
    return rows, timings


# --- recovery experiments: snr-sweep, oversampling-sweep, phase-transition ------

_RECOVERY_FIELDS = (
    "experiment row_type snr_db n m trial seed noise field rel_mse rel_rms rel_mse_debiased "
    "rel_rms_debiased matrix_err_fro eps residual lambda iterations converged"
).split()
_TRANSITION_FIELDS = _RECOVERY_FIELDS + ["success", "success_rate"]


def _snr_grid(cfg: ExperimentConfig) -> list[dict]:
    m = cfg.m[0] if cfg.m else 6 * cfg.n
    return [{"m": m, "snr": float(s)} for s in cfg.snr_db or [5.0, 25.0, 50.0, 75.0, 100.0]]


def _oversampling_grid(cfg: ExperimentConfig) -> list[dict]:
    snr = float(cfg.snr_db[0]) if cfg.snr_db else 15.0
    return [{"m": int(r * cfg.n), "snr": snr} for r in cfg.m_over_n or [5, 6, 8, 10, 14, 18, 22]]


def _transition_grid(cfg: ExperimentConfig) -> list[dict]:
    return [{"m": int(r * cfg.n), "snr": float("inf")} for r in cfg.m_over_n or [1, 2, 3, 4, 5, 6]]


def _recovery_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> dict:
    """One end-to-end trial: signal, ensemble, noise, solve, extract."""
    snr_db = point["snr"]
    sig_seed, ens_seed, noise_seed = (child_seed(cfg.seed, gi, t, s) for s in range(3))
    rng = substream(sig_seed, 6)
    x = rng.standard_normal(cfg.n)
    if cfg.field != REAL:
        x = x + 1j * rng.standard_normal(cfg.n)
    ens = sample_ensemble(cfg.n, point["m"], f"{cfg.field}-unit-sphere", ens_seed)
    noise = cfg.noise if np.isfinite(snr_db) else "none"
    data = add_noise(intensities(ens, x), noise, snr_db, noise_seed)
    rep = solve_constrained(ens, data, max_iters=cfg.max_iters)
    res = recover(rep.X_hat, x_true=x)
    err_deb = rel_mse(x, res.x_hat_debiased)
    return {
        "snr_db": snr_db,
        "seed": sig_seed,
        "noise": noise,
        "rel_mse": res.rel_mse,
        "rel_rms": res.rel_rms,
        "rel_mse_debiased": err_deb,
        "rel_rms_debiased": float(np.sqrt(max(err_deb, 0.0))),
        "matrix_err_fro": float(np.linalg.norm(rep.X_hat - np.outer(x, x.conj()))),
        "eps": data.eps,
        "residual": rep.residual,
        "lambda": rep.lambda_used,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "success": res.rel_mse <= PHASE_TRANSITION_SUCCESS,  # a phase-transition column
    }


def _recovery_summary(block: list[dict]) -> dict:
    # a block's trials share one SNR, hence one effective noise model
    row = {"snr_db": block[0]["snr_db"], "noise": block[0]["noise"]}
    for key in ("rel_mse", "rel_rms", "rel_mse_debiased", "rel_rms_debiased"):
        row[key] = _mean(block, key)
    row["success_rate"] = _mean(block, "success")
    return row


# --- theory experiments: certificate-study, rip1-study, f-curves ----------------

_STUDY_FIELDS = ["experiment", "row_type", "n", "m", "trial", "seed", "field"]
_CERTIFICATE_FIELDS = _STUDY_FIELDS + (
    "beta dist_tangent opnorm_complement truncated_fraction pass pass_rate".split()
)
_RIP1_FIELDS = _STUDY_FIELDS + ["delta_observed", "rank2_min_ratio"]
_F_CURVE_FIELDS = ["experiment", "row_type", "field", "t", "f_closed", "mc_mean", "mc_stderr"]


def _certificate_grid(cfg: ExperimentConfig) -> list[dict]:
    return [{"m": m} for m in cfg.m or [2 * cfg.n, 8 * cfg.n, 32 * cfg.n]]


def _certificate_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> dict:
    seed = child_seed(cfg.seed, gi, t, 1)
    ens = sample_ensemble(cfg.n, point["m"], f"{cfg.field}-gaussian", seed)
    x = np.zeros(cfg.n, DTYPES[cfg.field])
    x[0] = 1.0
    Y, dropped = build_certificate(ens, x, beta=cfg.beta, truncate=True)
    rep = verify_certificate(Y, x)
    return {
        "seed": seed,
        "beta": cfg.beta,
        "dist_tangent": rep.dist_tangent,
        "opnorm_complement": rep.opnorm_complement,
        "truncated_fraction": dropped,
        "pass": rep.passed,
    }


def _certificate_summary(block: list[dict]) -> dict:
    return {
        "beta": block[0]["beta"],
        "dist_tangent": _median(block, "dist_tangent"),
        "opnorm_complement": _median(block, "opnorm_complement"),
        "pass_rate": _mean(block, "pass"),
    }


def _rip1_grid(cfg: ExperimentConfig) -> list[dict]:
    return [{"m": m} for m in sorted(cfg.m or [4 * cfg.n, 16 * cfg.n, 64 * cfg.n])]


def _rip1_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> dict:
    seed = child_seed(cfg.seed, gi, t, 1)
    rep = l1_isometry_check(cfg.field, cfg.n, point["m"], trials=100, seed=seed)
    return {
        "seed": seed,
        "delta_observed": rep.delta_observed,
        "rank2_min_ratio": rep.rank2_min_ratio,
    }


def _rip1_summary(block: list[dict]) -> dict:
    return {
        "delta_observed": _median(block, "delta_observed"),
        "rank2_min_ratio": min(r["rank2_min_ratio"] for r in block),
    }


def _f_curve_grid(cfg: ExperimentConfig) -> list[dict]:
    return [{"t": float(t)} for t in np.linspace(0.0, 1.0, 101)]


def _f_curve_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> dict:
    closed = rank2_l1_mean_real if cfg.field == REAL else rank2_l1_mean_complex
    seed = child_seed(cfg.seed, gi, t, 1)
    mean, stderr = rank2_l1_mc(point["t"], cfg.field, cfg.mc_samples, seed)
    return {"f_closed": float(closed(point["t"])), "mc_mean": mean, "mc_stderr": stderr}


class _Experiment(NamedTuple):
    fields: list[str]
    grid: Callable[[ExperimentConfig], list[dict]]
    trial: Callable[..., dict]
    grids: dict[str, int | None]  # config grids `grid` reads -> most values it uses (None: all)
    summary: Callable[[list[dict]], dict] | None = None
    trials: int | None = None  # trials per grid point, when fixed rather than cfg.trials


_EXPERIMENTS = {
    "snr-sweep": _Experiment(
        _RECOVERY_FIELDS, _snr_grid, _recovery_trial, {"m": 1, "snr_db": None}, _recovery_summary
    ),
    "oversampling-sweep": _Experiment(
        _RECOVERY_FIELDS,
        _oversampling_grid,
        _recovery_trial,
        {"m_over_n": None, "snr_db": 1},
        _recovery_summary,
    ),
    "phase-transition": _Experiment(
        _TRANSITION_FIELDS, _transition_grid, _recovery_trial, {"m_over_n": None}, _recovery_summary
    ),
    "certificate-study": _Experiment(
        _CERTIFICATE_FIELDS,
        _certificate_grid,
        _certificate_trial,
        {"m": None},
        _certificate_summary,
    ),
    "rip1-study": _Experiment(_RIP1_FIELDS, _rip1_grid, _rip1_trial, {"m": None}, _rip1_summary),
    "f-curves": _Experiment(_F_CURVE_FIELDS, _f_curve_grid, _f_curve_trial, {}, trials=1),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run an experiment, write its CSV (+ timing sidecar), return #failed trials."""
    cfg.validate()
    spec = _EXPERIMENTS[cfg.experiment]
    rows, timings = run_grid(cfg, spec.grid(cfg), spec.trial, spec.summary, spec.trials)
    write_csv(cfg.out, cfg, spec.fields, rows)
    _write_timing(cfg.out, timings)
    return sum(1 for r in rows if r["row_type"] == "trial" and r.get("converged") is False)
