"""Batch experiments emitting deterministic CSV, all through one grid driver.

Every experiment is a grid of points, k seeded trials per point and at most
one summary row per point; it declares only its default axes, its trial and
summary functions, and `run_experiment` does the rest.  A point holds the
columns fixed over its block of trials (m, and for the recovery experiments
snr_db and the noise model in effect); f-curves is one point with no columns,
whose one trial returns a row per t.  Each trial draws from its own substream
keyed by (seed, grid index, trial), trials run in a worker pool, and rows are
written in grid order, so re-runs produce byte-identical CSVs.  A summary row
covers only the trial rows directly above it.  Wall-clock timings go to a
sidecar file (<out>.timing.csv) to keep the main CSV reproducible.
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
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.n < 1 or self.trials < 1 or self.max_iters < 1:
            raise ConfigError("n, trials and max_iters must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.mc_samples < 1000:
            raise ConfigError(f"mc_samples must be at least 1000, got {self.mc_samples}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        spec = _EXPERIMENTS[self.experiment]
        for name, axis in {"m": spec.ratios, "m_over_n": spec.ratios, "snr_db": spec.snrs}.items():
            grid = getattr(self, name)
            if grid is not None and axis is None:
                raise ConfigError(f"{self.experiment} does not read grid {name}")
            if grid is not None and len(grid) == 0:
                raise ConfigError(f"grid {name} must be nonempty")
            if name != "snr_db" and min(grid or [1]) < 1:
                raise ConfigError(f"grid {name} entries must be positive")
            if grid is not None and len(set(map(float, grid))) < len(grid):
                raise ConfigError(f"grid {name} repeats an entry: {grid}")
        if self.m is not None and self.m_over_n is not None:
            raise ConfigError("give grid m or grid m_over_n, not both")
        snrs = self.snr_db or spec.snrs or ()
        if any(np.isnan(s) or np.isneginf(s) for s in snrs):
            raise ConfigError("grid snr_db entries must be finite or inf")
        if self.noise == "none" and any(np.isfinite(snrs)):
            raise ConfigError("noise none with a finite snr_db mislabels rows; use --snr-db inf")
        if self.n < 2 and self.experiment in ("certificate-study", "rip1-study"):
            raise ConfigError(f"{self.experiment} needs n >= 2, got n={self.n}")
        if self.experiment == "rip1-study" and min(self.m or [self.n]) < self.n:
            raise ConfigError(f"rip1-study needs grid m entries >= n={self.n}, got {min(self.m)}")
        for path in (self.out, self.out + ".timing.csv"):  # the CSV and its timing sidecar
            if not os.path.basename(path) or os.path.isdir(path):
                raise ConfigError(f"output path {path!r} does not name a file")
        folder = os.path.dirname(self.out) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ConfigError(f"output directory {folder!r} does not exist or is not writable")
        _workers()  # a non-integer PHASELIFT_THREADS fails here, before any trial runs

    def digest(self) -> str:
        """Hash of every field except `out`, so one config hashes the same at any path."""
        fields = {k: v for k, v in asdict(self).items() if k != "out"}
        blob = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Check config values (a file's, a command line's or both) and build the config."""
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("an experiment is required (--experiment or a config file's)")
        for key, value in raw.items():
            # `experiment` has no default and is checked against "" as a string
            if _wrong_type(getattr(cls, key, ""), value, GRID_ITEMS.get(key, int)()):
                raise ConfigError(f"config key {key!r} has the wrong type: {value!r}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str, **overrides) -> "ExperimentConfig":
        """The JSON file's values with `overrides` on top, checked by `from_dict`."""
        with open(path) as fh:
            raw = json.load(fh)
        if type(raw) is not dict:
            raise ConfigError(f"config file {path} must hold a JSON object, not {type(raw).__name__}")
        return cls.from_dict({**raw, **overrides})


def _wrong_type(default, value, item=0.0) -> bool:
    """Whether a JSON value cannot replace `default`; a bool is never a number.

    A float field takes an int or a float, a grid (default None) null or a
    list of values that could replace `item` (ints for the m grids), and any
    other field a value of its default's type.
    """
    if default is None:
        return value is not None and (
            type(value) is not list or any(_wrong_type(item, v) for v in value)
        )
    return type(value) not in ((int, float) if type(default) is float else (type(default),))


def _workers() -> int:
    """The worker pool size from PHASELIFT_THREADS; unset or <= 0 means one."""
    value = os.environ.get("PHASELIFT_THREADS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        raise ConfigError(f"PHASELIFT_THREADS must be an integer, got {value!r}") from None


def _map_trials(fn, args_list):
    workers = _workers()
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


def _mean(rows: list[dict], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _median(rows: list[dict], key: str) -> float:
    return float(np.median([r[key] for r in rows]))


# --- recovery experiments: snr-sweep, oversampling-sweep, phase-transition ------

_RECOVERY_FIELDS = (
    "experiment row_type snr_db n m trial seed noise field rel_mse rel_rms rel_mse_debiased "
    "rel_rms_debiased matrix_err_fro eps residual lambda iterations converged"
).split()
_TRANSITION_FIELDS = _RECOVERY_FIELDS + ["success", "success_rate"]


def _recovery_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> dict:
    """One end-to-end trial: signal, ensemble, noise, solve, extract."""
    sig_seed, ens_seed, noise_seed = (child_seed(cfg.seed, gi, t, s) for s in range(3))
    rng = substream(sig_seed, 6)
    x = rng.standard_normal(cfg.n)
    if cfg.field != REAL:
        x = x + 1j * rng.standard_normal(cfg.n)
    ens = sample_ensemble(cfg.n, point["m"], f"{cfg.field}-unit-sphere", ens_seed)
    data = add_noise(intensities(ens, x), point["noise"], point["snr_db"], noise_seed)
    rep = solve_constrained(ens, data, max_iters=cfg.max_iters)
    res = recover(rep.X_hat, x_true=x)
    err_deb = rel_mse(x, res.x_hat_debiased)
    return {
        "seed": sig_seed,
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
    keys = "rel_mse rel_rms rel_mse_debiased rel_rms_debiased".split()
    row = {key: _mean(block, key) for key in keys}
    row["success_rate"] = _mean(block, "success")
    return row


# --- theory experiments: certificate-study, rip1-study, f-curves ----------------

_STUDY_FIELDS = ["experiment", "row_type", "n", "m", "trial", "seed", "field"]
_CERTIFICATE_FIELDS = _STUDY_FIELDS + (
    "beta dist_tangent opnorm_complement truncated_fraction pass pass_rate".split()
)
_RIP1_FIELDS = _STUDY_FIELDS + ["delta_observed", "rank2_min_ratio"]
_F_CURVE_FIELDS = ["experiment", "row_type", "field", "t", "f_closed", "mc_mean", "mc_stderr"]


def _certificate_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> dict:
    seed = child_seed(cfg.seed, gi, t, 1)
    ens = sample_ensemble(cfg.n, point["m"], f"{cfg.field}-gaussian", seed)
    x = np.zeros(cfg.n, DTYPES[cfg.field])
    x[0] = 1.0
    Y, dropped = build_certificate(ens, x, beta=cfg.beta)
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


def _f_curve_trial(cfg: ExperimentConfig, point: dict, gi: int, t: int) -> list[dict]:
    """One row per t in [0, 1], all 101 evaluated on one Monte Carlo draw."""
    closed = rank2_l1_mean_real if cfg.field == REAL else rank2_l1_mean_complex
    ts = np.linspace(0.0, 1.0, 101)
    mc = zip(ts, *rank2_l1_mc(ts, cfg.field, cfg.mc_samples, child_seed(cfg.seed, gi, t, 1)))
    return [dict(t=x, f_closed=float(closed(x)), mc_mean=mu, mc_stderr=se) for x, mu, se in mc]


class _Experiment(NamedTuple):
    fields: list[str]
    trial: Callable[..., dict | list[dict]]  # a trial's row, or (f-curves) its rows
    summary: Callable[[list[dict]], dict] | None
    ratios: tuple[int, ...] | None  # default m/n axis; None: one point with no columns
    snrs: tuple[float, ...] | None = None  # default SNR axis in dB; None: no SNR axis
    trials: int | None = None  # trials per grid point, when fixed rather than cfg.trials


_EXPERIMENTS = {
    "snr-sweep": _Experiment(
        _RECOVERY_FIELDS, _recovery_trial, _recovery_summary, (6,), (5, 25, 50, 75, 100)
    ),
    "oversampling-sweep": _Experiment(
        _RECOVERY_FIELDS, _recovery_trial, _recovery_summary, (5, 6, 8, 10, 14, 18, 22), (15,)
    ),
    "phase-transition": _Experiment(
        _TRANSITION_FIELDS, _recovery_trial, _recovery_summary, (1, 2, 3, 4, 5, 6), (np.inf,)
    ),
    "certificate-study": _Experiment(
        _CERTIFICATE_FIELDS, _certificate_trial, _certificate_summary, (2, 8, 32)
    ),
    "rip1-study": _Experiment(_RIP1_FIELDS, _rip1_trial, _rip1_summary, (4, 16, 64)),
    "f-curves": _Experiment(_F_CURVE_FIELDS, _f_curve_trial, None, None, trials=1),
}

#: The allowed values of the fields that name a choice, and the item type of each grid.
CHOICES = {"experiment": tuple(_EXPERIMENTS), "field": tuple(DTYPES), "noise": NOISE_MODELS}
GRID_ITEMS = {"m": int, "m_over_n": int, "snr_db": float}


def _points(cfg: ExperimentConfig, spec: _Experiment) -> list[dict]:
    """Every m paired with every SNR the experiment reads, each axis ascending.

    m is `cfg.m`, else `cfg.m_over_n` or the default ratios times n; the
    SNRs are `cfg.snr_db` or the defaults.  A recovery point also names
    its noise model: `cfg.noise`, or "none" where the SNR is inf.
    """
    if spec.ratios is None:
        return [{}]
    ms = sorted(cfg.m or [int(r * cfg.n) for r in cfg.m_over_n or spec.ratios])
    if spec.snrs is None:
        return [{"m": m} for m in ms]
    snrs = sorted(map(float, cfg.snr_db or spec.snrs))
    noise = {s: cfg.noise if np.isfinite(s) else "none" for s in snrs}
    return [{"m": m, "snr_db": s, "noise": noise[s]} for m in ms for s in snrs]


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run an experiment, write its CSV (+ timing sidecar), return #failed trials.

    `spec.trial(cfg, point, gi, t)` returns the measured columns of trial
    t at point index gi, drawn from `child_seed(cfg.seed, gi, t, stream)`.
    A row also carries the experiment, row type, n, field and the point's
    columns, whose "k=v" pairs form the timing key.
    """
    cfg.validate()
    spec = _EXPERIMENTS[cfg.experiment]
    points = _points(cfg, spec)
    k = spec.trials or cfg.trials

    def timed(args):
        t0 = time.perf_counter()
        measured = spec.trial(cfg, *args)
        return measured, (time.perf_counter() - t0) * 1e3

    results = _map_trials(timed, [(p, gi, t) for gi, p in enumerate(points) for t in range(k)])
    rows, timings = [], []
    for gi, point in enumerate(points):
        base = {"experiment": cfg.experiment, "n": cfg.n, "field": cfg.field, **point}
        key = ",".join(f"{name}={value}" for name, value in point.items())
        block = []
        for t, (measured, ms) in enumerate(results[gi * k : (gi + 1) * k]):
            for row in measured if isinstance(measured, list) else [measured]:
                block.append({**base, "row_type": "trial", "trial": t, **row})
            timings.append((cfg.experiment, key, t, ms))
        rows += block
        if spec.summary is not None:
            rows.append({**base, "row_type": "summary", **spec.summary(block)})
    write_csv(cfg.out, cfg, spec.fields, rows)
    with open(cfg.out + ".timing.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "key", "trial", "wall_time_ms"])
        writer.writerows(timings)
    return sum(1 for row in rows if row.get("converged") is False)
