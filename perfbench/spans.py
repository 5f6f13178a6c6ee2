"""In-memory span tracing of the phaselift layers, installed from outside.

`Tracer.install()` replaces each public function listed in `LAYERS` by a
wrapper that records one span per call: layer name, start, end, parent
span and trial id.  The package imports names by value
(`from .measurement import apply_measurement`), so the wrapper is bound
wherever a phaselift module holds the original function object, not only
in the defining module; otherwise calls from `solver`, `recovery`,
`certificate` and `experiments` would go untraced.  `uninstall()` puts
every original back.  Spans stay in memory; at the end of the run they
are written out once and reduced to per-layer metrics, a layer's self
time being its span's duration minus its direct child spans'.
"""

from __future__ import annotations

import io
import sys
from time import perf_counter

import numpy as np


def _field_flops(ens, real_per_mn2: float, complex_per_mn2: float, real_mn: float, complex_mn: float) -> float:
    m, n = ens.vectors.shape
    if np.iscomplexobj(ens.vectors):
        return complex_per_mn2 * m * n * n + complex_mn * m * n
    return real_per_mn2 * m * n * n + real_mn * m * n


def _forward_flops(args, out) -> float:
    # (Z.conj() @ X) is an (m,n)x(n,n) product; then an elementwise product and a row sum.
    return _field_flops(args[0], 2.0, 8.0, 2.0, 8.0)


def _adjoint_flops(args, out) -> float:
    # (Z * y) scaling, then an (n,m)x(m,n) product; the n x n symmetrisation is ignored.
    return _field_flops(args[0], 2.0, 8.0, 1.0, 2.0)


def _iterations(args, out) -> float:
    return float(out.iterations)


def _converged(args, out) -> float:
    return 1.0 if out.converged else 0.0


#: (module, function, span name, extra value recorded from the call).
LAYERS = (
    ("measurement", "apply_measurement", "measurement.forward", _forward_flops),
    ("measurement", "apply_adjoint", "measurement.adjoint", _adjoint_flops),
    ("measurement", "sample_ensemble", "measurement.sample_ensemble", None),
    ("measurement", "add_noise", "measurement.add_noise", None),
    ("solver", "prox_psd_trace", "solver.prox", None),
    ("solver", "estimate_lipschitz", "solver.lipschitz", None),
    ("solver", "solve_regularized", "solver.probe", _iterations),
    ("solver", "solve_constrained", "solver.solve", _converged),
    ("hermitian", "eig", "hermitian.eig", None),
    ("recovery", "recover", "recovery.recover", None),
    ("certificate", "build_certificate", "certificate.build", None),
    ("certificate", "verify_certificate", "certificate.verify", None),
    ("analysis", "l1_isometry_check", "analysis.l1_isometry", None),
    ("analysis", "rank2_l1_mc", "analysis.rank2_mc", None),
    ("experiments", "write_csv", "experiments.write_csv", None),
    ("experiments", "run_experiment", "experiments.run", None),
)

#: Trial id of spans recorded while a workload's inputs are generated.
SETUP = -1


class Tracer:
    """Span recorder for one traced run; spans live in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.trials: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.extras: list[float] = []
        self.trial = SETUP
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, extra):
        names, parents, trials = self.names, self.parents, self.trials
        starts, ends, extras, stack = self.starts, self.ends, self.extras, self._stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            trials.append(tracer.trial)
            ends.append(0.0)
            extras.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if extra is not None:
                extras[i] = extra(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Bind a tracing wrapper wherever a phaselift module holds a listed function."""
        modules = [m for k, m in sys.modules.items() if k == "phaselift" or k.startswith("phaselift.")]
        for mod_name, attr, span, extra in LAYERS:
            original = getattr(sys.modules.get(f"phaselift.{mod_name}"), attr, None)
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with self time = duration minus direct children's durations."""
        parent = np.asarray(self.parents, dtype=np.int64)
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.asarray(self.names),
            "parent": parent,
            "trial": np.asarray(self.trials, dtype=np.int64),
            "start": start,
            "dur": dur,
            "self": dur - child,
            "extra": np.asarray(self.extras),
        }

    def to_npz(self) -> bytes:
        buf = io.BytesIO()
        np.savez_compressed(buf, **self.arrays())
        return buf.getvalue()

    def counts(self, trial: int) -> dict[str, int]:
        """Deterministic counts of one trial: calls per span, plus solver iterations."""
        counts: dict[str, int] = {}
        iterations = 0.0
        for name, tr, extra in zip(self.names, self.trials, self.extras):
            if tr == trial:
                counts[name] = counts.get(name, 0) + 1
                if name == "solver.probe":
                    iterations += extra
        counts["solver.iterations"] = int(iterations)
        return dict(sorted(counts.items()))


def layer_metrics(tracer: Tracer, n_trials: int) -> dict[str, float]:
    """Per-layer metrics of trials 0..n_trials-1; times and calls are per trial.

    sample_ensemble and add_noise also count the traced set-up, which
    generates the inputs of exactly those trials.
    """
    A = tracer.arrays()
    name, parent, trial, dur = A["name"], A["parent"], A["trial"], A["dur"]
    in_trials = (trial >= 0) & (trial < n_trials)

    def sel(span, setup=False):
        return (name == span) & (in_trials | (setup & (trial == SETUP)))

    def child_of(child, parent_span):
        return sel(child) & np.isin(parent, np.flatnonzero(name == parent_span))

    def ratio(a, b) -> float:
        return float(a) / float(b) if b else 0.0

    def p50_ms(mask) -> float:
        return float(np.median(dur[mask]) * 1e3) if mask.any() else 0.0

    out = {}
    for span in ("measurement.forward", "measurement.adjoint", "solver.prox"):
        s = sel(span)
        out[f"{span}.calls"] = s.sum() / n_trials
        out[f"{span}.ms_p50"] = p50_ms(s)
        out[f"{span}.s"] = dur[s].sum() / n_trials
        if span.startswith("measurement."):
            out[f"{span}.gflops"] = ratio(A["extra"][s].sum(), dur[s].sum()) / 1e9
    for span in ("measurement.sample_ensemble", "measurement.add_noise"):
        out[f"{span}.s"] = dur[sel(span, setup=True)].sum() / n_trials
    for span in (
        "solver.lipschitz",
        "hermitian.eig",
        "recovery.recover",
        "certificate.build",
        "certificate.verify",
        "analysis.l1_isometry",
        "analysis.rank2_mc",
        "experiments.write_csv",
    ):
        out[f"{span}.s"] = dur[sel(span)].sum() / n_trials
    for span in ("hermitian.eig", "certificate.build"):
        out[f"{span}.calls"] = sel(span).sum() / n_trials

    probes, solves = sel("solver.probe"), sel("solver.solve")
    iters = A["extra"][probes].sum()
    out["solver.probes_per_solve"] = ratio(probes.sum(), solves.sum())
    out["solver.iters_per_probe"] = ratio(iters, probes.sum())
    out["solver.iters_per_solve"] = ratio(iters, solves.sum())
    out["solver.forward_per_iter"] = ratio(child_of("measurement.forward", "solver.probe").sum(), iters)
    out["solver.restarts_per_solve"] = ratio(child_of("solver.prox", "solver.probe").sum() - iters, solves.sum())
    out["solver.lipschitz.forward_calls"] = child_of("measurement.forward", "solver.lipschitz").sum() / n_trials
    out["solver.probe.self_s"] = A["self"][probes].sum() / n_trials
    out["solver.converged_share"] = ratio(A["extra"][solves].sum(), solves.sum())
    out["experiments.overhead_s"] = A["self"][sel("experiments.run")].sum() / n_trials
    return {k: float(v) for k, v in out.items()}
