"""phaselift benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload snr-sweep-n32 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  BLAS
and the experiment pool are pinned to one thread before numpy loads.

--trace 0 measures the end-to-end metrics: a closed loop of trials for
--seconds, and set-up (importing phaselift's modules plus generating
the inputs, repeated between the trials and the median kept).  --trace 1 runs the same loop
untraced for half the time, replays those trials with every layer
wrapped (see spans.py), replays trial 0 once more to check that its
counts repeat exactly, and reports the per-layer metrics.  Every trial
is checked; the last stdout line is the JSON result.

    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PHASELIFT_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))
# Bytecode is cached under OUT_DIR whatever the environment says, so that
# set-up never times a compile of phaselift's sources.
sys.dont_write_bytecode = False
sys.pycache_prefix = str(OUT_DIR / "pycache")

RUN_SECONDS = 30
#: Set-up repetitions: SETUP_BEFORE before the trial loop, the rest spread over it.
SETUP_REPEATS = 15
SETUP_BEFORE = 3
#: Cap on trials per loop; set-up prepares the inputs of this many.
MAX_TRIALS = 1000

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("trial_s_p50", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.25),
    ("ok_share", "share", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better); "/trial" means divided by the number of traced trials.
PER_LAYER = (
    ("measurement.forward.calls", "count/trial", "lower"),
    ("measurement.forward.ms_p50", "ms", "lower"),
    ("measurement.forward.s", "s/trial", "lower"),
    ("measurement.forward.gflops", "computed-GFLOP/s", "higher"),
    ("measurement.adjoint.calls", "count/trial", "lower"),
    ("measurement.adjoint.ms_p50", "ms", "lower"),
    ("measurement.adjoint.s", "s/trial", "lower"),
    ("measurement.adjoint.gflops", "computed-GFLOP/s", "higher"),
    ("measurement.sample_ensemble.s", "s/trial", "lower"),
    ("measurement.add_noise.s", "s/trial", "lower"),
    ("solver.prox.calls", "count/trial", "lower"),
    ("solver.prox.ms_p50", "ms", "lower"),
    ("solver.prox.s", "s/trial", "lower"),
    ("solver.probes_per_solve", "count", "lower"),
    ("solver.iters_per_probe", "count", "lower"),
    ("solver.iters_per_solve", "count", "lower"),
    ("solver.forward_per_iter", "ratio", "lower"),
    ("solver.restarts_per_solve", "count", "lower"),
    ("solver.lipschitz.s", "s/trial", "lower"),
    ("solver.lipschitz.forward_calls", "count/trial", "lower"),
    ("solver.probe.self_s", "s/trial", "lower"),
    ("solver.converged_share", "share", "higher"),
    ("hermitian.eig.calls", "count/trial", "lower"),
    ("hermitian.eig.s", "s/trial", "lower"),
    ("recovery.recover.s", "s/trial", "lower"),
    ("recovery.rel_mse_p50", "ratio", "lower"),
    ("recovery.err_over_eps_p50", "ratio", "lower"),
    ("certificate.build.calls", "count/trial", "lower"),
    ("certificate.build.s", "s/trial", "lower"),
    ("certificate.verify.s", "s/trial", "lower"),
    ("analysis.l1_isometry.s", "s/trial", "lower"),
    ("analysis.rank2_mc.s", "s/trial", "lower"),
    ("experiments.write_csv.s", "s/trial", "lower"),
    ("experiments.overhead_s", "s/trial", "lower"),
    ("setup.fresh_import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_share", "share", "higher"),
)

def write_spec() -> None:
    import workloads

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": cls.why} for n, cls in workloads.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


FRESH_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import phaselift; print(time.perf_counter() - t)"
)


def fresh_import_s(repeats: int = 5) -> float:
    """Median time for a fresh interpreter to import phaselift, numpy included."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=sys.pycache_prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", FRESH_IMPORT, str(SRC)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def is_setup_module(name: str) -> bool:
    return name in ("phaselift", "workloads") or name.startswith("phaselift.")


class SetupClock:
    """Set-up time: import phaselift's modules and generate the run's inputs.

    A repetition drops phaselift and `workloads` from sys.modules, imports
    them again and builds a fresh workload's inputs, then puts the
    original modules back, so the trials keep the objects they started
    with.  numpy stays loaded: a fresh interpreter's import wall time
    moved by a fifth between runs on the measuring VM, too much for a
    bound; the traced run reports it as `setup.fresh_import_s`.  The first
    repetition is discarded and the rest are spread over the trial loop
    (see `between`), so their median sees the machine the trials saw.
    """

    def __init__(self, workload: str, seed: int, count: int) -> None:
        self.args = (workload, seed, count)
        self.times: list[float] = []
        self.once()
        while len(self.times) < SETUP_BEFORE:
            self.times.append(self.once())

    def once(self) -> float:
        workload, seed, count = self.args
        saved = {k: m for k, m in sys.modules.items() if is_setup_module(k)}
        for k in saved:
            del sys.modules[k]
        try:
            t0 = perf_counter()
            importlib.import_module("phaselift")
            t1 = perf_counter()
            fresh = importlib.import_module("workloads")
            t2 = perf_counter()
            fresh.WORKLOADS[workload](str(OUT_DIR)).prepare(seed, count)
            return t1 - t0 + perf_counter() - t2
        finally:
            for k in [k for k in sys.modules if is_setup_module(k)]:
                del sys.modules[k]
            sys.modules.update(saved)
            gc.collect()  # module dicts are cycles; free the repetition before the next trial

    def between(self, done: float) -> None:
        """Called after each trial with the share of the loop that has passed."""
        target = min(SETUP_REPEATS, SETUP_BEFORE + int(done * (SETUP_REPEATS - SETUP_BEFORE)))
        while len(self.times) < target:
            self.times.append(self.once())

    def median(self) -> float:
        self.between(1.0)
        return statistics.median(self.times)


class Loop:
    """Closed loop: trial k+1 starts when trial k and its check are done."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.times: list[float] = []
        self.checks = []
        self.attempted = 0
        self.failed = 0

    def trial(self, k: int) -> None:
        self.attempted += 1
        try:
            t0 = perf_counter()
            out = self.wl.run(k)
            dt = perf_counter() - t0
            check = self.wl.check(k, out)
        except Exception:  # a raising trial is a failed trial; keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        self.times.append(dt)
        self.checks.append(check)
        print(f"# trial {k} {dt:.4f} s {'ok' if check.ok else 'FAILED'} {check.detail}")
        if not check.ok:
            self.failed += 1

    def for_seconds(self, seconds: float, between=None) -> None:
        """Run trials for `seconds`; time spent in `between(share_done)` extends the loop."""
        t_end = perf_counter() + seconds
        k = 0
        while k == 0 or (perf_counter() < t_end and k < MAX_TRIALS):
            self.trial(k)
            k += 1
            if between is not None:
                t0 = perf_counter()
                between(1.0 - (t_end - t0) / seconds)
                t_end += perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def measure(wl, args) -> tuple[dict, list[Loop], list[str]]:
    setup = SetupClock(args.workload, args.seed, MAX_TRIALS)
    loop = Loop(wl)
    loop.for_seconds(args.seconds, setup.between)
    setup_s = setup.median()
    print("# setup_s repetitions " + " ".join(f"{t:.4f}" for t in setup.times))
    metrics = {
        "setup_s": setup_s,
        "trial_s_p50": median_or_zero(loop.times),
        "trials_per_s": len(loop.times) / sum(loop.times) if loop.times else 0.0,
        "ok_share": (loop.attempted - loop.failed) / max(loop.attempted, 1),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, [loop], []


def measure_traced(wl, args) -> tuple[dict, list[Loop], list[str]]:
    """Untraced loop for half the time, traced replay of the same trials, then trial 0 again."""
    from spans import SETUP, Tracer, layer_metrics

    untraced = Loop(wl)
    untraced.for_seconds(args.seconds / 2)
    n_trials = untraced.attempted
    traced, replay = Loop(wl), Loop(wl)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.trial = SETUP
        wl.prepare(args.seed, n_trials)
        for k in range(n_trials):
            tracer.trial = k
            traced.trial(k)
        tracer.trial = n_trials
        replay.trial(0)
    finally:
        tracer.uninstall()
    OUT_DIR.joinpath(f"spans-{args.workload}-seed{args.seed}.npz").write_bytes(tracer.to_npz())

    problems = []
    first, again = tracer.counts(0), tracer.counts(n_trials)
    print("# counts trial=0 " + json.dumps(first))
    if first != again:
        problems.append(f"counts differ on the replay of trial 0: {again}")
    if tracer.missing:
        print(f"# spans not found in phaselift: {tracer.missing}")
    called = set(tracer.names)
    for span in wl.expected_spans:
        if span not in tracer.missing and span not in called:
            problems.append(f"span {span} was never called")

    metrics = layer_metrics(tracer, n_trials)
    metrics["recovery.rel_mse_p50"] = median_or_zero(c.rel_mse for c in traced.checks)
    metrics["recovery.err_over_eps_p50"] = median_or_zero(c.err_over_eps for c in traced.checks)
    traced_s = sum(traced.times)
    metrics["setup.fresh_import_s"] = fresh_import_s()
    metrics["trace.overhead_ratio"] = traced_s / sum(untraced.times) if untraced.times else 0.0
    accounted = sum(
        metrics[k]
        for k in (
            "measurement.forward.s",
            "measurement.adjoint.s",
            "solver.prox.s",
            "solver.probe.self_s",
            "recovery.recover.s",
        )
    )
    metrics["trace.accounted_share"] = accounted * n_trials / traced_s if traced_s else 0.0
    return metrics, [untraced, traced, replay], problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)

    import phaselift

    if not Path(phaselift.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"phaselift imported from {phaselift.__file__}, not from {SRC}")
    import workloads

    if args.write_spec:
        write_spec()
        return 0
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    wl = workloads.WORKLOADS[args.workload](str(OUT_DIR))
    try:
        wl.prepare(args.seed, MAX_TRIALS)
        if args.trace:
            metrics, loops, problems = measure_traced(wl, args)
            units = {n: u for n, u, _ in PER_LAYER}
        else:
            metrics, loops, problems = measure(wl, args)
            units = {n: u for n, u, _, _ in END_TO_END}
        problems += wl.run_problems([c for loop in loops for c in loop.checks])
    finally:
        wl.close()
    for msg in problems:
        print(f"# check failed: {msg}", file=sys.stderr)
    failed = sum(loop.failed for loop in loops)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
