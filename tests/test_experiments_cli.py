import csv
import dataclasses
import json

import numpy as np
import pytest

import phaselift.analysis
from phaselift._rng import child_seed
from phaselift.analysis import rank2_l1_mc
from phaselift.cli import build_parser, config_from_args, main
from phaselift.experiments import (
    CHOICES,
    ConfigError,
    ExperimentConfig,
    _recovery_trial,
    run_experiment,
)


def read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                fh2 = [line] + fh.readlines()
                reader = csv.DictReader(fh2)
                rows = list(reader)
                break
    return comments, rows


class TestConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope").validate()

    def test_empty_grid(self):
        cfg = ExperimentConfig(experiment="oversampling-sweep", m_over_n=[])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_field_and_noise(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="snr-sweep", field="quaternion").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="snr-sweep", noise="salt-and-pepper").validate()

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "f-curves", "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    def test_from_file_rejects_wrong_types(self, tmp_path):
        path = tmp_path / "cfg.json"
        ok = {"experiment": "snr-sweep", "beta": 3, "snr_db": [20, 40.5], "m": None}
        path.write_text(json.dumps(ok))
        ExperimentConfig.from_file(str(path)).validate()
        wrong = [
            ("n", "8"), ("n", 8.0), ("trials", True), ("beta", "3"), ("field", 1),
            ("snr_db", [20, "inf"]), ("m", 64), ("m_over_n", [True]), ("experiment", 1),
        ]
        for key, value in wrong:
            path.write_text(json.dumps({"experiment": "snr-sweep", key: value}))
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_file(str(path))
        path.write_text(json.dumps({"experiment": "snr-sweep", "n": "8"}))
        assert main(["--config", str(path)]) == 2

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(["experiment"]))
        with pytest.raises(ConfigError, match="JSON object"):
            ExperimentConfig.from_file(str(path))
        assert main(["--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("certificate-study", "m", [16.5]),
            ("certificate-study", "m", [16.0]),
            ("phase-transition", "m_over_n", [2.5]),
            ("phase-transition", "m_over_n", [2, False]),
        ],
    )
    def test_m_grids_must_hold_ints(self, experiment, key, value, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        path.write_text(json.dumps({"experiment": experiment, "n": 4, "trials": 1, key: value}))
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_file(str(path))
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_digest_changes_with_config(self):
        a = ExperimentConfig(experiment="f-curves", seed=1)
        b = ExperimentConfig(experiment="f-curves", seed=2)
        assert a.digest() != b.digest()

    def test_digest_ignores_output_path(self, tmp_path):
        hashes = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_experiment(ExperimentConfig(experiment="f-curves", mc_samples=1000, out=str(out)))
            comments, _ = read_csv(out)
            hashes.append([c for c in comments if c.startswith("# config_sha256=")])
        assert hashes[0] == hashes[1] and len(hashes[0]) == 1


class TestFCurves:
    def test_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        cfg = ExperimentConfig(
            experiment="f-curves", field="real", mc_samples=1000, seed=3, out=str(out1)
        )
        run_experiment(cfg)
        first = out1.read_bytes()
        run_experiment(cfg)
        assert out1.read_bytes() == first
        comments, rows = read_csv(out1)
        assert any("schema=" in c for c in comments)
        assert any("config_sha256=" in c for c in comments)
        assert len(rows) == 101
        for key in ("t", "f_closed", "mc_mean", "mc_stderr"):
            assert key in rows[0]
        # closed form and Monte Carlo agree loosely even at this sample count
        for row in rows[::20]:
            assert abs(float(row["mc_mean"]) - float(row["f_closed"])) <= 6 * float(
                row["mc_stderr"]
            )

    def test_timing_sidecar_written(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = ExperimentConfig(experiment="f-curves", mc_samples=1000, out=str(out))
        run_experiment(cfg)
        assert (tmp_path / "c.csv.timing.csv").exists()

    def test_one_draw_per_run(self, tmp_path, monkeypatch):
        draws = []
        original = phaselift.analysis._draw_gaussian

        def counted(*args):
            draws.append(args)
            return original(*args)

        monkeypatch.setattr(phaselift.analysis, "_draw_gaussian", counted)
        cfg = ExperimentConfig(experiment="f-curves", mc_samples=1000, out=str(tmp_path / "d.csv"))
        run_experiment(cfg)
        assert len(draws) == 1
        _, rows = read_csv(tmp_path / "d.csv")
        assert len(rows) == 101
        # its one trial writes one sidecar row
        assert len((tmp_path / "d.csv.timing.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_t_zero_row_is_the_scalar_estimate(self, tmp_path, field):
        out = tmp_path / "e.csv"
        cfg = ExperimentConfig(experiment="f-curves", field=field, mc_samples=2000, seed=7, out=str(out))
        run_experiment(cfg)
        _, rows = read_csv(out)
        mean, stderr = rank2_l1_mc(0.0, field, 2000, child_seed(7, 0, 0, 1))
        assert rows[0]["t"] == "0.0"
        assert (rows[0]["mc_mean"], rows[0]["mc_stderr"]) == (repr(mean), repr(stderr))


class TestRecoverySweeps:
    def test_noiseless_snr_sweep_recovers(self, tmp_path):
        out = tmp_path / "snr.csv"
        cfg = ExperimentConfig(
            experiment="snr-sweep",
            n=16,
            trials=1,
            snr_db=[float("inf")],
            seed=4,
            out=str(out),
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        trial = [r for r in rows if r["row_type"] == "trial"][0]
        assert float(trial["rel_mse"]) <= 1e-6
        assert trial["noise"] == "none"

    def test_high_snr_solves_meet_eps(self, tmp_path):
        # eps at 160 dB is ~1e-8 * ||b||; the Newton probes reach it with a met stop rule
        out = tmp_path / "s160.csv"
        argv = ["--experiment", "snr-sweep", "--n", "8", "--trials", "2", "--snr-db", "160"]
        assert main(argv + ["--seed", "5", "--out", str(out), "--strict"]) == 0
        _, rows = read_csv(out)
        trials = [r for r in rows if r["row_type"] == "trial"]
        assert len(trials) == 2
        for r in trials:
            assert r["converged"] == "1"
            assert float(r["residual"]) <= float(r["eps"])

    def test_high_snr_solves_take_few_probes(self, tmp_path, monkeypatch):
        # a warm-started probe may not end on the step rule before its first gap check, else
        # Newton crawls to eps in hundreds of one-iteration probes
        import phaselift.experiments as experiments
        import phaselift.solver as solver

        per_solve = []
        solve, probe = experiments.solve_constrained, solver.solve_regularized

        def counted_solve(*args, **kwargs):
            per_solve.append(0)
            return solve(*args, **kwargs)

        def counted_probe(*args, **kwargs):
            per_solve[-1] += 1
            return probe(*args, **kwargs)

        monkeypatch.setattr(experiments, "solve_constrained", counted_solve)
        monkeypatch.setattr(solver, "solve_regularized", counted_probe)
        argv = ["--experiment", "snr-sweep", "--n", "8", "--trials", "2", "--snr-db", "160"]
        assert main(argv + ["--seed", "5", "--out", str(tmp_path / "s160.csv"), "--strict"]) == 0
        assert len(per_solve) == 2 and all(1 <= probes <= 10 for probes in per_solve)

    def test_summary_consistent_with_trials(self, tmp_path):
        out = tmp_path / "snr2.csv"
        cfg = ExperimentConfig(
            experiment="snr-sweep",
            n=8,
            trials=3,
            snr_db=[20.0],
            seed=5,
            out=str(out),
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        trials = [r for r in rows if r["row_type"] == "trial"]
        summary = [r for r in rows if r["row_type"] == "summary"][0]
        mean = np.mean([float(r["rel_rms"]) for r in trials])
        assert abs(float(summary["rel_rms"]) - mean) <= 1e-12

    def test_phase_transition_edges_and_monotonicity(self, tmp_path):
        out = tmp_path / "pt.csv"
        cfg = ExperimentConfig(
            experiment="phase-transition",
            n=16,
            m_over_n=[1, 2, 4, 6],
            trials=3,
            seed=6,
            out=str(out),
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        summaries = [r for r in rows if r["row_type"] == "summary"]
        rates = [float(r["success_rate"]) for r in summaries]
        assert rates[0] == 0.0  # m = n is information-theoretically hopeless
        assert rates[-1] >= 2 / 3
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_trial_row_holds_plain_python_values(self):
        # a phase-transition trial row serializes as is: no numpy scalar in rel_mse or success
        cfg = ExperimentConfig(experiment="phase-transition", n=4, trials=1, seed=3)
        row = _recovery_trial(cfg, {"m": 24, "snr_db": np.inf, "noise": "none"}, 0, 0)
        assert type(row["success"]) is bool
        assert type(row["rel_mse"]) is float and type(row["rel_mse_debiased"]) is float
        assert json.loads(json.dumps(row))["success"] is row["success"]

    def test_phase_transition_summary_covers_own_block(self, tmp_path):
        # each summary averages the success of its own block only (a repeated grid value,
        # which would make two blocks of one point, is a config error)
        out = tmp_path / "pt_blocks.csv"
        cfg = ExperimentConfig(
            experiment="phase-transition", n=8, m_over_n=[3, 4], trials=3, seed=6, out=str(out)
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        assert [r["row_type"] for r in rows] == (["trial"] * 3 + ["summary"]) * 2
        for block, summary in ((rows[0:3], rows[3]), (rows[4:7], rows[7])):
            mean = np.mean([float(r["success"]) for r in block])
            assert float(summary["success_rate"]) == pytest.approx(mean, abs=1e-15)

    def test_summary_noise_matches_trials(self, tmp_path):
        for experiment, extra in (
            ("snr-sweep", {"snr_db": [20.0, float("inf")]}),
            ("phase-transition", {"m_over_n": [3]}),
        ):
            out = tmp_path / f"{experiment}.csv"
            cfg = ExperimentConfig(
                experiment=experiment, n=8, trials=2, seed=1, out=str(out), **extra
            )
            run_experiment(cfg)
            _, rows = read_csv(out)
            for i, row in enumerate(rows):
                if row["row_type"] == "summary":
                    assert row["noise"] == rows[i - 1]["noise"] == rows[i - 2]["noise"]

    def test_oversampling_grid_rows(self, tmp_path):
        out = tmp_path / "ovs.csv"
        cfg = ExperimentConfig(
            experiment="oversampling-sweep",
            n=8,
            m_over_n=[4, 8],
            snr_db=[15.0],
            noise="poisson",
            trials=2,
            seed=7,
            out=str(out),
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        ms = sorted({int(r["m"]) for r in rows})
        assert ms == [32, 64]

    def test_worker_pool_writes_same_bytes(self, tmp_path, monkeypatch):
        out = tmp_path / "pool.csv"
        cfg = ExperimentConfig(
            experiment="phase-transition", n=8, m_over_n=[3, 6], trials=2, seed=6, out=str(out)
        )
        written = []
        for threads in ("1", "2", "0"):  # 0 or less means one worker
            monkeypatch.setenv("PHASELIFT_THREADS", threads)
            run_experiment(cfg)
            with open(f"{out}.timing.csv") as fh:
                timing_keys = [(r["experiment"], r["key"], r["trial"]) for r in csv.DictReader(fh)]
            written.append((out.read_bytes(), timing_keys))
        assert written[0] == written[1]

    def test_worker_pool_writes_same_bytes_at_a_krylov_shape(self, tmp_path, monkeypatch):
        # real n = 48 probes reach rank <= 2, where the capped prox takes its Krylov path; that
        # path may keep no state between calls, or two workers would write other bytes
        out = tmp_path / "pool.csv"
        cfg = ExperimentConfig(
            experiment="phase-transition", n=48, m_over_n=[6], field="real", trials=2, out=str(out)
        )
        qr, krylov = np.linalg.qr, []  # only the Krylov path calls qr

        def counted_qr(*args, **kwargs):
            krylov.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        written = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PHASELIFT_THREADS", threads)
            run_experiment(cfg)
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert krylov


class TestStudies:
    def test_certificate_study_pass_rate(self, tmp_path):
        out = tmp_path / "cert.csv"
        cfg = ExperimentConfig(
            experiment="certificate-study",
            n=16,
            m=[64, 256],
            field="real",
            trials=2,
            seed=8,
            out=str(out),
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        for r in rows:
            if r["row_type"] == "summary":
                assert 0.0 <= float(r["pass_rate"]) <= 1.0

    def test_rip1_rows_ordered(self, tmp_path):
        out = tmp_path / "rip.csv"
        cfg = ExperimentConfig(
            experiment="rip1-study",
            n=8,
            m=[64, 16, 32],
            field="real",
            trials=2,
            seed=9,
            out=str(out),
        )
        run_experiment(cfg)
        _, rows = read_csv(out)
        keys = [(int(r["n"]), int(r["m"])) for r in rows if r["row_type"] == "trial"]
        assert keys == sorted(keys)


_RECOVERY_HEADER = (
    "experiment row_type snr_db n m trial seed noise field rel_mse rel_rms rel_mse_debiased "
    "rel_rms_debiased matrix_err_fro eps residual lambda iterations converged"
).split()
_STUDY_HEADER = ["experiment", "row_type", "n", "m", "trial", "seed", "field"]
_PAIRED = ["trial", "summary", "trial", "summary"]

#: experiment -> (config, header, row_type sequence, seed column).  Seeds come
#: from SeedSequence, whose output does not depend on the platform.
CSV_FORMATS = {
    "snr-sweep": (
        dict(n=8, trials=1, snr_db=[30.0, float("inf")], field="real", noise="poisson", seed=2),
        _RECOVERY_HEADER,
        _PAIRED,
        ["10205131367261463271", "", "11668005675192817412", ""],
    ),
    "oversampling-sweep": (
        dict(n=8, m_over_n=[4, 8], snr_db=[15.0], noise="poisson", trials=1, seed=7),
        _RECOVERY_HEADER,
        _PAIRED,
        ["14849676447347996824", "", "1665402861058523971", ""],
    ),
    "phase-transition": (
        dict(n=8, m_over_n=[3, 6], trials=1, seed=6),
        _RECOVERY_HEADER + ["success", "success_rate"],
        _PAIRED,
        ["1292655779252876966", "", "2752493136690147319", ""],
    ),
    "certificate-study": (
        dict(n=16, m=[32, 128], trials=2, field="real", seed=8),
        _STUDY_HEADER
        + ["beta", "dist_tangent", "opnorm_complement", "truncated_fraction", "pass", "pass_rate"],
        ["trial", "trial", "summary"] * 2,
        [
            "1770640543075222001",
            "18007668463621282124",
            "",
            "11373900588583968950",
            "16081896081136168698",
            "",
        ],
    ),
    "rip1-study": (
        dict(n=8, m=[32, 16], trials=1, field="real", seed=9),
        _STUDY_HEADER + ["delta_observed", "rank2_min_ratio"],
        _PAIRED,
        ["7789369903381946508", "", "551248059288292157", ""],
    ),
    "f-curves": (
        dict(mc_samples=1000, seed=3, field="real"),
        ["experiment", "row_type", "field", "t", "f_closed", "mc_mean", "mc_stderr"],
        ["trial"] * 101,
        None,
    ),
}


@pytest.mark.parametrize("experiment", sorted(CSV_FORMATS))
def test_csv_format(experiment, tmp_path):
    params, header, row_types, seeds = CSV_FORMATS[experiment]
    out = tmp_path / "fmt.csv"
    cfg = ExperimentConfig(experiment=experiment, out=str(out), **params)
    run_experiment(cfg)
    first = out.read_bytes()
    _, rows = read_csv(out)
    assert list(rows[0]) == header
    assert [r["row_type"] for r in rows] == row_types
    assert all(r["experiment"] == experiment for r in rows)
    if seeds is not None:
        assert [r["seed"] for r in rows] == seeds
    run_experiment(cfg)
    assert out.read_bytes() == first


class TestCliEntry:
    def test_missing_experiment_is_config_error(self, capsys):
        assert main([]) == 2

    def test_bad_flag_value_is_config_error(self):
        assert main(["--experiment", "snr-sweep", "--trials", "0"]) == 2

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({"experiment": "f-curves", "mc_samples": 1000}))
        code = main(["--config", str(cfg_path), "--field", "complex", "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["field"] == "complex"

    @pytest.mark.parametrize(
        "experiment, flags, grid",
        [
            ("certificate-study", ["--snr-db", "20"], "snr_db"),
            ("rip1-study", ["--snr-db", "20"], "snr_db"),
            ("f-curves", ["--m", "16"], "m"),
            ("f-curves", ["--m-over-n", "2"], "m_over_n"),
            ("f-curves", ["--snr-db", "20"], "snr_db"),
        ],
    )
    def test_grid_the_experiment_would_drop_is_config_error(
        self, experiment, flags, grid, tmp_path, capsys
    ):
        out = tmp_path / "dropped.csv"
        argv = ["--experiment", experiment, "--n", "4", "--trials", "1", "--mc-samples", "1000"]
        assert main(argv + flags + ["--out", str(out)]) == 2
        assert f"grid {grid}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, flags, message",
        [
            ("phase-transition", ["--m-over-n", "0"], "grid m_over_n"),
            ("snr-sweep", ["--snr-db", "nan"], "grid snr_db"),
            ("snr-sweep", ["--snr-db", "20,-inf"], "grid snr_db"),
            ("certificate-study", ["--beta", "-1"], "beta must be > 0"),
            ("f-curves", ["--mc-samples", "500"], "at least 1000"),
            ("certificate-study", ["--n", "1"], "n >= 2"),
            ("rip1-study", ["--n", "1"], "n >= 2"),
            ("rip1-study", ["--m", "3"], "grid m entries >= n=4"),
            ("f-curves", ["--seed", "-1", "--mc-samples", "1000"], "seed must be nonnegative"),
            ("snr-sweep", ["--snr-db", "20", "--noise", "none"], "--snr-db inf"),
            ("rip1-study", ["--m", "8,8"], "grid m repeats an entry: [8, 8]"),
            ("oversampling-sweep", ["--m-over-n", "5,6,5"], "grid m_over_n repeats an entry"),
            ("snr-sweep", ["--snr-db", "20,20.0"], "grid snr_db repeats an entry"),
            ("snr-sweep", ["--snr-db", "inf,40,inf"], "grid snr_db repeats an entry"),
        ],
    )
    def test_value_that_would_write_wrong_rows_is_config_error(
        self, experiment, flags, message, tmp_path, capsys
    ):
        out = tmp_path / "wrong.csv"
        argv = ["--experiment", experiment, "--n", "4", "--trials", "1"]
        assert main(argv + flags + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "out, message",
        [
            ("missing/x.csv", "output directory 'missing'"),
            ("adir", "output path 'adir' does not name a file"),  # an existing directory
            ("adir/", "output path 'adir/' does not name a file"),
            ("new/", "output path 'new/' does not name a file"),
            ("", "output path '' does not name a file"),
            ("x.csv", "output path 'x.csv.timing.csv' does not name a file"),  # sidecar
        ],
    )
    def test_missing_output_directory_is_config_error(
        self, out, message, tmp_path, monkeypatch, capsys
    ):
        # a missing folder, an existing directory, a trailing separator, an empty path,
        # or a timing sidecar path that is an existing directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "x.csv.timing.csv").mkdir()
        argv = ["--experiment", "rip1-study", "--n", "4", "--trials", "1"]
        assert main(argv + ["--out", out]) == 2
        cfg_path = tmp_path / "cfg.json"
        raw = {"experiment": "rip1-study", "n": 4, "trials": 1, "out": out}
        cfg_path.write_text(json.dumps(raw))
        assert main(["--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.count(message) == 2
        # no CSV and no timing sidecar anywhere
        names = sorted(p.name for p in tmp_path.rglob("*"))
        assert names == ["adir", "cfg.json", "x.csv.timing.csv"]

    @pytest.mark.parametrize("threads", ["abc", "2.5"])
    def test_non_integer_thread_count_is_config_error(
        self, threads, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("PHASELIFT_THREADS", threads)
        argv = ["--experiment", "rip1-study", "--n", "4", "--trials", "1"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert f"PHASELIFT_THREADS must be an integer, got {threads!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_m_and_m_over_n_together_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "both.csv"
        argv = ["--experiment", "snr-sweep", "--n", "4", "--trials", "1", "--out", str(out)]
        assert main(argv + ["--m", "16", "--m-over-n", "2"]) == 2
        # the config file's grid and the flag's grid meet in one checked dict
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "snr-sweep", "m": [16]}))
        assert main(["--config", str(cfg_path), "--m-over-n", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("grid m_over_n") == 2
        assert not out.exists()

    def test_grid_is_product_of_ascending_axes(self, tmp_path):
        out = tmp_path / "product.csv"
        argv = ["--experiment", "snr-sweep", "--n", "4", "--trials", "1", "--out", str(out)]
        assert main(argv + ["--m", "24,16", "--snr-db", "inf,20"]) == 0
        _, rows = read_csv(out)
        points = [(int(r["m"]), float(r["snr_db"])) for r in rows]
        inf = float("inf")
        assert points == [p for p in [(16, 20.0), (16, inf), (24, 20.0), (24, inf)] for _ in (0, 1)]
        assert [r["row_type"] for r in rows] == ["trial", "summary"] * 4

    def test_grid_order_does_not_change_rows(self, tmp_path):
        bodies = []
        for grid in ("128,32", "32,128"):
            out = tmp_path / f"cert-{grid}.csv"
            argv = ["--experiment", "certificate-study", "--field", "real", "--n", "16"]
            assert main(argv + ["--m", grid, "--trials", "2", "--seed", "8", "--out", str(out)]) == 0
            # the `# config=` echo keeps the grid as given
            bodies.append([line for line in out.read_text().splitlines() if line[0] != "#"])
        assert bodies[0] == bodies[1]
        assert [line.split(",")[3] for line in bodies[0][1:]] == ["32"] * 3 + ["128"] * 3

    def test_strict_flags_unconverged_trials(self, tmp_path):
        out = tmp_path / "strict.csv"
        code = main(
            [
                "--experiment", "snr-sweep",
                "--n", "8",
                "--trials", "1",
                "--snr-db", "30",
                "--max-iters", "5",
                "--seed", "10",
                "--out", str(out),
                "--strict",
            ]
        )
        assert code == 3

    def test_strict_accepts_noiseless_recovery(self, tmp_path):
        out = tmp_path / "noiseless.csv"
        code = main(
            [
                "--experiment", "snr-sweep",
                "--n", "8",
                "--trials", "1",
                "--snr-db", "inf",
                "--out", str(out),
                "--strict",
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert [r["converged"] for r in rows if r["row_type"] == "trial"] == ["1"]

    def test_strict_flags_a_probe_cut_at_max_iters(self, tmp_path):
        out = tmp_path / "cut.csv"
        code = main(
            [
                "--experiment", "snr-sweep",
                "--n", "4",
                "--m", "13",
                "--snr-db", "20",
                "--trials", "1",
                "--seed", "11",
                "--max-iters", "10",
                "--out", str(out),
                "--strict",
            ]
        )
        assert code == 3
        _, rows = read_csv(out)
        assert [r["converged"] for r in rows if r["row_type"] == "trial"] == ["0"]

    def test_failure_count_is_the_csvs_count_of_unconverged_trials(self, tmp_path):
        # probes cut at max_iters = 10: every converged = 0 row is a failure in the count
        out = tmp_path / "count.csv"
        failed = run_experiment(
            ExperimentConfig(
                experiment="snr-sweep", n=4, m=[13, 16], snr_db=[20.0], trials=2, seed=2,
                max_iters=10, out=str(out),
            )
        )
        _, rows = read_csv(out)
        unconverged = [r for r in rows if r["row_type"] == "trial" and r["converged"] == "0"]
        assert unconverged and failed == len(unconverged)


def _argv(values):
    argv = []
    for key, value in values.items():
        text = ",".join(map(str, value)) if type(value) is list else str(value)
        argv += ["--" + key.replace("_", "-"), text]
    return argv


class TestGeneratedCli:
    def test_every_field_is_a_flag(self, tmp_path):
        values = {
            "experiment": "snr-sweep",
            "n": 8,
            "m": [16, 24],
            "m_over_n": [3, 5],
            "field": "real",
            "noise": "poisson",
            "snr_db": [20.5, float("inf")],
            "trials": 3,
            "seed": 7,
            "out": str(tmp_path / "x.csv"),
            "mc_samples": 2000,
            "beta": 4.5,
            "max_iters": 77,
        }
        fields = dataclasses.fields(ExperimentConfig)
        assert [f.name for f in fields] == list(values)
        assert all(values[f.name] != f.default for f in fields)
        args = build_parser().parse_args(_argv(values))
        assert {k: v for k, v in vars(args).items() if k not in ("config", "strict")} == values
        for grid in ("m", "m_over_n"):  # a valid config holds one of the two m grids
            one = {k: v for k, v in values.items() if k != grid}
            args = build_parser().parse_args(_argv(one))
            assert config_from_args(args) == ExperimentConfig.from_dict(one)

    def test_choices_come_from_the_schema(self):
        actions = build_parser()._actions
        assert {a.dest: tuple(a.choices) for a in actions if a.choices} == CHOICES
