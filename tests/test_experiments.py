"""Experiment runner tests: config parsing, seed discipline, and the
three table producers.

The aggregation paths are validated by independent recomputation: the
median rows of the sweep are rebuilt from scratch with the documented
seed fan-out, and the iterative table is checked against contraction
rates measured on a hand-tuned instance.
"""
import math

import numpy as np
import pytest

from fdridge.datasets import dump_libsvm, SparseRowMatrix
from fdridge.diagnostics import (classical_sketch_diagnostics,
                                 optimal_diagnostics, with_relatives)
from fdridge.experiments import (ACC_COLUMNS, ConfigError, ITER_COLUMNS,
                                 ITERATIVE_METHODS, STATISTICAL_METHODS,
                                 SWEEP_COLUMNS, SweepConfig, child_seed,
                                 load_config, load_instance,
                                 run_bias_variance_sweep,
                                 run_iterative_experiment,
                                 run_sketch_accuracy, write_csv)
from fdridge.random_sketch import GaussianSketchSpec, realize_gaussian
from fdridge.sketch import StreamingSketch, tail_masses


def small_config(**kw):
    base = dict(dataset="synthetic", n=48, d=16, r=0.25, noise_sd=1.0,
                m=8, gammas=(0.5, 2.0), methods=("exact", "fdrr"),
                trials=3, seed=0)
    base.update(kw)
    return SweepConfig(**base)


def test_load_config_defaults():
    assert load_config() == SweepConfig()


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# compare one-shot estimators\n"
        "n = 64\n"
        "d = 16  # keep it small\n"
        "r = 0.5\n"
        "gammas = 2^-8, 0.5, 2\n"
        "methods = exact, fdrr\n"
        "\n"
        "trials = 4\n")
    config = load_config(path)
    assert config.n == 64 and config.d == 16
    assert config.r == 0.5
    assert config.gammas == (2.0 ** -8, 0.5, 2.0)
    assert config.methods == ("exact", "fdrr")
    assert config.trials == 4
    assert config.m == SweepConfig().m  # untouched defaults survive


def test_config_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nn = 32\nd = 8\nr = 0.5\n")
    config = load_config(path, overrides={"seed": "7"})
    assert config.seed == 7
    assert config.n == 32


def test_load_config_error_positions(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 32\nbogus = 3\n")
    with pytest.raises(ConfigError, match="bad.cfg:2.*bogus"):
        load_config(path)
    path.write_text("just words\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(None, overrides={"trials": "many"})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, overrides={"zorp": "1"})


@pytest.mark.parametrize("kw", [
    dict(dataset="mystery"),
    dict(m=0),
    dict(trials=0),
    dict(gammas=()),
    dict(gammas=(0.0, 1.0)),
    dict(methods=("zigzag",)),
    dict(dataset="libsvm"),
    dict(methods=("classical:sjlt",), sjlt_s=7, m=256),
    dict(gammas=(1.0, math.inf)),
    dict(dataset="gaussian-rff", n=0),
])
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        SweepConfig(**kw)


def test_child_seed_is_stable_and_order_sensitive():
    assert child_seed(0, 1, 2) == child_seed(0, 1, 2)
    assert child_seed(0, 1, 2) != child_seed(0, 2, 1)
    assert child_seed(0, 1) != child_seed(1, 1)


def test_load_instance_synthetic():
    A, y, model = load_instance(small_config())
    assert A.shape == (48, 16)
    assert y.shape == (48,)
    assert np.linalg.norm(model.truth) == pytest.approx(1.0, rel=1e-12)
    _, _, silent = load_instance(small_config(noise_sd=0.0))
    assert silent is None


def test_load_instance_rff():
    config = small_config(dataset="gaussian-rff", n=30, d=24, raw_dim=4,
                          rff_gamma=0.5)
    A, y, model = load_instance(config)
    assert A.shape == (30, 24)
    assert np.all(np.abs(A) <= math.sqrt(2.0 / 24) + 1e-15)
    assert np.linalg.norm(model.truth) == pytest.approx(1.0, rel=1e-12)
    again, y2, _ = load_instance(config)
    assert np.array_equal(A, again) and np.array_equal(y, y2)


def test_load_instance_libsvm(tmp_path):
    rng = np.random.default_rng(0)
    rows = [(np.array([0, 2]), rng.standard_normal(2)),
            (np.array([1]), rng.standard_normal(1)),
            (np.array([0, 1, 2]), rng.standard_normal(3))]
    path = tmp_path / "data.txt"
    dump_libsvm(SparseRowMatrix(3, 3, rows), np.array([1.0, -1.0, 1.0]), path)
    config = small_config(dataset="libsvm", libsvm_path=str(path), n=2)
    A, y, model = load_instance(config)
    assert A.shape == (2, 3)
    assert model is None
    np.testing.assert_array_equal(y, [1.0, -1.0])
    expanded = small_config(dataset="libsvm", libsvm_path=str(path), n=2,
                            rff_features=10)
    A2, _, _ = load_instance(expanded)
    assert A2.shape == (2, 10)


def test_sweep_exact_baseline_is_zero():
    rows = run_bias_variance_sweep(small_config(methods=("exact",)))
    assert len(rows) == 2
    for row in rows:
        assert row["rel_bias"] == 0.0
        assert row["rel_var"] == 0.0
        assert row["rel_mse"] == 0.0
        assert row["bias_sq"] > 0.0
        assert row["diverged"] == 0
    assert [row["gamma"] for row in rows] == [0.5, 2.0]


def test_sweep_rows_are_sorted_and_complete():
    config = small_config(methods=("hessian:gauss", "exact", "fdrr"))
    rows = run_bias_variance_sweep(config)
    assert len(rows) == 6
    keys = [(row["method"], row["gamma"]) for row in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert set(row) == set(SWEEP_COLUMNS)


def test_sweep_median_matches_hand_rebuild():
    # Rebuild the classical:gauss medians from the documented seed
    # fan-out: children of (seed, sweep tag 1, method index 3, trial).
    config = small_config(methods=("classical:gauss",))
    rows = run_bias_variance_sweep(config)
    A, _, model = load_instance(config)
    for g in config.gammas:
        base = optimal_diagnostics(A, model, g)
        per_trial = []
        for trial in range(config.trials):
            seed = child_seed(config.seed, 1, 3, trial)
            S = realize_gaussian(GaussianSketchSpec(m=8, n=48, seed=seed))
            rep = with_relatives(
                classical_sketch_diagnostics(A, S, model, g), base)
            per_trial.append(rep.mse)
        row = next(r for r in rows if r["gamma"] == g)
        assert row["mse"] == float(np.median(per_trial))


def test_sweep_rejects_iterative_methods():
    with pytest.raises(ConfigError, match="one-shot"):
        run_bias_variance_sweep(small_config(methods=("ifdrr:fd",)))


def test_sweep_needs_known_weights():
    with pytest.raises(ConfigError, match="known weights"):
        run_bias_variance_sweep(small_config(noise_sd=0.0))


def test_sweep_writes_tables(tmp_path):
    out = tmp_path / "sweep.csv"
    config = small_config(methods=("exact", "classical:gauss"), trials=2)
    rows = run_bias_variance_sweep(config, raw=True, out=out)
    text = out.read_text().splitlines()
    comments = [line for line in text if line.startswith("# ")]
    assert len(comments) == 3
    header = text[len(comments)]
    assert header == ",".join(SWEEP_COLUMNS)
    assert len(text) == len(comments) + 1 + len(rows)
    raw_text = (tmp_path / "sweep.csv.raw.csv").read_text().splitlines()
    raw_header = raw_text[3]
    assert "trial" in raw_header.split(",")
    # per-trial table holds trials x gammas rows for the random method
    assert len(raw_text) == 3 + 1 + 2 * 2

    run_bias_variance_sweep(config, raw=True, out=out)
    assert out.read_text().splitlines() == text


def test_sweep_jobs_do_not_change_results():
    config = small_config(methods=("classical:gauss", "hessian:gauss"),
                          trials=4)
    assert (run_bias_variance_sweep(config, jobs=1)
            == run_bias_variance_sweep(config, jobs=4))


def test_iterate_lossless_converges_immediately():
    config = small_config(n=32, d=8, r=0.5, m=64,
                          methods=("ifdrr:fd", "ifdrr:rfd"),
                          gammas=(0.5, 4.0))
    rows = run_iterative_experiment(config, t=3)
    assert len(rows) == 12
    for row in rows:
        assert row["log10_error"] <= -10.0
        assert row["diverged"] == 0
    keys = [(r["method"], r["gamma"], r["iteration"]) for r in rows]
    assert keys == sorted(keys)
    assert set(rows[0]) == set(ITER_COLUMNS)


def test_iterate_contraction_at_quarter_budget():
    # gamma tuned so tail(k) / ((m - k) gamma) = 1/4 at k = 8, m = 16:
    # every iteration must then shrink the error by at least 3x until
    # the 1e-12 floor.
    config = SweepConfig(dataset="synthetic", n=256, d=64, r=0.15,
                         noise_sd=2.0, m=16, seed=5, methods=("ifdrr:fd",),
                         gammas=(1.0,), trials=1)
    A, _, _ = load_instance(config)
    gamma = float(tail_masses(A)[8]) / 2.0
    config = SweepConfig(dataset="synthetic", n=256, d=64, r=0.15,
                         noise_sd=2.0, m=16, seed=5, methods=("ifdrr:fd",),
                         gammas=(gamma,), trials=1)
    rows = run_iterative_experiment(config, t=10)
    errs = [row["log10_error"] for row in rows]
    for prev, cur in zip(errs, errs[1:]):
        if prev <= -12.0 or cur <= -12.0:
            continue
        assert prev - cur >= math.log10(3.0) - 1e-6


def test_iterate_records_divergence():
    config = SweepConfig(dataset="synthetic", n=64, d=16, r=0.3,
                         noise_sd=2.0, m=8, seed=1, gammas=(1e-6,),
                         methods=("single:gauss",), trials=3)
    rows = run_iterative_experiment(config, t=6)
    assert len(rows) == 6
    assert all(row["diverged"] == 1 for row in rows)
    assert any(math.isnan(row["log10_error"]) for row in rows)


def test_iterate_streams_each_instance_once(monkeypatch):
    # One sketch serves every ifdrr cell, whatever the mode and gamma;
    # randomized methods never build one.
    streamed = []
    extend = StreamingSketch.extend

    def counting(self, rows):
        streamed.append(len(rows))
        return extend(self, rows)

    monkeypatch.setattr(StreamingSketch, "extend", counting)
    config = small_config(methods=("ifdrr:fd", "ifdrr:rfd"), gammas=(0.5, 2.0))
    rows = run_iterative_experiment(config, t=3)
    assert len(rows) == 12
    assert sum(streamed) == config.n
    streamed.clear()
    run_iterative_experiment(
        small_config(methods=("ihs:gauss", "single:gauss"), m=32), t=2)
    assert sum(streamed) == 0


def test_iterate_validation():
    with pytest.raises(ConfigError, match="positive"):
        run_iterative_experiment(small_config(methods=("ihs:gauss",)), t=0)
    with pytest.raises(ConfigError, match="iterative"):
        run_iterative_experiment(small_config(methods=("exact",)), t=2)


def test_iterate_randomized_median_runs():
    config = small_config(methods=("ihs:gauss", "single:gauss"), m=32,
                          gammas=(2.0,), trials=2)
    rows = run_iterative_experiment(config, t=4, jobs=2)
    assert len(rows) == 8
    again = run_iterative_experiment(config, t=4)
    assert rows == again


def test_sketch_accuracy_bounds():
    config = small_config(n=128, d=32, m=16, trials=3,
                          methods=STATISTICAL_METHODS[:1])
    rows = run_sketch_accuracy(config)
    per_method = {}
    for row in rows:
        per_method.setdefault(row["method"], []).append(row)
    assert set(per_method) == {"fd", "rfd", "gauss", "sjlt"}
    for name, group in per_method.items():
        assert [r["k"] for r in group] == list(range(16))
        assert all(set(r) == set(ACC_COLUMNS) for r in group)
    # the deterministic sketches must honor their guarantee at every k
    for name in ("fd", "rfd"):
        assert all(r["within_bound"] == 1 for r in per_method[name])
    for fd_row, rfd_row in zip(per_method["fd"], per_method["rfd"]):
        assert rfd_row["bound"] == pytest.approx(fd_row["bound"] / 2.0)
    # spectral error of the robust variant never exceeds the plain one
    assert per_method["rfd"][0]["spectral_error"] <= \
        per_method["fd"][0]["spectral_error"]


def test_sketch_accuracy_writes_table(tmp_path):
    out = tmp_path / "acc.csv"
    config = small_config(n=64, d=16, m=8, trials=2)
    rows = run_sketch_accuracy(config, out=out)
    lines = out.read_text().splitlines()
    assert lines[3] == ",".join(ACC_COLUMNS)
    assert len(lines) == 3 + 1 + len(rows)
    run_sketch_accuracy(config, out=out)
    assert out.read_text().splitlines() == lines


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "fmt.csv"
    rows = [{"a": "name", "b": 3, "c": 0.1},
            {"a": "x", "b": float("nan"), "c": float("-inf")}]
    write_csv(path, ("a", "b", "c"), rows, comments=("first", "second"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# first"
    assert lines[1] == "# second"
    assert lines[2] == "a,b,c"
    assert lines[3] == "name,3,0.10000000000000001"
    assert lines[4] == "x,nan,-inf"


def test_method_tables_are_disjoint():
    assert not set(STATISTICAL_METHODS) & set(ITERATIVE_METHODS)
