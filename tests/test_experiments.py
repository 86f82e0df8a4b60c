"""Experiment runner tests: config parsing, seed discipline, and the
three table producers.

The aggregation paths are validated by independent recomputation: the
median rows of the sweep are rebuilt from scratch with the documented
seed fan-out, and the iterative table is checked against contraction
rates measured on a hand-tuned instance.
"""
import csv
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from fdridge import experiments, sketch
from fdridge.datasets import dump_libsvm, SparseRowMatrix
from fdridge.diagnostics import (DiagnosticsReport,
                                 classical_sketch_diagnostics,
                                 hessian_sketch_diagnostics)
from fdridge.experiments import (ACC_COLUMNS, ITER_COLUMNS,
                                 ITERATIVE_METHODS, STATISTICAL_METHODS,
                                 SWEEP_COLUMNS, SweepConfig, _config_comment,
                                 _fmt, _sweep_row, _sweep_values,
                                 child_seed, load_config, load_instance,
                                 run_bias_variance_sweep,
                                 run_iterative_experiment,
                                 run_sketch_accuracy, write_csv)
from fdridge.random_sketch import realize_gaussian
from fdridge.sketch import StreamingSketch, tail_masses
from fdridge.solvers import RidgeProblem


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
    # an override that is not text is passed through as it is
    assert load_config(None, overrides={"m": 8}).m == 8
    assert SweepConfig(seed=np.int64(3)).seed == 3  # a numpy integer counts


def test_load_config_error_positions(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 32\nbogus = 3\n")
    with pytest.raises(ValueError, match="bad.cfg:2.*bogus"):
        load_config(path)
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        load_config(path)
    # the SJLT's block count follows from m; it is no key
    path.write_text("sjlt_s = 8\n")
    with pytest.raises(ValueError,
                       match="bad.cfg:1: unknown config key 'sjlt_s'"):
        load_config(path)
    # a table's path is its command's --out; it is no key either
    path.write_text("out = x.csv\n")
    with pytest.raises(ValueError,
                       match="bad.cfg:1: unknown config key 'out'"):
        load_config(path)
    # a file value that does not parse is named by its line; --set's is not
    path.write_text("n = 32\nm = x\n")
    with pytest.raises(ValueError,
                       match="^.*bad.cfg:2: could not parse m = 'x'$"):
        load_config(path)
    with pytest.raises(ValueError, match="^could not parse trials = 'many'$"):
        load_config(None, overrides={"trials": "many"})
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(None, overrides={"zorp": "1"})
    with pytest.raises(ValueError, match="more than once.*'ifdrr:rfd'"):
        load_config(None, overrides={"methods": "ifdrr:rfd, ifdrr:rfd"})


def test_load_config_refuses_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("m = 128\nn = 64\nm = 64\n")
    with pytest.raises(ValueError,
                       match="twice.cfg:3: 'm' is already set on line 1$"):
        load_config(path)


# the list rule's message for a list key that is not a non-empty list
_NOT_A_LIST = " must be a non-empty tuple or list, got "
# (keywords, the message they must raise or None), run as kw0, kw1, ...
_INVALID_CONFIGS = [
    (dict(dataset="mystery"), None),
    (dict(m=0), None),
    (dict(trials=0), None),
    (dict(gammas=()), r"^gammas" + _NOT_A_LIST + r"\(\)$"),
    (dict(gammas=(0.0, 1.0)), None),
    (dict(methods=("zigzag",)), None),
    (dict(dataset="libsvm"), None),
    (dict(gammas=(1.0, math.inf)), None),
    (dict(dataset="gaussian-rff", n=0), None),
    (dict(dataset="gaussian-rff", raw_dim=0), None),
    (dict(dataset="libsvm", libsvm_path="data.txt", n=-2), None),
    (dict(dataset="gaussian-rff", d=0), None),
    (dict(dataset="libsvm", libsvm_path="data.txt", rff_features=-3), None),
    (dict(methods=("exact", "exact")), None),
    (dict(methods=("ifdrr:rfd", "ihs:gauss", "ifdrr:rfd")), None),
    (dict(m=2.5, methods=("fdrr",)), None),
    (dict(m=True, methods=("fdrr",)), None),
    (dict(trials=2.5), None),
    (dict(trials=True), None),
    (dict(dataset="gaussian-rff", n=2.5), None),
    (dict(dataset="gaussian-rff", raw_dim=True), None),
    (dict(dataset="libsvm", libsvm_path="data.txt", rff_features=2.5), None),
    # a seed is a count like the others: named, not truncated or read as 1
    (dict(seed=2.5), "^seed must be a non-negative integer"),
    (dict(seed=2.0), "^seed must be a non-negative integer"),
    (dict(seed=True), "^seed must be a non-negative integer"),
    (dict(seed=-1), "^seed must be a non-negative integer"),
    # checked when the config is built, not when the instance is loaded
    (dict(r=2.0), None),
    (dict(r=0.001, d=4), None),
    (dict(dataset="gaussian-rff", rff_gamma=-1.0), None),
    (dict(dataset="libsvm", libsvm_path="data.txt", rff_features=8,
          rff_gamma=0.0), None),
    # a list key that is no list is refused by name, not iterated
    (dict(gammas=1.0), "^gammas" + _NOT_A_LIST + "1.0$"),
    (dict(methods="fdrr"), "^methods" + _NOT_A_LIST + "'fdrr'$"),
    # rff_features = 0 keeps the raw features; None is no count
    (dict(dataset="libsvm", libsvm_path="data.txt", rff_features=None),
     "^rff_features must be a non-negative integer, got None$"),
    # every count is checked on every dataset, not only where it is read
    (dict(rff_features=None),
     "^rff_features must be a non-negative integer, got None$"),
    (dict(raw_dim=None), "^raw_dim must be a positive integer, got None$"),
    (dict(dataset="libsvm", libsvm_path="data.txt", d=0),
     "^d must be a positive integer, got 0$"),
    # a path that is not text is named, not read as an iterable of lines
    (dict(dataset="libsvm", libsvm_path=5), "^libsvm_path must be a path, got 5$"),
    (dict(dataset="libsvm", libsvm_path=b"data.txt"),
     "^libsvm_path must be a path, got b'data.txt'$"),
]


@pytest.mark.parametrize("kw,match", _INVALID_CONFIGS,
                         ids=[f"kw{i}" for i in range(len(_INVALID_CONFIGS))])
def test_config_validation(kw, match):
    with pytest.raises(ValueError, match=match):
        SweepConfig(**kw)


def test_config_refuses_an_empty_method_list():
    # refused when the config is built, not first by a runner
    empty = "^methods" + _NOT_A_LIST + r"\(\)$"
    with pytest.raises(ValueError, match=empty):
        SweepConfig(methods=())
    with pytest.raises(ValueError, match=empty):
        load_config(overrides={"methods": ""})


def test_list_keys_are_stored_as_tuples():
    config = SweepConfig(methods=["exact", "fdrr"], gammas=[2.0, 0.5])
    assert config.methods == ("exact", "fdrr")
    assert config.gammas == (0.5, 2.0)
    same = SweepConfig(methods=("exact", "fdrr"), gammas=(0.5, 2.0))
    assert hash(config) == hash(same)
    assert " methods=exact;fdrr " in _config_comment(config)


@pytest.mark.parametrize("field", [f for f in fields(SweepConfig)
                                   if f.default is not None],
                         ids=lambda f: f.name)
def test_each_key_reads_back_as_its_default_type(field):
    # a key's type is stated once, by its default: written as config
    # text and read back, every default comes back equal and of its type
    default = field.default
    text = (",".join(map(_fmt, default)) if isinstance(default, tuple)
            else _fmt(default))
    value = getattr(load_config(overrides={field.name: text}), field.name)
    assert value == default
    assert type(value) is type(default)
    if isinstance(default, tuple):
        assert list(map(type, value)) == list(map(type, default))


def test_gamma_grid_is_sorted_and_deduplicated_once(tmp_path):
    assert SweepConfig(gammas=(4.0, 1.0, 4.0)).gammas == (1.0, 4.0)
    tables = []
    for gammas in ((4.0, 1.0, 4.0), (1.0, 4.0)):
        out = tmp_path / "sweep.csv"
        run_bias_variance_sweep(small_config(
            gammas=gammas, methods=("exact", "fdrr", "hessian:gauss"),
            trials=2), out=out)
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


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
    # an os.PathLike path reads as its text does
    every, _, _ = load_instance(small_config(dataset="libsvm",
                                             libsvm_path=path, n=0))
    assert every.shape == (3, 3)
    # an n above the file's row count keeps every row
    above, y_above, _ = load_instance(small_config(
        dataset="libsvm", libsvm_path=str(path), n=7))
    assert np.array_equal(above, every)
    np.testing.assert_array_equal(y_above, [1.0, -1.0, 1.0])
    expanded = small_config(dataset="libsvm", libsvm_path=str(path), n=2,
                            rff_features=10)
    A2, _, _ = load_instance(expanded)
    assert A2.shape == (2, 10)


def test_load_instance_libsvm_densifies_only_kept_rows(tmp_path, traced_peak):
    # 4000 sparse rows of 200 features are 6.4 MB dense; n = 10 keeps
    # 16 kB.  The returned A and y own their data, so the call retains
    # about that much, not a view into every row of the file.
    rng = np.random.default_rng(1)
    n_file, d, n = 4000, 200, 10
    rows = [(np.sort(rng.choice(d, 3, replace=False)), rng.standard_normal(3))
            for _ in range(n_file)]
    path = tmp_path / "wide.txt"
    dump_libsvm(SparseRowMatrix(n_file, d, rows), rng.standard_normal(n_file),
                path)
    config = small_config(dataset="libsvm", libsvm_path=str(path), n=n)

    def load():
        load_instance(config)  # fills numpy's traced small-buffer cache
        before = tracemalloc.get_traced_memory()[0]
        A, y, _ = load_instance(config)
        return A, y, tracemalloc.get_traced_memory()[0] - before

    (A, y, retained), peak = traced_peak(load)
    assert A.shape == (n, d) and y.shape == (n,)
    assert A.flags.owndata and y.flags.owndata
    assert retained < 2 * (A.nbytes + y.nbytes)
    assert peak < n_file * d * 8


@pytest.mark.parametrize("index", [10 ** 12, 2 ** 61])
def test_load_instance_libsvm_refuses_a_dense_array_too_large(tmp_path, index):
    # index 10^12 asks numpy for 14.6 TiB (MemoryError), and 2^61 for
    # more than an array can hold ("array is too big", a ValueError); the
    # refusal names the file and the dense shape either way
    path = tmp_path / "wide.txt"
    path.write_text(f"1 1:1\n-1 {index}:1\n", encoding="utf-8")
    config = small_config(dataset="libsvm", libsvm_path=str(path), n=0)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a dense "
                       rf"2 x {index} array does not fit in memory$"):
        load_instance(config)


@pytest.mark.parametrize("text,missing", [
    ("", "samples"),
    ("1\n-1\n1\n", "features"),  # labels only: d = 0
])
def test_load_instance_libsvm_refuses_an_empty_instance(tmp_path, text,
                                                        missing):
    # the file, not a config key, is named, and no runner reaches a NaN
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    config = small_config(dataset="libsvm", libsvm_path=str(path), n=0,
                          methods=("single:gauss", "ifdrr:fd"), m=4)
    match = rf"^{re.escape(str(path))} has no {missing}$"
    with pytest.raises(ValueError, match=match):
        load_instance(config)
    with pytest.raises(ValueError, match=match):
        run_iterative_experiment(config, t=2)
    with pytest.raises(ValueError, match=match):
        run_sketch_accuracy(config)


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


def test_relative_errors():
    # a method's trials x gammas array: its moments, then their relative
    # errors against the exact estimator's, NaN where the base is zero
    base = DiagnosticsReport(bias_sq=2.0, var_trace=4.0)
    other = DiagnosticsReport(1.0, 6.0)
    values = _sweep_values([[base, other], [other, base]], [base, base])
    assert values.shape == (2, 2, 6)
    self_row = _sweep_row("exact", 1.0, values[0, 0], False)
    assert list(self_row) == list(SWEEP_COLUMNS)
    assert self_row["mse"] == 6.0
    assert self_row["rel_bias"] == 0.0
    assert self_row["rel_var"] == 0.0
    assert self_row["rel_mse"] == 0.0
    assert self_row["diverged"] == 0
    np.testing.assert_array_equal(values[1, 1], values[0, 0])
    np.testing.assert_allclose(values[0, 1, 3:], [0.5, 0.5, 1 / 6])
    np.testing.assert_array_equal(values[1, 0], values[0, 1])
    degenerate = DiagnosticsReport(0.0, 4.0)
    row = _sweep_values([[base]], [degenerate])[0, 0]
    assert math.isnan(row[3])
    assert row[4] == 0.0


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
    _, _, model = load_instance(config)
    for g in config.gammas:
        per_trial = []
        for trial in range(config.trials):
            seed = child_seed(config.seed, 1, 3, trial)
            S = realize_gaussian(8, 48, seed)
            per_trial.append(classical_sketch_diagnostics(model, S, g).mse)
        row = next(r for r in rows if r["gamma"] == g)
        assert row["mse"] == float(np.median(per_trial))


def test_sweep_rejects_iterative_methods():
    with pytest.raises(ValueError, match="one-shot"):
        run_bias_variance_sweep(small_config(methods=("ifdrr:fd",)))


def test_sweep_needs_known_weights():
    with pytest.raises(ValueError, match="known weights"):
        run_bias_variance_sweep(small_config(noise_sd=0.0))


def test_sweep_refuses_before_loading_the_instance(tmp_path):
    # a libsvm instance has no known weights, so its file is never read
    missing = tmp_path / "absent.txt"
    with pytest.raises(ValueError, match="known weights"):
        run_bias_variance_sweep(small_config(dataset="libsvm",
                                             libsvm_path=str(missing)))


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


def test_sweep_raw_rows_flag_their_own_trial(tmp_path, monkeypatch):
    # one Hessian-sketch draw reports an infinite variance: its raw rows
    # and the aggregate rows are flagged, the other draws' raw rows not
    trials = iter(range(3))  # the draws run in trial order

    def diagnostics(*args):
        reports = hessian_sketch_diagnostics(*args)
        if next(trials) == 1:
            reports = [DiagnosticsReport(rep.bias_sq, math.inf)
                       for rep in reports]
        return reports

    monkeypatch.setattr(experiments, "hessian_sketch_diagnostics",
                        diagnostics)
    out = tmp_path / "sweep.csv"
    config = small_config(methods=("exact", "hessian:gauss"), trials=3)
    rows = run_bias_variance_sweep(config, raw=True, out=out)
    flagged = {(r["method"], r["diverged"]) for r in rows}
    assert flagged == {("exact", 0), ("hessian:gauss", 1)}
    lines = (tmp_path / "sweep.csv.raw.csv").read_text().splitlines()[3:]
    raw = list(csv.DictReader(lines))
    assert len(raw) == 3 * len(config.gammas)
    for row in raw:
        assert row["diverged"] == ("1" if row["trial"] == "1" else "0"), row


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


def test_iterate_flags_divergence_at_the_last_iteration():
    # the gamma = 1e-3 cell trips the guard at iteration 4: a run of
    # t = 4 keeps 3 finite values, a NaN last and the flag, while a run
    # one iteration shorter never reaches the guard
    config = small_config(n=64, d=16, m=4, gammas=(1e-3, 10.0),
                          methods=("ifdrr:fd",), trials=1)
    for t, flag in ((4, 1), (3, 0)):
        rows = run_iterative_experiment(config, t=t)
        tripped = [r for r in rows if r["gamma"] == 1e-3]
        assert [r["diverged"] for r in tripped] == [flag] * t
        errors = [r["log10_error"] for r in tripped]
        assert all(math.isfinite(e) for e in errors[:3])
        assert math.isnan(errors[-1]) == bool(flag)
        assert all(r["diverged"] == 0 and math.isfinite(r["log10_error"])
                   for r in rows if r["gamma"] == 10.0)


def test_iterate_units_do_not_depend_on_method_order(tmp_path):
    # each (method, gamma index, trial) unit seeds from its key alone, so
    # listing the methods in reverse moves no value; only the settings
    # line, which names the methods as given, differs
    methods = ("ifdrr:fd", "ihs:gauss", "ihs:sjlt", "single:gauss")
    written = []
    for order in (methods, methods[::-1]):
        out = tmp_path / f"{order[0]}.csv"
        rows = run_iterative_experiment(
            small_config(methods=order, trials=2, m=12), t=3, out=out)
        lines = out.read_bytes().splitlines(keepends=True)
        written.append((rows, lines[:1] + lines[2:]))
    assert written[0] == written[1]


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


def _instance_scans(monkeypatch, config, runs):
    """The finiteness scans (``_first_nonfinite_row`` calls) on arrays of
    the shape of ``config``'s instance during each call in ``runs``."""
    shape = load_instance(config)[0].shape
    shapes = []
    scan = sketch._first_nonfinite_row

    def counting(rows):
        shapes.append(rows.shape)
        return scan(rows)

    monkeypatch.setattr(sketch, "_first_nonfinite_row", counting)
    counts = []
    for run in runs:
        shapes.clear()
        run()
        counts.append(shapes.count(shape))
    return counts


def test_iterate_checks_the_instance_a_fixed_number_of_times(monkeypatch):
    # the draws and refinement steps reuse the checked instance, so more
    # trials and iterations add no scan of it
    methods = ("ifdrr:fd", "ihs:gauss", "ihs:sjlt", "single:gauss",
               "single:sjlt")
    few, many = _instance_scans(monkeypatch, small_config(), [
        lambda: run_iterative_experiment(
            small_config(methods=methods, trials=1), t=2),
        lambda: run_iterative_experiment(
            small_config(methods=methods, trials=3), t=4)])
    assert few == many > 0


def test_iterate_builds_one_problem_for_its_grid(monkeypatch):
    # one RidgeProblem serves every gamma: A is checked and A^T y formed
    # once for the grid, not once per gamma
    built = []
    post_init = RidgeProblem.__post_init__

    def counting(self):
        built.append(self.gamma)
        return post_init(self)

    monkeypatch.setattr(RidgeProblem, "__post_init__", counting)
    config = small_config(methods=("ifdrr:fd",), gammas=(0.5, 2.0, 8.0))
    scans = _instance_scans(monkeypatch, config,
                            [lambda: run_iterative_experiment(config, t=2)])
    assert built == [0.5]
    # the problem, the reference operator, and sketch_matrix's A and the
    # rows it streams through extend
    assert scans == [4]


def test_sketch_accuracy_checks_the_instance_a_fixed_number_of_times(
        monkeypatch):
    few, many = _instance_scans(monkeypatch, small_config(), [
        lambda: run_sketch_accuracy(small_config(trials=1)),
        lambda: run_sketch_accuracy(small_config(trials=3))])
    assert few == many > 0


def test_sweep_checks_the_instance_a_fixed_number_of_times(monkeypatch):
    # every diagnostics call reads the instance's one model, which checks
    # A and forms its row masses on the first call only, so more draws
    # add no scan of A and no second pass for the masses
    config = small_config(methods=STATISTICAL_METHODS)
    masses = []
    row_masses = sketch._row_masses

    def counting(rows):
        masses.append(rows.shape)
        return row_masses(rows)

    monkeypatch.setattr("fdridge.diagnostics._row_masses", counting)
    few, many = _instance_scans(monkeypatch, config, [
        lambda: run_bias_variance_sweep(small_config(
            methods=STATISTICAL_METHODS, trials=1)),
        lambda: run_bias_variance_sweep(small_config(
            methods=STATISTICAL_METHODS, trials=3))])
    assert few == many > 0
    assert masses == [(48, 16)] * 2


@pytest.mark.parametrize("dataset", ["synthetic", "gaussian-rff"])
def test_load_instance_scans_no_data(monkeypatch, dataset):
    # the model takes A as given and checks it on its first diagnostics
    # call, so loading an instance, for any runner, scans A not at all
    config = small_config(dataset=dataset)
    scans = _instance_scans(monkeypatch, config,
                            [lambda: load_instance(config)])
    assert scans == [0]
    assert load_instance(config)[2] is not None


def test_iterate_refuses_a_zero_exact_solution(tmp_path):
    # all-zero labels give A^T y = 0, so x* = 0 at every gamma and the
    # relative error |x_i - x*| / |x*| has no value
    path = tmp_path / "data.txt"
    dump_libsvm(SparseRowMatrix(3, 2, [(np.array([0]), np.array([1.0])),
                                       (np.array([1]), np.array([2.0])),
                                       (np.array([0, 1]), np.ones(2))]),
                np.zeros(3), path)
    config = small_config(dataset="libsvm", libsvm_path=str(path),
                          methods=("ifdrr:rfd", "single:gauss"), m=2)
    with pytest.raises(ValueError, match="relative error is undefined"):
        run_iterative_experiment(config, t=2)


def test_iterate_validation():
    for t in (0, 2.5, True):
        with pytest.raises(ValueError, match="^t must be a positive integer"):
            run_iterative_experiment(small_config(methods=("ihs:gauss",)), t=t)
    with pytest.raises(ValueError, match="iterative"):
        run_iterative_experiment(small_config(methods=("exact",)), t=2)


def test_iterate_randomized_median_runs():
    config = small_config(methods=("ihs:gauss", "single:gauss"), m=32,
                          gammas=(2.0,), trials=2)
    rows = run_iterative_experiment(config, t=4)
    assert len(rows) == 8
    again = run_iterative_experiment(config, t=4)
    assert rows == again


def test_sketch_accuracy_bounds():
    # d = 12 < m = 16: the sketches are lossless, and k stops at d - 1,
    # below the zero tail (and zero bound) at k = d.  At r = 0.25 the tail
    # at k = 11 falls below the roundoff of forming A^T A.
    for d, r, ks in ((32, 0.25, 16), (12, 0.5, 12), (12, 0.25, 12)):
        config = small_config(n=128, d=d, r=r, m=16, trials=3,
                              methods=STATISTICAL_METHODS[:1])
        rows = run_sketch_accuracy(config)
        per_method = {}
        for row in rows:
            per_method.setdefault(row["method"], []).append(row)
        assert set(per_method) == {"fd", "rfd", "gauss", "sjlt"}
        for name, group in per_method.items():
            assert [r["k"] for r in group] == list(range(ks))
            assert all(set(r) == set(ACC_COLUMNS) for r in group)
        # the deterministic sketches must honor their guarantee at every k
        for name in ("fd", "rfd"):
            assert all(r["within_bound"] == 1 for r in per_method[name])
        for fd_row, rfd_row in zip(per_method["fd"], per_method["rfd"]):
            assert rfd_row["bound"] == pytest.approx(fd_row["bound"] / 2.0)
        # spectral error of the robust variant never exceeds the plain one
        assert per_method["rfd"][0]["spectral_error"] <= \
            per_method["fd"][0]["spectral_error"]


def test_sketch_accuracy_draws_an_sjlt_at_any_m():
    # sketch-acc compares every flavor whatever the config's methods say
    rows = run_sketch_accuracy(small_config(m=12, trials=2,
                                            methods=("exact",)))
    assert {row["method"] for row in rows} == {"fd", "rfd", "gauss", "sjlt"}


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
