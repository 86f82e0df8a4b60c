"""Experiment harness: config parsing, protocol runners, CSV output.

Three runners cover the standard protocols: a bias/variance sweep of
one-shot estimators over a regularizer grid, an error-vs-iteration study
of the iterative solvers, and a covariance-error comparison of the
sketches themselves.  All randomness derives from a single config seed
through numpy SeedSequence children, so every run is reproducible down to
the output bytes.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .datasets import SyntheticSpec, parse_libsvm, rff_expand, synthetic_regression
from .diagnostics import (LinearModelSpec, classical_sketch_diagnostics,
                          hessian_sketch_diagnostics, optimal_diagnostics,
                          sketched_diagnostics, with_relatives)
from .random_sketch import (GaussianSketchSpec, SjltSketchSpec,
                            realize_gaussian, realize_sjlt)
from .sketch import MODE_FD, MODE_RFD, MODES, StreamingSketch, tail_masses
from .solvers import DivergenceError, InverseOperator, RidgeProblem, refine


class ConfigError(ValueError):
    """Invalid experiment configuration."""


STATISTICAL_METHODS = ("exact", "fdrr", "rfdrr",
                       "classical:gauss", "classical:sjlt",
                       "hessian:gauss", "hessian:sjlt")
ITERATIVE_METHODS = ("ifdrr:fd", "ifdrr:rfd", "ihs:gauss", "ihs:sjlt",
                     "single:gauss", "single:sjlt")
ALL_METHODS = STATISTICAL_METHODS + ITERATIVE_METHODS

# Stable integer tags for seed derivation; order must never change, or
# archived runs stop being reproducible.
_METHOD_INDEX = {name: i for i, name in enumerate(ALL_METHODS)}
_DATA_TAG, _SWEEP_TAG, _ITER_TAG, _ACC_TAG = 0, 1, 2, 3

SWEEP_COLUMNS = ("method", "gamma", "bias_sq", "var_trace", "mse",
                 "rel_bias", "rel_var", "rel_mse", "diverged")
ITER_COLUMNS = ("method", "gamma", "iteration", "log10_error", "diverged")
ACC_COLUMNS = ("method", "m", "k", "spectral_error", "bound", "within_bound")


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one experiment instance and protocol.

    dataset selects the instance: "synthetic" (low effective rank, known
    weights), "gaussian-rff" (standard normal samples of dimension
    raw_dim pushed through random Fourier features to dimension d, with a
    planted unit-norm weight vector), or "libsvm" (read libsvm_path, keep
    the first n samples, optionally expand to rff_features dimensions).
    """

    dataset: str = "synthetic"
    n: int = 1024
    d: int = 512
    r: float = 0.15
    noise_sd: float = 2.0
    raw_dim: int = 8
    rff_gamma: float = 1.0
    rff_features: int | None = None
    libsvm_path: str | None = None
    m: int = 256
    gammas: tuple = tuple(2.0 ** k for k in range(-8, 7))
    methods: tuple = STATISTICAL_METHODS
    trials: int = 10
    seed: int = 0
    # Block count for the SJLT.  The construction requires sjlt_s | m, so
    # the default is the divisor of m = 256 closest to the usual choice 10.
    sjlt_s: int = 8
    out: str | None = None

    def __post_init__(self):
        if self.dataset not in ("synthetic", "gaussian-rff", "libsvm"):
            raise ConfigError(f"unknown dataset kind {self.dataset!r}")
        if self.m < 1:
            raise ConfigError(f"sketch size must be positive, got m={self.m}")
        if self.trials < 1:
            raise ConfigError(f"trial count must be positive, got {self.trials}")
        if not self.gammas:
            raise ConfigError("the regularizer grid is empty")
        bad_gammas = [g for g in self.gammas if not 0 < g < math.inf]
        if bad_gammas:
            raise ConfigError(
                f"gammas must be positive and finite, got {bad_gammas}")
        unknown = [meth for meth in self.methods if meth not in ALL_METHODS]
        if unknown:
            raise ConfigError(
                f"unknown methods {unknown}; valid names: {', '.join(ALL_METHODS)}")
        if self.dataset == "gaussian-rff" and self.n < 1:
            raise ConfigError(
                f"dataset 'gaussian-rff' needs n >= 1, got n={self.n}")
        if self.dataset == "libsvm" and not self.libsvm_path:
            raise ConfigError("dataset 'libsvm' needs libsvm_path")
        needs_sjlt = any(meth.endswith(":sjlt") for meth in self.methods)
        if needs_sjlt and (self.sjlt_s < 1 or self.m % self.sjlt_s != 0):
            raise ConfigError(
                f"sjlt_s must divide m, got sjlt_s={self.sjlt_s}, m={self.m}")


_INT_KEYS = {"n", "d", "raw_dim", "rff_features", "m", "trials", "seed", "sjlt_s"}
_FLOAT_KEYS = {"r", "noise_sd", "rff_gamma"}
_LIST_KEYS = {"gammas", "methods"}


def _parse_number(token: str) -> float:
    token = token.strip()
    if "^" in token:  # allow 2^-8 style grid entries
        base, _, exp = token.partition("^")
        return float(base) ** float(exp)
    return float(token)


def _coerce(key: str, value) -> object:
    if not isinstance(value, str):
        return value
    text = value.strip()
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _LIST_KEYS:
            items = [tok.strip() for tok in text.split(",") if tok.strip()]
            if key == "methods":
                return tuple(items)
            return tuple(_parse_number(tok) for tok in items)
    except ValueError:
        raise ConfigError(f"could not parse {key} = {text!r}") from None
    return text


def load_config(path=None, overrides: dict | None = None) -> SweepConfig:
    """Build a config from a ``key = value`` text file plus overrides.

    Lines are ``key = value``; ``#`` starts a comment.  List values are
    comma separated and numeric entries may use the 2^-8 power form.
    Overrides (e.g. from command-line flags) take precedence over the
    file, which takes precedence over defaults.
    """
    known = {f.name for f in fields(SweepConfig)}
    settings: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq or not key:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                settings[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        settings[key] = _coerce(key, value)
    return SweepConfig(**settings)


def child_seed(base: int, *key: int) -> int:
    """Deterministic child seed from the experiment seed and integer tags."""
    seq = np.random.SeedSequence([int(base)] + [int(k) for k in key])
    return int(seq.generate_state(1, np.uint64)[0])


def load_instance(config: SweepConfig):
    """Materialize (A, y, model); model is None without known weights."""
    if config.dataset == "synthetic":
        spec = SyntheticSpec(n=config.n, d=config.d, r=config.r,
                             noise_sd=config.noise_sd, seed=config.seed)
        A, y, truth = synthetic_regression(spec)
        model = (LinearModelSpec(truth, config.noise_sd)
                 if config.noise_sd > 0 else None)
        return A, y, model
    if config.dataset == "gaussian-rff":
        rng = np.random.default_rng(child_seed(config.seed, _DATA_TAG))
        X = rng.standard_normal((config.n, config.raw_dim))
        A = rff_expand(X, config.d, config.rff_gamma,
                       seed=child_seed(config.seed, _DATA_TAG, 1))
        truth = rng.standard_normal(config.d)
        truth /= np.linalg.norm(truth)
        y = A @ truth + config.noise_sd * rng.standard_normal(config.n)
        model = (LinearModelSpec(truth, config.noise_sd)
                 if config.noise_sd > 0 else None)
        return A, y, model
    matrix, labels = parse_libsvm(config.libsvm_path)
    A = matrix.toarray()
    y = labels
    if config.n and config.n < A.shape[0]:
        A, y = A[:config.n], y[:config.n]
    if config.rff_features:
        A = rff_expand(A, config.rff_features, config.rff_gamma,
                       seed=child_seed(config.seed, _DATA_TAG, 1))
    return A, y, None


def _realize(flavor: str, m: int, n: int, s: int, seed: int):
    if flavor == "gauss":
        return realize_gaussian(GaussianSketchSpec(m=m, n=n, seed=seed))
    if flavor == "sjlt":
        return realize_sjlt(SjltSketchSpec(m=m, n=n, s=s, seed=seed))
    raise ConfigError(f"unknown sketch flavor {flavor!r}")


def _sketch_both(A: np.ndarray, m: int) -> dict:
    """Stream A once through one sketch; its FD and RFD outputs by mode."""
    sk = StreamingSketch(m, A.shape[1])
    sk.extend(A)
    return {mode: sk.finalize(mode) for mode in MODES}


def _map_cells(cells, worker, jobs):
    if jobs <= 1:
        return {cell: worker(cell) for cell in cells}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {cell: pool.submit(worker, cell) for cell in cells}
        return {cell: fut.result() for cell, fut in futures.items()}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def _config_comment(config: SweepConfig) -> str:
    parts = []
    for f in sorted(fields(SweepConfig), key=lambda f: f.name):
        if f.name == "out":
            continue
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ";".join(_fmt(v) for v in value)
        parts.append(f"{f.name}={value}")
    return " ".join(parts)


def write_csv(path, columns, rows, comments=()) -> None:
    """Deterministic CSV: comment lines, header, then formatted rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in columns])


def _report_row(method, gamma, rep, diverged=0):
    return {"method": method, "gamma": gamma, "bias_sq": rep.bias_sq,
            "var_trace": rep.var_trace, "mse": rep.mse,
            "rel_bias": rep.rel_bias, "rel_var": rep.rel_var,
            "rel_mse": rep.rel_mse, "diverged": diverged}


def _median_row(method, gamma, trial_rows):
    row = {"method": method, "gamma": gamma}
    vals = {}
    for colm in ("bias_sq", "var_trace", "mse", "rel_bias", "rel_var", "rel_mse"):
        vals[colm] = np.array([tr[colm] for tr in trial_rows], dtype=float)
        row[colm] = float(np.median(vals[colm]))
    row["diverged"] = int(any(not np.isfinite(v).all() for v in vals.values()))
    return row


def run_bias_variance_sweep(config: SweepConfig, jobs: int = 1,
                            raw: bool = False, out=None) -> list:
    """Median bias/variance/MSE of one-shot estimators over the gamma grid.

    Writes the aggregated table to ``out`` when given (and the per-trial
    table alongside it with a .raw.csv suffix when ``raw``), returning the
    aggregated rows either way.  Rows are sorted by (method, gamma).
    """
    bad = [meth for meth in config.methods if meth not in STATISTICAL_METHODS]
    if bad:
        raise ConfigError(
            f"bias/variance sweep handles one-shot estimators only; cannot run {bad}")
    if not config.methods:
        raise ConfigError("no methods requested")
    A, y, model = load_instance(config)
    if model is None:
        raise ConfigError(
            "bias/variance diagnostics need an instance with known weights "
            "(synthetic or gaussian-rff with noise_sd > 0)")
    n = A.shape[0]
    gammas = sorted(set(config.gammas))
    baseline = optimal_diagnostics(A, model, gammas)

    def relative(reports):
        return [with_relatives(rep, base) for rep, base in zip(reports, baseline)]

    single = {"exact": relative(baseline)}
    if "fdrr" in config.methods or "rfdrr" in config.methods:
        sketches = _sketch_both(A, config.m)
        for meth, mode in (("fdrr", MODE_FD), ("rfdrr", MODE_RFD)):
            if meth in config.methods:
                single[meth] = relative(
                    sketched_diagnostics(A, sketches[mode], model, gammas))

    random_methods = [meth for meth in config.methods
                      if meth.startswith(("classical:", "hessian:"))]
    cells = [(meth, trial) for meth in random_methods
             for trial in range(config.trials)]

    def worker(cell):
        meth, trial = cell
        kind, _, flavor = meth.partition(":")
        seed = child_seed(config.seed, _SWEEP_TAG, _METHOD_INDEX[meth], trial)
        S = _realize(flavor, config.m, n, config.sjlt_s, seed)
        if kind == "classical":
            return relative(classical_sketch_diagnostics(A, S, model, gammas))
        return relative(hessian_sketch_diagnostics(A, S @ A, model, gammas))

    by_cell = _map_cells(cells, worker, jobs)

    rows = []
    raw_rows = []
    for meth in config.methods:
        if meth in single:
            rows += [_report_row(meth, g, rep)
                     for g, rep in zip(gammas, single[meth])]
            continue
        for i, g in enumerate(gammas):
            trial_rows = [dict(_report_row(meth, g, by_cell[(meth, trial)][i]),
                               trial=trial) for trial in range(config.trials)]
            raw_rows.extend(trial_rows)
            rows.append(_median_row(meth, g, trial_rows))
    rows.sort(key=lambda r: (r["method"], r["gamma"]))
    raw_rows.sort(key=lambda r: (r["method"], r["gamma"], r["trial"]))

    if out is not None:
        comments = ("bias/variance sweep; median over trials",
                    _config_comment(config),
                    "rng: numpy PCG64 seeded via SeedSequence children of `seed`")
        write_csv(out, SWEEP_COLUMNS, rows, comments)
        if raw:
            raw_path = str(out) + ".raw.csv"
            write_csv(raw_path, SWEEP_COLUMNS[:2] + ("trial",) + SWEEP_COLUMNS[2:],
                      raw_rows, comments)
    return rows


def _log10(value: float) -> float:
    if math.isnan(value):
        return float("nan")
    if value == 0.0:
        return float("-inf")
    return math.log10(value)


def run_iterative_experiment(config: SweepConfig, t: int, jobs: int = 1,
                             out=None) -> list:
    """Relative error per iteration for the iterative solvers.

    Logs log10(|x_i - x*| / |x*|) for iterations 1..t at every gamma in
    the grid.  A run that trips the divergence guard keeps its valid
    prefix; later iterations are recorded as nan with the diverged flag
    set.  Randomized methods report the per-iteration median over trials.
    """
    if t < 1:
        raise ConfigError(f"iteration count must be positive, got {t}")
    bad = [meth for meth in config.methods if meth not in ITERATIVE_METHODS]
    if bad:
        raise ConfigError(
            f"iteration study handles iterative solvers only; cannot run {bad}")
    if not config.methods:
        raise ConfigError("no methods requested")
    A, y, _ = load_instance(config)
    n = A.shape[0]
    gammas = sorted(set(config.gammas))
    exact = InverseOperator(A, gammas[0])
    cross = A.T @ y
    x_star = {g: exact.retarget(g).apply(cross) for g in gammas}
    norm_star = {g: float(np.linalg.norm(x_star[g])) for g in gammas}
    gamma_index = {g: i for i, g in enumerate(gammas)}
    # One sketch serves every ifdrr cell: it depends on neither mode nor gamma.
    sketches = (_sketch_both(A, config.m)
                if any(meth.startswith("ifdrr") for meth in config.methods)
                else {})

    def run_one(meth, g, trial):
        kind, _, flavor = meth.partition(":")

        def draw(i):
            seed = child_seed(config.seed, _ITER_TAG, _METHOD_INDEX[meth],
                              gamma_index[g], trial, i)
            return InverseOperator(
                _realize(flavor, config.m, n, config.sjlt_s, seed) @ A, g)

        if kind == "ihs":  # a fresh draw every iteration
            preconditioner = draw
        else:  # one fixed operator: the FD sketch or a single draw
            op = (InverseOperator.from_sketch(sketches[flavor], g)
                  if kind == "ifdrr" else draw(0))
            preconditioner = lambda _i: op
        try:
            _, trace = refine(RidgeProblem(A, y, g), preconditioner, t,
                              x_star=x_star[g])
            norms = trace.residual_norms
            flag = 0
        except DivergenceError as err:
            norms = err.trace.residual_norms
            flag = 1
        errors = np.full(t, np.nan)
        # norms[0] belongs to the zero start; iterations begin at 1
        got = np.asarray(norms[1:], dtype=float) / norm_star[g]
        errors[:got.size] = got
        return errors, flag

    def worker(cell):
        meth, g = cell
        if meth.startswith("ifdrr"):
            return run_one(meth, g, 0)
        per_trial = [run_one(meth, g, trial) for trial in range(config.trials)]
        stacked = np.vstack([errs for errs, _ in per_trial])
        return np.median(stacked, axis=0), max(flag for _, flag in per_trial)

    cells = [(meth, g) for meth in config.methods for g in gammas]
    by_cell = _map_cells(cells, worker, jobs)

    rows = []
    for meth, g in cells:
        errors, flag = by_cell[(meth, g)]
        for i in range(t):
            rows.append({"method": meth, "gamma": g, "iteration": i + 1,
                         "log10_error": _log10(float(errors[i])),
                         "diverged": flag})
    rows.sort(key=lambda r: (r["method"], r["gamma"], r["iteration"]))

    if out is not None:
        comments = ("iterative solve, relative error per iteration",
                    _config_comment(config) + f" t={t}",
                    "rng: numpy PCG64 seeded via SeedSequence children of `seed`")
        write_csv(out, ITER_COLUMNS, rows, comments)
    return rows


def _spectral_norm_sym(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def run_sketch_accuracy(config: SweepConfig, out=None) -> list:
    """Covariance error of each sketch against the rank-k error bounds.

    For the deterministic sketches the error |A^T A - (B^T B + shift I)|_2
    is exact; for the random ones it is the median over trials.  Each row
    compares the error to |A - A_k|_F^2 / (m - k) (halved for the robust
    variant); the random sketches carry no such guarantee, so their
    within_bound column is purely observational.
    """
    A, _, _ = load_instance(config)
    n, d = A.shape
    gram = A.T @ A
    tails = tail_masses(A)
    m = config.m
    errors = {mode: _spectral_norm_sym(gram - output.covariance())
              for mode, output in _sketch_both(A, m).items()}
    for flavor in ("gauss", "sjlt"):
        per_trial = []
        for trial in range(config.trials):
            seed = child_seed(config.seed, _ACC_TAG,
                              ("gauss", "sjlt").index(flavor), trial)
            SA = np.asarray(_realize(flavor, m, n, config.sjlt_s, seed) @ A)
            per_trial.append(_spectral_norm_sym(gram - SA.T @ SA))
        errors[flavor] = float(np.median(per_trial))

    rows = []
    max_k = min(m - 1, min(n, d))
    for name in ("fd", "rfd", "gauss", "sjlt"):
        err = errors[name]
        for k in range(max_k + 1):
            bound = float(tails[k]) / (m - k)
            if name == "rfd":
                bound /= 2.0
            rows.append({"method": name, "m": m, "k": k,
                         "spectral_error": err, "bound": bound,
                         "within_bound": int(err <= bound * (1.0 + 1e-9))})
    rows.sort(key=lambda r: (r["method"], r["k"]))

    if out is not None:
        comments = ("sketch covariance error vs rank-k bounds; "
                    "median over trials for random sketches",
                    _config_comment(config),
                    "rng: numpy PCG64 seeded via SeedSequence children of `seed`")
        write_csv(out, ACC_COLUMNS, rows, comments)
    return rows
