"""Experiment harness: config parsing, protocol runners, CSV output.

Three runners cover the standard protocols: a bias/variance sweep of
one-shot estimators over a regularizer grid, an error-vs-iteration study
of the iterative solvers, and a covariance-error comparison of the
sketches themselves.  All randomness derives from a single config seed
through numpy SeedSequence children, so every run is reproducible down to
the output bytes.  How each randomized flavor is drawn is left to
:mod:`fdridge.random_sketch`; the runners name a flavor, m and a seed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .datasets import (LibsvmParseError, _effective_rank, parse_libsvm,
                       rff_expand, synthetic_regression)
from .diagnostics import (LinearModelSpec, classical_sketch_diagnostics,
                          hessian_sketch_diagnostics, optimal_diagnostics,
                          sketched_diagnostics)
from .random_sketch import FLAVORS, _product, _realize
from .sketch import (MODE_FD, MODE_RFD, _count, _nonnegative, _one_of,
                     _positive, sketch_matrix, tail_masses)
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

_DATASETS = ("synthetic", "gaussian-rff", "libsvm")
# The least value of each integer key on every dataset, save that a
# libsvm run's n may be 0, which keeps every sample.
_LEAST = {"n": 1, "d": 1, "raw_dim": 1, "m": 1, "trials": 1,
          "rff_features": 0, "seed": 0}


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one experiment instance and protocol.

    dataset selects the instance: "synthetic" (low effective rank, known
    weights), "gaussian-rff" (standard normal samples of dimension
    raw_dim pushed through random Fourier features to dimension d, with a
    planted unit-norm weight vector), or "libsvm" (read libsvm_path, keep
    the first n samples, optionally expand to rff_features dimensions;
    n = 0 keeps every sample, rff_features = 0 keeps the raw features).

    Construction checks the keys through the argument rules of
    :mod:`fdridge.sketch` and raises ConfigError naming the first bad
    key: dataset is one of the three kinds, noise_sd is non-negative and
    finite, the list keys gammas and methods are each a non-empty tuple
    or list, each gamma and, where random Fourier features are drawn,
    rff_gamma are positive and finite, the methods are known and none
    repeated, and every count, on every dataset, is an integer of at
    least its least value.  A synthetic instance's r is checked as
    :func:`synthetic_regression` checks it.  Both list keys are
    stored as tuples, the gamma grid sorted and without repeats, the
    order in which the runners walk it.  Any m works with every method:
    the SJLT's block count follows from m in :func:`realize_sjlt`.
    """

    dataset: str = "synthetic"
    n: int = 1024
    d: int = 512
    r: float = 0.15
    noise_sd: float = 2.0
    raw_dim: int = 8
    rff_gamma: float = 1.0
    rff_features: int = 0
    libsvm_path: str | None = None
    m: int = 256
    gammas: tuple = tuple(2.0 ** k for k in range(-8, 7))
    methods: tuple = STATISTICAL_METHODS
    trials: int = 10
    seed: int = 0

    def __post_init__(self):
        try:
            _one_of("dataset", self.dataset, _DATASETS)
            _nonnegative("noise_sd", self.noise_sd)  # 0: targets without noise
            for key in ("gammas", "methods"):
                value = getattr(self, key)
                if not isinstance(value, (tuple, list)) or not value:
                    raise ConfigError(f"{key} must be a non-empty tuple or "
                                      f"list, got {value!r}")
                object.__setattr__(self, key, tuple(value))
            # the runners walk the grid in this order and seed by position
            object.__setattr__(self, "gammas", tuple(sorted(
                {_positive("gammas", g) for g in self.gammas})))
            unknown = [meth for meth in self.methods if meth not in ALL_METHODS]
            if unknown:
                raise ConfigError(f"unknown methods {unknown}; "
                                  f"valid names: {', '.join(ALL_METHODS)}")
            repeated = sorted({meth for meth in self.methods
                               if self.methods.count(meth) > 1})
            if repeated:
                raise ConfigError(f"methods listed more than once: {repeated}")
            if self.dataset == "libsvm" and not self.libsvm_path:
                raise ConfigError("dataset 'libsvm' needs libsvm_path")
            for key, least in _LEAST.items():
                libsvm_n = key == "n" and self.dataset == "libsvm"
                _count(key, getattr(self, key), 0 if libsvm_n else least)
            if self.dataset == "synthetic":
                _effective_rank(self.d, self.r)
            elif self.dataset == "gaussian-rff" or self.rff_features:
                _positive("rff_gamma", self.rff_gamma)
        except ValueError as err:
            raise ConfigError(str(err)) from None


def _parse_number(token: str) -> float:
    if "^" in token:  # allow 2^-8 style grid entries
        base, _, exp = token.partition("^")
        return math.pow(float(base), float(exp))
    return float(token)


def _coerce(key: str, value) -> object:
    """``value`` as the type of ``key``'s :class:`SweepConfig` default
    when it is text: an int, float or str as the default is; a tuple of
    the comma-separated items for a list key, grid entries parsed by
    :func:`_parse_number`; the text itself for a path whose default is
    None.  Text that does not parse, a power form that cannot be
    evaluated (``0^-1``, ``10^400``, ``-8^0.5``) included, raises
    ConfigError; any other value is returned unchanged."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    default = getattr(SweepConfig, key)
    try:
        if isinstance(default, tuple):
            parse = _parse_number if isinstance(default[0], float) else str
            return tuple(parse(tok.strip()) for tok in text.split(",")
                         if tok.strip())
        return text if default is None else type(default)(text)
    except (ArithmeticError, ValueError):
        raise ConfigError(f"could not parse {key} = {text!r}") from None


def load_config(path=None, overrides: dict | None = None) -> SweepConfig:
    """Build a config from a ``key = value`` text file plus overrides.

    Lines are ``key = value``; ``#`` starts a comment.  Each value parses
    as its key's type (:func:`_coerce`): list values are comma separated
    and grid entries may use the 2^-8 power form.  A key set twice in the
    file is refused, naming both lines, and a file value that does not
    parse is refused naming its line.
    Overrides (e.g. from command-line flags) take precedence over the
    file, which takes precedence over defaults.
    """
    known = {f.name for f in fields(SweepConfig)}
    settings: dict = {}
    set_on: dict = {}  # key -> the file line that set it
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
                if key in set_on:
                    raise ConfigError(f"{path}:{lineno}: {key!r} is already "
                                      f"set on line {set_on[key]}")
                set_on[key] = lineno
                try:
                    settings[key] = _coerce(key, value)
                except ConfigError as err:
                    raise ConfigError(f"{path}:{lineno}: {err}") from None
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        settings[key] = _coerce(key, value)
    return SweepConfig(**settings)


def child_seed(base: int, *key: int) -> int:
    """Deterministic child seed from the experiment seed and integer tags."""
    seq = np.random.SeedSequence([int(base)] + [int(k) for k in key])
    return int(seq.generate_state(1, np.uint64)[0])


def _known_weights(config: SweepConfig) -> bool:
    """Whether ``config``'s instance has known weights and noise, the
    model the bias/variance diagnostics need: a synthetic or gaussian-rff
    instance with noise_sd > 0."""
    return config.dataset != "libsvm" and config.noise_sd > 0


def load_instance(config: SweepConfig):
    """Materialize (A, y, model); model is None without known weights
    (:func:`_known_weights`).

    A libsvm instance keeps the first n rows (every row when n is 0 or
    above the file's count): it densifies only the ``indptr`` slice that
    spans them, so A owns its data and holds none of the rows past the
    first n, and it checks nothing that :func:`parse_libsvm` checked.  A
    libsvm file with no samples or no features, a malformed line, or
    kept rows too wide to hold dense (an index as large as 10^12) raise
    ConfigError naming the path (and the line and column, or the dense
    n x d shape).
    """
    if config.dataset == "synthetic":
        A, y, truth = synthetic_regression(config.n, config.d, config.r,
                                           config.noise_sd, config.seed)
    elif config.dataset == "gaussian-rff":
        rng = np.random.default_rng(child_seed(config.seed, _DATA_TAG))
        X = rng.standard_normal((config.n, config.raw_dim))
        A = rff_expand(X, config.d, config.rff_gamma,
                       seed=child_seed(config.seed, _DATA_TAG, 1))
        truth = rng.standard_normal(config.d)
        truth /= np.linalg.norm(truth)
        y = A @ truth + config.noise_sd * rng.standard_normal(config.n)
    else:
        try:
            matrix, labels = parse_libsvm(config.libsvm_path)
        except LibsvmParseError as err:
            raise ConfigError(f"{config.libsvm_path}: {err}") from None
        kept = min(config.n or matrix.n, matrix.n)
        if not kept or not matrix.d:
            what = "samples" if not kept else "features"
            raise ConfigError(f"{config.libsvm_path} has no {what}")
        try:
            A = matrix._head(kept)
        except (MemoryError, ValueError):  # numpy's "array is too big"
            raise ConfigError(f"{config.libsvm_path}: a dense {kept} x "
                              f"{matrix.d} array does not fit in memory") from None
        y = labels[:kept].copy()
        if config.rff_features:
            A = rff_expand(A, config.rff_features, config.rff_gamma,
                           seed=child_seed(config.seed, _DATA_TAG, 1))
    model = (LinearModelSpec(truth, config.noise_sd)
             if _known_weights(config) else None)
    return A, y, model


def _trials(config: SweepConfig, flavor: str) -> range:
    """The trial rule: a randomized sketch (a flavor in FLAVORS) is drawn
    ``config.trials`` times; every other method is deterministic and runs
    once."""
    return range(config.trials if flavor in FLAVORS else 1)


def _sketch_both(A: np.ndarray, m: int) -> dict:
    """Stream A once through one sketch; its FD and RFD outputs by mode.

    The modes differ only in the reported shift, so one finalize serves
    both: the FD output is the RFD output with a zero shift.
    """
    rfd = sketch_matrix(A, m, MODE_RFD)
    return {MODE_FD: replace(rfd, shift=0.0),
            MODE_RFD: rfd}


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _config_comment(config: SweepConfig) -> str:
    parts = []
    for f in sorted(fields(SweepConfig), key=lambda f: f.name):
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


def _write_tables(out, title: str, setting: str, tables) -> None:
    """Write each ``(suffix, columns, rows)`` table to ``out`` + suffix
    under the same three ``#`` lines: the title, the run's settings and
    the rng.  Writes nothing when ``out`` is None."""
    if out is None:
        return
    comments = (title, setting,
                "rng: numpy PCG64 seeded via SeedSequence children of `seed`")
    for suffix, columns, rows in tables:
        write_csv(f"{out}{suffix}", columns, rows, comments)


def _check_methods(config: SweepConfig, allowed: tuple, protocol: str) -> None:
    """Reject a method list naming a method outside ``allowed``;
    ``protocol`` says which methods the runner handles."""
    bad = [meth for meth in config.methods if meth not in allowed]
    if bad:
        raise ConfigError(f"{protocol} only; cannot run {bad}")


def _sweep_values(per_trial, baseline) -> np.ndarray:
    """A method's trials x gammas x 6 array of sweep values: the squared
    bias, variance trace and MSE of each report in ``per_trial`` (one
    list of reports per trial), then their relative errors against the
    exact estimator's ``baseline`` (NaN where the base value is zero), in
    the order of ``SWEEP_COLUMNS``."""
    moments = np.array([[(rep.bias_sq, rep.var_trace, rep.mse)
                         for rep in reports] for reports in per_trial])
    base = np.array([(rep.bias_sq, rep.var_trace, rep.mse)
                     for rep in baseline])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(base != 0.0, np.abs(moments - base) / base, np.nan)
    return np.concatenate([moments, rel], axis=2)


def _sweep_row(method, gamma, values, diverged, **extra) -> dict:
    return {"method": method, "gamma": gamma,
            **dict(zip(SWEEP_COLUMNS[2:-1], values.tolist())),
            "diverged": int(diverged), **extra}


def run_bias_variance_sweep(config: SweepConfig, raw: bool = False,
                            out=None) -> list:
    """Median bias/variance/MSE of one-shot estimators over the gamma grid.

    Writes the aggregated table to ``out`` when given (and the per-trial
    table of the randomized methods alongside it with a .raw.csv suffix
    when ``raw``), returning the aggregated rows either way.  Rows are
    sorted by (method, gamma).
    """
    _check_methods(config, STATISTICAL_METHODS,
                   "bias/variance sweep handles one-shot estimators")
    if not _known_weights(config):
        raise ConfigError(
            "bias/variance diagnostics need an instance with known weights "
            "(synthetic or gaussian-rff with noise_sd > 0)")
    A, y, model = load_instance(config)
    gammas = config.gammas
    baseline = optimal_diagnostics(A, model, gammas)
    sketched = {}
    if {"fdrr", "rfdrr"} & set(config.methods):
        # The RFD estimator at gamma is the FD one at gamma + shift, so one
        # pass over the FD sketch serves both grids.
        sketches = _sketch_both(A, config.m)
        shift = sketches[MODE_RFD].shift
        both = sketched_diagnostics(A, sketches[MODE_FD], model,
                                    gammas + tuple(g + shift for g in gammas))
        sketched = {"fdrr": both[:len(gammas)], "rfdrr": both[len(gammas):]}

    def trial_reports(meth, trial):
        kind, _, flavor = meth.partition(":")
        if kind == "exact":
            return baseline
        if kind in sketched:
            return sketched[kind]
        seed = child_seed(config.seed, _SWEEP_TAG, _METHOD_INDEX[meth], trial)
        if kind == "classical":
            S = _realize(flavor, config.m, A.shape[0], seed)
            return classical_sketch_diagnostics(A, S, model, gammas)
        SA = _product(flavor, config.m, A, seed)
        return hessian_sketch_diagnostics(A, SA, model, gammas)

    rows = []
    raw_rows = []
    for meth in config.methods:
        flavor = meth.partition(":")[2]
        values = _sweep_values([trial_reports(meth, trial)
                                for trial in _trials(config, flavor)], baseline)
        medians = np.median(values, axis=0)
        diverged = ~np.isfinite(values).all(axis=2)  # trials x gammas
        for i, g in enumerate(gammas):
            rows.append(_sweep_row(meth, g, medians[i], diverged[:, i].any()))
            if flavor in FLAVORS:  # the raw table holds draws only
                raw_rows.extend(_sweep_row(meth, g, trial[i], diverged[t, i], trial=t)
                                for t, trial in enumerate(values))
    rows.sort(key=lambda r: (r["method"], r["gamma"]))
    raw_rows.sort(key=lambda r: (r["method"], r["gamma"], r["trial"]))

    tables = [("", SWEEP_COLUMNS, rows)]
    if raw:
        tables.append((".raw.csv",
                       SWEEP_COLUMNS[:2] + ("trial",) + SWEEP_COLUMNS[2:],
                       raw_rows))
    _write_tables(out, "bias/variance sweep; median over trials",
                  _config_comment(config), tables)
    return rows


def _log10(value: float) -> float:
    """log10 with log10(0) = -inf; a NaN passes through."""
    return math.log10(value) if value != 0.0 else float("-inf")


def run_iterative_experiment(config: SweepConfig, t: int, out=None) -> list:
    """Relative error per iteration for the iterative solvers.

    Logs log10(|x_i - x*| / |x*|) for iterations 1..t at every gamma in
    the grid.  A run that trips the divergence guard keeps its valid
    prefix; later iterations are recorded as nan with the diverged flag
    set.  Randomized methods report the per-iteration median over trials.
    When A^T y = 0, x* is zero at every gamma and the relative error is
    undefined, so ConfigError is raised before any cell runs.
    """
    try:
        _count("t", t)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    _check_methods(config, ITERATIVE_METHODS,
                   "iteration study handles iterative solvers")
    A, y, _ = load_instance(config)
    base = RidgeProblem(A, y, config.gammas[0])
    if not base.rhs.any():
        raise ConfigError("the relative error is undefined: A^T y = 0, so "
                          "the exact solution is zero at every gamma")
    exact = InverseOperator(A)
    # One sketch serves every ifdrr cell, and one operator each mode's
    # cells: neither depends on gamma.
    fixed = ({mode: InverseOperator.from_sketch(output)
              for mode, output in _sketch_both(A, config.m).items()}
             if any(meth.startswith("ifdrr") for meth in config.methods)
             else {})

    def run_one(meth, gi, problem, x_star, trial):
        kind, _, flavor = meth.partition(":")

        def draw(i):
            seed = child_seed(config.seed, _ITER_TAG, _METHOD_INDEX[meth],
                              gi, trial, i)
            return InverseOperator(_product(flavor, config.m, A, seed))

        if kind == "ihs":  # a fresh draw every iteration
            preconditioner = draw
        else:  # one fixed operator: the FD sketch's or a single draw's
            op = fixed[flavor] if kind == "ifdrr" else draw(0)
            preconditioner = lambda _i: op
        try:
            _, trace = refine(problem, preconditioner, t, x_star=x_star)
        except DivergenceError as err:
            trace = err.trace
        errors = np.full(t, np.nan)
        # residual_norms[0] belongs to the zero start; iterations begin at
        # 1, and a trace the divergence guard cut short holds fewer than t
        got = np.asarray(trace.residual_norms[1:]) / np.linalg.norm(x_star)
        errors[:got.size] = got
        return errors, int(got.size < t)

    rows = []
    for gi, g in enumerate(config.gammas):
        problem = base._retarget(g)
        x_star = exact.apply(problem.rhs, problem.gamma)
        for meth in config.methods:
            per_trial = [run_one(meth, gi, problem, x_star, trial)
                         for trial in _trials(config, meth.partition(":")[2])]
            errors = np.median(np.vstack([errs for errs, _ in per_trial]),
                               axis=0)
            flag = max(flag for _, flag in per_trial)
            for i in range(t):
                rows.append({"method": meth, "gamma": problem.gamma,
                             "iteration": i + 1,
                             "log10_error": _log10(float(errors[i])),
                             "diverged": flag})
    rows.sort(key=lambda r: (r["method"], r["gamma"], r["iteration"]))

    _write_tables(out, "iterative solve, relative error per iteration",
                  _config_comment(config) + f" t={t}",
                  [("", ITER_COLUMNS, rows)])
    return rows


def _spectral_norm_sym(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


def run_sketch_accuracy(config: SweepConfig, out=None) -> list:
    """Covariance error of each sketch against the rank-k error bounds.

    For the deterministic sketches the error |A^T A - (B^T B + shift I)|_2
    is exact; for the random ones it is the median over trials.  Each row
    compares the error to |A - A_k|_F^2 / (m - k) (halved for the robust
    variant); the random sketches carry no such guarantee, so their
    within_bound column is purely observational.  within_bound allows the
    error the roundoff of forming A^T A, n eps |A|_F^2, beyond the bound.
    Rows run over k = 0 .. min(m, n, d) - 1: at k = min(n, d) the tail,
    and so the bound, is zero, while a lossless sketch still carries
    roundoff.
    """
    A, _, _ = load_instance(config)
    n, d = A.shape
    gram = A.T @ A
    tails = tail_masses(A)
    m = config.m
    sketches = _sketch_both(A, m)

    def error(name, trial):
        if name in sketches:
            return _spectral_norm_sym(gram - sketches[name].covariance())
        seed = child_seed(config.seed, _ACC_TAG, FLAVORS.index(name), trial)
        SA = _product(name, m, A, seed)
        return _spectral_norm_sym(gram - SA.T @ SA)

    # Forming the n-term inner products of A^T A rounds each entry by up
    # to n eps |A|_F^2, so an error below that is not resolved: without
    # this slack a lossless sketch fails a tail bound smaller than it.
    roundoff = n * np.finfo(float).eps * float(tails[0])
    rows = []
    max_k = min(m, n, d) - 1
    for name in (MODE_FD, MODE_RFD) + FLAVORS:
        err = float(np.median([error(name, trial)
                               for trial in _trials(config, name)]))
        for k in range(max_k + 1):
            bound = float(tails[k]) / (m - k)
            if name == MODE_RFD:
                bound /= 2.0
            rows.append({"method": name, "m": m, "k": k,
                         "spectral_error": err, "bound": bound,
                         "within_bound": int(err <= bound * (1.0 + 1e-9)
                                             + roundoff)})
    rows.sort(key=lambda r: (r["method"], r["k"]))

    _write_tables(out, "sketch covariance error vs rank-k bounds; "
                  "median over trials for random sketches",
                  _config_comment(config), [("", ACC_COLUMNS, rows)])
    return rows
