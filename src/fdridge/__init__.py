"""Sketched ridge regression: streaming deterministic sketches, randomized
baselines, exact bias/variance diagnostics, and an experiment harness."""

from .datasets import (LibsvmParseError, SparseRowMatrix, SyntheticSpec,
                       dct_rotation, dump_libsvm, parse_libsvm, rff_expand,
                       synthetic_regression)
from .diagnostics import (BudgetError, DiagnosticsReport, LinearModelSpec,
                          budget_for_theta, classical_sketch_diagnostics,
                          hessian_sketch_diagnostics, optimal_diagnostics,
                          sketched_diagnostics, theta_interval)
from .experiments import (ConfigError, SweepConfig, load_config, load_instance,
                          run_bias_variance_sweep, run_iterative_experiment,
                          run_sketch_accuracy)
from .random_sketch import (GaussianSketchSpec, SjltSketchSpec,
                            apply_gaussian, realize_gaussian, realize_sjlt)
from .sketch import (MODE_FD, MODE_RFD, SketchOutput, StreamingSketch,
                     save_sketch_csv, sketch_matrix, tail_masses)
from .solvers import (DivergenceError, InverseOperator, IterativeTrace,
                      RidgeProblem, classical_sketch_solve, fdrr_solve,
                      hessian_sketch_solve, ifdrr_solve, refine, solve_exact)

__all__ = [
    "BudgetError", "ConfigError", "DiagnosticsReport", "DivergenceError",
    "GaussianSketchSpec", "InverseOperator", "IterativeTrace",
    "LibsvmParseError", "LinearModelSpec", "MODE_FD", "MODE_RFD",
    "RidgeProblem", "SjltSketchSpec", "SketchOutput", "SparseRowMatrix",
    "StreamingSketch", "SweepConfig", "SyntheticSpec",
    "apply_gaussian", "budget_for_theta", "classical_sketch_diagnostics",
    "classical_sketch_solve", "dct_rotation", "dump_libsvm", "fdrr_solve",
    "hessian_sketch_diagnostics", "hessian_sketch_solve", "ifdrr_solve",
    "load_config", "load_instance", "optimal_diagnostics",
    "parse_libsvm", "realize_gaussian", "realize_sjlt", "refine", "rff_expand",
    "run_bias_variance_sweep", "run_iterative_experiment",
    "run_sketch_accuracy", "save_sketch_csv", "sketch_matrix",
    "sketched_diagnostics", "solve_exact", "synthetic_regression",
    "tail_masses", "theta_interval",
]

__version__ = "0.1.0"
