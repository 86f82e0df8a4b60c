"""Solver tests against dense closed-form oracles.

The oracle for everything here is the explicit d x d linear algebra:
inv(A^T A + gamma I) and friends, formed densely with numpy.  Sketch-based
solvers must agree with the same formulas evaluated on their own sketch.
"""
import gc
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge import solvers
from fdridge.random_sketch import realize_gaussian
from fdridge.sketch import MODE_FD, MODE_RFD, sketch_matrix, tail_masses
from fdridge.solvers import (DivergenceError, InverseOperator, RidgeProblem,
                             classical_sketch_solve, fdrr_solve,
                             hessian_sketch_solve, ifdrr_solve, refine,
                             solve_exact)


def dense_ridge(A, y, gamma):
    d = A.shape[1]
    return np.linalg.inv(A.T @ A + gamma * np.eye(d)) @ (A.T @ y)


def rel_err(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def make_problem(seed, n=30, d=6, gamma=0.7, noise=0.1):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    x0 = rng.standard_normal(d)
    y = A @ x0 + noise * rng.standard_normal(n)
    return RidgeProblem(A, y, gamma)


def test_problem_forms_its_right_hand_side_once():
    problem = make_problem(3)
    assert np.array_equal(problem.rhs, problem.A.T @ problem.y)
    # the solvers and the divergence guard read rhs, not A^T y formed
    # again: with a doubled rhs the estimates double, and with a zero rhs
    # the first nonzero iterate trips the guard
    object.__setattr__(problem, "rhs", 2.0 * problem.rhs)
    assert np.allclose(solve_exact(problem),
                       2.0 * dense_ridge(problem.A, problem.y, problem.gamma))
    lossless = InverseOperator.from_sketch(
        sketch_matrix(problem.A, 8)).apply(problem.rhs, problem.gamma)
    assert np.array_equal(fdrr_solve(problem, 8), lossless)
    object.__setattr__(problem, "rhs", np.zeros_like(problem.rhs))
    with pytest.raises(DivergenceError):
        refine(problem, lambda _i: InverseOperator(problem.A), t=1)


def test_retargeted_problem_shares_its_arrays():
    # another regularizer reuses A, y and rhs as they are, and the result
    # equals the problem built afresh at that regularizer
    problem = make_problem(3)
    other = problem._retarget(np.float64(4.0))
    assert other.A is problem.A and other.y is problem.y
    assert other.rhs is problem.rhs
    assert type(other.gamma) is float and other.gamma == 4.0
    assert problem.gamma == 0.7
    assert np.array_equal(
        solve_exact(other), solve_exact(RidgeProblem(problem.A, problem.y, 4.0)))
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="^regularizer must be positive"):
            problem._retarget(bad)


def test_problem_validation():
    with pytest.raises(ValueError):
        RidgeProblem(np.eye(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        RidgeProblem(np.eye(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        RidgeProblem(np.zeros(3), np.zeros(3), 1.0)


@pytest.mark.parametrize("solve", [
    solve_exact,
    lambda problem: fdrr_solve(problem, 4),
    lambda problem: refine(problem, lambda _i: InverseOperator(
        np.zeros((1, problem.A.shape[1]))), t=2),
], ids=["solve_exact", "fdrr_solve", "refine"])
@pytest.mark.parametrize("where,bad,message", [
    ("target", np.nan, "^y entry 7 is not finite"),
    ("data", np.inf, "^A row 5 has a non-finite entry"),
], ids=["nan-target", "inf-data"])
def test_non_finite_input_is_named(solve, where, bad, message):
    # the problem names the first bad target or data row, so no solver
    # sees NaN or infinite input
    rng = np.random.default_rng(19)
    A = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    if where == "target":
        y[[7, 9]] = bad
    else:
        A[5, 2] = A[8, 0] = bad
    with pytest.raises(ValueError, match=message):
        solve(RidgeProblem(A, y, 1.0))


@pytest.mark.parametrize("solve", [
    solve_exact,
    lambda problem: fdrr_solve(problem, 4),
    lambda problem: ifdrr_solve(problem, 4, t=3),
], ids=["solve_exact", "fdrr_solve", "ifdrr_solve"])
@pytest.mark.parametrize("gamma", [np.inf, np.nan, 0.0, -1.0])
def test_regularizer_must_be_positive_and_finite(solve, gamma):
    # an infinite gamma would give zeros from the one-shot solves and a
    # spurious divergence "at iteration 1" from ifdrr_solve (inf * 0 is
    # NaN in its gradient); the problem refuses it, naming the value
    rng = np.random.default_rng(20)
    A = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    with pytest.raises(ValueError, match=f"positive and finite, got {gamma}"):
        solve(RidgeProblem(A, y, gamma))


def test_exact_identity_instance():
    y = np.array([2.0, -4.0, 6.0])
    x = solve_exact(RidgeProblem(np.eye(3), y, 1.0))
    np.testing.assert_allclose(x, y / 2)


def test_exact_large_gamma_bound():
    problem = make_problem(0, gamma=1e6)
    x = solve_exact(problem)
    lim = np.linalg.norm(problem.A.T @ problem.y) / problem.gamma
    assert np.linalg.norm(x) <= lim * (1 + 1e-12)


def test_exact_matches_dense_inverse():
    problem = make_problem(1)
    x = solve_exact(problem)
    ref = dense_ridge(problem.A, problem.y, problem.gamma)
    assert rel_err(x, ref) < 1e-10


def test_operator_zero_sketch():
    op = InverseOperator(np.zeros((4, 6)))
    v = np.arange(6.0)
    np.testing.assert_allclose(op.apply(v, 2.5), v / 2.5)


def test_operator_matches_dense_inverse():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((8, 8))
    g = 0.3
    op = InverseOperator(B)
    dense = np.linalg.inv(B.T @ B + g * np.eye(8))
    v = rng.standard_normal(8)
    assert rel_err(op.apply(v, g), dense @ v) < 1e-10
    # matrix application goes column by column
    V = rng.standard_normal((8, 3))
    np.testing.assert_allclose(op.apply(V, g), dense @ V, rtol=1e-10,
                               atol=1e-12)


def test_operator_tall_factor_matches_dense_inverse():
    # A tall factor goes through its own d x d Gram matrix, full rank or
    # rank deficient.
    rng = np.random.default_rng(19)
    g = 0.7
    for X in (rng.standard_normal((20, 6)),
              rng.standard_normal((20, 2)) @ rng.standard_normal((2, 6))):
        op = InverseOperator(X)
        np.testing.assert_allclose(op.basis.T @ op.basis,
                                   np.eye(op.basis.shape[1]), atol=1e-12)
        dense = np.linalg.inv(X.T @ X + g * np.eye(6))
        V = rng.standard_normal((6, 3))
        np.testing.assert_allclose(op.apply(V, g), dense @ V, rtol=1e-10,
                                   atol=1e-12)


def test_operator_leaves_sub_resolution_rows_out(monkeypatch):
    # rows whose combined mass lies below the roundoff floor of the Gram
    # eigendecomposition are left out of it, wherever they sit among the
    # others, and the operator moves by roundoff only; heavier rows stay
    shapes = []
    gram_eigh = solvers._gram_eigh

    def counting(matrix):
        shapes.append(matrix.shape)
        return gram_eigh(matrix)

    monkeypatch.setattr(solvers, "_gram_eigh", counting)
    rng = np.random.default_rng(23)
    V = rng.standard_normal((9, 3))
    for n in (6, 20):  # a short-and-fat factor and a tall one
        X = rng.standard_normal((n, 9))
        light = rng.standard_normal((5, 9))
        rows = rng.permutation(n + 5)
        op = InverseOperator(np.vstack([X, 1e-20 * light])[rows])
        assert shapes[-1] == (n, 9)
        assert rel_err(op.apply(V, 0.5),
                       InverseOperator(X).apply(V, 0.5)) < 1e-12
        InverseOperator(np.vstack([X, 1e-3 * light]))
        assert shapes[-1] == (n + 5, 9)


@pytest.mark.parametrize("source", ["factor", "rfd-sketch"])
def test_one_operator_serves_every_regularizer(source):
    # one factorization, applied at several gammas, matches the dense
    # (X^T X + (gamma + shift) I)^{-1} at each; the shift is 0 for a
    # factor and the sketch's for a sketch, and a total regularizer that
    # is not positive and finite is refused when applied
    rng = np.random.default_rng(20)
    A = rng.standard_normal((40, 9)) * np.linspace(2.0, 0.1, 9)
    if source == "factor":
        X, shift = A[:4], 0.0
        op = InverseOperator(X)
    else:
        out = sketch_matrix(A, 4, MODE_RFD)
        X, shift = out.matrix, out.shift
        op = InverseOperator.from_sketch(out)
        assert shift > 0
    assert op.shift == shift
    V = rng.standard_normal((9, 2))
    for gamma in (0.05, 0.5, 3.0, 40.0):
        dense = np.linalg.inv(X.T @ X + (gamma + shift) * np.eye(9))
        np.testing.assert_allclose(op.apply(V, gamma), dense @ V,
                                   rtol=1e-10, atol=1e-12)
    for total in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^total regularizer must be "
                           "positive and finite"):
            op.apply(V, total - shift)


def test_operator_eigenvector_action():
    rng = np.random.default_rng(3)
    op = InverseOperator(rng.standard_normal((5, 7)))
    v1 = op.basis[:, 0]
    expected = v1 / (op.spectrum[0] + 1.2)
    np.testing.assert_allclose(op.apply(v1, 1.2), expected, rtol=1e-10,
                               atol=1e-14)


def test_operator_rejects_bad_regularizer():
    SA = np.random.default_rng(8).standard_normal((8, 5))
    for gamma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="total regularizer"):
            InverseOperator(np.eye(3)).apply(np.ones(3), gamma)
        with pytest.raises(ValueError, match="total regularizer"):
            classical_sketch_solve(SA, np.ones(8), gamma)
        with pytest.raises(ValueError, match="total regularizer"):
            hessian_sketch_solve(SA, np.ones(5), gamma)
    # a non-finite factor row is named, tall factor or short-and-fat
    for bad in (np.nan, np.inf, -np.inf):
        for X in (SA.copy(), SA[:3].copy()):
            X[1, 2] = bad
            with pytest.raises(ValueError, match="row 1 has a non-finite"):
                InverseOperator(X)


@pytest.mark.parametrize("v", [np.ones((6, 6, 6)), np.ones((6, 2, 6)),
                               np.float64(1.0)], ids=["cube", "stack", "scalar"])
def test_operator_refuses_a_non_vector_non_matrix(v):
    op = InverseOperator(np.random.default_rng(9).standard_normal((4, 6)))
    with pytest.raises(ValueError, match=rf"got shape {re.escape(str(v.shape))}"):
        op.apply(v, 1.0)


def test_operator_from_sketch_adds_shift():
    rng = np.random.default_rng(4)
    out = sketch_matrix(rng.standard_normal((40, 6)), 3, MODE_RFD)
    assert out.shift > 0
    op = InverseOperator.from_sketch(out)
    assert op.shift == out.shift


@given(st.integers(0, 100), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=25)
def test_operator_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    op = InverseOperator(rng.standard_normal((4, 6)))
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(op.apply(a * u + b * v, 0.9),
                               a * op.apply(u, 0.9) + b * op.apply(v, 0.9),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", [MODE_FD, MODE_RFD])
def test_fdrr_lossless_equals_exact(mode):
    problem = make_problem(6, n=20, d=10)
    x = fdrr_solve(problem, m=32, mode=mode)
    assert rel_err(x, solve_exact(problem)) < 1e-10


@pytest.mark.parametrize("mode", [MODE_FD, MODE_RFD])
def test_fdrr_matches_dense_formula_on_its_sketch(mode):
    problem = make_problem(7, n=100, d=12)
    m = 6
    x = fdrr_solve(problem, m, mode=mode)
    out = sketch_matrix(problem.A, m, mode)
    H = out.covariance() + problem.gamma * np.eye(12)
    ref = np.linalg.inv(H) @ (problem.A.T @ problem.y)
    assert rel_err(x, ref) < 1e-10


def test_classical_identity_sketch_is_exact():
    problem = make_problem(8)
    x = classical_sketch_solve(problem.A, problem.y, problem.gamma)
    assert rel_err(x, solve_exact(problem)) < 1e-12


def test_classical_zero_sketch():
    x = classical_sketch_solve(np.zeros((4, 6)), np.zeros(4), 1.5)
    np.testing.assert_array_equal(x, np.zeros(6))


def test_classical_sanity_at_four_d_rows():
    # Gaussian sketch with m = 4d on a planted-signal instance: the
    # estimate should land well inside the unit relative-error ball.
    rng = np.random.default_rng(200)
    A = rng.standard_normal((60, 6))
    x0 = rng.standard_normal(6)
    y = A @ x0 + 0.1 * rng.standard_normal(60)
    ref = solve_exact(RidgeProblem(A, y, 1.0))
    for seed in range(10):
        S = realize_gaussian(24, 60, seed)
        x = classical_sketch_solve(S @ A, S @ y, 1.0)
        assert rel_err(x, ref) < 1.0


def test_hessian_identity_sketch_is_exact():
    problem = make_problem(9)
    x = hessian_sketch_solve(problem.A, problem.A.T @ problem.y, problem.gamma)
    assert rel_err(x, solve_exact(problem)) < 1e-12


def test_hessian_zero_sketch_is_scaled_cross():
    cross = np.arange(1.0, 6.0)
    x = hessian_sketch_solve(np.zeros((4, 5)), cross, 2.0)
    np.testing.assert_allclose(x, cross / 2.0)


def test_hessian_matches_dense_formula():
    problem = make_problem(10, n=48, d=6)
    S = realize_gaussian(24, 48, 0)
    SA = S @ problem.A
    x = hessian_sketch_solve(SA, problem.A.T @ problem.y, problem.gamma)
    H = SA.T @ SA + problem.gamma * np.eye(6)
    ref = np.linalg.inv(H) @ (problem.A.T @ problem.y)
    assert rel_err(x, ref) < 1e-10


def test_one_shot_solvers_reject_bad_gamma():
    with pytest.raises(ValueError):
        classical_sketch_solve(np.eye(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        hessian_sketch_solve(np.eye(3), np.zeros(3), -1.0)


def test_ifdrr_first_iterate_is_fdrr():
    problem = make_problem(11, n=60, d=10)
    for mode in (MODE_FD, MODE_RFD):
        one_shot = fdrr_solve(problem, 5, mode=mode)
        x, trace = ifdrr_solve(problem, 5, t=1, mode=mode, x_star=one_shot)
        assert rel_err(x, one_shot) < 1e-10
        assert len(trace.residual_norms) == 2
        # the run starts at zero, exactly |x*| from the reference
        assert trace.residual_norms[0] == np.linalg.norm(one_shot)
        assert trace.residual_norms[1] < 1e-10 * np.linalg.norm(one_shot)


def test_ifdrr_lossless_converges_immediately():
    problem = make_problem(12, n=24, d=8)
    x_star = solve_exact(problem)
    x, trace = ifdrr_solve(problem, m=32, t=5, mode=MODE_FD, x_star=x_star)
    norm = np.linalg.norm(x_star)
    assert len(trace.residual_norms) == 6
    for dist in trace.residual_norms[1:]:
        assert dist <= 1e-10 * norm


def test_trace_norms_absent_without_reference():
    problem = make_problem(13)
    _, trace = ifdrr_solve(problem, 4, t=3)
    assert trace.residual_norms is None
    _, tracked = ifdrr_solve(problem, 4, t=3, x_star=solve_exact(problem))
    assert len(tracked.residual_norms) == 4


def test_zero_targets_fix_the_origin():
    # y = 0 means x* = 0; the update must keep every iterate at the
    # exact fixed point.
    rng = np.random.default_rng(14)
    problem = RidgeProblem(rng.standard_normal((20, 5)), np.zeros(20), 0.5)
    x, trace = ifdrr_solve(problem, 3, t=4, x_star=np.zeros(5))
    assert trace.residual_norms == [0.0] * 5
    np.testing.assert_array_equal(x, np.zeros(5))


@pytest.mark.parametrize("bad,message", [
    (np.ones((6, 1)), r"x_star must be a vector of length 6, got shape \(6, 1\)"),
    (np.ones(7), r"x_star must be a vector of length 6, got shape \(7,\)"),
    (np.full(6, np.nan), "x_star entry 0 is not finite"),
], ids=["column", "length-7", "nan"])
@pytest.mark.parametrize("solve", [
    lambda problem, x_star: ifdrr_solve(problem, 8, t=3, x_star=x_star),
    lambda problem, x_star: refine(problem, lambda _i: InverseOperator(
        problem.A), 3, x_star),
], ids=["ifdrr_solve", "refine"])
def test_reference_solution_is_checked(solve, bad, message):
    problem = make_problem(16, n=40, d=6, gamma=1.0)
    with pytest.raises(ValueError, match=message):
        solve(problem, bad)


def test_iteration_count_validation():
    problem = make_problem(15)
    with pytest.raises(ValueError):
        ifdrr_solve(problem, 4, t=0)


def engineered_quarter_instance(seed=16, n=48, d=24, m=12, k=6):
    """Instance plus gamma tuned so the rank-k tail satisfies
    tail / ((m - k) * gamma) = 1/4, the regime with guaranteed
    per-iteration contraction."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d)) * np.linspace(2.0, 0.05, d)
    tails = tail_masses(A)
    gamma = 4.0 * float(tails[k]) / (m - k)
    y = rng.standard_normal(n)
    return RidgeProblem(A, y, gamma), m


def test_contraction_at_quarter_budget():
    problem, m = engineered_quarter_instance()
    x_star = solve_exact(problem)
    floor = 1e-12 * np.linalg.norm(x_star)
    for mode, limit in ((MODE_FD, 1 / 3), (MODE_RFD, 1 / 7)):
        _, trace = ifdrr_solve(problem, m, t=10, mode=mode, x_star=x_star)
        errs = trace.residual_norms
        for prev, cur in zip(errs, errs[1:]):
            if prev <= floor:
                break
            assert cur <= prev * (limit + 1e-6)


def test_error_bound_from_contraction_factor():
    problem, m = engineered_quarter_instance()
    x_star = solve_exact(problem)
    b = 0.25
    _, trace = ifdrr_solve(problem, m, t=8, mode=MODE_FD, x_star=x_star)
    norm = np.linalg.norm(x_star)
    for t, err in enumerate(trace.residual_norms):
        assert err <= (b / (1 - b)) ** t * norm * (1 + 1e-9) + 1e-12 * norm


def test_preconditioner_contracts_when_budget_is_safe():
    problem, m = engineered_quarter_instance()
    d = problem.A.shape[1]
    out = sketch_matrix(problem.A, m, MODE_FD)
    H = problem.A.T @ problem.A + problem.gamma * np.eye(d)
    H_hat = out.covariance() + problem.gamma * np.eye(d)
    M = np.eye(d) - np.linalg.solve(H_hat, H)
    assert float(np.max(np.abs(np.linalg.eigvals(M)))) < 1.0


def test_single_identity_sketch_solves_in_one_step():
    problem = make_problem(17)
    x_star = solve_exact(problem)
    op = InverseOperator(problem.A)
    x, trace = refine(problem, lambda _i: op, t=3, x_star=x_star)
    assert trace.residual_norms[1] < 1e-10 * np.linalg.norm(x_star)
    assert rel_err(x, x_star) < 1e-10


def test_refreshed_sketch_error_decreases():
    # Statistical sanity at m = 4d: with a fresh draw per step the error
    # should fall monotonically for (at least) 8 of 10 sketch seeds.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((80, 10))
    y = rng.standard_normal(80)
    problem = RidgeProblem(A, y, 40.0)
    x_star = solve_exact(problem)
    monotone = 0
    for seed in range(10):
        def draw(i, seed=seed):
            S = realize_gaussian(40, 80, 1000 * seed + i)
            return InverseOperator(S @ A)
        _, trace = refine(problem, draw, t=10, x_star=x_star)
        diffs = np.diff(trace.residual_norms[1:])
        monotone += int(np.all(diffs < 0))
    assert monotone >= 8


def test_divergence_guard_trips():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    problem = RidgeProblem(A, y, 1e-3)
    # A zero sketch leaves only the ridge term in the surrogate Hessian,
    # so each step multiplies the residual by roughly |A^T A| / gamma.
    op = InverseOperator(np.zeros((4, 6)))
    with pytest.raises(DivergenceError) as info:
        refine(problem, lambda _i: op, t=10, x_star=solve_exact(problem))
    err = info.value
    assert err.iteration >= 1
    assert len(err.trace.residual_norms) == err.iteration
    assert np.isfinite(err.trace.residual_norms).all()


def diverging_problem():
    # FD at m = 4 misses most of the spread-out spectrum, far above gamma
    rng = np.random.default_rng(0)
    A = rng.standard_normal((400, 40)) * np.linspace(3.0, 0.1, 40)
    return RidgeProblem(A, rng.standard_normal(400), 1e-3)


def test_divergence_error_survives_pickle():
    # a worker process hands a diverged solve back to its parent whole:
    # the message, the tripping iteration and the partial trace
    problem = diverging_problem()
    with pytest.raises(DivergenceError) as info:
        ifdrr_solve(problem, 4, t=10, x_star=solve_exact(problem))
    err = info.value
    assert err.iteration == 3
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DivergenceError
    assert str(back) == str(err) == (
        "iterate norm exceeded the divergence guard at iteration 3")
    assert back.iteration == 3
    assert back.trace.residual_norms == err.trace.residual_norms


def test_divergence_leaves_no_reference_cycle():
    # a caught divergence frees refine's frame, and the preconditioner it
    # holds, at once rather than at the next garbage collection
    problem = diverging_problem()
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(DivergenceError):
            ifdrr_solve(problem, 4, t=10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_exact_forms_one_gram_matrix(traced_peak):
    # gamma goes onto the diagonal in place: one d x d matrix, bit for bit
    # the solve of A^T A + gamma I
    d = 256
    rng = np.random.default_rng(14)
    problem = RidgeProblem(rng.standard_normal((600, d)),
                           rng.standard_normal(600), 2.0)
    x, peak = traced_peak(solve_exact, problem)
    A = problem.A
    np.testing.assert_array_equal(
        x, np.linalg.solve(A.T @ A + 2.0 * np.eye(d), A.T @ problem.y))
    assert peak < 1.5 * d * d * 8
