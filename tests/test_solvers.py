"""Solver tests against dense closed-form oracles.

The oracle for everything here is the explicit d x d linear algebra:
inv(A^T A + gamma I) and friends, formed densely with numpy.  Sketch-based
solvers must agree with the same formulas evaluated on their own sketch.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdridge.random_sketch import GaussianSketchSpec, realize_gaussian
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


def test_problem_validation():
    with pytest.raises(ValueError):
        RidgeProblem(np.eye(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        RidgeProblem(np.eye(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        RidgeProblem(np.zeros(3), np.zeros(3), 1.0)


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
    op = InverseOperator(np.zeros((4, 6)), 2.5)
    v = np.arange(6.0)
    np.testing.assert_allclose(op.apply(v), v / 2.5)


def test_operator_matches_dense_inverse():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((8, 8))
    g = 0.3
    op = InverseOperator(B, g)
    dense = np.linalg.inv(B.T @ B + g * np.eye(8))
    v = rng.standard_normal(8)
    assert rel_err(op.apply(v), dense @ v) < 1e-10
    # matrix application goes column by column
    V = rng.standard_normal((8, 3))
    np.testing.assert_allclose(op.apply(V), dense @ V, rtol=1e-10, atol=1e-12)


def test_operator_tall_factor_matches_dense_inverse():
    # A tall factor goes through its own d x d Gram matrix, full rank or
    # rank deficient.
    rng = np.random.default_rng(19)
    g = 0.7
    for X in (rng.standard_normal((20, 6)),
              rng.standard_normal((20, 2)) @ rng.standard_normal((2, 6))):
        op = InverseOperator(X, g)
        np.testing.assert_allclose(op.basis.T @ op.basis,
                                   np.eye(op.basis.shape[1]), atol=1e-12)
        dense = np.linalg.inv(X.T @ X + g * np.eye(6))
        V = rng.standard_normal((6, 3))
        np.testing.assert_allclose(op.apply(V), dense @ V, rtol=1e-10,
                                   atol=1e-12)


def test_operator_retarget_shares_the_factorization():
    rng = np.random.default_rng(20)
    B = rng.standard_normal((4, 9))
    op = InverseOperator(B, 0.5).retarget(3.0)
    assert op.gamma_total == 3.0
    v = rng.standard_normal(9)
    np.testing.assert_allclose(op.apply(v), InverseOperator(B, 3.0).apply(v),
                               rtol=1e-12)
    with pytest.raises(ValueError):
        op.retarget(0.0)


def test_operator_eigenvector_action():
    rng = np.random.default_rng(3)
    op = InverseOperator(rng.standard_normal((5, 7)), 1.2)
    v1 = op.basis[:, 0]
    expected = v1 / (op.spectrum[0] + op.gamma_total)
    np.testing.assert_allclose(op.apply(v1), expected, rtol=1e-10, atol=1e-14)


def test_operator_rejects_bad_regularizer():
    with pytest.raises(ValueError):
        InverseOperator(np.eye(3), 0.0)
    with pytest.raises(ValueError):
        InverseOperator(np.eye(3), -1.0)


def test_operator_from_sketch_adds_shift():
    rng = np.random.default_rng(4)
    out = sketch_matrix(rng.standard_normal((40, 6)), 3, MODE_RFD)
    assert out.shift > 0
    op = InverseOperator.from_sketch(out, 0.5)
    assert op.gamma_total == pytest.approx(0.5 + out.shift)


@given(st.integers(0, 100), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=25)
def test_operator_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    op = InverseOperator(rng.standard_normal((4, 6)), 0.9)
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(op.apply(a * u + b * v),
                               a * op.apply(u) + b * op.apply(v),
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
        S = realize_gaussian(GaussianSketchSpec(m=24, n=60, seed=seed))
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
    S = realize_gaussian(GaussianSketchSpec(m=24, n=48, seed=0))
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
    op = InverseOperator(problem.A, problem.gamma)
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
            spec = GaussianSketchSpec(m=40, n=80, seed=1000 * seed + i)
            return InverseOperator(realize_gaussian(spec) @ A, problem.gamma)
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
    op = InverseOperator(np.zeros((4, 6)), problem.gamma)
    with pytest.raises(DivergenceError) as info:
        refine(problem, lambda _i: op, t=10, x_star=solve_exact(problem))
    err = info.value
    assert err.iteration >= 1
    assert len(err.trace.residual_norms) == err.iteration
    assert np.isfinite(err.trace.residual_norms).all()
