"""First-stage estimator: design assembly, solver, KKT audit, extraction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (assert_monotone, folded_objective, piecewise_series,
                      solver_instance)
from gradient_oracle import suffix_gradients
from prox_oracle import prox_gradient_solve, prox_objective
from varseg import stage1
from varseg.pipeline import schedule_for_data
from varseg.simulate import make_scenario, scenario_preset, simulate
from varseg.stage1 import (CandidateSet, ThetaEstimate, _gradients, bcd_solve,
                           build_stage1, extract_candidates, kkt_check)

finite_series = arrays(
    float, st.tuples(st.integers(4, 12), st.integers(1, 3)),
    elements=st.floats(-5, 5, allow_nan=False, width=32),
)


# ------------------------------------------------------------ build_stage1

def test_build_three_point_series():
    problem = build_stage1(np.array([[1.0], [2.0], [3.0]]), d=1)
    assert problem.n == 3
    np.testing.assert_array_equal(problem.lagged_rows, [[1.0], [2.0]])
    np.testing.assert_array_equal(problem.targets, [[2.0], [3.0]])
    # one block per equation: the base sees both equations, the increment
    # only the last, so G = (5, 4) and c = (8, 6)
    np.testing.assert_array_equal(problem.suffix_gram[:, 0, 0], [5.0, 4.0])
    np.testing.assert_array_equal(problem.suffix_cross[:, 0, 0], [8.0, 6.0])


def test_build_zero_series():
    problem = build_stage1(np.zeros((6, 2)), d=2)
    assert not problem.suffix_gram.any()
    assert not problem.suffix_cross.any()


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_stage1(np.zeros((3, 2)), d=3)
    with pytest.raises(ValueError):
        build_stage1(np.zeros(5), d=1)
    with pytest.raises(ValueError):
        build_stage1(np.full((5, 1), np.nan), d=1)
    with pytest.raises(ValueError):
        build_stage1(np.zeros((5, 1)), d=0)


@given(finite_series)
def test_build_telescoping(data):
    for d in (1, 2):
        if data.shape[0] <= d:
            continue
        problem = build_stage1(data, d)
        G, rows = problem.suffix_gram, problem.lagged_rows
        m = rows.shape[0]
        # one block per equation, rank-1 steps down to the tail;
        # differencing the suffix sums only holds up to their own rounding
        assert G.shape[0] == m == problem.n - 1
        for i in range(m - 1):
            slack = 1e-12 * (1.0 + float(np.max(np.abs(G[i + 1]))))
            np.testing.assert_allclose(G[i] - G[i + 1],
                                       np.outer(rows[i], rows[i]),
                                       atol=slack)
        np.testing.assert_array_equal(G[m - 1],
                                      np.outer(rows[m - 1], rows[m - 1]))
        # bit for bit the flipped cumulative sum of the outer products
        lag, tgt = rows, problem.targets
        for got, outer in ((G, lag[:, :, None] * lag[:, None, :]),
                           (problem.suffix_cross, lag[:, :, None] * tgt[:, None, :])):
            ref = np.flip(np.cumsum(np.flip(outer, 0), 0), 0)
            assert got.tobytes() == ref.tobytes()


@given(finite_series)
def test_build_gram_symmetric_psd(data):
    problem = build_stage1(data, 1)
    for G in problem.suffix_gram:
        np.testing.assert_allclose(G, G.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(G)) > -1e-8 * max(1.0, np.max(np.abs(G)))


# ----------------------------------------------- raw-row residual kernel

@given(arrays(float, st.tuples(st.integers(4, 40), st.integers(1, 3)),
              elements=st.floats(-5, 5, allow_nan=False, width=32)),
       st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**32 - 1))
def test_gradients_match_suffix_recursion(data, d, dense, seed):
    problem = build_stage1(data, d)
    m, q, p = problem.n - 1, problem.p * d, problem.p
    rng = np.random.default_rng(seed)
    th = rng.standard_normal((m, q, p)) * 10.0 ** rng.uniform(-2, 1)
    if not dense:
        th *= rng.random((m, q, p)) < 0.15
    # the base and the first increment: one entry nonzero in both
    a, c = rng.integers(q), rng.integers(p)
    th[0, a, c], th[1, a, c] = 0.7, -0.4
    want = suffix_gradients(problem, th)
    got = _gradients(problem, th)
    col_l1 = float(np.max(np.sum(np.abs(th), axis=(0, 1))))
    scale = (float(np.max(np.abs(problem.suffix_cross)))
             + float(np.max(np.abs(problem.suffix_gram))) * col_l1)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * max(scale, np.finfo(float).tiny)


# --------------------------------------------------------------- bcd_solve

def _assert_trace_matches_oracle(problem, est, lam):
    """objective_trace is the oracle's objective at zero and at the estimate."""
    n, q, p = problem.n, problem.p * problem.d, problem.p
    zero = prox_objective(problem, np.zeros((n, q, p)), lam)
    end = folded_objective(problem, np.swapaxes(est.theta, 1, 2), lam)
    assert est.objective_trace == pytest.approx((zero, end), rel=1e-12)


def test_solve_overwhelming_penalty():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((30, 2))
    problem = build_stage1(data, 1)
    est = bcd_solve(problem, lam=1e6)
    assert est.converged
    assert not est.theta.any()
    expect = float(np.sum(problem.targets ** 2)) / problem.n
    assert est.objective_trace[-1] == pytest.approx(expect, rel=1e-12)


def test_solve_matches_prox_oracle_on_break_instance():
    rng = np.random.default_rng(1)
    data = piecewise_series(rng, T=40, p=2, d=1, break_at=20)
    problem = build_stage1(data, 1)
    lam = 0.02
    est = bcd_solve(problem, lam)
    assert est.converged
    oracle = prox_gradient_solve(problem, lam)
    got = est.objective_trace[-1]
    assert abs(got - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_solve_three_point_fixed_point():
    problem = build_stage1(np.array([[1.0], [2.0], [3.0]]), d=1)
    est = bcd_solve(problem, lam=0.1)
    assert est.converged
    report = kkt_check(problem, est, 0.1, tol_kkt=1e-6)
    assert report.passed
    # the solution actually beats the zero iterate
    assert est.objective_trace[-1] < est.objective_trace[0]


def test_solve_monotone_and_deterministic():
    rng = np.random.default_rng(4)
    data = piecewise_series(rng, T=35, p=2, d=2, break_at=18)
    problem = build_stage1(data, 2)
    a = bcd_solve(problem, 0.05)
    b = bcd_solve(problem, 0.05)
    assert_monotone(a.objective_trace)
    np.testing.assert_array_equal(a.theta, b.theta)
    assert a.objective_trace == b.objective_trace


def test_solve_rejects_bad_args():
    problem = build_stage1(np.zeros((5, 1)), 1)
    with pytest.raises(ValueError):
        bcd_solve(problem, 0.0)


@settings(max_examples=15)
@given(st.integers(0, 10_000), st.sampled_from([0.01, 0.1, 1.0]))
def test_solve_random_instances_certify(seed, lam):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(8, 30))
    p = int(rng.integers(1, 3))
    data = rng.standard_normal((T, p)) * rng.uniform(0.1, 1.5)
    problem = build_stage1(data, 1)
    est = bcd_solve(problem, lam)
    assert_monotone(est.objective_trace)
    _assert_trace_matches_oracle(problem, est, lam)
    assert est.converged
    assert kkt_check(problem, est, lam, tol_kkt=1e-4).passed


def _refine_from_zero(problem, lam):
    """(certified, objective) of the active-set solve from zero.

    The objective is the solve's own residual sum of squares and l1 charge,
    checked against the oracle's objective at the returned theta.
    """
    est = bcd_solve(problem, lam)
    got = est.objective_trace[-1]
    th = np.swapaxes(est.theta, 1, 2)
    assert got == pytest.approx(folded_objective(problem, th, lam), rel=1e-12)
    return est.converged, got


@pytest.mark.parametrize("second", [0.2, -0.2])
def test_refine_from_rank_deficient_support(second):
    # in the paper's layout blocks 1 and 2 span the same equations, so one
    # coordinate nonzero in both is a point on a singular support; with
    # opposite signs the stationarity equalities there cannot be met at
    # all.  The solver holds that variable once, as its base block, and
    # from zero it must end below such a point, certified, at the oracle
    rng = np.random.default_rng(0)
    problem = build_stage1(piecewise_series(rng, T=30, p=2, d=1, break_at=15), 1)
    assert problem.suffix_gram.shape[0] == problem.lagged_rows.shape[0]
    lam = 0.02
    th = np.zeros((problem.n, 2, 2))     # the paper's layout
    th[0, 0, 0], th[1, 0, 0] = 0.3, second
    start = prox_objective(problem, th, lam)
    certified, end = _refine_from_zero(problem, lam)
    assert end <= start
    assert certified
    oracle = prox_gradient_solve(problem, lam)
    assert abs(end - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_refine_descends_unattainable_face_from_zero():
    # oracle-gate instance 24 (n=35, p=1, d=2, lambda=0.01): twice on the
    # way from zero the working support grows nearly as large as the 34
    # equations, 30 and then 31 entries, its Gram is singular and the
    # equalities on it cannot be met, so the solve descends along the null
    # space
    problem, lam = solver_instance(24)
    assert (problem.n, problem.p, problem.d, lam) == (35, 1, 2, 0.01)
    assert problem.suffix_gram.shape[0] == problem.lagged_rows.shape[0]
    certified, got = _refine_from_zero(problem, lam)
    assert certified
    oracle = prox_gradient_solve(problem, lam)
    assert abs(got - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_refine_certifies_ill_conditioned_instance_from_zero():
    # oracle-gate instance 48 (n=41, p=3, d=2, lambda=0.01): its optimal
    # support is full rank but so ill-conditioned that one eigh solve
    # misses the equalities; the refinement step recovers them
    problem, lam = solver_instance(48)
    assert (problem.n, problem.p, problem.d, lam) == (41, 3, 2, 0.01)
    certified, got = _refine_from_zero(problem, lam)
    assert certified
    oracle = prox_gradient_solve(problem, lam)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def _break_instance():
    rng = np.random.default_rng(3)
    return build_stage1(piecewise_series(rng, T=40, p=2, d=1, break_at=20), 1), 0.005


def _round_capped_solve(monkeypatch, rounds):
    """Solve the break instance with the active-set round cap set to rounds."""
    problem, lam = _break_instance()
    assert bcd_solve(problem, lam).converged
    monkeypatch.setattr(stage1, "_MAX_ROUNDS", rounds)
    est = bcd_solve(problem, lam)
    assert not est.converged
    assert est.iterations == 0 and len(est.objective_trace) == 2
    assert_monotone(est.objective_trace)
    # the residual of a column that left at the round cap is its own
    _assert_trace_matches_oracle(problem, est, lam)
    assert not kkt_check(problem, est, lam).passed
    return est


def test_solve_adopts_uncertified_candidate(monkeypatch):
    # three rounds leave a partial support: it lowers the objective, so it
    # is returned, but without a certificate it is not converged
    est = _round_capped_solve(monkeypatch, 3)
    assert est.theta.any()
    assert est.objective_trace[1] < est.objective_trace[0]


def test_solve_reports_uncertified_zero(monkeypatch):
    # one round only admits an entry at zero: nothing beats the start
    est = _round_capped_solve(monkeypatch, 1)
    assert not est.theta.any()
    assert est.objective_trace[1] == est.objective_trace[0]


def test_cold_solve_certifies_without_sweeps():
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    lam = schedule_for_data(data, preset.d).lambda_n
    problem = build_stage1(data, preset.d)
    est = bcd_solve(problem, lam)
    assert est.iterations == 0
    assert est.converged
    assert len(est.objective_trace) == 2
    assert_monotone(est.objective_trace)
    assert kkt_check(problem, est, lam).passed


def test_solve_prices_each_support_once_in_one_theta():
    # every kernel call prices a (column, support) the solve has not priced
    # before: the objective and the certificate reuse the last pricing
    # round, with supports compared as sets since pivots reorder entries
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    lam = schedule_for_data(data, preset.d).lambda_n
    problem = build_stage1(data, preset.d)
    kernel = stage1._column_residual
    priced = []

    def spy(problem, c, bb, aa, xv):
        priced.append((c, frozenset(zip(bb.tolist(), aa.tolist(), xv.tolist()))))
        return kernel(problem, c, bb, aa, xv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stage1, "_column_residual", spy)
        assert bcd_solve(problem, lam).converged
    assert len(priced) == len(set(priced))

    # the returned theta is the only dense array the solve keeps, and
    # reading off candidates makes no dense copy of it
    theta_bytes = 8 * (problem.n - 1) * problem.p * problem.d * problem.p
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = bcd_solve(problem, lam)
        solve_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        extract_candidates(est, None, preset.d)
        extract_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solve_peak <= 1.5 * theta_bytes
    assert extract_peak <= 0.5 * theta_bytes


# --------------------------------------------------------------- kkt_check

def test_kkt_all_zero_on_zero_data():
    problem = build_stage1(np.zeros((10, 2)), 1)
    est = bcd_solve(problem, 0.5)
    report = kkt_check(problem, est, 0.5)
    assert report.passed
    assert report.inactive_max == 0.0


def test_kkt_inactive_max_is_worst_zero_entry():
    # oracle-gate instance 0: in the paper's layout an active base entry
    # has a zero twin in block 2 with gradient kappa * sign, which would
    # pin inactive_max at the threshold; one block per equation has no twin
    problem, lam = solver_instance(0)
    est = bcd_solve(problem, lam)
    report = kkt_check(problem, est, lam)
    th = np.swapaxes(est.theta, 1, 2)
    zero_grads = np.abs(suffix_gradients(problem, th)[th == 0.0])
    assert report.inactive_max == pytest.approx(float(np.max(zero_grads)), rel=1e-12)
    assert report.inactive_max < 0.99 * report.threshold


def test_kkt_perturbation_names_block():
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=30, p=2, d=1, break_at=15)
    problem = build_stage1(data, 1)
    est = bcd_solve(problem, 0.01)
    assert est.converged
    assert kkt_check(problem, est, 0.01, tol_kkt=1e-3).passed

    active = [b for b, block in enumerate(est.theta) if block.any()]
    target = active[len(active) // 2]
    theta = est.theta.copy()
    theta[target] = theta[target] + 0.1
    bumped = ThetaEstimate(theta=theta, lambda_used=0.01, iterations=0,
                           converged=True, objective_trace=())
    report = kkt_check(problem, bumped, 0.01, tol_kkt=1e-3)
    assert not report.passed
    assert report.active_residuals[target + 1] > 1e-3 * report.threshold


# ------------------------------------------------------- extract_candidates

def _estimate_from_theta(theta):
    return ThetaEstimate(theta=theta, lambda_used=0.1, iterations=1,
                         converged=True, objective_trace=())


def test_extract_no_increments():
    theta = np.zeros((50, 1, 1))
    theta[0] = 0.7
    cands = extract_candidates(_estimate_from_theta(theta), None, d=1)
    assert cands.indices == () and cands.m_hat == 0
    assert len(cands.segment_coefficients) == 1
    assert cands.segment_coefficients[0][0, 0] == 0.7


def test_extract_cumulative_reconstruction():
    # increments at blocks 98 and 198, times 100 and 200: 0.6 -> -0.4 -> 0.5
    theta = np.zeros((250, 1, 1))
    theta[0] = 0.6
    theta[98] = -1.0
    theta[198] = 0.9
    cands = extract_candidates(_estimate_from_theta(theta), None, d=1)
    assert cands.indices == (100, 200)
    levels = [seg[0, 0] for seg in cands.segment_coefficients]
    assert levels == pytest.approx([0.6, -0.4, 0.5])
    assert cands.strengths == (1.0, 0.9)


def test_extract_time_axis_shift():
    theta = np.zeros((10, 1, 2))
    theta[0] = 0.2
    theta[4, 0, 1] = 0.3     # block 4 -> time 4 + d + 1
    cands = extract_candidates(_estimate_from_theta(theta), None, d=2)
    assert cands.indices == (7,)


def test_extract_zero_tol_infinite():
    theta = np.zeros((20, 1, 1))
    theta[0] = 0.5
    theta[7] = 3.0
    cands = extract_candidates(_estimate_from_theta(theta), np.inf, d=1)
    assert cands.indices == ()


def test_extract_default_tol_scales_with_base():
    # base block of norm 2e6 lifts the default threshold to 2.0
    theta = np.zeros((20, 1, 1))
    theta[0] = 2e6
    theta[4] = 1.0
    theta[8] = 3.0
    cands = extract_candidates(_estimate_from_theta(theta), None, d=1)
    assert cands.indices == (10,)


@given(st.data())
def test_extract_properties(data):
    n = data.draw(st.integers(3, 30))
    blocks = data.draw(st.sets(st.integers(1, n - 1), max_size=5))
    theta = np.zeros((n, 2, 2))
    theta[0] = 0.4
    for b in blocks:
        theta[b] = data.draw(st.floats(0.1, 3.0))
    cands = extract_candidates(_estimate_from_theta(theta), 1e-9, d=1)
    assert cands.m_hat == len(blocks)
    assert list(cands.indices) == sorted(b + 2 for b in blocks)
    assert all(s > 0 for s in cands.strengths)
    assert len(cands.segment_coefficients) == cands.m_hat + 1
    # each segment level is the cumulative sum up to its candidate block
    for k, b in enumerate(sorted(blocks)):
        np.testing.assert_allclose(cands.segment_coefficients[k + 1],
                                   theta[:b + 1].sum(axis=0), atol=1e-12)
