"""First-stage estimator: design assembly, solver, KKT audit, extraction."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_monotone, piecewise_series, solver_instance
from gradient_oracle import suffix_gradients
from prox_oracle import prox_gradient_solve, prox_objective
from varseg import stage1
from varseg.pipeline import schedule_for_data
from varseg.simulate import make_scenario, scenario_preset, simulate
from varseg.stage1 import (CandidateSet, ThetaEstimate, _active_set_refine,
                           _gradients, _objective, bcd_solve, build_stage1,
                           extract_candidates, kkt_check)

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
    # suffix sums: blocks 1 and 2 both see both equations, block 3 only
    # the last, so G = (5, 5, 4) and c = (8, 8, 6)
    np.testing.assert_array_equal(problem.suffix_gram[:, 0, 0], [5.0, 5.0, 4.0])
    np.testing.assert_array_equal(problem.suffix_cross[:, 0, 0], [8.0, 8.0, 6.0])


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
        n = problem.n
        # leading duplicate block, then rank-1 steps down to the tail;
        # differencing the suffix sums only holds up to their own rounding
        np.testing.assert_array_equal(G[0], G[1])
        for i in range(1, n - 1):
            slack = 1e-12 * (1.0 + float(np.max(np.abs(G[i + 1]))))
            np.testing.assert_allclose(G[i] - G[i + 1],
                                       np.outer(rows[i - 1], rows[i - 1]),
                                       atol=slack)
        np.testing.assert_array_equal(G[n - 1],
                                      np.outer(rows[n - 2], rows[n - 2]))
        # bit for bit the flipped cumulative sum of the outer products,
        # with block 1 repeated in front
        lag, tgt = rows, problem.targets
        for got, outer in ((G, lag[:, :, None] * lag[:, None, :]),
                           (problem.suffix_cross, lag[:, :, None] * tgt[:, None, :])):
            ref = np.flip(np.cumsum(np.flip(outer, 0), 0), 0)
            assert got.tobytes() == np.concatenate([ref[:1], ref]).tobytes()


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
    n, q, p = problem.n, problem.p * d, problem.p
    rng = np.random.default_rng(seed)
    th = rng.standard_normal((n, q, p)) * 10.0 ** rng.uniform(-2, 1)
    if not dense:
        th *= rng.random((n, q, p)) < 0.15
    # blocks 0 and 1 share every row: one entry nonzero in both
    a, c = rng.integers(q), rng.integers(p)
    th[0, a, c], th[1, a, c] = 0.7, -0.4
    want = suffix_gradients(problem, th)
    got = _gradients(problem, th)
    col_l1 = float(np.max(np.sum(np.abs(th), axis=(0, 1))))
    scale = (float(np.max(np.abs(problem.suffix_cross)))
             + float(np.max(np.abs(problem.suffix_gram))) * col_l1)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * max(scale, np.finfo(float).tiny)
    assert _objective(problem, th, 0.1) == pytest.approx(
        prox_objective(problem, th, 0.1), rel=1e-10)


# --------------------------------------------------------------- bcd_solve

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
    assert est.converged
    assert kkt_check(problem, est, lam, tol_kkt=1e-4).passed


@pytest.mark.parametrize("second", [0.2, -0.2])
def test_refine_from_rank_deficient_support(second):
    # blocks 1 and 2 span the same equations, so one coordinate nonzero in
    # both gives a singular working Gram; with opposite signs the
    # stationarity equalities on that support cannot be met at all
    rng = np.random.default_rng(0)
    problem = build_stage1(piecewise_series(rng, T=30, p=2, d=1, break_at=15), 1)
    assert problem.suffix_gram[0].tobytes() == problem.suffix_gram[1].tobytes()
    lam = 0.02
    th = np.zeros((problem.n, 2, 2))
    th[0, 0, 0], th[1, 0, 0] = 0.3, second
    start = _objective(problem, th, lam)
    cand, certified = _active_set_refine(problem, th, problem.n * lam / 2.0)
    end = _objective(problem, cand, lam)
    assert end <= start
    assert certified
    oracle = prox_gradient_solve(problem, lam)
    assert abs(end - oracle) <= 1e-6 * max(1.0, abs(oracle))


def test_refine_certifies_ill_conditioned_instance_from_zero():
    # oracle-gate instance 48 (n=41, p=3, d=2, lambda=0.01): its optimal
    # support is full rank but so ill-conditioned that one eigh solve
    # misses the equalities; the refinement step recovers them
    problem, lam = solver_instance(48)
    assert (problem.n, problem.p, problem.d, lam) == (41, 3, 2, 0.01)
    zeros = np.zeros((problem.n, problem.p * problem.d, problem.p))
    cand, certified = _active_set_refine(problem, zeros, problem.n * lam / 2.0)
    assert certified
    got = _objective(problem, cand, lam)
    oracle = prox_gradient_solve(problem, lam)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def _break_instance():
    rng = np.random.default_rng(3)
    return build_stage1(piecewise_series(rng, T=40, p=2, d=1, break_at=20), 1), 0.005


def _round_capped_solve(monkeypatch, rounds):
    """Solve the break instance with the active-set round cap set to rounds."""
    problem, lam = _break_instance()
    assert bcd_solve(problem, lam).converged
    monkeypatch.setattr(stage1, "_active_set_refine",
                        functools.partial(stage1._active_set_refine, max_rounds=rounds))
    est = bcd_solve(problem, lam)
    assert not est.converged
    assert est.iterations == 0 and len(est.objective_trace) == 2
    assert_monotone(est.objective_trace)
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


# --------------------------------------------------------------- kkt_check

def test_kkt_all_zero_on_zero_data():
    problem = build_stage1(np.zeros((10, 2)), 1)
    est = bcd_solve(problem, 0.5)
    report = kkt_check(problem, est, 0.5)
    assert report.passed
    assert report.inactive_max == 0.0


def test_kkt_perturbation_names_block():
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=30, p=2, d=1, break_at=15)
    problem = build_stage1(data, 1)
    est = bcd_solve(problem, 0.01)
    assert est.converged
    assert kkt_check(problem, est, 0.01, tol_kkt=1e-3).passed

    active = [b for b in range(problem.n) if est.theta[b].any()]
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
    # increments at blocks 100 and 200 (1-based): 0.6 -> -0.4 -> 0.5
    theta = np.zeros((250, 1, 1))
    theta[0] = 0.6
    theta[99] = -1.0
    theta[199] = 0.9
    cands = extract_candidates(_estimate_from_theta(theta), None, d=1)
    assert cands.indices == (100, 200)
    levels = [seg[0, 0] for seg in cands.segment_coefficients]
    assert levels == pytest.approx([0.6, -0.4, 0.5])
    assert cands.strengths == (1.0, 0.9)


def test_extract_time_axis_shift():
    theta = np.zeros((10, 1, 2))
    theta[0] = 0.2
    theta[5, 0, 1] = 0.3     # block 6 -> time 6 + d - 1
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
    theta[5] = 1.0
    theta[9] = 3.0
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
    assert list(cands.indices) == sorted(b + 1 for b in blocks)
    assert all(s > 0 for s in cands.strengths)
    assert len(cands.segment_coefficients) == cands.m_hat + 1
    # each segment level is the cumulative sum up to its candidate block
    for k, b in enumerate(sorted(blocks)):
        np.testing.assert_allclose(cands.segment_coefficients[k + 1],
                                   theta[:b + 1].sum(axis=0), atol=1e-12)
