"""First-stage estimator: design assembly, solver, KKT audit, extraction."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (assert_monotone, dense_theta, folded_objective,
                      piecewise_series, solver_instance, sparse_support)
from gradient_oracle import suffix_gradients, suffix_pivot_system
from prox_oracle import prox_gradient_solve, prox_objective
from varseg import stage1
from varseg.pipeline import schedule_for_data
from varseg.simulate import make_scenario, scenario_preset, simulate
from varseg.stage1 import (ThetaEstimate, bcd_solve, build_stage1,
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
    got = np.empty_like(th)
    for c, (bb, aa, xv) in enumerate(sparse_support(th)):
        U = stage1._masked_columns(problem.lagged_rows, bb, aa)
        got[:, :, c] = stage1._column_residual(problem.lagged_rows,
                                               problem.targets[:, c], U, xv)[1]
    col_l1 = float(np.max(np.sum(np.abs(th), axis=(0, 1))))
    scale = (float(np.max(np.abs(problem.suffix_cross)))
             + float(np.max(np.abs(problem.suffix_gram))) * col_l1)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * max(scale, np.finfo(float).tiny)


# --------------------------------------------------------------- bcd_solve

def _nnz(est):
    return sum(xv.size for _, _, xv in est.support)


def _track_supports(mp):
    """Record every working support bcd_solve makes; columns run in order."""
    init, works = stage1._WorkingSupport.__init__, []

    def track(work, lag, y):
        init(work, lag, y)
        works.append(work)

    mp.setattr(stage1._WorkingSupport, "__init__", track)
    return works


def _solve_and_pricings(problem, lam):
    """bcd_solve, plus (column, blocks, coords, values) at every kernel call.

    The kernel sees the working columns U, not the entries, so they are read
    from the column's working support, and U is checked to be exactly their
    masked raw-row columns.  The column is the working support's place in
    solve order, and the kernel is checked to price that column's targets.
    """
    kernel, pricings = stage1._column_residual, []

    def spy(lag, y, U, xv):
        work, c = live[-1], len(live) - 1
        assert work.y is y and np.array_equal(y, problem.targets[:, c])
        assert lag is problem.lagged_rows and xv.shape == work.bb.shape
        assert np.array_equal(U, stage1._masked_columns(lag, work.bb, work.aa))
        pricings.append((c, work.bb.copy(), work.aa.copy(), xv.copy()))
        return kernel(lag, y, U, xv)

    with pytest.MonkeyPatch.context() as mp:
        live = _track_supports(mp)
        mp.setattr(stage1, "_column_residual", spy)
        est = bcd_solve(problem, lam)
    return est, pricings


def _assert_trace_matches_oracle(problem, est, lam):
    """objective_trace is the oracle's objective at zero and at the estimate."""
    n, q, p = problem.n, problem.p * problem.d, problem.p
    zero = prox_objective(problem, np.zeros((n, q, p)), lam)
    end = folded_objective(problem, dense_theta(problem, est), lam)
    assert est.objective_trace == pytest.approx((zero, end), rel=1e-12)


def test_solve_overwhelming_penalty():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((30, 2))
    problem = build_stage1(data, 1)
    est = bcd_solve(problem, lam=1e6)
    assert est.converged
    assert _nnz(est) == 0
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
    np.testing.assert_array_equal(dense_theta(problem, a), dense_theta(problem, b))
    assert a.objective_trace == b.objective_trace


def test_solve_rejects_bad_args():
    # NaN fails no `<= 0` test, so finiteness is checked on its own
    problem = build_stage1(np.zeros((5, 1)), 1)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda must be finite and positive"):
            bcd_solve(problem, lam)


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
    checked against the oracle's objective at the returned estimate.
    """
    est = bcd_solve(problem, lam)
    got = est.objective_trace[-1]
    assert got == pytest.approx(folded_objective(problem, dense_theta(problem, est), lam),
                                rel=1e-12)
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


def test_degenerate_pivot_bans_the_entry_and_still_certifies():
    # rounded Gaussian data: in column 2 the solve on the support with the
    # base block's lag coordinate 3 just admitted gives it the sign
    # opposite its gradient's, a degenerate pivot (t* = 0), so the entry
    # is dropped and banned; no oracle-gate instance reaches this path.
    # The solve still certifies, at the oracle's objective
    rng = np.random.default_rng(1182)
    T, p, d = (int(rng.integers(lo, hi)) for lo, hi in ((8, 40), (1, 4), (1, 3)))
    assert (T, p, d) == (23, 3, 2)
    problem, lam = build_stage1(np.round(rng.standard_normal((T, p))), d), 0.01
    with pytest.MonkeyPatch.context() as mp:
        works = _track_supports(mp)
        est = bcd_solve(problem, lam)
    assert len(works) == p
    assert [(c, w.ban_b.tolist(), w.ban_a.tolist()) for c, w in enumerate(works)
            if w.ban_b.size] == [(2, [0], [3])]
    assert est.converged and kkt_check(problem, est, lam).passed
    _assert_trace_matches_oracle(problem, est, lam)
    oracle = prox_gradient_solve(problem, lam)
    assert abs(est.objective_trace[-1] - oracle) <= 1e-6 * max(1.0, abs(oracle))


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
    assert _nnz(est) > 0
    assert est.objective_trace[1] < est.objective_trace[0]


def test_solve_reports_uncertified_zero(monkeypatch):
    # one round only admits an entry at zero: nothing beats the start
    est = _round_capped_solve(monkeypatch, 1)
    assert _nnz(est) == 0
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


def test_solve_prices_each_support_once_without_a_dense_theta():
    # every kernel call prices a (column, support) the solve has not priced
    # before: the objective and the certificate reuse the last pricing
    # round, with supports compared as sets since pivots reorder entries
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    lam = schedule_for_data(data, preset.d).lambda_n
    problem = build_stage1(data, preset.d)
    est, pricings = _solve_and_pricings(problem, lam)
    assert est.converged
    priced = [(c, frozenset(zip(bb.tolist(), aa.tolist(), xv.tolist())))
              for c, bb, aa, xv in pricings]
    assert len(priced) == len(set(priced))

    # the solve holds a few arrays of one column's size, never one of
    # theta's, and reading off candidates costs memory in the support only
    column_bytes = 8 * (problem.n - 1) * problem.p * problem.d
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = bcd_solve(problem, lam)
        solve_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        extract_candidates(est, preset.d)
        extract_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert solve_peak <= 8 * column_bytes < problem.p * column_bytes
    assert extract_peak <= 256 * sum(xv.size for _, _, xv in est.support)


def _scenario_1_seed_0():
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    return build_stage1(data, preset.d), schedule_for_data(data, preset.d).lambda_n


@pytest.mark.parametrize("instance", [
    pytest.param(lambda: solver_instance(48), id="gate-48"),
    pytest.param(_scenario_1_seed_0, id="s1-seed0"),
])
def test_solve_admits_at_most_one_entry_per_round(instance):
    # a column starts from an empty support and each round admits at most
    # one entry, so the k-th pricing (0-based) of a column sees at most k;
    # this is why a support never outgrows the round cap
    problem, lam = instance()
    est, pricings = _solve_and_pricings(problem, lam)
    sizes: dict[int, list[int]] = {}
    for c, bb, _, _ in pricings:
        sizes.setdefault(c, []).append(bb.size)
    assert sorted(sizes) == list(range(problem.p))
    for col in sizes.values():
        assert all(size <= k for k, size in enumerate(col)), col
    assert est.converged


@pytest.mark.parametrize("instance", [
    pytest.param(lambda: solver_instance(48), id="gate-48"),
    pytest.param(_scenario_1_seed_0, id="s1-seed0"),
])
def test_pivot_systems_match_suffix_gather(instance):
    # each admit and drop leaves the working support's pivot system equal,
    # to rounding, to the suffix-array gather it replaced, so every pivot
    # solves the system the gather would have built.  Each entry on either
    # side sums n - 1 products whose absolute values add up to at most the
    # largest squared lag-column norm (for rhs, times the target's, by
    # Cauchy-Schwarz); a sum of n - 1 terms in any order is off by at most
    # n * eps times that, so the two sides differ by at most twice it
    problem, lam = instance()
    kappa = problem.n * lam / 2.0
    lag_sq = float(np.max(np.sum(problem.lagged_rows ** 2, axis=0)))
    y_sq = float(np.max(np.sum(problem.targets ** 2, axis=0)))
    tol = 2 * problem.n * np.finfo(float).eps
    updates = []

    def check(work, kind):
        c = works.index(work)
        assert np.array_equal(work.y, problem.targets[:, c])
        A, rhs = suffix_pivot_system(problem, c, work.bb, work.aa, work.ss, kappa)
        assert A.shape == work.A.shape
        assert float(np.max(np.abs(work.A - A), initial=0.0)) <= tol * lag_sq
        assert float(np.max(np.abs(work.rhs(kappa) - rhs), initial=0.0)) \
            <= tol * np.sqrt(lag_sq * y_sq)
        updates.append(kind)

    admit, keep = stage1._WorkingSupport.admit, stage1._WorkingSupport.keep

    def admit_spy(work, *args):
        admit(work, *args)
        check(work, "admit")

    def keep_spy(work, mask):
        keep(work, mask)
        check(work, "drop")

    with pytest.MonkeyPatch.context() as mp:
        works = _track_supports(mp)
        mp.setattr(stage1._WorkingSupport, "admit", admit_spy)
        mp.setattr(stage1._WorkingSupport, "keep", keep_spy)
        assert bcd_solve(problem, lam).converged
    assert "admit" in updates and "drop" in updates


def test_build_and_solve_hold_no_suffix_sized_array():
    # build_stage1 and bcd_solve together peak at a few arrays of one
    # response column's gradient size, (n-1) * p*d floats, on scenario 3's
    # structure at p = 50, where the suffix arrays, (n-1) * p*d * (p*d + p)
    # floats, would be more than ten times that peak
    preset = replace(scenario_preset(3), T=200, p=50, breaks=(100,))
    data = simulate(make_scenario(preset, 0))
    lam = schedule_for_data(data, preset.d).lambda_n
    m, q = data.shape[0] - preset.d, preset.p * preset.d
    column_bytes = 8 * m * q
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        problem = build_stage1(data, preset.d)
        est = bcd_solve(problem, lam)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert est.converged
    assert peak <= 8 * column_bytes
    assert 8 * m * q * (q + preset.p) > 10 * 8 * column_bytes
    assert "suffix_gram" not in vars(problem) and "suffix_cross" not in vars(problem)


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
    th = dense_theta(problem, est)
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

    th = dense_theta(problem, est)
    active = [b for b, block in enumerate(th) if block.any()]
    target = active[len(active) // 2]
    th[target] = th[target] + 0.1
    bumped = ThetaEstimate(support=sparse_support(th), iterations=0,
                           converged=True, objective_trace=())
    report = kkt_check(problem, bumped, 0.01, tol_kkt=1e-3)
    assert not report.passed
    assert report.active_residuals[target + 1] > 1e-3 * report.threshold


# ------------------------------------------------------- extract_candidates

def _estimate_from_theta(th):
    """An estimate of the dense th, solver orientation (block, coordinate, column)."""
    return ThetaEstimate(support=sparse_support(th), iterations=0,
                         converged=True, objective_trace=())


def test_extract_no_increments():
    theta = np.zeros((50, 1, 1))
    theta[0] = 0.7
    cands = extract_candidates(_estimate_from_theta(theta), d=1)
    assert cands.indices == () and cands.m_hat == 0
    assert cands.strengths == ()


def test_extract_cumulative_reconstruction():
    # increments at blocks 98 and 198, times 100 and 200: 0.6 -> -0.4 -> 0.5
    theta = np.zeros((250, 1, 1))
    theta[0] = 0.6
    theta[98] = -1.0
    theta[198] = 0.9
    est = _estimate_from_theta(theta)
    cands = extract_candidates(est, d=1)
    assert cands.indices == (100, 200)
    assert cands.strengths == (1.0, 0.9)
    # the support runs in block order, so its running sum is the segment
    # levels
    blocks, _, values = est.support[0]
    assert blocks.tolist() == [0, 98, 198]
    assert np.cumsum(values) == pytest.approx([0.6, -0.4, 0.5])


def test_extract_time_axis_shift():
    theta = np.zeros((10, 2, 1))
    theta[0] = 0.2
    theta[4, 1, 0] = 0.3     # block 4 -> time 4 + d + 1
    cands = extract_candidates(_estimate_from_theta(theta), d=2)
    assert cands.indices == (7,)


def test_extract_candidates_are_the_nonzero_increments():
    # no threshold: one entry of 1e-300 makes a candidate, and an entry of
    # -0.0 is zero
    theta = np.zeros((20, 2, 2))
    theta[0] = 0.5
    theta[5, 1, 0] = 1e-300
    est = _estimate_from_theta(theta)
    negative_zero = (np.array([9]), np.array([1]), np.array([-0.0]))
    est = ThetaEstimate(support=(est.support[0], negative_zero), iterations=0,
                        converged=True, objective_trace=())
    cands = extract_candidates(est, d=1)
    assert cands.indices == (7,)
    assert cands.strengths == (1e-300,)


def _solve_with_supports(problem, lam):
    """bcd_solve, plus each column's final support from its last pricing."""
    est, pricings = _solve_and_pricings(problem, lam)
    support = {c: set(zip(bb.tolist(), aa.tolist(), xv.tolist()))
               for c, bb, aa, xv in pricings}
    return est, support


def test_solve_returns_canonical_support():
    # the contract kkt_check, extract_candidates and result.json rely on:
    # on the oracle gate's instances and eight scenario-1 series, each
    # column's entries are strictly increasing in (block, coordinate), with
    # finite nonzero values, and are the entries the solve last priced
    preset = scenario_preset(1)
    instances = [solver_instance(k) for k in range(50)]
    for seed in range(8):
        data = simulate(make_scenario(preset, seed))
        instances.append((build_stage1(data, preset.d),
                          schedule_for_data(data, preset.d).lambda_n))
    for k, (problem, lam) in enumerate(instances):
        est, priced = _solve_with_supports(problem, lam)
        assert len(est.support) == problem.p, k
        for c, (bb, aa, xv) in enumerate(est.support):
            assert bb.dtype == aa.dtype == np.intp and xv.dtype == float, k
            assert bb.shape == aa.shape == xv.shape, k
            key = bb * (problem.p * problem.d) + aa
            assert np.all(np.diff(key) > 0), k
            assert np.all(np.isfinite(xv)) and np.all(xv != 0.0), k
            assert bb.size == 0 or (0 <= bb.min() and bb.max() < problem.n - 1), k
            if est.converged:
                want = {e for e in priced[c] if e[2] != 0.0}
                assert set(zip(bb.tolist(), aa.tolist(), xv.tolist())) == want, k


@given(st.data())
def test_extract_properties(data):
    n = data.draw(st.integers(3, 30))
    blocks = data.draw(st.sets(st.integers(1, n - 1), max_size=5))
    theta = np.zeros((n, 2, 2))
    theta[0] = 0.4
    for b in blocks:
        theta[b] = data.draw(st.floats(0.1, 3.0))
        theta[b, 1, 0] = -2.0 * theta[b, 0, 0]
    cands = extract_candidates(_estimate_from_theta(theta), d=1)
    assert cands.m_hat == len(blocks)
    assert list(cands.indices) == sorted(b + 2 for b in blocks)
    # each strength is its block's max-norm
    assert cands.strengths == tuple(float(np.max(np.abs(theta[b])))
                                    for b in sorted(blocks))
