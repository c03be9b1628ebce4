"""Second-stage refits, the screening criterion, and the subset search."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cd_oracle import lasso_gram_cd_reference, soft_threshold
from conftest import piecewise_series
from search_oracle import backward_trace, best_subset, refine
from varseg import stage1, stage2
from varseg.model import TuningSchedule, effective_sample_size
from varseg.pipeline import detect, schedule_for_data
from varseg.simulate import make_scenario, scenario_preset, simulate
from varseg.stage1 import CandidateSet
from varseg.stage2 import (_NEWTON_STEPS, _lasso, cluster_candidates,
                           evaluate_subset, fit_segment, premerge_candidates,
                           select_breaks)


def make_schedule(eta=0.0, omega=1.0):
    return TuningSchedule(lambda_constant=1.0, lambda_n=0.1, eta_n=eta,
                          omega_n=omega, gamma_n=0.01, v_exponent=0.5)


def candidate_set(times, strengths=None):
    times = tuple(times)
    if strengths is None:
        strengths = tuple(1.0 for _ in times)
    return CandidateSet(indices=times, strengths=tuple(strengths))


def oracle(data, times, schedule, d=1):
    """Brute-force minimum over every subset of the premerged times."""
    merged = premerge_candidates(candidate_set(times), d, data.shape[0])
    return best_subset(data, merged, d, schedule)


def ar_series(T, phi=0.5, seed=0, sigma=0.1):
    rng = np.random.default_rng(seed)
    y = np.zeros((T, 1))
    for t in range(1, T):
        y[t] = phi * y[t - 1] + sigma * rng.standard_normal()
    return y


# -------------------------------------------------------------- fit_segment

def test_fit_segment_unpenalized_orthogonality():
    rng = np.random.default_rng(3)
    data = piecewise_series(rng, T=60, p=2, d=1, break_at=1_000)
    fit = fit_segment(data, (2, 61), d=1, eta=0.0)
    lag = data[:-1]
    resid = data[1:] - lag @ fit.theta.T
    assert np.max(np.abs(lag.T @ resid)) < 1e-8


def test_fit_segment_huge_penalty():
    data = ar_series(40)
    fit = fit_segment(data, (2, 41), d=1, eta=1e6)
    assert not fit.theta.any()
    assert fit.sse == pytest.approx(float(np.sum(data[1:] ** 2)))
    assert fit.l1_norm == 0.0


def test_fit_segment_univariate_soft_threshold_oracle():
    data = ar_series(2_000, phi=0.5, seed=1)
    T = data.shape[0]
    eta = 1e-5
    fit = fit_segment(data, (2, T + 1), d=1, eta=eta)
    assert abs(fit.theta[0, 0] - 0.5) < 0.05
    # closed form: theta = S(sum x*y, n*eta/2) / sum x^2
    x, y = data[:-1, 0], data[1:, 0]
    kappa = effective_sample_size(T, 1) * eta / 2.0
    expect = float(soft_threshold(x @ y, kappa)) / (x @ x)
    assert fit.theta[0, 0] == pytest.approx(expect, rel=1e-9)


def test_fit_segment_lags_cross_previous_break():
    # segment starting at t uses y_{t-1} from before the boundary
    data = np.arange(20, dtype=float).reshape(-1, 1)
    fit = fit_segment(data, (10, 15), d=1, eta=0.0)
    assert fit.range == (10, 15)
    # response times 10..14 hold values 9..13; their lags hold 8..12
    y = np.array([9., 10., 11., 12., 13.])
    x = np.array([8., 9., 10., 11., 12.])
    assert fit.theta[0, 0] == pytest.approx((x @ y) / (x @ x))


def test_fit_segment_reports_convergence(monkeypatch):
    rng = np.random.default_rng(6)
    data = piecewise_series(rng, T=60, p=3, d=1, break_at=1_000)
    assert fit_segment(data, (2, 61), d=1, eta=1e-4).converged
    assert fit_segment(data, (2, 61), d=1, eta=0.0).converged
    # with the Newton chain off, one active-set round cannot finish the fit
    monkeypatch.setattr(stage2, "_NEWTON_STEPS", 0)
    monkeypatch.setattr(stage1, "_MAX_ROUNDS", 1)
    assert not fit_segment(data, (2, 61), d=1, eta=1e-4).converged


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_fit_segment_is_scale_equivariant(c):
    # c X with c^2 eta scales G, r and kappa alike by c^2: the same lasso,
    # so theta stays and the SSE scales by c^2.  The second fit has nearly
    # collinear columns.
    rng = np.random.default_rng(0)
    data = piecewise_series(rng, T=60, p=3, d=1, break_at=1_000)
    collinear = data.copy()
    collinear[:, 1] = data[:, 0] + 0.05 * data[:, 1]
    for X, span, eta in ((data, (2, 61), 1e-4), (collinear, (30, 61), 1e-3)):
        base = fit_segment(X, span, 1, eta)
        scaled = fit_segment(c * X, span, 1, c * c * eta)
        scale = float(np.max(np.abs(base.theta)))
        assert float(np.max(np.abs(scaled.theta - base.theta))) <= 1e-9 * scale
        assert scaled.sse == pytest.approx(c * c * base.sse, rel=1e-9)


SOLVE_REGIMES = ("dense", "rank_deficient", "flat_column", "all_zero",
                 "one_column", "ill_conditioned", "warm_start")


@given(st.integers(0, 2**32 - 1), st.sampled_from(SOLVE_REGIMES),
       st.sampled_from([0, 4]))
def test_segment_lasso_is_optimal(seed, regime, newton_steps):
    # with no Newton steps every column runs stage 1's column solver
    rng = np.random.default_rng(seed)
    q, p = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    if regime == "one_column":
        q = 1
    # rank_deficient: fewer segment rows than coefficient rows
    m = int(rng.integers(1, q)) if regime == "rank_deficient" else 3 * q + 2
    X = rng.standard_normal((m, q))
    if regime == "flat_column":
        X[:, rng.integers(q)] = 0.0
    if regime == "ill_conditioned":
        # nearly collinear columns: the chain mostly fails, so the
        # active-set pivot finds the signs
        X = rng.standard_normal((m, 1)) + 0.3 * X
    Y = rng.standard_normal((m, p))
    G, r = X.T @ X, X.T @ Y
    r_max = float(np.max(np.abs(r)))
    kappa = (1.5 if regime == "all_zero" else float(rng.uniform(0.05, 0.8))) * r_max

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stage2, "_NEWTON_STEPS", newton_steps)
        if regime == "warm_start":
            # any finite start, on any scale, sparse or not
            start = (rng.standard_normal((q, p)) * 10.0 ** rng.uniform(-3, 3)
                     * (rng.random((q, p)) < rng.uniform(0.2, 1.0)))
            given_start = start.copy()
            mp.setattr(stage2, "_chain_start", lambda G, r, kappa: start)
        theta, converged = _lasso(X, Y, kappa)
    assert converged
    if regime == "warm_start":
        np.testing.assert_array_equal(start, given_start)
    grad = r - G @ theta
    on = theta != 0.0
    assert np.all(np.abs(grad[~on]) <= kappa * (1.0 + 1e-8))
    assert np.all(np.abs(grad[on] - kappa * np.sign(theta[on])) <= 1e-8 * kappa)
    want, want_ok = lasso_gram_cd_reference(G, r, kappa, np.zeros((q, p)),
                                            1e-13, 100_000)
    assert want_ok
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    assert float(np.max(np.abs(theta - want))) <= 1e-8 * scale
    if regime == "all_zero":
        assert not theta.any()


def test_newton_chain_cycle_ends_at_the_cap(monkeypatch):
    # two strongly correlated rows: from zero the chain visits (+,+), then
    # alternates (+,-), (-,+), (+,-); the optimum is (0.5, 0).  The segment
    # rows are the Cholesky factor of G, with responses giving A'B = r
    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    r = np.array([[1.0], [0.6]])
    L = np.linalg.cholesky(G)
    A, B = L.T, np.linalg.solve(L, r)
    solves = []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    # the cycle runs to the cap; the column solver then finds the signs,
    # and one more solve gives the fit
    monkeypatch.setattr(stage2, "_chain_start", lambda G, r, kappa: np.zeros_like(r))
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    theta, converged = _lasso(A, B, 0.5)
    assert len(solves) == _NEWTON_STEPS + 1
    assert converged
    np.testing.assert_allclose(theta, [[0.5], [0.0]], rtol=0.0, atol=1e-12)


def test_pivot_admits_up_to_the_certificate_band(monkeypatch):
    # with the chain off: an entry at kappa (1 + 5e-7) enters the optimum at
    # 5e-7 kappa; bcd_solve's band, 1e-6 kappa, would leave it out and the
    # fit uncertified.  Five segment rows, the identity padded with zeros,
    # so G = I and r is B's top two rows
    monkeypatch.setattr(stage2, "_NEWTON_STEPS", 0)
    kappa = 2.0
    B = np.zeros((5, 1))
    B[:2, 0] = kappa * (1.0 + 5e-7), 0.5
    theta, converged = _lasso(np.eye(5, 2), B, kappa)
    assert converged
    assert theta[0, 0] == pytest.approx(5e-7 * kappa, rel=1e-6) and theta[1, 0] == 0.0


def test_newton_finish_keeps_the_search(monkeypatch):
    # scenario 1, seed 0: the chain only shortcuts the active-set pivot, so
    # with it off every fit and the search keep their bytes
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    fit = stage2.fit_segment

    def run():
        fits = []

        def spy(*args, **kw):
            fits.append(fit(*args, **kw))
            return fits[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stage2, "fit_segment", spy)
            return detect(data, preset.d).stage2, fits

    fast, fast_fits = run()
    monkeypatch.setattr(stage2, "_NEWTON_STEPS", 0)
    plain, plain_fits = run()
    assert fast.chosen_breaks == plain.chosen_breaks
    assert fast.search_trace == plain.search_trace
    assert [f.range for f in fast_fits] == [f.range for f in plain_fits]
    assert [f.theta.tobytes() for f in fast_fits] == [f.theta.tobytes() for f in plain_fits]
    assert all(f.converged for f in fast_fits + plain_fits)


def test_certified_fits_do_not_depend_on_the_start(monkeypatch):
    # scenario 1, seeds from 0 until more than 30 fits are pooled: every
    # fit the search makes, from the chain's own start and from zero
    preset = scenario_preset(1)
    fits = []
    fit = stage2.fit_segment

    def spy(X, rng, d, eta):
        fits.append((X, rng, eta, fit(X, rng, d, eta)))
        return fits[-1][3]

    monkeypatch.setattr(stage2, "fit_segment", spy)
    for seed in range(20):
        detect(simulate(make_scenario(preset, seed)), preset.d)
        if len(fits) > 30:
            break
    monkeypatch.undo()
    assert len(fits) > 30
    monkeypatch.setattr(stage2, "_chain_start", lambda G, r, kappa: np.zeros_like(r))
    for data, rng, eta, a in fits:
        b = fit_segment(data, rng, preset.d, eta)
        assert a.converged and b.converged
        assert a.theta.tobytes() == b.theta.tobytes(), rng


@pytest.mark.parametrize("preset", [scenario_preset(1),
                                    replace(scenario_preset(3), T=200, p=50, breaks=(100,))],
                         ids=["scenario1", "p50"])
def test_chain_memo_gives_the_fresh_solve_bytes(monkeypatch, preset):
    # every chain solve of a seed-0 detect: given the last step's signs and
    # theta, a solve re-solves only the columns whose signs changed, and
    # must return the bytes a fresh solve of every column returns
    signed_solve, calls = stage2._signed_solve, []

    def spy(*args):
        calls.append(args)
        return signed_solve(*args)

    monkeypatch.setattr(stage2, "_signed_solve", spy)
    detect(simulate(make_scenario(preset, 0)), preset.d)
    monkeypatch.undo()
    kept = 0
    for G, r, kappa, signs, rows, prev in calls:
        memo = signed_solve(G, r, kappa, signs, rows, prev)
        fresh = signed_solve(G, r, kappa, signs, rows)
        assert (memo is None) == (fresh is None)
        if memo is not None:
            assert [a.tobytes() for a in memo] == [a.tobytes() for a in fresh]
        width = np.abs(signs).sum(axis=0).max()
        if prev is not None and np.abs(prev[0]).sum(axis=0).max() == width:
            kept += int((prev[0] == signs).all(axis=0).sum())
    # the memo keeps columns on these inputs: more than one per solve
    assert kept > len(calls)


def test_chain_start_edge_cases():
    # a zero column has diag(G) = 0 and starts at 0, with no divide
    # warning; two equal columns and kappa below G's rounding make
    # G + kappa I singular, and the chain then starts from zero
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.5, 0.5, 0.0]])
    G, r = A.T @ A, A.T @ np.array([[1.0], [2.0], [0.1]])
    with np.errstate(all="raise"):
        start = stage2._chain_start(G, r, 0.5)
    assert start[:2].all() and start[2, 0] == 0.0
    assert not stage2._chain_start(G, r, 1e-20).any()
    # so a fit of two equal series at a tiny eta runs rather than raise
    x = np.random.default_rng(0).standard_normal(40)
    assert fit_segment(np.column_stack([x, x]), (2, 41), 1, 1e-300).theta.shape == (2, 2)


def test_fit_with_more_coefficients_than_rows_stays_small():
    # p=10, d=30: q = 300 coefficients per equation on 90 response rows.
    # A Newton step whose support outgrows the rows has a singular system,
    # so the chain gives up on it rather than solve p systems of up to
    # q x q; the fit still certifies, with at most 90 nonzeros per column
    preset = replace(scenario_preset(1), T=120, p=10, breaks=())
    data = simulate(make_scenario(preset, 0))
    d, q = 30, 300
    eta = schedule_for_data(data, d).eta_n
    tracemalloc.start()
    try:
        fit = fit_segment(data, (d + 1, 121), d, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert int(np.max(np.count_nonzero(fit.theta, axis=1))) <= 90
    # eight q x q arrays; solving the oversized steps peaks at 34
    assert peak <= 8 * 8 * q * q


def test_fit_segment_errors():
    data = np.zeros((10, 1))
    with pytest.raises(ValueError, match="too short"):
        fit_segment(data, (5, 6), d=1, eta=0.0)
    for eta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eta must be finite"):
            fit_segment(data, (2, 9), d=1, eta=eta)


def test_fit_segment_rejects_a_range_outside_the_response_times():
    # the response times are [d+1, T+1); a range past either end is
    # refused rather than fit on other rows under its own label
    rng = np.random.default_rng(5)
    data = piecewise_series(rng, T=30, p=2, d=2, break_at=15)
    whole = fit_segment(data, (3, 31), d=2, eta=1e-3)
    assert whole.range == (3, 31) and whole.converged
    for bad in ((2, 31), (0, 31), (-4, 20), (3, 32), (10, 40)):
        with pytest.raises(ValueError, match="outside the response times"):
            fit_segment(data, bad, d=2, eta=1e-3)


# ---------------------------------------------------------- evaluate_subset

def test_evaluate_empty_equals_full_fit():
    data = ar_series(50)
    schedule = make_schedule(eta=1e-4)
    L, fits = evaluate_subset(data, (), 1, schedule)
    assert len(fits) == 1 and fits[0].range == (2, 51)
    n = effective_sample_size(50, 1)
    assert L == pytest.approx(fits[0].sse + n * 1e-4 * fits[0].l1_norm)


def test_evaluate_additivity():
    rng = np.random.default_rng(8)
    data = piecewise_series(rng, T=60, p=2, d=1, break_at=30)
    schedule = make_schedule(eta=1e-4)
    L, fits = evaluate_subset(data, (30,), 1, schedule)
    left = fit_segment(data, (2, 30), 1, schedule.eta_n)
    right = fit_segment(data, (30, 61), 1, schedule.eta_n)
    n = effective_sample_size(60, 1)
    expect = (left.sse + right.sse
              + n * schedule.eta_n * (left.l1_norm + right.l1_norm))
    assert L == pytest.approx(expect, rel=1e-12)


def test_evaluate_true_break_beats_empty():
    rng = np.random.default_rng(9)
    data = piecewise_series(rng, T=80, p=2, d=1, break_at=40)
    schedule = make_schedule(eta=0.0)
    L_split, _ = evaluate_subset(data, (40,), 1, schedule)
    L_empty, _ = evaluate_subset(data, (), 1, schedule)
    assert L_split < L_empty


def test_evaluate_cache_matches_fresh():
    data = ar_series(40, seed=5)
    schedule = make_schedule(eta=1e-3)
    cache = {}
    L1, fits1 = evaluate_subset(data, (20,), 1, schedule, cache)
    L2, fits2 = evaluate_subset(data, (20,), 1, schedule, cache)
    L3, fits3 = evaluate_subset(data, (20,), 1, schedule)
    assert L1 == L2 == L3
    for a, b in zip(fits1, fits3):
        np.testing.assert_array_equal(a.theta, b.theta)


def test_evaluate_rejects_bad_subsets():
    data = ar_series(30)
    schedule = make_schedule()
    with pytest.raises(ValueError):
        evaluate_subset(data, (10, 10), 1, schedule)
    with pytest.raises(ValueError, match="too short"):
        evaluate_subset(data, (10, 11), 1, schedule)
    # a decreasing pair, a break at d + 1 and one past T = 30: `fit_segment`
    # refuses the first bad range and names it
    for bad, segment in (((20, 10), "[20, 10)"), ((2,), "[2, 2)"), ((35,), "[2, 35)")):
        with pytest.raises(ValueError, match=f"^segment {re.escape(segment)} "):
            evaluate_subset(data, bad, 1, schedule)


def test_segment_times_must_be_integers():
    # int() would score break 100.7 as 100 and fit range (2.9, 301) as
    # (2, 301), and take a bool as 0 or 1; numpy integers still pass
    data = ar_series(300)
    schedule = make_schedule(eta=1e-4)
    _, fits = evaluate_subset(data, [np.int64(100)], 1, schedule)
    assert [f.range for f in fits] == [(2, 100), (100, 301)]
    assert type(fits[1].range[0]) is int
    assert fit_segment(data, (np.int64(2), 301), 1, 1e-4).range == (2, 301)
    for bad in ([100.7], [np.float64(100.0)], [True]):
        with pytest.raises(TypeError):
            evaluate_subset(data, bad, 1, schedule)
    for bad in ((2.9, 301), (2, 301.0), (True, 301)):
        with pytest.raises(TypeError):
            fit_segment(data, bad, 1, 1e-4)


# ------------------------------------------------------ premerge_candidates

def test_premerge_keeps_strongest_per_cluster():
    cands = candidate_set((10, 11, 12, 20), strengths=(0.1, 0.9, 0.2, 0.5))
    assert premerge_candidates(cands, d=1, T=100) == (11, 20)


def test_premerge_tie_keeps_earliest():
    cands = candidate_set((10, 11), strengths=(0.5, 0.5))
    assert premerge_candidates(cands, d=1, T=100) == (10,)


def test_premerge_boundary_feasibility():
    # t must satisfy 2d+1 < t <= T-d
    cands = candidate_set((3, 4, 50, 99, 100))
    assert premerge_candidates(cands, d=1, T=100) == (4, 50, 99)
    cands = candidate_set((5, 50, 99))
    assert premerge_candidates(cands, d=2, T=100) == (50,)


def test_premerge_chains_span_wide_clusters():
    # consecutive times chain into one cluster even past d+1 total width
    cands = candidate_set((10, 11, 12, 13, 14), strengths=(1, 2, 5, 2, 1))
    assert premerge_candidates(cands, d=1, T=100) == (12,)


@given(st.sets(st.integers(4, 90), min_size=0, max_size=20))
def test_premerge_spacing_property(times):
    cands = candidate_set(sorted(times))
    merged = premerge_candidates(cands, d=1, T=100)
    assert all(b - a >= 2 for a, b in zip(merged, merged[1:]))
    assert set(merged) <= set(times)


# ------------------------------------------------------------ select_breaks

def _clusters(det, data, d):
    """The clusters `select_breaks` formed in detection det."""
    T = data.shape[0]
    radius = math.ceil(effective_sample_size(T, d) * det.schedule.gamma_n)
    return cluster_candidates(det.stage1, d, T, radius)


def _searched_pick(screening):
    """The subset the backward search picked, before the refine."""
    return min((val, (len(s), s), s) for s, val in screening.search_trace)[2]


@pytest.mark.parametrize("seed", range(4))
def test_select_breaks_matches_the_reference_search(seed):
    # scenario 1: the neighbour-fit updates search the same subsets of the
    # cluster representatives as summing every subset afresh, the refine
    # moves the pick as whole-segmentation losses do, and the refined
    # breaks report their own sums
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, seed))
    det = detect(data, preset.d)
    got, schedule = det.stage2, det.schedule
    clusters = _clusters(det, data, preset.d)
    want = backward_trace(data, tuple(clusters), preset.d, schedule)
    assert [s for s, _ in got.search_trace] == [s for s, _ in want]
    for (_, a), (_, b) in zip(got.search_trace, want):
        assert abs(a - b) <= 1e-12 * abs(b)
    assert got.chosen_breaks == refine(data, _searched_pick(got), clusters,
                                       preset.d, schedule)
    L, _ = evaluate_subset(data, got.chosen_breaks, preset.d, schedule)
    assert got.L_n == L
    assert got.ic == L + len(got.chosen_breaks) * schedule.omega_n


def test_clusters_keep_the_strongest_apart_and_join_the_nearest():
    # by strength: 40 is kept, 45 lies within 5 of it, 50 (10 away) is
    # kept; of 20 and 24, tied in strength, the earlier is kept and 24
    # dropped; 80 is kept.  45 is 5 from both 40 and 50 and joins the
    # earlier
    cands = candidate_set((20, 24, 40, 45, 50, 80),
                          strengths=(0.5, 0.5, 0.9, 0.8, 0.7, 0.1))
    assert cluster_candidates(cands, d=1, T=100, radius=5) == {
        20: (20, 24), 40: (40, 45), 50: (50,), 80: (80,)}
    # radius 0 keeps every premerged candidate on its own
    assert cluster_candidates(cands, d=1, T=100, radius=0) == {
        t: (t,) for t in (20, 24, 40, 45, 50, 80)}
    assert cluster_candidates(candidate_set(()), d=1, T=100, radius=5) == {}


@given(st.dictionaries(st.integers(4, 96), st.floats(0.01, 1.0), max_size=25),
       st.integers(0, 30))
def test_clusters_partition_the_premerged_candidates(strengths, radius):
    times = sorted(strengths)
    cands = candidate_set(times, [strengths[t] for t in times])
    clusters = cluster_candidates(cands, d=1, T=100, radius=radius)
    reps = list(clusters)
    assert reps == sorted(reps)
    assert all(b - a > radius for a, b in zip(reps, reps[1:]))
    members = [t for m in clusters.values() for t in m]
    assert members == list(premerge_candidates(cands, 1, 100))
    for rep, m in clusters.items():
        assert rep in m
        for t in m:
            assert min(reps, key=lambda k: (abs(t - k), k)) == rep


def test_select_breaks_on_spaced_candidates_is_the_plain_search():
    # candidates more than R = ceil(n * gamma_n) apart are their own
    # clusters: the search runs over all of them and the refine has
    # nowhere to move
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    schedule = schedule_for_data(data, preset.d)
    assert math.ceil(effective_sample_size(300, 1) * schedule.gamma_n) == 18
    times = (40, 70, 100, 130, 170, 200, 240)
    cands = candidate_set(times, strengths=(0.3, 0.1, 0.5, 0.2, 0.1, 0.4, 0.2))
    got = select_breaks(data, cands, preset.d, schedule)
    want = backward_trace(data, times, preset.d, schedule)
    assert [s for s, _ in got.search_trace] == [s for s, _ in want]
    for (_, a), (_, b) in zip(got.search_trace, want):
        assert abs(a - b) <= 1e-12 * abs(b)
    assert got.chosen_breaks == _searched_pick(got) == (100, 200)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_refine_stays_in_its_cluster_and_never_raises_the_loss(scenario):
    preset = scenario_preset(scenario)
    moved = 0
    for seed in range(6):
        data = simulate(make_scenario(preset, seed))
        det = detect(data, preset.d)
        got, d = det.stage2, preset.d
        picked, clusters = _searched_pick(got), _clusters(det, data, d)
        L, _ = evaluate_subset(data, picked, d, det.schedule)
        assert got.ic <= L + len(picked) * det.schedule.omega_n
        assert len(got.chosen_breaks) == len(picked)
        assert all(b in clusters[t] for b, t in zip(got.chosen_breaks, picked))
        bounds = (d + 1, *got.chosen_breaks, data.shape[0] + 1)
        assert all(b - a > d for a, b in zip(bounds, bounds[1:]))
        moved += got.chosen_breaks != picked
    assert moved


def test_select_no_candidates():
    data = ar_series(40)
    schedule = make_schedule(eta=0.0, omega=5.0)
    result = select_breaks(data, candidate_set(()), 1, schedule)
    assert result.chosen_breaks == ()
    L_empty, _ = evaluate_subset(data, (), 1, schedule)
    assert result.ic == pytest.approx(L_empty)
    assert result.L_n == pytest.approx(L_empty)


def test_select_huge_omega_prunes_everything():
    rng = np.random.default_rng(11)
    data = piecewise_series(rng, T=60, p=2, d=1, break_at=30)
    schedule = make_schedule(eta=0.0, omega=1e9)
    result = select_breaks(data, candidate_set((20, 30, 40)), 1, schedule)
    assert len(result.chosen_breaks) == 0
    assert oracle(data, (20, 30, 40), schedule)[0] == ()


def test_select_backward_is_brute_force_minimum():
    rng = np.random.default_rng(12)
    data = piecewise_series(rng, T=60, p=2, d=1, break_at=30)
    schedule = make_schedule(eta=1e-4, omega=0.05)
    result = select_breaks(data, candidate_set((15, 30, 45)), 1, schedule)
    best, ic = oracle(data, (15, 30, 45), schedule)
    assert result.chosen_breaks == best
    assert result.ic == pytest.approx(ic, rel=1e-12)


def test_select_ic_identity_over_trace():
    rng = np.random.default_rng(13)
    data = piecewise_series(rng, T=50, p=1, d=1, break_at=25)
    schedule = make_schedule(eta=1e-3, omega=0.2)
    result = select_breaks(data, candidate_set((12, 25, 38)), 1, schedule)
    for subset, ic in result.search_trace:
        L, _ = evaluate_subset(data, subset, 1, schedule)
        assert ic == pytest.approx(L + len(subset) * 0.2, rel=1e-12)
    assert result.ic == pytest.approx(result.L_n + len(result.chosen_breaks) * 0.2)
    assert result.chosen_breaks == oracle(data, (12, 25, 38), schedule)[0]


def test_select_backward_removals_strictly_decrease():
    rng = np.random.default_rng(14)
    data = piecewise_series(rng, T=80, p=2, d=1, break_at=40)
    schedule = make_schedule(eta=1e-4, omega=0.1)
    result = select_breaks(data, candidate_set((20, 30, 40, 50, 60)), 1,
                           schedule)
    sizes = [len(s) for s, _ in result.search_trace]
    assert sizes[0] == 5
    # the path from the full set to the final size loses one per round
    path = {}
    for s, v in result.search_trace:
        path.setdefault(len(s), []).append(v)
    best_by_size = {k: min(v) for k, v in path.items()}
    for k in range(len(result.chosen_breaks) + 1, 6):
        if k - 1 in best_by_size and k in best_by_size:
            assert best_by_size[k - 1] <= best_by_size[k] + 1e-12


def test_select_all_ties_prefer_empty():
    # zero data: every subset scores identically, fewest breaks must win
    data = np.zeros((40, 1))
    schedule = make_schedule(eta=0.0, omega=0.0)
    result = select_breaks(data, candidate_set((10, 20, 30)), 1, schedule)
    assert result.chosen_breaks == ()
    assert oracle(data, (10, 20, 30), schedule)[0] == ()


def test_select_backward_trace_order_is_deterministic():
    # all ties: the first round removes nothing, then the empty set is scored
    data = np.zeros((40, 1))
    schedule = make_schedule(eta=0.0, omega=0.0)
    result = select_breaks(data, candidate_set((12, 28)), 1, schedule)
    assert [s for s, _ in result.search_trace] == [(12, 28), (28,), (12,), ()]


def test_select_pure_sse_when_unpenalized():
    rng = np.random.default_rng(15)
    data = piecewise_series(rng, T=60, p=1, d=1, break_at=30)
    schedule = make_schedule(eta=0.0, omega=0.0)
    result = select_breaks(data, candidate_set((20, 30, 40)), 1, schedule)
    # with no penalties the search is SSE minimization, so the full
    # candidate set (most flexible segmentation) attains the minimum
    sse = {s: v for s, v in result.search_trace}
    assert result.ic == min(sse.values())
    assert result.ic <= sse[(20, 30, 40)] + 1e-12
    assert result.chosen_breaks == oracle(data, (20, 30, 40), schedule)[0]
