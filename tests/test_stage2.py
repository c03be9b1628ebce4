"""Second-stage refits, the screening criterion, and the subset search."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cd_oracle import lasso_gram_cd_reference, soft_threshold
from conftest import piecewise_series
from search_oracle import backward_trace, best_subset
from varseg import stage2
from varseg.model import TuningSchedule, effective_sample_size
from varseg.pipeline import detect
from varseg.simulate import make_scenario, scenario_preset, simulate
from varseg.stage1 import CandidateSet
from varseg.stage2 import (_NEWTON_STEPS, _lasso_gram_cd, _newton_finish,
                           _segment_lasso, evaluate_subset, fit_segment,
                           premerge_candidates, select_breaks)


def make_schedule(eta=0.0, omega=1.0):
    return TuningSchedule(lambda_constant=1.0, lambda_n=0.1, eta_n=eta,
                          omega_n=omega, gamma_n=0.01, v_exponent=0.5)


def candidate_set(times, strengths=None):
    times = tuple(times)
    if strengths is None:
        strengths = tuple(1.0 for _ in times)
    return CandidateSet(indices=times, m_hat=len(times),
                        segment_coefficients=(), strengths=tuple(strengths))


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


# ----------------------------------------------------------- _lasso_gram_cd

CD_REGIMES = ("dense", "all_zero", "sparse", "flat_column", "warm", "one_pass")


@given(st.integers(0, 2**32 - 1), st.sampled_from(CD_REGIMES))
def test_cd_kernel_matches_reference(seed, regime):
    rng = np.random.default_rng(seed)
    q, p = int(rng.integers(1, 13)), int(rng.integers(1, 4))
    m = int(rng.integers(2, 30))
    X = rng.standard_normal((m, q))
    if regime == "flat_column":
        X[:, rng.integers(q)] = 0.0
    G, r = X.T @ X, X.T @ rng.standard_normal((m, p))
    r_max = float(np.max(np.abs(r)))
    kappa = {"dense": 0.0, "all_zero": 1.5 * r_max}.get(
        regime, float(rng.uniform(0.1, 0.8)) * r_max)
    theta0 = np.zeros((q, p))
    if regime == "warm":
        theta0 = rng.standard_normal((q, p)) * (rng.random((q, p)) < 0.5)
    max_passes = 1 if regime == "one_pass" else 300

    want, want_ok = lasso_gram_cd_reference(G, r, kappa, theta0.copy(), 1e-12, max_passes)
    got = theta0.copy()
    got_ok = False
    for _ in range(max_passes):
        if _lasso_gram_cd(G, r, kappa, got) < 1e-12:
            got_ok = True
            break
    assert got_ok == want_ok
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    # zero rows carry the signed zero of their update, which serialized
    # coefficients show
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    if regime == "all_zero":
        assert not got.any()


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
    # with the Newton chain off, one descent pass cannot finish the fit
    monkeypatch.setattr(stage2, "_newton_finish", lambda *args: None)
    monkeypatch.setattr(stage2, "SEGMENT_MAX_PASSES", 1)
    assert not fit_segment(data, (2, 61), d=1, eta=1e-4).converged


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_fit_segment_is_scale_equivariant(c):
    # c X with c^2 eta scales G, r and kappa alike by c^2: the same lasso,
    # so theta stays and the SSE scales by c^2.  The first fit certifies
    # from zero; in the second (nearly collinear columns) descent finishes.
    rng = np.random.default_rng(0)
    data = piecewise_series(rng, T=60, p=3, d=1, break_at=1_000)
    collinear = data.copy()
    collinear[:, 1] = data[:, 0] + 0.05 * data[:, 1]
    for X, span, eta, from_zero in ((data, (2, 61), 1e-4, True),
                                    (collinear, (30, 61), 1e-3, False)):
        base = fit_segment(X, span, 1, eta)
        assert (base.passes == 0) == from_zero and base.certified == from_zero
        scaled = fit_segment(c * X, span, 1, c * c * eta)
        scale = float(np.max(np.abs(base.theta)))
        assert float(np.max(np.abs(scaled.theta - base.theta))) <= 1e-9 * scale
        assert scaled.sse == pytest.approx(c * c * base.sse, rel=1e-9)


SOLVE_REGIMES = ("dense", "rank_deficient", "flat_column", "all_zero",
                 "one_column", "ill_conditioned", "warm_start")


@given(st.integers(0, 2**32 - 1), st.sampled_from(SOLVE_REGIMES))
def test_segment_lasso_is_optimal(seed, regime):
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
        # nearly collinear columns: the chain from zero mostly fails, so
        # coordinate descent finishes or restarts it
        X = rng.standard_normal((m, 1)) + 0.3 * X
    G, r = X.T @ X, X.T @ rng.standard_normal((m, p))
    r_max = float(np.max(np.abs(r)))
    kappa = (1.5 if regime == "all_zero" else float(rng.uniform(0.05, 0.8))) * r_max

    start = None
    if regime == "warm_start":
        # any finite start, on any scale, sparse or not
        start = (rng.standard_normal((q, p)) * 10.0 ** rng.uniform(-3, 3)
                 * (rng.random((q, p)) < rng.uniform(0.2, 1.0)))
        given_start = start.copy()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stage2, "SEGMENT_TOL", 1e-13)
        mp.setattr(stage2, "SEGMENT_MAX_PASSES", 100_000)
        theta, passes, converged, certified = _segment_lasso(G, r, kappa, start)
    assert converged
    if start is not None:
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
        assert passes == 0 and certified and not theta.any()


def test_newton_chain_stops_on_a_repeated_sign_pattern(monkeypatch):
    # two strongly correlated rows: from zero the chain visits (+,+), then
    # alternates (+,-), (-,+), (+,-); the optimum is (0.5, 0)
    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    r = np.array([[1.0], [0.6]])
    solves = []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    # a far higher cap: the repeat, not the cap, must end the chain
    monkeypatch.setattr(stage2, "_NEWTON_STEPS", 50)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    assert _newton_finish(G, r, 0.5, np.zeros((2, 1))) is None
    assert len(solves) == 3 <= _NEWTON_STEPS
    monkeypatch.undo()
    monkeypatch.setattr(stage2, "SEGMENT_TOL", 1e-13)
    theta, passes, converged, _ = _segment_lasso(G, r, 0.5)
    assert converged and passes >= 1
    np.testing.assert_allclose(theta, [[0.5], [0.0]], rtol=0.0, atol=1e-12)


def test_newton_finish_keeps_the_search(monkeypatch):
    # scenario 1, seed 0: the certified finish must leave the search as
    # plain coordinate descent runs it
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    fast = detect(data, preset.d).stage2
    monkeypatch.setattr(stage2, "_newton_finish", lambda *args: None)
    plain = detect(data, preset.d).stage2
    assert fast.chosen_breaks == plain.chosen_breaks
    assert [s for s, _ in fast.search_trace] == [s for s, _ in plain.search_trace]
    for (_, a), (_, b) in zip(fast.search_trace, plain.search_trace):
        assert a == pytest.approx(b, rel=1e-12)
    assert all(f.converged for f in fast.fits + plain.fits)
    assert any(f.certified for f in fast.fits)
    assert not any(f.certified for f in plain.fits)
    assert sum(f.passes for f in fast.fits) < sum(f.passes for f in plain.fits)


def test_certified_fits_do_not_depend_on_the_start(monkeypatch):
    # scenario 1, seed 0: every merged range the search scores, refitted
    # from its neighbour-mean start and from zero
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, 0))
    calls = []
    fit = stage2.fit_segment

    def spy(X, rng, d, eta, **kw):
        calls.append((rng, eta, kw.get("start")))
        return fit(X, rng, d, eta, **kw)

    monkeypatch.setattr(stage2, "fit_segment", spy)
    detect(data, preset.d)
    monkeypatch.undo()
    warm = [c for c in calls if c[2] is not None]
    both = 0
    for rng, eta, start in warm:
        a = fit_segment(data, rng, preset.d, eta, start=start)
        b = fit_segment(data, rng, preset.d, eta)
        if a.certified and b.certified:
            both += 1
            assert a.theta.tobytes() == b.theta.tobytes(), rng
    assert len(warm) > 30 and both > len(warm) // 2


def test_fit_segment_rejects_a_bad_start():
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=60, p=2, d=2, break_at=1_000)
    ok = np.zeros((2, 4))
    fit_segment(data, (3, 61), d=2, eta=1e-3, start=ok)
    for bad in (ok.T, ok[:, :2], np.zeros(8), np.full((2, 4), np.nan),
                np.where(np.eye(2, 4) > 0, np.inf, 0.0)):
        with pytest.raises(ValueError, match="start"):
            fit_segment(data, (3, 61), d=2, eta=1e-3, start=bad)


def test_fit_segment_errors():
    data = np.zeros((10, 1))
    with pytest.raises(ValueError, match="too short"):
        fit_segment(data, (5, 6), d=1, eta=0.0)
    for eta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="eta must be finite"):
            fit_segment(data, (2, 9), d=1, eta=eta)


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

@pytest.mark.parametrize("seed", range(4))
def test_select_breaks_matches_the_reference_search(seed):
    # scenario 1: the neighbour-fit updates search the same subsets as
    # summing every subset afresh, and report the chosen one's own sums
    preset = scenario_preset(1)
    data = simulate(make_scenario(preset, seed))
    det = detect(data, preset.d)
    got, schedule = det.stage2, det.schedule
    merged = premerge_candidates(det.stage1, preset.d, data.shape[0])
    want = backward_trace(data, merged, preset.d, schedule)
    assert [s for s, _ in got.search_trace] == [s for s, _ in want]
    for (_, a), (_, b) in zip(got.search_trace, want):
        assert abs(a - b) <= 1e-12 * abs(b)
    L, _ = evaluate_subset(data, got.chosen_breaks, preset.d, schedule)
    assert got.L_n == L
    assert got.ic == L + got.m_final * schedule.omega_n


def test_select_no_candidates():
    data = ar_series(40)
    schedule = make_schedule(eta=0.0, omega=5.0)
    result = select_breaks(data, candidate_set(()), 1, schedule)
    assert result.m_final == 0 and result.chosen_breaks == ()
    L_empty, _ = evaluate_subset(data, (), 1, schedule)
    assert result.ic == pytest.approx(L_empty)
    assert result.L_n == pytest.approx(L_empty)


def test_select_huge_omega_prunes_everything():
    rng = np.random.default_rng(11)
    data = piecewise_series(rng, T=60, p=2, d=1, break_at=30)
    schedule = make_schedule(eta=0.0, omega=1e9)
    result = select_breaks(data, candidate_set((20, 30, 40)), 1, schedule)
    assert result.m_final == 0
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
    assert result.ic == pytest.approx(result.L_n + result.m_final * 0.2)
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
    for k in range(result.m_final + 1, 6):
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
