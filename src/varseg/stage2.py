"""Second stage: refit candidate segmentations and screen by an IC.

Breaks live on the 1-based time axis: a break at t starts a new segment
whose first response is y_t.  A segmentation with breaks t_1 < ... < t_m
partitions the usable response times into half-open ranges
[d+1, t_1), [t_1, t_2), ..., [t_m, T+1).  Each range is refit with an
l1-penalized regression at level n * eta_n (n the global effective sample
size), and a subset is scored by

    IC(subset) = sum_i sse_i + n * eta_n * sum_i ||theta_i||_1 + m * omega_n.

Each penalized refit runs cyclic coordinate descent pass by pass
(`_lasso_gram_cd`, a plain loop that visits every row) and finishes with
an exact solve of the stationarity equations on the support the passes
settled on, kept only when it passes a KKT certificate; otherwise the
descent runs on to its step tolerance.  `tests/cd_oracle.py` keeps the
reference loop the kernel is checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import TuningSchedule, effective_sample_size
from .stage1 import CandidateSet, _lagged_design

logger = logging.getLogger(__name__)

SEGMENT_TOL = 1e-7
SEGMENT_MAX_PASSES = 10_000


@dataclass(frozen=True, eq=False)
class SegmentFit:
    range: tuple[int, int]     # half-open [lo, hi) on the time axis
    theta: np.ndarray          # p x (p*d)
    sse: float
    l1_norm: float
    converged: bool            # False when the CD fit stopped at max_passes
    passes: int                # CD passes run (0 for the unpenalized solve)
    certified: bool            # True when the support solve ended the fit


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    chosen_breaks: tuple[int, ...]
    m_final: int
    L_n: float
    ic: float
    fits: tuple[SegmentFit, ...]
    search_trace: tuple[tuple[tuple[int, ...], float], ...]
    eta_n: float
    omega_n: float


def fit_segment(data: np.ndarray, rng: tuple[int, int], d: int, eta: float,
                *, tol: float = SEGMENT_TOL,
                max_passes: int = SEGMENT_MAX_PASSES) -> SegmentFit:
    """Penalized least-squares fit of one segment's coefficient block.

    Lag vectors come from the raw series, so the first responses of a
    segment may reach back across the previous break.  eta = 0 falls back
    to a plain least-squares solve.  For eta > 0 the fit is converged when
    a coordinate-descent pass moves no entry by tol or more, or when the
    support solve of `_segment_lasso` is certified.
    """
    X = np.asarray(data, dtype=float)
    T, p = X.shape
    lo, hi = int(rng[0]), int(rng[1])
    if hi - lo <= d:
        raise ValueError(f"segment [{lo}, {hi}) too short for d={d}")
    if eta < 0:
        raise ValueError("eta must be >= 0")
    lag, tgt = _lagged_design(X, d)
    # response time t occupies design row t - 1 - d
    j_lo, j_hi = max(lo - 1 - d, 0), hi - 1 - d
    A, B = lag[j_lo:j_hi], tgt[j_lo:j_hi]

    converged, passes, certified = True, 0, False
    if eta == 0.0:
        theta_t, *_ = np.linalg.lstsq(A, B, rcond=None)
    else:
        n = effective_sample_size(T, d)
        theta_t, passes, converged, certified = _segment_lasso(
            A.T @ A, A.T @ B, n * eta / 2.0, tol, max_passes)
    resid = B - A @ theta_t
    return SegmentFit(range=(lo, hi), theta=theta_t.T,
                      sse=float(np.sum(resid * resid)),
                      l1_norm=float(np.sum(np.abs(theta_t))),
                      converged=converged, passes=passes, certified=certified)


def _lasso_gram_cd(G: np.ndarray, r: np.ndarray, kappa: float,
                   theta: np.ndarray) -> float:
    """One cyclic coordinate-descent pass of the Gram-form lasso, in place.

    Minimizes sum_c [theta_c' G theta_c - 2 r_c' theta_c] plus the l1
    charge with per-entry threshold kappa over the rows of theta (all
    response columns of one row move together), visiting every row once.
    Returns the largest change of any entry in the pass.
    """
    diag = np.diag(G)
    delta = 0.0
    for a in range(G.shape[0]):
        old = theta[a]
        if diag[a] <= 0.0:
            # No curvature: only exactly-zero data columns land here.
            new = np.zeros_like(old)
        else:
            partial = r[a] - G[a] @ theta + diag[a] * old
            new = np.sign(partial) * np.maximum(np.abs(partial) - kappa, 0.0) / diag[a]
        step = np.abs(new - old).max()
        theta[a] = new
        if step > delta:
            delta = step
    return float(delta)


def _segment_lasso(G: np.ndarray, r: np.ndarray, kappa: float, tol: float,
                   max_passes: int) -> tuple[np.ndarray, int, bool, bool]:
    """Cold-started coordinate descent with a certified support solve.

    Runs `_lasso_gram_cd` one pass at a time and stops once a pass moves no
    entry by tol or more.  Once two consecutive passes leave the same
    support and signs, `_support_solve` tries to jump to the optimum on
    that support; a failed attempt is not repeated until the support or
    signs change.  Returns (theta, passes, converged, certified).
    """
    theta = np.zeros_like(r)
    last = tried = None
    for passes in range(1, max_passes + 1):
        if _lasso_gram_cd(G, r, kappa, theta) < tol:
            return theta, passes, True, False
        signs = np.sign(theta)
        if (last is not None and np.array_equal(signs, last)
                and not np.array_equal(signs, tried)):
            tried = signs
            exact = _support_solve(G, r, kappa, theta, signs)
            if exact is not None:
                return exact, passes, True, True
        last = signs
    return theta, max_passes, False, False


def _support_solve(G: np.ndarray, r: np.ndarray, kappa: float,
                   theta: np.ndarray, signs: np.ndarray) -> np.ndarray | None:
    """Lasso optimum on the given supports and signs, or None.

    Column c solves G_SS theta_S = r_S - kappa * signs_S on its support S.
    Each column's support rows are gathered into a k x k system, k the
    largest support, padded with the identity and a zero right-hand side,
    so one batched solve covers every column; entries off the support keep
    theta's (signed) zeros.  The result is accepted only on a KKT
    certificate: finite, the same signs, every zero entry with
    |r - G theta| <= kappa (1 + 1e-9), and the support equalities met
    within 1e-9 kappa.  A singular support fails like any violation.
    """
    on = signs != 0.0
    k = int(on.sum(axis=0).max())
    rows = np.argsort(~on, axis=0, kind="stable")[:k].T       # p x k, support first
    live = np.take_along_axis(on.T, rows, axis=1)
    cols = np.broadcast_to(np.arange(r.shape[1])[:, None], rows.shape)
    system = np.where(live[:, :, None] & live[:, None, :],
                      G[rows[:, :, None], rows[:, None, :]], np.eye(k))
    rhs = np.where(live, (r - kappa * signs)[rows, cols], 0.0)[:, :, None]
    try:
        solved = np.linalg.solve(system, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        return None
    exact = theta.copy()
    exact[rows[live], cols[live]] = solved[live]
    grad = r - G @ exact
    if (np.all(np.isfinite(exact)) and np.array_equal(np.sign(exact), signs)
            and np.all(np.abs(grad[~on]) <= kappa * (1.0 + 1e-9))
            and np.all(np.abs(grad[on] - kappa * signs[on]) <= 1e-9 * kappa)):
        return exact
    return None


def _check_subset(breaks: tuple[int, ...], d: int, T: int) -> None:
    bounds = (d + 1, *breaks, T + 1)
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValueError(f"breaks {breaks} not strictly increasing within range")
    for b1, b2 in zip(bounds, bounds[1:]):
        if b2 - b1 <= d:
            raise ValueError(f"segment [{b1}, {b2}) too short for d={d}")


def evaluate_subset(data: np.ndarray, breaks, d: int,
                    schedule: TuningSchedule,
                    cache: dict | None = None) -> tuple[float, tuple[SegmentFit, ...]]:
    """Total penalized loss of one segmentation; fits are cached by range."""
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    breaks = tuple(int(b) for b in breaks)
    _check_subset(breaks, d, T)
    return _subset_loss(X, breaks, d, schedule.eta_n,
                        effective_sample_size(T, d), {} if cache is None else cache)


def _subset_loss(X: np.ndarray, breaks: tuple[int, ...], d: int, eta: float,
                 n: int, cache: dict) -> tuple[float, tuple[SegmentFit, ...]]:
    """`evaluate_subset` without its checks, for breaks known to be valid."""
    bounds = (d + 1, *breaks, X.shape[0] + 1)
    fits = []
    for key in zip(bounds, bounds[1:]):
        fit = cache.get(key)
        if fit is None:
            fit = cache[key] = fit_segment(X, key, d, eta)
        fits.append(fit)
    L = sum([f.sse for f in fits]) + n * eta * sum([f.l1_norm for f in fits])
    return float(L), tuple(fits)


def premerge_candidates(candidates: CandidateSet, d: int, T: int) -> tuple[int, ...]:
    """Collapse candidate clusters and drop boundary-infeasible times.

    Candidates closer than d + 1 merge into one cluster represented by the
    member with the largest increment max-norm (earliest wins ties), so any
    subset of the result yields feasible segment lengths.
    """
    feasible = [(t, s) for t, s in zip(candidates.indices, candidates.strengths)
                if 2 * d + 1 < t <= T - d]
    merged: list[int] = []
    cluster: list[tuple[int, float]] = []
    for t, s in feasible:
        if cluster and t - cluster[-1][0] < d + 1:
            cluster.append((t, s))
        else:
            if cluster:
                merged.append(max(cluster, key=lambda ts: ts[1])[0])
            cluster = [(t, s)]
    if cluster:
        merged.append(max(cluster, key=lambda ts: ts[1])[0])
    return tuple(merged)


def _ic(L: float, m: int, omega: float) -> float:
    return L + m * omega


def select_breaks(data: np.ndarray, candidates: CandidateSet, d: int,
                  schedule: TuningSchedule) -> ScreeningResult:
    """Pick the IC-minimizing subset of the (pre-merged) candidate set.

    Backward elimination starts from the full set and greedily removes the
    candidate whose removal decreases the IC most, then compares against
    the empty set.  Ties break toward fewer breaks, then lexicographically
    smaller break vectors.
    """
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    cands = premerge_candidates(candidates, d, T)
    # premerge spaces the candidates for this, and dropping breaks only
    # widens segments, so every subset searched below is valid too
    _check_subset(cands, d, T)
    eta, n = schedule.eta_n, effective_sample_size(T, d)
    omega = schedule.omega_n
    cache: dict = {}
    trace: list[tuple[tuple[int, ...], float]] = []

    def score(subset: tuple[int, ...]) -> float:
        L, _ = _subset_loss(X, subset, d, eta, n, cache)
        val = _ic(L, len(subset), omega)
        trace.append((subset, val))
        return val

    current = tuple(cands)
    current_val = score(current)
    while current:
        options = []
        for i in range(len(current)):
            subset = current[:i] + current[i + 1:]
            options.append((score(subset), subset))
        cand_val, cand_subset = min(options)
        if cand_val >= current_val:
            break
        current, current_val = cand_subset, cand_val
    if not any(s == () for s, _ in trace):
        score(())

    best_val, _, best = min((val, (len(s), s), s) for s, val in trace)
    L_best, fits = _subset_loss(X, best, d, eta, n, cache)
    logger.debug("select_breaks: %d candidates -> %d breaks, ic=%.6g",
                 len(cands), len(best), best_val)
    return ScreeningResult(chosen_breaks=best, m_final=len(best),
                           L_n=float(L_best), ic=float(best_val),
                           fits=fits, search_trace=tuple(trace),
                           eta_n=float(schedule.eta_n),
                           omega_n=float(schedule.omega_n))
