"""Second stage: refit candidate segmentations and screen by an IC.

Breaks live on the 1-based time axis: a break at t starts a new segment
whose first response is y_t.  A segmentation with breaks t_1 < ... < t_m
partitions the usable response times into half-open ranges
[d+1, t_1), [t_1, t_2), ..., [t_m, T+1).  Each range is refit with an
l1-penalized regression at level n * eta_n (n the global effective sample
size), and a subset is scored by

    IC(subset) = sum_i sse_i + n * eta_n * sum_i ||theta_i||_1 + m * omega_n.

The search is backward elimination.  Removing break t_i merges only the
two segments around it, so each removal is scored from the current
subset's per-segment losses in O(1): the loss of the merged range
replaces those of its two halves.  A merged range is fitted once, from
the length-weighted mean of its two halves' fits.

Each penalized refit first tries a short primal-dual active-set chain
from its start (`_newton_finish`, a semismooth Newton method: Hintermueller,
Ito & Kunisch, SIAM J. Optim. 2002), whose steps are exact solves of the
stationarity equations on the signs the iterate implies, kept only when
one passes a KKT certificate.  A certified fit depends only on its last
system, so it does not depend on where its chain started.  If the chain
does not certify, cyclic coordinate descent runs pass by pass
(`_lasso_gram_cd`, a plain loop that visits every row) and the chain is
retried from the descent iterate whenever its signs change; the descent
alone finishes by its step tolerance.  `tests/cd_oracle.py` keeps the
reference loop the kernel is checked against, and `tests/search_oracle.py`
the subset searches the backward loop is checked against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .model import TuningSchedule, check_eta, effective_sample_size
from .stage1 import CandidateSet, _lagged_design

logger = logging.getLogger(__name__)

SEGMENT_TOL = 1e-7
SEGMENT_MAX_PASSES = 10_000
_NEWTON_STEPS = 4


@dataclass(frozen=True, eq=False)
class SegmentFit:
    range: tuple[int, int]     # half-open [lo, hi) on the time axis
    theta: np.ndarray          # p x (p*d)
    sse: float
    l1_norm: float
    converged: bool            # False when the CD fit stopped at SEGMENT_MAX_PASSES
    passes: int                # CD passes run (0 for the unpenalized solve,
                               # and for a fit certified from its start)
    certified: bool            # True when a Newton chain ended the fit


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
                *, start: np.ndarray | None = None) -> SegmentFit:
    """Penalized least-squares fit of one segment's coefficient block.

    Lag vectors come from the raw series, so the first responses of a
    segment may reach back across the previous break.  eta = 0 falls back
    to a plain least-squares solve.  For eta > 0, `_segment_lasso` tries a
    Newton chain from `start` (a finite p x (p*d) block in `theta`'s
    orientation; zero when None), then runs coordinate-descent passes from
    there with chain retries; the fit is converged when a chain is
    certified or, the only way to finish by `SEGMENT_TOL`, when a pass
    moves no entry by that much.  A certified fit is the same, to the byte,
    from any start.  Only the segment's rows of the lagged design are built.
    """
    X = np.asarray(data, dtype=float)
    T, p = X.shape
    lo, hi = int(rng[0]), int(rng[1])
    if hi - lo <= d:
        raise ValueError(f"segment [{lo}, {hi}) too short for d={d}")
    check_eta(eta)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (p, p * d) or not np.all(np.isfinite(start)):
            raise ValueError(f"start must be a finite {p} x {p * d} array")
    # response time t occupies design row t - 1 - d, whose lags reach back
    # d rows of the series
    j_lo, j_hi = max(lo - 1 - d, 0), hi - 1 - d
    A, B = _lagged_design(X[j_lo:j_hi + d], d)

    converged, passes, certified = True, 0, False
    if eta == 0.0:
        theta_t, *_ = np.linalg.lstsq(A, B, rcond=None)
    else:
        n = effective_sample_size(T, d)
        theta_t, passes, converged, certified = _segment_lasso(
            A.T @ A, A.T @ B, n * eta / 2.0, None if start is None else start.T)
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


def _segment_lasso(G: np.ndarray, r: np.ndarray, kappa: float,
                   start: np.ndarray | None = None
                   ) -> tuple[np.ndarray, int, bool, bool]:
    """Newton chain from start (zero when None), then descent with retries.

    `_newton_finish` is tried once from start before any pass.  If it does
    not certify, `_lasso_gram_cd` runs one pass at a time from start and
    stops once a pass moves no entry by `SEGMENT_TOL` or more, or after
    `SEGMENT_MAX_PASSES` passes (both read at call time); after each pass
    whose signs differ from those the last chain started from, the chain is
    tried again from the descent iterate.  Only the descent finishes by
    `SEGMENT_TOL`.
    Returns (theta, passes, converged, certified); passes is 0 when the
    chain from start certified.  start is not modified.
    """
    tol, max_passes = SEGMENT_TOL, SEGMENT_MAX_PASSES
    theta = np.zeros_like(r) if start is None else np.array(start, dtype=float)
    tried = None
    for passes in range(max_passes + 1):
        # pass 0 only tries the chain from start
        if passes and _lasso_gram_cd(G, r, kappa, theta) < tol:
            return theta, passes, True, False
        signs = np.sign(theta)
        if not np.array_equal(signs, tried):
            tried = signs
            exact = _newton_finish(G, r, kappa, theta)
            if exact is not None:
                return exact, passes, True, True
    return theta, max_passes, False, False


def _newton_finish(G: np.ndarray, r: np.ndarray, kappa: float,
                   theta: np.ndarray) -> np.ndarray | None:
    """Primal-dual active-set (semismooth Newton) chain from theta, or None.

    Each of at most `_NEWTON_STEPS` steps takes u = diag(G) theta +
    (r - G theta), sets signs to sign(u) where |u| > kappa and to 0
    elsewhere, and solves G_SS theta_S = r_S - kappa * signs_S on each
    column's support S.  The support rows are gathered into a k x k
    system, k the largest support, padded with the identity and a zero
    right-hand side, so one batched solve covers every column; entries
    off the support are +0.0, so a returned solve depends only on (G, r,
    kappa) and its signs, not on where the chain started.  A solve is
    returned only on a KKT certificate: finite, the same signs, every zero
    entry with |r - G theta| <= kappa (1 + 1e-9), and the support
    equalities met within 1e-9 kappa; otherwise it starts the next step.
    The chain gives up on a sign pattern it has already seen, a singular
    or non-finite solve, or at the step cap.  theta is not modified.
    """
    diag = np.diag(G)[:, None]
    cols = np.arange(r.shape[1])[:, None]
    grad = r - G @ theta
    seen: list[np.ndarray] = []
    for _ in range(_NEWTON_STEPS):
        u = diag * theta + grad
        signs = np.where(np.abs(u) > kappa, np.sign(u), 0.0)
        if any(np.array_equal(signs, s) for s in seen):
            return None
        seen.append(signs)
        on = signs != 0.0
        k = int(on.sum(axis=0).max())
        rows = np.argsort(~on, axis=0, kind="stable")[:k].T   # p x k, support first
        live = np.take_along_axis(on.T, rows, axis=1)
        system = np.where(live[:, :, None] & live[:, None, :],
                          G[rows[:, :, None], rows[:, None, :]], np.eye(k))
        rhs = np.where(live, (r - kappa * signs)[rows, cols], 0.0)[:, :, None]
        try:
            solved = np.linalg.solve(system, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(solved)):
            return None
        theta = np.zeros_like(theta)
        theta[rows[live], np.broadcast_to(cols, rows.shape)[live]] = solved[live]
        grad = r - G @ theta
        if (np.array_equal(np.sign(theta), signs)
                and np.all(np.abs(grad[~on]) <= kappa * (1.0 + 1e-9))
                and np.all(np.abs(grad[on] - kappa * signs[on]) <= 1e-9 * kappa)):
            return theta
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
    candidate whose removal decreases the IC most, stops when no removal
    does, and scores the empty set if no level reached it.  The current
    subset's segment fits and losses (sse + n * eta * l1_norm) are kept in
    lists, so removing break i is scored in O(1) as

        IC = L - loss_i - loss_{i+1} + loss(merged_i) + (m - 1) * omega,

    merged_i the fit of the range the removal leaves, fitted once from the
    length-weighted mean of the two fits it replaces.  L is re-summed after
    each accepted removal, which stops rounding drift.  The trace holds the
    full set, then each level's options in index order.  Ties break toward
    the smaller (IC, subset) within a level, and toward fewer breaks, then
    the lexicographically smaller break vector, over the trace; the
    reported L_n and ic are those `evaluate_subset` gives the chosen subset.
    """
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    cands = premerge_candidates(candidates, d, T)
    # premerge spaces the candidates for this, and dropping breaks only
    # widens segments, so every subset searched below is valid too
    _check_subset(cands, d, T)
    eta, n = schedule.eta_n, effective_sample_size(T, d)
    omega, charge = schedule.omega_n, n * eta
    cache: dict = {}

    def loss(fit: SegmentFit) -> float:
        return fit.sse + charge * fit.l1_norm

    def merged_fit(i: int) -> SegmentFit:
        lo, mid, hi = bounds[i:i + 3]
        fit = cache.get((lo, hi))
        if fit is None:
            start = ((mid - lo) * fits[i].theta
                     + (hi - mid) * fits[i + 1].theta) / (hi - lo)
            fit = cache[lo, hi] = fit_segment(X, (lo, hi), d, eta, start=start)
        return fit

    current = tuple(cands)
    bounds = [d + 1, *current, T + 1]
    fits = list(_subset_loss(X, current, d, eta, n, cache)[1])
    losses = [loss(f) for f in fits]
    L = sum(losses)
    current_val = _ic(L, len(current), omega)
    trace = [(current, current_val)]
    while current:
        m = len(current)
        options = []
        for i in range(m):
            val = _ic(L - losses[i] - losses[i + 1] + loss(merged_fit(i)), m - 1, omega)
            subset = current[:i] + current[i + 1:]
            trace.append((subset, val))
            options.append((val, subset, i))
        cand_val, cand_subset, i = min(options)
        if cand_val >= current_val:
            break
        merged = merged_fit(i)
        del bounds[i + 1]
        fits[i:i + 2] = [merged]
        losses[i:i + 2] = [loss(merged)]
        L = sum(losses)
        current, current_val = cand_subset, cand_val
    if trace[-1][0]:
        # only a level with one break scores the empty set
        trace.append(((), _ic(_subset_loss(X, (), d, eta, n, cache)[0], 0, omega)))

    _, _, best = min((val, (len(s), s), s) for s, val in trace)
    L_best, best_fits = _subset_loss(X, best, d, eta, n, cache)
    ic = _ic(L_best, len(best), omega)
    logger.debug("select_breaks: %d candidates -> %d breaks, ic=%.6g",
                 len(cands), len(best), ic)
    return ScreeningResult(chosen_breaks=best, m_final=len(best),
                           L_n=float(L_best), ic=float(ic),
                           fits=best_fits, search_trace=tuple(trace),
                           eta_n=float(schedule.eta_n),
                           omega_n=float(schedule.omega_n))
