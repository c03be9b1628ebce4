"""Second stage: refit candidate segmentations and screen by an IC.

Breaks live on the 1-based time axis: a break at t starts a new segment
whose first response is y_t.  A segmentation with breaks t_1 < ... < t_m
partitions the usable response times into half-open ranges
[d+1, t_1), [t_1, t_2), ..., [t_m, T+1).  Each range is refit with an
l1-penalized regression at level n * eta_n (n the global effective sample
size), and a subset is scored by

    IC(subset) = sum_i sse_i + n * eta_n * sum_i ||theta_i||_1 + m * omega_n.

Screening has three steps, after Bai, Safikhani & Michailidis (JCGS
2022).  The premerged candidates are clustered around well-separated
representatives, R = ceil(n * gamma_n) apart (`cluster_candidates`).
Backward elimination searches subsets of the representatives: removing
break t_i merges only the two segments around it, so each removal is
scored from the current subset's per-segment losses in O(1), the loss
of the merged range replacing those of its two halves, and every range
is fitted once.  Last, each picked break is refined to the member of its
cluster that minimises the loss of its two adjacent segments.  The
search trace lists the searched subsets of representatives; the chosen
breaks, fits, L_n and IC are those of the refined segmentation.

Each penalized refit (`_lasso`) runs a short primal-dual active-set chain
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 2002) from a soft-thresholded
ridge point of the segment's own data (`_chain_start`); a response column
the chain's last step leaves uncertified runs stage 1's active-set column
solver (`stage1._solve_column`; Osborne, Presnell & Turlach, IMA J.
Numer. Anal. 2000) from zero on the segment's rows.  A fit is always a
solve on its signs, so a certified fit does not depend on the start.
`tests/cd_oracle.py` keeps the coordinate-descent reference the fits are
checked against, and `tests/search_oracle.py` the subset searches and
the refine that `select_breaks` is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (TuningSchedule, check_eta, check_schedule,
                    effective_sample_size, integer_times)
from .stage1 import CandidateSet, _lagged_design, _solve_column

_NEWTON_STEPS = 4
_KKT_TOL = 1e-9     # the fit certificate's tolerance, relative to kappa


@dataclass(frozen=True, eq=False)
class SegmentFit:
    range: tuple[int, int]     # half-open [lo, hi) on the time axis
    theta: np.ndarray          # p x (p*d)
    sse: float
    l1_norm: float
    converged: bool            # KKT-certified (always True for eta = 0)


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    chosen_breaks: tuple[int, ...]
    L_n: float
    ic: float
    fits: tuple[SegmentFit, ...]
    search_trace: tuple[tuple[tuple[int, ...], float], ...]


def fit_segment(data: np.ndarray, rng: tuple[int, int], d: int, eta: float) -> SegmentFit:
    """Penalized least-squares fit of one segment's coefficient block.

    rng = (lo, hi) must be two integers (otherwise TypeError), lie within
    the response times, d+1 <= lo and hi <= T+1, and hold more than d of
    them; otherwise ValueError.
    Lag vectors come from the raw series, so the first responses of a
    segment may reach back across the previous break.  eta = 0 falls back
    to a plain least-squares solve; for eta > 0 the fit is `_lasso`'s, and
    converged when it passes the KKT certificate.  Only the segment's rows
    of the lagged design are built.
    """
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    lo, hi = integer_times(rng, "segment range")
    if lo < d + 1 or hi > T + 1:
        raise ValueError(f"segment [{lo}, {hi}) outside the response times "
                         f"[{d + 1}, {T + 1})")
    if hi - lo <= d:
        raise ValueError(f"segment [{lo}, {hi}) too short for d={d}")
    check_eta(eta)
    # response time t occupies design row t - 1 - d, whose lags reach back
    # d rows of the series
    A, B = _lagged_design(X[lo - 1 - d:hi - 1], d)

    if eta == 0.0:
        theta_t, converged = np.linalg.lstsq(A, B, rcond=None)[0], True
    else:
        kappa = effective_sample_size(T, d) * eta / 2.0
        theta_t, converged = _lasso(A, B, kappa)
    resid = B - A @ theta_t
    return SegmentFit(range=(lo, hi), theta=theta_t.T,
                      sse=float(np.sum(resid * resid)),
                      l1_norm=float(np.sum(np.abs(theta_t))),
                      converged=converged)


def _lasso(A: np.ndarray, B: np.ndarray, kappa: float) -> tuple[np.ndarray, bool]:
    """Minimize ||B - A theta||_F^2 + 2 kappa |theta|_1: A and B are a segment's rows.

    A semismooth Newton chain on G = A'A and r = A'B runs from
    `_chain_start`: each of at most `_NEWTON_STEPS` steps (read at call
    time) solves (`_signed_solve`) on the signs of
    u = diag(G) theta + (r - G theta) where |u| > kappa, zero elsewhere,
    and is the fit if certified in every column.  On a failed solve or at
    the cap, the columns the last step certified keep their signs, the
    others run `_solve_column` on A's rows with block 0 alone (the
    segment's one coefficient block) and band `_KKT_TOL` kappa, the
    certificate's, and one solve on the combined signs gives theta.
    Returns (theta, certified in every column); when that solve fails, the
    pieces, uncertified.
    """
    G, r, rows = A.T @ A, A.T @ B, A.shape[0]
    diag = np.diag(G)[:, None]
    theta = _chain_start(G, r, kappa)
    grad = r - G @ theta
    ok = np.zeros(r.shape[1], dtype=bool)
    for _ in range(_NEWTON_STEPS):
        u = diag * theta + grad
        signs = np.where(np.abs(u) > kappa, np.sign(u), 0.0)
        solved = _signed_solve(G, r, kappa, signs, rows)
        if solved is None:
            break
        theta, grad, ok = solved
        if ok.all():
            return theta, True
    kept = np.where(ok, theta, 0.0)
    for c in np.flatnonzero(~ok):
        _, aa, xv, _, _ = _solve_column(A, B[:, c], kappa, _KKT_TOL * kappa, 1)
        kept[aa, c] = xv
    solved = _signed_solve(G, r, kappa, np.sign(kept), rows)
    if solved is None:
        return kept, False
    return solved[0], bool(solved[2].all())


def _chain_start(G: np.ndarray, r: np.ndarray, kappa: float) -> np.ndarray:
    """The ridge point (G + kappa I)^-1 r soft-thresholded by kappa / diag(G),
    0 where diag(G) is 0; all 0 if G + kappa I is singular in floating point."""
    ridge = G.copy()
    ridge[np.diag_indices_from(ridge)] += kappa
    try:
        z = np.linalg.solve(ridge, r)
    except np.linalg.LinAlgError:
        return np.zeros_like(r)
    diag = np.diag(G)[:, None]
    cut = np.divide(kappa, diag, out=np.full_like(diag, np.inf), where=diag > 0.0)
    return np.sign(z) * np.maximum(np.abs(z) - cut, 0.0)


def _signed_solve(G: np.ndarray, r: np.ndarray, kappa: float, signs: np.ndarray,
                  rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Solve G_SS theta_S = r_S - kappa * signs_S on each column's support S.

    The support rows are gathered into a k x k system, k the largest
    support, so one batched solve covers every column.  The gather indexes
    the augmented Gram [[G, 0], [0, I_k]] and right-hand side
    [r - kappa signs; 0]: a column with fewer than k entries takes rows
    q, ..., q + k - 1 for its padding, an identity block with a zero
    right-hand side, and its solution there lands in rows of theta that are
    dropped.  Entries off the support are +0.0, so the solve depends only
    on (G, r, kappa) and the signs.  Returns (theta, grad = r - G theta,
    certified), the KKT certificate per column: theta has the signs,
    |grad| <= kappa (1 + `_KKT_TOL`) on zero entries, and the support
    equalities hold within `_KKT_TOL` kappa.  None for a singular or
    non-finite solve, or a support larger than `rows` (G has rank at most
    rows; a lasso optimum in general position has no more).
    """
    q, p = r.shape
    cols = np.arange(p)[:, None]
    on = signs != 0.0
    count = on.sum(axis=0)
    k = int(count.max())
    if k > rows:
        return None
    slots = np.arange(k)
    idx = np.where(slots < count[:, None],                # p x k, support first
                   np.argsort(~on, axis=0, kind="stable")[:k].T, q + slots)
    gram = np.zeros((q + k, q + k))
    gram[:q, :q] = G
    gram[q + slots, q + slots] = 1.0
    rhs = np.zeros((q + k, p))
    rhs[:q] = r - kappa * signs
    try:
        solved = np.linalg.solve(gram[idx[:, :, None], idx[:, None, :]],
                                 rhs[idx, cols][:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(solved)):
        return None
    theta = np.zeros((q + k, p))
    theta[idx, cols] = solved
    theta = theta[:q]
    grad = r - G @ theta
    ok = np.where(on, np.abs(grad - kappa * signs) <= _KKT_TOL * kappa,
                  np.abs(grad) <= kappa * (1.0 + _KKT_TOL))
    return theta, grad, ok.all(axis=0) & (np.sign(theta) == signs).all(axis=0)


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
    """Total penalized loss of one segmentation; fits are cached by range.

    breaks must be integers (otherwise TypeError), strictly increasing,
    and leave every segment longer than d (otherwise ValueError).
    """
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    breaks = integer_times(breaks, "breaks")
    _check_subset(breaks, d, T)
    return _subset_loss(X, breaks, d, schedule.eta_n,
                        effective_sample_size(T, d), {} if cache is None else cache)


def _subset_loss(X: np.ndarray, breaks: tuple[int, ...], d: int, eta: float,
                 n: int, cache: dict) -> tuple[float, tuple[SegmentFit, ...]]:
    """`evaluate_subset` without its checks, for breaks known to be valid."""
    bounds = (d + 1, *breaks, X.shape[0] + 1)
    fits = [_cached_fit(X, key, d, eta, cache) for key in zip(bounds, bounds[1:])]
    L = sum([f.sse for f in fits]) + n * eta * sum([f.l1_norm for f in fits])
    return float(L), tuple(fits)


def _cached_fit(X: np.ndarray, key: tuple[int, int], d: int, eta: float,
                cache: dict) -> SegmentFit:
    fit = cache.get(key)
    if fit is None:
        fit = cache[key] = fit_segment(X, key, d, eta)
    return fit


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


def cluster_candidates(candidates: CandidateSet, d: int, T: int,
                       radius: int) -> dict[int, tuple[int, ...]]:
    """Group the premerged candidates around well-separated representatives.

    The premerged candidates are walked by decreasing strength, the earlier
    first on a tie, and each is kept unless it lies within `radius` of one
    already kept.  Every premerged candidate then joins its nearest kept
    one, the earlier on a tie.  Returns {representative: members}, both in
    increasing order; each representative is a member of its own cluster,
    and the clusters are runs of consecutive premerged candidates.
    """
    strength = dict(zip(candidates.indices, candidates.strengths))
    merged = premerge_candidates(candidates, d, T)
    kept: list[int] = []
    for t in sorted(merged, key=lambda t: (-strength[t], t)):
        if all(abs(t - k) > radius for k in kept):
            kept.append(t)
    clusters: dict[int, list[int]] = {k: [] for k in sorted(kept)}
    for t in merged:
        clusters[min(clusters, key=lambda k: (abs(t - k), k))].append(t)
    return {k: tuple(v) for k, v in clusters.items()}


def _ic(L: float, m: int, omega: float) -> float:
    return L + m * omega


def select_breaks(data: np.ndarray, candidates: CandidateSet, d: int,
                  schedule: TuningSchedule) -> ScreeningResult:
    """Cluster the candidates, search the representatives, refine the pick.

    The premerged candidates are clustered (`cluster_candidates`) with
    radius R = ceil(n * gamma_n).  Backward elimination then searches the
    representatives: it starts from the full set and greedily removes the
    one whose removal decreases the IC most, stops when no removal does,
    and scores the empty set if no level reached it.  The current subset's
    segment losses (sse + n * eta * l1_norm) are kept in a list, so
    removing break i is scored in O(1) as

        IC = L - loss_i - loss_{i+1} + loss(merged_i) + (m - 1) * omega,

    merged_i the range the removal leaves; every range is fitted once, and
    the refine below reuses the search's fits.  L is re-summed after
    each accepted removal, which stops rounding drift.  The trace holds the
    full set, then each level's options in index order.  Ties break toward
    the smaller (IC, subset) within a level, and toward fewer breaks, then
    the lexicographically smaller break vector, over the trace.

    The pick is then refined left to right: each break moves to the member
    of its cluster that minimises the loss of its two adjacent segments,
    between the already-refined break on its left and the searched one on
    its right (the break stays on an exact tie).  Members of different
    clusters are distinct premerged candidates, so every segment stays
    longer than d.  No move raises the loss.  chosen_breaks, fits, L_n and
    ic describe the refined segmentation, L_n and ic as `evaluate_subset`
    gives them; search_trace holds the searched subsets of representatives.
    The schedule must pass `check_schedule`, or ValueError is raised.
    """
    check_schedule(schedule)
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    eta, n = schedule.eta_n, effective_sample_size(T, d)
    omega, charge = schedule.omega_n, n * eta
    clusters = cluster_candidates(candidates, d, T, math.ceil(n * schedule.gamma_n))
    current = tuple(clusters)
    # premerge spaces the candidates for this, and dropping breaks only
    # widens segments, so every subset searched below is valid too
    _check_subset(current, d, T)
    cache: dict = {}

    def loss(lo: int, hi: int) -> float:
        fit = _cached_fit(X, (lo, hi), d, eta, cache)
        return fit.sse + charge * fit.l1_norm

    bounds = [d + 1, *current, T + 1]
    losses = [loss(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    L = sum(losses)
    current_val = _ic(L, len(current), omega)
    trace = [(current, current_val)]
    while current:
        m = len(current)
        options = []
        for i in range(m):
            merged = loss(bounds[i], bounds[i + 2])
            val = _ic(L - losses[i] - losses[i + 1] + merged, m - 1, omega)
            subset = current[:i] + current[i + 1:]
            trace.append((subset, val))
            options.append((val, subset, i))
        cand_val, cand_subset, i = min(options)
        if cand_val >= current_val:
            break
        losses[i:i + 2] = [loss(bounds[i], bounds[i + 2])]
        del bounds[i + 1]
        L = sum(losses)
        current, current_val = cand_subset, cand_val
    if trace[-1][0]:
        # only a level with one break scores the empty set
        trace.append(((), _ic(_subset_loss(X, (), d, eta, n, cache)[0], 0, omega)))

    _, _, picked = min((val, (len(s), s), s) for s, val in trace)

    best: list[int] = []
    for t, hi in zip(picked, (*picked[1:], T + 1)):
        lo = best[-1] if best else d + 1
        best.append(min(clusters[t], key=lambda u: (loss(lo, u) + loss(u, hi), u != t)))
    L_best, best_fits = _subset_loss(X, tuple(best), d, eta, n, cache)
    ic = _ic(L_best, len(best), omega)
    return ScreeningResult(chosen_breaks=tuple(best), L_n=float(L_best), ic=float(ic),
                           fits=best_fits, search_trace=tuple(trace))
