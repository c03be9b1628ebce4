"""Second stage: refit candidate segmentations and screen by an IC.

Breaks live on the 1-based time axis: a break at t starts a new segment
whose first response is y_t.  A segmentation with breaks t_1 < ... < t_m
partitions the usable response times into half-open ranges
[d+1, t_1), [t_1, t_2), ..., [t_m, T+1).  Each range is refit with an
l1-penalized regression at level n * eta_n (n the global effective sample
size), and a subset is scored by

    IC(subset) = sum_i sse_i + n * eta_n * sum_i ||theta_i||_1 + m * omega_n.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .model import TuningSchedule, effective_sample_size
from .stage1 import CandidateSet, _lagged_design, _lasso_gram_cd

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


@dataclass(frozen=True, eq=False)
class ScreeningResult:
    chosen_breaks: tuple[int, ...]
    m_final: int
    L_n: float
    ic: float
    fits: tuple[SegmentFit, ...]
    search_trace: tuple[tuple[tuple[int, ...], float], ...]
    strategy: str
    eta_n: float
    omega_n: float


def fit_segment(data: np.ndarray, rng: tuple[int, int], d: int, eta: float,
                *, tol: float = SEGMENT_TOL,
                max_passes: int = SEGMENT_MAX_PASSES) -> SegmentFit:
    """Penalized least-squares fit of one segment's coefficient block.

    Lag vectors come from the raw series, so the first responses of a
    segment may reach back across the previous break.  eta = 0 falls back
    to a plain least-squares solve.
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

    converged = True
    if eta == 0.0:
        theta_t, *_ = np.linalg.lstsq(A, B, rcond=None)
    else:
        n = effective_sample_size(T, d)
        gram = A.T @ A
        cross = A.T @ B
        theta_t = np.zeros((p * d, p))
        converged = _lasso_gram_cd(gram, cross, n * eta / 2.0, theta_t,
                                   tol, max_passes)
    resid = B - A @ theta_t
    return SegmentFit(range=(lo, hi), theta=theta_t.T,
                      sse=float(np.sum(resid * resid)),
                      l1_norm=float(np.sum(np.abs(theta_t))),
                      converged=converged)


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
    if cache is None:
        cache = {}
    bounds = (d + 1, *breaks, T + 1)
    fits = []
    for lo, hi in zip(bounds, bounds[1:]):
        key = (lo, hi)
        if key not in cache:
            cache[key] = fit_segment(X, key, d, schedule.eta_n)
        fits.append(cache[key])
    n = effective_sample_size(T, d)
    L = sum(f.sse for f in fits) + n * schedule.eta_n * sum(f.l1_norm for f in fits)
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
                  schedule: TuningSchedule, strategy: str = "backward",
                  exhaustive_cap: int = 12) -> ScreeningResult:
    """Pick the IC-minimizing subset of the (pre-merged) candidate set.

    "backward" starts from the full set and greedily removes the candidate
    whose removal decreases the IC most, then compares against the empty
    set.  "exhaustive" scores every subset and is permitted only when the
    merged candidate count is at most exhaustive_cap.  Ties break toward
    fewer breaks, then lexicographically smaller break vectors.
    """
    X = np.asarray(data, dtype=float)
    T = X.shape[0]
    if strategy not in ("backward", "exhaustive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    cands = premerge_candidates(candidates, d, T)
    omega = schedule.omega_n
    cache: dict = {}
    trace: list[tuple[tuple[int, ...], float]] = []

    def score(subset: tuple[int, ...]) -> float:
        L, _ = evaluate_subset(X, subset, d, schedule, cache)
        val = _ic(L, len(subset), omega)
        trace.append((subset, val))
        return val

    if strategy == "exhaustive":
        if len(cands) > exhaustive_cap:
            raise ValueError(
                f"{len(cands)} candidates exceed exhaustive_cap={exhaustive_cap}")
        for size in range(len(cands) + 1):
            for subset in itertools.combinations(cands, size):
                score(subset)
    else:
        current = tuple(cands)
        current_val = score(current)
        while current:
            options = []
            for drop in current:
                subset = tuple(t for t in current if t != drop)
                options.append((score(subset), subset))
            cand_val, cand_subset = min(options)
            if cand_val >= current_val:
                break
            current, current_val = cand_subset, cand_val
        if not any(s == () for s, _ in trace):
            score(())

    best_val, _, best = min((val, (len(s), s), s) for s, val in trace)
    L_best, fits = evaluate_subset(X, best, d, schedule, cache)
    logger.debug("select_breaks[%s]: %d candidates -> %d breaks, ic=%.6g",
                 strategy, len(cands), len(best), best_val)
    return ScreeningResult(chosen_breaks=best, m_final=len(best),
                           L_n=float(L_best), ic=float(best_val),
                           fits=fits, search_trace=tuple(trace),
                           strategy=strategy, eta_n=float(schedule.eta_n),
                           omega_n=float(schedule.omega_n))
