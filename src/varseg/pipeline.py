"""End-to-end detection, evaluation metrics, and the replicate harness."""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (TuningSchedule, check_eta, default_schedule,
                    effective_sample_size)
from .simulate import ScenarioPreset, make_scenario, simulate
from .stage1 import (CandidateSet, ThetaEstimate, bcd_solve, build_stage1,
                     extract_candidates)
from .stage2 import ScreeningResult, select_breaks

logger = logging.getLogger(__name__)

# The rate formulas are calibrated for unit-variance data; real penalties
# scale with the average column variance.  The O(1) factors below were fixed
# once against the benchmark scenarios and are overridable per call.
# LAMBDA_SCALE sits where stage 1 still covers every true break (larger
# values start missing boundary breaks) while keeping candidate clusters
# tight enough for the backward search.  OMEGA_SCALE is the smallest value
# that kills spurious splits on pure white noise without pruning true
# breaks in the hard random-structure scenario.
LAMBDA_SCALE = 0.63
ETA_SCALE = 1.0
OMEGA_SCALE = 1.3

# Fraction of T used for the "selected within window" match.
SELECTION_WINDOW_FRAC = 0.02


class PipelineError(RuntimeError):
    """Failure inside one pipeline stage, labeled with the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True, eq=False)
class DetectionResult:
    stage1: CandidateSet
    stage1_estimate: ThetaEstimate
    stage2: ScreeningResult
    final_breaks: tuple[int, ...]
    final_models: tuple[np.ndarray, ...]
    schedule: TuningSchedule
    timings: dict[str, float]


@dataclass
class ReplicateSummary:
    truth: tuple[int, ...]
    T: int
    n_replicates: int
    n_failed: int
    truth_rel: tuple[float, ...]
    mean_rel: tuple[float, ...]
    std_rel: tuple[float, ...]
    selection_rate: tuple[float, ...]
    exact_count_rate: float
    hausdorff_stage1_mean: float
    hausdorff_stage1_max: float
    hausdorff_final_mean: float
    hausdorff_final_max: float
    records: list[dict] = field(repr=False, default_factory=list)


def data_scale(data: np.ndarray) -> float:
    """Average column variance; the unit the penalty rates are quoted in."""
    return float(np.mean(np.var(np.asarray(data, dtype=float), axis=0)))


def schedule_for_data(data: np.ndarray, d: int, *, lambda_c: float | None = None,
                      eta: float | None = None, v: float = 0.5) -> TuningSchedule:
    """Data-driven schedule: rate formulas times the average column variance.

    lambda_c (the constant C in lambda_n) and eta (the level eta_n) bypass
    the variance scaling entirely when given.  Raises ValueError unless
    C and v are finite and positive and eta is finite and >= 0.
    """
    X = np.asarray(data, dtype=float)
    T, p = X.shape
    n = effective_sample_size(T, d)
    s2 = max(data_scale(X), np.finfo(float).tiny)
    C = lambda_c if lambda_c is not None else LAMBDA_SCALE * s2
    base = default_schedule(n, p, d, C, v)
    eta_n = eta if eta is not None else ETA_SCALE * s2 * base.gamma_n
    check_eta(eta_n)
    return replace(base, eta_n=float(eta_n),
                   omega_n=float(OMEGA_SCALE * s2 * base.omega_n))


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def detect(data: np.ndarray, d: int, schedule: TuningSchedule | None = None, *,
           zero_tol: float | None = None) -> DetectionResult:
    """Run both stages on one series and return everything they produced.

    zero_tol is `extract_candidates`' threshold: None for its default, or
    a value >= 0 (inf keeps no candidate); NaN or a negative value raises
    ValueError before any work.
    """
    if zero_tol is not None and not zero_tol >= 0:
        raise ValueError(f"zero_tol must be >= 0, got {zero_tol}")
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise PipelineError("input", "data must be a T x p matrix")
    if not np.all(np.isfinite(X)):
        raise PipelineError("input", "data contains non-finite values")
    T = X.shape[0]
    if T <= 3 * d:
        raise PipelineError("input", f"need T > 3d, got T={T}, d={d}")
    # one block per equation: stage 1's suffix Grams and cross-products,
    # (T - d) * q * (q + p) floats, and the solve's theta, (T - d) * q * p more
    p, q = X.shape[1], X.shape[1] * d
    need = 8 * (T - d) * q * (q + 2 * p)
    have = _physical_memory()
    if need > have:
        raise PipelineError("input", f"stage 1 needs {need / 2**30:.1f} GiB of "
                                     f"suffix arrays and coefficients, more "
                                     f"than the {have / 2**30:.1f} GiB of "
                                     f"physical memory")
    if schedule is None:
        schedule = schedule_for_data(X, d)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        problem = build_stage1(X, d)
        estimate = bcd_solve(problem, schedule.lambda_n)
        candidates = extract_candidates(estimate, zero_tol, d)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("stage1", str(exc)) from exc
    timings["stage1"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        screening = select_breaks(X, candidates, d, schedule)
    except Exception as exc:
        raise PipelineError("stage2", str(exc)) from exc
    timings["stage2"] = time.perf_counter() - t0

    logger.info("detect: %d candidates -> %d breaks %s (stage1 %.2fs, stage2 %.2fs)",
                candidates.m_hat, screening.m_final, screening.chosen_breaks,
                timings["stage1"], timings["stage2"])
    return DetectionResult(
        stage1=candidates, stage1_estimate=estimate, stage2=screening,
        final_breaks=screening.chosen_breaks,
        final_models=tuple(f.theta for f in screening.fits),
        schedule=schedule, timings=timings,
    )


def hausdorff(reference, estimate) -> float:
    """Worst distance from a point of `estimate` to its nearest `reference`.

    Empty estimate gives 0; empty reference against a nonempty estimate
    gives +inf.
    """
    ref = sorted(float(x) for x in reference)
    est = sorted(float(x) for x in estimate)
    if not est:
        return 0.0
    if not ref:
        return math.inf
    return max(min(abs(e - r) for r in ref) for e in est)


def stage1_coverage_check(candidates, truth, radius: float) -> bool:
    """True when candidates are at least as many as truth and cover it."""
    times = candidates.indices if isinstance(candidates, CandidateSet) else tuple(candidates)
    truth = tuple(truth)
    if len(times) < len(truth):
        return False
    return all(any(abs(t - c) <= radius for c in times) for t in truth)


def coverage_radius(schedule: TuningSchedule, T: int, d: int) -> int:
    """Localization radius ceil(n * gamma_n) used by the coverage check."""
    return math.ceil(effective_sample_size(T, d) * schedule.gamma_n)


def _run_one(preset: ScenarioPreset, seed: int,
             schedule: TuningSchedule | None) -> dict:
    record: dict = {"seed": seed}
    try:
        config = make_scenario(preset, seed)
        data = simulate(config)
        det = detect(data, preset.d, schedule)
        record.update(
            candidates=det.stage1.indices,
            n_candidates=det.stage1.m_hat,
            final_breaks=det.final_breaks,
            m_final=len(det.final_breaks),
            stage1_converged=det.stage1_estimate.converged,
            stage2_converged=all(f.converged for f in det.stage2.fits),
            gamma_n=det.schedule.gamma_n,
            error=None,
        )
    except Exception as exc:   # failures are recorded, never fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def run_replicates(preset: ScenarioPreset, R: int, base_seed: int,
                   schedule: TuningSchedule | None = None, *,
                   jobs: int = 1) -> ReplicateSummary:
    """Detect on R seeded replicates of a scenario and aggregate.

    Replicate r uses seed base_seed + r; aggregation order is by replicate
    index regardless of worker scheduling.  The pool is no wider than R:
    a fork-context pool starts all its workers at the first submit.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [base_seed + r for r in range(R)]
    args = [(preset, s, schedule) for s in seeds]
    workers = min(jobs, R)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one_star, args))
    else:
        records = [_run_one(*a) for a in args]

    truth = preset.breaks
    T = preset.T
    window = SELECTION_WINDOW_FRAC * T
    ok = [r for r in records if r.get("error") is None]

    sel_rate, mean_rel, std_rel = [], [], []
    for t_true in truth:
        hits = []
        for rec in ok:
            near = [b for b in rec["final_breaks"] if abs(b - t_true) <= window]
            if near:
                hits.append(min(near, key=lambda b: (abs(b - t_true), b)) / T)
        sel_rate.append(len(hits) / len(ok) if ok else 0.0)
        mean_rel.append(float(np.mean(hits)) if hits else math.nan)
        std_rel.append(float(np.std(hits)) if hits else math.nan)

    exact = [rec for rec in ok if rec["m_final"] == len(truth)]
    h1 = [hausdorff(rec["candidates"], truth) for rec in ok]
    hf = [hausdorff(rec["final_breaks"], truth) for rec in ok]
    return ReplicateSummary(
        truth=truth, T=T, n_replicates=R, n_failed=R - len(ok),
        truth_rel=tuple(t / T for t in truth),
        mean_rel=tuple(mean_rel), std_rel=tuple(std_rel),
        selection_rate=tuple(sel_rate),
        exact_count_rate=len(exact) / len(ok) if ok else 0.0,
        hausdorff_stage1_mean=float(np.mean(h1)) if h1 else math.nan,
        hausdorff_stage1_max=float(np.max(h1)) if h1 else math.nan,
        hausdorff_final_mean=float(np.mean(hf)) if hf else math.nan,
        hausdorff_final_max=float(np.max(hf)) if hf else math.nan,
        records=records,
    )


def _run_one_star(args):
    return _run_one(*args)
