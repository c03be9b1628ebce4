"""End-to-end detection, evaluation metrics, and the replicate harness."""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (TuningSchedule, check_schedule, default_schedule,
                    effective_sample_size)
from .simulate import ScenarioPreset, make_scenario, simulate
from .stage1 import (CandidateSet, ThetaEstimate, bcd_solve, build_stage1,
                     extract_candidates)
from .stage2 import ScreeningResult, select_breaks

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
    C and v are finite and positive and the schedule passes
    `check_schedule` (a finite C can still overflow lambda_n).
    """
    X = np.asarray(data, dtype=float)
    T, p = X.shape
    n = effective_sample_size(T, d)
    s2 = max(data_scale(X), np.finfo(float).tiny)
    C = lambda_c if lambda_c is not None else LAMBDA_SCALE * s2
    base = default_schedule(n, p, d, C, v)
    eta_n = eta if eta is not None else ETA_SCALE * s2 * base.gamma_n
    schedule = replace(base, eta_n=float(eta_n),
                       omega_n=float(OMEGA_SCALE * s2 * base.omega_n))
    check_schedule(schedule)
    return schedule


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def detect(data: np.ndarray, d: int,
           schedule: TuningSchedule | None = None) -> DetectionResult:
    """Run both stages on one series and return everything they produced.

    The data must be a finite T x p matrix, the lag order d an integer
    >= 1 with T > 3d, and the schedule, given or derived from the data,
    must pass `check_schedule`; otherwise PipelineError("input", ...) is
    raised before any work.
    Candidates are the nonzero increments of the stage-1 estimate
    (`extract_candidates`).
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise PipelineError("input", "data must be a T x p matrix")
    if not np.all(np.isfinite(X)):
        raise PipelineError("input", "data contains non-finite values")
    # bool is an int subclass, so True would run as d = 1
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise PipelineError("input", f"lag order d must be an integer >= 1, got {d!r}")
    T = X.shape[0]
    if T <= 3 * d:
        raise PipelineError("input", f"need T > 3d, got T={T}, d={d}")
    # stage 1 holds the lagged rows, (T - d) * q floats, and per response
    # column a few work arrays of their size and its working columns (the
    # estimate is only its nonzeros): under eight such arrays in all on
    # every perfbench workload.  Stage 2's largest system is a segment's
    # q x q Gram and p batched k x k systems, k <= min(q, segment rows)
    p, q = X.shape[1], X.shape[1] * d
    k = min(q, T - d)
    have = _physical_memory()
    for stage, need, what in (
            (1, 8 * 8 * (T - d) * q, "lagged rows and work arrays"),
            (2, 8 * (q * q + p * k * k), "segment Gram and batched systems")):
        if need > have:
            raise PipelineError("input", f"stage {stage} needs {need / 2**30:.1f} GiB of "
                                         f"{what}, more than the {have / 2**30:.1f} GiB "
                                         f"of physical memory")
    try:
        if schedule is None:
            schedule = schedule_for_data(X, d)
        check_schedule(schedule)
    except ValueError as exc:
        raise PipelineError("input", str(exc)) from None

    try:
        # unnamed, the problem's lagged rows are freed before stage 2
        estimate = bcd_solve(build_stage1(X, d), schedule.lambda_n)
        candidates = extract_candidates(estimate, d)
    except Exception as exc:
        raise PipelineError("stage1", str(exc)) from exc
    try:
        screening = select_breaks(X, candidates, d, schedule)
    except Exception as exc:
        raise PipelineError("stage2", str(exc)) from exc
    return DetectionResult(
        stage1=candidates, stage1_estimate=estimate, stage2=screening,
        final_breaks=screening.chosen_breaks,
        final_models=tuple(f.theta for f in screening.fits),
        schedule=schedule,
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
    """True when the candidate times are at least as many as truth and cover it."""
    times = tuple(candidates)
    truth = tuple(truth)
    if len(times) < len(truth):
        return False
    return all(any(abs(t - c) <= radius for c in times) for t in truth)


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
    workers = min(jobs, R)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, [preset] * R, seeds, [schedule] * R))
    else:
        records = [_run_one(preset, s, schedule) for s in seeds]

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
