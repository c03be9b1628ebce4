"""Session fixtures: replicate batches, solver instances, scenario runs.

The expensive benchmark batches are computed once and shared between the
behavioral tests and the acceptance gate, so the suite pays for each
R=20 study a single time.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import settings

from prox_oracle import prox_objective
from varseg.model import effective_sample_size
from varseg.pipeline import data_scale, detect, run_replicates, schedule_for_data
from varseg.simulate import make_scenario, scenario_preset, simulate
from varseg.stage1 import bcd_solve, build_stage1, extract_candidates
from varseg.stage2 import cluster_candidates, premerge_candidates

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

R = 20
BASE_SEED = 0


def assert_monotone(trace, slack=1e-10):
    drops = [b - a for a, b in zip(trace, trace[1:])]
    worst = max(drops, default=0.0)
    assert worst <= slack, f"objective rose by {worst:.3e}"


def folded_objective(problem, th, lam):
    """Oracle objective of th (one block per equation, solver orientation).

    The oracle keeps the paper's layout, whose first two blocks multiply
    the same rows; a zero second block carries th over to it unchanged.
    """
    return prox_objective(problem, np.insert(th, 1, 0.0, axis=0), lam)


def dense_theta(problem, estimate):
    """The estimate as a dense (n-1, p*d, p) array, solver orientation."""
    th = np.zeros((problem.n - 1, problem.p * problem.d, problem.p))
    for c, (bb, aa, xv) in enumerate(estimate.support):
        th[bb, aa, c] = xv
    return th


def sparse_support(th):
    """ThetaEstimate.support of a dense th in solver orientation.

    np.nonzero lists each column's entries by (block, coordinate), the
    order the solve returns them in.
    """
    support = []
    for c in range(th.shape[2]):
        bb, aa = np.nonzero(th[:, :, c])
        support.append((bb, aa, th[bb, aa, c]))
    return tuple(support)


def piecewise_series(rng, T, p, d, break_at):
    """Small piecewise VAR draw for solver tests; lag-1 block kept stable."""
    def coef():
        A = np.zeros((p, p * d))
        M = rng.uniform(-1.0, 1.0, size=(p, p))
        s = np.linalg.norm(M, 2)
        A[:, :p] = 0.6 * M / max(s, 1e-12)
        return A

    segs = [coef(), coef()]
    y = np.zeros((T, p))
    for t in range(d, T):
        A = segs[0 if t + 1 < break_at else 1]
        mean = np.zeros(p)
        for k in range(d):
            mean += A[:, k * p:(k + 1) * p] @ y[t - 1 - k]
        y[t] = mean + 0.1 * rng.standard_normal(p)
    return y


def _timed_batch(preset):
    t0 = time.perf_counter()
    summary = run_replicates(preset, R, BASE_SEED)
    elapsed = time.perf_counter() - t0
    errs = [r["error"] for r in summary.records if r.get("error")]
    assert not errs, errs
    return summary, elapsed


@pytest.fixture(scope="session")
def s1_batch():
    return _timed_batch(scenario_preset(1))


@pytest.fixture(scope="session")
def s2_batch():
    return _timed_batch(scenario_preset(2))


@pytest.fixture(scope="session")
def s3_batch():
    return _timed_batch(scenario_preset(3))


@pytest.fixture(scope="session")
def null_var_batch():
    # single-regime VAR: first benchmark segment, no breaks
    preset = dataclasses.replace(scenario_preset(1), breaks=())
    return _timed_batch(preset)


@pytest.fixture(scope="session")
def white_noise_batch():
    preset = dataclasses.replace(scenario_preset(1), breaks=(),
                                 diag_values=(0.0,), band_values=(0.0,))
    return _timed_batch(preset)


@pytest.fixture(scope="session")
def s1_detections():
    """Three full detections with estimates and schedules retained."""
    preset = scenario_preset(1)
    out = []
    for seed in range(3):
        data = simulate(make_scenario(preset, seed))
        out.append((data, detect(data, preset.d)))
    return out


def solver_instance(k):
    """Solver instance k of the oracle gate: a (problem, lambda) pair.

    Even k draw scaled white noise, odd k a piecewise VAR, within the
    envelope n <= 50, p <= 3, d <= 2, lambda in {0.01, 0.1, 1}.
    """
    rng = np.random.default_rng(1_000 + k)
    n = int(rng.integers(15, 51))
    p = int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    T = n + d - 1
    if k % 2 == 0:
        data = rng.standard_normal((T, p)) * rng.uniform(0.05, 2.0)
    else:
        data = piecewise_series(rng, T, p, d, break_at=T // 2 + d)
    lam = float(rng.choice([0.01, 0.1, 1.0]))
    return build_stage1(data, d), lam


@pytest.fixture(scope="session")
def solver_instances():
    """50 random small instances plus the total solve time in seconds.

    Each instance is a (problem, lambda, estimate) triple built by
    `solver_instance`.
    """
    out = []
    t_total = 0.0
    for k in range(50):
        problem, lam = solver_instance(k)
        t0 = time.perf_counter()
        estimate = bcd_solve(problem, lam)
        t_total += time.perf_counter() - t0
        out.append((problem, lam, estimate))
    return out, t_total


@pytest.fixture(scope="session")
def small_candidate_runs():
    """Benchmark instances whose premerged candidate count is at most 10.

    A stiffer penalty (C = 1.1 * s^2) keeps stage 1 to a handful of
    candidates, so the brute-force search oracle (2^m subsets) stays cheap.
    Each run is (data, candidates, schedule, representatives): the cluster
    representatives are the set `select_breaks` searches.
    """
    preset = scenario_preset(1)
    runs = []
    for seed in range(30):
        data = simulate(make_scenario(preset, seed))
        schedule = schedule_for_data(data, preset.d,
                                     lambda_c=1.1 * data_scale(data))
        problem = build_stage1(data, preset.d)
        estimate = bcd_solve(problem, schedule.lambda_n)
        candidates = extract_candidates(estimate, preset.d)
        T = data.shape[0]
        if len(premerge_candidates(candidates, preset.d, T)) > 10:
            continue
        radius = math.ceil(effective_sample_size(T, preset.d) * schedule.gamma_n)
        reps = tuple(cluster_candidates(candidates, preset.d, T, radius))
        runs.append((data, candidates, schedule, reps))
        if len(runs) == 20:
            break
    return runs
