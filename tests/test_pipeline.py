"""End-to-end detection wiring, metrics, and the replicate harness."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import piecewise_series
from varseg import pipeline
from varseg.model import default_schedule, effective_sample_size
from varseg.pipeline import (ETA_SCALE, LAMBDA_SCALE, OMEGA_SCALE,
                             PipelineError, coverage_radius, data_scale,
                             detect, hausdorff, run_replicates,
                             schedule_for_data, stage1_coverage_check)
from varseg.simulate import (ScenarioPreset, make_scenario, scenario_preset,
                             simulate)
from varseg.stage1 import CandidateSet


SMALL_PRESET = ScenarioPreset(name="small", breaks=(30,), T=60, p=2)


def test_data_scale_is_mean_column_variance():
    data = np.array([[0.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
    # column variances: 8/3 and 0
    assert data_scale(data) == pytest.approx(4.0 / 3.0)


def test_schedule_for_data_wiring():
    rng = np.random.default_rng(0)
    data = 3.0 * rng.standard_normal((100, 3))
    s2 = data_scale(data)
    sched = schedule_for_data(data, 1)
    base = default_schedule(100, 3, 1, LAMBDA_SCALE * s2)
    assert sched.lambda_constant == pytest.approx(LAMBDA_SCALE * s2)
    assert sched.lambda_n == base.lambda_n
    assert sched.gamma_n == base.gamma_n
    assert sched.eta_n == pytest.approx(ETA_SCALE * s2 * base.gamma_n)
    assert sched.omega_n == pytest.approx(OMEGA_SCALE * s2 * base.omega_n)


def test_schedule_for_data_overrides():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((80, 2))
    sched = schedule_for_data(data, 1, lambda_c=2.0, eta=0.0)
    assert sched.lambda_constant == 2.0
    assert sched.lambda_n == default_schedule(80, 2, 1, 2.0).lambda_n
    assert sched.eta_n == 0.0
    # v only reshapes the break charge
    sched_v = schedule_for_data(data, 1, v=1.0)
    n, log_p = 80, 1.0
    assert sched_v.omega_n == pytest.approx(
        OMEGA_SCALE * data_scale(data) * (math.log(n) * log_p) ** 2.0)


def test_detect_rejects_bad_input():
    with pytest.raises(PipelineError, match="input"):
        detect(np.zeros(30), 1)
    with pytest.raises(PipelineError, match="T=6"):
        detect(np.zeros((6, 2)), 2)
    try:
        detect(np.zeros((6, 2)), 2)
    except PipelineError as exc:
        assert exc.stage == "input"
    # non-finite data is input too, refused before the default schedule
    # reads it and before stage 1 runs under a given schedule
    data = np.random.default_rng(4).standard_normal((40, 2))
    schedule = schedule_for_data(data, 1)
    for bad in (math.nan, math.inf):
        data[7, 1] = bad
        for given in (None, schedule):
            with pytest.raises(PipelineError, match="^input: data contains non-finite"):
                detect(data, 1, given)
    # -1 would make every block a candidate and NaN none
    for zero_tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="zero_tol must be >= 0"):
            detect(np.zeros((40, 2)), 1, zero_tol=zero_tol)


def test_detect_memory_guard_counts_theta(monkeypatch):
    # one block per equation, m = T - d blocks: the suffix arrays alone take
    # 8*m*q*(q+p) bytes and the solve's theta 8*m*q*p more, so memory that
    # only fits the suffix arrays is refused
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=2, d=2, break_at=20)
    m, p, q = 38, 2, 4
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 8 * m * q * (q + p))
    with pytest.raises(PipelineError, match="physical memory") as exc:
        detect(data, 2)
    assert exc.value.stage == "input"
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 8 * m * q * (q + 2 * p))
    assert detect(data, 2).stage1_estimate.converged


def test_detect_labels_stage2_failures():
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=1, d=1, break_at=20)
    # stage 1 never reads eta_n; the segment fits refuse it
    schedule = replace(schedule_for_data(data, 1), eta_n=-1.0)
    with pytest.raises(PipelineError, match="^stage2:"):
        detect(data, 1, schedule)


def test_detect_is_deterministic():
    rng = np.random.default_rng(3)
    data = piecewise_series(rng, T=80, p=2, d=1, break_at=40)
    a = detect(data, 1)
    b = detect(data, 1)
    assert a.final_breaks == b.final_breaks
    assert a.stage1.indices == b.stage1.indices
    np.testing.assert_array_equal(a.stage1_estimate.theta,
                                  b.stage1_estimate.theta)
    assert a.schedule == b.schedule


@pytest.mark.parametrize("scenario, seed", [(1, 0), (3, 1)])
def test_detect_breaks_invariant_to_scale_and_column_order(scenario, seed):
    # every penalty scales with the average column variance, and the
    # estimator treats the p columns symmetrically
    preset = scenario_preset(scenario)
    data = simulate(make_scenario(preset, seed))
    base = detect(data, preset.d)
    breaks = base.final_breaks
    assert breaks
    for c in (2.0 ** -3, 10.0, 1e-3, 1e3):
        scaled = detect(c * data, preset.d)
        assert scaled.stage1.indices == base.stage1.indices
        assert scaled.final_breaks == breaks
    perm = np.random.default_rng(seed).permutation(data.shape[1])
    assert detect(data[:, perm], preset.d).final_breaks == breaks


def test_detect_benchmark_instance_localizes_both_breaks():
    config = make_scenario(scenario_preset(1), seed=0)
    det = detect(simulate(config), 1)
    assert len(det.final_breaks) == 2
    for truth in (100, 200):
        assert min(abs(b - truth) for b in det.final_breaks) <= 10
    assert len(det.final_models) == 3
    assert det.timings.keys() == {"stage1", "stage2"}


# ------------------------------------------------------------------ metrics

def test_hausdorff_examples():
    assert hausdorff((100, 200), (101, 198)) == 2.0
    assert hausdorff((100, 200), (100, 200)) == 0.0
    assert hausdorff((100,), (100, 250)) == 150.0
    assert hausdorff((100, 250), (100,)) == 0.0   # subset of the reference
    assert hausdorff((), ()) == 0.0
    assert hausdorff((50,), ()) == 0.0
    assert hausdorff((), (50,)) == math.inf


@given(st.lists(st.integers(0, 300), min_size=1, max_size=8),
       st.lists(st.integers(0, 300), min_size=1, max_size=8),
       st.integers(0, 300))
def test_hausdorff_shrinks_as_reference_grows(ref, est, extra):
    base = hausdorff(ref, est)
    assert hausdorff(ref + [extra], est) <= base
    assert hausdorff(ref, ref) == 0.0


def test_stage1_coverage_check():
    assert stage1_coverage_check((98, 203), (100, 200), radius=5)
    assert not stage1_coverage_check((98, 203), (100, 200), radius=2)
    # more truth points than candidates can never cover
    assert not stage1_coverage_check((150,), (100, 200), radius=1000)
    cands = CandidateSet(indices=(97, 201, 240), m_hat=3,
                         segment_coefficients=(), strengths=(1.0, 1.0, 1.0))
    assert stage1_coverage_check(cands, (100, 200), radius=4)
    assert stage1_coverage_check((), (), radius=0)


def test_coverage_radius_benchmark_value():
    sched = default_schedule(296, 20, 1, 1.0)
    assert coverage_radius(sched, 300, 1) == 18
    assert coverage_radius(sched, 300, 1) == math.ceil(296 * sched.gamma_n)


# ------------------------------------------------------------- replicates

def test_run_replicates_structure():
    summary = run_replicates(SMALL_PRESET, R=3, base_seed=7)
    assert summary.n_replicates == 3
    assert summary.n_failed == 0
    assert [r["seed"] for r in summary.records] == [7, 8, 9]
    assert summary.truth == (30,)
    assert summary.truth_rel == (0.5,)
    assert 0.0 <= summary.selection_rate[0] <= 1.0
    assert 0.0 <= summary.exact_count_rate <= 1.0
    assert summary.hausdorff_stage1_max >= summary.hausdorff_stage1_mean


def test_run_replicates_parallel_matches_serial():
    serial = run_replicates(SMALL_PRESET, R=3, base_seed=0)
    parallel = run_replicates(SMALL_PRESET, R=3, base_seed=0, jobs=2)
    assert serial.records == parallel.records
    assert serial.selection_rate == parallel.selection_rate


def test_run_replicates_pool_is_no_wider_than_replicates(monkeypatch):
    widths = []

    class SerialPool:
        """Stands in for the process pool: records its width, maps in-process."""

        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SerialPool)
    summary = run_replicates(SMALL_PRESET, R=2, base_seed=0, jobs=1000)
    assert widths == [2]
    assert summary.records == run_replicates(SMALL_PRESET, R=2, base_seed=0).records
    run_replicates(SMALL_PRESET, R=1, base_seed=0, jobs=1000)
    assert widths == [2]       # one replicate runs in-process


def test_run_replicates_single():
    summary = run_replicates(SMALL_PRESET, R=1, base_seed=4)
    assert len(summary.records) == 1
    rate = summary.selection_rate[0]
    assert rate in (0.0, 1.0)
    if rate == 1.0:
        assert summary.std_rel[0] == 0.0


def test_run_replicates_rejects_bad_count():
    with pytest.raises(ValueError):
        run_replicates(SMALL_PRESET, R=0, base_seed=0)
    for jobs in (0, -5):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_replicates(SMALL_PRESET, R=2, base_seed=0, jobs=jobs)


def test_white_noise_detections_mostly_empty(white_noise_batch):
    summary, _ = white_noise_batch
    empty = sum(1 for r in summary.records if r["m_final"] == 0)
    assert empty / summary.n_replicates >= 0.95
