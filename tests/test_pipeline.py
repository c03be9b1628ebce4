"""End-to-end detection wiring, metrics, and the replicate harness."""

import dataclasses
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import piecewise_series
from varseg import pipeline, stage1, stage2
from varseg.model import default_schedule
from varseg.pipeline import (ETA_SCALE, LAMBDA_SCALE, OMEGA_SCALE,
                             PipelineError, data_scale,
                             detect, hausdorff, run_replicates,
                             schedule_for_data, stage1_coverage_check)
from varseg.simulate import (ScenarioPreset, make_scenario, scenario_preset,
                             simulate)
from varseg.stage2 import select_breaks


SMALL_PRESET = ScenarioPreset(breaks=(30,), T=60, p=2)


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
    # a lag order that is not an integer >= 1 is input, with or without a
    # given schedule
    data = np.random.default_rng(4).standard_normal((40, 2))
    schedule = schedule_for_data(data, 1)
    for d in (0, -1, 1.5, True):
        for given in (None, schedule):
            with pytest.raises(PipelineError, match="^input: lag order d") as exc:
                detect(data, d, given)
            assert exc.value.stage == "input"


BAD_SCHEDULES = [("lambda_n", v) for v in (math.nan, math.inf, 0.0, -1.0)] + [
    (name, v) for name in ("eta_n", "omega_n") for v in (math.nan, math.inf, -5.0)]


def test_detect_refuses_bad_schedule(monkeypatch):
    # a given schedule is input, refused before stage 1 runs; select_breaks
    # refuses it on its own too
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=2, d=1, break_at=20)
    good = schedule_for_data(data, 1)
    candidates = detect(data, 1, good).stage1
    # zero levels are valid
    detect(data, 1, replace(good, eta_n=0.0, omega_n=0.0))
    monkeypatch.setattr(pipeline, "build_stage1", None)
    for name, value in BAD_SCHEDULES:
        bad = replace(good, **{name: value})
        with pytest.raises(PipelineError, match="^input: ") as exc:
            detect(data, 1, bad)
        assert exc.value.stage == "input"
        with pytest.raises(ValueError, match="must be finite"):
            select_breaks(data, candidates, 1, bad)
    # data whose variance overflows derives no finite schedule
    with np.errstate(over="ignore"), pytest.raises(PipelineError,
                                                   match="^input: C must be finite"):
        detect(1e160 * data, 1)


def test_detect_memory_guard_counts_stage1_work_arrays(monkeypatch):
    # one block per equation, m = T - d equations: stage 1 holds the lagged
    # rows and its work arrays, eight arrays of m*q floats at most, and
    # the estimate is only its nonzero entries, so memory that just fits
    # them is enough
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=2, d=2, break_at=20)
    m, q = 38, 4
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 8 * 8 * m * q - 1)
    with pytest.raises(PipelineError, match="lagged rows and work arrays") as exc:
        detect(data, 2)
    assert exc.value.stage == "input"
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 8 * 8 * m * q)
    assert detect(data, 2).stage1_estimate.converged


def test_detect_memory_guard_counts_stage2_systems(monkeypatch):
    # q = p*d = 600 coefficients per equation on T - d = 70 rows: stage 1's
    # eight arrays of 70*q floats fit, but stage 2's q x q segment Gram and
    # p systems of k x k, k = min(q, T - d) = 70, do not
    data = np.random.default_rng(4).standard_normal((100, 20))
    p, q, k = 20, 600, 70
    monkeypatch.setattr(pipeline, "build_stage1", None)   # reached only past the guard
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 8 * 8 * 70 * q)
    with pytest.raises(PipelineError, match="^input: stage 2 needs .* segment Gram"):
        detect(data, 30)
    monkeypatch.setattr(pipeline, "_physical_memory", lambda: 8 * (q * q + p * k * k))
    with pytest.raises(PipelineError) as exc:
        detect(data, 30)
    assert exc.value.stage == "stage1"


def test_detect_never_builds_the_suffix_arrays(monkeypatch):
    # the suffix arrays, (T - d) * q * (q + p) floats each pair, are built
    # only on access; nothing in detect may read them
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=2, d=1, break_at=20)
    read = []
    for name in ("suffix_gram", "suffix_cross"):
        monkeypatch.setattr(stage1.Stage1Problem, name,
                            property(lambda problem, name=name: read.append(name)))
    assert detect(data, 1).stage1_estimate.converged
    assert read == []
    stage1.build_stage1(data, 1).suffix_cross
    assert read == ["suffix_cross"]


def test_detect_frees_the_stage1_problem_before_stage2(monkeypatch):
    # stage 1's lagged rows are its largest arrays; nothing may hold them
    # while stage 2 runs
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=2, d=1, break_at=20)
    refs, alive = [], []

    def build(*args):
        problem = real_build(*args)
        refs.append(weakref.ref(problem))
        return problem

    def select(*args):
        alive.append(refs[0]() is not None)
        return real_select(*args)

    real_build, real_select = pipeline.build_stage1, pipeline.select_breaks
    monkeypatch.setattr(pipeline, "build_stage1", build)
    monkeypatch.setattr(pipeline, "select_breaks", select)
    detect(data, 1)
    assert alive == [False]


def test_detect_labels_stage2_failures(monkeypatch):
    rng = np.random.default_rng(2)
    data = piecewise_series(rng, T=40, p=1, d=1, break_at=20)

    def failing_fit(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(stage2, "fit_segment", failing_fit)
    with pytest.raises(PipelineError, match="^stage2: injected"):
        detect(data, 1)


def _assert_identical(a, b, where="result"):
    """Equal through dataclasses and tuples; arrays and floats by their bytes."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_identical(getattr(a, f.name), getattr(b, f.name),
                              f"{where}.{f.name}")
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            _assert_identical(x, y, f"{where}[{k}]")
    elif isinstance(a, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    else:
        assert a == b, where


def test_detect_is_deterministic():
    rng = np.random.default_rng(3)
    data = piecewise_series(rng, T=80, p=2, d=1, break_at=40)
    _assert_identical(detect(data, 1), detect(data, 1))


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
    assert stage1_coverage_check((), (), radius=0)


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

        def map(self, fn, *iterables):
            return map(fn, *iterables)

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
