"""Model types, the model check, and the rate-based tuning schedule."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from varseg.model import (SegmentedVarModel, check_model, check_schedule,
                          companion_spectral_radius, default_schedule,
                          effective_sample_size)

# Frozen reference values, computed independently with mpmath at 50 digits.
LAMBDA_N100_P1_D1_C1 = 0.42919320525786947   # 2*sqrt(log(100)/100)
GAMMA_N296_P20 = 0.05759051846432994         # log(296)*log(20)/296
ROOT_PHI_05_03 = 0.8520797289396148          # largest root of z^2-0.5z-0.3


def banded_model(breaks=(50,), T=100, p=2, diag=0.0):
    segs = tuple(diag * np.eye(p) for _ in range(len(breaks) + 1))
    return SegmentedVarModel(p=p, d=1, T=T, break_points=breaks,
                             segments=segs, noise_cov=0.01 * np.eye(p))


def test_effective_sample_size():
    assert effective_sample_size(300, 1) == 300
    assert effective_sample_size(300, 5) == 296


def test_schedule_frozen_values():
    sched = default_schedule(100, 1, 1, C=1.0)
    assert sched.lambda_n == pytest.approx(LAMBDA_N100_P1_D1_C1, rel=1e-14)
    sched = default_schedule(296, 20, 1, C=1.0, v=0.5)
    assert sched.gamma_n == pytest.approx(GAMMA_N296_P20, rel=1e-14)
    assert sched.eta_n == sched.gamma_n
    log_term = math.log(296) * math.log(20)
    assert sched.omega_n == pytest.approx(log_term ** 1.5, rel=1e-14)


def test_schedule_at_n_equals_e():
    # log n = 1 and the p/d terms vanish, so lambda_n = C * sqrt(1/e)
    sched = default_schedule(math.e, 1, 1, C=0.5)
    assert sched.lambda_n == pytest.approx(math.sqrt(1.0 / math.e), rel=1e-14)


def test_schedule_all_positive():
    for n, p, d in [(10, 1, 1), (50, 2, 2), (296, 20, 1), (1000, 100, 3)]:
        s = default_schedule(n, p, d, C=0.7, v=0.5)
        assert s.lambda_n > 0 and s.eta_n > 0
        assert s.omega_n > 0 and s.gamma_n > 0


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        default_schedule(2, 1, 1, C=1.0)
    with pytest.raises(ValueError):
        default_schedule(100, 0, 1, C=1.0)
    # NaN passes a plain `<= 0` test, so finiteness is checked on its own
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="C must be finite"):
            default_schedule(100, 1, 1, C=bad)
        with pytest.raises(ValueError, match="v must be finite"):
            default_schedule(100, 1, 1, C=1.0, v=bad)


def test_check_schedule():
    sched = default_schedule(100, 2, 1, C=1.0)
    check_schedule(sched)
    # zero levels are valid
    check_schedule(replace(sched, eta_n=0.0, omega_n=0.0, gamma_n=0.0))
    bad = [("lambda_n", v, "lambda_n must be finite and > 0")
           for v in (0.0, -1.0, math.nan, math.inf)]
    bad += [(name, v, message) for v in (-5.0, math.nan, math.inf)
            for name, message in (("eta_n", "eta must be finite and >= 0"),
                                  ("omega_n", "omega_n must be finite and >= 0"),
                                  ("gamma_n", "gamma_n must be finite and >= 0"))]
    for name, value, message in bad:
        with pytest.raises(ValueError, match=message):
            check_schedule(replace(sched, **{name: value}))


def test_companion_radius_d1_scaled_identity():
    assert companion_spectral_radius(0.5 * np.eye(2), 2, 1) == pytest.approx(0.5)
    assert companion_spectral_radius(np.zeros((2, 2)), 2, 1) == 0.0


def test_companion_radius_univariate_two_lags():
    seg = np.array([[0.5, 0.3]])
    assert companion_spectral_radius(seg, 1, 2) == pytest.approx(
        ROOT_PHI_05_03, rel=1e-12)


def test_companion_radius_shape_error():
    with pytest.raises(ValueError):
        companion_spectral_radius(np.zeros((2, 3)), 2, 1)


def test_validate_accepts_zero_model():
    check_model(banded_model())


def test_model_m0_and_immutability():
    model = banded_model(breaks=(30, 60))
    assert len(model.break_points) == 2 and len(model.segments) == 3
    with pytest.raises(ValueError):
        model.segments[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        model.noise_cov[0, 0] = 1.0


ZEROS = np.zeros((2, 2))


@pytest.mark.parametrize("fields, reason", [
    (dict(p=0, segments=(), noise_cov=np.eye(1)),
     r"p=0, d=1, T=100 must all be positive"),
    (dict(T=300, break_points=(200, 100), segments=(ZEROS,) * 3),
     r"breaks not increasing"),
    (dict(break_points=(1,), segments=(ZEROS,) * 2), r"break 1 outside \(1, 100\]"),
    (dict(break_points=(101,), segments=(ZEROS,) * 2),
     r"break 101 outside \(1, 100\]"),
    (dict(break_points=(50,)), r"1 segments for 1 breaks"),
    (dict(segments=(np.zeros((2, 3)),)),
     r"segment 1 has shape \(2, 3\), want \(2, 2\)"),
    (dict(segments=(np.array([[0.0, np.nan], [0.0, 0.0]]),)),
     r"segment 1 not finite"),
    (dict(segments=(1.1 * np.eye(2),)),
     r"segment 1 nonstationary \(spectral radius 1.100000\)"),
    (dict(noise_cov=np.eye(3)), r"noise_cov has shape \(3, 3\), want \(2, 2\)"),
    (dict(noise_cov=np.array([[1.0, np.inf], [np.inf, 1.0]])),
     r"noise_cov not finite"),
    (dict(noise_cov=np.array([[1.0, 0.5], [0.0, 1.0]])), r"noise_cov asymmetry"),
    (dict(noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]])),
     r"noise_cov is not positive definite"),
], ids=["bad-dims", "breaks-not-increasing", "break-at-d", "break-past-T",
        "segment-count", "segment-shape", "segment-not-finite",
        "nonstationary-segment", "noise-cov-shape", "noise-cov-not-finite",
        "noise-cov-not-symmetric", "noise-cov-not-positive-definite"])
def test_invalid_model_is_refused_when_built(fields, reason):
    kwargs = dict(p=2, d=1, T=100, break_points=(), segments=(ZEROS,),
                  noise_cov=np.eye(2))
    with pytest.raises(ValueError, match="^invalid model: " + reason):
        SegmentedVarModel(**{**kwargs, **fields})


def test_model_refuses_break_points_that_are_not_integers():
    # int() would truncate 100.7 to a break at 100, and read True as 1
    for breaks in ((50.7,), (50.0,), (True,)):
        with pytest.raises(TypeError):
            banded_model(breaks)
    assert banded_model((np.int64(50),)).break_points == (50,)


@given(st.integers(min_value=5, max_value=2000), st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=3))
def test_schedule_positive_property(n, p, d):
    if n <= max(2, d):
        return
    s = default_schedule(n, p, d, C=1.0)
    assert min(s.lambda_n, s.eta_n, s.omega_n, s.gamma_n) > 0
