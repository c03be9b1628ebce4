"""Scenario presets and the seeded piecewise-VAR generator."""

import dataclasses
import hashlib
import importlib

import numpy as np
import pytest

from varseg.model import SegmentedVarModel
from varseg.simulate import (ScenarioPreset, SimulationConfig, make_scenario,
                             scenario_preset, simulate)


def test_preset_lookup():
    assert scenario_preset(1).breaks == (100, 200)
    assert scenario_preset(2).breaks == (30, 250)
    assert scenario_preset(3).random_structure
    with pytest.raises(ValueError):
        scenario_preset(4)


def test_preset_constants():
    for which in (1, 2, 3):
        preset = scenario_preset(which)
        assert (preset.T, preset.p, preset.d) == (300, 20, 1)
        assert preset.noise_scale == 0.01
        assert len(preset.breaks) == 2


def test_make_scenario_banded_segments():
    config = make_scenario(scenario_preset(1), seed=0)
    segs = config.model.segments
    assert len(segs) == 3
    assert segs[0][0, 0] == 0.6 and segs[1][0, 0] == -0.4 and segs[2][0, 0] == 0.5
    assert segs[0][0, 1] == 0.1 and segs[1][0, 1] == -0.1
    # consecutive-segment gap is at least 1 in spectral norm
    for a, b in zip(segs, segs[1:]):
        assert np.linalg.norm(b - a, 2) >= 1.0


def test_make_scenario_random_structure():
    config = make_scenario(scenario_preset(3), seed=11)
    for seg in config.model.segments:
        assert np.all(np.count_nonzero(seg, axis=1) == 2)
        vals = np.abs(seg[seg != 0.0])
        assert np.all((vals >= 0.2) & (vals <= 0.4))
    for a, b in zip(config.model.segments, config.model.segments[1:]):
        assert np.any(a != b)


def test_make_scenario_model_draw_independent_of_noise():
    # same seed drives both streams, but the coefficient draw is spawned
    # separately, so two configs from one seed share the exact model
    c1 = make_scenario(scenario_preset(3), seed=5)
    c2 = make_scenario(scenario_preset(3), seed=5)
    for a, b in zip(c1.model.segments, c2.model.segments):
        np.testing.assert_array_equal(a, b)


def test_null_preset_single_segment():
    preset = dataclasses.replace(scenario_preset(1), breaks=())
    config = make_scenario(preset, seed=0)
    assert len(config.model.segments) == 1
    data = simulate(config)
    assert data.shape == (300, 20)


def test_simulate_deterministic():
    config = make_scenario(scenario_preset(1), seed=3)
    a = simulate(config)
    b = simulate(config)
    np.testing.assert_array_equal(a, b)


def test_simulate_bytes_are_pinned():
    # Pins the noise draw order, the burn-in and the segment switch: the
    # d = 2 model switches at its last row, t = T.
    lag1 = np.array([[0.3, 0.1, 0.0], [0.0, -0.2, 0.1], [0.1, 0.0, 0.25]])
    two_lags = SegmentedVarModel(
        p=3, d=2, T=40, break_points=(40,),
        segments=(np.hstack([lag1, 0.2 * np.eye(3)]),
                  np.hstack([-lag1, -0.1 * np.eye(3)])),
        noise_cov=np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]]))
    configs = {
        "8a2b328e8227e0a3847004607fe44b662430acb10e5c139c57ff9684f849415c":
            make_scenario(scenario_preset(1), seed=0),
        "c4e6aaa1b831544d5883866e5564511bd9525364b739a56698fdfc5599e229c2":
            make_scenario(scenario_preset(3), seed=1),
        "f1b459d4af0029ecef22831a55425fb91a1aa23d059e568eb8ebf0f2bd7947c9":
            SimulationConfig(model=two_lags, seed=2),
        "b324a4fc946a3f4a16c9353d37317b91460128b305a556b0bf40ecbcac7db405":
            make_scenario(dataclasses.replace(scenario_preset(1), breaks=()), seed=0),
    }
    for digest, config in configs.items():
        assert hashlib.sha256(simulate(config).tobytes()).hexdigest() == digest


def test_simulate_white_noise_covariance():
    # all-zero coefficients: rows are i.i.d. noise with the model covariance
    preset = ScenarioPreset(breaks=(), T=10_000, p=2,
                            noise_scale=1.0, diag_values=(0.0,),
                            band_values=(0.0,))
    data = simulate(make_scenario(preset, seed=0))
    cov = (data.T @ data) / data.shape[0]
    assert np.max(np.abs(cov - np.eye(2))) < 0.05


def test_simulate_white_noise_ignores_burn_in(monkeypatch):
    preset = dataclasses.replace(scenario_preset(1), breaks=(),
                                 diag_values=(0.0,), band_values=(0.0,))
    config = make_scenario(preset, seed=9)
    # the module, which the function `varseg.simulate` shadows as an attribute
    module = importlib.import_module("varseg.simulate")
    runs = []
    for burn_in in (0, 500):
        monkeypatch.setattr(module, "_BURN_IN", burn_in)
        runs.append(simulate(config))
    np.testing.assert_array_equal(*runs)


def test_simulate_segment_switch_time():
    # deterministic single-coordinate model: y_t = 0 before the break
    # feeds the post-break coefficient, so the first changed row is t=break
    segs = (np.zeros((1, 1)), np.array([[0.5]]))
    model = SegmentedVarModel(p=1, d=1, T=10, break_points=(6,), segments=segs,
                              noise_cov=np.eye(1))
    data = simulate(SimulationConfig(model=model, seed=2))
    rng = np.random.default_rng(2)
    eps = rng.standard_normal((10, 1))
    expect = eps.copy()
    for t in range(5, 10):                    # rows 6..10 use the 0.5 segment
        expect[t] = 0.5 * expect[t - 1] + eps[t]
    np.testing.assert_allclose(data, expect, rtol=0, atol=1e-15)


def test_simulate_rejects_invalid_model():
    # the model is refused when it is built, before simulate can see it
    with pytest.raises(ValueError, match=r"invalid model: break 20 outside"):
        SegmentedVarModel(p=1, d=1, T=10, break_points=(20,),
                          segments=(np.zeros((1, 1)), np.zeros((1, 1))),
                          noise_cov=np.eye(1))
