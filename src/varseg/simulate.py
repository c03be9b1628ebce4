"""Seeded simulation of piecewise VAR processes and the benchmark scenarios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SegmentedVarModel

# Spawn key for model generation so random coefficient draws never consume
# from the same stream as the noise (which is seeded with the bare seed).
_MODEL_STREAM = 1

_NNZ_PER_ROW = 2             # S3 nonzeros per coefficient row
_VALUE_RANGE = (0.2, 0.4)    # and the range of their absolute values
_BURN_IN = 200               # steps run under the first segment before y_1


@dataclass(frozen=True, eq=False)
class SimulationConfig:
    model: SegmentedVarModel
    seed: int


@dataclass(frozen=True)
class ScenarioPreset:
    """Fixed benchmark setup: T=300, p=20, d=1, two breaks, noise 0.01 * I."""

    breaks: tuple[int, ...]
    T: int = 300
    p: int = 20
    d: int = 1
    noise_scale: float = 0.01
    # S1/S2: diagonal plus one off-diagonal band, same support in every
    # segment with segment-specific values.
    diag_values: tuple[float, float, float] = (0.6, -0.4, 0.5)
    band_values: tuple[float, float, float] = (0.1, -0.1, 0.1)
    # S3: random sparse support, drawn per segment.
    random_structure: bool = False


_PRESETS = {
    1: ScenarioPreset(breaks=(100, 200)),                          # center
    2: ScenarioPreset(breaks=(30, 250)),                           # boundary
    3: ScenarioPreset(breaks=(100, 200), random_structure=True),   # random
}


def scenario_preset(which: int) -> ScenarioPreset:
    try:
        return _PRESETS[which]
    except KeyError:
        raise ValueError(f"unknown scenario {which!r}; choose 1, 2 or 3") from None


def _banded(p: int, diag: float, band: float) -> np.ndarray:
    mat = diag * np.eye(p)
    idx = np.arange(p - 1)
    mat[idx, idx + 1] = band
    return mat


def _random_sparse(rng: np.random.Generator, p: int) -> np.ndarray:
    """A p x p segment, _NNZ_PER_ROW entries per row; each row's absolute
    sum is below 2 * 0.4, so its spectral radius is too: it is stationary."""
    mat = np.zeros((p, p))
    for row in range(p):
        cols = rng.choice(p, size=_NNZ_PER_ROW, replace=False)
        vals = rng.uniform(*_VALUE_RANGE, size=_NNZ_PER_ROW)
        signs = rng.choice([-1.0, 1.0], size=_NNZ_PER_ROW)
        mat[row, cols] = signs * vals
    return mat


def make_scenario(preset: ScenarioPreset, seed: int) -> SimulationConfig:
    """Build the seeded simulation config for one benchmark replicate."""
    n_seg = len(preset.breaks) + 1
    if preset.random_structure:
        # independent continuous draws, so consecutive segments differ
        rng = np.random.default_rng([_MODEL_STREAM, seed])
        segments = [_random_sparse(rng, preset.p) for _ in range(n_seg)]
    else:
        segments = [_banded(preset.p, dv, bv)
                    for dv, bv in zip(preset.diag_values[:n_seg],
                                      preset.band_values[:n_seg])]
    model = SegmentedVarModel(
        p=preset.p, d=preset.d, T=preset.T,
        break_points=preset.breaks,
        segments=tuple(segments),
        noise_cov=preset.noise_scale * np.eye(preset.p),
    )
    return SimulationConfig(model=model, seed=seed)


def simulate(config: SimulationConfig) -> np.ndarray:
    """Generate the T x p series for `config.model`.

    One recursion fills a (d + `_BURN_IN` + T) x p buffer whose first d rows
    are zero lags; each later row reads the d rows above it as its lags.
    The `_BURN_IN` rows after the zero lags run under the first segment's
    coefficients and the last T rows, the output, continue through every
    segment without re-initializing, so the state carries across breaks.
    The main T noise rows are drawn before the burn-in rows: with all-zero
    coefficients the output equals the noise sequence whatever the burn-in.
    """
    model = config.model
    p, d, T = model.p, model.d, model.T
    rng = np.random.default_rng(config.seed)
    chol = np.linalg.cholesky(0.5 * (model.noise_cov + model.noise_cov.T))
    ys = np.zeros((d + _BURN_IN + T, p))
    ys[d + _BURN_IN:] = rng.standard_normal((T, p)) @ chol.T
    ys[d:d + _BURN_IN] = rng.standard_normal((_BURN_IN, p)) @ chol.T
    # step i gives y_t, t = i + 1 - _BURN_IN; every break lies after t = 0
    times = np.arange(1 - _BURN_IN, T + 1)
    for i, seg in enumerate(np.searchsorted(model.break_points, times, side="right")):
        ys[d + i] += model.segments[seg] @ ys[i:d + i][::-1].ravel()
    return ys[d + _BURN_IN:].copy()     # a view would keep the burn-in rows alive
