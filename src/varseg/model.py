"""Core types for piecewise-stationary VAR models and tuning schedules.

A piecewise VAR(d) over T observations y_1, ..., y_T (rows of a T x p
matrix) is parameterized by break points t_1 < ... < t_m and one
coefficient matrix per segment.  A break at time t means y_t is the first
observation generated under the next segment's coefficients.  Each
segment coefficient is stored as a single p x (p*d) block
[Phi_1 | ... | Phi_d] acting on the stacked lag vector
(y_{t-1}', ..., y_{t-d}')'.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# A segment counts as stationary only if its companion spectral radius is
# strictly below 1 - STATIONARITY_TOL.
STATIONARITY_TOL = 1e-8


def effective_sample_size(T: int, d: int) -> int:
    """Sample size n = T - d + 1 entering every tuning-parameter formula."""
    return T - d + 1


def integer_times(times, name: str) -> tuple[int, ...]:
    """The times as ints; TypeError on a float or bool, which int() would coerce.

    operator.index refuses a float but takes a bool, so bools go first.
    """
    times = tuple(times)
    if any(isinstance(t, bool) for t in times):
        raise TypeError(f"{name} must be integers, not booleans")
    return tuple(operator.index(t) for t in times)


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SegmentedVarModel:
    """Ground-truth description of a piecewise VAR(d) process.

    Attributes
    ----------
    p, d, T : int
        Dimension, lag order, series length.
    break_points : tuple of int
        Strictly increasing times in (d, T].
    segments : tuple of ndarray
        One p x (p*d) coefficient block per segment, len(break_points) + 1
        of them.
    noise_cov : ndarray
        p x p innovation covariance, shared across segments.

    A model is built only if it passes `check_model` (TypeError for a float
    or bool break point).
    """

    p: int
    d: int
    T: int
    break_points: tuple[int, ...]
    segments: tuple[np.ndarray, ...]
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "break_points",
                           integer_times(self.break_points, "break points"))
        object.__setattr__(self, "segments",
                           tuple(_frozen_array(s) for s in self.segments))
        object.__setattr__(self, "noise_cov", _frozen_array(self.noise_cov))
        check_model(self)


@dataclass(frozen=True)
class TuningSchedule:
    """Penalty levels used by the two estimation stages.

    lambda_n drives the first-stage fused estimate, eta_n the per-segment
    refits, omega_n the per-break charge in the screening criterion;
    gamma_n is the localization rate used for coverage radii.
    """

    lambda_constant: float
    lambda_n: float
    eta_n: float
    omega_n: float
    gamma_n: float
    v_exponent: float


def companion_spectral_radius(segment: np.ndarray, p: int, d: int) -> float:
    """Spectral radius of the (p*d) x (p*d) companion matrix of one segment."""
    seg = np.asarray(segment, dtype=float)
    if seg.shape != (p, p * d):
        raise ValueError(f"segment must be {p} x {p * d}, got {seg.shape}")
    comp = np.zeros((p * d, p * d))
    comp[:p, :] = seg
    comp[p:, : p * (d - 1)] = np.eye(p * (d - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def check_model(model: SegmentedVarModel) -> None:
    """Raise ValueError("invalid model: <reason>") at the first structural
    or stationarity fault."""
    def fail(reason: str):
        raise ValueError(f"invalid model: {reason}")

    if model.p < 1 or model.d < 1 or model.T < 1:
        fail(f"p={model.p}, d={model.d}, T={model.T} must all be positive")

    breaks = model.break_points
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        fail("breaks not increasing")
    for b in breaks:
        if not (model.d < b <= model.T):
            fail(f"break {b} outside ({model.d}, {model.T}]")

    if len(model.segments) != len(breaks) + 1:
        fail(f"{len(model.segments)} segments for {len(breaks)} breaks")

    want = (model.p, model.p * model.d)
    for j, seg in enumerate(model.segments, start=1):
        if seg.shape != want:
            fail(f"segment {j} has shape {seg.shape}, want {want}")
        if not np.all(np.isfinite(seg)):
            fail(f"segment {j} not finite")
        rho = companion_spectral_radius(seg, model.p, model.d)
        if rho >= 1.0 - STATIONARITY_TOL:
            fail(f"segment {j} nonstationary (spectral radius {rho:.6f})")

    cov = model.noise_cov
    if cov.shape != (model.p, model.p):
        fail(f"noise_cov has shape {cov.shape}, want {(model.p, model.p)}")
    if not np.all(np.isfinite(cov)):
        fail("noise_cov not finite")
    asym = float(np.max(np.abs(cov - cov.T)))
    if asym > 1e-12 * max(1.0, float(np.max(np.abs(cov)))):
        fail(f"noise_cov asymmetry {asym:.3e}")
    try:
        np.linalg.cholesky(0.5 * (cov + cov.T))
    except np.linalg.LinAlgError:
        fail("noise_cov is not positive definite")


def check_eta(eta: float) -> None:
    """Raise ValueError unless the stage-2 level eta is finite and >= 0."""
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError(f"eta must be finite and >= 0, got {eta}")


def check_schedule(schedule: TuningSchedule) -> None:
    """Raise ValueError unless lambda_n is finite and > 0 and eta_n,
    omega_n and gamma_n are finite and >= 0 (gamma_n = 0 leaves every
    premerged candidate its own cluster)."""
    lam = schedule.lambda_n
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda_n must be finite and > 0, got {lam}")
    check_eta(schedule.eta_n)
    for name in ("omega_n", "gamma_n"):
        level = getattr(schedule, name)
        if not (math.isfinite(level) and level >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {level}")


def default_schedule(n, p: int, d: int, C: float, v: float = 0.5) -> TuningSchedule:
    """Rate-based penalty levels for sample size n, dimension p, lag d.

    lambda_n = 2 C sqrt((log n + 2 log p + log d) / n)
    gamma_n  = (log n * log p) / n,   eta_n = gamma_n
    omega_n  = (log n * log p)^(1 + v)

    log p is floored at 1 inside gamma_n and omega_n so every level stays
    strictly positive for p <= 2.
    """
    if n <= max(2, d):
        raise ValueError(f"n={n} too small for d={d}")
    if p < 1 or d < 1:
        raise ValueError("p and d must be >= 1")
    if not (math.isfinite(C) and C > 0):
        raise ValueError(f"C must be finite and positive, got {C}")
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"v must be finite and positive, got {v}")
    log_n = math.log(n)
    lam = 2.0 * C * math.sqrt((log_n + 2.0 * math.log(p) + math.log(d)) / n)
    log_p = max(math.log(p), 1.0)
    gamma = log_n * log_p / n
    omega = (log_n * log_p) ** (1.0 + v)
    return TuningSchedule(lambda_constant=float(C), lambda_n=float(lam),
                          eta_n=float(gamma), omega_n=float(omega),
                          gamma_n=float(gamma), v_exponent=float(v))
