"""Spectral structure of the survival signal and emission metrics.

For a mirror-symmetric profile on the equally spaced ladder the survival
amplitude ``sqrt(P)`` collapses to a finite cosine series, so P is
exactly periodic with period ``2 pi M / D``. Everything observable about
the emission then lives in one period: how fast P drops, how long it
stays low, and when it revives. The flat profile has the closed
Dirichlet-kernel form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import AsymmetricProfile, ThresholdOutOfRange
from .evolution import SurvivalSeries, _survival
from .inverse import SpectralProfile, equally_spaced_spectrum

# Mirror symmetry tolerance for the cosine form.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class FourierExpansion:
    """Finite cosine expansion of the survival amplitude.

    ``sqrt(P(t)) = |dc + sum_m cosine_coeffs[m-1] cos(m base_frequency t)|``.
    The coefficients sum to one with the dc term.
    """

    dc: float
    cosine_coeffs: np.ndarray
    base_frequency: float


def fourier_coefficients(profile: SpectralProfile) -> FourierExpansion:
    """Cosine-series coefficients of ``sqrt(P)`` for a symmetric profile.

    Requires mirror symmetry ``overlap_m == overlap_{-m}`` within
    ``SYMMETRY_TOL``: the ``+m`` and ``-m`` phasors then pair into
    cosines. The dc term is the ``m = 0`` weight, each cosine carries
    twice the one-sided weight, and the base frequency is
    ``d_width / m_half``.
    """
    if not profile.is_symmetric(SYMMETRY_TOL):
        raise AsymmetricProfile(
            "cosine form requires overlap_m == overlap_{-m} for all m"
        )
    mid = profile.m_half
    return FourierExpansion(
        dc=float(profile.overlaps[mid]),
        cosine_coeffs=2.0 * profile.overlaps[mid + 1 :],
        base_frequency=profile.d_width / profile.m_half,
    )


def sqrt_survival_from_fourier(f: FourierExpansion, t):
    """Evaluate the cosine series ``|dc + sum coeffs cos(m w t)|``; vectorized.

    The series is the amplitude of the ladder ``m w``, ``m = -M..M``, with
    weight ``dc`` at ``m = 0`` and half of each cosine coefficient at
    ``+m`` and at ``-m``, so it runs on the kernel of
    :func:`~staremit.evolution.survival_probability` and returns the
    square root of its P: a uniform grid of S times costs about
    ``1.5 (2M+1) sqrt(S)`` exponentials, other times ``(2M+1) S``, and
    both take ``O(M sqrt(S) + S)`` memory, with no array of S x M
    entries. The kernel clips P to [0, 1], so the coefficients must be
    non-negative and sum to one with the dc term, as
    :func:`fourier_coefficients` returns them.
    """
    half = 0.5 * f.cosine_coeffs
    ladder = f.base_frequency * np.arange(-half.size, half.size + 1)
    return np.sqrt(_survival(ladder, np.concatenate((half[::-1], [f.dc], half)), t))


def revival_period(m_half: int, d_width: float) -> float:
    """Exact period of the survival signal, ``2 pi m_half / d_width``."""
    if m_half < 1:
        raise ValueError("m_half must be >= 1")
    if not d_width > 0:
        raise ValueError("d_width must be positive")
    return 2.0 * np.pi * m_half / d_width


def profile_survival(profile: SpectralProfile, t):
    """Survival probability straight from spectral data (no matrix needed).

    Evaluates ``|sum_m overlap_m exp(-i E_m t)|^2`` on the profile's
    implied level ladder, clipped to [0, 1]; vectorized over ``t``, a
    float for scalar ``t``. P does not change when every level moves by
    the same amount, so the ladder is taken centred on 0, not on
    ``eps0``: a large ``eps0`` costs P no digits. It shares the kernel of
    :func:`~staremit.evolution.survival_probability`: a uniform grid of S
    times over 2M+1 levels costs about ``1.5 (2M+1) sqrt(S)`` exponentials
    and one matrix product, other times ``(2M+1) S`` exponentials; both
    take ``O(M sqrt(S) + S)`` memory.
    """
    ladder = equally_spaced_spectrum(profile.m_half, 0.0, profile.d_width)
    return _survival(ladder, profile.overlaps, t)


def dirichlet_survival(m_half: int, d_width: float, t):
    """Closed-form flat-profile survival.

    ``P(t) = [sin((2M+1) theta/2) / ((2M+1) sin(theta/2))]^2`` with
    ``theta = d_width t / m_half``, continuously extended to 1 at the
    removable singularities ``theta = 0 mod 2 pi`` (the revivals). The
    kernel's first zero sits at ``t = 2 pi M / ((2M+1) D)``.
    """
    if m_half < 1:
        raise ValueError("m_half must be >= 1")
    if not d_width > 0:
        raise ValueError("d_width must be positive")
    t = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t)
    x = 0.5 * d_width * tt / m_half
    # the kernel is pi-periodic in x (2M+1 odd); reducing to the nearest
    # multiple of pi keeps the near-0/0 ratio accurate at the revivals
    r = x - np.pi * np.round(x / np.pi)
    n = 2 * m_half + 1
    den = n * np.sin(r)
    num = np.sin(n * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.where(den == 0.0, 1.0, num / den)
    p = np.clip(amp * amp, 0.0, 1.0)
    return float(p[0]) if t.ndim == 0 else p


@dataclass(frozen=True)
class EmissionMetrics:
    """Decay and revival markers extracted from one survival trace.

    ``decay_time`` is the first time P drops below ``threshold``;
    ``revival_time`` the first up-crossing of ``1 - threshold`` after
    that; ``post_decay_max`` the largest sampled P strictly between the
    two; ``window_fraction`` the fraction of ``[0, revival_time]`` spent
    with ``P > threshold`` (the duty cycle of "atom still excited").
    A field is None when the trace never makes the corresponding
    crossing.
    """

    threshold: float
    decay_time: float | None
    revival_time: float | None
    post_decay_max: float | None
    window_fraction: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _interp_crossing(t0, v0, t1, v1, level):
    return t0 + (level - v0) / (v1 - v0) * (t1 - t0)


def emission_metrics(series: SurvivalSeries, threshold: float) -> EmissionMetrics:
    """Scan a survival trace for decay and revival threshold crossings.

    Crossing times are linearly interpolated between samples, so their
    resolution is set by the grid spacing. The series must start at
    ``t = 0``.

    The revival is the first up-crossing of ``1 - threshold`` after the
    trace has been at or below that level, counting from the first sample
    below ``threshold``. The window fraction is the exact time the linear
    interpolant spends above ``threshold`` on ``[0, revival_time]``, with
    the crossing point ``(revival_time, 1 - threshold)`` closing the last
    segment, divided by ``revival_time``.
    """
    if not 0.0 < threshold < 1.0:
        raise ThresholdOutOfRange(f"threshold must be in (0, 1), got {threshold}")
    if series.grid.t_start != 0.0:
        raise ValueError("series must start at t = 0")
    ts = series.times
    vs = np.asarray(series.values, dtype=float)
    level = 1.0 - threshold
    decay_time = revival_time = post_decay_max = window_fraction = None

    below = np.flatnonzero(vs < threshold)
    if below.size:
        i = int(below[0])
        if i == 0:
            decay_time = ts[0]
        else:
            decay_time = _interp_crossing(ts[i - 1], vs[i - 1], ts[i], vs[i], threshold)
        low = np.flatnonzero(vs[i:] <= level)
        if low.size:
            start = i + int(low[0])
            high = np.flatnonzero(vs[start:] > level)
            if high.size:
                k = start + int(high[0])
                revival_time = _interp_crossing(ts[k - 1], vs[k - 1], ts[k], vs[k], level)
        inside = (ts > decay_time) & (ts < (np.inf if revival_time is None else revival_time))
        if inside.any():
            post_decay_max = vs[inside].max()

    if revival_time is not None and revival_time > 0:
        # segment end values a, b relative to the threshold: the time above
        # is dt (a+ + b+) / (|a| + |b|), and 0 when both ends sit on it
        ends = np.append(vs[:k], level) - threshold
        a, b = ends[:-1], ends[1:]
        width = np.abs(a) + np.abs(b)
        share = np.divide(
            np.maximum(a, 0.0) + np.maximum(b, 0.0), width,
            out=np.zeros_like(width), where=width > 0,
        )
        window_fraction = np.diff(np.append(ts[:k], revival_time)) @ share / revival_time

    return EmissionMetrics(
        threshold=float(threshold),
        decay_time=None if decay_time is None else float(decay_time),
        revival_time=None if revival_time is None else float(revival_time),
        post_decay_max=None if post_decay_max is None else float(post_decay_max),
        window_fraction=None if window_fraction is None else float(window_fraction),
    )
