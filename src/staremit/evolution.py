"""Exact spectral time evolution plus an independent integrator cross-check.

With a spectral decomposition in hand the propagator is exact:
``psi(t) = V exp(-i E t) V^dag psi(0)``. The fixed-step Runge-Kutta
integrator never touches the decomposition, so agreement between the two
routes validates both.

The survival probability ``|sum_n w_n exp(-i E_n t)|^2`` of ``dim`` levels
at ``S`` times has two paths, chosen from the times alone. On a uniform
grid (``S >= 3``) the sample index splits as ``j = a nb + k`` with
``nb = ceil(sqrt(S))``, so each phasor is a coarse one at the block anchor
times a fine one at the offset inside the block, times
``1 - i E_n r_j`` for the rounding-sized residual ``r_j`` of the split.
That takes about ``2 dim sqrt(S)`` exponentials and one matrix product,
in ``O(dim sqrt(S) + S)`` memory. It is used when
``max|r| max|E| <= 1e-8``, so the neglected ``(E r)^2 / 2`` is at most
5e-17. Other times (a scalar, two samples, a non-uniform grid) take the
direct sum in blocks of 4096 samples: ``dim S`` exponentials in
``O(4096 dim + S)`` memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numtext import csv_table
from .errors import DimensionMismatch, StepTooLarge
from .hermitian import SpectralDecomposition

# Samples per block of the direct sum, which holds levels x _CHUNK phasors.
_CHUNK = 4096

# Largest max|r| max|E| for the factorised grid sum, where r is a sample's
# distance from its coarse x fine split; the neglected (E r)^2 / 2 stays
# below 5e-17.
_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid on ``[t_start, t_end]`` with ``samples`` points."""

    t_start: float
    t_end: float
    samples: int

    def __post_init__(self):
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if self.t_end <= self.t_start:
            raise ValueError("need t_end > t_start")
        if self.samples < 2:
            raise ValueError("need at least two samples")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.samples)


@dataclass(frozen=True)
class SurvivalSeries:
    """Sampled survival-probability trace over a uniform time grid."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()

    def to_csv(self) -> str:
        """Render as ``t,P`` CSV: 12 significant digits, LF line endings."""
        return csv_table(self.grid.times(), {"P": self.values})


def evolve_state(d: SpectralDecomposition, psi0, t: float) -> np.ndarray:
    """Propagate a state for time ``t``: ``V exp(-i E t) V^dag psi0``."""
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (d.dim,):
        raise DimensionMismatch(f"state has shape {psi.shape}, expected ({d.dim},)")
    phases = np.exp(-1j * d.eigenvalues * t)
    return d.eigenvectors @ (phases * (d.eigenvectors.conj().T @ psi))


def survival_probability(d: SpectralDecomposition, t):
    """Probability of finding the initial basis state again after time ``t``.

    Evaluates ``|sum_n |<0|e_n>|^2 exp(-i E_n t)|^2`` from the cached
    overlaps, clipped to [0, 1]; vectorized over ``t``, a float for
    scalar ``t``. A uniform grid of S times costs about ``2 dim sqrt(S)``
    exponentials and one matrix product in ``O(dim sqrt(S) + S)`` memory;
    other times cost ``dim S`` exponentials, in blocks of 4096 samples
    (see the module docstring).
    """
    return _survival(d.eigenvalues, d.zero_overlaps, t)


def _survival(levels, weights, t):
    # |sum weights exp(-i levels t)|^2 clipped to [0, 1]; a float for scalar t
    t = np.asarray(t, dtype=float)
    tt = t.ravel()
    amp = _grid_amplitude(levels, weights, tt)
    if amp is None:
        amp = np.concatenate([
            weights @ np.exp(-1j * np.multiply.outer(levels, tt[i : i + _CHUNK]))
            for i in range(0, max(tt.size, 1), _CHUNK)
        ])
    p = np.clip(np.abs(amp) ** 2, 0.0, 1.0)
    return float(p[0]) if t.ndim == 0 else p.reshape(t.shape)


def _grid_amplitude(levels, weights, tt):
    # On a uniform grid t_j = t0 + j step, write j = a nb + k and
    # t_j = anchor_a + offset_k + r_j with r_j of the size of one rounding:
    # exp(-i E t_j) = C[a] F[k] (1 - i E r_j) up to (E r_j)^2 / 2. Returns
    # None when the grid is too short or that term could exceed 5e-17.
    s = tt.size
    if s < 3:
        return None
    nb = math.isqrt(s - 1) + 1
    na = -(-s // nb)
    step = (tt[-1] - tt[0]) / (s - 1)
    anchor = tt[0] + step * (np.arange(na) * nb + nb // 2)
    offset = step * (np.arange(nb) - nb // 2)
    r = (tt - np.repeat(anchor, nb)[:s]) - np.tile(offset, na)[:s]
    if not np.abs(r).max() * np.abs(levels).max() <= _RESIDUAL_TOL:
        return None
    coarse = np.exp(-1j * np.multiply.outer(anchor, levels))
    fine = np.exp(-1j * np.multiply.outer(levels, offset))
    g = np.concatenate([weights * coarse, (weights * levels) * coarse]) @ fine
    return g[:na].ravel()[:s] - 1j * r * g[na:].ravel()[:s]


def survival_series(d: SpectralDecomposition, grid: TimeGrid) -> SurvivalSeries:
    """Sample the survival probability over a uniform grid."""
    return SurvivalSeries(grid=grid, values=survival_probability(d, grid.times()))


def evolve_oracle(h, psi0, t: float, dt: float) -> np.ndarray:
    """Integrate ``i dpsi/dt = H psi`` with fixed-step classical RK4.

    Independent cross-check for :func:`evolve_state`. The requested ``dt``
    is an upper bound: the span is split into equal substeps no larger
    than ``dt``. Accumulated norm drift is removed from the returned state
    only, never mid-integration.

    Parameters
    ----------
    h : array_like
        Hermitian matrix.
    psi0 : array_like
        Initial state.
    t : float
        Target time (may be negative).
    dt : float
        Maximum step size. ``dt * ||H||_F`` must not exceed 0.5;
        ``0.01 / ||H||_F`` is the recommended choice, for which the result
        agrees with the spectral route to better than 1e-6.

    Raises
    ------
    StepTooLarge
        If ``dt * ||H||_F > 0.5``.
    DimensionMismatch
        If the state length does not match the matrix.
    """
    mat = np.asarray(h, dtype=complex)
    psi = np.asarray(psi0, dtype=complex).copy()
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mat.shape}")
    if psi.shape != (mat.shape[0],):
        raise DimensionMismatch(f"state has shape {psi.shape}, expected ({mat.shape[0]},)")
    if not dt > 0:
        raise ValueError("dt must be positive")
    hnorm = np.linalg.norm(mat)
    if dt * hnorm > 0.5:
        raise StepTooLarge(f"dt * ||H||_F = {dt * hnorm:.3g} exceeds 0.5")
    if t == 0:
        return psi
    steps = max(1, int(np.ceil(abs(t) / dt)))
    # one RK4 step is the degree-4 Taylor polynomial of exp(z), z = -i step H,
    # in Horner form; build it once and apply it by one matvec per step
    z = -1j * (t / steps) * mat
    eye = np.eye(mat.shape[0])
    r = eye + z @ (eye + z / 2 @ (eye + z / 3 @ (eye + z / 4)))
    for _ in range(steps):
        psi = r @ psi
    return psi / np.linalg.norm(psi)
