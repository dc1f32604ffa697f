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
The offsets are symmetric about 0, so each fine phasor at a negative
offset is the conjugate of one at a positive offset. That takes about
``1.5 dim sqrt(S)`` exponentials and one matrix product. It is used when
``max|r| max|E| <= 1e-8``, so the neglected ``(E r)^2 / 2`` is at most
5e-17. Other times (a scalar, two samples, a non-uniform grid) take the
direct sum in blocks of the same ``nb`` samples: ``dim S`` exponentials.
Either path holds ``O(dim sqrt(S) + S)`` memory. On the grid path that is
three ``dim x nb`` complex arrays at once (the fine phasors are formed in
place, and the coarse ones in the half of the buffer that weights them),
beside numpy's ufunc buffers (two of ``np.getbufsize()`` complex entries,
256 KiB, for the strided conjugate and the broadcast weight products) and
arrays of one entry per sample: the residual ``r``, the ``2 S`` complex
entries of the product and the result, 48 bytes a sample in all. The rest of the amplitude, ``g0 - i r g1``, its
modulus squared and the clip run over blocks of whole coarse rows, about
4096 samples each, in one reused buffer, and write P straight into the
result. The direct sum holds about 32 bytes a sample (its blocks'
amplitudes and their concatenation). ``_series_bytes`` counts four such
arrays, a per-level slack, which covers the buffers from about 500 levels
up (1.91 MB against a count of 2.93 MB at 501 levels and 5000 samples),
and 80 bytes a sample, which covers the per-sample arrays of either path;
a test holds the ``tracemalloc`` peak of ``survival_probability`` under it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numtext import _BLOCK, csv_table
from .errors import DimensionMismatch, StepTooLarge
from .hermitian import SpectralDecomposition

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
    """Sampled survival-probability trace over a uniform time grid.

    ``values`` holds one value per sample of ``grid``; any other shape
    raises ``ValueError``.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        shape, want = np.shape(self.values), (self.grid.samples,)
        if shape != want:
            raise ValueError(f"values of shape {shape} do not match the grid's shape {want}")

    @cached_property
    def times(self) -> np.ndarray:
        """The grid's sample times, built once and read-only."""
        ts = self.grid.times()
        ts.flags.writeable = False
        return ts

    def to_csv(self) -> str:
        """Render as ``t,P`` CSV: 12 significant digits, LF line endings."""
        return csv_table(self.times, {"P": self.values})


def evolve_state(d: SpectralDecomposition, psi0, t: float) -> np.ndarray:
    """Propagate a state for time ``t``: ``V exp(-i E t) V^dag psi0``.

    A star's decomposition from :func:`~staremit.hermitian.eigh` applies
    its eigenvectors from the O(n) state its solve keeps, in row blocks,
    and never builds them: O(n^2) time and O(n) memory beside its row
    blocks. The row blocks live in the calling thread's workspace of 1 MiB
    (4 blocks of 2^15 entries; see :mod:`staremit._arrowhead`), reused by
    every star solve and propagation in that thread; each thread has its
    own. Any other decomposition reads ``d.eigenvectors``.

    Raises
    ------
    DimensionMismatch
        If the state's length is not the decomposition's dim.
    ValueError
        If ``t`` or an entry of ``psi0`` is not finite.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (d.dim,):
        raise DimensionMismatch(f"state has shape {psi.shape}, expected ({d.dim},)")
    if not (np.isfinite(t) and np.isfinite(psi).all()):
        raise ValueError("t and psi0 must be finite")
    phases = np.exp(-1j * d.eigenvalues * t)
    propagate = getattr(d._eigenvectors, "propagate", None)
    if propagate is not None:
        return propagate(psi, phases)
    v = d.eigenvectors
    if np.isrealobj(v):
        # a real V acts on real and imaginary parts apart, in real BLAS
        # (a complex-by-real product would leave BLAS)
        re, im = np.stack((psi.real, psi.imag)) @ v
        c = phases * (re + 1j * im)
        return v @ c.real + 1j * (v @ c.imag)
    # V^dag psi as conj(psi^dag V): no conjugate transpose of V is copied
    return v @ (phases * np.conj(psi.conj() @ v))


def survival_probability(d: SpectralDecomposition, t):
    """Probability of finding the initial basis state again after time ``t``.

    Evaluates ``|sum_n |<0|e_n>|^2 exp(-i E_n t)|^2`` from the cached
    overlaps, clipped to [0, 1], with no read of ``d.eigenvectors``;
    vectorized over ``t``, a float for scalar ``t``. A uniform grid of S
    times costs about ``1.5 dim sqrt(S)`` exponentials and one matrix
    product; other times cost ``dim S`` exponentials. Both take
    ``O(dim sqrt(S) + S)`` memory (see the module docstring).
    """
    return _survival(d.eigenvalues, d.zero_overlaps, t)


def _survival(levels, weights, t):
    # |sum weights exp(-i levels t)|^2 clipped to [0, 1]; a float for scalar t.
    # The grid path yields its amplitude a block of samples at a time, the
    # direct sum as one block, and each block's P goes straight into the result
    t = np.asarray(t, dtype=float)
    tt = t.ravel()
    blocks = _grid_amplitude(levels, weights, tt)
    if blocks is None:
        # blocks of ceil(sqrt(S)) samples, the grid path's width, so that
        # either path holds O(levels sqrt(S)) phasors
        nb = math.isqrt(max(tt.size - 1, 0)) + 1
        blocks = [(0, np.concatenate([
            weights @ np.exp(-1j * np.multiply.outer(levels, tt[i : i + nb]))
            for i in range(0, max(tt.size, 1), nb)
        ]))]
    p = np.empty(tt.size)
    for start, amp in blocks:
        out = p[start : start + amp.size]
        np.abs(amp, out=out)
        np.square(out, out=out)
        np.clip(out, 0.0, 1.0, out=out)
    return float(p[0]) if t.ndim == 0 else p.reshape(t.shape)


def _series_bytes(levels: int, samples: int, kept: int = 0) -> int:
    # the memory a survival series of this many levels and samples may hold:
    # 512 bytes a level for the arrays of one entry per level (solving an
    # identical-modes star peaks at about 100), four complex levels x
    # ceil(sqrt(samples)) arrays, for the kernel's three and numpy's
    # buffers beside them, and 80 bytes a sample for its
    # per-sample arrays (48 on the grid path and 32 on the direct sum, see
    # the module docstring), plus `kept` finished
    # series of as many samples, whose times and values take 16 bytes a sample
    return levels * (512 + 64 * (math.isqrt(samples - 1) + 1)) + (80 + 16 * kept) * samples


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
    # offset[h - j] = -(step j) exactly, so the fine phasor there is the
    # conjugate of the one at step j: only offsets 0..h are exponentiated.
    # Those from 0 go straight into their columns of fine; an even nb's
    # offsets end at h - 1, so its offset h is exponentiated apart, for the
    # conjugate in column 0
    h = nb // 2
    fine = np.empty((levels.size, nb), dtype=complex)
    _phasors(levels, step * np.arange(nb - h), fine[:, h:])
    odd = nb % 2
    if not odd:
        np.conjugate(_phasors(levels, step * np.arange(h, h + 1)), out=fine[:, :1])
    np.conjugate(fine[:, nb - 1 : h : -1], out=fine[:, 1 - odd : h])
    # the coarse phasors go into the half of one buffer that holds their
    # weighted product, and the other weighted product into the other half,
    # so that at most three n x ceil(sqrt(S)) complex arrays are alive at once
    both = np.empty((2 * na, levels.size), dtype=complex)
    coarse = _phasors(anchor, levels, both[:na])
    np.multiply(weights * levels, coarse, out=both[na:])
    coarse *= weights
    g = both @ fine
    return _grid_blocks(g, r, nb)


def _phasors(a, b, out=None):
    # exp(-1j * outer(a, b)) in one complex array, ``out`` (a.size x b.size)
    # when given: its real parts are +0 and its imaginary parts -a b, the
    # very operands -1j * outer(a, b) makes, without that product's float
    # and complex temporaries
    if out is None:
        out = np.empty((a.size, b.size), dtype=complex)
    out.real = 0.0
    np.multiply.outer(a, b, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return np.exp(out, out=out)


def _grid_blocks(g, r, nb):
    # g0 - i r g1 over blocks of whole coarse rows, about _BLOCK samples each,
    # in one reused buffer: the same operations, in the same order, as on
    # whole rows of g
    na, s = g.shape[0] // 2, r.size
    rows = max(1, _BLOCK // nb)
    buf = np.empty(min(rows * nb, s), dtype=complex)
    for a in range(0, na, rows):
        lo, hi = a * nb, min((a + rows) * nb, s)
        amp = buf[: hi - lo]
        np.multiply(1j, r[lo:hi], out=amp)
        amp *= g[na + a : na + a + rows].ravel()[: hi - lo]
        np.subtract(g[a : a + rows].ravel()[: hi - lo], amp, out=amp)
        yield lo, amp


def survival_series(d: SpectralDecomposition, grid: TimeGrid) -> SurvivalSeries:
    """Sample the survival probability over a uniform grid."""
    return SurvivalSeries(grid=grid, values=survival_probability(d, grid.times()))


def evolve_oracle(h, psi0, t: float, dt: float) -> np.ndarray:
    """Integrate ``i dpsi/dt = H psi`` with fixed-step classical RK4.

    Independent cross-check for :func:`evolve_state`. The requested ``dt``
    is an upper bound: the span is split into ``steps`` equal substeps no
    larger than ``dt``. Accumulated norm drift is removed from the returned
    state only, never mid-integration. One substep is a fixed matrix ``R``;
    the state is multiplied once by ``R**steps``, formed by repeated
    squaring: about ``3 + 2 log2(steps)`` products of ``dim x dim``
    matrices, ``O(dim^3 log(steps))`` time, at every ``dim``.

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
    # in Horner form; its power by repeated squaring takes all the steps
    z = -1j * (t / steps) * mat
    eye = np.eye(mat.shape[0])
    r = eye + z @ (eye + z / 2 @ (eye + z / 3 @ (eye + z / 4)))
    psi = np.linalg.matrix_power(r, steps) @ psi
    return psi / np.linalg.norm(psi)
