"""Star-coupled emitter models and their closed-form survival laws.

The physical system is a single excited two-level atom exchanging its
quantum with N independent field modes. In the basis (atom excited,
mode 1 excited, ..., mode N excited) the Hamiltonian is an arrowhead
matrix: diagonal energies, plus couplings between index 0 and each mode,
and nothing else. Units are dimensionless energies with hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StarModel:
    """Parameters of an arrowhead Hamiltonian.

    ``eps[k]`` is the diagonal energy of basis state ``k`` (``eps[0]``
    belongs to the excited-atom state); ``alpha[k-1]`` is the coupling
    ``<k|H|0>`` for mode ``k >= 1``.
    """

    eps: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float)
        alpha = np.asarray(self.alpha, dtype=complex)
        if eps.ndim != 1 or alpha.ndim != 1:
            raise ValueError("eps and alpha must be one-dimensional")
        if alpha.size < 1:
            raise ValueError("at least one mode is required")
        if eps.size != alpha.size + 1:
            raise ValueError("need len(eps) == len(alpha) + 1")
        if not (np.all(np.isfinite(eps)) and np.all(np.isfinite(alpha))):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n_modes(self) -> int:
        return self.alpha.size

    @property
    def dim(self) -> int:
        return self.eps.size

    def to_dict(self) -> dict:
        return {
            "eps": self.eps.tolist(),
            "alpha_re": self.alpha.real.tolist(),
            "alpha_im": self.alpha.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StarModel":
        re = np.asarray(data["alpha_re"], dtype=float)
        im = np.asarray(data["alpha_im"], dtype=float)
        if re.shape != im.shape:
            raise ValueError("alpha_re and alpha_im must have equal length")
        return cls(eps=np.asarray(data["eps"], dtype=float), alpha=re + 1j * im)


def build_hamiltonian(m: StarModel) -> np.ndarray:
    """Assemble the dense arrowhead matrix of a star model.

    ``H[k,k] = eps[k]``, ``H[k,0] = alpha[k-1]`` and ``H[0,k]`` its
    conjugate for ``k >= 1``; every other entry is exactly zero.
    """
    h = np.zeros((m.dim, m.dim), dtype=complex)
    np.fill_diagonal(h, m.eps)
    h[1:, 0] = m.alpha
    h[0, 1:] = m.alpha.conj()
    return h


def two_level_survival(alpha_abs: float, t):
    """Resonant single-mode survival probability, ``cos^2(|alpha| t)``."""
    t = np.asarray(t, dtype=float)
    return np.cos(alpha_abs * t) ** 2


def detuned_two_level_survival(eps0: float, eps1: float, alpha: complex, t):
    """Single-mode survival probability at arbitrary detuning.

    Generalized Rabi form ``1 - (|alpha|^2 / Omega^2) sin^2(Omega t)``
    with ``Omega = sqrt(|alpha|^2 + Delta^2)``, ``Delta = (eps1-eps0)/2``.
    For nonzero detuning the population floor is ``Delta^2 / Omega^2``:
    the atom is never certainly de-excited.
    """
    t = np.asarray(t, dtype=float)
    a2 = abs(alpha) ** 2
    delta = 0.5 * (eps1 - eps0)
    omega2 = a2 + delta * delta
    if omega2 == 0.0:
        # fully decoupled atom: nothing moves
        return np.ones_like(t)
    return 1.0 - (a2 / omega2) * np.sin(np.sqrt(omega2) * t) ** 2


def identical_modes_survival(n: int, alpha_abs: float, t):
    """Survival with ``n`` identical resonant modes, ``cos^2(sqrt(n)|alpha| t)``.

    Only the collective coupling strength grows with the number of modes:
    the oscillation speeds up by ``sqrt(n)`` but still returns fully, no
    matter how large ``n`` is.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return two_level_survival(np.sqrt(n) * alpha_abs, t)


@dataclass(frozen=True)
class BrightDarkSpectrum:
    """Closed-form spectrum of the identical-modes model.

    Two bright eigenvalues split symmetrically about ``eps0`` and carry
    all of the initial-state weight; the remaining ``dark_count`` levels
    sit at ``eps0``, decoupled from the atom.
    """

    bright: tuple[float, float]
    bright_overlaps: tuple[float, float]
    dark_energy: float
    dark_count: int


def identical_modes_spectrum(n: int, eps0: float, alpha: complex) -> BrightDarkSpectrum:
    """Spectrum summary for ``n`` identical modes at energy ``eps0``.

    The symmetric combination of the modes is the only one that couples;
    it hybridizes with the atom into the bright pair
    ``eps0 -+ sqrt(n)|alpha|`` at weight 1/2 each, leaving ``n - 1``
    dark states at ``eps0`` with zero weight.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    split = np.sqrt(n) * abs(alpha)
    return BrightDarkSpectrum(
        bright=(eps0 - split, eps0 + split),
        bright_overlaps=(0.5, 0.5),
        dark_energy=float(eps0),
        dark_count=n - 1,
    )
