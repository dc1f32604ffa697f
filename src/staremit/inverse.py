"""Construct a star Hamiltonian realizing a prescribed spectral profile.

Any strictly positive set of initial-state weights summing to one,
together with the equally spaced level ladder, is realizable by an
arrowhead Hamiltonian. The inverse problem is a secular equation, like
the forward one: the mode energies are the zeros of
``sum_m w_m / (z - E_m)``, one between each pair of neighbouring levels,
and the couplings follow from them in closed form (Löwner's formula). It
is solved in O(n^2) by the star eigensolver's root finder
(:mod:`staremit._arrowhead`), and the round trip is verified by the same
solver, started at the target levels, so no dense matrix is formed.
Weights below ``MIN_WEIGHT`` are refused, wherever they sit on the ladder.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._arrowhead import arrowhead_from_spectrum, solve_star
from .errors import DegenerateProfile, DimensionMismatch
from .hermitian import DEGENERACY_TOL, aggregate_degenerate, eigh  # noqa: F401 (eigh is re-exported)
from .model import StarModel, _json_number, _json_numbers

# Overlap weights must sum to one within this tolerance.
PROFILE_SUM_TOL = 1e-12

# Weights below this raise DegenerateProfile wherever they sit: the level's
# amplitude on the initial state, sqrt(weight) < 1e-12, is numerically zero.
MIN_WEIGHT = 1e-24

# The ladder eps0 + (m/M) d_width is itself rounded at the float spacing
# near its largest level: eigenvalue differences up to this many machine
# epsilons of max|E_m| are that rounding, whatever d_width is.
ROUNDING_EPS = 4

_EPS = np.finfo(float).eps


def equally_spaced_spectrum(m_half: int, eps0: float, d_width: float) -> np.ndarray:
    """Level ladder ``eps0 + (m/M) d_width`` for ``m = -M..M``, ascending."""
    if m_half < 1:
        raise ValueError("m_half must be >= 1")
    if not d_width > 0:
        raise ValueError("d_width must be positive")
    m = np.arange(-m_half, m_half + 1, dtype=float)
    return eps0 + (m / m_half) * d_width


@dataclass(frozen=True)
class SpectralProfile:
    """Inverse-problem input: level ladder plus initial-state weights.

    The ``2*m_half + 1`` eigenvalues are implied, equally spaced across
    ``eps0 +- d_width``. ``overlaps[i]`` is the weight ``|<0|e_m>|^2`` at
    ``m = i - m_half``; weights must be strictly positive and sum to one.
    """

    m_half: int
    eps0: float
    d_width: float
    overlaps: np.ndarray

    def __post_init__(self):
        if self.m_half < 1:
            raise ValueError("m_half must be >= 1")
        if not np.isfinite(self.eps0):
            raise ValueError("eps0 must be finite")
        if not (np.isfinite(self.d_width) and self.d_width > 0):
            raise ValueError("d_width must be positive and finite")
        w = np.asarray(self.overlaps, dtype=float)
        if w.shape != (2 * self.m_half + 1,):
            raise ValueError(
                f"expected {2 * self.m_half + 1} overlaps, got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValueError("overlaps must be finite and strictly positive")
        if abs(w.sum() - 1.0) > PROFILE_SUM_TOL:
            raise ValueError("overlaps must sum to one")
        object.__setattr__(self, "overlaps", w)

    @property
    def dim(self) -> int:
        return 2 * self.m_half + 1

    def eigenvalues(self) -> np.ndarray:
        return equally_spaced_spectrum(self.m_half, self.eps0, self.d_width)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Whether the weights mirror around ``m = 0`` within ``tol``."""
        return bool(np.abs(self.overlaps - self.overlaps[::-1]).max() < tol)

    def to_dict(self) -> dict:
        return {
            "m_half": self.m_half,
            "eps0": self.eps0,
            "d_width": self.d_width,
            "overlaps": self.overlaps.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralProfile":
        """Read the fields :meth:`to_dict` writes, as ``json`` loads them.

        ``m_half`` must be an int, ``eps0`` and ``d_width`` ints or floats,
        and ``overlaps`` a list of ints or floats, none of them a bool; any
        other type raises ``ValueError`` naming the field (also a
        ``TypeError``), and a missing field raises ``KeyError``.
        """
        m_half = _json_number(data["m_half"], "m_half", integer=True)
        eps0 = float(_json_number(data["eps0"], "eps0"))
        d_width = float(_json_number(data["d_width"], "d_width"))
        overlaps = _json_numbers(data["overlaps"], "overlaps")
        return cls(m_half=m_half, eps0=eps0, d_width=d_width, overlaps=overlaps)


def flat_profile(m_half: int, eps0: float, d_width: float) -> SpectralProfile:
    """Equal weight ``1/(2M+1)`` on every level.

    The flattest weight distribution concentrates the survival amplitude
    near multiples of the revival period, which is what makes the decay
    look irreversible between revivals.
    """
    dim = 2 * m_half + 1
    return SpectralProfile(m_half, eps0, d_width, np.full(dim, 1.0 / dim))


def random_profile(
    m_half: int,
    eps0: float,
    d_width: float,
    rng: np.random.Generator,
    symmetric: bool = False,
) -> SpectralProfile:
    """Random profile: positive weights drawn uniformly, then normalized.

    With ``symmetric=True`` the weights mirror around ``m = 0`` so the
    cosine expansion of the amplitude applies.
    """
    if symmetric:
        half = rng.uniform(0.0, 1.0, m_half + 1)  # m = 0..M
        w = np.concatenate([half[:0:-1], half])
    else:
        w = rng.uniform(0.0, 1.0, 2 * m_half + 1)
    return SpectralProfile(m_half, eps0, d_width, w / w.sum())


def construct_hamiltonian(profile: SpectralProfile) -> StarModel:
    """Find diagonal energies and couplings realizing a spectral profile.

    The arrowhead ``[[eps_0, alpha^T], [alpha, diag(eps_k)]]`` has the
    ladder ``E_m`` as eigenvalues and the weights ``w_m`` on state 0 iff

    1. the head energy is ``eps_0 = sum_m w_m E_m``, formed as
       ``eps0 + sum_m w_m (E_m - eps0)`` with ``w`` normalized;
    2. the ``2M`` mode energies ``eps_k`` are the roots of
       ``sum_m w_m / (z - E_m)``, one between each pair of neighbouring
       levels. They are found on the centred ladder ``(m/M) d_width``,
       scaled by a power of two so no intermediate overflows or
       underflows, with the secular root finder of the star eigensolver;
       ``eps0`` is added back at the end;
    3. the couplings follow from Löwner's formula,
       ``alpha_k^2 = -prod_m (E_m - eps_k) / prod_{i != k} (eps_i - eps_k)``,
       evaluated on the rounded roots: they are the couplings for which
       the mode energies actually returned have the ladder as eigenvalues,
       so the round trip holds to working precision even where a root is
       known only roughly (next to a weight near ``MIN_WEIGHT``).

    All arithmetic is real and O(n^2). The coupling signs are a per-mode
    gauge and are fixed to ``alpha_k >= 0``. Modes are ordered by
    descending coupling, ties by ascending energy. Identical profiles yield
    bitwise-identical output.

    Raises
    ------
    DegenerateProfile
        If any overlap weight, at any position, is below ``MIN_WEIGHT``:
        such a level is numerically decoupled from the initial state.
    NonConvergence
        If the secular root finder does not converge.
    """
    weights = profile.overlaps
    j = profile.m_half
    idx = int(np.argmin(weights))
    if weights[idx] < MIN_WEIGHT:
        raise DegenerateProfile(
            f"overlap weight {weights[idx]:.3g} at m = {idx - j} is below {MIN_WEIGHT:g}"
        )
    w = weights / weights.sum()
    offsets = equally_spaced_spectrum(j, 0.0, profile.d_width)
    modes, couplings = arrowhead_from_spectrum(offsets, w)
    mode_energies = profile.eps0 + modes
    order = np.lexsort((mode_energies, -couplings))
    return StarModel(
        eps=np.concatenate(([profile.eps0 + w @ offsets], mode_energies[order])),
        alpha=couplings[order],
    )


@dataclass(frozen=True)
class RoundTripReport:
    """Outcome of re-diagonalizing a constructed model against its target."""

    max_eigenvalue_error: float
    max_overlap_error: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify_round_trip(
    model: StarModel, profile: SpectralProfile, tol: float
) -> RoundTripReport:
    """Re-diagonalize ``model`` and compare against ``profile``.

    The model is solved by the O(n^2) star solve of ``eigh``, as the real
    arrowhead with couplings ``|alpha|``, so the report is the same in every
    coupling gauge. Only its eigenvalues and weights are read, never its
    eigenvectors, so no eigenvector matrix is built and memory stays O(n).

    The solver starts each secular root at its target level, so a faithful
    model is verified in one evaluation per root. Its weights are then
    ``1/g'`` at the roots, from the slopes of that one sweep (moved from
    each start to its root by the curvature the sweep also sums), and no
    Löwner pass runs; they are within a few ulps of ``eigh``'s. A root
    whose start is not accepted restarts from its interval's midpoint,
    exactly as ``eigh`` solves it, and the weights of every root come from
    the Löwner pass: when no start is accepted, the eigenvalues and weights
    are ``eigh``'s to the bit. The rule for accepting a start is step 2 of
    the :mod:`staremit._arrowhead` docstring.

    Eigenvalues are compared sorted, elementwise. Overlap weights are
    summed per distinct level on both sides first, so basis choices inside
    degenerate subspaces cannot affect the verdict; weight sitting on a
    level matching no target level counts as error in full.

    The verdict does not depend on the energy unit: the round trip passes
    when the largest eigenvalue error is at most ``tol * d_width + r`` and
    the largest overlap error at most ``tol``, and levels closer than
    ``DEGENERACY_TOL * d_width + r`` count as one. Here
    ``r = ROUNDING_EPS * eps * max|E_m|`` is the rounding of the target
    ladder itself, which dominates when ``|eps0|`` is far above
    ``d_width``. The report's error fields are absolute.
    """
    target_e = profile.eigenvalues()
    if model.dim != profile.dim:
        raise DimensionMismatch(
            f"model dimension {model.dim} != profile dimension {profile.dim}"
        )
    eigenvalues, _, weights = solve_star(model.eps, model.alpha, target_e)
    eig_err = float(np.abs(eigenvalues - target_e).max())

    # the ladder ascends, so its largest |E_m| is at one end
    rounding = ROUNDING_EPS * _EPS * max(-target_e[0], target_e[-1])
    merge = DEGENERACY_TOL * profile.d_width + rounding
    got_levels, got_weights = aggregate_degenerate(eigenvalues, weights, merge)
    want_levels, want_weights = aggregate_degenerate(target_e, profile.overlaps, merge)
    window = 0.5 * np.diff(want_levels).min() if want_levels.size > 1 else np.inf
    # nearest target level, the lower one on equal distances
    hi = np.minimum(np.searchsorted(want_levels, got_levels), want_levels.size - 1)
    lo = np.maximum(hi - 1, 0)
    dist_lo = np.abs(want_levels[lo] - got_levels)
    dist_hi = np.abs(want_levels[hi] - got_levels)
    nearest = np.where(dist_lo <= dist_hi, lo, hi)
    matched = np.minimum(dist_lo, dist_hi) <= window
    assigned = np.zeros_like(want_weights)
    np.add.at(assigned, nearest[matched], got_weights[matched])
    stray = got_weights[~matched].max(initial=0.0)
    overlap_err = float(max(np.abs(assigned - want_weights).max(), stray))
    return RoundTripReport(
        max_eigenvalue_error=eig_err,
        max_overlap_error=overlap_err,
        passed=bool(eig_err <= tol * profile.d_width + rounding and overlap_err <= tol),
    )
