"""Dense Hermitian matrices and their spectral decompositions.

Everything downstream (time evolution, the inverse construction, the
revival analysis) consumes the output of :func:`eigh`, so the
decomposition also caches the overlap weights of the designated initial
basis state, index 0.

Star (arrowhead) matrices, whose nonzero off-diagonal entries all sit in
row and column 0, are the model's Hamiltonians. Their coupling phases are a
per-mode gauge: a diagonal unitary turns them into real arrowheads
``[[a, z^T], [z, diag(p)]]`` with ``z >= 0``, whose eigenvalues are the
roots of the model's secular equation
``g(E) = E - a - sum_k z_k^2 / (E - p_k)``. :func:`eigh` solves them in
O(n^2) time with the solver of :mod:`staremit._arrowhead`, whose docstring
gives its steps and costs. A :class:`~staremit.model.StarModel` goes to
the same solver from its ``eps`` and ``alpha``, with no dense matrix
formed. Any other Hermitian matrix goes to LAPACK's complex solver, after
one O(n^2) count that tells it from a star.

A star's eigenvectors are built on their first read, from O(n) state the
solve keeps; until then its decomposition takes O(n) memory.
:func:`~staremit.evolution.evolve_state` applies them from that state,
in O(n^2) time, and never builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrowhead import check_dim, solve_star
from .errors import NonConvergence
from .model import StarModel

# Hermiticity tolerance, relative to the largest entry modulus.
HERMITICITY_RTOL = 1e-12

# Eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-9


def _as_square_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # C order, so that _is_star can read the entries as 64-bit words
    return np.ascontiguousarray(m)


def _entry_scale(entries: np.ndarray):
    # a power-of-two factor f and max|f x| over the entries: f is 1, or 1/4
    # when the modulus of a finite entry overflows, so that neither max|f x|
    # nor the difference of two scaled entries can. The modulus doubles as
    # the finiteness test: it is finite unless an entry is inf or NaN or a
    # finite modulus overflows, which the exact test then tells.
    scale = np.abs(entries).max()
    if np.isfinite(scale):
        return 1.0, scale
    if not np.all(np.isfinite(entries)):
        raise ValueError("matrix entries must be finite")
    return 0.25, np.abs(entries * 0.25).max()


def _hermiticity_defect(m: np.ndarray, f: float = 1.0) -> float:
    # max |f m[i,j] - conj(f m[j,i])| for a power of two f, so the scaling
    # is exact
    fm = f * m
    return np.abs(fm - fm.conj().T).max()


def check_hermitian(mat, tol: float) -> bool:
    """Return True iff ``max |m[i,j] - conj(m[j,i])| <= tol``.

    Pure predicate; ``mat`` must be square with finite entries. Entries
    whose modulus overflows are compared at a quarter of their size, with
    ``tol`` scaled alike, so the comparison itself cannot overflow.
    """
    m = _as_square_matrix(mat)
    f, _ = _entry_scale(m)
    return bool(_hermiticity_defect(m, f) <= tol * f)


@dataclass(frozen=True, init=False)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Unitary matrix whose column ``n`` is the eigenvector belonging to
        ``eigenvalues[n]``. Given a function of no arguments in its place,
        as :func:`eigh` gives for a star, it is built on first read and cached.
        A star's function also has a ``propagate(psi, phases)`` method,
        which applies ``V diag(phases) V^H`` without building ``V``;
        :func:`~staremit.evolution.evolve_state` uses it.
    zero_overlaps : ndarray
        ``|<0|e_n>|**2`` for the initial basis state (index 0); sums to 1.
    """

    eigenvalues: np.ndarray
    zero_overlaps: np.ndarray

    def __init__(self, eigenvalues, eigenvectors, zero_overlaps):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "zero_overlaps", zero_overlaps)
        object.__setattr__(self, "_eigenvectors", eigenvectors)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        v = self._eigenvectors
        return v() if callable(v) else v

    @property
    def dim(self) -> int:
        return self.eigenvalues.size




def _is_star(m: np.ndarray) -> bool:
    # np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:]) for
    # a square C-contiguous complex m (as _as_square_matrix returns it).
    # Its 64-bit words are counted first, faster than complex entries: when
    # the nonzero words of all of m are those of its arrow and diagonal,
    # every other entry is +0.0 and m is a star. Any other matrix takes the
    # complex count, in which -0.0 is zero and NaN and inf are not: one
    # O(n^2) pass before LAPACK's O(n^3) solve.
    n = m.shape[0]
    words = m.view(np.uint64).reshape(n, n, 2)
    arrow = (np.count_nonzero(words[0]) + np.count_nonzero(words[1:, 0])
             + np.count_nonzero(words[1:, 1:].diagonal()))
    if np.count_nonzero(words) == arrow:
        return True
    return np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:])


def eigh(mat) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix, or the Hamiltonian of a star model.

    A :class:`~staremit.model.StarModel` is solved from its ``eps`` and
    ``alpha`` directly, as the star below, without forming its dense
    matrix or checking Hermiticity (it is Hermitian by construction).
    A star matrix, with all off-diagonal nonzeros in row and column 0, is
    solved as a real arrowhead. With ``c = mat[1:, 0]`` (the lower
    triangle, which is what the complex solver reads) and the diagonal
    unitary ``D = diag(1, c/|c|)``, taking phase 1 where ``c`` is zero,
    ``D^H mat D`` is the real arrowhead with diagonal ``Re diag(mat)`` and
    couplings ``|c|``. It has the same eigenvalues, and its eigenvectors
    ``V_real`` give those of ``mat`` as ``D V_real``. The arrowhead is
    deflated (negligible couplings and equal mode energies give dark
    levels), its other eigenvalues are the roots of the secular equation,
    each kept as an offset from its nearer pole, and its eigenvectors come
    from Löwner's formula, all in O(n^2) time (see :mod:`staremit._arrowhead`).
    Other Hermitian matrices go to LAPACK's complex solver.

    Parameters
    ----------
    mat : array_like or StarModel
        Square matrix, Hermitian within ``HERMITICITY_RTOL`` relative to
        its largest entry modulus. When that modulus overflows, the
        comparison is made on the matrix scaled by 1/4 (exactly), so such
        a matrix is held to the same relative tolerance. A star matrix is
        checked from its first row, first column and diagonal, since its
        other entries are exact zeros; the verdicts are those of the
        dense check.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues, orthonormal eigenvector columns, and the
        cached overlap weights of basis state 0. A star's eigenvectors are
        built on their first read, from O(n) state the solve keeps, and
        are real when its couplings are all real and non-negative.
        Deterministic for identical input.

    Raises
    ------
    ValueError
        If the matrix is not square, finite and Hermitian, or, for LAPACK,
        if its arrays would exceed 8 GiB (a star's first eigenvector read
        raises it instead).
    NonConvergence
        If the underlying iteration fails to converge: the secular root
        finder within its iteration cap (50 sweeps), or LAPACK.
    """
    if isinstance(mat, StarModel):
        return SpectralDecomposition(*solve_star(mat.eps, mat.alpha))
    m = _as_square_matrix(mat)
    # a star: away from row and column 0, only the diagonal is nonzero (NaN
    # and inf count as nonzero), so every other entry is an exact zero and
    # the first row, first column and diagonal alone decide finiteness,
    # scale and Hermiticity
    star = _is_star(m)
    if star:
        row, col, diag = m[0], m[:, 0], m.diagonal()
        f, scale = _entry_scale(np.concatenate((row, col, diag)))
        arrow = f * np.concatenate((row, diag))
        mirror = f * np.concatenate((col, diag))
        defect = np.abs(arrow - mirror.conj()).max()
    else:
        f, scale = _entry_scale(m)
        defect = _hermiticity_defect(m, f)
    if not defect <= HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    if star:
        return SpectralDecomposition(*solve_star(m.diagonal().real, m[1:, 0]))
    check_dim(m.shape[0], 48)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        zero_overlaps=np.abs(eigenvectors[0]) ** 2,
    )


def reconstruct(d: SpectralDecomposition) -> np.ndarray:
    """Rebuild ``V diag(E) V†`` from a decomposition (reading ``V`` builds a star's)."""
    v = d.eigenvectors
    return (v * d.eigenvalues) @ v.conj().T


def aggregate_degenerate(eigenvalues, overlaps, tol: float = DEGENERACY_TOL):
    """Merge eigenvalues closer than ``tol`` and sum their overlap weights.

    Inside a degenerate subspace the eigenvector basis (hence each
    individual overlap) is arbitrary; only the summed weight per distinct
    level is observable. Input must be sorted ascending.

    Returns
    -------
    levels, weights : ndarray
        Mean eigenvalue and total weight of each distinct level.
    """
    e = np.asarray(eigenvalues, dtype=float)
    w = np.asarray(overlaps, dtype=float)
    if e.ndim != 1 or e.shape != w.shape or e.size == 0:
        raise ValueError("eigenvalues and overlaps must be matching 1-d arrays")
    if np.count_nonzero(np.diff(e) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(e) > tol) + 1))
    counts = np.diff(np.append(starts, e.size))
    return np.add.reduceat(e, starts) / counts, np.add.reduceat(w, starts)
