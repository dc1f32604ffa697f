"""Dense Hermitian matrices and their spectral decompositions.

Everything downstream (time evolution, the inverse construction, the
revival analysis) consumes the output of :func:`eigh`, so the
decomposition also caches the overlap weights of the designated initial
basis state, index 0.

Star (arrowhead) matrices, whose nonzero off-diagonal entries all sit in
row and column 0, are the model's Hamiltonians. Their coupling phases are a
per-mode gauge: a diagonal unitary turns them into real symmetric
matrices, which :func:`eigh` diagonalizes in real arithmetic. Any other
Hermitian matrix goes to the complex solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

# Hermiticity tolerance, relative to the largest entry modulus.
HERMITICITY_RTOL = 1e-12

# Eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-9

# Rows per slab of the Hermiticity check.
_SLAB = 64


def _as_square_matrix(mat):
    # the converted matrix and its largest entry modulus, which doubles as
    # the finiteness test: it is finite unless an entry is inf or NaN or the
    # modulus of a finite entry overflows, which the exact test then tells
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if not np.isfinite(scale) and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m, scale


def _hermiticity_defect(m: np.ndarray) -> float:
    # max |m[i,j] - conj(m[j,i])|, in row slabs so the transposed read
    # stays in cache
    defect = 0.0
    for i in range(0, m.shape[0], _SLAB):
        defect = max(defect, np.abs(m[i : i + _SLAB] - m[:, i : i + _SLAB].conj().T).max())
    return defect


def check_hermitian(mat, tol: float) -> bool:
    """Return True iff ``max |m[i,j] - conj(m[j,i])| <= tol``.

    Pure predicate; ``mat`` must be square with finite entries.
    """
    m, _ = _as_square_matrix(mat)
    return bool(_hermiticity_defect(m) <= tol)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Unitary matrix whose column ``n`` is the eigenvector belonging to
        ``eigenvalues[n]``.
    zero_overlaps : ndarray
        ``|<0|e_n>|**2`` for the initial basis state (index 0); sums to 1.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_overlaps: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _eigh_star(diagonal: np.ndarray, c: np.ndarray):
    # D^H H D with D = diag(1, c/|c|) is the real arrowhead with couplings |c|
    mod = np.abs(c)
    arrow = np.diag(diagonal)
    arrow[1:, 0] = arrow[0, 1:] = mod
    eigenvalues, vectors = np.linalg.eigh(arrow)
    coupled = mod > 0
    phase = np.ones(diagonal.size, dtype=complex)
    phase[1:][coupled] = c[coupled] / mod[coupled]
    return eigenvalues, phase[:, None] * vectors


def eigh(mat) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix.

    A star matrix, with all off-diagonal nonzeros in row and column 0, is
    solved in real arithmetic. With ``c = mat[1:, 0]`` (the lower triangle,
    which is what the complex solver reads) and the diagonal unitary
    ``D = diag(1, c/|c|)``, taking phase 1 where ``c`` is zero,
    ``D^H mat D`` is the real arrowhead with diagonal ``Re diag(mat)`` and
    couplings ``|c|``. It has the same eigenvalues, and its eigenvectors
    ``V_real`` give those of ``mat`` as ``D V_real``. The transformation is
    exact up to the rounding of the phases, so only the cost changes: the
    real solver is several times faster than the complex one. Other
    Hermitian matrices go to the complex solver.

    Parameters
    ----------
    mat : array_like
        Square matrix, Hermitian within ``HERMITICITY_RTOL`` relative to
        its largest entry modulus.

    Returns
    -------
    SpectralDecomposition
        Ascending eigenvalues, orthonormal eigenvector columns, and the
        cached overlap weights of basis state 0. Deterministic for
        identical input.

    Raises
    ------
    ValueError
        If the matrix is not square, finite and Hermitian.
    NonConvergence
        If the underlying iteration fails to converge.
    """
    m, scale = _as_square_matrix(mat)
    if not _hermiticity_defect(m) <= HERMITICITY_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    # a star: away from row and column 0, only the diagonal is nonzero
    star = np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:])
    try:
        if star:
            eigenvalues, eigenvectors = _eigh_star(m.diagonal().real, m[1:, 0])
        else:
            eigenvalues, eigenvectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        zero_overlaps=np.abs(eigenvectors[0]) ** 2,
    )


def reconstruct(d: SpectralDecomposition) -> np.ndarray:
    """Rebuild ``V diag(E) V†`` from a decomposition."""
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
    if np.any(np.diff(e) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(e) > tol) + 1))
    counts = np.diff(np.append(starts, e.size))
    return np.add.reduceat(e, starts) / counts, np.add.reduceat(w, starts)
