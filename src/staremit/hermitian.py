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
O(n^2) time (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995;
Jakovčević Stor, Slapničar & Barlow, Linear Algebra Appl. 464, 2015):

1. Scale by a power of two, so the largest entry lies in [1/2, 1), and
   deflate. A coupling at or below ``8 eps ||H||`` leaves its mode as a
   dark eigenvector; poles within that distance of a group's first pole
   are rotated by one Householder reflection into one bright mode and
   dark modes.
2. Find each root of ``g`` in its interval between poles, kept as its
   nearer pole plus an offset, so every distance ``E - p_k`` has full
   relative accuracy. Each root starts at its interval's midpoint, where
   the sign of ``g`` tells which half, and so which pole, is its own. A
   bracketed rational step with one pole at each end of the interval (the
   middle way) updates only the roots that have not converged, in row
   blocks that keep temporaries at O(block n). Round-trip verification
   knows where the roots should be: a pre-pass evaluates each root at its
   target level, where exactly one lies strictly inside its interval, and
   the root is done there when the convergence test accepts the start, or
   when the step from it is below 1e-10 of its offset and stays in its
   half: the step converges quadratically, so the error left is of order
   1e-20 of the offset. A root not accepted at its start restarts from its
   midpoint, exactly as :func:`eigh` solves it.
3. Recompute the couplings from the roots by Löwner's formula, so the
   computed roots are exact eigenvalues of a nearby arrowhead, and take the
   eigenvectors ``[1, zhat_k / (E - p_k)]``, normalized: they come out
   orthogonal to working precision. Verification reads only their first
   components, the weights, and keeps just the column norms.
4. Merge the dark and bright eigenpairs in ascending order.

A :class:`~staremit.model.StarModel` goes to the same solver from its
``eps`` and ``alpha``, with no dense matrix formed. Any other Hermitian
matrix goes to LAPACK's complex solver.

The inverse direction, from eigenvalues ``lam`` and first-row weights
``w`` to an arrowhead, is the same secular equation with the roles of
roots and poles swapped. Its mode energies are the roots of
``sum_m w_m / (lam_m - x)``, found by the same root finder without the
linear term, and its couplings come from Löwner's formula with the roots
as poles. So one root finder serves both directions, and neither forms a
dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence
from .model import StarModel

# Hermiticity tolerance, relative to the largest entry modulus.
HERMITICITY_RTOL = 1e-12

# Eigenvalues closer than this are treated as one degenerate level.
DEGENERACY_TOL = 1e-9

_EPS = np.finfo(float).eps

# A star coupling at or below _DEFLATION * eps * ||H|| leaves its mode as a
# dark eigenvector, and mode energies that close merge into one bright mode.
_DEFLATION = 8.0

# Iteration cap of the secular root finder; reaching it raises NonConvergence.
_MAX_ITER = 50

# A secular root started near where it should be (round-trip verification
# starts each at its target level) is done after its one evaluation when the
# step from its start is at most this fraction of its offset and stays in
# the start's half. The step converges quadratically: from a start whose
# error is a fraction rho of the offset, it leaves an error of order rho^2
# of the offset, here 1e-20, far below the offset's own rounding (eps / 2).
_START_STEP = 1e-10

# Matrix entries per row block of the star solver's temporaries.
_BLOCK_CELLS = 1 << 15


def _as_square_matrix(mat) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


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


def _pick_root(coef, lo, hi):
    # the root of qa x^2 - qb x + qc = 0, for the rows qc, qb, qa of coef,
    # that lies inside (lo, hi), NaN where neither does; coef is overwritten
    qc, qb, qa = coef
    disc = qb * qb
    disc -= 4.0 * qa * qc
    np.sqrt(np.abs(disc, out=disc), out=disc)
    qb += np.copysign(disc, qb, out=disc)
    qb *= 0.5  # q, in place of qb
    with np.errstate(divide="ignore", invalid="ignore"):
        x = coef[:2] / coef[1:]  # qc / q and q / qa: the small and the large root
    inside = (x > lo) & (x < hi)
    small, root = x
    np.copyto(root, np.nan, where=~inside[1])
    np.copyto(root, small, where=inside[0])
    return root


class _Secular:
    """Roots of ``g(l) = l - a - sum_k zeta2_k / (l - d_k)`` for increasing ``d``.

    Root ``i`` lies between poles ``i - 1`` and ``i`` (the first and last
    beyond the outer poles) and is kept as its nearer pole ``d[origin[i]]``
    plus the offset ``tau[i]``, so its distance to every pole has full
    relative accuracy. With ``linear=False`` the term ``l - a`` is left
    out, and only the ``r - 1`` roots between the poles exist.
    """

    def __init__(self, a: float, d: np.ndarray, zeta2: np.ndarray, linear: bool = True):
        self.a, self.d, self.zeta2, self.linear = a, d, zeta2, linear
        r = d.size
        self.index = np.arange(r + 1) if linear else np.arange(1, r)
        self.gap = np.zeros(r + 1)
        self.gap[1:r] = np.diff(d)
        self.rows = max(1, _BLOCK_CELLS // r)
        self.buf = np.empty((2, min(self.rows, r + 1), r))
        # the band of columns each row block masks, laid out as np.where
        # would return it
        self.masked = np.empty(self.buf.size)
        self.columns = np.arange(r)

    def _block(self, i, origin, tau, out):
        # writes into the rows of ``out``: g at d[origin] + tau, its slopes
        # from the poles left and right of each root (the linear term acts as
        # a pole at -inf, on the left), and a bound on the rounding error of g
        d, zeta2 = self.d, self.zeta2
        both = self.buf[:, : tau.size]
        square, rec = both
        d_origin = d[origin]
        np.subtract(d, d_origin[:, None], out=rec)
        rec -= tau[:, None]  # d_k - lambda, exactly -tau at k == origin
        np.divide(1.0, rec, out=rec)
        np.square(rec, out=square)
        # row j's left poles are the columns k < i[j]; the rows are sorted,
        # so only the columns between the first and the last row's split
        # need a mask
        c0, c1 = i[0], i[-1]
        band, zb = both[..., c0:c1], zeta2[c0:c1]
        masked = self.masked[: band.size].reshape(band.shape)
        masked.fill(0.0)
        np.copyto(masked, band, where=self.columns[c0:c1] < i[:, None])
        mixed = masked @ zb
        g, slope_l, slope_r, err = out
        # psi and phi, the sums over the left and right poles, go to the
        # rows of g and err until those are formed
        np.add(both[..., :c0] @ zeta2[:c0], mixed, out=out[1::-1])
        np.subtract(band @ zb, mixed, out=mixed)
        np.add(both[..., c1:] @ zeta2[c1:], mixed, out=out[2:])
        psi, phi = g, err
        lin = d_origin - self.a if self.linear else 0.0
        if self.linear:
            lin += tau
            slope_l += 1.0
        bound = phi - psi
        bound += np.abs(lin)
        bound *= 8.0
        np.add(lin, psi, out=g)
        g += phi
        slopes = slope_l + slope_r
        slopes *= np.abs(tau)
        np.add(bound, slopes, out=err)
        return out

    def evaluate(self, i, origin, tau):
        # _block over the rows of roots i at d[origin] + tau, in row blocks
        out = np.empty((4, i.size))
        for s in range(0, i.size, self.rows):
            e = s + self.rows
            self._block(i[s:e], origin[s:e], tau[s:e], out[:, s:e])
        return out

    def _frame(self, i, origin, frame):
        # What the first sweep fixes for each root, with its origin: whether
        # that is the interval's left pole, returned, and the rows of
        # ``frame``: the interval's width signed toward the far pole, and
        # the offsets of its left and right poles from the origin. An outer
        # root's rows are not used.
        at_left = origin == i - 1
        gap = self.gap[i]
        frame[0] = np.where(at_left, gap, -gap)
        frame[1] = np.where(at_left, 0.0, frame[0])
        frame[2] = np.where(at_left, gap, 0.0)
        return at_left

    def step(self, i, at_left, frame, t, lo, hi, out):
        # Interior roots take the middle way: a model with one pole at each
        # end of the interval, weighted to match g and g' at the current
        # point. The outer roots keep the linear term exact and lump all
        # poles into the one next to them. The new offset is solved for in
        # the origin's frame, so a root close to its pole keeps its digits.
        # ``out`` holds evaluate's rows at the offsets t.
        g, slopes = out[0], out[1:3]
        span = frame[0]
        dist = frame[1:] - t  # dl and dr, from the root to its interval's poles
        coef = np.empty((3, t.size))
        qc, qb, qa = coef
        prod = dist * slopes
        np.subtract(g, prod[0], out=qa)
        qa -= prod[1]  # c = g - dl slope_l - dr slope_r
        dist *= dist
        dist *= slopes  # s_l and s_r
        np.multiply(qa, span, out=qb)
        qb += dist[0]
        qb += dist[1]
        np.multiply(np.where(at_left, dist[0], dist[1]), span, out=qc)
        # the outer roots, first and last among the rows when present
        if i[0] == 0:
            self._outer(coef, 0, t, g, slopes[1, 0])
        if i[-1] == self.d.size:
            self._outer(coef, -1, t, g, slopes[0, -1] - 1.0)
        return _pick_root(coef, lo, hi)

    @staticmethod
    def _outer(coef, j, t, g, slope):
        # qc, qb, qa of the outer root in row j, whose poles act as one at
        # its origin with the weight ``slope t^2``
        tj = t[j]
        coef[:, j] = -tj * tj * slope, tj - g[j] - tj * slope, 1.0

    def _warm(self, start, origin, offsets, lo, hi):
        # The pre-pass from the ascending ``start``. A root starts at a point
        # of it where its interval holds exactly one, strictly inside (the
        # outer roots' inside Weyl's bracket) and not within rounding of its
        # origin, the pole on the point's side of the midpoint: both callers
        # scale the entries below 1, so that is 4 eps of 1 or of the largest
        # point. Its bracket is that half, or Weyl's bracket. The started
        # roots are evaluated in one sweep; those the convergence test
        # accepts, or whose step is at most _START_STEP of the offset and
        # stays in the half (else it is NaN), take that step and are done.
        # Their origins and offsets are written, and their indices returned.
        d, r = self.d, self.d.size
        first = np.append(0, np.searchsorted(start, d, side="right"))
        end = np.append(np.searchsorted(start, d, side="left"), start.size)
        k = np.flatnonzero(end - first == 1)
        point = start[first[k]]
        o = origin[k]
        t = point - d[o]
        use = (t > lo[k]) & ((k < r) | (t < hi[k]))
        flip = (k > 0) & (k < r) & (t > hi[k])
        o[flip] = k[flip]
        t[flip] = point[flip] - d[k[flip]]
        use &= np.abs(t) > 4.0 * _EPS * max(1.0, -start[0], start[-1])
        k, o, t, flip = k[use], o[use], t[use], flip[use]
        if not k.size:
            return k
        lo, hi = lo[k], hi[k]
        lo[flip], hi[flip] = -hi[flip], 0.0
        out = self.evaluate(k, o, t)
        frame = np.empty((3, k.size))
        new = self.step(k, self._frame(k, o, frame), frame, t, lo, hi, out)
        done = np.abs(out[0]) <= _EPS * out[3]
        done |= np.abs(new - t) <= _START_STEP * np.abs(new)
        k = k[done]
        origin[k] = o[done]
        offsets[k] = np.where(np.isnan(new), t, new)[done]
        return k

    def _cold(self, i, origin, offsets, lo, hi):
        # The roots ``i`` from their intervals' midpoints: g there tells
        # which half holds each root, and so its nearer pole. Their origins
        # and offsets are written.
        r = self.d.size
        tau = 0.5 * (lo + hi)
        tau[1:r] = hi[1:r]
        # From here on each root is a column: of ``ints``, its index and
        # origin; of ``state``, its offset, bracket, the relative size of
        # its last step and, once the first sweep has fixed its origin, its
        # _frame rows.
        ints = np.stack((i, origin[i]))
        state = np.empty((7, i.size))
        state[0], state[1], state[2] = tau[i], lo[i], hi[i]
        o, (tau, lo, hi, last), frame = ints[1], state[:4], state[4:]
        out = self.evaluate(i, o, tau)
        g, err = out[0], out[3]
        inner = (i > 0) & (i < r)
        # an inner root right of its midpoint takes the right pole for its
        # origin, and the midpoint for its offset
        right = inner & (g < 0)
        o[right] = i[right]
        lo[right], hi[right] = -hi[right], 0.0
        tau[right] = lo[right]
        above, below = ~inner & (g > 0), ~inner & (g < 0)
        hi[above] = tau[above]
        lo[below] = tau[below]
        at_left = self._frame(i, o, frame)
        new = self.step(i, at_left, frame, tau, lo, hi, out)
        # a root within rounding of its midpoint (as the middle level of a
        # symmetric spectrum is) has converged: model steps from inside its
        # half land just beyond the midpoint, and bisection took ~28 sweeps
        # to close the bracket
        done = np.abs(g) <= _EPS * err
        new = np.where(np.isnan(new), np.where(done, tau, 0.5 * (lo + hi)), new)
        np.divide(np.abs(new - tau), np.abs(new), out=last)  # relative size of each root's last step
        tau[...] = new
        origin[i], offsets[i] = o, new
        # only the roots not done stay in the columns
        keep = ~done
        ints, state, at_left = ints.compress(keep, 1), state.compress(keep, 1), at_left[keep]
        for _ in range(_MAX_ITER):
            if not ints.shape[1]:
                break
            i, o = ints
            t, lo, hi, last = state[:4]
            frame = state[4:]
            out = self.evaluate(i, o, t)
            g, err = out[0], out[3]
            above = g > 0
            np.copyto(hi, t, where=above)
            np.copyto(lo, t, where=~above)
            new = self.step(i, at_left, frame, t, lo, hi, out)
            # a converged root still takes the step its last evaluation
            # offers, if that stays in the bracket; the others bisect
            # where the step leaves it
            done = np.abs(g) <= _EPS * err
            done |= hi - lo <= 2.0 * _EPS * np.maximum(-lo, hi)
            bisect = np.isnan(new)
            bisected = np.count_nonzero(bisect)
            if bisected:
                new = np.where(bisect, np.where(done, t, 0.5 * (lo + hi)), new)
            # the step converges quadratically: after steps of relative size
            # last and rho, the error left is near rho^3 / last^2, and a
            # root whose error that puts below eps / 8 needs no further
            # sweep. A bisection tells nothing of the error left.
            rho = np.abs(new - t) / np.abs(new)
            small = (rho <= 1e-6) & (rho**3 <= 0.125 * _EPS * last**2)
            if bisected:
                small &= ~bisect
            done |= small
            np.copyto(t, new)
            np.copyto(last, rho)
            offsets[i] = new
            if np.count_nonzero(done):
                keep = ~done
                ints, state, at_left = ints.compress(keep, 1), state.compress(keep, 1), at_left[keep]
        if ints.shape[1]:
            raise NonConvergence(
                f"eigensolver did not converge: {ints.shape[1]} secular roots "
                f"after {_MAX_ITER} iterations"
            )

    def solve(self, start=None):
        """Nearer poles and offsets of the roots ``self.index``, in order.

        With ``start``, a pre-pass (``_warm``) evaluates the roots at their
        usable points of the ascending ``start``, in one sweep, and ends
        those whose start it accepts. Every other root starts at its
        interval's midpoint, exactly as without ``start``, and goes on in
        sweeps over compacted columns of the roots still active (``_cold``).
        """
        a, d, zeta2 = self.a, self.d, self.zeta2
        r = d.size
        origin = np.maximum(np.arange(r + 1) - 1, 0)
        offsets = np.empty(r + 1)
        lo, hi = np.zeros(r + 1), 0.5 * self.gap
        if self.linear:
            # Weyl's bounds place the outer roots within |zeta| of the diagonal
            znorm = np.sqrt(zeta2.sum())
            lo[0] = (min(a - d[0], 0.0) - znorm) * (1.0 + 4.0 * _EPS)
            hi[r] = (max(a - d[-1], 0.0) + znorm) * (1.0 + 4.0 * _EPS)
        i = self.index
        if start is not None:
            i = np.setdiff1d(i, self._warm(start, origin, offsets, lo, hi), assume_unique=True)
        if i.size:
            self._cold(i, origin, offsets, lo, hi)
        return origin[self.index], offsets[self.index]


def _lowner(diff, d, k, ratio):
    # Löwner's formula
    #   zhat_k^2 = -(lambda_k - d_k)(lambda_r - d_k) prod_{i != k, i < r}
    #              (lambda_i - d_k) / (d_i - d_k)
    # for the poles d[k], from diff[j, i] = lambda_i - d[k_j] over the r + 1
    # roots lambda of the r poles d: the couplings for which those roots
    # are exact. ``ratio`` is a work array shaped like diff[:, :r].
    r = d.size
    np.subtract(d, d[k][:, None], out=ratio)
    ratio[np.arange(k.size), k] = -1.0 / diff[:, r]
    np.divide(diff[:, :r], ratio, out=ratio)
    return np.sqrt(np.prod(ratio, axis=1))


def _lowner_vectors(d, origin, tau, rank, out=None):
    # Row k of ``out`` gets zhat_k / (lambda_i - d[rank_k]), where
    # lambda = d[origin] + tau and zhat comes from Löwner's formula, so the
    # vectors come out orthogonal. Returns the column norms of [1; out].
    # Without ``out`` each row block goes to one scratch block of the same
    # layout, so the norms are the same to the bit and no rows are kept.
    r = d.size
    d_origin = d[origin]
    norm2 = np.ones(r + 1)
    rows = max(1, _BLOCK_CELLS // r)
    ratio = np.empty((min(rows, r), r))
    scratch = np.empty((min(rows, r), r + 1)) if out is None else None
    for s in range(0, r, rows):
        k = rank[s : s + rows]
        diff = scratch[: k.size] if out is None else out[s : s + k.size]
        np.subtract(d_origin, d[k][:, None], out=diff)
        diff += tau  # lambda_i - d_k, exactly tau_i where origin[i] == k
        zhat = _lowner(diff, d, k, ratio[: k.size])
        np.divide(zhat[:, None], diff, out=diff)
        norm2 += np.einsum("ij,ij->j", diff, diff)
    return np.sqrt(norm2)


def _arrowhead_from_spectrum(lam: np.ndarray, w: np.ndarray):
    # mode energies p and couplings z >= 0 of the arrowhead whose
    # eigenvalues are the strictly increasing lam and whose eigenvectors
    # have squared first components w (summing to one). The p are the
    # roots of sum_m w_m / (lam_m - x), interlaced with lam; the z follow
    # from Löwner's formula with the roles swapped (lam the roots, p the
    # poles), evaluated on the rounded p, so the arrowhead that is returned
    # has eigenvalues lam to working precision. lam is scaled by a power
    # of two, so the largest |lam| lies in [1/2, 1), and scaled back.
    e = int(np.frexp(np.abs(lam).max())[1])
    lam = np.ldexp(lam, -e)
    origin, tau = _Secular(0.0, lam, w, linear=False).solve()
    p = lam[origin] + tau
    r = p.size
    z = np.empty(r)
    rows = max(1, _BLOCK_CELLS // (r + 1))
    diff, ratio = np.empty((min(rows, r), r + 1)), np.empty((min(rows, r), r))
    # a root rounded onto lam[-1] gives -1/0 in Löwner's formula, and
    # coupling 0, which is exact for it
    with np.errstate(divide="ignore"):
        for s in range(0, r, rows):
            k = np.arange(s, min(s + rows, r))
            blk = diff[: k.size]
            np.subtract(lam, p[k][:, None], out=blk)
            z[s : s + k.size] = _lowner(blk, p, k, ratio[: k.size])
    return np.ldexp(p, e), np.ldexp(z, e)


def _pole_groups(sorted_poles: np.ndarray, tol: float) -> np.ndarray:
    # starts of the runs in which every pole lies within tol of the run's
    # first one
    if not np.any(np.diff(sorted_poles) <= tol):
        return np.arange(sorted_poles.size)
    starts, anchor = [0], sorted_poles[0]
    for j, x in enumerate(sorted_poles.tolist()):
        if x - anchor > tol:
            starts.append(j)
            anchor = x
    return np.array(starts)


def _arrowhead_eigh(a: float, p: np.ndarray, z: np.ndarray, start=None, vectors: bool = True):
    # ascending eigenvalues, their weights (the squared first components of
    # the eigenvectors) and, with ``vectors``, the real orthonormal
    # eigenvectors of the arrowhead [[a, z^T], [z, diag(p)]] with z >= 0,
    # else None: then no n x n array is formed. The secular roots start at
    # the ascending ``start`` where _Secular can use it.
    m = p.size
    n = m + 1
    top = max(abs(a), np.abs(p).max(initial=0.0), z.max(initial=0.0))
    if top == 0.0:
        weights = np.zeros(n)
        weights[0] = 1.0
        return np.zeros(n), weights, np.eye(n) if vectors else None
    # an exact power-of-two scale puts the largest entry in [1/2, 1): no
    # z_k^2 overflows, and none above the deflation threshold underflows
    e = int(np.frexp(top)[1])
    a, p, z = float(np.ldexp(a, -e)), np.ldexp(p, -e), np.ldexp(z, -e)
    tol = _DEFLATION * _EPS * (max(abs(a), np.abs(p).max(initial=0.0)) + np.sqrt(z @ z))
    bright = np.flatnonzero(z > tol)
    bright = bright[np.argsort(p[bright], kind="stable")]
    starts = _pole_groups(p[bright], tol)
    ends = np.append(starts[1:], bright.size)
    r = starts.size
    reps = bright[starts]
    d, zeta = p[reps], z[reps]
    # one Householder reflection per group of equal poles turns its
    # couplings into one bright direction u, of coupling |z| over the
    # group, and size - 1 dark ones; |z| is scaled by the largest coupling,
    # which makes it exact for equal couplings
    groups = []
    for j in np.flatnonzero(ends - starts > 1):
        members = bright[starts[j] : ends[j]]
        big = z[members].max()
        zeta[j] = big * np.sqrt(np.sum((z[members] / big) ** 2))
        groups.append((members, z[members] / zeta[j]))
    vals, head, block = np.full(1, a), np.ones(1), np.ones((1, 1))
    if r:
        scaled_start = None
        if start is not None:
            # a start beyond the float range becomes inf, which no root uses
            with np.errstate(over="ignore"):
                scaled_start = np.ldexp(start, -e)
        origin, tau = _Secular(a, d, zeta * zeta).solve(scaled_start)
        vals = d[origin] + tau
        # rows in mode order, so that with nothing deflated they are final
        by_mode = np.argsort(reps)
        block = np.empty((r + 1, r + 1)) if vectors else None
        norms = _lowner_vectors(d, origin, tau, by_mode, None if block is None else block[1:])
        head = 1.0 / norms
        if vectors:
            block[0] = 1.0
            block /= norms
        if r == m:
            return np.ldexp(vals, e), head**2, block
        reps = reps[by_mode]
    lone = np.flatnonzero(z <= tol)
    dark_vals = [np.full(members.size - 1, p[members[0]]) for members, _ in groups]
    all_vals = np.concatenate([vals, *dark_vals, p[lone]])
    order = np.argsort(all_vals, kind="stable")
    col = np.empty(n, dtype=int)
    col[order] = np.arange(n)
    bright_cols = col[: r + 1]
    weights = np.zeros(n)
    weights[bright_cols] = head**2
    if not vectors:
        return np.ldexp(all_vals[order], e), weights, None
    v = np.zeros((n, n))
    v[np.ix_(np.append(0, 1 + reps), bright_cols)] = block
    c = r + 1
    for members, u in groups:
        # the group's share of each bright vector, then its dark vectors
        # H e_j (j >= 1) of H = I - w w^T / (1 + u_0), w = u + e_0
        v[np.ix_(1 + members, bright_cols)] = np.outer(u, v[1 + members[0], bright_cols])
        w = u.copy()
        w[0] += 1.0
        h = np.outer(w, u[1:] / -w[0])
        k = np.arange(members.size - 1)
        h[k + 1, k] += 1.0
        v[np.ix_(1 + members, col[c : c + members.size - 1])] = h
        c += members.size - 1
    v[1 + lone, col[c:]] = 1.0
    return np.ldexp(all_vals[order], e), weights, v


def _eigh_star(diagonal: np.ndarray, c: np.ndarray) -> SpectralDecomposition:
    # the star with real diagonal `diagonal` and couplings c in column 0:
    # D^H H D with D = diag(1, c/|c|) is the real arrowhead with couplings
    # |c|. When every c is already real and non-negative, D = I and the
    # real eigenvectors are returned as they are, with no complex copy.
    # D leaves row 0 alone, so the weights are the arrowhead's.
    mod = np.abs(c)
    eigenvalues, weights, eigenvectors = _arrowhead_eigh(diagonal[0], diagonal[1:], mod)
    if not np.array_equal(c, mod):
        coupled = mod > 0
        phase = np.ones(diagonal.size, dtype=complex)
        phase[1:][coupled] = c[coupled] / mod[coupled]
        eigenvectors = phase[:, None] * eigenvectors
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        zero_overlaps=weights,
    )


def _star_levels(model: StarModel, start=None):
    # eigh(model).eigenvalues and .zero_overlaps without the eigenvectors:
    # O(n) memory beyond the row blocks. The secular roots start at the
    # ascending ``start`` where they can (see _Secular._warm); without it,
    # or when no start is accepted, both arrays are eigh's to the bit.
    eigenvalues, weights, _ = _arrowhead_eigh(
        model.eps[0], model.eps[1:], np.abs(model.alpha), start, vectors=False
    )
    return eigenvalues, weights


def _is_star(m: np.ndarray) -> bool:
    # np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:]) for
    # a square complex m. When the nonzero 64-bit words of all of m are those
    # of its arrow and diagonal, every other entry is +0.0 and m is a star.
    # Integer words are counted faster than complex entries, and only the
    # complex count tells -0.0 from a nonzero entry, so that count decides
    # whenever the words leave it open, and when m is not C-contiguous.
    if m.flags.c_contiguous:
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
    from Löwner's formula, all in O(n^2) time (see the module docstring).
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
        cached overlap weights of basis state 0. The eigenvectors of a
        star whose couplings are all real and non-negative are real.
        Deterministic for identical input.

    Raises
    ------
    ValueError
        If the matrix is not square, finite and Hermitian.
    NonConvergence
        If the underlying iteration fails to converge: the secular root
        finder within ``_MAX_ITER`` steps, or LAPACK.
    """
    if isinstance(mat, StarModel):
        return _eigh_star(mat.eps, mat.alpha)
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
        return _eigh_star(m.diagonal().real, m[1:, 0])
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
