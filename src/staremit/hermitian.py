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
   knows where the roots should be, and starts each root at its target
   level instead where exactly one lies strictly inside its interval. The
   same convergence test accepts a start, and a root whose ``g`` there
   leaves its half open is evaluated at its midpoint too.
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


def _pick_root(qa, qb, qc, lo, hi):
    # the root of qa x^2 - qb x + qc = 0 that lies inside (lo, hi), NaN
    # where neither does
    disc = np.sqrt(np.abs(qb * qb - 4.0 * qa * qc))
    q = 0.5 * (qb + np.copysign(disc, qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        small, large = qc / q, q / qa
    x = np.where((large > lo) & (large < hi), large, np.nan)
    return np.where((small > lo) & (small < hi), small, x)


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

    def _block(self, i, origin, tau):
        # g at d[origin] + tau, its slope from the poles left and right of
        # each root (the linear term acts as a pole at -inf, on the left),
        # and a bound on the rounding error of g
        d, zeta2 = self.d, self.zeta2
        both = self.buf[:, : tau.size]
        square, rec = both
        np.subtract(d, d[origin][:, None], out=rec)
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
        np.copyto(masked, band, where=np.arange(c0, c1) < i[:, None])
        mixed = masked @ zb
        slope_l, psi = both[..., :c0] @ zeta2[:c0] + mixed
        slope_r, phi = both[..., c1:] @ zeta2[c1:] + (band @ zb - mixed)
        lin = (d[origin] - self.a) + tau if self.linear else 0.0
        g = lin + psi + phi
        if self.linear:
            slope_l += 1.0
        err = 8.0 * (phi - psi + np.abs(lin)) + np.abs(tau) * (slope_l + slope_r)
        return g, slope_l, slope_r, err

    def evaluate(self, act, origin, tau):
        out = np.empty((4, act.size))
        for s in range(0, act.size, self.rows):
            blk = act[s : s + self.rows]
            out[:, s : s + blk.size] = self._block(blk, origin[blk], tau[blk])
        return out

    def step(self, act, origin, tau, lo, hi, g, slope_l, slope_r):
        # Interior roots take the middle way: a model with one pole at each
        # end of the interval, weighted to match g and g' at the current
        # point. The outer roots keep the linear term exact and lump all
        # poles into the one next to them. The new offset is solved for in
        # the origin's frame, so a root close to its pole keeps its digits.
        i, t = act, tau[act]
        gap = self.gap[i]
        at_left = origin[act] == i - 1
        dl = np.where(at_left, -t, -gap - t)
        dr = np.where(at_left, gap - t, -t)
        s_l, s_r = dl * dl * slope_l, dr * dr * slope_r
        c = g - dl * slope_l - dr * slope_r
        span = np.where(at_left, gap, -gap)
        qa, qb, qc = c, c * span + s_l + s_r, np.where(at_left, s_l, s_r) * span
        outer = (i == 0) | (i == self.d.size)
        if outer.any():
            slope = np.where(i == 0, slope_r, slope_l - 1.0)
            qa = np.where(outer, 1.0, qa)
            qb = np.where(outer, t - g - t * slope, qb)
            qc = np.where(outer, -t * t * slope, qc)
        return _pick_root(qa, qb, qc, lo[act], hi[act])

    def _starts(self, start, origin, tau, lo, hi):
        # Roots that start at a point of the ascending ``start`` instead of
        # their interval's midpoint: those whose interval holds exactly one
        # point, strictly inside, with the outer roots' points inside
        # Weyl's bracket. The origin becomes the pole on the point's side
        # of the midpoint. A point within rounding of that pole is not used:
        # both callers scale the entries below 1, so that is 4 eps of 1 or
        # of the largest point.
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
        right = k[flip]
        lo[right], hi[right] = -hi[right], 0.0
        origin[k], tau[k] = o, t
        return k

    def solve(self, start=None):
        """Nearer poles and offsets of the roots ``self.index``, in order.

        Each root starts at its interval's midpoint, or at a point of the
        ascending ``start`` where ``_starts`` finds one usable. A started
        root whose ``g`` leaves it possibly across the midpoint is
        evaluated at the midpoint too, which decides its half, so every
        root is kept as an offset from its nearer pole.
        """
        a, d, zeta2 = self.a, self.d, self.zeta2
        r = d.size
        i = self.index
        origin = np.maximum(np.arange(r + 1) - 1, 0)
        lo, hi = np.zeros(r + 1), 0.5 * self.gap
        if self.linear:
            # Weyl's bounds place the outer roots within |zeta| of the diagonal
            znorm = np.sqrt(zeta2.sum())
            lo[0] = (min(a - d[0], 0.0) - znorm) * (1.0 + 4.0 * _EPS)
            hi[r] = (max(a - d[-1], 0.0) + znorm) * (1.0 + 4.0 * _EPS)
        tau = 0.5 * (lo + hi)
        tau[1:r] = hi[1:r]
        warm = np.zeros(i.size, dtype=bool)
        if start is not None:
            warm[self._starts(start, origin, tau, lo, hi) - i[0]] = True
        # g at each interval's midpoint tells which half holds the root,
        # and so its nearer pole; the started roots are evaluated at their
        # starts in the same sweep
        out = self.evaluate(i, origin, tau)
        g, slope_l, slope_r, err = out
        inner = (i > 0) & (i < r)
        if warm.any():
            # g at a start tells which side of it holds the root. For an
            # inner root whose g is not within rounding, that side may reach
            # across the midpoint, and g there decides: a root on its
            # start's side steps from the start; any other goes on from the
            # midpoint, as without a start.
            at_left = origin[i] == i - 1
            across = warm & inner & np.where(at_left, g < 0, g > 0) & ~(np.abs(g) <= _EPS * err)
            if across.any():
                back = i[across]
                o_mid, t_mid = origin.copy(), tau.copy()
                o_mid[back], t_mid[back] = back - 1, 0.5 * self.gap[back]
                at_mid = self.evaluate(back, o_mid, t_mid)
                other = np.where(at_left[across], at_mid[0] <= 0, at_mid[0] >= 0)
                moved = back[other]
                origin[moved], tau[moved] = moved - 1, t_mid[moved]
                lo[moved], hi[moved] = 0.0, t_mid[moved]
                pos = np.flatnonzero(across)[other]
                out[:, pos] = at_mid[:, other]
                warm[pos] = False
        # a started root keeps its half (or Weyl's bracket) as its bracket:
        # one within an ulp of its start would have the start for an end,
        # and a step that rounds past it would bisect
        mid = inner & ~warm
        right = i[mid & (g < 0)]
        origin[right] = right
        lo[right], hi[right] = -hi[right], 0.0
        tau[right] = lo[right]
        outer = ~inner & ~warm
        above, below = i[outer & (g > 0)], i[outer & (g < 0)]
        hi[above] = tau[above]
        lo[below] = tau[below]
        new = self.step(i, origin, tau, lo, hi, g, slope_l, slope_r)
        # a root within rounding of its start (as the middle level of a
        # symmetric spectrum is of its midpoint) has converged: model steps
        # from inside its half land just beyond the midpoint, and bisection
        # took ~28 sweeps to close the bracket
        done = np.abs(g) <= _EPS * err
        new = np.where(np.isnan(new), np.where(done, tau[i], 0.5 * (lo[i] + hi[i])), new)
        last = np.zeros(r + 1)
        last[i] = np.abs(new - tau[i]) / np.abs(new)  # relative size of each root's last step
        tau[i] = new
        act = i[~done]
        for _ in range(_MAX_ITER):
            if act.size == 0:
                break
            g, slope_l, slope_r, err = self.evaluate(act, origin, tau)
            t = tau[act]
            above = g > 0
            hi[act] = np.where(above, t, hi[act])
            lo[act] = np.where(above, lo[act], t)
            new = self.step(act, origin, tau, lo, hi, g, slope_l, slope_r)
            # a converged root still takes the step its last evaluation
            # offers, if that stays in the bracket; the others bisect
            # where the step leaves it
            done = np.abs(g) <= _EPS * err
            done |= hi[act] - lo[act] <= 2.0 * _EPS * np.maximum(-lo[act], hi[act])
            stepped = ~np.isnan(new)
            new = np.where(stepped, new, np.where(done, t, 0.5 * (lo[act] + hi[act])))
            tau[act] = new
            # the step converges quadratically: after steps of relative size
            # last and rho, the error left is near rho^3 / last^2, and a
            # root whose error that puts below eps / 8 needs no further
            # sweep. A bisection tells nothing of the error left.
            rho = np.abs(new - t) / np.abs(new)
            done |= stepped & (rho <= 1e-6) & (rho**3 <= 0.125 * _EPS * last[act] ** 2)
            last[act] = rho
            act = act[~done]
        if act.size:
            raise NonConvergence(
                f"eigensolver did not converge: {act.size} secular roots "
                f"after {_MAX_ITER} iterations"
            )
        return origin[i], tau[i]


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
    # ascending ``start`` where they can (see _Secular.solve); without it
    # both arrays are eigh's to the bit.
    eigenvalues, weights, _ = _arrowhead_eigh(
        model.eps[0], model.eps[1:], np.abs(model.alpha), start, vectors=False
    )
    return eigenvalues, weights


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
    star = np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:])
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
