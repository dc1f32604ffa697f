"""The arrowhead solver behind :mod:`staremit.hermitian` and :mod:`staremit.inverse`.

A star's coupling phases are a per-mode gauge: :func:`solve_star` takes
them off with a diagonal unitary, which leaves the real arrowhead
``[[a, z^T], [z, diag(p)]]`` with ``z >= 0``. Its eigenvalues are the
roots of the secular equation ``g(E) = E - a - sum_k z_k^2 / (E - p_k)``,
found in O(n^2) time (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995;
Jakovčević Stor, Slapničar & Barlow, Linear Algebra Appl. 464, 2015):

1. Scale by one power of two, so the largest entry lies in [1/2, 1), and
   deflate. A star's diagonal and the real and imaginary parts of its
   couplings are scaled before the couplings' moduli are taken, so that
   none loses digits to the subnormal range; every modulus is then below
   sqrt(2), so no squared coupling overflows and none above the deflation
   threshold underflows. A coupling at or below ``8 eps ||H||``
   leaves its mode as a dark eigenvector; poles within that distance of a
   group's first pole are rotated by one Householder reflection into one
   bright mode and dark modes.
2. Find each root of ``g`` in its interval between poles, kept as its
   nearer pole plus an offset, so every distance ``E - p_k`` has full
   relative accuracy. Each root starts at its interval's midpoint (an
   outer root, beyond an outer pole, at the middle of Weyl's bracket),
   where the sign of ``g`` tells which half, and so which pole, is its
   own; an outer root halves its bracket there. A bracketed rational step
   with one pole at each end of the interval (the middle way) updates only
   the roots that have not converged, in sweeps over row blocks that keep
   temporaries at O(block n).

   Round-trip verification knows where the roots should be, and a
   pre-pass starts them there. In one sweep it evaluates each root at its
   target level, where exactly one target lies strictly inside the root's
   interval (an outer root's inside Weyl's bracket) and not within
   rounding of a pole; the root's origin is then the pole on the target's
   side of the midpoint, and its bracket that half. The root is done at
   its start, and takes the step from it, when the convergence test
   ``|g| <= eps err`` accepts the start, or when that step is at most
   1e-10 of its offset and stays in the half. The step converges
   quadratically, so the error it leaves is of order 1e-20 of the offset,
   far below the offset's own rounding. A faithful model's targets are
   off by their own rounding only, at the spacing of the largest level,
   far below 1e-10 of their offsets, so it is verified in one evaluation
   per root, centred or not; its eigenvalue errors read the step plus the
   rounding of pole plus offset, often exactly 0 and within a few ulps of
   the level. Any other root restarts from its midpoint, exactly as
   :func:`~staremit.hermitian.eigh` solves it: far off the centre (eps0 =
   1e6 with d = 1e-3), where a target's rounding is a larger share of its
   offset, within a few thousand ulps of a pole, or in a model whose
   levels miss their targets. When no start is accepted, the eigenvalues
   and weights are ``eigh``'s to the bit. When every start is accepted,
   the weights are ``1/g'`` at the roots (Boley & Golub, Inverse Problems
   3, 1987), from the slopes that one sweep summed. Each slope is moved
   from the start to the root by the curvature ``g''``, which the sweep
   sums too, and what that first-order move leaves is of second order in
   the step: below 1e-20 of ``g'`` for a step of at most 1e-10 of the
   offset.
   Taken at the start, the weights were off by up to 1e-12 relative
   where a target's rounding is a larger share of its offset (eps0 =
   -1e-3 with d = 1e-5, against a 40-digit reference). Nothing else
   needs step 3, so it is skipped.
3. Recompute the couplings from the roots by Löwner's formula, so the
   computed roots are exact eigenvalues of a nearby arrowhead (Gu &
   Eisenstat), and take the eigenvectors ``[1, zhat_k / (E - p_k)]``,
   normalized: they come out orthogonal to working precision. The solve
   keeps the column norms, whose inverses give the weights, and ``zhat``;
   a solve that took its weights from the slopes runs this pass on the
   first use of its eigenvectors, from the roots it kept. The eigenvectors
   are built from these and the roots on their first read, from the same
   ``E - p_k`` rows, which one generator (``_root_rows``) forms for both
   passes. From the same state and rows, ``_StarBasis.propagate`` applies
   ``V diag(phases) V^H`` to a state with no eigenvector matrix: the
   bright coordinates are a Cauchy sum over the modes and their image one
   over the levels, and a Householder group's dark vectors act through its
   reflection.
4. Merge the dark and bright eigenpairs in ascending order.

Costs. The O(n^2) work is the row blocks of steps 2 and 3: about 2^15
entries each, whose pole sums are BLAS products. Every row block lives in
one workspace per thread (``_scratch``) of 4 blocks, 1 MiB, the most one
pass holds at once (a sweep's block and its band mask); it is allocated on
the thread's first solve and held after it. The passes (the sweeps, the
Löwner pass, the inverse direction's coupling pass, the vector build and
propagation) run one after another, each taking its blocks from the
workspace's start, and no array handed to a caller is a view of it. So a
steady run of solves maps no fresh pages: with glibc's mmap threshold at
256 KiB, where each pass's blocks were a fresh mapping, an ``inverse``
round of the benchmark took 3,200 to 4,200 minor page faults. A pass whose
blocks do not fit, which only rows longer than the block (beyond 2^15
poles) make, allocates its own arrays. Each thread has its own workspace,
so threads solve at once with the bits of a serial run. Step 3 is one row
pass, about as costly as a sweep of step 2: a round-trip verification
whose every start is accepted takes the pre-pass sweep (one more product a
block, for the curvature) and no step 3, and at M = 250 (dim 501) it went
from 3.1 to 1.9 ms (2 vCPUs, numpy 2.4). Rows from 128 entries up to
numpy's buffer size (8192 by default) run in numpy buffers of one row
(``_RowBuffers``), so the broadcast differences that fill a block cost
what contiguous ones do. Each sweep also pays a fixed cost of about 80
numpy calls on arrays of one entry per active root, which is most of a
solve below a few dozen levels: a dim-19 star takes about 7 times as long
as LAPACK on its dense matrix (0.88 against 0.12 ms, 2 vCPUs, numpy 2.4).
Reading a star's eigenvectors costs one more row pass of step 3; until
then its decomposition takes O(n) memory. Propagating a state never reads
them: it takes two row passes (one for a state that is zero on every mode,
as the emitter start is), each block a reciprocal and a real product with
the state's (re, im) pairs, and holds one row block of the workspace
beside arrays of one entry per level. The eigenvectors are a star's only
n x n array: 8 bytes a cell when every coupling is real and non-negative,
else 16, complex, built in the result's own memory and multiplied by their
phases a row block at a time. A dim whose arrays would exceed
``_EIGH_BUDGET`` (8 GiB) is refused, as a ``ValueError`` naming the dim
and before any n x n array exists: a star's eigenvectors, 8 or 16 bytes a
cell, at their first read, and LAPACK's, about 48 with its work arrays, in
:func:`~staremit.hermitian.eigh`.

The inverse direction, from eigenvalues ``lam`` and first-row weights
``w`` to an arrowhead, is the same secular equation with the roles of
roots and poles swapped. Its mode energies are the roots of
``sum_m w_m / (lam_m - x)``, found by the same root finder without the
linear term, and its couplings come from Löwner's formula with the roots
as poles. So one root finder serves both directions, and neither forms a
dense matrix.

Entry points: :func:`solve_star` (a star's eigenvalues, the ``_StarBasis``
that builds or applies its eigenvectors, and their weights),
:func:`arrowhead_from_spectrum` (the inverse direction) and
:func:`check_dim` (the dim budget).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import NonConvergence

_EPS = np.finfo(float).eps

# A star coupling at or below _DEFLATION * eps * ||H|| leaves its mode as a
# dark eigenvector, and mode energies that close merge into one bright mode.
_DEFLATION = 8.0

# Iteration cap of the secular root finder; reaching it raises NonConvergence.
_MAX_ITER = 50

# The largest step, as a fraction of its offset, with which the round-trip
# verification pre-pass accepts a secular root at its start (step 2 above).
_START_STEP = 1e-10

# Matrix entries per row block of the star solver's temporaries.
_BLOCK_CELLS = 1 << 15

# eigh refuses a dim whose eigenvector matrix and work arrays would exceed
# this many bytes, before it allocates them: 8 bytes a cell for a star with
# real non-negative couplings, 16 for another star (its complex
# eigenvectors) and 48 for LAPACK's complex solver (the eigenvectors and
# its two work arrays of about n^2 entries, one complex and one real pair).
_EIGH_BUDGET = 8 << 30

# Rows of at least this many entries are run in buffers of one row (_RowBuffers).
_ROW_BUFFERS = 128


class _Workspace(threading.local):
    # each thread's row-block scratch (_scratch), allocated on its first
    # use, and the last request that fitted in it with the arrays it got
    cells = shapes = arrays = None


_workspace = _Workspace()


def _scratch(*shapes):
    # Float arrays of ``shapes`` for the row blocks of one pass, laid out
    # one after another in this thread's workspace of 4 _BLOCK_CELLS
    # entries, the most one pass holds at once (a sweep's block and its band
    # mask). Passes run one after another, so each takes its arrays from the
    # start: a pass owns them only while it runs, and hands no caller a view
    # of them. Arrays that do not fit, which only rows longer than the block
    # make, are allocated fresh. Every entry a pass reads it has written
    # first, so what an earlier pass left, or one a NonConvergence cut
    # short, changes no bit. A request like the last one (each sweep of a
    # solve makes the same) gets the same arrays back without new views.
    ws = _workspace
    if shapes == ws.shapes:
        return ws.arrays
    if ws.cells is None:
        ws.cells = np.empty(4 * _BLOCK_CELLS)
    arrays, at = [], 0
    for shape in shapes:
        end = at + math.prod(shape)
        if end > ws.cells.size:
            return [np.empty(shape) for shape in shapes]
        arrays.append(ws.cells[at:end].reshape(shape))
        at = end
    ws.shapes, ws.arrays = shapes, arrays
    return arrays


def _root_block(r):
    # the shape of a row block of _root_rows over r poles
    return min(max(1, _BLOCK_CELLS // r), r), r + 1


class _RowBuffers:
    """Context in which numpy runs elementwise operations in buffers of one row.

    numpy applies an operation whose operands are broadcast across a row
    block in buffers of ``np.getbufsize()`` entries, 8192 by default, and a
    buffer that spans several rows copies the broadcast operands: on rows of
    200 to 4000 entries that made ``d - d_origin[:, None]`` 2-4 times as
    slow as its contiguous form. Buffers of at most one row use the operands
    in place. Below ``_ROW_BUFFERS`` entries a row, short buffers cost more
    than the copies, and a row at least ``np.getbufsize()`` long already
    holds a whole buffer: the buffer size in force stays. Buffers are only
    ever shrunk. Each entry is computed by the same operation either way.
    Reductions run inside too: their bits do not depend on the buffer size.
    """

    def __init__(self, row: int):
        self.size = row // 16 * 16 if _ROW_BUFFERS <= row < np.getbufsize() else 0

    def __enter__(self):
        if self.size:
            self.old = np.setbufsize(self.size)

    def __exit__(self, *exc):
        if self.size:
            np.setbufsize(self.old)


def _pick_root(coef, lo, hi):
    # the root of qa x^2 - qb x + qc = 0, for the rows qc, qb, qa of coef,
    # that lies inside (lo, hi), NaN where neither does; coef is overwritten.
    # A zero q or qa gives a quotient that is not inside.
    qc, qb, qa = coef[0], coef[1], coef[2]
    disc = qb * qb
    disc -= 4.0 * qa * qc
    np.sqrt(np.abs(disc, out=disc), out=disc)
    qb += np.copysign(disc, qb, out=disc)
    qb *= 0.5  # q, in place of qb
    with np.errstate(divide="ignore", invalid="ignore"):
        x = coef[:2] / coef[1:]  # qc / q and q / qa: the small and the large root
    inside = (x > lo) & (x < hi)
    root = x[1]
    np.copyto(root, np.nan, where=~inside[1])
    np.copyto(root, x[0], where=inside[0])
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
        self.gap = np.zeros(r + 1)
        np.subtract(d[1:], d[:-1], out=self.gap[1:r])
        self.rows = max(1, _BLOCK_CELLS // r)
        # the shape of a sweep's row block: 1 / (d_k - lambda) and its square
        self.block = (2, min(self.rows, r + 1), r)
        self.columns = np.arange(r)

    def _block(self, i, d_origin, tau, out, buf, masked):
        # the pole sums of the roots i at d_origin + tau, into the rows of
        # ``out``: over the poles left of each root, psi and its slope, and
        # over those right of it, its slope and phi; and, into a fifth row
        # when there is one, half the curvature over all the poles. ``buf``
        # is the row block, ``masked`` as large, for the band of columns the
        # block masks, laid out as np.where would return it
        d, zeta2 = self.d, self.zeta2
        both = buf[:, : tau.size]
        square, rec = both[0], both[1]
        np.subtract(d, d_origin[:, None], out=rec)
        rec -= tau[:, None]  # d_k - lambda, exactly -tau at k == origin
        np.divide(1.0, rec, out=rec)
        np.square(rec, out=square)
        # row j's left poles are the columns k < i[j]; the rows are sorted,
        # so only the columns between the first and the last row's split
        # need a mask
        c0, c1 = i[0], i[-1]
        band, zb = both[..., c0:c1], zeta2[c0:c1]
        masked = masked[: band.size].reshape(band.shape)
        masked.fill(0.0)
        np.copyto(masked, band, where=self.columns[c0:c1] < i[:, None])
        mixed = masked @ zb
        np.add(both[..., :c0] @ zeta2[:c0], mixed, out=out[1::-1])
        np.subtract(band @ zb, mixed, out=mixed)
        np.add(both[..., c1:] @ zeta2[c1:], mixed, out=out[2:4])
        if len(out) > 4:
            square *= rec
            np.matmul(square, zeta2, out=out[4])

    def evaluate(self, i, origin, tau, curvature=False):
        # The rows g at d[origin] + tau, its slopes from the poles left and
        # right of each root (the linear term acts as a pole at -inf, on the
        # left), and a bound on the rounding error of g: the pole sums in
        # row blocks, the rest elementwise over all the roots at once. With
        # ``curvature``, a fifth row holds g'' / 2.
        d_origin = self.d[origin]
        out = np.empty((5 if curvature else 4, i.size))
        buf, masked = _scratch(self.block, (math.prod(self.block),))
        for s in range(0, i.size, self.rows):
            e = s + self.rows
            self._block(i[s:e], d_origin[s:e], tau[s:e], out[:, s:e], buf, masked)
        # psi and phi, the sums over the left and right poles, sit in the
        # rows of g and err until those are formed
        g, slope_l, slope_r, err = out[0], out[1], out[2], out[3]
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

    def _frame(self, i, right, frame):
        # The rows of ``frame`` that step reads, fixed once each root's
        # origin is: its interval's width signed toward the far pole, and
        # the offsets of the interval's left and right poles from the
        # origin, which is the right pole where ``right``. Returns whether
        # the origin is the left pole. An outer root's rows are not used.
        gap = self.gap[i]
        frame[0] = gap
        frame[1] = 0.0
        frame[2] = gap
        np.copyto(frame[:2], -gap, where=right)
        np.copyto(frame[2], 0.0, where=right)
        return ~right

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
        qc, qb, qa = coef[0], coef[1], coef[2]
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
        tj, slope = float(t[j]), float(slope)
        coef[0, j] = -tj * tj * slope
        coef[1, j] = tj - float(g[j]) - tj * slope
        coef[2, j] = 1.0

    def _warm(self, start, origin, offsets, slopes, bracket):
        # The pre-pass of step 2 above, from the ascending ``start``. The
        # poles are scaled below 1, so within rounding of a pole is within
        # 4 eps of 1 or of the largest point. A root done here takes the
        # step from its start, or keeps the start where the step is NaN (it
        # leaves the bracket). Their origins, offsets and slopes g' are
        # written; returns which roots are not.
        d, r = self.d, self.d.size
        # the points strictly inside interval k are first[k] .. end[k] - 1
        first, end = np.empty((2, r + 1), dtype=np.intp)
        first[0], end[r] = 0, start.size
        first[1:] = np.searchsorted(start, d, side="right")
        end[:r] = np.searchsorted(start, d, side="left")
        end -= first
        k = np.flatnonzero(end == 1)
        point = start[first[k]]
        o = origin[k]
        t = point - d[o]
        lo, hi = bracket[:, k]
        use = t > lo
        use &= (k < r) | (t < hi)
        # a point right of an inner interval's midpoint is kept as an offset
        # from the right pole
        flip = (k > 0) & (k < r) & (t > hi)
        np.copyto(o, k, where=flip)
        np.copyto(t, point - d[np.minimum(k, r - 1)], where=flip)
        use &= np.abs(t) > 4.0 * _EPS * max(1.0, -start[0], start[-1])
        pending = np.ones(r + 1, dtype=bool)
        if not np.count_nonzero(use):
            return pending
        k, o, t, flip, lo, hi = k[use], o[use], t[use], flip[use], lo[use], hi[use]
        np.negative(hi, out=lo, where=flip)
        np.copyto(hi, 0.0, where=flip)
        out = self.evaluate(k, o, t, True)  # with the curvature row
        frame = np.empty((3, k.size))
        new = self.step(k, self._frame(k, flip, frame), frame, t, lo, hi, out)
        done = np.abs(out[0]) <= _EPS * out[3]
        done |= np.abs(new - t) <= _START_STEP * np.abs(new)
        np.copyto(new, t, where=np.isnan(new))
        k = k[done]
        origin[k] = o[done]
        offsets[k] = new[done]
        # g' at the root, to first order from the start: what this leaves is
        # of second order in the step (below 1e-20 of g' for a step of at
        # most 1e-10 of the offset)
        slope = out[1] + out[2]
        slope += 2.0 * out[4] * (new - t)
        slopes[k] = slope[done]
        pending[k] = False
        return pending

    def _cold(self, i, origin, offsets, bracket):
        # The roots ``i`` from their intervals' midpoints, in sweeps over
        # compacted columns of the roots still active. Their origins and
        # offsets are written.
        r = self.d.size
        # From here on each root is a column: of ``ints``, its index and
        # origin; of ``state``, its offset, bracket, the relative size of
        # its last step (none before the first sweep) and, once the first
        # sweep has fixed its origin, its _frame rows.
        ints = np.empty((2, i.size), dtype=np.intp)
        ints[0] = i
        np.take(origin, i, out=ints[1])
        state = np.empty((7, i.size))
        np.take(bracket, i, axis=1, out=state[1:3])
        state[3] = np.nan
        tau, lo, hi = state[0], state[1], state[2]
        # an inner root starts at its interval's midpoint, hi from its left
        # pole; an outer one at the middle of Weyl's bracket
        np.copyto(tau, hi)
        outer = ([0] if i[0] == 0 else []) + ([-1] if i[-1] == r else [])
        for j in outer:
            tau[j] = 0.5 * (lo[j] + hi[j])
        for sweep in range(_MAX_ITER + 1):
            i, o = ints[0], ints[1]
            t, lo, hi, last, frame = state[0], state[1], state[2], state[3], state[4:]
            out = self.evaluate(i, o, t)
            g, err = out[0], out[3]
            above = g > 0
            below = ~above if sweep else g < 0
            if not sweep:
                # g at the midpoint tells which half holds each root: an
                # inner root right of it takes the right pole for its
                # origin, and the midpoint for its offset, and its half
                # for its bracket. An outer root halves its bracket below,
                # on strict signs only: a zero g moves neither end.
                right = below.copy()
                right[outer] = False
                np.copyto(o, i, where=right)
                np.negative(hi, out=lo, where=right)
                np.copyto(t, lo, where=right)
                np.copyto(hi, 0.0, where=right)
                at_left = self._frame(i, right, frame)
                origin[i] = o
            np.copyto(hi, t, where=above)
            np.copyto(lo, t, where=below)
            new = self.step(i, at_left, frame, t, lo, hi, out)
            # a converged root still takes the step its last evaluation
            # offers, if that stays in the bracket; the others bisect
            # where the step leaves it. A root within rounding of its
            # midpoint (as the middle level of a symmetric spectrum is) is
            # done at the first sweep: model steps from inside its half
            # land just beyond the midpoint, and bisection took ~28 sweeps
            # to close the bracket
            done = np.abs(g) <= _EPS * err
            done |= hi - lo <= 2.0 * _EPS * np.maximum(-lo, hi)
            bisect = np.isnan(new)
            bisected = np.count_nonzero(bisect)
            if bisected:
                np.copyto(new, np.where(done, t, 0.5 * (lo + hi)), where=bisect)
            # the step converges quadratically: after steps of relative size
            # last and rho, the error left is near rho^3 / last^2, and a
            # root whose error that puts below eps / 8 needs no further
            # sweep. A bisection tells nothing of the error left, nor does a
            # first step, whose last is NaN. rho goes into the row of last
            # once last^2 is formed.
            bound = 0.125 * _EPS * last**2
            rho = np.divide(np.abs(new - t), np.abs(new), out=last)
            small = (rho <= 1e-6) & (rho**3 <= bound)
            if bisected:
                small &= ~bisect
            done |= small
            np.copyto(t, new)
            offsets[i] = new
            if np.count_nonzero(done):
                keep = ~done
                ints, state, at_left = ints.compress(keep, 1), state.compress(keep, 1), at_left[keep]
            if not ints.shape[1]:
                return
        raise NonConvergence(
            f"eigensolver did not converge: {ints.shape[1]} secular roots "
            f"after {_MAX_ITER} iterations"
        )

    def solve(self, start=None):
        """Nearer poles and offsets of the roots ``0..r``, or ``1..r-1`` without the linear term.

        With ``start``, a pre-pass (``_warm``) evaluates the roots at their
        usable points of the ascending ``start``, in one sweep, and ends
        those whose start it accepts. Every other root starts at its
        interval's midpoint, exactly as without ``start``, and goes on in
        sweeps over compacted columns of the roots still active (``_cold``).
        When the pre-pass accepts every root, ``self.slopes`` holds ``g'``
        at each root, from the slopes that sweep evaluated (rows 1 and 2 of
        ``evaluate``, linear term included); otherwise it is None.
        """
        a, d, zeta2 = self.a, self.d, self.zeta2
        r = d.size
        origin = np.arange(-1, r)
        origin[0] = 0
        offsets = np.empty(r + 1)
        bracket = np.zeros((2, r + 1))
        np.multiply(0.5, self.gap, out=bracket[1])
        if self.linear:
            # Weyl's bounds place the outer roots within |zeta| of the diagonal
            znorm = np.sqrt(zeta2.sum())
            bracket[0, 0] = (min(a - d[0], 0.0) - znorm) * (1.0 + 4.0 * _EPS)
            bracket[1, r] = (max(a - d[-1], 0.0) + znorm) * (1.0 + 4.0 * _EPS)
            i = np.arange(r + 1)
        else:
            i = np.arange(1, r)
        slopes = None if start is None else np.empty(r + 1)
        with _RowBuffers(r):
            if start is not None:
                i = i[self._warm(start, origin, offsets, slopes, bracket)[i]]
            if i.size:
                slopes = None
                self._cold(i, origin, offsets, bracket)
        self.slopes = slopes if self.linear or slopes is None else slopes[1:r]
        if self.linear:
            return origin, offsets
        return origin[1:r], offsets[1:r]


def _lowner(diff, d, k, ratio):
    # Löwner's formula
    #   zhat_k^2 = -(lambda_k - d_k)(lambda_r - d_k) prod_{i != k, i < r}
    #              (lambda_i - d_k) / (d_i - d_k)
    # for the poles d[k], from diff[j, i] = lambda_i - d[k_j] over the
    # r + 1 roots lambda of the r poles d: the couplings for which those
    # roots are exact. ``ratio`` is a work array shaped like diff[:, :r].
    r = d.size
    np.subtract(d, d[k][:, None], out=ratio)
    ratio[np.arange(k.size), k] = -1.0 / diff[:, r]
    np.divide(diff[:, :r], ratio, out=ratio)
    return np.sqrt(np.prod(ratio, axis=1))


def _root_rows(d, origin, tau, rank, out):
    # The rows lambda_i - d[rank_k] over the r + 1 roots lambda = d[origin]
    # + tau of the r poles d, exactly tau_i where origin[i] == rank_k, a row
    # block at a time: in place when ``out`` has the r rows, else in its
    # first rows, reused for every block (a _root_block from _scratch).
    # Yields each block's first row and the block.
    r = d.size
    d_origin = d[origin]
    rows = max(1, _BLOCK_CELLS // r)
    with _RowBuffers(r):
        for s in range(0, r, rows):
            k = rank[s : s + rows]
            diff = out[: k.size] if len(out) < r else out[s : s + rows]
            np.subtract(d_origin, d[k][:, None], out=diff)
            diff += tau
            yield s, diff


def _lowner_vectors(d, origin, tau, rank):
    # The rows zhat_k / (lambda_i - d[rank_k]) of _root_rows, with zhat from
    # Löwner's formula, so the vectors come out orthogonal. Returns zhat, by
    # row, and the column norms of [1; rows], from which _star_vectors
    # rebuilds them.
    r = d.size
    zhat, norm2 = np.empty(r), np.ones(r + 1)
    shape = _root_block(r)
    block, ratio = _scratch(shape, (shape[0], r))
    for s, diff in _root_rows(d, origin, tau, rank, block):
        k = rank[s : s + len(diff)]
        z = zhat[s : s + k.size] = _lowner(diff, d, k, ratio[: k.size])
        np.divide(z[:, None], diff, out=diff)
        norm2 += np.einsum("ij,ij->j", diff, diff)
    return zhat, np.sqrt(norm2)


def arrowhead_from_spectrum(lam: np.ndarray, w: np.ndarray):
    # mode energies p and couplings z >= 0 of the arrowhead whose
    # eigenvalues are the strictly increasing lam and whose eigenvectors
    # have squared first components w (summing to one). The p are the
    # roots of sum_m w_m / (lam_m - x), interlaced with lam; the z follow
    # from Löwner's formula with the roles swapped (lam the roots, p the
    # poles), evaluated on the rounded p, so the arrowhead that is returned
    # has eigenvalues lam to working precision. lam is scaled by a power
    # of two, so the largest |lam| lies in [1/2, 1), and scaled back.
    e = math.frexp(max(-lam[0], lam[-1]))[1]
    lam = np.ldexp(lam, -e)
    origin, tau = _Secular(0.0, lam, w, linear=False).solve()
    p = lam[origin] + tau
    r = p.size
    z = np.empty(r)
    rows = max(1, _BLOCK_CELLS // (r + 1))
    diff, ratio = _scratch((min(rows, r), r + 1), (min(rows, r), r))
    # a root rounded onto lam[-1] gives -1/0 in Löwner's formula, and
    # coupling 0, which is exact for it
    with np.errstate(divide="ignore"), _RowBuffers(r):
        for s in range(0, r, rows):
            k = np.arange(s, min(s + rows, r))
            pk, blk = p[k], diff[: k.size]
            np.subtract(lam, pk[:, None], out=blk)
            z[s : s + k.size] = _lowner(blk, p, k, ratio[: k.size])
    return np.ldexp(p, e), np.ldexp(z, e)


def _pole_groups(sorted_poles: np.ndarray, tol: float):
    # starts of the runs in which every pole lies within tol of the run's
    # first one
    if not np.count_nonzero(np.diff(sorted_poles) <= tol):
        return np.arange(sorted_poles.size)
    starts, anchor = [0], sorted_poles[0]
    for j, x in enumerate(sorted_poles.tolist()):
        if x - anchor > tol:
            starts.append(j)
            anchor = x
    return np.array(starts)


def check_dim(n: int, cell_bytes: int) -> None:
    # refuse, before they exist, n x n arrays of cell_bytes bytes a cell in
    # all that would exceed _EIGH_BUDGET
    need = n * n * cell_bytes
    if need > _EIGH_BUDGET:
        raise ValueError(
            f"dim {n} is too large for eigh: its eigenvectors and work arrays would take "
            f"{need / 2**30:.1f} GiB, above the budget of {_EIGH_BUDGET / 2**30:g} GiB"
        )


class _StarBasis:
    """A star's eigenvectors, kept as the O(n) state :func:`solve_star` builds them from.

    Calling it builds them (``_star_vectors``); :meth:`propagate` applies
    them to a state without forming them. A solve that took its weights
    from the slopes kept no ``zhat`` and norms: the first use forms them
    by the Löwner pass.
    """

    def __init__(self, n, phase, lowner, deflated=None):
        self.n, self.phase, self._state, self.deflated = n, phase, lowner, deflated

    @property
    def lowner(self):
        # (d, origin, tau, rank, zhat, norms), or None when no coupling is bright
        if self._state is not None and self._state[4] is None:
            self._state = (*self._state[:4], *_lowner_vectors(*self._state[:4]))
        return self._state

    def __call__(self):
        return _star_vectors(self.n, self.phase, self.lowner, self.deflated)

    def propagate(self, psi, phases):
        # V diag(phases) V^H psi for a complex psi and the phases of the
        # eigenvalues in ascending order. With u = D^H psi and V = D V_real,
        # bright vector i is head_i [1, zhat_k / (lambda_i - d_k)] on the
        # emitter and bright-mode rows (times g on the rows of a Householder
        # group of bright direction g), so the bright coordinates are a
        # Cauchy sum over the modes and their image one over the levels,
        # each one pass of _root_rows. A group's dark vectors H e_j (j >= 1)
        # are applied through its reflection H, in O(group); a lone dark
        # mode is its own eigenvector.
        n, phase, lowner = self.n, self.phase, self.lowner
        if self.deflated is None:
            rows, col, groups, lone = slice(1, None), slice(None), (), slice(0)
        else:
            reps, col, groups, lone = self.deflated
            rows, lone = 1 + reps, 1 + lone
        u = psi if phase is None else psi * phase.conj()
        ph = phases[col]  # in the solve's order: bright, each group's dark, lone
        x = np.empty(n, dtype=complex)
        if lowner is None:
            x[0] = ph[0] * u[0]
            c = 1
        else:
            d, origin, tau, rank, zhat, norms = lowner
            c = d.size + 1
            # zhat_k b_k, b the state on the bright modes, a group's
            # projected onto g; the emitter start has none and skips a pass
            zb = u[rows] * zhat
            for members, g in groups:
                k = np.searchsorted(reps, members[0])
                zb[k] = zhat[k] * (g @ u[1 + members])
            # q_i = head_i^2 phases_i (u_0 + sum_k zhat_k b_k / (lambda_i - d_k))
            q = np.zeros(c, dtype=complex)
            (block,) = _scratch(_root_block(c - 1))
            if np.count_nonzero(zb):
                pairs, zpairs = q.view(float).reshape(c, 2), zb.view(float).reshape(c - 1, 2)
                for s, diff in _root_rows(d, origin, tau, rank, block):
                    np.divide(1.0, diff, out=diff)
                    pairs += diff.T @ zpairs[s : s + len(diff)]
            q += u[0]
            q *= ph[:c]
            q /= norms * norms
            x[0] = q.sum()
            # the image on the bright modes, zhat_k sum_i q_i / (lambda_i - d_k)
            image = np.empty(c - 1, dtype=complex)
            pairs, out = q.view(float).reshape(c, 2), image.view(float).reshape(c - 1, 2)
            for s, diff in _root_rows(d, origin, tau, rank, block):
                np.divide(1.0, diff, out=diff)
                np.matmul(diff, pairs, out=out[s : s + len(diff)])
            image *= zhat
            x[rows] = image
            for members, g in groups:
                # the dark coordinates (H u)_j, j >= 1, of H = I - w w^T / w_0
                # with w = g + e_0, turned by their phases and sent back by
                # H, beside the bright share along g
                k = members.size - 1
                w = g.copy()
                w[0] += 1.0
                t = u[1 + members]
                t -= w * ((w @ t) / w[0])
                t[0] = 0.0
                t[1:] *= ph[c : c + k]
                t -= w * ((w @ t) / w[0])
                t += g * x[1 + members[0]]
                x[1 + members] = t
                c += k
        x[lone] = ph[c:] * u[lone]
        return x if phase is None else x * phase


def _star_vectors(n, phase, lowner, deflated=None):
    # The eigenvectors of solve_star from the state it keeps: ``lowner``
    # (None when no coupling is bright) and, unless nothing deflated, the
    # bright modes ``reps`` in mode order, the column ``col`` of each
    # eigenvalue, and the arguments of _place_dark. The real vectors are
    # built in the result's own memory, for a complex result the first half
    # of each row, until the rows are multiplied by their phases through one
    # row block.
    check_dim(n, 8 if phase is None else 16)
    out = (np.empty if deflated is None else np.zeros)((n, n), float if phase is None else complex)
    vecs = out if phase is None else out.view(float)[:, :n]
    head = np.ones(1)
    if lowner is not None:
        # the rows of _lowner_vectors, divided by the norms: in their final
        # place when nothing deflated, else from a row block straight to the
        # rows of the bright modes and the columns of their eigenvalues
        d, origin, tau, rank, zhat, norms = lowner
        head = 1.0 / norms
        block = _scratch(_root_block(d.size))[0] if deflated else vecs[1:]
        for s, diff in _root_rows(d, origin, tau, rank, block):
            np.divide(zhat[s : s + len(diff), None], diff, out=diff)
            diff /= norms
            if deflated:
                reps, col = deflated[:2]
                vecs[np.ix_(1 + reps[s : s + len(diff)], col[: d.size + 1])] = diff
    if deflated:
        _place_dark(vecs, head, *deflated)
    else:
        vecs[0] = head
    if phase is not None:
        rows = max(1, _BLOCK_CELLS // n)
        (scratch,) = _scratch((min(rows, n), n))
        for s in range(0, n, rows):
            blk = scratch[: min(rows, n - s)]
            np.copyto(blk, vecs[s : s + rows])
            np.multiply(phase[s : s + rows, None], blk, out=out[s : s + rows])
    return out


def _place_dark(vecs, head, reps, col, groups, lone):
    # The head's entries go to the columns ``col[:r + 1]`` of the bright
    # eigenvalues, whose rows of the bright modes ``reps`` are in place; the
    # Householder groups' and the lone dark modes' vectors take the columns
    # after them.
    r = reps.size
    bright_cols = col[: r + 1]
    vecs[0, bright_cols] = head
    c = r + 1
    for members, u in groups:
        # the group's share of each bright vector, then its dark vectors
        # H e_j (j >= 1) of H = I - w w^T / (1 + u_0), w = u + e_0, in row
        # blocks of the group
        share = vecs[1 + members[0], bright_cols]
        w = u.copy()
        w[0] += 1.0
        coef = u[1:] / -w[0]
        dark = col[c : c + members.size - 1]
        step = max(1, _BLOCK_CELLS // members.size)
        for s in range(0, members.size, step):
            block_rows = 1 + members[s : s + step]
            vecs[np.ix_(block_rows, bright_cols)] = np.outer(u[s : s + step], share)
            h = np.outer(w[s : s + step], coef)
            k = np.arange(max(s, 1), min(s + step, members.size))
            h[k - s, k - 1] += 1.0
            vecs[np.ix_(block_rows, dark)] = h
        c += members.size - 1
    vecs[1 + lone, col[c:]] = 1.0


def solve_star(diagonal: np.ndarray, c: np.ndarray, start=None):
    # The ascending eigenvalues, the _StarBasis that builds the eigenvectors
    # from O(n) saved state or applies them to a state, and the weights
    # (the eigenvectors' squared first components) of the star with real
    # diagonal `diagonal` and couplings c in column 0:
    # D^H H D with D = diag(1, c/|c|) is the real arrowhead [[a, z^T], [z,
    # diag(p)]] with z = |c|, whose eigenvectors V_real give D V_real. When
    # every c is already real and non-negative, D = I and V_real is returned
    # as it is. D leaves row 0 alone, so the weights are the arrowhead's.
    # The secular roots start at the ascending ``start`` where they can (see
    # _Secular._warm); without it, or when no start is accepted, the result
    # is eigh's.
    # One exact power-of-two scale puts the largest |diagonal|, |Re c| and
    # |Im c| in [1/2, 1) before the moduli are taken, so that none loses
    # digits to the subnormal range. Every z_k is then below sqrt(2): no
    # z_k^2 overflows, and none above the deflation threshold underflows.
    # The parts of c are scaled through its float view, so signed zeros
    # keep their sign.
    parts = np.ascontiguousarray(c).view(float)
    top = max(np.abs(diagonal).max(), np.abs(parts).max(initial=0.0))
    if top == 0.0:
        diagonal = np.zeros(diagonal.size)  # the zero matrix: eigenvalues +0.0, vectors I
    e = math.frexp(top)[1]
    diagonal, c = np.ldexp(diagonal, -e), np.ldexp(parts, -e).view(complex)
    if start is not None:
        with np.errstate(over="ignore"):  # inf, which no root uses
            start = np.ldexp(start, -e)
    z = np.abs(c)
    n, m = diagonal.size, c.size
    phase = None
    if not np.array_equal(c, z):
        phase = np.ones(n, dtype=complex)
        coupled = np.flatnonzero(z)
        cc, cm = c[coupled], z[coupled]
        # numpy divides by |c| through its reciprocal, which overflows for a
        # subnormal |c| (one tiny beside the rest): such a c is first scaled
        # by 2^600, exactly
        tiny = cm < np.finfo(float).tiny
        cc[tiny] *= 2.0**600
        cm[tiny] = np.abs(cc[tiny])
        phase[1 + coupled] = cc / cm
    a, p = diagonal[0], diagonal[1:]
    tol = _DEFLATION * _EPS * (np.abs(diagonal).max() + np.sqrt(z @ z))
    bright = np.flatnonzero(z > tol)
    bright = bright[np.argsort(p[bright], kind="stable")]
    starts = _pole_groups(p[bright], tol)
    ends = np.append(starts[1:], bright.size)
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
    r = reps.size
    lowner = None
    if r:
        secular = _Secular(a, d, zeta * zeta)
        origin, tau = secular.solve(start)
        vals = d[origin] + tau
        # rows in mode order, so that with nothing deflated they are final
        by_mode = np.argsort(reps)
        if secular.slopes is None:
            zhat, norms = _lowner_vectors(d, origin, tau, by_mode)
            level_weights = (1.0 / norms) ** 2
        else:
            # every root accepted at its start: the weights are 1/g' there,
            # and the basis forms zhat and the norms on its first use
            zhat = norms = None
            level_weights = 1.0 / secular.slopes
        lowner = d, origin, tau, by_mode, zhat, norms
        if r == m:
            return np.ldexp(vals, e), _StarBasis(n, phase, lowner), level_weights
        reps = reps[by_mode]
    else:
        vals, level_weights = np.full(1, a), np.ones(1)
    lone = np.flatnonzero(z <= tol)
    dark_vals = [np.full(members.size - 1, p[members[0]]) for members, _ in groups]
    all_vals = np.concatenate([vals, *dark_vals, p[lone]])
    order = np.argsort(all_vals, kind="stable")
    col = np.empty(n, dtype=int)
    col[order] = np.arange(n)
    weights = np.zeros(n)
    weights[col[: r + 1]] = level_weights
    vectors = _StarBasis(n, phase, lowner, (reps, col, groups, lone))
    return np.ldexp(all_vals[order], e), vectors, weights
