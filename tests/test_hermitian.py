import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staremit import (
    NonConvergence,
    StarModel,
    aggregate_degenerate,
    build_hamiltonian,
    check_hermitian,
    construct_hamiltonian,
    eigh,
    flat_profile,
    reconstruct,
)

from staremit import hermitian
from staremit.hermitian import DEGENERACY_TOL, HERMITICITY_RTOL

from helpers import random_hermitian, random_star_model, solver_rows

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_check_hermitian_coupled_pair():
    assert check_hermitian(np.array([[2.0, 0.5], [0.5, 2.0]]), 1e-12)


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_check_hermitian_identity(dim):
    assert check_hermitian(np.eye(dim), 1e-12)


def test_check_hermitian_rejects_asymmetric():
    assert not check_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]), 1e-12)


def test_check_hermitian_complex_offdiagonal():
    a = 0.3 + 0.4j
    assert check_hermitian(np.array([[1.0, np.conj(a)], [a, -1.0]]), 1e-12)
    # symmetric but not conjugate-symmetric
    assert not check_hermitian(np.array([[0.0, a], [a, 0.0]]), 1e-12)


@pytest.mark.parametrize("dim", [2, 64, 65, 150])
def test_check_hermitian_finds_one_defect_anywhere(dim):
    # the check reads the matrix in row slabs; a defect in any slab counts
    h = random_hermitian(np.random.default_rng(dim), dim)
    for i, j in ((dim - 1, 0), (0, dim - 1), (dim // 2, dim // 2 - 1)):
        m = h.copy()
        m[i, j] += 1e-6j
        assert check_hermitian(m, 1.1e-6) and not check_hermitian(m, 0.9e-6)


def test_check_hermitian_accepts_entries_whose_modulus_overflows():
    # finite entries, although |z| overflows to inf: not a non-finite input
    big = 1.5e308 + 1.5e308j
    with np.errstate(over="ignore"):
        assert check_hermitian(np.array([[0.0, big], [np.conj(big), 0.0]]), 0.0)


def test_eigh_rejects_non_hermitian_whose_modulus_overflows():
    # max|m| overflows, so the relative tolerance must not become inf
    big = 1.5e308 + 1.5e308j
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.array([[0.0, big], [0.0, 0.0]]))
        assert not check_hermitian(np.array([[0.0, big], [0.0, 0.0]]), 1e300)
        # a defect within the relative tolerance at that scale still passes
        eigh(np.array([[0.0, big], [np.conj(big) * (1 + 1e-14), 0.0]]))
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(np.array([[0.0, big], [np.conj(big) * (1 + 1e-10), 0.0]]))


@pytest.mark.parametrize("dim", [2, 70, 150])
def test_eigh_rejects_star_with_one_defect_anywhere(dim):
    # a star is checked on its first row, first column and diagonal only
    h = build_hamiltonian(random_star_model(np.random.default_rng(dim), dim))
    for i, j, bump in ((0, dim - 1, 1e-6), (dim - 1, 0, 1e-6j), (dim // 2, dim // 2, 1e-6j)):
        m = h.copy()
        m[i, j] += bump
        with pytest.raises(ValueError, match="not Hermitian"):
            eigh(m)
        m[i, j] -= bump * (1 - 1e-9)  # a defect within tolerance passes
        eigh(m)


def _dense_verdict(m):
    # what the dense path says of any matrix: entries must be finite, then
    # Hermitian within HERMITICITY_RTOL of the largest modulus, compared at
    # a quarter of the size when that modulus overflows; None if it passes
    if not np.all(np.isfinite(m)):
        return "matrix entries must be finite"
    f = 1.0 if np.isfinite(np.abs(m).max()) else 0.25
    if check_hermitian(m, HERMITICITY_RTOL * np.abs(f * m).max() / f):
        return None
    return "matrix is not Hermitian within tolerance"


_BIG = 1.5e308 + 1.5e308j  # finite, but its modulus overflows


@st.composite
def _stars_with_an_arrow_fault(draw):
    # a star matrix with one fault on its arrow (first row, first column or
    # diagonal): NaN, inf, an overflowing-modulus coupling pair (Hermitian,
    # within tolerance or not; on the diagonal never Hermitian), or a bump
    # near the Hermiticity tolerance. Off the arrow every entry stays 0.
    dim = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = build_hamiltonian(random_star_model(rng, dim))
    where = draw(st.sampled_from(["row", "column", "diagonal"]))
    k = draw(st.integers(0 if where == "diagonal" else 1, dim - 1))
    i, j = {"row": (0, k), "column": (k, 0), "diagonal": (k, k)}[where]
    fault = draw(st.sampled_from(["nan", "inf", "overflow", "bump"]))
    if fault == "nan":
        m[i, j] = draw(st.sampled_from([complex(np.nan, 0.0), complex(0.0, np.nan), np.nan * (1 + 1j)]))
    elif fault == "inf":
        m[i, j] = draw(st.sampled_from([np.inf, -np.inf, complex(0.0, np.inf)]))
    elif fault == "overflow" and i == j:
        m[i, j] = _BIG
    elif fault == "overflow":
        m[k, 0], m[0, k] = _BIG, np.conj(_BIG) * (1.0 + draw(st.sampled_from([0.0, 1e-14, 1e-10])))
    else:
        size = draw(st.floats(1e-14, 1e-10)) * np.abs(m).max()
        m[i, j] += size * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    return m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_stars_with_an_arrow_fault())
def test_eigh_checks_a_dense_star_from_its_arrow(m):
    # a star is checked from its arrow alone, with the verdict, exception
    # and message of the dense path
    with np.errstate(over="ignore", invalid="ignore"):
        want = _dense_verdict(m)
        try:
            eigh(m)
            got = None
        except ValueError as exc:
            assert type(exc) is ValueError
            got = str(exc)
    assert got == want


def test_eigh_off_arrow_entry_takes_the_dense_path(monkeypatch):
    # one nonzero entry off the arrow makes a matrix no star: it gets the
    # dense checks and, if it passes them, LAPACK
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    h = build_hamiltonian(random_star_model(np.random.default_rng(5), 6))
    eigh(h)
    for value, want in (
        (1e-300, "eigensolver did not converge: LAPACK called"),
        (1e-6, "matrix is not Hermitian within tolerance"),
        (np.nan, "matrix entries must be finite"),
    ):
        m = h.copy()
        m[4, 2] = value
        with pytest.raises((NonConvergence, ValueError)) as exc:
            eigh(m)
        assert str(exc.value) == want


# Real and imaginary parts, with their bit patterns: +0.0 is the only one
# whose word is zero, -0.0 counts as zero in the complex count, and the
# others (subnormals, NaN, inf) are nonzero.
_PART = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -2.5, np.nan, np.inf, -np.inf])


@st.composite
def _matrices_near_a_star(draw):
    # a square complex matrix whose arrow (first row, first column and
    # diagonal) and a few entries off it take any of those parts, laid out
    # in C order, Fortran order or as a strided view
    dim = draw(st.integers(1, 12))
    m = np.zeros((dim, dim), dtype=complex)
    arrow = [(0, j) for j in range(dim)] + [(j, 0) for j in range(1, dim)] + [(j, j) for j in range(1, dim)]
    off = [(i, j) for i in range(1, dim) for j in range(1, dim) if i != j]
    cells = draw(st.lists(st.sampled_from(arrow), max_size=6))
    if off:
        cells += draw(st.lists(st.sampled_from(off), max_size=3))
    for i, j in cells:
        m[i, j] = complex(draw(_PART), draw(_PART))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "strided":
        wide = np.zeros((dim, 2 * dim), dtype=complex)
        wide[:, ::2] = m
        return wide[:, ::2]
    return m


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices_near_a_star())
def test_star_test_from_words_agrees_with_the_complex_count(m):
    # the integer count of nonzero words takes the path the complex count
    # takes: -0.0 off the arrow still leaves a star, NaN and inf do not
    want = np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:])
    assert hermitian._is_star(m) == want


def test_star_test_reads_a_signed_zero_off_the_arrow_as_zero():
    m = build_hamiltonian(random_star_model(np.random.default_rng(2), 5))
    for value in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        z = m.copy()
        z[3, 1] = value
        assert hermitian._is_star(z)
    z[3, 1] = 5e-324
    assert not hermitian._is_star(z)


def test_check_hermitian_requires_square():
    with pytest.raises(ValueError):
        check_hermitian(np.zeros((2, 3)), 1e-12)


def test_eigh_pauli_x():
    d = eigh(PAULI_X)
    assert np.allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eigh_coupled_pair():
    # characteristic equation of [[e0, a], [a, e0]] gives e0 +- |a|
    d = eigh(np.array([[2.0, 0.5], [0.5, 2.0]]))
    assert np.allclose(d.eigenvalues, [1.5, 2.5], atol=1e-14)


def test_eigh_identical_modes_spectrum():
    # four identical unit couplings: exact spectrum is -2, 0 (x3), +2
    m = StarModel(eps=np.zeros(5), alpha=np.ones(4, dtype=complex))
    d = eigh(build_hamiltonian(m))
    assert np.allclose(d.eigenvalues, [-2.0, 0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_eigh_rejects_nonhermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_eigh_rejects_nonfinite():
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigh_deterministic():
    rng = np.random.default_rng(11)
    # a dense matrix takes the complex solver, a star matrix the real one
    for h in (random_hermitian(rng, 7), build_hamiltonian(random_star_model(rng, 7))):
        d1, d2 = eigh(h), eigh(h)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_eigh_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        dim = int(rng.integers(2, 10))
        h = random_hermitian(rng, dim)
        d = eigh(h)
        fro = np.linalg.norm(h)
        assert np.all(np.diff(d.eigenvalues) >= 0)
        gram = d.eigenvectors.conj().T @ d.eigenvectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-10
        assert abs(d.eigenvalues.sum() - np.trace(h).real) <= 1e-10 * max(fro, 1.0)
        assert abs(d.zero_overlaps.sum() - 1.0) <= 1e-12


def test_eigenvalues_invariant_under_mode_permutation():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dim = int(rng.integers(3, 9))
        h = random_hermitian(rng, dim)
        perm = np.concatenate(([0], 1 + rng.permutation(dim - 1)))
        hp = h[np.ix_(perm, perm)]
        assert np.abs(eigh(h).eigenvalues - eigh(hp).eigenvalues).max() < 1e-10


def test_reconstruct_identity():
    assert np.allclose(reconstruct(eigh(np.eye(3))), np.eye(3), atol=1e-14)


def test_reconstruct_pauli_x():
    assert np.abs(reconstruct(eigh(PAULI_X)) - PAULI_X).max() < 1e-12


def test_reconstruct_random_round_trip():
    rng = np.random.default_rng(99)
    for _ in range(25):
        h = random_hermitian(rng, 8)
        rec = reconstruct(eigh(h))
        assert np.abs(rec - h).max() <= 1e-10 * np.linalg.norm(h)
        assert check_hermitian(rec, 1e-12)


def test_aggregate_degenerate_merges_dark_levels():
    m = StarModel(eps=np.zeros(5), alpha=np.ones(4, dtype=complex))
    d = eigh(build_hamiltonian(m))
    levels, weights = aggregate_degenerate(d.eigenvalues, d.zero_overlaps)
    assert np.allclose(levels, [-2.0, 0.0, 2.0], atol=1e-12)
    assert np.allclose(weights, [0.5, 0.0, 0.5], atol=1e-12)


def test_aggregate_degenerate_keeps_distinct_levels():
    levels, weights = aggregate_degenerate([0.0, 1.0, 2.0], [0.2, 0.3, 0.5])
    assert np.array_equal(levels, [0.0, 1.0, 2.0])
    assert np.array_equal(weights, [0.2, 0.3, 0.5])


def test_aggregate_degenerate_validates_input():
    with pytest.raises(ValueError):
        aggregate_degenerate([1.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        aggregate_degenerate([0.0, 1.0], [1.0])


def _aggregate_reference(e, w, tol=1e-9):
    # a new level starts wherever the gap to the previous sample exceeds tol
    runs = [[0]]
    for i in range(1, len(e)):
        if e[i] - e[i - 1] > tol:
            runs.append([])
        runs[-1].append(i)
    return np.array([np.mean(e[r]) for r in runs]), np.array([sum(w[r]) for r in runs])


@st.composite
def _clustered(draw):
    # sorted samples where some values repeat, exactly or within 1e-9
    base = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
    e = sorted(
        b + draw(st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 5e-10))
        for b in base
        for _ in range(draw(st.integers(1, 5)))
    )
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=len(e), max_size=len(e)))
    return np.array(e), np.array(w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_clustered())
def test_aggregate_degenerate_matches_run_loop(case):
    e, w = case
    levels, weights = aggregate_degenerate(e, w)
    ref_levels, ref_weights = _aggregate_reference(e, w)
    # same runs; the sums may associate differently, by a few ulp
    assert levels.shape == ref_levels.shape
    eps = np.finfo(float).eps
    assert np.all(np.abs(levels - ref_levels) <= 4 * eps * np.abs(ref_levels))
    assert np.all(np.abs(weights - ref_weights) <= 8 * eps * ref_weights)


# Couplings: zero, negative real, or complex with any phase. Energies sit
# on a 0.1 grid, so they repeat, and levels that are not exactly degenerate
# stay far apart compared with DEGENERACY_TOL.
_COUPLING = (
    st.just(0.0)
    | st.floats(-2.0, -0.05)
    | st.builds(
        lambda r, phi: r * np.exp(1j * phi), st.floats(0.05, 2.0), st.floats(0.0, 2 * np.pi)
    )
)
_ENERGY = st.integers(-20, 20).map(lambda k: k / 10)


@st.composite
def _star_matrices(draw):
    dim = draw(st.integers(1, 40))
    if dim > 1 and draw(st.booleans()):  # identical modes
        eps = np.full(dim, draw(_ENERGY))
        alpha = np.full(dim - 1, draw(_COUPLING), dtype=complex)
    else:
        eps = np.array(draw(st.lists(_ENERGY, min_size=dim, max_size=dim)))
        alpha = np.array(
            draw(st.lists(_COUPLING, min_size=dim - 1, max_size=dim - 1)), dtype=complex
        )
    if dim == 1:
        return eps.reshape(1, 1).astype(complex)
    return build_hamiltonian(StarModel(eps=eps, alpha=alpha))


def _bound(h):
    return 1e-12 * max(1.0, np.abs(h).max())


def _check_against_lapack(h, agg_tol):
    d = eigh(h)
    # LAPACK's complex solver fails to converge on some of these matrices
    # (couplings 1e26, 1e-14 and 1e-16 at dim 25) unless they are scaled;
    # the power of two is exact
    k = int(np.clip(np.frexp(np.abs(h).max())[1], -1000, 1000))
    ref_e, ref_v = np.linalg.eigh(h * 2.0**-k)
    ref_e *= 2.0**k
    v, e = d.eigenvectors, d.eigenvalues
    assert np.all(np.diff(e) >= 0)
    assert np.abs(e - ref_e).max() <= _bound(h)
    assert np.abs(h @ v - v * e).max() <= _bound(h)
    assert np.abs(v.conj().T @ v - np.eye(d.dim)).max() <= 1e-12
    assert np.array_equal(d.zero_overlaps, np.abs(v[0]) ** 2)
    levels, weights = aggregate_degenerate(e, d.zero_overlaps, agg_tol)
    ref_levels, ref_weights = aggregate_degenerate(ref_e, np.abs(ref_v[0]) ** 2, agg_tol)
    assert levels.shape == ref_levels.shape
    assert np.abs(weights - ref_weights).max() <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_star_matrices())
def test_eigh_star_matches_dense_complex_solver(h):
    _check_against_lapack(h, DEGENERACY_TOL)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_star_matrices(), st.integers(0, 2**32 - 1), st.floats(-5.0, 5.0))
def test_eigh_star_gauge_and_shift_covariance(h, seed, shift):
    d = eigh(h)
    levels, weights = aggregate_degenerate(d.eigenvalues, d.zero_overlaps)
    # a phase on each coupling is a gauge: nothing observable moves
    phase = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=h.shape[0] - 1))
    gauged = h.copy()
    gauged[1:, 0] *= phase
    gauged[0, 1:] *= phase.conj()
    # a common energy shift moves every level by the same amount
    shifted = h + shift * np.eye(h.shape[0])
    for other, offset in ((gauged, 0.0), (shifted, shift)):
        o = eigh(other)
        assert np.abs(o.eigenvalues - offset - d.eigenvalues).max() <= _bound(other)
        o_levels, o_weights = aggregate_degenerate(o.eigenvalues, o.zero_overlaps)
        assert o_levels.shape == levels.shape
        assert np.abs(o_weights - weights).max() <= 1e-12


def test_star_input_never_reaches_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rng = np.random.default_rng(3)
    d = eigh(build_hamiltonian(random_star_model(rng, 30)))
    assert d.dim == 30
    # dense input still goes to LAPACK, whose failure is a NonConvergence
    with pytest.raises(NonConvergence, match="did not converge"):
        eigh(random_hermitian(rng, 5))


@pytest.mark.parametrize(
    "couplings", ["complex", "real", "signed", "zeros", "identical", "equal-energies"]
)
def test_eigh_star_model_matches_its_dense_matrix(couplings):
    # a StarModel is solved from (eps, alpha) without its dense matrix, bit
    # for bit as eigh(build_hamiltonian(model)), whose star is checked from
    # its arrow; couplings that are already real and non-negative need no
    # phases, and the eigenvectors stay real. Zero couplings and groups of
    # equal mode energies give dark levels.
    model = random_star_model(np.random.default_rng(11), 40)
    eps, alpha = model.eps, model.alpha
    if couplings in ("real", "signed"):
        alpha = np.abs(alpha)
        alpha[::3] *= -1.0 if couplings == "signed" else 1.0
    elif couplings == "zeros":
        alpha[::2] = 0.0
    elif couplings == "identical":
        eps, alpha = np.full(40, eps[0]), np.full(39, alpha[0])
    elif couplings == "equal-energies":
        eps = np.round(3.0 * eps) / 3.0
    model = StarModel(eps=eps, alpha=alpha)
    d, dense = eigh(model), eigh(build_hamiltonian(model))
    for field in ("eigenvalues", "eigenvectors", "zero_overlaps"):
        assert np.array_equal(getattr(d, field), getattr(dense, field))
    assert np.isrealobj(d.eigenvectors) == (couplings == "real")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_star_matrices().filter(lambda h: h.shape[0] > 1))
def test_star_levels_without_start_are_eighs_to_the_bit(h):
    # the spectrum part alone, with no eigenvector block: the same
    # eigenvalues and weights as eigh, to the bit
    model = StarModel(eps=h.diagonal().real, alpha=h[1:, 0])
    d = eigh(model)
    eigenvalues, weights = hermitian._star_levels(model)
    assert np.array_equal(eigenvalues, d.eigenvalues)
    assert np.array_equal(weights, d.zero_overlaps)


@pytest.mark.parametrize(
    "seed, dim, rows",
    [
        (4, 9, [9, 9, 9, 6, 1]),
        (3, 200, [200, 200, 195, 122, 35, 3]),
        (1024, 1024, [1024, 1024, 1011, 636, 168, 17, 4]),
    ],
)
def test_eigh_row_counts_are_pinned(seed, dim, rows):
    # eigh starts every root at its interval's midpoint; the roots evaluated
    # in each of its sweeps are pinned, so a change to the step or the
    # convergence tests that costs sweeps shows here
    assert solver_rows(eigh, random_star_model(np.random.default_rng(seed), dim))[0] == rows


def _block_reference(sec, i, origin, tau):
    # _Secular._block with the masked band formed by np.where; the row
    # block sits in a buffer of the solver's layout, as BLAS may sum a row
    # in another order when the rows are laid out otherwise
    d, zeta2 = sec.d, sec.zeta2
    both = np.empty_like(sec.buf)[:, : tau.size]
    square, rec = both
    np.subtract(d, d[origin][:, None], out=rec)
    rec -= tau[:, None]
    np.divide(1.0, rec, out=rec)
    np.square(rec, out=square)
    c0, c1 = i[0], i[-1]
    band, zb = both[..., c0:c1], zeta2[c0:c1]
    mixed = np.where(np.arange(c0, c1) < i[:, None], band, 0.0) @ zb
    slope_l, psi = both[..., :c0] @ zeta2[:c0] + mixed
    slope_r, phi = both[..., c1:] @ zeta2[c1:] + (band @ zb - mixed)
    lin = (d[origin] - sec.a) + tau
    slope_l += 1.0
    err = 8.0 * (phi - psi + np.abs(lin)) + np.abs(tau) * (slope_l + slope_r)
    return lin + psi + phi, slope_l, slope_r, err


@pytest.mark.parametrize("r", [1, 2, 7, 100, 200, 333])
def test_secular_block_masks_like_where(r):
    # the band mask is written into a kept buffer; the products are those of
    # the np.where form to the bit, for whole sweeps and for scattered rows
    rng = np.random.default_rng(r)
    d = np.sort(rng.uniform(-0.9, 0.9, r))
    sec = hermitian._Secular(0.1, d, rng.uniform(0.01, 0.5, r) ** 2)
    origin = np.maximum(np.arange(r + 1) - 1, 0)
    tau = np.where(np.arange(r + 1) % 2, 0.3, 0.45) * sec.gap
    tau[0], tau[r] = -0.05, 0.05
    for act in (np.arange(r + 1), np.flatnonzero(rng.uniform(size=r + 1) < 0.4)):
        for s in range(0, act.size, sec.rows):
            blk = act[s : s + sec.rows]
            got = sec._block(blk, origin[blk], tau[blk], np.empty((4, blk.size)))
            want = _block_reference(sec, blk, origin[blk], tau[blk])
            for x, y in zip(got, want):
                assert np.array_equal(x, y)


# Mode energies sit on a 0.1 grid, each repeated exactly or moved off its
# grid point by one ulp, 1e-14 or 1e-10: all within DEGENERACY_TOL, so the
# deflation tolerance decides which of them merge. Couplings range from
# zero and 1e-300 through 1e-16..1e-8 of the energy scale to 1e200.
_OFFSET = st.sampled_from(["exact", "ulp", 1e-14, 1e-10])
_TINY_COUPLING = (
    st.sampled_from([0.0, 1e-300])
    | st.floats(-16.0, -8.0).map(lambda x: 10.0**x)
    | st.floats(0.05, 2.0)
    | st.floats(0.0, 200.0).map(lambda x: 10.0**x)
)


@st.composite
def _near_deflation_stars(draw):
    dim = draw(st.integers(1, 60))
    centers = draw(st.lists(_ENERGY, min_size=1, max_size=4))
    eps = []
    for _ in range(dim):
        c, off = draw(st.sampled_from(centers)), draw(_OFFSET)
        eps.append(c if off == "exact" else np.nextafter(c, np.inf) if off == "ulp" else c + off)
    alpha = [draw(_TINY_COUPLING) * np.exp(1j * draw(st.floats(0.0, 6.0))) for _ in range(dim - 1)]
    if dim == 1:
        return np.array(eps).reshape(1, 1).astype(complex)
    return build_hamiltonian(StarModel(eps=np.array(eps), alpha=np.array(alpha, dtype=complex)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_near_deflation_stars())
def test_eigh_star_near_deflation_and_scale(h):
    # levels are told apart relative to the matrix scale: at max|H| = 1e200
    # LAPACK's own eigenvalues carry absolute errors near 1e184
    _check_against_lapack(h, DEGENERACY_TOL * max(1.0, np.abs(h).max()))


@pytest.mark.parametrize("weak", [1e-6, 1e-8, 1e-10])
def test_eigh_star_weak_mode_between_close_strong_ones(weak):
    # near the weak mode's energy the terms of the two strong modes 1e-8
    # away cancel, so the root next to it is known only to about 1e-7 of
    # its offset; the couplings recomputed from the roots (Löwner's
    # formula) still give orthonormal eigenvectors
    model = StarModel(
        eps=np.array([0.5, -0.4, -1e-8, 0.0, 1e-8, 0.35]),
        alpha=np.array([0.3, 1.0j, weak, -1.0, 0.2]),
    )
    _check_against_lapack(build_hamiltonian(model), DEGENERACY_TOL)


@pytest.mark.parametrize(
    "model",
    [
        StarModel(eps=np.array([0.0, -1.0, 1.0]), alpha=np.array([1.0, 1.0])),
        StarModel(eps=np.array([0.3, -0.2, 0.8]), alpha=np.array([0.5, 0.5j])),
        StarModel(eps=np.array([0.0, -3.0, -1.0, 1.0, 3.0]), alpha=np.array([1.0, 2.0, 2.0, 1.0])),
        # mirror-symmetric up to rounding: the middle root is within an ulp
        # of its interval's midpoint
        construct_hamiltonian(flat_profile(3, 0.0, 1.0)),
    ],
    ids=["three-level", "shifted", "five-level", "constructed"],
)
def test_eigh_star_root_at_interval_midpoint(model, monkeypatch):
    # a mirror-symmetric star has a root at the midpoint of its interval;
    # it converges at the first sweep, not after ~28 bisections
    monkeypatch.setattr("staremit.hermitian._MAX_ITER", 8)
    _check_against_lapack(build_hamiltonian(model), DEGENERACY_TOL)


@pytest.mark.parametrize("dim", [300, 1024])
@pytest.mark.parametrize("kind", ["random", "identical", "zero-couplings"])
def test_eigh_large_stars(dim, kind):
    rng = np.random.default_rng(dim)
    n = dim - 1
    if kind == "identical":
        model = StarModel(eps=np.full(dim, 0.3), alpha=np.full(n, 0.7 * np.exp(0.4j) / np.sqrt(n)))
    else:
        alpha = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)) / np.sqrt(n)
        if kind == "zero-couplings":
            alpha[rng.uniform(size=n) < 0.7] = 0.0
        model = StarModel(eps=rng.uniform(-1, 1, dim), alpha=alpha)
    h = build_hamiltonian(model)
    d = eigh(h)
    v, e = d.eigenvectors, d.eigenvalues
    assert np.abs(h @ v - v * e).max() <= _bound(h)
    assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-12
    assert np.abs(e - np.linalg.eigvalsh(h)).max() <= _bound(h)
