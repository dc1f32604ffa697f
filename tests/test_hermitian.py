import ast
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from staremit import (
    NonConvergence,
    StarModel,
    aggregate_degenerate,
    build_hamiltonian,
    check_hermitian,
    construct_hamiltonian,
    eigh,
    evolve_state,
    flat_profile,
    reconstruct,
)

from staremit import _arrowhead, hermitian, inverse
from staremit.hermitian import DEGENERACY_TOL, HERMITICITY_RTOL

from helpers import random_hermitian, random_star_model, solver_rows, traced_peak

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


def _eigh_outcome(m):
    # the bytes of eigh's decomposition, or its refusal. A RuntimeWarning,
    # which the suite raises, fails the test: a subnormal coupling's phase
    # c/|c| must not overflow
    try:
        d = eigh(m)
        return d.eigenvalues.tobytes(), d.zero_overlaps.tobytes(), d.eigenvectors.tobytes()
    except (ValueError, NonConvergence) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_matrices_near_a_star())
def test_star_test_from_words_agrees_with_the_complex_count(m):
    # the integer count of nonzero words takes the path the complex count
    # takes: -0.0 off the arrow still leaves a star, NaN and inf do not.
    # _is_star reads C order, which eigh's intake makes of every layout,
    # so eigh gives the same bytes for each layout as for the C copy
    want = np.count_nonzero(m[1:, 1:]) == np.count_nonzero(m.diagonal()[1:])
    c = np.ascontiguousarray(m)
    assert hermitian._is_star(c) == want
    assert _eigh_outcome(m) == _eigh_outcome(c)
    # and on the Hermitian part, a star when m is one and dense when not
    with np.errstate(invalid="ignore"):  # inf - inf
        h = c + c.conj().T
    for layout in (np.asfortranarray(h), np.repeat(h, 2, axis=1)[:, ::2]):
        assert _eigh_outcome(layout) == _eigh_outcome(h)


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


# A coupling whose real and imaginary parts both lie in [2.83, 3.99] is the
# largest entry of any _star_matrices draw: after the solver's scale its
# parts lie in [1/sqrt(2), 1) and its modulus in [1, sqrt(2)).
_BAND_COUPLING = st.builds(
    lambda re, im, q: complex(re, im) * 1j**q, st.floats(2.83, 3.99), st.floats(2.83, 3.99),
    st.integers(0, 3),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_star_matrices(), st.integers(-60, 60), st.none() | st.tuples(st.integers(0, 38), _BAND_COUPLING))
def test_eigh_star_scale_covariance(h, k, band):
    # 2^k h scales every entry exactly, so the solver's own power-of-two
    # scale meets the same entries: the eigenvalues scale bit for bit, and
    # the weights and eigenvectors do not move
    if band is not None and h.shape[0] > 1:
        j, c = 1 + band[0] % (h.shape[0] - 1), band[1]
        h[j, 0], h[0, j] = c, np.conj(c)
        assert 1.0 <= abs(c) / 4.0 < np.sqrt(2.0)
    scaled = np.ldexp(h.view(float), k).view(complex)
    parts = np.abs(np.concatenate([h.view(float), scaled.view(float)]))
    assume(np.all((parts == 0.0) | (parts >= np.finfo(float).tiny)))
    d, s = eigh(h), eigh(scaled)
    assert np.array_equal(s.eigenvalues, np.ldexp(d.eigenvalues, k))
    assert np.array_equal(s.zero_overlaps, d.zero_overlaps)
    assert np.array_equal(s.eigenvectors, d.eigenvectors)


def test_star_input_never_reaches_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rng = np.random.default_rng(3)
    model = random_star_model(rng, 30)
    d = eigh(build_hamiltonian(model))
    assert d.dim == 30
    # every entry off the arrow of the negated star is -0.0, which only the
    # complex count reads as zero: it is still a star, solved as the
    # negated model
    negated = eigh(-build_hamiltonian(model))
    want = eigh(StarModel(-model.eps, -model.alpha))
    for field in ("eigenvalues", "eigenvectors", "zero_overlaps"):
        assert getattr(negated, field).tobytes() == getattr(want, field).tobytes()
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


def _lapack_agrees(d, h):
    # eigh's eigenvalues and |V| against LAPACK's on the dense matrix, whose
    # spectrum has no degenerate level, so |V| is defined
    w, v = np.linalg.eigh(h)
    assert np.isfinite(d.eigenvectors).all()
    assert np.abs(d.eigenvalues - w).max() <= 1e-13 * np.abs(h).max()
    assert np.abs(np.abs(d.eigenvectors) - np.abs(v)).max() <= 1e-10


@pytest.mark.parametrize("dim", [2, 3, 9, 50])
@pytest.mark.parametrize("c", [5e-324j, -5e-324, complex(3e-320, -7e-321), complex(-1e-310, 2e-310)])
def test_eigh_subnormal_couplings_take_finite_phases(dim, c):
    # numpy's c/|c| overflows for a subnormal |c|; the phase of such a
    # coupling is taken after an exact scaling, and no RuntimeWarning (which
    # the suite raises) escapes. Every coupling subnormal, then every other
    # one, beside normal complex couplings
    rng = np.random.default_rng(dim)
    eps = rng.uniform(-1.0, 1.0, dim)
    every = np.full(dim - 1, c, dtype=complex)
    mixed = every.copy()
    mixed[1::2] = 0.1 * (rng.normal(size=mixed[1::2].size) + 1j * rng.normal(size=mixed[1::2].size))
    for alpha in (every, mixed):
        model = StarModel(eps=eps, alpha=alpha)
        h = build_hamiltonian(model)
        d, dense = eigh(model), eigh(h)
        for field in ("eigenvalues", "eigenvectors", "zero_overlaps"):
            assert getattr(d, field).tobytes() == getattr(dense, field).tobytes()
        _lapack_agrees(d, h)
    # a coupling pair alone, whose modulus the solver scales to 1/2
    h = np.array([[0.0, np.conj(c)], [c, 0.0]])
    _lapack_agrees(eigh(h), h)


@pytest.mark.parametrize("dim", [2, 3, 5, 9, 20, 50])
def test_eigh_star_near_the_subnormal_range_keeps_its_moduli(dim):
    # every entry near the subnormal range: the star is scaled by a power of
    # two before |c| is taken, so it agrees with LAPACK on the matrix scaled
    # by 2^1000 (exactly) as a star of normal numbers does
    c = complex(3e-320, -7e-321)
    model = StarModel(eps=4 * abs(c) * np.arange(dim), alpha=np.full(dim - 1, c))
    h = build_hamiltonian(model)
    w, v = np.linalg.eigh(np.ldexp(h.view(float), 1000).view(complex))
    d, dense = eigh(model), eigh(h)
    for field in ("eigenvalues", "eigenvectors", "zero_overlaps"):
        assert getattr(d, field).tobytes() == getattr(dense, field).tobytes()
    assert np.abs(d.eigenvalues - np.ldexp(w, -1000)).max() <= 1e-13 * np.abs(h).max()
    assert np.abs(np.abs(d.eigenvectors) - np.abs(v)).max() <= 1e-13


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
    both = np.empty(sec.block)[:, : tau.size]
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
    # the np.where form to the bit, for whole sweeps and for scattered rows.
    # Each call evaluates one row block: _block's pole sums, then the rest.
    rng = np.random.default_rng(r)
    d = np.sort(rng.uniform(-0.9, 0.9, r))
    sec = _arrowhead._Secular(0.1, d, rng.uniform(0.01, 0.5, r) ** 2)
    origin = np.maximum(np.arange(r + 1) - 1, 0)
    tau = np.where(np.arange(r + 1) % 2, 0.3, 0.45) * sec.gap
    tau[0], tau[r] = -0.05, 0.05
    for act in (np.arange(r + 1), np.flatnonzero(rng.uniform(size=r + 1) < 0.4)):
        for s in range(0, act.size, sec.rows):
            blk = act[s : s + sec.rows]
            got = sec.evaluate(blk, origin[blk], tau[blk])
            want = _block_reference(sec, blk, origin[blk], tau[blk])
            for x, y in zip(got, want):
                assert np.array_equal(x, y)


def test_secular_sweeps_keep_the_callers_error_settings(monkeypatch):
    # only _pick_root's quotients are silenced: every evaluation, with and
    # without a start, runs under the caller's settings
    seen = []
    evaluate = _arrowhead._Secular.evaluate

    def spy(self, *args):
        seen.append(np.geterr())
        return evaluate(self, *args)

    monkeypatch.setattr(_arrowhead._Secular, "evaluate", spy)
    rng = np.random.default_rng(5)
    d = np.sort(rng.uniform(-0.9, 0.9, 40))
    zeta2 = rng.uniform(0.01, 0.5, 40) ** 2
    with np.errstate(divide="raise", invalid="raise"):
        _, offsets = _arrowhead._Secular(0.1, d, zeta2).solve()
        _arrowhead._Secular(0.1, d, zeta2).solve(d[np.maximum(np.arange(41) - 1, 0)] + offsets)
    assert len(seen) > 2
    assert all(e["divide"] == "raise" and e["invalid"] == "raise" for e in seen)


def test_row_buffers_only_shrink_the_callers_buffers():
    old = np.getbufsize()
    try:
        for size, row, inside in ((1 << 16, 10000, 10000), (1 << 16, 1000, 992),
                                  (4096, 5000, 4096), (4096, 1000, 992), (4096, 100, 4096)):
            np.setbufsize(size)
            with _arrowhead._RowBuffers(row):
                assert np.getbufsize() == inside
            assert np.getbufsize() == size
    finally:
        np.setbufsize(old)


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
    monkeypatch.setattr("staremit._arrowhead._MAX_ITER", 8)
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


@pytest.mark.parametrize("kind", ["random", "identical"])
def test_complex_star_eigenvectors_hold_no_real_copy(kind):
    # A star with complex couplings gets complex eigenvectors, 16 bytes a
    # cell. The real vectors and the Householder blocks are built in the
    # result's own memory and its rows rephased through one row block of
    # scratch, so eigh and the first read of the eigenvectors peak at about
    # 16.2 bytes a cell here; a real n x n array beside the result made it 24.
    dim = 2001
    n = dim - 1
    if kind == "identical":
        model = StarModel(eps=np.full(dim, 0.3), alpha=np.full(n, 0.7 * np.exp(0.4j) / np.sqrt(n)))
    else:
        model = random_star_model(np.random.default_rng(dim), dim)
    peak, v = traced_peak(lambda: eigh(model).eigenvectors)
    assert v.dtype == complex
    assert peak <= 17 * dim**2, peak / dim**2


def test_eigh_refuses_a_dim_beyond_its_budget(monkeypatch):
    # the guard's arithmetic, on small dims under a patched budget: 8 bytes
    # a cell for a real-coupled star, 16 for a complex one and 48 for LAPACK.
    # A star's eigenvectors are refused at their first read, LAPACK's at eigh.
    dim = 10
    real = StarModel(eps=np.linspace(0, 1, dim), alpha=np.full(dim - 1, 0.1))
    complex_ = StarModel(eps=np.linspace(0, 1, dim), alpha=np.full(dim - 1, 0.1j))
    dense = random_hermitian(np.random.default_rng(1), dim)
    for mat, cell in ((real, 8), (complex_, 16), (build_hamiltonian(complex_), 16), (dense, 48)):
        monkeypatch.setattr(_arrowhead, "_EIGH_BUDGET", cell * dim**2)
        eigh(mat).eigenvectors
        monkeypatch.setattr(_arrowhead, "_EIGH_BUDGET", cell * dim**2 - 1)
        with pytest.raises(ValueError, match=f"dim {dim} is too large"):
            eigh(mat).eigenvectors
        if cell == 48:
            with pytest.raises(ValueError, match=f"dim {dim} is too large"):
                eigh(mat)
    # the levels alone form no n x n array and are not refused
    d = eigh(complex_)
    assert d.eigenvalues.shape == d.zero_overlaps.shape == (dim,)


@pytest.mark.parametrize("kind", ["real", "complex", "deflated", "dense"])
def test_decompositions_pickle_before_and_after_the_first_read(kind):
    # a star's decomposition keeps the state that builds its eigenvectors
    # in arrays, not in a closure, so it pickles before its first read; the
    # read caches the matrix, and a second read returns the same object. A
    # copy propagates a state as its original does, to the bit
    model = random_star_model(np.random.default_rng(3), 30)
    if kind == "real":
        model = StarModel(eps=model.eps, alpha=np.abs(model.alpha))
    elif kind == "deflated":
        model = StarModel(eps=np.round(3.0 * model.eps) / 3.0, alpha=model.alpha)
    mat = build_hamiltonian(model) if kind == "dense" else model
    want = eigh(mat)
    v = want.eigenvectors
    assert want.eigenvectors is v
    for before in (True, False):
        d = eigh(mat)
        if not before:
            d.eigenvectors
        copy = pickle.loads(pickle.dumps(d))
        for name in ("eigenvalues", "eigenvectors", "zero_overlaps"):
            assert np.array_equal(getattr(copy, name), getattr(want, name))
        psi = np.linspace(-1.0, 1.0, d.dim) + 0.5j
        assert np.array_equal(evolve_state(copy, psi, 1.7), evolve_state(d, psi, 1.7))
        assert copy.eigenvectors is copy.eigenvectors
        assert copy.eigenvectors.dtype == v.dtype
    explicit = hermitian.SpectralDecomposition(
        eigenvalues=want.eigenvalues, eigenvectors=v, zero_overlaps=want.zero_overlaps)
    assert explicit.eigenvectors is v
    with pytest.raises(AttributeError):
        explicit.eigenvalues = want.eigenvalues


def test_the_solver_sits_behind_hermitian_and_inverse():
    # the arrowhead solver is one private module: only hermitian and inverse
    # import it, and no module imports an underscore name from it or from
    # hermitian. The names inverse re-exports are hermitian's own objects.
    package = Path(hermitian.__file__).parent
    importers, private = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                # "from . import m" and "from staremit import m" import modules
                module = (node.module or "").removeprefix("staremit").strip(".")
                names = [alias.name for alias in node.names]
                sources = [(module, names)] if module else [(name, []) for name in names]
            elif isinstance(node, ast.Import):
                sources = [(alias.name.removeprefix("staremit."), []) for alias in node.names]
            else:
                continue
            for module, names in sources:
                if module == "_arrowhead":
                    importers.add(path.stem)
                if module in ("_arrowhead", "hermitian"):
                    private += [(path.stem, module, n) for n in names if n.startswith("_")]
    assert importers == {"hermitian", "inverse"}
    assert private == []
    assert inverse.eigh is hermitian.eigh
    assert inverse.aggregate_degenerate is hermitian.aggregate_degenerate
