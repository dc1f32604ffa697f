import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staremit import (
    StarModel,
    aggregate_degenerate,
    build_hamiltonian,
    check_hermitian,
    eigh,
    reconstruct,
)

from helpers import random_hermitian, random_star_model

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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_star_matrices())
def test_eigh_star_matches_dense_complex_solver(h):
    d = eigh(h)
    ref_e, ref_v = np.linalg.eigh(h)
    v, e = d.eigenvectors, d.eigenvalues
    assert np.abs(e - ref_e).max() <= _bound(h)
    assert np.abs(h @ v - v * e).max() <= _bound(h)
    assert np.abs(v.conj().T @ v - np.eye(d.dim)).max() <= 1e-12
    assert np.array_equal(d.zero_overlaps, np.abs(v[0]) ** 2)
    levels, weights = aggregate_degenerate(e, d.zero_overlaps)
    ref_levels, ref_weights = aggregate_degenerate(ref_e, np.abs(ref_v[0]) ** 2)
    assert levels.shape == ref_levels.shape
    assert np.abs(weights - ref_weights).max() <= 1e-12


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
