import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staremit import (
    DegenerateProfile,
    DimensionMismatch,
    SpectralProfile,
    StarModel,
    build_hamiltonian,
    construct_hamiltonian,
    eigh,
    equally_spaced_spectrum,
    flat_profile,
    random_profile,
    verify_round_trip,
)

INV_SQRT3 = 1.0 / np.sqrt(3.0)


def test_equally_spaced_spectrum_values():
    assert np.allclose(equally_spaced_spectrum(1, 0.0, 1.0), [-1.0, 0.0, 1.0])
    assert np.allclose(equally_spaced_spectrum(2, 5.0, 2.0), [3.0, 4.0, 5.0, 6.0, 7.0])


def test_equally_spaced_spectrum_midpoint_is_center():
    for m_half, eps0, d in [(1, 0.3, 1.0), (4, -2.0, 0.7), (16, 5.5, 3.0)]:
        ladder = equally_spaced_spectrum(m_half, eps0, d)
        assert ladder[m_half] == pytest.approx(eps0)
        assert np.all(np.diff(ladder) > 0)


def test_equally_spaced_spectrum_validation():
    with pytest.raises(ValueError):
        equally_spaced_spectrum(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        equally_spaced_spectrum(2, 0.0, 0.0)


def test_flat_profile_weights():
    p = flat_profile(1, 0.0, 1.0)
    assert np.allclose(p.overlaps, 1.0 / 3.0)
    p = flat_profile(10, 0.0, 1.0)
    assert p.overlaps.size == 21
    assert np.allclose(p.overlaps, 1.0 / 21.0)
    assert abs(p.overlaps.sum() - 1.0) <= 1e-12
    assert p.is_symmetric()


def test_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(1, 0.0, 1.0, np.array([0.5, 0.0, 0.5]))  # zero weight
    with pytest.raises(ValueError):
        SpectralProfile(1, 0.0, 1.0, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        SpectralProfile(1, 0.0, 1.0, np.array([0.5, 0.3, 0.5]))  # sum != 1
    with pytest.raises(ValueError):
        SpectralProfile(1, 0.0, -1.0, np.full(3, 1.0 / 3.0))  # bad width


def test_profile_json_round_trip():
    p = random_profile(3, 0.25, 2.0, np.random.default_rng(1), symmetric=True)
    again = SpectralProfile.from_dict(p.to_dict())
    assert again.m_half == p.m_half
    assert np.array_equal(again.overlaps, p.overlaps)


def test_random_profile_symmetry_and_reproducibility():
    a = random_profile(5, 0.0, 1.0, np.random.default_rng(7), symmetric=True)
    b = random_profile(5, 0.0, 1.0, np.random.default_rng(7), symmetric=True)
    assert a.is_symmetric()
    assert np.array_equal(a.overlaps, b.overlaps)


def test_construct_flat_m1_worked_instance():
    # hand-executed construction: center at 0, mode energies -+1/sqrt(3),
    # both couplings 1/sqrt(3); modes ordered by ascending energy on ties
    model = construct_hamiltonian(flat_profile(1, 0.0, 1.0))
    assert np.allclose(model.eps, [0.0, -INV_SQRT3, INV_SQRT3], atol=1e-12)
    assert np.allclose(model.alpha.real, [INV_SQRT3, INV_SQRT3], atol=1e-12)
    assert np.all(model.alpha.imag == 0.0)

    d = eigh(build_hamiltonian(model))
    assert np.allclose(d.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-10)
    assert np.allclose(d.zero_overlaps, 1.0 / 3.0, atol=1e-10)


def test_construct_head_energy_is_weighted_mean():
    # <0|H|0> expands to sum_m overlap_m * E_m
    rng = np.random.default_rng(17)
    for _ in range(10):
        m_half = int(rng.integers(1, 9))
        p = random_profile(m_half, rng.uniform(-2, 2), rng.uniform(0.5, 3.0), rng)
        model = construct_hamiltonian(p)
        assert model.eps[0] == pytest.approx(p.overlaps @ p.eigenvalues(), abs=1e-12)


def test_construct_preserves_trace():
    rng = np.random.default_rng(18)
    for _ in range(10):
        m_half = int(rng.integers(1, 17))
        p = random_profile(m_half, rng.uniform(-2, 2), rng.uniform(0.5, 3.0), rng)
        model = construct_hamiltonian(p)
        assert abs(model.eps.sum() - p.eigenvalues().sum()) < 1e-9


def test_construct_output_is_arrowhead_with_gauge_fixed():
    p = random_profile(6, 0.0, 1.0, np.random.default_rng(19), symmetric=True)
    model = construct_hamiltonian(p)
    assert np.all(model.alpha.real >= 0.0)
    assert np.all(model.alpha.imag == 0.0)
    # descending couplings, ties broken by ascending energy
    assert np.all(np.diff(model.alpha.real) <= 1e-15)
    h = build_hamiltonian(model)
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    off[0, :] = 0.0
    off[:, 0] = 0.0
    assert np.all(off == 0.0)


def test_construct_deterministic():
    p = random_profile(8, 0.5, 2.0, np.random.default_rng(23))
    a = construct_hamiltonian(p)
    b = construct_hamiltonian(p)
    assert a.eps.tobytes() == b.eps.tobytes()
    assert a.alpha.tobytes() == b.alpha.tobytes()


def test_construct_round_trip_random_profiles():
    rng = np.random.default_rng(31)
    for trial in range(20):
        m_half = int(rng.integers(1, 17))
        p = random_profile(
            m_half,
            rng.uniform(-2.0, 2.0),
            rng.uniform(0.5, 3.0),
            rng,
            symmetric=bool(trial % 2),
        )
        report = verify_round_trip(construct_hamiltonian(p), p, 1e-8)
        assert report.passed, report


def test_construct_survives_tiny_but_positive_weight():
    delta = 1e-6
    overlaps = np.array([0.5, delta, 0.5 - delta])
    p = SpectralProfile(1, 0.0, 1.0, overlaps)
    report = verify_round_trip(construct_hamiltonian(p), p, 1e-8)
    assert report.passed


def test_construct_rejects_numerically_zero_weight():
    # 1e-30 passes the positivity check but cannot span the space,
    # wherever on the ladder it sits
    for idx in range(3):  # m = -1, 0, +1
        overlaps = np.full(3, 0.5)
        overlaps[idx] = 1e-30
        p = SpectralProfile(1, 0.0, 1.0, overlaps)
        with pytest.raises(DegenerateProfile):
            construct_hamiltonian(p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m_half=st.integers(1, 12),
    eps0=st.floats(-2.0, 2.0),
    d_width=st.floats(0.5, 3.0),
    data=st.data(),
)
def test_construct_property_interlacing_mean_round_trip(m_half, eps0, d_width, data):
    # weights spanning twelve decades, 1e-12 .. 1 before normalization
    exponents = data.draw(
        st.lists(st.floats(-12.0, 0.0), min_size=2 * m_half + 1, max_size=2 * m_half + 1)
    )
    w = 10.0 ** np.array(exponents)
    p = SpectralProfile(m_half, eps0, d_width, w / w.sum())
    model = construct_hamiltonian(p)
    ladder = p.eigenvalues()
    tol = 1e-12 * (abs(eps0) + d_width)
    modes = np.sort(model.eps[1:])
    assert np.all(ladder[:-1] - tol <= modes) and np.all(modes <= ladder[1:] + tol)
    assert model.eps[0] == pytest.approx(p.overlaps @ ladder, abs=tol)
    report = verify_round_trip(model, p, 1e-8)
    assert report.passed, report


def test_verify_round_trip_self_consistency():
    p = flat_profile(1, 0.0, 1.0)
    report = verify_round_trip(construct_hamiltonian(p), p, 1e-8)
    assert report.passed
    assert report.max_eigenvalue_error < 1e-12
    assert report.max_overlap_error < 1e-12


def test_verify_round_trip_rejects_decoupled_model():
    p = flat_profile(1, 0.0, 1.0)
    # right spectrum, wrong weights: everything sits on one eigenstate
    aligned = StarModel(eps=np.array([-1.0, 0.0, 1.0]), alpha=np.zeros(2))
    report = verify_round_trip(aligned, p, 1e-8)
    assert not report.passed
    assert report.max_overlap_error > 0.5
    # wrong spectrum too
    collapsed = StarModel(eps=np.zeros(3), alpha=np.zeros(2))
    report = verify_round_trip(collapsed, p, 1e-8)
    assert not report.passed
    assert report.max_eigenvalue_error > 0.5


def test_verify_round_trip_dimension_check():
    with pytest.raises(DimensionMismatch):
        verify_round_trip(
            StarModel(eps=np.zeros(2), alpha=np.zeros(1)), flat_profile(1, 0.0, 1.0), 1e-8
        )
