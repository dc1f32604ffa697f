import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from staremit import hermitian, inverse
from staremit.cli import main

from helpers import solver_rows

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


@pytest.mark.parametrize("eps0", [np.nan, np.inf, -np.inf])
def test_profile_rejects_non_finite_eps0(eps0):
    # a NaN or inf centre makes every level NaN or inf; it is refused like
    # a bad width, also when read from JSON, whose NaN and Infinity Python
    # reads as floats
    with pytest.raises(ValueError, match="eps0 must be finite"):
        SpectralProfile(1, eps0, 1.0, np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError, match="eps0 must be finite"):
        flat_profile(2, eps0, 1.0)
    with pytest.raises(ValueError, match="eps0 must be finite"):
        random_profile(2, eps0, 1.0, np.random.default_rng(0))
    data = json.loads(json.dumps({"m_half": 1, "eps0": eps0, "d_width": 1.0,
                                  "overlaps": [0.25, 0.5, 0.25]}))
    with pytest.raises(ValueError, match="eps0 must be finite"):
        SpectralProfile.from_dict(data)


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


def _dense_reference(model):
    # eigenvalues and squared first components of the eigenvectors of the
    # real arrowhead, by LAPACK on the matrix scaled by an exact power of two
    dim = model.dim
    h = np.zeros((dim, dim))
    h[np.diag_indices(dim)] = model.eps
    h[1:, 0] = h[0, 1:] = model.alpha.real
    k = int(np.frexp(np.abs(h).max())[1])
    e, v = np.linalg.eigh(np.ldexp(h, -k))
    return np.ldexp(e, k), v[0] ** 2


def _check_construction(p):
    # tolerances relative to the energy scale |eps0| + d_width
    model = construct_hamiltonian(p)
    ladder = p.eigenvalues()
    scale = abs(p.eps0) + p.d_width
    tol = 1e-12 * scale
    modes = np.sort(model.eps[1:])
    assert np.all(ladder[:-1] - tol <= modes) and np.all(modes <= ladder[1:] + tol)
    assert model.eps[0] == pytest.approx(p.overlaps @ ladder, abs=tol)
    # an independent solver: LAPACK on the dense real arrowhead
    e, w = _dense_reference(model)
    assert np.abs(e - ladder).max() <= tol
    assert np.abs(w - p.overlaps).max() <= tol / p.d_width
    report = verify_round_trip(model, p, 1e-8)
    assert report.max_eigenvalue_error <= 1e-8 * scale, report
    assert report.max_overlap_error <= 1e-8, report
    return report


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
    report = _check_construction(SpectralProfile(m_half, eps0, d_width, w / w.sum()))
    assert report.passed, report


@pytest.mark.parametrize(
    "m_half, eps0, d_width", [(50, 0.0, 1e-300), (50, 0.0, 1e300), (20, 1e6, 1.0)]
)
def test_construct_extreme_scales(m_half, eps0, d_width):
    # the roots are found on the centred ladder scaled by a power of two, so
    # neither a tiny or huge width nor a large offset costs accuracy
    w = 10.0 ** np.random.default_rng(m_half).uniform(-12.0, 0.0, 2 * m_half + 1)
    _check_construction(SpectralProfile(m_half, eps0, d_width, w / w.sum()))


@pytest.mark.parametrize("m_half", [1, 5, 50])
@pytest.mark.parametrize("where", ["-M", "0", "+M"])
def test_construct_weight_near_min_weight(m_half, where):
    # the other weights are flat. At an outer level the root next to it
    # lies within about 1e-24 of it, below the level's own rounding; at the
    # centre two roots lie about 1e-12 either side of it, where the secular
    # function cancels and they carry relative errors of order 1e-5. Couplings
    # computed from those rounded roots by Löwner's formula still reproduce
    # the ladder and the weights; 1 / sum_m w_m / (root - E_m)^2 misses the
    # eigenvalues by 1e-7 (M = 50) to 3e-5 (M = 1) there.
    idx = {"-M": 0, "0": m_half, "+M": 2 * m_half}[where]
    w = np.full(2 * m_half + 1, 1.0 / (2 * m_half))
    w[idx] = 2e-24
    p = SpectralProfile(m_half, 0.0, 1.0, w)
    model = construct_hamiltonian(p)
    assert verify_round_trip(model, p, 1e-8).passed
    e, weights = _dense_reference(model)
    assert np.abs(e - p.eigenvalues()).max() <= 1e-12
    assert np.abs(weights - w).max() <= 1e-12


def test_inverse_never_calls_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    for p in (flat_profile(1, 0.0, 1.0), random_profile(40, 0.5, 2.0, np.random.default_rng(4))):
        assert verify_round_trip(construct_hamiltonian(p), p, 1e-8).passed


def test_verify_round_trip_is_gauge_invariant():
    # the report depends on the couplings only through |alpha|
    rng = np.random.default_rng(29)
    p = random_profile(20, 0.3, 1.5, rng)
    model = construct_hamiltonian(p)
    report = verify_round_trip(model, p, 1e-8)
    assert report.passed
    phase = np.exp(2j * np.pi * rng.uniform(size=model.n_modes))
    gauged = StarModel(eps=model.eps, alpha=model.alpha * phase)
    real = StarModel(eps=model.eps, alpha=np.abs(gauged.alpha))
    assert verify_round_trip(gauged, p, 1e-8) == verify_round_trip(real, p, 1e-8)
    # quarter turns leave |alpha| exact, so the report is the original's
    turns = np.array([1.0, 1j, -1.0, -1j])[rng.integers(4, size=model.n_modes)]
    quarter = StarModel(eps=model.eps, alpha=model.alpha * turns)
    assert verify_round_trip(quarter, p, 1e-8) == report


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


@pytest.mark.parametrize("d_width", [1e-300, 1e-3, 1.0, 1e5, 1e308])
def test_verify_round_trip_verdict_is_relative_to_the_width(d_width):
    # the same profile in another energy unit gets the same verdicts: a
    # faithful model passes, a decoupled one (right levels, all weight on one
    # of them) and a collapsed one (all levels at the centre) fail
    p = flat_profile(3, 0.0, d_width)
    report = verify_round_trip(construct_hamiltonian(p), p, 1e-8)
    assert report.passed, report
    assert report.max_eigenvalue_error <= 1e-14 * d_width
    ladder = p.eigenvalues()
    decoupled = StarModel(eps=np.concatenate(([ladder[3]], np.delete(ladder, 3))),
                          alpha=np.zeros(6))
    report = verify_round_trip(decoupled, p, 1e-8)
    assert not report.passed and report.max_overlap_error > 0.5
    assert report.max_eigenvalue_error == 0.0
    collapsed = StarModel(eps=np.zeros(7), alpha=np.zeros(6))
    report = verify_round_trip(collapsed, p, 1e-8)
    assert not report.passed and report.max_eigenvalue_error == d_width
    # every level 2e-8 of the width too high: fails at tol 1e-8, passes at 3e-8
    model = construct_hamiltonian(p)
    shifted = StarModel(eps=model.eps + 2e-8 * d_width, alpha=model.alpha)
    assert not verify_round_trip(shifted, p, 1e-8).passed
    assert verify_round_trip(shifted, p, 3e-8).passed


def test_verify_round_trip_allows_the_rounding_of_a_far_centre():
    # at eps0 = 1e6 the ladder is rounded at 1.2e-10, above 1e-7 of d = 1e-3:
    # a faithful model passes on the rounding floor (8.9e-10 here), which
    # does not let a model whose levels are 2e-9 too high pass
    p = flat_profile(2, 1e6, 1e-3)
    model = construct_hamiltonian(p)
    report = verify_round_trip(model, p, 1e-7)
    assert report.passed, report
    assert report.max_eigenvalue_error > 1e-7 * p.d_width
    shifted = StarModel(eps=model.eps + 2e-6 * p.d_width, alpha=model.alpha)
    assert not verify_round_trip(shifted, p, 1e-7).passed


def _cold_report(model, p, tol):
    # the report of a cold re-check: eigh(model), every root from its
    # interval's midpoint and the eigenvector matrix built, put through the
    # same comparison
    cold = eigh(model)
    levels = cold.eigenvalues, cold.zero_overlaps
    with mock.patch.object(inverse, "_star_levels", lambda m, start: levels):
        return verify_round_trip(model, p, tol), cold


_FAMILIES = ("constructed", "shift-1/4", "shift-1/2", "shift-1", "mode-on-level",
             "decoupled", "partly-decoupled", "collapsed", "gauged")
_POLE_HIT = (1e6, 1.0)
_SCALES = ((0.0, 1.0), (-0.7, 2.5), _POLE_HIT, (1e6, 1e-3), (0.0, 1e-300), (0.0, 1e300))


def _family_model(kind, p, model, rng):
    ladder, m = p.eigenvalues(), p.m_half
    if kind.startswith("shift"):
        s = {"shift-1/4": 0.25, "shift-1/2": 0.5, "shift-1": 1.0}[kind]
        return StarModel(eps=model.eps + s * (p.d_width / m), alpha=model.alpha)
    if kind == "mode-on-level":
        # a pole exactly on a target: that target must not start a root
        eps = model.eps.copy()
        k = int(rng.integers(1, model.dim))
        eps[k] = ladder[np.argmin(np.abs(ladder - eps[k]))]
        return StarModel(eps=eps, alpha=model.alpha)
    if kind == "decoupled":
        return StarModel(eps=np.concatenate(([ladder[m]], np.delete(ladder, m))),
                         alpha=np.zeros(2 * m))
    if kind == "partly-decoupled":
        alpha = model.alpha.copy()
        alpha[rng.uniform(size=alpha.size) < 0.3] = 0.0
        return StarModel(eps=model.eps, alpha=alpha)
    if kind == "collapsed":
        return StarModel(eps=np.full(model.dim, p.eps0), alpha=np.zeros(model.n_modes))
    if kind == "gauged":
        return StarModel(eps=model.eps,
                         alpha=model.alpha * np.exp(2j * np.pi * rng.uniform(size=model.n_modes)))
    return model


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(_FAMILIES),
    scale=st.sampled_from(_SCALES),
    m_half=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
# test_construct_extreme_scales[20-1000000.0-1.0]: nine mode energies round
# exactly onto ladder levels, so nine targets sit on poles
@example(kind="constructed", scale=_POLE_HIT, m_half=20, seed=20)
def test_verify_round_trip_warm_start_matches_cold_solve(kind, scale, m_half, seed):
    # Verification starts each root at its target; a cold eigh(model) starts
    # it at its interval's midpoint. Both stop by the same convergence test
    # and keep each root as an offset from the same pole, so the roots agree
    # to a few ulps of the matrix scale |eps|max + |alpha| (at most 1.4 ulps
    # were seen over 3000 draws of these families; the bound is 8), and the
    # weights, from the same Löwner arithmetic on those roots, agree to a
    # few ulps of 1 (1.7e-15 seen; the bound is 64 eps). The verdicts are
    # the same.
    rng = np.random.default_rng(seed)
    eps0, d_width = scale
    w = 10.0 ** rng.uniform(-12.0, 0.0, 2 * m_half + 1)
    w /= w.sum()
    p = SpectralProfile(m_half, eps0, d_width, w)
    built = construct_hamiltonian(p)
    model = _family_model(kind, p, built, rng)
    ladder = p.eigenvalues()
    pole_hit = (kind, scale, m_half, seed) == ("constructed", _POLE_HIT, 20, 20)
    if kind == "mode-on-level" or pole_hit:
        assert np.intersect1d(model.eps[1:], ladder).size > 0
    for tol in (1e-8, 1e-7):
        report = verify_round_trip(model, p, tol)
        cold_report, cold = _cold_report(model, p, tol)
        assert report.passed == cold_report.passed
    if kind in ("constructed", "gauged") and scale != (1e6, 1e-3):
        # (at eps0 = 1e6 the ladder's rounding is 1e-6 of a spacing of 1e-4,
        # and weights can miss by more than 1e-7 on either path)
        assert report.passed
    # (a decoupled model puts all weight on the centre level)
    wrong = kind.startswith("shift") or kind == "collapsed" or kind == "decoupled" and w[m_half] < 0.5
    if wrong:
        assert not report.passed
    eigenvalues, weights = hermitian._star_levels(model, start=ladder)
    top = max(np.abs(model.eps).max(), np.abs(model.alpha).max()) or 1.0
    norm = np.abs(model.eps).max() + top * np.sqrt(np.sum((np.abs(model.alpha) / top) ** 2))
    eps = np.finfo(float).eps
    assert np.abs(eigenvalues - cold.eigenvalues).max() <= 8 * eps * norm
    assert np.abs(weights - cold.zero_overlaps).max() <= 64 * eps


@pytest.mark.parametrize("model_scale, d_width", [(1e-300, 1e10), (1e300, 1e-300)])
def test_verify_round_trip_of_a_model_at_another_scale(model_scale, d_width):
    # the targets, scaled with the model's entries, overflow or underflow:
    # no root starts from them, and the verdict is the cold re-check's
    p = flat_profile(2, 0.0, d_width)
    model = StarModel(eps=np.linspace(-1.0, 1.0, 5) * model_scale, alpha=np.full(4, model_scale))
    report = verify_round_trip(model, p, 1e-8)
    assert not report.passed
    assert report == _cold_report(model, p, 1e-8)[0]


def _sweeps(model, p):
    # roots evaluated in each solver sweep of verify_round_trip
    rows, report = solver_rows(verify_round_trip, model, p, 1e-8)
    assert report.passed
    return rows


def test_verify_round_trip_of_a_faithful_model_takes_one_sweep():
    # at eps0 = 0 the ladder is the constructed model's own, and the targets
    # pass the solver's convergence test as they stand; at the largest size
    # the benchmark constructs, a few roots whose g at the target sits near
    # that test's bound are done by the size of their first step instead (a
    # cold solve takes seven sweeps of up to all 501 roots)
    for m_half in (1, 2, 5, 20, 40, 250):
        for p in (flat_profile(m_half, 0.0, 1.0),
                  random_profile(m_half, 0.0, 1.0, np.random.default_rng(m_half)),
                  random_profile(m_half, 0.0, 2.0, np.random.default_rng(m_half), symmetric=True)):
            assert _sweeps(construct_hamiltonian(p), p) == [p.dim]
    p = random_profile(250, 0.0, 1.0, np.random.default_rng(7))
    assert _sweeps(construct_hamiltonian(p), p) == [p.dim]


@pytest.mark.parametrize("eps0", [0.3, -1.5, 1.85])
def test_verify_round_trip_off_centre_takes_one_evaluation_per_root(eps0):
    # Off the centre the targets are rounded at the spacing of |E|, so a
    # root one ulp from its target fails the convergence test there; the
    # step from it is of the size of that ulp, ~1e-13 of the offset, and
    # below _START_STEP, so the root is done with it all the same (with the
    # convergence test alone, the seed-13 benchmark's dim-457 item took
    # sweeps of 457, 212 and 426 roots). A root whose offset from its pole
    # is a few thousand ulps of |E| still iterates: a few symmetric random
    # profiles at M = 228 have one or two.
    for m_half in (1, 2, 7, 20, 60, 114, 228, 250):
        for d_width in (0.7, 2.0):
            for p in (flat_profile(m_half, eps0, d_width),
                      random_profile(m_half, eps0, d_width, np.random.default_rng(m_half))):
                assert _sweeps(construct_hamiltonian(p), p) == [p.dim], (m_half, d_width)


def test_verify_round_trip_far_off_centre_still_iterates():
    # at eps0 = 1e6 and d = 1e-3 a target's rounding is ~1e-5 of its offset:
    # the first step is above _START_STEP, and the roots go on iterating
    p = flat_profile(20, 1e6, 1e-3)
    rows, report = solver_rows(verify_round_trip, construct_hamiltonian(p), p, 1e-7)
    assert report.passed
    assert rows[0] == p.dim and len(rows) > 1


@pytest.mark.parametrize(
    "profile, rows",
    [
        (flat_profile(40, -1.5, 2.0), [80, 80, 78, 46]),
        (random_profile(100, 0.3, 1.5, np.random.default_rng(5)), [200, 200, 198, 130, 39, 5, 2]),
        (random_profile(250, 0.0, 1.0, np.random.default_rng(7), symmetric=True),
         [500, 500, 500, 350, 96, 14, 2]),
    ],
    ids=["flat-40", "random-100", "symmetric-250"],
)
def test_construct_hamiltonian_row_counts_are_pinned(profile, rows):
    # the construction starts every root at its interval's midpoint; the
    # roots evaluated in each of its sweeps are pinned, so a change to the
    # step or the convergence tests that costs sweeps shows here
    assert solver_rows(construct_hamiltonian, profile)[0] == rows


def test_verify_round_trip_stores_no_eigenvector_rows(capsys):
    # the row-storing Löwner pass builds the eigenvector block; verification
    # needs only its column norms
    lowner_vectors = hermitian._lowner_vectors

    def norms_only(d, origin, tau, rank, out=None):
        if out is not None:
            raise AssertionError("eigenvector rows stored")
        return lowner_vectors(d, origin, tau, rank)

    with mock.patch.object(hermitian, "_lowner_vectors", norms_only):
        for p in (flat_profile(1, 0.0, 1.0),
                  random_profile(40, 0.5, 2.0, np.random.default_rng(4))):
            assert verify_round_trip(construct_hamiltonian(p), p, 1e-8).passed
        for argv in (["inverse", "--flat", "--m", "3"], ["inverse", "--m", "60", "--seed", "5"],
                     ["inverse", "--m", "40", "--seed", "2", "--symmetric", "--eps0", "1.5"]):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["report"]["passed"] is True


def test_verify_round_trip_memory_is_linear():
    # At dim 4001 the eigenvector matrix alone is 122 MiB, and eigh(model)
    # peaks at 123 MiB. Verification keeps arrays of length dim (32 KiB
    # each) and four row blocks of 2^15 entries (256 KiB each) beside the
    # solver's two 512 KiB work arrays: it measured 2.4 MiB. The budget is
    # 8 MiB.
    p = random_profile(2000, 0.3, 1.5, np.random.default_rng(4))
    model = construct_hamiltonian(p)
    tracemalloc.start()
    try:
        report = verify_round_trip(model, p, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 8 * 2**20, peak / 2**20
