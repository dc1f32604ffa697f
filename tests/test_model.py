import numpy as np
import pytest

from staremit import (
    StarModel,
    aggregate_degenerate,
    build_hamiltonian,
    detuned_two_level_survival,
    eigh,
    identical_modes_spectrum,
    identical_modes_survival,
    survival_probability,
    two_level_survival,
)

from helpers import random_star_model


def test_star_model_validation():
    with pytest.raises(ValueError):
        StarModel(eps=np.zeros(3), alpha=np.zeros(1))  # length mismatch
    with pytest.raises(ValueError):
        StarModel(eps=np.zeros(1), alpha=np.zeros(0))  # no modes
    with pytest.raises(ValueError):
        StarModel(eps=np.array([0.0, np.inf]), alpha=np.array([1.0]))


def test_star_model_json_round_trip():
    m = StarModel(eps=np.array([0.1, -0.2, 0.3]), alpha=np.array([1.0 + 2.0j, -0.5j]))
    again = StarModel.from_dict(m.to_dict())
    assert np.array_equal(again.eps, m.eps)
    assert np.array_equal(again.alpha, m.alpha)
    # JSON integers are numbers too, read as floats
    ints = StarModel.from_dict({"eps": [1, 0.5], "alpha_re": [2], "alpha_im": [0]})
    assert ints.eps.tolist() == [1.0, 0.5] and ints.alpha.tolist() == [2.0]


_GOOD_MODEL = {"eps": [0.1, -0.2], "alpha_re": [1.0], "alpha_im": [0.5]}


@pytest.mark.parametrize("field, value", [
    ("eps", ["1e3", 0.5]), ("eps", [0.1, True]), ("eps", "0.1,-0.2"), ("eps", 0.1),
    ("eps", {"0": 0.1, "1": -0.2}), ("eps", [0.1, None]), ("eps", [0.1, [0.5]]),
    ("alpha_re", ["2"]), ("alpha_re", [False]), ("alpha_re", 1.0),
    ("alpha_im", [True]), ("alpha_im", ["0.5"]), ("alpha_im", None),
])
def test_star_model_from_dict_refuses_fields_of_the_wrong_type(field, value):
    # json loads what it reads as is; float() would turn "1e3" into 1000.0
    # and true into 1.0
    data = {**_GOOD_MODEL, field: value}
    with pytest.raises(ValueError, match=rf"^{field}(\[\d\])? must be "):
        StarModel.from_dict(data)
    with pytest.raises(TypeError):
        StarModel.from_dict(data)


def test_star_model_from_dict_checks_lengths_and_fields():
    with pytest.raises(ValueError, match="equal length"):
        StarModel.from_dict({**_GOOD_MODEL, "alpha_im": [0.5, 0.5]})
    with pytest.raises(KeyError):
        StarModel.from_dict({"eps": [0.1, -0.2], "alpha_re": [1.0]})


def test_build_hamiltonian_two_level():
    a = 0.6 + 0.8j
    h = build_hamiltonian(StarModel(eps=np.array([2.0, 2.0]), alpha=np.array([a])))
    # coupling sits in the first column, its conjugate in the first row
    assert h[1, 0] == a and h[0, 1] == np.conj(a)
    assert h[0, 0] == 2.0 and h[1, 1] == 2.0


def test_build_hamiltonian_real_coupling_matches_symmetric_form():
    h = build_hamiltonian(StarModel(eps=np.array([1.0, 1.0]), alpha=np.array([0.5])))
    assert np.array_equal(h, np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))


def test_build_hamiltonian_arrowhead_pattern():
    m = StarModel(eps=np.arange(5.0), alpha=np.array([1.0, 2.0j, -3.0, 0.5j]))
    h = build_hamiltonian(m)
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    off[0, :] = 0.0
    off[:, 0] = 0.0
    assert np.all(off == 0.0)  # exact zeros away from the arrowhead


def test_decoupled_model_never_decays():
    m = StarModel(eps=np.array([0.3, -1.0, 2.0]), alpha=np.zeros(2))
    d = eigh(build_hamiltonian(m))
    ts = np.linspace(0.0, 30.0, 400)
    assert np.abs(survival_probability(d, ts) - 1.0).max() < 1e-12


def test_two_level_survival_values():
    assert two_level_survival(1.0, 0.0) == 1.0
    assert two_level_survival(1.0, np.pi / 2) < 1e-15
    assert two_level_survival(0.5, np.pi) < 1e-15


def test_detuned_reduces_to_resonant_on_resonance():
    ts = np.linspace(0.0, 15.0, 500)
    got = detuned_two_level_survival(0.7, 0.7, 0.9, ts)
    assert np.abs(got - two_level_survival(0.9, ts)).max() < 1e-14


def test_detuned_min_matches_scan_oracle():
    # dense scan of the numerically evolved 2x2 found min P = 1/2
    ts = np.linspace(0.0, 50.0, 200001)
    vals = detuned_two_level_survival(0.0, 2.0, 1.0, ts)
    assert abs(vals.min() - 0.5) < 1e-6


def test_detuned_matches_numerical_evolution():
    rng = np.random.default_rng(3)
    ts = np.linspace(0.0, 20.0, 1000)
    for _ in range(10):
        eps0, eps1 = rng.uniform(-2, 2, 2)
        alpha = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
        d = eigh(build_hamiltonian(StarModel(eps=np.array([eps0, eps1]), alpha=np.array([alpha]))))
        assert np.abs(
            survival_probability(d, ts) - detuned_two_level_survival(eps0, eps1, alpha, ts)
        ).max() < 1e-10


def test_detuned_floor_is_positive_off_resonance():
    rng = np.random.default_rng(4)
    ts = np.linspace(0.0, 60.0, 50001)
    for _ in range(8):
        eps0, eps1 = rng.uniform(-2, 2, 2)
        if abs(eps1 - eps0) < 0.1:
            eps1 = eps0 + 0.5
        alpha = rng.uniform(0.2, 1.5)
        delta = 0.5 * (eps1 - eps0)
        floor = delta**2 / (abs(alpha) ** 2 + delta**2)
        d = eigh(build_hamiltonian(StarModel(eps=np.array([eps0, eps1]), alpha=np.array([alpha]))))
        scanned = survival_probability(d, ts).min()
        assert scanned > 0.0
        assert abs(scanned - floor) < 1e-4


def test_identical_modes_survival_values():
    ts = np.linspace(0.0, 10.0, 200)
    assert np.abs(identical_modes_survival(1, 0.8, ts) - two_level_survival(0.8, ts)).max() < 1e-15
    assert identical_modes_survival(4, 1.0, np.pi / 4) < 1e-15
    assert np.abs(identical_modes_survival(9, 1.0, ts) - two_level_survival(3.0, ts)).max() < 1e-12


@pytest.mark.parametrize("eps1", [1e-9, 1e-8, 1e-6, 0.3])
def test_detuned_floor_keeps_its_digits(eps1):
    # at Omega t = pi/2 the law is its floor Delta^2 / Omega^2, to the last
    # digits however small the floor is
    delta = 0.5 * eps1
    omega = np.sqrt(1.0 + delta * delta)
    floor = delta * delta / omega**2
    got = detuned_two_level_survival(0.0, eps1, 1.0, np.pi / (2.0 * omega))
    assert abs(got - floor) <= 1e-12 * floor


def test_resonant_laws_are_cos2_bit_for_bit():
    # on resonance the law never squares |alpha|: it is cos^2 bit for bit
    ts = np.linspace(-7.0, 31.0, 1001)
    for a in (0.3, 1.0, -2.7, 1e-170, -1e-170, 1e150, -1e150, 0.0):
        assert np.array_equal(two_level_survival(a, ts), np.cos(a * ts) ** 2)
        assert np.array_equal(detuned_two_level_survival(0.7, 0.7, a, ts), np.cos(abs(a) * ts) ** 2)
        for n in (1, 2, 9, 100000):
            assert np.array_equal(identical_modes_survival(n, a, ts), np.cos(np.sqrt(n) * a * ts) ** 2)


def test_detuned_law_exact_values_and_range():
    # P(0) = 1 and a decoupled atom stays at 1, both exactly, and every
    # value lies in [0, 1], over drawn detuned parameters
    rng = np.random.default_rng(26)
    ts = np.concatenate(([0.0], rng.uniform(0.0, 50.0, 63)))
    for _ in range(2000):
        eps0, eps1 = rng.uniform(-3.0, 3.0, 2) * 10.0 ** rng.uniform(-9.0, 2.0, 2)
        alpha = complex(*rng.uniform(-2.0, 2.0, 2)) * 10.0 ** rng.uniform(-5.0, 5.0)
        p = detuned_two_level_survival(eps0, eps1, alpha, ts)
        assert p[0] == 1.0 and detuned_two_level_survival(eps0, eps1, alpha, 0.0) == 1.0
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(detuned_two_level_survival(eps0, eps1, 0.0, ts) == 1.0)


def test_identical_modes_survival_rejects_zero_modes():
    with pytest.raises(ValueError):
        identical_modes_survival(0, 1.0, 0.0)


@pytest.mark.parametrize("n,eps0,alpha", [(4, 0.0, 1.0), (1, 1.5, 0.5), (9, -0.3, 0.7j)])
def test_identical_modes_spectrum_matches_eigh(n, eps0, alpha):
    summary = identical_modes_spectrum(n, eps0, alpha)
    m = StarModel(eps=np.full(n + 1, eps0), alpha=np.full(n, alpha, dtype=complex))
    d = eigh(build_hamiltonian(m))
    split = np.sqrt(n) * abs(alpha)
    expected = np.sort(np.concatenate(([eps0 - split, eps0 + split], np.full(n - 1, eps0))))
    assert np.allclose(d.eigenvalues, expected, atol=1e-12)
    assert summary.bright == pytest.approx((eps0 - split, eps0 + split))
    assert summary.dark_count == n - 1
    levels, weights = aggregate_degenerate(d.eigenvalues, d.zero_overlaps)
    bright_weights = weights[np.abs(levels - eps0) > 1e-9] if n > 1 else weights
    assert np.allclose(bright_weights, 0.5, atol=1e-12)


def test_analytic_numeric_agreement_identical_modes():
    ts = np.linspace(0.0, 20.0, 1000)
    for n, alpha in [(2, 0.6), (5, 1.0)]:
        m = StarModel(eps=np.zeros(n + 1), alpha=np.full(n, alpha, dtype=complex))
        d = eigh(build_hamiltonian(m))
        assert np.abs(
            survival_probability(d, ts) - identical_modes_survival(n, alpha, ts)
        ).max() < 1e-10


def test_overlaps_sum_to_one_random_models():
    rng = np.random.default_rng(12)
    for _ in range(30):
        d = eigh(build_hamiltonian(random_star_model(rng)))
        assert abs(d.zero_overlaps.sum() - 1.0) <= 1e-12


def test_gauge_invariance_of_spectrum_and_overlaps():
    rng = np.random.default_rng(21)
    ts = np.linspace(0.0, 10.0, 50)
    for _ in range(20):
        m = random_star_model(rng)
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, m.n_modes))
        rotated = StarModel(eps=m.eps, alpha=m.alpha * phases)
        d0 = eigh(build_hamiltonian(m))
        d1 = eigh(build_hamiltonian(rotated))
        assert np.abs(d0.eigenvalues - d1.eigenvalues).max() < 1e-10
        _, w0 = aggregate_degenerate(d0.eigenvalues, d0.zero_overlaps)
        _, w1 = aggregate_degenerate(d1.eigenvalues, d1.zero_overlaps)
        assert w0.size == w1.size
        assert np.abs(w0 - w1).max() < 1e-10
        assert np.abs(
            survival_probability(d0, ts) - survival_probability(d1, ts)
        ).max() < 1e-10


def test_global_energy_shift_covariance():
    rng = np.random.default_rng(22)
    for _ in range(20):
        m = random_star_model(rng)
        c = rng.uniform(-3.0, 3.0)
        shifted = StarModel(eps=m.eps + c, alpha=m.alpha)
        d0 = eigh(build_hamiltonian(m))
        d1 = eigh(build_hamiltonian(shifted))
        assert np.abs(d1.eigenvalues - (d0.eigenvalues + c)).max() < 1e-10
        _, w0 = aggregate_degenerate(d0.eigenvalues, d0.zero_overlaps)
        _, w1 = aggregate_degenerate(d1.eigenvalues, d1.zero_overlaps)
        assert np.abs(w0 - w1).max() < 1e-10
