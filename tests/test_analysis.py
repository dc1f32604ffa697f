import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staremit import (
    AsymmetricProfile,
    SpectralProfile,
    SurvivalSeries,
    ThresholdOutOfRange,
    TimeGrid,
    build_hamiltonian,
    construct_hamiltonian,
    dirichlet_survival,
    eigh,
    emission_metrics,
    flat_profile,
    fourier_coefficients,
    profile_survival,
    random_profile,
    revival_period,
    sqrt_survival_from_fourier,
    survival_probability,
)


def _flat_series(m_half, d_width, periods, samples, threshold=0.01):
    grid = TimeGrid(0.0, periods * revival_period(m_half, d_width), samples)
    values = profile_survival(flat_profile(m_half, 0.0, d_width), grid.times())
    return SurvivalSeries(grid=grid, values=values)


def test_fourier_coefficients_flat():
    f = fourier_coefficients(flat_profile(1, 0.0, 1.0))
    assert f.dc == pytest.approx(1.0 / 3.0)
    assert np.allclose(f.cosine_coeffs, [2.0 / 3.0])
    assert f.base_frequency == pytest.approx(1.0)

    f = fourier_coefficients(flat_profile(2, 0.0, 1.0))
    assert f.dc == pytest.approx(1.0 / 5.0)
    assert np.allclose(f.cosine_coeffs, [2.0 / 5.0, 2.0 / 5.0])
    assert f.base_frequency == pytest.approx(0.5)


def test_fourier_coefficients_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_profile(int(rng.integers(1, 12)), 0.0, 1.0, rng, symmetric=True)
        f = fourier_coefficients(p)
        assert f.dc + f.cosine_coeffs.sum() == pytest.approx(1.0, abs=1e-12)


def test_fourier_rejects_asymmetric_profile():
    overlaps = np.array([0.5, 0.3, 0.2])
    with pytest.raises(AsymmetricProfile):
        fourier_coefficients(SpectralProfile(1, 0.0, 1.0, overlaps))


def test_concentrated_profile_barely_moves():
    # nearly all weight on the stationary center level: P stays near 1
    m_half = 3
    delta = 1e-4
    overlaps = np.full(2 * m_half + 1, delta)
    overlaps[m_half] = 1.0 - 2 * m_half * delta
    p = SpectralProfile(m_half, 0.0, 1.0, overlaps)
    f = fourier_coefficients(p)
    assert f.dc > 0.999
    ts = np.linspace(0.0, 3 * revival_period(m_half, 1.0), 4001)
    floor = 2.0 * f.dc - 1.0
    assert sqrt_survival_from_fourier(f, ts).min() >= floor - 1e-12
    assert profile_survival(p, ts).min() >= floor**2 - 1e-12


def test_sqrt_survival_normalized_at_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = random_profile(int(rng.integers(1, 10)), 0.0, 2.0, rng, symmetric=True)
        assert sqrt_survival_from_fourier(fourier_coefficients(p), 0.0) == pytest.approx(
            1.0, abs=1e-12
        )


def test_sqrt_survival_flat_m1_at_pi():
    f = fourier_coefficients(flat_profile(1, 0.0, 1.0))
    # |1/3 + (2/3) cos(pi)| = 1/3, squaring to 1/9
    assert sqrt_survival_from_fourier(f, np.pi) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sqrt_survival_from_fourier(f, np.pi) ** 2 == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_survival_via_constructed_model_flat_m1_at_pi():
    d = eigh(build_hamiltonian(construct_hamiltonian(flat_profile(1, 0.0, 1.0))))
    assert survival_probability(d, np.pi) == pytest.approx(1.0 / 9.0, abs=1e-10)


def test_sqrt_survival_periodicity():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m_half = int(rng.integers(1, 9))
        p = random_profile(m_half, 0.0, 1.5, rng, symmetric=True)
        f = fourier_coefficients(p)
        period = revival_period(m_half, 1.5)
        ts = rng.uniform(0.0, period, 50)
        assert np.abs(
            sqrt_survival_from_fourier(f, ts + period) - sqrt_survival_from_fourier(f, ts)
        ).max() < 1e-9


def test_fourier_square_matches_constructed_model():
    rng = np.random.default_rng(5)
    ts = np.linspace(0.0, 25.0, 400)
    for _ in range(5):
        m_half = int(rng.integers(1, 9))
        p = random_profile(m_half, rng.uniform(-1, 1), rng.uniform(0.5, 2.0), rng, symmetric=True)
        d = eigh(build_hamiltonian(construct_hamiltonian(p)))
        via_fourier = sqrt_survival_from_fourier(fourier_coefficients(p), ts) ** 2
        assert np.abs(via_fourier - survival_probability(d, ts)).max() < 1e-8


def test_revival_period_values():
    assert revival_period(10, 2.0) == pytest.approx(10 * np.pi)
    assert revival_period(1, 2.0 * np.pi) == pytest.approx(1.0)
    for m_half in (1, 3, 17):
        assert revival_period(2 * m_half, 1.3) == pytest.approx(2 * revival_period(m_half, 1.3))


def test_dirichlet_survival_revivals_and_zero():
    for m_half in (1, 2, 5, 20):
        d_width = 1.0
        assert dirichlet_survival(m_half, d_width, 0.0) == pytest.approx(1.0)
        period = revival_period(m_half, d_width)
        assert dirichlet_survival(m_half, d_width, period) == pytest.approx(1.0, abs=1e-12)
        first_zero = 2 * np.pi * m_half / ((2 * m_half + 1) * d_width)
        assert dirichlet_survival(m_half, d_width, first_zero) < 1e-25
        # the direct spectral sum dips through the same node
        p = flat_profile(m_half, 0.0, d_width)
        assert profile_survival(p, first_zero) < 1e-20
        eps = 1e-3
        assert profile_survival(p, first_zero - eps) > profile_survival(p, first_zero)
        assert profile_survival(p, first_zero + eps) > profile_survival(p, first_zero)


def test_dirichlet_matches_direct_sum():
    for m_half in (1, 2, 5, 20):
        d_width = 1.0
        ts = np.linspace(0.0, 1.2 * revival_period(m_half, d_width), 4001)
        direct = profile_survival(flat_profile(m_half, 0.0, d_width), ts)
        closed = dirichlet_survival(m_half, d_width, ts)
        assert np.abs(direct - closed).max() < 1e-12


def test_emission_metrics_threshold_validation():
    s = _flat_series(2, 1.0, 1.2, 2001)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ThresholdOutOfRange):
            emission_metrics(s, bad)


def test_emission_metrics_requires_zero_start():
    grid = TimeGrid(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        emission_metrics(SurvivalSeries(grid=grid, values=np.ones(10)), 0.01)


def test_emission_metrics_constant_series():
    grid = TimeGrid(0.0, 10.0, 101)
    m = emission_metrics(SurvivalSeries(grid=grid, values=np.ones(101)), 0.01)
    assert m.decay_time is None
    assert m.revival_time is None
    assert m.post_decay_max is None
    assert m.window_fraction is None


def test_emission_metrics_flat_m20():
    m_half, d_width, threshold = 20, 1.0, 0.01
    s = _flat_series(m_half, d_width, 1.2, 30001)
    metrics = emission_metrics(s, threshold)
    period = revival_period(m_half, d_width)
    first_zero = 2 * np.pi * m_half / ((2 * m_half + 1) * d_width)
    # drops below threshold shortly before the kernel's first node
    assert metrics.decay_time is not None
    assert first_zero - 0.5 < metrics.decay_time < first_zero
    # revives at the period, within the width of the revival peak
    assert metrics.revival_time == pytest.approx(period, abs=0.3)
    # the post-decay maximum is capped by the revival detection level
    assert metrics.post_decay_max == pytest.approx(1.0 - threshold, abs=0.02)
    assert 0.0 < metrics.window_fraction < 0.15


def test_emission_metrics_without_revival_sees_sidelobes():
    # truncated before the revival: the max after decay is the first sidelobe
    m_half, d_width = 20, 1.0
    grid = TimeGrid(0.0, 0.5 * revival_period(m_half, d_width), 20001)
    values = profile_survival(flat_profile(m_half, 0.0, d_width), grid.times())
    metrics = emission_metrics(SurvivalSeries(grid=grid, values=values), 0.01)
    assert metrics.decay_time is not None
    assert metrics.revival_time is None
    assert metrics.window_fraction is None
    assert 0.02 < metrics.post_decay_max < 0.08


def test_window_fraction_shrinks_with_level_count():
    fractions = []
    for m_half in (2, 5, 10, 20, 40):
        s = _flat_series(m_half, 1.0, 1.2, 40001)
        fractions.append(emission_metrics(s, 0.01).window_fraction)
    assert all(f is not None for f in fractions)
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_decay_time_stable_while_period_grows():
    results = {}
    for m_half in (10, 40):
        s = _flat_series(m_half, 1.0, 1.1, 30001)
        m = emission_metrics(s, 0.01)
        results[m_half] = m
    d10, d40 = results[10].decay_time, results[40].decay_time
    assert abs(d40 - d10) / d10 < 0.10
    r10, r40 = results[10].revival_time, results[40].revival_time
    assert r40 / r10 == pytest.approx(4.0, rel=0.02)


def _metrics_by_sample(ts, vs, threshold):
    # per-sample reference: decay, armed revival scan, segment-by-segment window
    def crossing(k, level):
        return ts[k - 1] + (level - vs[k - 1]) / (vs[k] - vs[k - 1]) * (ts[k] - ts[k - 1])

    level = 1.0 - threshold
    decay = revival = peak = window = None
    i = next((k for k, v in enumerate(vs) if v < threshold), None)
    if i is not None:
        decay = ts[0] if i == 0 else crossing(i, threshold)
        armed = False
        for k in range(i, len(vs)):
            if armed and vs[k] > level:
                revival = crossing(k, level)
                break
            armed = armed or vs[k] <= level
        upper = np.inf if revival is None else revival
        inside = [v for t, v in zip(ts, vs) if decay < t < upper]
        peak = max(inside) if inside else None
    if revival is not None and revival > 0:
        above = 0.0
        for k in range(1, len(ts)):
            t0, t1, v0, v1 = ts[k - 1], ts[k], vs[k - 1], vs[k]
            if t0 >= revival:
                break
            if t1 > revival:
                v1 = v0 + (v1 - v0) * (revival - t0) / (t1 - t0)
                t1 = revival
            if v0 > threshold and v1 > threshold:
                above += t1 - t0
            elif v0 > threshold or v1 > threshold:
                tc = t0 + (threshold - v0) / (v1 - v0) * (t1 - t0)
                above += (t1 - tc) if v1 > threshold else (tc - t0)
        window = above / revival
    return decay, revival, peak, window


@st.composite
def _traces(draw):
    # samples often sit exactly on threshold or 1 - threshold, so traces
    # decay at t = 0, never revive, or revive exactly on a sample
    threshold = draw(st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.7]) | st.floats(0.001, 0.999))
    value = st.sampled_from([threshold, 1.0 - threshold, 0.0, 1.0]) | st.floats(0.0, 1.0)
    vs = draw(st.lists(value, min_size=2, max_size=40))
    grid = TimeGrid(0.0, draw(st.floats(0.01, 100.0)), len(vs))
    return SurvivalSeries(grid=grid, values=np.array(vs)), threshold


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_traces())
def test_emission_metrics_matches_per_sample_scan(case):
    series, threshold = case
    decay, revival, peak, window = _metrics_by_sample(
        series.times.tolist(), series.values.tolist(), threshold
    )
    m = emission_metrics(series, threshold)
    assert (m.decay_time, m.revival_time, m.post_decay_max) == (decay, revival, peak)
    if window is None:
        assert m.window_fraction is None
    else:
        assert m.window_fraction == pytest.approx(window, rel=0, abs=1e-12)
