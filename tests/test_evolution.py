import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staremit import (
    DimensionMismatch,
    StarModel,
    StepTooLarge,
    SurvivalSeries,
    TimeGrid,
    build_hamiltonian,
    eigh,
    evolve_oracle,
    evolve_state,
    survival_probability,
    survival_series,
    two_level_survival,
)

from staremit import _arrowhead
from staremit.evolution import _grid_amplitude, _phasors, _series_bytes

from helpers import random_hermitian, random_star_model, traced_peak


def _basis_state(dim, k=0):
    psi = np.zeros(dim, dtype=complex)
    psi[k] = 1.0
    return psi


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, np.inf, 10)


@pytest.mark.parametrize("values", [[1.0, 0.5, 0.0], np.ones(6), np.ones((5, 1)), 0.5],
                         ids=["short", "long", "column", "scalar"])
def test_survival_series_refuses_values_off_its_grid(values):
    # 3 of 5 values once wrote a 3-row CSV and made emission_metrics raise IndexError
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(np.shape(values)))} .*\(5,\)"):
        SurvivalSeries(TimeGrid(0.0, 1.0, 5), values)


def test_evolve_state_at_zero_time_is_identity():
    d = eigh(random_hermitian(np.random.default_rng(1), 5))
    psi = _basis_state(5)
    assert np.abs(evolve_state(d, psi, 0.0) - psi).max() < 1e-14


def test_evolve_state_diagonal_hamiltonian_only_rotates_phases():
    energies = np.array([0.5, -1.0, 2.0])
    d = eigh(np.diag(energies))
    psi = np.array([0.6, 0.8j, 0.0])
    out = evolve_state(d, psi, 1.7)
    assert np.abs(np.abs(out) - np.abs(psi)).max() < 1e-14
    expected = psi * np.exp(-1j * energies * 1.7)
    assert np.abs(out - expected).max() < 1e-12


def test_evolve_state_half_period_swap():
    # resonant pair at |alpha| = 1: after t = pi/2 the quantum sits on the mode
    d = eigh(build_hamiltonian(StarModel(eps=np.zeros(2), alpha=np.array([1.0]))))
    out = evolve_state(d, _basis_state(2), np.pi / 2)
    assert abs(out[0]) < 1e-12
    assert abs(abs(out[1]) - 1.0) < 1e-12


def test_evolve_state_dimension_mismatch():
    d = eigh(np.eye(3))
    with pytest.raises(DimensionMismatch):
        evolve_state(d, _basis_state(4), 1.0)


def test_evolve_state_unitary_and_composes():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dim = int(rng.integers(2, 8))
        d = eigh(random_hermitian(rng, dim))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        t1, t2 = rng.uniform(0.0, 5.0, 2)
        once = evolve_state(d, psi, t1 + t2)
        twice = evolve_state(d, evolve_state(d, psi, t1), t2)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-10
        assert np.abs(once - twice).max() < 1e-10


@pytest.mark.parametrize("dim", [2, 9, 200])
def test_evolve_state_real_eigenvectors_match_complex(dim):
    # a star with real non-negative couplings has real eigenvectors; given
    # as an array, a real V acts on the real and imaginary parts of the
    # state apart, and agrees with the same V as complex and with the star's
    # own propagation, which builds no V
    rng = np.random.default_rng(dim)
    d = eigh(StarModel(eps=rng.uniform(-1.0, 1.0, dim), alpha=rng.uniform(0.0, 1.0, dim - 1)))
    assert np.isrealobj(d.eigenvectors)
    as_real = type(d)(d.eigenvalues, d.eigenvectors, d.zero_overlaps)
    as_complex = type(d)(d.eigenvalues, d.eigenvectors.astype(complex), d.zero_overlaps)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for t in (0.0, 0.7, 13.0):
        want = evolve_state(as_complex, psi, t)
        for got in (evolve_state(as_real, psi, t), evolve_state(d, psi, t)):
            assert got.dtype == complex
            assert np.abs(got - want).max() < 1e-13 * np.linalg.norm(psi)


def _star_family(kind, dim, rng):
    # stars of every deflation shape: none, real couplings, one Householder
    # group, lone dark modes, groups beside bright modes, and no bright mode
    n = dim - 1
    eps = rng.uniform(-1.0, 1.0, dim)
    alpha = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    if kind == "real":
        alpha = np.abs(alpha)
    elif kind == "identical":
        eps, alpha = np.full(dim, 0.3), np.full(n, 0.7 * np.exp(0.4j))
    elif kind == "zero-couplings":
        alpha[rng.uniform(size=n) < 0.5] = 0.0
    elif kind == "mixed":
        eps = np.round(3.0 * eps) / 3.0
        alpha[rng.uniform(size=n) < 0.3] = 0.0
    elif kind == "decoupled":
        alpha = np.zeros(n, dtype=complex)
    return eps, alpha


@pytest.mark.parametrize("scale", [1.0, 2.0**600, 2.0**-600], ids=["1", "2^600", "2^-600"])
@pytest.mark.parametrize("kind", ["random", "real", "identical", "zero-couplings", "mixed", "decoupled"])
def test_star_evolve_state_matches_the_dense_product(kind, scale):
    # a star propagates from its solve's state, with no eigenvector matrix;
    # the dense product V exp(-iEt) V^H psi on the same decomposition's V,
    # given as an array, agrees to rounding for every deflation shape and
    # scale, from the emitter and from random states, at t = 0 too
    rng = np.random.default_rng(len(kind))
    for dim in (2, 3, 17, 130, 400):
        eps, alpha = _star_family(kind, dim, rng)
        d = eigh(StarModel(eps=eps * scale, alpha=alpha * scale))
        dense = type(d)(d.eigenvalues, d.eigenvectors, d.zero_overlaps)
        for psi in (_basis_state(dim), rng.normal(size=dim) + 1j * rng.normal(size=dim)):
            for t in (0.0, 0.7 / scale, 13.0 / scale):
                got = evolve_state(d, psi, t)
                assert np.abs(got - evolve_state(dense, psi, t)).max() <= 1e-13 * np.linalg.norm(psi)


def test_star_evolve_state_never_builds_its_eigenvectors(monkeypatch):
    # the builder of a star's eigenvectors is never reached, from a dense
    # star matrix or a StarModel, deflated or not
    def fail(*args):
        raise AssertionError("eigenvectors built")

    monkeypatch.setattr(_arrowhead, "_star_vectors", fail)
    rng = np.random.default_rng(4)
    for kind in ("random", "identical", "mixed", "decoupled"):
        model = StarModel(*_star_family(kind, 40, rng))
        for mat in (model, build_hamiltonian(model)):
            d = eigh(mat)
            psi = rng.normal(size=40) + 1j * rng.normal(size=40)
            assert abs(np.linalg.norm(evolve_state(d, psi, 2.5)) - np.linalg.norm(psi)) < 1e-12
    with pytest.raises(AssertionError, match="eigenvectors built"):
        d.eigenvectors


def test_star_evolve_state_runs_beyond_the_eigenvector_budget(monkeypatch):
    # a dim whose eigenvectors are refused still propagates: no n x n array
    dim = 50
    model = random_star_model(np.random.default_rng(5), dim)
    monkeypatch.setattr(_arrowhead, "_EIGH_BUDGET", 16 * dim**2 - 1)
    d = eigh(model)
    psi = evolve_state(d, _basis_state(dim), 1.3)
    assert abs(abs(psi[0]) ** 2 - survival_probability(d, 1.3)) < 1e-12
    with pytest.raises(ValueError, match=f"dim {dim} is too large"):
        d.eigenvectors


def test_star_evolve_state_holds_no_n_by_n_array():
    # three calls at dim 2049, whose complex eigenvectors would take 67 MB,
    # hold a row block of 2^15 entries and arrays of one entry per level:
    # 0.81 MB measured, against a bound of 3 % of that V
    dim = 2049
    rng = np.random.default_rng(dim)
    d = eigh(random_star_model(rng, dim))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    peak, states = traced_peak(lambda: [evolve_state(d, psi, t) for t in (1.0, 2.0, 3.0)])
    assert peak < 0.03 * 16 * dim**2, peak
    assert all(abs(np.linalg.norm(s) - np.linalg.norm(psi)) < 1e-10 for s in states)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_evolve_state_refuses_non_finite_input(bad):
    # no silent NaN: a non-finite time or state entry is refused, as
    # evolve_oracle refuses a bad step
    for d in (eigh(random_star_model(np.random.default_rng(6), 5)),
              eigh(random_hermitian(np.random.default_rng(6), 5))):
        with pytest.raises(ValueError, match="must be finite"):
            evolve_state(d, _basis_state(5), bad)
        psi = _basis_state(5)
        psi[3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            evolve_state(d, psi, 1.0)


def test_survival_probability_normalized_at_zero():
    d = eigh(random_hermitian(np.random.default_rng(3), 6))
    assert abs(survival_probability(d, 0.0) - 1.0) < 1e-12


def test_survival_probability_identical_modes_node():
    m = StarModel(eps=np.zeros(5), alpha=np.ones(4, dtype=complex))
    d = eigh(build_hamiltonian(m))
    assert survival_probability(d, np.pi / 4) < 1e-10


def test_survival_probability_matches_evolved_amplitude():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = eigh(build_hamiltonian(random_star_model(rng)))
        psi0 = _basis_state(d.dim)
        for t in rng.uniform(0.0, 10.0, 3):
            via_state = abs(evolve_state(d, psi0, t)[0]) ** 2
            assert abs(survival_probability(d, t) - via_state) < 1e-12


def test_survival_of_a_star_never_builds_its_eigenvectors(monkeypatch):
    # survival_probability reads the eigenvalues and weights that eigh's
    # solve forms; the builder of a star's eigenvectors is never reached
    def fail(*args):
        raise AssertionError("eigenvectors built")

    monkeypatch.setattr(_arrowhead, "_star_vectors", fail)
    ts = np.linspace(0.0, 8.0, 301)
    for model in (random_star_model(np.random.default_rng(2), 40),
                  StarModel(eps=np.full(9, 0.2), alpha=np.full(8, 0.5j))):
        assert survival_probability(eigh(model), ts).shape == ts.shape
        survival_series(eigh(model), TimeGrid(0.0, 8.0, 11))
    with pytest.raises(AssertionError, match="eigenvectors built"):
        eigh(model).eigenvectors


def test_survival_of_a_large_star_is_linear_in_n():
    # At n = 100000 eigh's eigenvector matrix alone would take 74.5 GiB and
    # is never built: the solve keeps arrays of length n, and the survival
    # kernel on a uniform grid of S samples holds at most four complex
    # arrays of n x ceil(sqrt(S)) at once (67.3 MiB measured here, at
    # S = 101). The budget is five such arrays: O(n sqrt(S)), 84 MiB.
    n, samples = 100_000, 101
    model = StarModel(eps=np.zeros(n + 1), alpha=np.full(n, 1.0, dtype=complex))
    ts = np.linspace(0.0, 20.0, samples)
    budget = 5 * 16 * (n + 1) * (math.isqrt(samples - 1) + 1)
    peak, p = traced_peak(lambda: survival_probability(eigh(model), ts))
    assert np.abs(p - np.cos(math.sqrt(n) * ts) ** 2).max() < 1e-10
    assert peak <= budget, peak / 2**20


def test_survival_on_non_uniform_times_holds_the_grid_paths_memory():
    # sorted non-uniform times take the direct sum, which runs in blocks of
    # ceil(sqrt(S)) samples like the grid path, so it holds no more than the
    # grid path's four complex levels x ceil(sqrt(S)) arrays (about 2.2 MiB
    # here), without the per-level and per-sample terms of the series count
    levels, samples = 501, 5000
    rng = np.random.default_rng(5)
    d = eigh(random_star_model(rng, levels))
    ts = np.sort(rng.uniform(0.0, 50.0, samples))
    peak, p = traced_peak(survival_probability, d, ts)
    assert peak < 4 * 16 * levels * (math.isqrt(samples - 1) + 1), peak / 2**20
    assert _grid_amplitude(d.eigenvalues, d.zero_overlaps, ts) is None
    assert np.abs(p[::97] - _scalar_calls(d, ts[::97])).max() < 1e-12


def test_survival_on_a_uniform_grid_holds_the_cli_guards_memory():
    # the grid path, at the size of the non-uniform test above. Its four
    # n x ceil(sqrt(S)) complex arrays are alive beside numpy's ufunc
    # buffers (two of np.getbufsize() complex entries, 256 KiB, when an
    # operand is broadcast or strided) and the S-length residual, which at
    # this size take it 8 % past the kernel term (2.46 against 2.28 MB)
    # but not past the whole series count that the CLI refuses by
    levels, samples = 501, 5000
    d = eigh(random_star_model(np.random.default_rng(5), levels))
    ts = np.linspace(0.0, 50.0, samples)
    peak, p = traced_peak(survival_probability, d, ts)
    assert peak < _series_bytes(levels, samples), peak / 2**20
    assert _grid_amplitude(d.eigenvalues, d.zero_overlaps, ts) is not None
    assert np.abs(p[::97] - _scalar_calls(d, ts[::97])).max() < 1e-12


# The largest count / peak measured from 4 MB of count up was 3.48, at 160
# levels and 100592 non-uniform samples: the direct sum holds 32 bytes a
# sample where 80 are counted, beside its levels x ceil(sqrt(S)) blocks.
_LOOSENESS = 4.0


@st.composite
def _series_sizes(draw):
    # (levels, samples, grid) with levels in 2..2001 and samples spread
    # evenly in log over 2..1e6; the direct sum costs levels x samples
    # exponentials and the grid path about 2 levels x samples multiply-adds,
    # so their product is capped to keep each example under about a second
    grid = draw(st.sampled_from(["uniform", "non-uniform", "direct"]))
    levels = draw(st.integers(2, 2001))
    cap = min(10**6, (2 * 10**8 if grid == "uniform" else 2 * 10**7) // levels)
    return levels, round(cap ** draw(st.floats(math.log(2, cap), 1.0))), grid


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_series_sizes())
@example((3, 10**6, "uniform"))
@example((3, 10**5, "direct"))
@example((501, 5000, "uniform"))
def test_series_count_bounds_the_kernels_peak(size):
    # the count that the CLI refuses by is never short of the tracemalloc
    # peak of survival_probability, on either path: the grid path holds
    # about 48 bytes a sample and the direct sum, which non-uniform times
    # and levels near 1e12 take, about 32, so 80 cover both. Below 16 KiB
    # of count a few KB of fixed overhead dominate. From 4 MB up the count
    # is also at most _LOOSENESS times the peak, so it cannot drift loose
    levels, samples, grid = size
    rng = np.random.default_rng(levels)
    model = random_star_model(rng, levels)
    d = eigh(StarModel(eps=model.eps + (1e12 if grid == "direct" else 0.0), alpha=model.alpha))
    if grid == "non-uniform":
        ts = np.sort(rng.uniform(0.0, 50.0, samples))
    else:
        # from 1/3, no time splits exactly into coarse and fine, as some
        # from 0 do (at 3, 5 or 4097 samples): levels near 1e12 then always
        # fail the grid path's residual test
        ts = np.linspace(1 / 3, 50.0, samples)
    peak, _ = traced_peak(survival_probability, d, ts)
    count = _series_bytes(levels, samples)
    if count >= 16 * 2**10:
        assert peak <= count, (peak, count)
    if count >= 4 * 10**6:
        assert count <= _LOOSENESS * peak, count / peak
    direct = grid != "uniform" or samples < 3
    assert (_grid_amplitude(d.eigenvalues, d.zero_overlaps, ts) is None) == direct


@pytest.mark.parametrize("levels, samples, eps0", [(3, 10**6, 0.0), (3, 10**5, 1e12), (501, 5000, 0.0)],
                         ids=["grid", "direct", "many-levels"])
def test_series_count_covers_the_per_sample_arrays(levels, samples, eps0):
    # the grid path holds about 48 bytes a sample (45.9 MiB at 3 levels and
    # 1e6 samples) and the direct sum, which levels near 1e12 take, about 32
    # (3.1 MiB at 1e5 samples): the count covers either, and the many
    # levels whose per-level terms dominate
    model = random_star_model(np.random.default_rng(levels), levels)
    d = eigh(StarModel(eps=model.eps + eps0, alpha=model.alpha))
    ts = np.linspace(0.0, 50.0, samples)
    peak, _ = traced_peak(survival_probability, d, ts)
    assert peak <= _series_bytes(levels, samples), peak / 2**20
    assert (_grid_amplitude(d.eigenvalues, d.zero_overlaps, ts) is None) == (eps0 != 0)


def test_survival_series_constant_for_decoupled_model():
    m = StarModel(eps=np.array([1.0, -1.0, 0.5]), alpha=np.zeros(2))
    s = survival_series(eigh(build_hamiltonian(m)), TimeGrid(0.0, 10.0, 101))
    assert np.abs(s.values - 1.0).max() < 1e-12


def test_survival_series_matches_closed_form():
    d = eigh(build_hamiltonian(StarModel(eps=np.zeros(2), alpha=np.array([0.8]))))
    grid = TimeGrid(0.0, 12.0, 500)
    s = survival_series(d, grid)
    assert np.abs(s.values - two_level_survival(0.8, grid.times())).max() < 1e-10
    assert s.values[0] == pytest.approx(1.0, abs=1e-12)


def test_survival_series_values_bounded():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = eigh(build_hamiltonian(random_star_model(rng)))
        s = survival_series(d, TimeGrid(0.0, 20.0, 200))
        assert np.all(s.values >= 0.0) and np.all(s.values <= 1.0)


def test_series_csv_format():
    grid = TimeGrid(0.0, 1.0, 3)
    s = SurvivalSeries(grid=grid, values=np.array([1.0, 0.25, 0.5]))
    text = s.to_csv()
    lines = text.split("\n")
    assert lines[0] == "t,P"
    assert lines[-1] == ""  # trailing LF
    assert "\r" not in text
    # 12 significant digits in scientific notation
    assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d{2,3}", lines[1].split(",")[1])
    parsed = np.array([row.split(",") for row in lines[1:-1]], dtype=float)
    assert np.abs(parsed[:, 0] - grid.times()).max() < 1e-9
    assert np.abs(parsed[:, 1] - s.values).max() < 1e-9
    # byte-exact against a row-by-row reference rendering
    assert text == "t,P\n" + "".join(
        f"{t:.11e},{p:.11e}\n" for t, p in zip(grid.times(), s.values)
    )


# grid lengths around the coarse x fine split (nb = ceil(sqrt(S))), plus
# the shortest grids that take it
_GRID_SAMPLES = st.sampled_from([3, 4, 5, 35, 36, 37, 1023, 1024, 1025]) | st.integers(3, 1500)


def _grid_case(seed, samples):
    # a random star model and a uniform grid with t0 != 0, in either direction
    rng = np.random.default_rng(seed)
    d = eigh(build_hamiltonian(random_star_model(rng, max_dim=30)))
    t0, t1 = rng.uniform(-150.0, 150.0, 2)
    return d, np.linspace(t0, t1, samples)


def _scalar_calls(d, ts):
    return np.array([survival_probability(d, float(t)) for t in ts])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), _GRID_SAMPLES)
def test_survival_on_uniform_grid_matches_scalar_calls(seed, samples):
    d, ts = _grid_case(seed, samples)
    assert np.abs(survival_probability(d, ts) - _scalar_calls(d, ts)).max() < 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), _GRID_SAMPLES, st.sampled_from([-1.0, 1.0]))
def test_survival_with_one_sample_off_grid_matches_scalar_calls(seed, samples, sign):
    # a sample moved by |E delta| = 1e-9 keeps the grid path; the first-order
    # residual term must carry the shift. It is placed where P moves fastest,
    # so that leaving the term out would cost about 1e-9 |dP/dt| / max|E|.
    d, ts = _grid_case(seed, samples)
    j = int(np.argmax(np.abs(np.gradient(_scalar_calls(d, ts)))))
    ts[j] += sign * 1e-9 / np.abs(d.eigenvalues).max()
    assert np.abs(survival_probability(d, ts) - _scalar_calls(d, ts)).max() < 1e-12


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(4097, 9000))
def test_survival_on_non_uniform_grid_matches_scalar_calls(seed, samples):
    # the direct sum runs in blocks of ceil(sqrt(S)) samples, 65 to 95
    # here; check across the seams
    rng = np.random.default_rng(seed)
    d = eigh(build_hamiltonian(random_star_model(rng, max_dim=30)))
    ts = np.sort(rng.uniform(-100.0, 100.0, samples))
    assert np.abs(survival_probability(d, ts) - _scalar_calls(d, ts)).max() < 1e-12


def _grid_amplitude_reference(levels, weights, tt):
    # the coarse x fine grid sum with every fine phasor exponentiated
    s = tt.size
    nb = math.isqrt(s - 1) + 1
    na = -(-s // nb)
    step = (tt[-1] - tt[0]) / (s - 1)
    anchor = tt[0] + step * (np.arange(na) * nb + nb // 2)
    offset = step * (np.arange(nb) - nb // 2)
    r = (tt - np.repeat(anchor, nb)[:s]) - np.tile(offset, na)[:s]
    coarse = np.exp(-1j * np.multiply.outer(anchor, levels))
    fine = np.exp(-1j * np.multiply.outer(levels, offset))
    g = np.concatenate([weights * coarse, (weights * levels) * coarse]) @ fine
    return g[:na].ravel()[:s] - 1j * r * g[na:].ravel()[:s]


# nb = ceil(sqrt(S)) is 2 for S = 3, 4, 3 for S = 5..7, 317 for 1e5 and
# 316 for 99500
@pytest.mark.parametrize("samples", [3, 4, 5, 6, 7, 99_500, 100_000])
@pytest.mark.parametrize("dim", [1, 9, 200])
def test_grid_amplitude_mirrors_fine_phasors_exactly(samples, dim):
    # fine phasors at negative offsets are conjugates of the ones at
    # positive offsets: the amplitude, which the kernel takes a block of
    # whole coarse rows at a time in one reused buffer, is bit for bit the
    # one with every fine phasor exponentiated, formed on the whole grid
    rng = np.random.default_rng(samples + dim)
    levels = rng.uniform(-2.0, 2.0, dim)
    weights = rng.dirichlet(np.ones(dim))
    for t0, t1 in ((-7.3, 31.9), (12.5, -40.0)):
        tt = np.linspace(t0, t1, samples)
        starts, blocks = zip(*((start, amp.copy())
                               for start, amp in _grid_amplitude(levels, weights, tt)))
        got = np.concatenate(blocks)
        assert list(starts) == np.cumsum([0] + [b.size for b in blocks[:-1]]).tolist()
        want = _grid_amplitude_reference(levels, weights, tt)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def test_phasors_are_exp_of_minus_i_outer_bit_for_bit():
    # the kernel's phasors skip the float and complex temporaries of
    # -1j * outer(a, b), and keep its bits, signed zeros included
    rng = np.random.default_rng(3)
    a = np.concatenate([[0.0, -0.0, 1e-300, -5e3, 7e8], rng.uniform(-40.0, 40.0, 60)])
    b = np.concatenate([[0.0, -0.0, -1e-310, 3e5], rng.uniform(-100.0, 100.0, 33)])
    for x, y in ((a, b), (b, a), (a[:1], b[:0])):
        got, want = _phasors(x, y), np.exp(-1j * np.multiply.outer(x, y))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _rk4_loop(h, psi0, t, dt):
    # classical RK4, one step at a time, normalized at the end only
    mat = np.asarray(h, dtype=complex)
    psi = np.asarray(psi0, dtype=complex)
    steps = max(1, math.ceil(abs(t) / dt))
    z = -1j * (t / steps) * mat
    for _ in range(steps):
        k1 = z @ psi
        k2 = z @ (psi + k1 / 2)
        k3 = z @ (psi + k2 / 2)
        k4 = z @ (psi + k3)
        psi = psi + (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("dim", range(2, 10))
def test_oracle_matches_step_by_step_loop(dim):
    # the power of the step matrix is the same integration as 400-4300
    # single steps; the two round differently, by up to 4e-14 here for the
    # emitter's initial state (1.6e-13 at worst over 960 random states)
    h = build_hamiltonian(random_star_model(np.random.default_rng(dim), dim))
    dt = 0.01 / np.linalg.norm(h)
    psi0 = _basis_state(dim)
    for t in (-2.5, 2.5, 10.0):
        assert np.abs(evolve_oracle(h, psi0, t, dt) - _rk4_loop(h, psi0, t, dt)).max() <= 1e-13


def test_oracle_step_longer_than_span_takes_one_step():
    h = random_hermitian(np.random.default_rng(4), 5)
    dt = 0.4 / np.linalg.norm(h)
    psi0 = _basis_state(5, 2)
    for t in (0.5 * dt, -dt):
        got = evolve_oracle(h, psi0, t, dt)
        assert np.abs(got - _rk4_loop(h, psi0, t, abs(t))).max() <= 1e-15


def test_oracle_zero_time_returns_input():
    h = random_hermitian(np.random.default_rng(2), 4)
    psi = _basis_state(4)
    got = evolve_oracle(h, psi, 0.0, 0.01)
    assert np.array_equal(got, psi) and got is not psi


def test_oracle_rejects_non_positive_step():
    for dt in (0.0, -0.01, np.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            evolve_oracle(np.eye(2), _basis_state(2), 1.0, dt)


def test_oracle_rejects_coarse_step():
    h = 10.0 * np.eye(3)
    with pytest.raises(StepTooLarge):
        evolve_oracle(h, _basis_state(3), 1.0, 0.1)


def test_oracle_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evolve_oracle(np.eye(3), _basis_state(2), 1.0, 0.01)


def test_oracle_matches_spectral_two_level():
    m = StarModel(eps=np.zeros(2), alpha=np.array([1.0]))
    h = build_hamiltonian(m)
    dt = 0.01 / np.linalg.norm(h)
    got = evolve_oracle(h, _basis_state(2), np.pi / 2, dt)
    want = evolve_state(eigh(h), _basis_state(2), np.pi / 2)
    assert np.abs(got - want).max() < 1e-6


def test_oracle_matches_spectral_random():
    rng = np.random.default_rng(13)
    for _ in range(8):
        h = random_hermitian(rng, 6)
        dt = 0.01 / np.linalg.norm(h)
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 /= np.linalg.norm(psi0)
        got = evolve_oracle(h, psi0, 3.0, dt)
        want = evolve_state(eigh(h), psi0, 3.0)
        assert np.abs(got - want).max() < 1e-6


def test_phase_sign_does_not_affect_survival():
    rng = np.random.default_rng(14)
    ts = np.linspace(0.0, 10.0, 64)
    for _ in range(10):
        d = eigh(build_hamiltonian(random_star_model(rng)))
        minus = np.abs(d.zero_overlaps @ np.exp(-1j * np.multiply.outer(d.eigenvalues, ts))) ** 2
        plus = np.abs(d.zero_overlaps @ np.exp(+1j * np.multiply.outer(d.eigenvalues, ts))) ** 2
        assert np.abs(minus - plus).max() < 1e-14
