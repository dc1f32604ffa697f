"""Each thread's row-block workspace in ``staremit._arrowhead``.

Star solves, Löwner passes, inverse constructions and propagations take
their row blocks from one reused workspace per thread (``_scratch``). These
tests hold that no result is a view of it, that what a pass leaves there
changes no later bit, in one thread or two, that it stays within its bound,
and that a steady run of solves maps no fresh pages.
"""

import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from staremit import NonConvergence, StarModel, build_hamiltonian, eigh, evolve_state, _arrowhead
from staremit.inverse import construct_hamiltonian, random_profile, verify_round_trip

from helpers import random_star_model


def _deflated_star(rng, dim):
    # repeated mode energies and zero couplings: Householder groups and lone
    # dark modes beside the bright ones
    eps = np.round(rng.uniform(-1.0, 1.0, dim) * 4.0) / 4.0
    alpha = rng.uniform(-1.0, 1.0, dim - 1) + 1j * rng.uniform(-1.0, 1.0, dim - 1)
    alpha[::3] = 0.0
    return StarModel(eps=eps, alpha=alpha)


def _star_outputs(model, seed):
    # every array a star solve hands out: eigenvalues, weights, the O(n)
    # state its basis keeps, two propagated states and, up to dim 200, the
    # eigenvectors
    d = eigh(model)
    rng = np.random.default_rng(seed)
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = 1.0
    psi1 = rng.uniform(-1.0, 1.0, model.dim) + 1j * rng.uniform(-1.0, 1.0, model.dim)
    out = [d.eigenvalues, d.zero_overlaps, evolve_state(d, psi0, 0.7), evolve_state(d, psi1, 2.3)]
    out += [x for x in d._eigenvectors.lowner or () if isinstance(x, np.ndarray)]
    if model.dim <= 200:
        out.append(d.eigenvectors)
    return out


def _inverse_outputs(m_half, seed):
    profile = random_profile(m_half, 0.3, 2.0, np.random.default_rng(seed))
    model = construct_hamiltonian(profile)
    report = verify_round_trip(model, profile, 1e-8)
    errors = [report.max_eigenvalue_error, report.max_overlap_error]
    return [model.eps, model.alpha, np.array(errors)]


def _corpus(dims):
    # a seeded corpus over the given star dims, in order; each dim gives a
    # random complex star, a deflated one and a constructed model of about
    # that dim with its round-trip report
    out = []
    for dim in dims:
        rng = np.random.default_rng(dim)
        out += _star_outputs(random_star_model(rng, dim), dim)
        out += _star_outputs(_deflated_star(rng, dim), dim + 1)
        out += _inverse_outputs(max(1, dim // 2 - 1), dim)
    return out


_LARGE_FIRST = (700, 3, 9, 41, 130)
_LARGE_LAST = (3, 9, 41, 130, 700)


def _bits(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _fresh_scratch(*shapes):
    # the workspace getter replaced by fresh arrays, filled with NaN so that
    # an entry read before it is written would show in the results
    return [np.full(shape, np.nan) for shape in shapes]


@pytest.mark.parametrize("dims", [_LARGE_FIRST, _LARGE_LAST])
def test_outputs_equal_those_of_fresh_row_blocks(monkeypatch, dims):
    got = _bits(_corpus(dims))
    monkeypatch.setattr(_arrowhead, "_scratch", _fresh_scratch)
    assert got == _bits(_corpus(dims))


def test_no_result_is_a_view_of_the_workspace_and_later_solves_keep_its_bits():
    results = _corpus(_LARGE_FIRST)
    kept = _bits(results)
    space = _arrowhead._workspace.cells
    assert space is not None and space.size == 4 * _arrowhead._BLOCK_CELLS
    assert not any(np.shares_memory(a, space) for a in results)
    _corpus((500, 17, 2))
    assert _arrowhead._workspace.cells is space
    assert _bits(results) == kept


def test_threads_solving_at_once_get_the_serial_bits():
    # four threads on two cores, two on stars and two on profiles, started
    # together and switching often: each must read the bits of a serial run
    def deflated():
        return [x for dim in (2, 90, 333)
                for x in _star_outputs(_deflated_star(np.random.default_rng(dim), dim), 1)]

    jobs = [lambda: _corpus((700, 9)), lambda: _corpus((5, 260)),
            lambda: [x for m in (250, 3, 40) for x in _inverse_outputs(m, 7)], deflated]
    want = [_bits(job()) for job in jobs]
    got, errors = [None] * len(jobs), []
    start = threading.Barrier(len(jobs), timeout=60)

    def run(j):
        try:
            start.wait()
            got[j] = _bits(jobs[j]())
        except Exception as exc:  # reported below, with the thread's index
            errors.append((j, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors
    assert got == want


def test_a_row_longer_than_the_block_leaves_the_workspace_at_its_bound(monkeypatch):
    # with blocks of 64 entries a star of 99 poles has rows longer than the
    # block: its sweeps allocate their own arrays, and the workspace, made in
    # a fresh thread under the patched block, stays at 4 blocks
    monkeypatch.setattr(_arrowhead, "_BLOCK_CELLS", 64)
    seen = {}

    def run():
        rng = np.random.default_rng(99)
        stars = (random_star_model(rng, 5), random_star_model(rng, 100), _deflated_star(rng, 100))
        for model in stars:
            d = eigh(model)
            want = np.linalg.eigvalsh(build_hamiltonian(model))
            seen.setdefault("error", []).append(np.abs(d.eigenvalues - want).max())
            psi = evolve_state(d, np.eye(model.dim)[0], 1.3)
            seen.setdefault("norm", []).append(abs(np.linalg.norm(psi) - 1.0))
        profile = random_profile(60, 0.0, 1.0, rng)
        seen["passed"] = verify_round_trip(construct_hamiltonian(profile), profile, 1e-8).passed
        seen["cells"] = _arrowhead._workspace.cells.size

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive()
    assert seen["cells"] == 4 * 64
    assert max(seen["error"]) < 1e-13 and max(seen["norm"]) < 1e-13
    assert seen["passed"]


def test_a_solve_cut_short_leaves_the_next_solves_bits(monkeypatch):
    rng = np.random.default_rng(11)
    stars = [random_star_model(rng, dim) for dim in (300, 12)]
    want = [_bits(_star_outputs(model, 1)) for model in stars]
    with monkeypatch.context() as m:
        m.setattr(_arrowhead, "_MAX_ITER", 0)
        for dim in (700, 12):
            with pytest.raises(NonConvergence):
                eigh(random_star_model(rng, dim))
    assert [_bits(_star_outputs(model, 1)) for model in stars] == want


# One warm-up and 20 rounds of the inverse direction at M = 250 and of a
# dim-700 complex star's solve and propagation, in a child process whose
# mmap threshold is fixed at 256 KiB as in bench/run.py, so that every array
# of that size would be a fresh mapping; prints the minor page faults of the
# 20 rounds.
_FAULT_ROUNDS = """
import ctypes, ctypes.util, resource
import numpy as np
from staremit import StarModel, eigh, evolve_state
from staremit.inverse import construct_hamiltonian, random_profile, verify_round_trip

MMAP_THRESHOLD = 256 * 1024
M_MMAP_THRESHOLD = -3
libc = ctypes.CDLL(ctypes.util.find_library("c"))
assert libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)

rng = np.random.default_rng(700)
star = StarModel(eps=rng.uniform(-1.0, 1.0, 700),
                 alpha=rng.uniform(-1.0, 1.0, 699) + 1j * rng.uniform(-1.0, 1.0, 699))
psi0 = np.zeros(700, dtype=complex)
psi0[0] = 1.0
profile = random_profile(250, 0.0, 1.0, rng)

def one_round():
    assert verify_round_trip(construct_hamiltonian(profile), profile, 1e-8).passed
    evolve_state(eigh(star), psi0, 1.0)

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    one_round()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="mallopt and the mmap threshold are glibc's")
def test_star_solves_fault_in_no_fresh_pages():
    # 0 faults measured at numpy 2.4; 11,040 when each pass allocated its
    # own row blocks
    src = str(Path(_arrowhead.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", _FAULT_ROUNDS], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert child.returncode == 0, child.stderr
    faults = int(child.stdout)
    print(f"minor page faults in 20 rounds: {faults}")
    assert faults < 200
