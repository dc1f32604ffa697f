"""Shared generators for randomized tests, a secular solver row counter and a
``tracemalloc`` peak reader."""

import tracemalloc
from unittest import mock

import numpy as np

from staremit import StarModel, _arrowhead


def random_star_model(rng: np.random.Generator, dim: int | None = None, max_dim: int = 9) -> StarModel:
    if dim is None:
        dim = int(rng.integers(2, max_dim + 1))
    eps = rng.uniform(-1.0, 1.0, dim)
    alpha = rng.uniform(-1.0, 1.0, dim - 1) + 1j * rng.uniform(-1.0, 1.0, dim - 1)
    return StarModel(eps=eps, alpha=alpha)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    return 0.5 * (a + a.conj().T)


def solver_rows(fn, *args):
    """Roots evaluated in each secular solver sweep while ``fn(*args)`` runs.

    Returns that list and the call's result.
    """
    rows = []
    evaluate = _arrowhead._Secular.evaluate

    def counted(self, i, origin, tau, *args):
        rows.append(i.size)
        return evaluate(self, i, origin, tau, *args)

    with mock.patch.object(_arrowhead._Secular, "evaluate", counted):
        result = fn(*args)
    return rows, result


def traced_peak(fn, *args):
    """The ``tracemalloc`` peak while ``fn(*args)`` runs, and the call's result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()
