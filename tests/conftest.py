"""Shared fixtures and helpers."""

import tracemalloc

import numpy as np
import pytest


def peak_bytes(fn):
    """The peak of the memory tracemalloc traces while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class ZeroNoiseGenerator:
    """A numpy Generator whose Gaussian and chi-square draws are zeros.

    Every solver draws its privacy noise either as ``standard_normal``
    (the Gaussian mechanisms) or through ``gg_sample``, whose radius is a
    ``chisquare`` draw.  Zeroing those two turns a solver run into its
    noiseless reference; every other draw (a shuffle, a noise direction)
    goes to the wrapped generator.
    """

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, size=None):
        return 0.0 if size is None else np.zeros(size)

    def chisquare(self, df, size=None):
        return 0.0 if size is None else np.zeros(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def zero_noise():
    """``zero_noise(seed)``: the zero-noise generator over ``np.random.default_rng(seed)``."""
    return lambda seed: ZeroNoiseGenerator(np.random.default_rng(seed))
