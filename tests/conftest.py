"""Shared fixtures for the test suite; the oracles live in phaseswe.oracles."""

import numpy as np
import pytest

from phaseswe.grid import SpectralGrid


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def grid8():
    return SpectralGrid(8, 8, 1.0e6, 1.0e6)


@pytest.fixture(scope="session")
def grid32():
    return SpectralGrid(32, 32, 4.0e7, 4.0e7)


@pytest.fixture(scope="session")
def grid64():
    return SpectralGrid(64, 64, 4.0e7, 4.0e7)
