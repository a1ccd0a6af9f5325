"""Shared fixtures: the expensive scale decompositions are built once, and
child Python processes find the package under test."""

import os

import pytest

import wsaw4
from wsaw4.cov_decomp import build_decomposition, coefficient_sequences


@pytest.fixture(scope="session")
def dec0_J48():
    """Massless d=4 decomposition, L=2, J=48."""
    return build_decomposition(4, L=2, m2=0.0, J=48)


@pytest.fixture(scope="session")
def coeffs0(dec0_J48):
    return coefficient_sequences(dec0_J48)


@pytest.fixture(scope="session")
def decomp_at():
    """Factory with a session cache: decomposition at (m2, J)."""
    cache = {}

    def get(m2, J=32):
        key = (m2, J)
        if key not in cache:
            cache[key] = build_decomposition(4, L=2, m2=m2, J=J)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def coeffs_at(decomp_at):
    cache = {}

    def get(m2, J=32):
        key = (m2, J)
        if key not in cache:
            cache[key] = coefficient_sequences(decomp_at(m2, J))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def child_env():
    """The environment for a child Python process: the directory this
    package was imported from leads PYTHONPATH, so that ``python -m
    wsaw4.cli`` also runs from a checkout without the install."""
    src = os.path.dirname(os.path.dirname(wsaw4.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
