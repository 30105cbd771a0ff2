"""Fixtures shared by the module suites."""

import pytest

import gepsolve.linalg


@pytest.fixture
def factorizations(monkeypatch):
    """The order of every matrix given to ``cholesky_factorize`` during the
    test. Only linalg.py calls it (see test_layering.py), so spying on that
    one binding counts every factorization, ``b.cholesky()``'s included."""
    real = gepsolve.linalg.cholesky_factorize
    calls = []

    def counted(b):
        calls.append(b.n)
        return real(b)

    monkeypatch.setattr(gepsolve.linalg, "cholesky_factorize", counted)
    return calls
