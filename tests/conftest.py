"""Fixtures shared by the test modules."""

import pytest

from paritykit import arith, local
from paritykit.weierstrass import invariants


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty every memo the scan fills: local data, trace tables, invariants, factorizations.

    The value is a function that empties all but the factorizations again.
    """

    def clear():
        local.tate_local.cache_clear()
        invariants.cache_clear()
        local._TRACES.clear()

    monkeypatch.setattr(arith, "_factor_cache", {})
    clear()
    yield clear
    clear()
