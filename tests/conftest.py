"""Fixtures shared by the test modules."""

import pytest

from paritykit import arith
from paritykit.weierstrass import invariants


@pytest.fixture
def cold_caches(monkeypatch):
    """Empty the process-lifetime memos: invariants and factorizations.

    The value is a function that empties all but the factorizations again.
    Local data and traces live in the CurveData objects that each call
    builds or is given, so no memo of them is left to empty.
    """

    def clear():
        invariants.cache_clear()

    monkeypatch.setattr(arith, "_factor_cache", {})
    clear()
    yield clear
    clear()
