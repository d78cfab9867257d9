"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _default_counting_ceiling(monkeypatch):
    # Expected values assume the default point-counting ceiling; a test that
    # needs another sets PARITYKIT_MAX_ELL itself.
    monkeypatch.delenv("PARITYKIT_MAX_ELL", raising=False)
