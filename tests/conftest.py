"""Fixtures shared across test modules."""

import pytest

from boundedpowers import powers


@pytest.fixture
def level_builds(monkeypatch):
    """Record every call of ``powers._bounded_levels``: one per chain built."""
    calls = []
    original = powers._bounded_levels

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(powers, "_bounded_levels", counted)
    return calls
