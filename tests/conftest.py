"""One deterministic hypothesis profile for the whole suite (the same
examples on every run, and no per-example deadline on a shared host), and a
fixture that counts calls."""

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, *names)`` wraps each ``owner.<name>`` to count
    its calls for the rest of the test; returns the counts by name, one dict
    shared by every call in the test."""
    calls = {}

    def patch(owner, *names):
        for name in names:
            original = getattr(owner, name)
            calls[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    return patch
