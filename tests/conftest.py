"""One deterministic hypothesis profile for the whole suite: the same
examples on every run, and no per-example deadline on a shared host."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
