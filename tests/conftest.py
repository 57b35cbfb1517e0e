"""Shared test configuration.

Property tests run under a derandomised hypothesis profile with no
deadline, so they draw the same examples on every run and a slow
example does not fail by timing.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
