"""Hypothesis settings for the whole suite.

Examples are derived from each test's source rather than drawn at
random, so every run of the suite tries the same cases, and no
per-example deadline applies: exact rational work on a loaded or
throttled machine can run slower than hypothesis's 200 ms default.
"""

from hypothesis import settings

settings.register_profile("gausscalc", derandomize=True, deadline=None)
settings.load_profile("gausscalc")
