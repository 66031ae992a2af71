"""Suite-wide settings.

Every hypothesis test draws the same examples on every run, so a pass or a
failure depends only on the commit and can be repeated.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
