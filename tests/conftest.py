"""Tier-1 draws fixed Hypothesis examples.

One profile, loaded before any test module is imported: ``derandomize``
makes every ``@given`` test draw the same examples on every run, and
``database=None`` keeps a replay file left by an earlier local failure
from changing what a later run draws.  A test's own ``@settings``
(``max_examples``, ``deadline``) still apply on top of it.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
