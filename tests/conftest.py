"""One hypothesis profile for every property test, when hypothesis is installed.

Derandomized, so each run draws the same examples and a failure repeats, and
with no example database, so a run writes nothing into the checkout.  A
test's own ``settings`` (its ``max_examples``, say) still apply on top.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("mmdlab", derandomize=True, database=None)
    settings.load_profile("mmdlab")
