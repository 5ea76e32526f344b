"""One hypothesis profile for every property test, when hypothesis is installed.

Derandomized, so each run draws the same examples and a failure repeats, and
with no example database.  A test's own ``settings`` (its ``max_examples``,
say) still apply on top.  hypothesis also caches what it reads from the
package's source under its storage directory, by default ``.hypothesis/`` in
the working directory; that directory is moved to the system's temporary
directory, so a run writes nothing into the checkout.
"""

import tempfile
from pathlib import Path

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    settings.register_profile("mmdlab", derandomize=True, database=None)
    settings.load_profile("mmdlab")
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mmdlab-hypothesis")
