import sys
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, and no example database on disk
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# hypothesis's pytest plugin also caches the constants it reads from the
# tested modules, at collection; keep that cache out of the working tree
# in a directory removed when the run exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
