"""Test-session setup shared by every test module.

Hypothesis keeps a home directory for its example database and for the
constants it collects from the source under test, and writes the
constants there even with database=None. It is pointed at a temporary
directory at import, before any test runs, so that a test run writes
nothing into the checkout; pytest_unconfigure removes the directory.
"""

import shutil
import tempfile

from hypothesis import configuration

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="multimorse-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
