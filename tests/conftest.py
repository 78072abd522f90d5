# Import the package before any test module imports numpy, so the test
# process runs under the package's BLAS thread default like the CLI does.
import os

from hypothesis import settings

import spinfridge  # noqa: F401

# CI draws the same examples on every run (example counts unchanged), so a
# property failure there reproduces locally with HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", derandomize=True)
settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "ci" if os.environ.get("CI") else "default")
)
