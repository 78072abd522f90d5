# Import the package before any test module imports numpy, so the test
# process runs under the package's BLAS thread default like the CLI does.
import spinfridge  # noqa: F401
