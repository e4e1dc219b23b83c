"""Scripts the tests start in a subprocess import snnemu from this checkout."""

import os
import warnings

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def pytest_runtest_makereport(item, call):
    """After a test fails, hypothesis's pytest plugin imports its patch
    writer, `hypothesis.extra._patching`, and with it libcst, whose use of
    `mypy_extensions.TypedDict` raises a DeprecationWarning; under `-W error`
    that ends the run in an INTERNALERROR in place of the failure report.
    The first failure imports the module here with only that warning
    ignored, so every other warning stays an error."""
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                                    category=DeprecationWarning)
            try:
                import hypothesis.extra._patching
            except ImportError:  # no libcst: the plugin then writes no patch either
                pass
