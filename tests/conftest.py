"""Shared pytest set-up.

pytest turns every warning into an error (``filterwarnings`` in
pyproject.toml).  When a property test fails, Hypothesis's pytest plugin
imports ``hypothesis.extra._patching`` to write a patch for the failing
example.  That module imports libcst, whose import raises a
``mypy_extensions.TypedDict`` DeprecationWarning, and the run would end
in an INTERNALERROR without the falsifying example.  The hook below
makes that import first, with only this warning silenced, once a
Hypothesis test has failed.
"""

import warnings

import pytest
from hypothesis import is_hypothesis_test


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    if call.excinfo is not None and is_hypothesis_test(getattr(item, "obj", None)):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                    DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:  # libcst missing: the plugin skips the patch
                pass
    yield
