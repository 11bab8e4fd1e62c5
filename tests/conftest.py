"""Fixtures shared by every test module."""

import pytest

from gyromean.kernel import _eigh_memo


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test solves in a fresh eigensolve memo, so that what it counts
    does not depend on which tests ran before it in the same thread."""
    with _eigh_memo():
        yield
