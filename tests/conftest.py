"""Shared session fixtures so the expensive pipelines run once per session."""

from fractions import Fraction

import pytest

from thueq import concrete
from thueq.descent import run_descent
from thueq.hyperchi import verify_lettl
from thueq.measure import theorem_assembly


@pytest.fixture(autouse=True)
def _cold_root_balls():
    """Each test starts without cached root balls, so a test that patches
    root_ball or _certify_root does not depend on which tests ran before."""
    concrete._root_balls.cache_clear()


@pytest.fixture(scope="session")
def descent_chain_0():
    return run_descent(0)


@pytest.fixture(scope="session")
def descent_chain_3():
    return run_descent(3)


@pytest.fixture(scope="session")
def assembly_100():
    return theorem_assembly(Fraction(100))


@pytest.fixture(scope="session")
def assembly_80():
    return theorem_assembly(Fraction(80))


@pytest.fixture(scope="session")
def lettl_lines():
    return verify_lettl(60)
