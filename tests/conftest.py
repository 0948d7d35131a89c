"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env() -> dict:
    """The environment with the package's ``src`` first on PYTHONPATH, for
    tests that run the package in a child interpreter: pytest's own
    ``pythonpath`` setting reaches only the test process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
