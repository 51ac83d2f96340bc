import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


@pytest.fixture(scope="session")
def fs():
    return run.import_program()
