import random

import pytest

from kamforge.cli import random_series  # noqa: F401  (imported by the test modules)


@pytest.fixture
def rng():
    return random.Random(20240817)
