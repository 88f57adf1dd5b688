import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Tests that start ``python -m atlir`` in a child process import the package
# from this checkout as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

from atlir import icgs, modelio


@pytest.fixture(scope="session")
def cardgame():
    return modelio.gen_cardgame()


@pytest.fixture(scope="session")
def cardgame_pi(cardgame):
    return icgs.with_perfect_information(cardgame)


@pytest.fixture(scope="session")
def castles111():
    return modelio.gen_castles(1, 1, 1)


@pytest.fixture(scope="session")
def castles112():
    return modelio.gen_castles(1, 1, 2)
