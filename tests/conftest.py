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

from atlir import checker, icgs, modelio
from atlir._index import CoalitionIndex


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


@pytest.fixture
def root_calls(monkeypatch):
    """The root frame's ``reach`` call of every until search the test runs,
    as (index, q1, root coverage, (fixpoint, rounds)), appended as the
    searches run.  The root's call is the first of its search; a root whose
    coverage wins every state of interest makes none."""
    found, pending = [], []
    ceu_search, reach = checker._ceu_search, CoalitionIndex.reach

    def search(idx, interest, q1, strategy, cov, exclude, stats):
        pending[:] = [(q1, cov)]
        try:
            return ceu_search(idx, interest, q1, strategy, cov, exclude, stats)
        finally:
            pending.clear()

    def recording(idx, table, left, z, entered):
        answer = reach(idx, table, left, z, entered)
        if pending:
            found.append((idx,) + pending.pop() + (answer,))
        return answer
    monkeypatch.setattr(checker, "_ceu_search", search)
    monkeypatch.setattr(CoalitionIndex, "reach", recording)
    return found
