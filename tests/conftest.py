"""Fixtures shared by the test modules."""

import pytest

from mdimlab import cover


@pytest.fixture
def searches(monkeypatch) -> list[cover.PairCoverInstance]:
    """The instance of every branch and bound search (cover._Search) made
    while the test runs."""
    made = []
    search = cover._Search

    def record(inst, *args, **kwargs):
        made.append(inst)
        return search(inst, *args, **kwargs)

    monkeypatch.setattr(cover, "_Search", record)
    return made


@pytest.fixture
def made_searches(monkeypatch) -> list[cover._Search]:
    """Every branch and bound search made while the test runs, as made."""
    made = []

    class Recorded(cover._Search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cover, "_Search", Recorded)
    return made
