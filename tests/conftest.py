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
