"""Vertex, point and chooser ids handed to the public entry points: each is
read by graphs.as_ids, so an id that is no integer of the range raises
BadParameters and nothing else."""

import pytest

from mdimlab import (
    BadParameters,
    certify,
    descendant_extract,
    double_lift,
    family,
    first_unresolved_pair,
    first_unseparated_pair,
    greedy_cover,
    induced_neighborhood,
    is_double_blocking,
    is_resolving,
    lift_folded,
    lift_halved,
    min_cover,
    pair_cover_instance,
    pg2,
    project_to_folded,
    push_to_plus,
    taylor,
    taylor_lift,
    two_antipodal_partition,
)


def _petersen():
    return family("odd", 3)


def _cube():
    return family("hypercube", 3)


def _c5_cover():
    return taylor(family("cycle", 5))


# (entry point, size n of its id range, call(id) that hands the id in)
ENTRY_POINTS = [
    ("certify", 10, lambda v: certify(_petersen(), [0, v])),
    ("is_resolving", 10, lambda v: is_resolving(_petersen().distances, [0, v])),
    ("first_unresolved_pair", 10,
     lambda v: first_unresolved_pair(_petersen().distances, [0, v])),
    ("first_unseparated_pair-blocks", 7,
     lambda v: first_unseparated_pair(pg2(2), [0, v], "blocks")),
    ("first_unseparated_pair-points", 7,
     lambda v: first_unseparated_pair(pg2(2), [0, v], "points")),
    ("is_double_blocking", 7, lambda v: is_double_blocking(pg2(2), [0, 1, 2, 3, 4, 5, v])),
    ("greedy_cover", 10,
     lambda v: greedy_cover(pair_cover_instance(_petersen().distances), forced=[v])),
    ("min_cover", 10,
     lambda v: min_cover(pair_cover_instance(_petersen().distances), forced=[v])),
    ("two_antipodal_partition", 8, lambda v: two_antipodal_partition(_cube(), [0, 1, 2, 4, v])),
    ("push_to_plus", 8, lambda v: push_to_plus(_cube(), [0, 1, 2, 4], [0, 1, 2, v])),
    ("project_to_folded", 8, lambda v: project_to_folded(_cube(), [0, v])),
    ("descendant_extract-x", 12,
     lambda v: descendant_extract(_c5_cover(), (0, 1, 2, 3), v)),
    ("descendant_extract-s", 12,
     lambda v: descendant_extract(_c5_cover(), (0, 1, v), 0)),
    ("induced_neighborhood", 10, lambda v: induced_neighborhood(_petersen(), v)),
    ("lift_halved", 8,
     lambda v: lift_halved(family("hypercube", 4), [0, v], [0, 1])),
    ("lift_folded", 8, lambda v: lift_folded(family("hypercube", 4), [0, v])),
    ("taylor_lift", 5, lambda v: taylor_lift(_c5_cover(), [0, v])),
    ("double_lift", 16, lambda v: double_lift(family("rook", 4, 4), [0, v])),
]


@pytest.mark.parametrize("kind", ["-1", "n", "True", "0.5"])
@pytest.mark.parametrize("name, n, call", ENTRY_POINTS, ids=[e[0] for e in ENTRY_POINTS])
def test_an_id_outside_the_range_raises_bad_parameters(name, n, call, kind):
    bad = {"-1": -1, "n": n, "True": True, "0.5": 0.5}[kind]
    with pytest.raises(BadParameters):
        call(bad)


def test_an_id_that_is_no_point_names_the_range():
    # 99 and -1 used to be dropped, and the six points answered True
    with pytest.raises(BadParameters, match=r"^points: 99 is out of range 0\.\.6$"):
        is_double_blocking(pg2(2), [0, 1, 2, 3, 4, 5, 99, -1])
