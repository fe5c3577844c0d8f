"""Graph serialization: the plain edge format and DOT rendering."""

import pytest

from mdimlab import (
    BadParameters,
    Graph,
    family,
    graph_dot,
    graph_from_text,
    graph_text,
    read_graph,
    taylor,
    write_graph,
)
from mdimlab.io import read_ascii


class TestEdgeFormat:
    def test_round_trip_preserves_the_graph(self):
        g = family("kneser", 5, 2)
        assert graph_from_text(graph_text(g)) == g

    def test_layout_is_count_then_sorted_edges(self):
        text = graph_text(family("cycle", 4))
        assert text == "4\n0 1\n0 3\n1 2\n2 3\n"

    def test_isolated_vertices_survive(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert graph_from_text(graph_text(g)).n == 5

    def test_blank_lines_are_ignored(self):
        assert graph_from_text("3\n\n0 1\n\n1 2\n").n == 3

    def test_file_round_trip(self, tmp_path):
        g = family("hypercube", 4)
        path = tmp_path / "q4.graph"
        write_graph(str(path), g)
        assert read_graph(str(path)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "",               # empty
            "x\n0 1",         # bad count
            "3\n0 1 2",       # extra token
            "3\n0 one",       # non-decimal endpoint
            "3\n1 0",         # must be u < w
            "3\n0 0",         # loop
            "3\n0 1\n0 1",    # duplicate edge
            "3\n0 5",         # endpoint out of range
        ],
    )
    def test_malformed_text_is_rejected(self, text):
        with pytest.raises((BadParameters, Exception)):
            graph_from_text(text)

    def test_malformed_errors_are_typed(self):
        with pytest.raises(BadParameters):
            graph_from_text("3\n1 0")

    def test_non_ascii_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_bytes(b"3\n0 1\xff\n")
        with pytest.raises(BadParameters, match="0xff"):
            read_graph(str(path))
        with pytest.raises(BadParameters):
            read_ascii(str(path))


class TestDot:
    def test_edges_render(self):
        out = graph_dot(family("cycle", 3))
        assert out.splitlines() == [
            "graph G {",
            "  0 -- 1;",
            "  0 -- 2;",
            "  1 -- 2;",
            "}",
        ]

    def test_labels_render_when_supplied(self):
        cover = taylor(family("cycle", 5))
        out = graph_dot(cover.graph, cover.tags)
        assert '0 [label="0+"];' in out
        assert '11 [label="inf-"];' in out

    def test_label_count_must_match(self):
        with pytest.raises(BadParameters):
            graph_dot(family("cycle", 3), ("a", "b"))
