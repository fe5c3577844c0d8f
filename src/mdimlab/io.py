"""Plain-text graph serialization and DOT export.

Graph text format: first line is the vertex count n, then one line per
edge "u w" with u < w, ASCII decimal, newline-terminated.  Edge order on
write is lexicographic.
"""

from __future__ import annotations

from .errors import BadParameters
from .graphs import Graph, as_decimal, ascii_lines


def graph_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = ascii_lines(text, "graph text")
    if not lines:
        raise BadParameters("empty graph file")
    n = as_decimal(lines[0], "the vertex count")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise BadParameters(f"edge line must be 'u w': {ln!r}")
        u, w = (as_decimal(x, f"edge line {ln!r}") for x in parts)
        if not u < w:
            raise BadParameters(f"edge line must have u < w: {ln!r}")
        edges.append((u, w))
    if len(set(edges)) != len(edges):
        raise BadParameters("duplicate edge")
    return Graph.from_edges(n, edges)


def write_graph(path: str, g: Graph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_text(g))


def read_ascii(path: str) -> str:
    """The text of an ASCII file; any other byte is a BadParameters."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise BadParameters(f"{path} is not ASCII text: byte {byte:#04x}") from exc


def read_graph(path: str) -> Graph:
    return graph_from_text(read_ascii(path))


def graph_dot(g: Graph) -> str:
    """DOT rendering of the edges."""
    out = ["graph G {"]
    for u, w in g.edges():
        out.append(f"  {u} -- {w};")
    out.append("}")
    return "\n".join(out) + "\n"
