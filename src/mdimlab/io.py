"""Plain-text graph serialization and DOT export.

Graph text format: first line is the vertex count n, then one line per
edge "u w" with u < w, ASCII decimal, newline-terminated.  Edge order on
write is lexicographic.
"""

from __future__ import annotations

from .errors import BadParameters
from .graphs import Graph


def graph_text(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {w}" for u, w in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadParameters("empty graph file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise BadParameters(f"first line must be the vertex count: {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise BadParameters(f"edge line must be 'u w': {ln!r}")
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise BadParameters(f"edge line must be decimal: {ln!r}") from exc
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


def graph_dot(g: Graph, labels: tuple[str, ...] | None = None) -> str:
    """DOT rendering; optional per-vertex labels (e.g. cover tags)."""
    if labels is not None and len(labels) != g.n:
        raise BadParameters("one label per vertex required")
    out = ["graph G {"]
    if labels is not None:
        for v, tag in enumerate(labels):
            out.append(f'  {v} [label="{tag}"];')
    for u, w in g.edges():
        out.append(f"  {u} -- {w};")
    out.append("}")
    return "\n".join(out) + "\n"
