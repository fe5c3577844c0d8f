"""Command-line front end.

Commands: construct, classify, mdim, lift, bounds, semiresolve, verify,
oracle.  construct takes a mode (family, taylor, double, plane,
incidence), as does lift (halved, folded, push, taylor, double); a mode
takes only the flags it reads, and any other is a usage error.  Named
graphs and designs are built from zoo specs: F --param P... is {"family":
F, "params": [P, ...]}, which construct taylor and double wrap in
{"taylor": ...} or {"double": ...}, and --plane Q or plane Q is {"plane":
Q}.  Exit codes: 0 success, 1 user or input error (usage errors included),
2 node budget (--budget) exhausted before the requested answer was proved
(mdim and semiresolve).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import zoo
from .cover import DEFAULT_BUDGET
from .designs import SymmetricDesign, design_from_text, design_text, incidence_graph
from .errors import BadParameters, MdimlabError
from .graphs import as_decimal
from .imprimitivity import bipartition, classify_ah
from .lifting import (
    double_lift,
    lift_folded,
    lift_halved,
    push_to_plus,
    taylor_lift,
)
from .io import graph_dot, graph_text, read_ascii, read_graph, write_graph
from .mdim import (
    babai_bounds,
    certify,
    exhaustive_mdim,
    mdim_exact,
    mdim_greedy,
    min_semi_resolving,
    split_mdim,
)
from .verify import oracle_rows, run_suite

EXIT_OK = 0
EXIT_USER = 1
EXIT_BUDGET = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # budget exhaustion, so usage problems map to 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USER)

    # a mode's subparser hands what it does not take up to the top-level
    # parser, which would print its own usage line; report it here instead
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _decimal(text: str) -> int:
    """argparse type of an integer, read as ASCII decimal like the files."""
    try:
        return as_decimal(text, "an integer")
    except BadParameters as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _vertex_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated list of ASCII decimal vertices; the
    empty string is the empty set."""
    if not text:
        return ()
    try:
        return tuple(as_decimal(part, "a vertex") for part in text.split(","))
    except BadParameters:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated vertex list, got {text!r}")


def _emit(payload: Any, as_json: bool, text: str) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True) if as_json else text)


def _proved(certs) -> int:
    """EXIT_OK if every certificate is a proved minimum, else EXIT_BUDGET."""
    return EXIT_OK if all(c.status == "minimum" for c in certs) else EXIT_BUDGET


def _load_design(args: argparse.Namespace) -> SymmetricDesign:
    if args.plane is not None:
        return zoo.design({"plane": args.plane})
    return design_from_text(read_ascii(args.design))


def _base_spec(args: argparse.Namespace) -> dict[str, Any]:
    """The family spec of BASE with the --param values."""
    return {"family": args.base, "params": args.param}


def _write_or_print(text: str, out: str | None, what: str) -> None:
    """Write text to the file out and name what was written, or print text."""
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {what} to {out}")
    else:
        print(text, end="")


def _cmd_construct(args: argparse.Namespace) -> int:
    g = args.build(args)
    if args.dot:
        _write_or_print(graph_dot(g), args.out, f"{g.n}-vertex graph (dot)")
    else:
        _write_or_print(graph_text(g), args.out, f"{g.n}-vertex graph")
    return EXIT_OK


def _cmd_construct_plane(args: argparse.Namespace) -> int:
    design = zoo.design({"plane": args.q})
    _write_or_print(design_text(design), args.out,
                    f"({design.v}, {design.k}, {design.lam}) design")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    result = classify_ah(read_graph(args.graph))
    lines = [f"{result.label}  d={result.d} k={result.k} "
             f"bipartite={result.bipartite} antipodal={result.antipodal} t={result.t}"]
    lines += [f"  verified: {desc}" if ok else f"  FAILED: {desc}"
              for desc, ok in result.subclaims]
    _emit(result.to_json(), args.json, "\n".join(lines))
    return EXIT_OK


def _cmd_mdim(args: argparse.Namespace) -> int:
    g = read_graph(args.graph)
    if args.certify is not None:
        cert = certify(g, args.certify)
    elif args.greedy:
        cert = mdim_greedy(g)
    elif args.oracle:
        cert = exhaustive_mdim(g)
    else:
        cert = mdim_exact(g, budget=args.budget)
    _emit(cert.to_json(), args.json,
          f"mu={cert.mu} set={list(cert.set)} status={cert.status} method={cert.method}")
    if cert.status == "failed":
        return EXIT_USER
    exact = not (args.greedy or args.oracle or args.certify is not None)
    return _proved([cert]) if exact else EXIT_OK


def _lift_push(args: argparse.Namespace):
    g = read_graph(args.graph)
    return push_to_plus(g, frozenset(bipartition(g)[0]), args.set)


def _lift_double(args: argparse.Namespace):
    if args.graph is None:
        base = zoo.graph(_base_spec(args))
    elif args.param:
        raise BadParameters("--param is read only with --base")
    else:
        base = read_graph(args.graph)
    cover, cert = double_lift(base, args.set)
    if args.out:
        write_graph(args.out, cover)
    return cert


def _cmd_lift(args: argparse.Namespace) -> int:
    cert = args.lift(args)
    _emit(cert.to_json(), args.json,
          f"size={len(cert.set)} set={list(cert.set)} status={cert.status} "
          f"method={cert.method}")
    return EXIT_OK


def _cmd_lift_folded(args: argparse.Namespace) -> int:
    result = lift_folded(read_graph(args.graph), args.set)
    payload = result.certificate.to_json()
    payload["case"] = result.case
    if result.center is not None:
        payload["center"] = result.center
    _emit(payload, args.json,
          f"size={len(result.certificate.set)} set={list(result.certificate.set)} "
          f"case={result.case}")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    report = babai_bounds(read_graph(args.graph))
    _emit(report.to_json(), args.json,
          f"n={report.n} k={report.k} d={report.d} lower_nd={report.lower_nd} "
          f"general={report.general:.2f} srg={report.srg and round(report.srg, 2)} "
          f"distance_class={report.distance_class:.2f}")
    return EXIT_OK


def _cmd_semiresolve(args: argparse.Namespace) -> int:
    design = _load_design(args)
    if args.split:
        result = split_mdim(design, args.budget)
        _emit(result.to_json(), args.json,
              f"split={result.mu_star} points_part={list(result.points_part.set)} "
              f"blocks_part={list(result.blocks_part.set)}")
        certs = (result.points_part, result.blocks_part)
    else:
        cert = min_semi_resolving(design, args.side, args.budget)
        _emit(cert.to_json(), args.json,
              f"size={cert.mu} set={list(cert.set)} side={args.side} "
              f"status={cert.status}")
        certs = (cert,)
    return _proved(certs)


def _cmd_verify(args: argparse.Namespace) -> int:
    only = set(args.only.split(",")) if args.only is not None else None
    report = run_suite(only=only)
    _emit(report.to_json(), args.json, report.render())
    return EXIT_OK if report.ok else EXIT_USER


def _cmd_oracle(args: argparse.Namespace) -> int:
    rows = oracle_rows(max_n=args.max_n)
    bad = derived = 0
    for row_id, expected, value, agree in rows:
        if value is None:
            print(f"{row_id}: skipped (instance above --max-n)")
            continue
        derived += 1
        bad += not agree
        print(f"{row_id}: frozen={expected} oracle={value} "
              f"{'ok' if agree else 'DISAGREES'}")
    print(f"{len(rows)} rows, {derived} re-derived, {bad} disagreements")
    if not derived:
        raise BadParameters(f"no row has at most --max-n {args.max_n} vertices")
    return EXIT_OK if bad == 0 else EXIT_USER


def _add_budget(container: Any) -> None:
    """The one --budget flag, on a parser or on mdim's group of modes."""
    container.add_argument("--budget", type=_decimal, default=DEFAULT_BUDGET,
                           help="node budget of each exact search (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    # flags shared by several modes, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="print stable JSON")
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--param", type=_decimal, action="append", default=[],
                        help="family parameter (repeatable)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    dot_out = argparse.ArgumentParser(add_help=False, parents=[out])
    dot_out.add_argument("--dot", action="store_true",
                         help="emit DOT instead of the edge format")
    design = argparse.ArgumentParser(add_help=False)
    source = design.add_mutually_exclusive_group(required=True)
    source.add_argument("--plane", type=_decimal, help="order-q point-line design")
    source.add_argument("--design", help="design file")
    vertex_set = argparse.ArgumentParser(add_help=False)
    vertex_set.add_argument("--set", type=_vertex_list, required=True,
                            help="comma-separated vertex set")

    parser = _Parser(prog="mdimlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named graph or design")
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("family", parents=[params, dot_out], help="a named family member")
    m.add_argument("base", metavar="name", help="family name")
    m.set_defaults(fn=_cmd_construct, build=lambda a: zoo.graph(_base_spec(a)))
    for form, what in (("taylor", "Taylor cover"), ("double", "bipartite double")):
        m = modes.add_parser(form, parents=[params, dot_out], help=f"{what} of a base family")
        m.add_argument("base", help="base family name")
        m.set_defaults(fn=_cmd_construct, build=lambda a: zoo.graph({a.mode: _base_spec(a)}))
    m = modes.add_parser("plane", parents=[out], help="order-q point-line design")
    m.add_argument("q", type=_decimal, help="prime order")
    m.set_defaults(fn=_cmd_construct_plane)
    m = modes.add_parser("incidence", parents=[design, dot_out],
                         help="incidence graph of a design")
    m.set_defaults(fn=_cmd_construct, build=lambda a: incidence_graph(_load_design(a)))

    p = sub.add_parser("classify", parents=[as_json],
                       help="name the imprimitivity class of a graph")
    p.add_argument("graph", help="graph file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("mdim", parents=[as_json], help="metric dimension with certificate")
    p.add_argument("graph", help="graph file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true", help="greedy upper bound instead")
    mode.add_argument("--oracle", action="store_true",
                      help="exhaustive enumeration (small graphs only)")
    mode.add_argument("--certify", metavar="SET", type=_vertex_list,
                      help="verify this comma-separated set")
    _add_budget(mode)
    p.set_defaults(fn=_cmd_mdim)

    p = sub.add_parser("lift", help="transfer a resolving set between related graphs")
    modes = p.add_subparsers(dest="mode", required=True)
    m = modes.add_parser("halved", parents=[as_json], help="from the two halved graphs")
    m.add_argument("graph", help="bipartite graph file")
    m.add_argument("--plus-set", type=_vertex_list, required=True,
                   help="set in the plus half")
    m.add_argument("--minus-set", type=_vertex_list, required=True,
                   help="set in the minus half")
    m.set_defaults(fn=_cmd_lift, lift=lambda a: lift_halved(
        read_graph(a.graph), a.plus_set, a.minus_set))
    m = modes.add_parser("folded", parents=[vertex_set, as_json],
                         help="from the folded graph (set of class indices)")
    m.add_argument("graph", help="antipodal graph file")
    m.set_defaults(fn=_cmd_lift_folded)
    m = modes.add_parser("push", parents=[vertex_set, as_json],
                         help="onto the plus side of a 2-antipodal bipartite graph")
    m.add_argument("graph", help="graph file")
    m.set_defaults(fn=_cmd_lift, lift=_lift_push)
    m = modes.add_parser("taylor", parents=[params, vertex_set, as_json],
                         help="to the Taylor cover of a base family")
    m.add_argument("base", help="base family name")
    m.set_defaults(fn=_cmd_lift, lift=lambda a: taylor_lift(
        zoo.graph({"taylor": _base_spec(a)}), a.set))
    m = modes.add_parser("double", parents=[params, vertex_set, as_json],
                         help="to the bipartite double of a graph or base family")
    m.add_argument("--out", help="also write the doubled graph here")
    base = m.add_mutually_exclusive_group(required=True)
    base.add_argument("graph", nargs="?", help="base graph file")
    base.add_argument("--base", help="base family name")
    m.set_defaults(fn=_cmd_lift, lift=_lift_double)

    p = sub.add_parser("bounds", parents=[as_json],
                       help="counting and probabilistic bounds (primitive graphs)")
    p.add_argument("graph", help="graph file")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("semiresolve", parents=[design, as_json],
                       help="minimum semi-resolving set of a design")
    sides = p.add_mutually_exclusive_group()
    sides.add_argument("--side", choices=["points", "blocks"], default="blocks",
                       help="pairs to separate (default blocks)")
    sides.add_argument("--split", action="store_true", help="both sides (split dimension)")
    _add_budget(p)
    p.set_defaults(fn=_cmd_semiresolve)

    p = sub.add_parser("verify", parents=[as_json], help="golden-value regression suite")
    p.add_argument("--only", help="comma-separated row ids")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="re-derive frozen values by exhaustive enumeration")
    p.add_argument("--max-n", type=_decimal, default=32,
                   help="skip instances with more vertices than this")
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MdimlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER

