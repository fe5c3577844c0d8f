"""Command-line front end.

Subcommands: construct, classify, mdim, lift, bounds, semiresolve, verify,
oracle, experiment.  Exit codes: 0 success, 1 user or input error, 2 node
budget exhausted before the requested answer was proved.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from . import families
from .designs import (
    SymmetricDesign,
    design_from_text,
    design_text,
    incidence_graph,
    pg2,
)
from .errors import BudgetExceeded, MdimlabError
from .graphs import Graph, induced_neighborhood
from .imprimitivity import antipodal_structure, bipartition, classify_ah
from .lifting import (
    double_lift,
    lift_folded,
    lift_halved,
    push_to_plus,
    taylor_lift,
)
from .io import graph_dot, read_ascii, read_graph, write_graph
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


def _parse_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise MdimlabError(f"expected a comma-separated vertex list, got {text!r}")


def _emit(payload: Any, as_json: bool, text: str | None = None) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text if text is not None else payload)


def _load_graph(path: str | None) -> Graph:
    if path is None:
        raise MdimlabError("this mode needs a graph file argument")
    return read_graph(path)


def _load_design(args: argparse.Namespace) -> SymmetricDesign:
    if getattr(args, "plane", None) is not None:
        return pg2(args.plane)
    if getattr(args, "design", None) is not None:
        return design_from_text(read_ascii(args.design))
    raise MdimlabError("supply --plane Q or --design FILE")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.plane is not None:
        design = pg2(args.plane)
        text = design_text(design)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote ({design.v}, {design.k}, {design.lam}) design to {args.out}")
        else:
            print(text, end="")
        return EXIT_OK
    if args.family is None:
        raise MdimlabError("supply --family NAME or --plane Q")
    name = args.family
    params = tuple(args.param or ())
    if name == "taylor":
        base = families.family(args.base, *params) if args.base else None
        if base is None:
            raise MdimlabError("taylor needs --base FAMILY with --param for it")
        g = families.taylor(base).graph
    elif name == "bipartite_double":
        if not args.base:
            raise MdimlabError("bipartite_double needs --base FAMILY with --param")
        g = families.bipartite_double(families.family(args.base, *params)).graph
    else:
        g = families.family(name, *params)
    if args.dot:
        text = graph_dot(g)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {g.n}-vertex graph (dot) to {args.out}")
        else:
            print(text, end="")
        return EXIT_OK
    if args.out:
        write_graph(args.out, g)
        print(f"wrote {g.n}-vertex graph to {args.out}")
    else:
        from .io import graph_text

        print(graph_text(g), end="")
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = classify_ah(g)
    if args.json:
        _emit(result.to_json(), True)
    else:
        print(f"{result.label}  d={result.d} k={result.k} "
              f"bipartite={result.bipartite} antipodal={result.antipodal} t={result.t}")
        for desc, ok in result.subclaims:
            print(f"  verified: {desc}" if ok else f"  FAILED: {desc}")
    return EXIT_OK


def _cmd_mdim(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.certify is not None:
        cert = certify(g, _parse_set(args.certify))
    elif args.greedy:
        cert = mdim_greedy(g)
    elif args.oracle:
        cert = exhaustive_mdim(g)
    else:
        cert = mdim_exact(g, budget=args.budget)
    _emit(cert.to_json(), args.json,
          f"mu={cert.mu} set={list(cert.set)} status={cert.status} method={cert.method}")
    exact_requested = not (args.greedy or args.oracle or args.certify is not None)
    if exact_requested and cert.status != "minimum":
        return EXIT_BUDGET
    if cert.status == "failed":
        return EXIT_USER
    return EXIT_OK


def _cmd_lift(args: argparse.Namespace) -> int:
    mode = args.from_
    if mode == "halved":
        g = _load_graph(args.graph)
        cert = lift_halved(g, _parse_set(args.plus_set), _parse_set(args.minus_set))
    elif mode == "folded":
        g = _load_graph(args.graph)
        structure = antipodal_structure(g)
        result = lift_folded(g, _parse_set(args.set), structure)
        payload = result.certificate.to_json()
        payload["case"] = result.case
        if result.center is not None:
            payload["center"] = result.center
        _emit(payload, args.json,
              f"size={len(result.certificate.set)} set={list(result.certificate.set)} "
              f"case={result.case}")
        return EXIT_OK
    elif mode == "push":
        g = _load_graph(args.graph)
        side = frozenset(bipartition(g)[0])
        cert = push_to_plus(g, side, _parse_set(args.set))
    elif mode == "taylor":
        if not args.base:
            raise MdimlabError("lift --from taylor needs --base FAMILY --param ...")
        cover = families.taylor(families.family(args.base, *(args.param or ())))
        cert = taylor_lift(cover, _parse_set(args.set))
    elif mode == "double":
        if args.base:
            base = families.family(args.base, *(args.param or ()))
        else:
            base = _load_graph(args.graph)
        cover, cert = double_lift(base, _parse_set(args.set))
        if args.out:
            write_graph(args.out, cover.graph)
    else:  # pragma: no cover - argparse restricts choices
        raise MdimlabError(f"unknown lift mode {mode}")
    _emit(cert.to_json(), args.json,
          f"size={len(cert.set)} set={list(cert.set)} status={cert.status} "
          f"method={cert.method}")
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report = babai_bounds(g)
    _emit(report.to_json(), args.json,
          f"n={report.n} k={report.k} d={report.d} lower_nd={report.lower_nd} "
          f"general={report.general:.2f} srg={report.srg and round(report.srg, 2)} "
          f"distance_class={report.distance_class:.2f}")
    return EXIT_OK


def _cmd_semiresolve(args: argparse.Namespace) -> int:
    design = _load_design(args)
    if args.split:
        result = split_mdim(design)
        _emit(result.to_json(), args.json,
              f"split={result.mu_star} points_part={list(result.points_part.set)} "
              f"blocks_part={list(result.blocks_part.set)}")
        return EXIT_OK
    cert = min_semi_resolving(design, side=args.side)
    _emit(cert.to_json(), args.json,
          f"size={cert.mu} set={list(cert.set)} side={args.side}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    only = set(args.only.split(",")) if args.only else None
    report = run_suite(include_slow=args.include_slow, only=only)
    if args.json:
        _emit(report.to_json(), True)
    else:
        print(report.render())
    return EXIT_OK if report.ok else EXIT_USER


def _cmd_oracle(args: argparse.Namespace) -> int:
    rows = oracle_rows(max_n=args.max_n)
    bad = 0
    for row_id, expected, value, agree in rows:
        if value is None:
            print(f"{row_id}: skipped (instance above --max-n)")
            continue
        mark = "ok" if agree else "DISAGREES"
        if not agree:
            bad += 1
        print(f"{row_id}: frozen={expected} oracle={value} {mark}")
    print(f"{len(rows)} rows, {bad} disagreements")
    return EXIT_OK if bad == 0 else EXIT_USER


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.kind == "descendants":
        base = families.family(args.base, *(args.param or ()))
        cover = families.taylor(base)
        mu_base = mdim_exact(base).mu
        rows = []
        for w in range(cover.graph.n):
            local, _ = induced_neighborhood(cover.graph, w)
            rows.append({"vertex": w, "tag": cover.tags[w],
                         "mu": mdim_exact(local).mu})
        payload = {"base_mu": mu_base, "descendants": rows}
        if args.json:
            _emit(payload, True)
        else:
            print(f"base mu={mu_base}")
            for row in rows:
                print(f"  vertex {row['vertex']} ({row['tag']}): mu={row['mu']}")
        return EXIT_OK
    if args.kind == "semisplit":
        design = _load_design(args)
        pts = min_semi_resolving(design, side="points")
        blk = min_semi_resolving(design, side="blocks")
        split = split_mdim(design)
        inc_mu = None
        if 1 < design.k < design.v - 1:
            inc_mu = mdim_exact(incidence_graph(design).graph).mu
        payload = {
            "semi_points": pts.to_json(),
            "semi_blocks": blk.to_json(),
            "split": split.to_json(),
            "incidence_mu": inc_mu,
        }
        if args.json:
            _emit(payload, True)
        else:
            print(f"semi points-side={pts.mu} blocks-side={blk.mu} "
                  f"split={split.mu_star} incidence mu={inc_mu}")
        return EXIT_OK
    raise MdimlabError(f"unknown experiment {args.kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdimlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named graph or design")
    p.add_argument("--family", help="graph family name, or taylor/bipartite_double over --base")
    p.add_argument("--base", help="base family for taylor or bipartite_double")
    p.add_argument("--param", type=int, action="append", help="family parameter (repeatable)")
    p.add_argument("--plane", type=int, help="write the order-q point-line design instead")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of the edge format")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("classify", help="name the imprimitivity class of a graph")
    p.add_argument("graph", help="graph file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("mdim", help="metric dimension with certificate")
    p.add_argument("graph", help="graph file")
    p.add_argument("--greedy", action="store_true", help="greedy upper bound instead")
    p.add_argument("--oracle", action="store_true",
                   help="exhaustive enumeration (small graphs only)")
    p.add_argument("--certify", metavar="SET", help="verify this comma-separated set")
    p.add_argument("--budget", type=int, help="node budget override")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_mdim)

    p = sub.add_parser("lift", help="transfer a resolving set between related graphs")
    p.add_argument("--from", dest="from_", required=True,
                   choices=["halved", "folded", "push", "taylor", "double"])
    p.add_argument("graph", nargs="?", help="graph file (halved/folded/push/double)")
    p.add_argument("--set", help="comma-separated vertex set")
    p.add_argument("--plus-set", help="halved: set in the plus half")
    p.add_argument("--minus-set", help="halved: set in the minus half")
    p.add_argument("--base", help="taylor/double: base family name")
    p.add_argument("--param", type=int, action="append")
    p.add_argument("--out", help="double: also write the doubled graph here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("bounds", help="counting and probabilistic bounds (primitive graphs)")
    p.add_argument("graph", help="graph file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("semiresolve", help="minimum semi-resolving set of a design")
    p.add_argument("--plane", type=int, help="order-q point-line design")
    p.add_argument("--design", help="design file")
    p.add_argument("--side", choices=["points", "blocks"], default="blocks")
    p.add_argument("--split", action="store_true", help="both sides (split dimension)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_semiresolve)

    p = sub.add_parser("verify", help="golden-value regression suite")
    p.add_argument("--include-slow", action="store_true")
    p.add_argument("--only", help="comma-separated row ids")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="re-derive frozen values by exhaustive enumeration")
    p.add_argument("--max-n", type=int, default=32,
                   help="skip instances with more vertices than this")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("experiment", help="exploratory reports on open questions")
    p.add_argument("kind", choices=["descendants", "semisplit"])
    p.add_argument("--base", help="descendants: base family name")
    p.add_argument("--param", type=int, action="append")
    p.add_argument("--plane", type=int, help="semisplit: order-q design")
    p.add_argument("--design", help="semisplit: design file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MdimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    raise SystemExit(main())
