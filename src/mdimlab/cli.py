"""Command-line front end.

Subcommands: construct, classify, mdim, lift, bounds, semiresolve, verify,
oracle, experiment.  Exit codes: 0 success, 1 user or input error, 2 node
budget exhausted before the requested answer was proved (mdim, semiresolve,
and experiment, where any printed value left unproved counts).
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
from .errors import MdimlabError
from .graphs import Graph, induced_neighborhood
from .imprimitivity import antipodal_structure, bipartition, classify_ah
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


def _parse_set(text: str | None, flag: str) -> tuple[int, ...]:
    if text is None:
        raise MdimlabError(f"this mode needs {flag}")
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


def _proved(certs) -> int:
    """EXIT_OK if every certificate is a proved minimum, else EXIT_BUDGET."""
    return EXIT_OK if all(c.status == "minimum" for c in certs) else EXIT_BUDGET


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


def _base_graph(args: argparse.Namespace) -> Graph:
    """The --base family member, built with the --param values."""
    if not args.base:
        raise MdimlabError("this mode needs --base FAMILY (with --param for it)")
    return families.family(args.base, *(args.param or ()))


def _write_or_print(text: str, out: str | None, what: str) -> None:
    """Write text to the file out and name what was written, or print text."""
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {what} to {out}")
    else:
        print(text, end="")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.plane is not None:
        if args.dot:
            raise MdimlabError("--dot draws graphs; --plane builds a design")
        if args.family or args.param or args.base:
            raise MdimlabError(
                "--plane builds a design; --family, --param and --base build graphs"
            )
        design = pg2(args.plane)
        _write_or_print(design_text(design), args.out,
                        f"({design.v}, {design.k}, {design.lam}) design")
        return EXIT_OK
    if args.family is None:
        raise MdimlabError("supply --family NAME or --plane Q")
    if args.family == "taylor":
        g = families.taylor(_base_graph(args)).graph
    elif args.family == "bipartite_double":
        g = families.bipartite_double(_base_graph(args)).graph
    elif args.base:
        raise MdimlabError(
            f"--base is read only by --family taylor or bipartite_double, "
            f"not {args.family}"
        )
    else:
        g = families.family(args.family, *(args.param or ()))
    if args.dot:
        _write_or_print(graph_dot(g), args.out, f"{g.n}-vertex graph (dot)")
    else:
        _write_or_print(graph_text(g), args.out, f"{g.n}-vertex graph")
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
        cert = certify(g, _parse_set(args.certify, "--certify"))
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
    if args.base and args.graph:
        raise MdimlabError("lift from a graph file or from --base, not both")
    if args.param and not args.base:
        raise MdimlabError("--param is read only with --base")
    if args.out and mode != "double":
        raise MdimlabError("--out is read only with --from double")
    if (args.plus_set or args.minus_set) and mode != "halved":
        raise MdimlabError("--plus-set and --minus-set are read only with --from halved")
    if args.set and mode == "halved":
        raise MdimlabError("--set is not read with --from halved; "
                           "give --plus-set and --minus-set")
    if mode == "halved":
        g = _load_graph(args.graph)
        cert = lift_halved(g, _parse_set(args.plus_set, "--plus-set"),
                           _parse_set(args.minus_set, "--minus-set"))
    elif mode == "folded":
        g = _load_graph(args.graph)
        structure = antipodal_structure(g)
        result = lift_folded(g, _parse_set(args.set, "--set"), structure)
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
        cert = push_to_plus(g, side, _parse_set(args.set, "--set"))
    elif mode == "taylor":
        cover = families.taylor(_base_graph(args))
        cert = taylor_lift(cover, _parse_set(args.set, "--set"))
    elif mode == "double":
        base = _base_graph(args) if args.base else _load_graph(args.graph)
        cover, cert = double_lift(base, _parse_set(args.set, "--set"))
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
        certs = (result.points_part, result.blocks_part)
    else:
        side = args.side or "blocks"
        cert = min_semi_resolving(design, side=side)
        _emit(cert.to_json(), args.json,
              f"size={cert.mu} set={list(cert.set)} side={side} "
              f"status={cert.status}")
        certs = (cert,)
    return _proved(certs)


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
        raise MdimlabError(f"no row has at most --max-n {args.max_n} vertices")
    return EXIT_OK if bad == 0 else EXIT_USER


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.kind == "descendants":
        if args.plane is not None or args.design is not None:
            raise MdimlabError("--plane and --design are read only by semisplit")
        base = _base_graph(args)
        cover = families.taylor(base)
        certs = [mdim_exact(base)]
        rows = []
        for w in range(cover.graph.n):
            local, _ = induced_neighborhood(cover.graph, w)
            certs.append(mdim_exact(local))
            rows.append({"vertex": w, "tag": cover.tags[w], "mu": certs[-1].mu})
        payload = {"base_mu": certs[0].mu, "descendants": rows}
        if args.json:
            _emit(payload, True)
        else:
            print(f"base mu={certs[0].mu}")
            for row in rows:
                print(f"  vertex {row['vertex']} ({row['tag']}): mu={row['mu']}")
        return _proved(certs)
    if args.kind == "semisplit":
        if args.base or args.param:
            raise MdimlabError("--base and --param are read only by descendants")
        design = _load_design(args)
        split = split_mdim(design)
        # the split's points part separates the blocks, and dually
        pts, blk = split.blocks_part, split.points_part
        inc = mdim_exact(incidence_graph(design).graph)
        payload = {
            "semi_points": pts.to_json(),
            "semi_blocks": blk.to_json(),
            "split": split.to_json(),
            "incidence_mu": inc.mu,
        }
        if args.json:
            _emit(payload, True)
        else:
            print(f"semi points-side={pts.mu} blocks-side={blk.mu} "
                  f"split={split.mu_star} incidence mu={inc.mu}")
        return _proved((pts, blk, inc))
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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--greedy", action="store_true", help="greedy upper bound instead")
    mode.add_argument("--oracle", action="store_true",
                      help="exhaustive enumeration (small graphs only)")
    mode.add_argument("--certify", metavar="SET", help="verify this comma-separated set")
    mode.add_argument("--budget", type=int, help="node budget override (exact solver only)")
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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--plane", type=int, help="order-q point-line design")
    source.add_argument("--design", help="design file")
    sides = p.add_mutually_exclusive_group()
    sides.add_argument("--side", choices=["points", "blocks"],
                       help="pairs to separate (default blocks)")
    sides.add_argument("--split", action="store_true", help="both sides (split dimension)")
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
    source = p.add_mutually_exclusive_group()
    source.add_argument("--plane", type=int, help="semisplit: order-q design")
    source.add_argument("--design", help="semisplit: design file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (MdimlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER


if __name__ == "__main__":
    raise SystemExit(main())
