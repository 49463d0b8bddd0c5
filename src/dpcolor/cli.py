"""Command-line front end.

Exit codes: 0 for a completed query or an upheld claim, 2 when a sweep
or structure check surfaces a genuine refutation, 1 for usage, input,
or precondition errors, input nested past Python's recursion limit
and input too large to hold in memory among them.  A reader that closes
standard output early (``dpcolor enumerate-covers ... | head``) also
ends the command with status 1, quietly: no ``error:`` line, since the
output was cut short by the reader, not by a fault.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from itertools import islice

from .covers import (
    cover_from_json_text,
    cover_to_json_text,
    coloring_to_json_text,
    enumerate_covers,
)
from .construct import (
    make_c4_covers,
    make_dirac,
    make_ks_example,
    make_multigraph_counterexample,
    make_wheel,
)
from .graphs import emit_graph6, multigraph_from_json, parse_graph6
from .harness import (
    SweepConfig,
    emit_report,
    verify_critical_structure,
    verify_dirac_bound,
)
from .recognize import find_brick, is_gallai_forest, is_gdp_forest, recognize_dirac
from .solver import chi_dp, find_coloring, is_critical
from . import __version__


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_cover(path: str):
    return cover_from_json_text(_read_text(path))


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _cmd_solve(args) -> int:
    cover = _load_cover(args.cover)
    print(coloring_to_json_text(find_coloring(cover)))
    return 0


def _cmd_critical(args) -> int:
    cover = _load_cover(args.cover)
    print(_bool_text(is_critical(cover)))
    return 0


def _cmd_chi_dp(args) -> int:
    g = parse_graph6(args.graph)
    print(chi_dp(g, max_k=args.max_k))
    return 0


def _cmd_recognize(args) -> int:
    brick = args.what == "brick"
    if args.what in ("dirac", "brick") and args.k is None:
        raise ValueError(f"recognize {args.what} requires --k")
    if brick and args.multigraph is not None:
        g = multigraph_from_json(json.loads(args.multigraph))
    elif args.graph is not None:
        g = parse_graph6(args.graph)
    else:
        also = " or --multigraph" if brick else ""
        raise ValueError(f"recognize {args.what} requires --graph{also}")
    if args.what == "gallai":
        print(_bool_text(is_gallai_forest(g)))
    elif args.what == "gdp":
        print(_bool_text(is_gdp_forest(g)))
    elif args.what == "dirac":
        witness = recognize_dirac(g, args.k)
        print("null" if witness is None else json.dumps(witness.to_json()))
    else:  # brick
        witness = find_brick(g, args.k, allow_submultiplicity=not args.exact_multiplicity)
        print("null" if witness is None else json.dumps(witness.to_json()))
    return 0


def _cmd_construct(args) -> int:
    if args.name == "dirac":
        print(emit_graph6(make_dirac(args.k, args.split)))
    elif args.name == "ks":
        g, lists = make_ks_example(args.k)
        print(json.dumps({"graph6": emit_graph6(g), "lists": lists}))
    elif args.name == "c4-covers":
        straight, twisted = make_c4_covers()
        print(cover_to_json_text(straight))
        print(cover_to_json_text(twisted))
    elif args.name == "wheel":
        print(emit_graph6(make_wheel(args.r)))
    else:  # multi-counterexample
        _, cover = make_multigraph_counterexample(args.k)
        print(cover_to_json_text(cover))
    return 0


def _cmd_enumerate_covers(args) -> int:
    covers = enumerate_covers(parse_graph6(args.graph), args.k, args.regime)
    limit = None if args.limit is None else max(args.limit, 0)
    for cover in islice(covers, limit):
        print(cover_to_json_text(cover))
    return 0


def _cmd_verify_dirac(args) -> int:
    cfg = SweepConfig(
        k=args.k,
        regime=args.regime,
        max_n=args.max_n,
        parallelism=args.jobs,
        include_dirac=args.include_dirac,
    )
    # split on newlines only: str.splitlines() also breaks at \x1c-\x1e and \x85
    rows = verify_dirac_bound(cfg, _read_text(args.graphs).split("\n"))
    if args.out:
        emit_report(rows, args.format, args.out)
    else:
        emit_report(rows, args.format, sys.stdout)
    refuted = [r for r in rows if r.critical_cover_found and not r.is_dirac]
    found = sum(1 for r in rows if r.critical_cover_found)
    print(
        f"candidates: {len(rows)}, critical covers: {found}, refutations: {len(refuted)}",
        file=sys.stderr,
    )
    return 2 if refuted else 0


def _cmd_verify_structure(args) -> int:
    cover = _load_cover(args.cover)
    report = verify_critical_structure(cover)
    print(json.dumps(asdict(report), indent=2))
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcolor",
        description="Exact DP-coloring toolkit: solve covers, decide criticality, "
        "recognize structure, and verify the sharp density bound at desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log progress on stderr, such as the sweep's rejection counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a coloring of a cover, or null")
    p.add_argument("--cover", required=True, help="cover JSON file, or - for stdin")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("critical", help="decide whether a cover is critical")
    p.add_argument("--cover", required=True, help="cover JSON file, or - for stdin")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("chi-dp", help="exact cover-chromatic threshold of a graph")
    p.add_argument("--graph", required=True, help="graph6 string")
    p.add_argument("--max-k", type=int, default=None, help="fail if the threshold exceeds this")
    p.set_defaults(func=_cmd_chi_dp)

    p = sub.add_parser("recognize", help="run a structural recognizer")
    p.add_argument(
        "--what",
        required=True,
        choices=["gallai", "gdp", "dirac", "brick"],
    )
    p.add_argument("--graph", help="graph6 string")
    p.add_argument("--multigraph", help='multigraph JSON {"n":..,"edges":[[u,v,mult],..]}')
    p.add_argument("--k", type=int, default=None)
    p.add_argument(
        "--exact-multiplicity",
        action="store_true",
        help="brick only: require the brick's exact multiplicities, not containment",
    )
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("construct", help="emit a named construction")
    p.add_argument(
        "name",
        choices=["dirac", "ks", "c4-covers", "wheel", "multi-counterexample"],
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--split", type=int, default=1, help="dirac: big-clique vertices on the first end")
    p.add_argument("--r", type=int, default=4, help="wheel: rim length")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate-covers", help="stream cover JSON, one per line")
    p.add_argument("--graph", required=True, help="graph6 string (connected)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--regime", choices=["perfect", "partial"], default="perfect")
    p.add_argument("--limit", type=int, default=None, help="stop after this many covers")
    p.set_defaults(func=_cmd_enumerate_covers)

    p = sub.add_parser("verify-dirac", help="sweep graph6 lines for critical covers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graphs", required=True, help="file of graph6 lines, or - for stdin")
    p.add_argument("--regime", choices=["perfect", "partial"], default="perfect")
    p.add_argument("--out", default=None, help="report file (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="vertex cap per graph (default per k)",
    )
    p.add_argument(
        "--include-dirac",
        action="store_true",
        help="sweep k-Dirac graphs too instead of filtering them",
    )
    p.set_defaults(func=_cmd_verify_dirac)

    p = sub.add_parser(
        "verify-structure", help="check the degree-k subgraph facts of a critical cover"
    )
    p.add_argument("--cover", required=True, help="cover JSON file, or - for stdin")
    p.set_defaults(func=_cmd_verify_structure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    try:
        status = args.func(args)
        # flush here, so that a closed pipe shows inside the try
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # an int past what Python can size a list or shift by, such as a huge list size
        print(f"error: number too large: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
