"""Command-line entry point.

Single computations read an ideal/graph (JSON, or graph6 for graphs) from
standard input or ``--in`` and write JSON to standard output or ``--out``.
``verify`` runs a theorem suite over a corpus and exits 1 when a counterexample
was found.  Exit codes: 0 all pass / computation ok, 1 counterexample found,
2 usage or input error, 3 any other error (a crash), traceback on stderr.

The parser needs the suite names and the search cap, so ``suites`` and
``linquot`` load with this module; each command imports the other layers it
calls, so that a run loads only what it uses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .graphs import _ASCII_SPACE, Graph, parse_graph6
from .linquot import DEFAULT_GENERATOR_CAP, SearchCapExceeded, find_lq_ordering, is_lq_ordering
from .monomials import MonomialIdeal
from .suites import C_POLICIES, SUITE_NAMES, SuiteConfig, run_suite


def _read_input(args) -> str:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _write_output(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty entry is an error, an empty string
    the empty vector."""
    parts = text.replace(" ", "").split(",")
    if parts == [""]:
        return ()
    try:
        return tuple(int(part) for part in parts)
    except ValueError as exc:
        raise ValueError(f"cannot parse integer vector from {text!r}") from exc


def _load_graph(text: str) -> Graph:
    stripped = text.strip(_ASCII_SPACE)
    if stripped.startswith("{"):
        return Graph.from_json(stripped)
    # str.splitlines would also break at the control bytes 0x1c-0x1e
    lines = [line for line in re.split(r"\r\n?|\n", text) if line.strip(_ASCII_SPACE)]
    if len(lines) > 1:
        raise ValueError(f"expected one graph6 line, got {len(lines)} non-empty lines")
    return parse_graph6(lines[0] if lines else "")


def _cmd_ideal(args) -> int:
    from .homology import betti_table, regularity

    ideal = MonomialIdeal.from_json(_read_input(args))
    if args.op == "restrict":
        result = ideal.restrict(_parse_vector(args.c)).to_json()
    elif args.op == "power":
        result = ideal.power(args.s).to_json()
    elif args.op == "colon":
        result = ideal.colon(_parse_vector(args.u)).to_json()
    elif args.op == "betti":
        entries = [[i, j, b] for (i, j), b in betti_table(ideal, args.char).items()]
        result = json.dumps({"char": args.char, "entries": entries})
    else:  # reg
        result = json.dumps({"regularity": regularity(ideal, args.char), "char": args.char})
    _write_output(args, result)
    return 0


def _cmd_graph(args) -> int:
    from .powers import delta_bmatching

    graph = _load_graph(_read_input(args))
    if args.op == "complement":
        result = graph.complement().to_json()
    elif args.op == "chordal":
        result = json.dumps({"chordal": graph.is_chordal()})
    else:  # match
        result = json.dumps({"matching_number": delta_bmatching(graph, (1,) * graph.n)})
    _write_output(args, result)
    return 0


def _cmd_delta(args) -> int:
    from .powers import delta

    text = _read_input(args)
    stripped = text.strip(_ASCII_SPACE)
    if stripped.startswith("{") and "edges" not in json.loads(stripped):
        ideal = MonomialIdeal.from_json(stripped)
    else:
        ideal = _load_graph(text).edge_ideal()
    if args.c is not None:
        c = _parse_vector(args.c)
    elif args.c_policy == "ones":
        c = (1,) * ideal.n
    else:
        raise ValueError("delta needs --c or --c-policy ones")
    _write_output(args, json.dumps({"delta": delta(ideal, c), "c": list(c)}))
    return 0


def _cmd_lq(args) -> int:
    ideal = MonomialIdeal.from_json(_read_input(args))
    if args.op == "find":
        order = find_lq_ordering(ideal, args.max_gens)
        payload = {"found": order is not None,
                   "order": list(order) if order is not None else None}
    else:  # check
        order = _parse_vector(args.order)
        payload = {"order": list(order), "valid": is_lq_ordering(ideal, order)}
    _write_output(args, json.dumps(payload))
    return 0


def _cmd_polymatroidal(args) -> int:
    from .polymatroid import is_equigenerated, is_matroidal, is_polymatroidal

    ideal = MonomialIdeal.from_json(_read_input(args))
    poly = is_polymatroidal(ideal)
    payload = {
        "equigenerated": is_equigenerated(ideal),
        "polymatroidal": poly,
        "matroidal": is_matroidal(ideal) if poly else False,
    }
    _write_output(args, json.dumps(payload))
    return 0


def _cmd_colon_quadrics(args) -> int:
    from .connections import colon_quadrics

    graph = _load_graph(_read_input(args))
    c = _parse_vector(args.c)
    u = _parse_vector(args.u)
    _write_output(args, colon_quadrics(graph, c, u).to_json())
    return 0


def _cmd_verify(args) -> int:
    options = {name: getattr(args, name) for name in SuiteConfig.DEFAULTS if hasattr(args, name)}
    if "c_explicit" in options:
        options["c_explicit"] = _parse_vector(options["c_explicit"])
    report = run_suite(SuiteConfig(args.suite, **options))
    _write_output(args, report.to_json())
    return 1 if report.failed else 0


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="infile", help="read input from FILE instead of stdin")
    parser.add_argument("--out", help="write JSON to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundedpowers",
        description="bounded powers of monomial and edge ideals: computations and theorem suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ideal = sub.add_parser("ideal", help="operations on a monomial ideal (JSON input)")
    p_ideal.add_argument("op", choices=["restrict", "power", "colon", "betti", "reg"])
    p_ideal.add_argument("--c", help="bound vector, e.g. 1,1,2")
    p_ideal.add_argument("--s", type=int, default=1, help="power exponent")
    p_ideal.add_argument("--u", help="monomial exponent vector, e.g. 1,1,0")
    p_ideal.add_argument("--char", type=int, default=0, help="field characteristic")
    _add_io_options(p_ideal)
    p_ideal.set_defaults(func=_cmd_ideal)

    p_graph = sub.add_parser("graph", help="operations on a graph (JSON or graph6 input)")
    p_graph.add_argument("op", choices=["complement", "chordal", "match"])
    _add_io_options(p_graph)
    p_graph.set_defaults(func=_cmd_graph)

    p_delta = sub.add_parser("delta", help="largest nonvanishing bounded power exponent")
    p_delta.add_argument("--c", help="explicit bound vector")
    p_delta.add_argument("--c-policy", choices=["ones"], help="derive c from the ambient")
    _add_io_options(p_delta)
    p_delta.set_defaults(func=_cmd_delta)

    p_lq = sub.add_parser("lq", help="linear quotients orderings (ideal JSON input)")
    p_lq.add_argument("op", choices=["find", "check"])
    p_lq.add_argument("--order", help="candidate ordering for `check`, e.g. 0,2,1")
    p_lq.add_argument("--max-gens", type=int, default=DEFAULT_GENERATOR_CAP,
                      help="search cap on generators")
    _add_io_options(p_lq)
    p_lq.set_defaults(func=_cmd_lq)

    p_poly = sub.add_parser("polymatroidal", help="exchange-condition tests (ideal JSON input)")
    _add_io_options(p_poly)
    p_poly.set_defaults(func=_cmd_polymatroidal)

    p_cq = sub.add_parser("colon-quadrics",
                          help="quadric description of a bounded-power colon (graph input)")
    p_cq.add_argument("--c", required=True)
    p_cq.add_argument("--u", required=True,
                      help="generator of the s-th bounded power, s = deg(u) / 2")
    _add_io_options(p_cq)
    p_cq.set_defaults(func=_cmd_colon_quadrics)

    # no defaults here: a flag that is not given keeps the SuiteConfig default
    p_verify = sub.add_parser("verify", help="run a theorem-verification suite",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p_verify.add_argument("--nmax", type=int, help="enumerate all labeled graphs on 1..N "
                          "vertices, N <= 7 (N = 4 when no corpus flag is given)")
    p_verify.add_argument("--graph6", dest="graph6_path", metavar="FILE",
                          help="corpus file of graph6 lines")
    p_verify.add_argument("--count", dest="random_count", metavar="N", type=int,
                          help="random corpus size (boston and istanbul: 100 if not given)")
    p_verify.add_argument("--random-nmax", type=int, help="vertex cap for random corpora")
    p_verify.add_argument("--c-policy", choices=C_POLICIES)
    p_verify.add_argument("--c-value", type=int,
                          help="constant value / random upper bound for c entries")
    p_verify.add_argument("--c", dest="c_explicit", metavar="C",
                          help="explicit bound vector (with --c-policy explicit)")
    p_verify.add_argument("--char", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--jobs", type=int)
    p_verify.add_argument("--max-gens", dest="max_generators", metavar="N", type=int)
    p_verify.add_argument("--max-s", type=int)
    p_verify.add_argument("--out", help="write the report to FILE")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


# (command, op) -> the flag that op cannot run without
_REQUIRED_FLAGS = {
    ("ideal", "restrict"): "c",
    ("ideal", "colon"): "u",
    ("lq", "check"): "order",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag = _REQUIRED_FLAGS.get((args.command, getattr(args, "op", None)))
    if flag and getattr(args, flag) is None:
        parser.error(f"{args.command} {args.op} requires --{flag}")
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, SearchCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash must not exit 1, which means a counterexample
        sys.excepthook(*sys.exc_info())  # the interpreter's traceback, on stderr
        return 3


if __name__ == "__main__":
    sys.exit(main())
