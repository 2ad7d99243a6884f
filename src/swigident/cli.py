"""Command-line front end.

Subcommands: identify, verify, dsep, simulate, dot, fixture.  Exit codes:
0 on success (including a true/false dsep answer), 2 when an estimand is not
identified or a verification fails, 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .dsl import emit_graph, parse_ci_query, parse_estimand, parse_graph, to_dot
from .derivation import Derivation, query_to_json
from .engine import Strategy, identify, verify
from .errors import SwigIdentError, malformed
from .expr import to_text
from .figures import FIXTURES
from .graphs import d_separated
from .model import Swig, to_swig
from .oracle import load_model, random_model, sample


def _load_swig(args) -> Swig:
    """The split graph of the graph file, with --unobserved applied."""
    with open(args.graph, "r", encoding="utf-8") as fh, malformed("graph file"):
        text = fh.read()
    base = parse_graph(text)
    hidden = {name for group in args.unobserved for name in group.split(",") if name}
    if hidden:
        unknown = hidden - set(base.names)
        if unknown:
            raise SwigIdentError(f"--unobserved names not in graph: {sorted(unknown)}")
        variables = tuple(
            replace(v, observed=v.name not in hidden and v.observed) for v in base.variables
        )
        base = replace(base, variables=variables)
    return to_swig(base)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_identify(args) -> int:
    swig = _load_swig(args)
    estimand = parse_estimand(args.query, swig)
    strategy = Strategy.parse(args.strategy, depth=args.depth)
    derivation = identify(swig, estimand, strategy)
    if args.stats and derivation.stats is not None:
        print(json.dumps(derivation.stats.to_json(), sort_keys=True), file=sys.stderr)
    if args.json:
        _emit(args, _json_dump(derivation.to_json()))
    else:
        lines = [derivation.trace()]
        if derivation.identified:
            lines.append("")
            lines.append(to_text(derivation.final))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if derivation.identified else 2


def cmd_verify(args) -> int:
    swig = _load_swig(args)
    with open(args.derivation, "r", encoding="utf-8") as fh, malformed("derivation"):
        obj = json.load(fh)
    derivation = Derivation.from_json(obj)
    report = verify(derivation, swig, n_models=args.models, seed=args.seed)
    if args.stats:
        print(json.dumps(report.stats_json(), sort_keys=True), file=sys.stderr)
    if args.json:
        _emit(args, _json_dump(report.to_json()))
    else:
        _emit(args, report.summary() + "\n")
    return 0 if report.passed else 2


def cmd_dsep(args) -> int:
    swig = _load_swig(args)
    query = parse_ci_query(args.query, swig)
    result = d_separated(swig, query)
    if args.json:
        _emit(args, _json_dump({"query": query_to_json(query), "d_separated": result}))
    else:
        _emit(args, ("true" if result else "false") + "\n")
    return 0


def cmd_simulate(args) -> int:
    swig = _load_swig(args)
    if args.model:
        model = load_model(args.model)
        if model.swig.graph != swig.graph:
            raise SwigIdentError("model file does not match the graph")
    else:
        model = random_model(swig, seed=args.seed)
    regime = swig.prefix_regime(args.regime)
    dataset = sample(model, regime, args.n, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            dataset.write_csv(fh)
    else:
        dataset.write_csv(sys.stdout)
    return 0


def cmd_dot(args) -> int:
    swig = _load_swig(args)
    regime = swig.prefix_regime(args.regime)
    _emit(args, to_dot(swig, regime))
    return 0


def cmd_fixture(args) -> int:
    if args.name not in FIXTURES:
        raise SwigIdentError(f"unknown fixture {args.name!r}; choose from {', '.join(FIXTURES)}")
    _emit(args, emit_graph(FIXTURES[args.name]()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged (the
    append action of --unobserved copies its default list before adding
    to it), so main builds it once."""
    parser = argparse.ArgumentParser(
        prog="swigident",
        description="Identify interventional estimands on split-node graphs "
        "and audit the derivations numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="path to a .swig graph file")
        p.add_argument(
            "--unobserved",
            action="append",
            default=[],
            metavar="NAMES",
            help="mark comma-separated variables as unobserved (repeatable)",
        )
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("identify", help="derive an observed-data formula for an estimand")
    common(p)
    p.add_argument("query", help="estimand, e.g. \"q[1](Y1 | do D1=d1)\"")
    p.add_argument(
        "--strategy",
        default="top_down",
        help="backdoor[:vars] | frontdoor[:vars] | sequential_backdoor | "
        "sequential_frontdoor[:vars] | mediator_intervention[:vars] | top_down | bottom_up",
    )
    p.add_argument("--depth", type=int, default=16, help="search depth bound")
    p.add_argument("--json", action="store_true", help="emit the derivation as JSON")
    p.add_argument(
        "--stats",
        action="store_true",
        help="write what a top_down or bottom_up search did as one JSON line to stderr",
    )
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("verify", help="replay a derivation JSON against random models")
    common(p)
    p.add_argument("derivation", help="path to a derivation JSON file")
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--stats",
        action="store_true",
        help="write each step's seconds and skipped models, and the oracle's "
        "conditional counts, as one JSON line to stderr",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dsep", help="answer a d-separation query")
    common(p)
    p.add_argument("query", help="query, e.g. \"q[1]: Y1 _||_ Do1 | M1, D1\"")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dsep)

    p = sub.add_parser("simulate", help="sample a dataset from a model under a regime")
    common(p)
    p.add_argument("--n", type=int, default=1000, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", type=int, default=0, help="prefix regime index")
    p.add_argument("--model", default=None, help="model JSON (default: random CPTs)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("dot", help="emit the regime graph as DOT")
    common(p)
    p.add_argument("--regime", type=int, default=0, help="prefix regime index")
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("fixture", help="print a bundled example graph")
    p.add_argument("name", help=f"one of: {', '.join(FIXTURES)}")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SwigIdentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
