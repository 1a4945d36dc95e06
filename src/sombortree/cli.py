"""Command-line interface.

Exit codes: 0 success/confirmed, 1 usage or input error, 2 inconclusive
(enumeration capped), 3 counterexample found (oracle or annealer beat the
constructor).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from sombortree.graph import (
    DegreeSequenceError,
    InvalidTreeError,
    Tree,
    exceeds,
    sombor_index,
    validate,
)
from sombortree.construct import construct_max_tree
from sombortree.verify import anneal_search, check_theorem1, is_local_max, oracle_max
from sombortree.sweep import sweep as run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_COUNTEREXAMPLE = 3


class _UsageError(Exception):
    pass


class _InputError(Exception):
    """Bad input outside the command line's syntax; one line on stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cap(args) -> int | None:
    """--cap, else None: no cap, so the oracle is exact.  A cap bounds the
    skeleton placements the oracle scores per sequence."""
    if args.cap is not None and args.cap < 1:
        raise _InputError(f"--cap must be at least 1, got {args.cap}")
    return args.cap


def _parse_degrees(text: str):
    try:
        raw = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"malformed degree list {text!r}") from exc
    try:
        return validate(raw)
    except DegreeSequenceError as exc:
        raise _UsageError(str(exc)) from exc


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: argparse keeps no state between
    parse_args calls, so run() reuses it instead of building it per call."""
    parser = _Parser(prog="sombor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build the candidate maximum tree")
    p.add_argument("--degrees", required=True)
    p.add_argument("--format", choices=["json", "dot", "edges"], default="json")
    p.add_argument("--out")

    p = sub.add_parser("score", help="Sombor index of a tree JSON file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("verify", help="constructor vs exhaustive oracle")
    p.add_argument("--degrees", required=True)
    p.add_argument("--cap", type=int, default=None)

    p = sub.add_parser("check", help="path-inequality and local-max reports")
    p.add_argument("--degrees", required=True)

    p = sub.add_parser("sweep", help="batch audit up to a vertex budget")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--witness-dir")

    p = sub.add_parser("search", help="seeded annealing counterexample search")
    p.add_argument("--degrees", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {out}: {exc.strerror}") from None


def _cmd_construct(args) -> int:
    d = _parse_degrees(args.degrees)
    tree = construct_max_tree(d)
    if args.format == "json":
        _emit(tree.to_json() + "\n", args.out)
    elif args.format == "dot":
        _emit(tree.to_dot(), args.out)
    else:
        _emit(tree.to_edge_list(), args.out)
    return EXIT_OK


def _cmd_score(args) -> int:
    try:
        with open(args.input) as fh:
            tree = Tree.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read tree from {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{sombor_index(tree):.12g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    d = _parse_degrees(args.degrees)
    cap = _cap(args)
    constructed = construct_max_tree(d)
    c_so = sombor_index(constructed)
    result = oracle_max(d, cap=cap)
    gap = result.max_so - c_so
    optimal = not exceeds(result.max_so, c_so)
    payload = {
        "degrees": list(d.degrees),
        "n": d.vertex_count,
        "m": d.m,
        "constructed_so": c_so,
        "oracle_so": result.max_so,
        "gap": gap,
        "optimal": optimal,
        "capped": result.capped,
        "enumerated": result.enumerated,
        "witnesses": list(result.witnesses),
    }
    print(json.dumps(payload))
    if result.capped:
        return EXIT_INCONCLUSIVE
    if not optimal:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_check(args) -> int:
    d = _parse_degrees(args.degrees)
    tree = construct_max_tree(d)
    report = check_theorem1(tree)
    local = is_local_max(tree)
    payload = {
        "degrees": list(d.degrees),
        "theorem1": report.to_dict(),
        "local_max": local.to_dict(),
    }
    print(json.dumps(payload))
    return EXIT_OK if local.is_local_max else EXIT_COUNTEREXAMPLE


def _cmd_sweep(args) -> int:
    cap = _cap(args)
    try:
        records = run_sweep(
            args.max_n, cap=cap, out_csv=args.out, witness_dir=args.witness_dir
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bad = [r for r in records if not r.optimal and not r.capped]
    capped = [r for r in records if r.capped]
    print(
        json.dumps(
            {
                "rows": len(records),
                "non_optimal": len(bad),
                "capped": len(capped),
                "csv": args.out,
            }
        )
    )
    if bad:
        return EXIT_COUNTEREXAMPLE
    if capped:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.budget < 0:
        raise _InputError(f"--budget must be at least 0, got {args.budget}")
    d = _parse_degrees(args.degrees)
    result = anneal_search(d, budget=args.budget, seed=args.seed)
    improved = exceeds(result.best_so, result.start_so)
    payload = {
        "degrees": list(d.degrees),
        "constructed_so": result.start_so,
        "best_so": result.best_so,
        "improved": improved,
        "moves": result.moves,
        "accepted": result.accepted,
        "seed": args.seed,
        "budget": args.budget,
    }
    print(json.dumps(payload))
    return EXIT_COUNTEREXAMPLE if improved else EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "score": _cmd_score,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (_InputError, DegreeSequenceError, InvalidTreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
