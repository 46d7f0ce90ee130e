"""Command-line front end.

Subcommands: `bound` prints the two bounds for one presentation, `tree`
prints the rendered decomposition chain, `certify` emits the JSON
certificate and verifies it, `batch` processes one presentation per line
of a file or a seeded random sweep.

Exit status: 0 on success, 1 on a parse error, an unreadable input file
or output closed by its reader, 2 on a verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random
from typing import Any, Sequence

from .certio import emit_certificate, render_tree
from .presentations import ParseError, format_presentation, parse_presentation
from .sampling import random_presentation
from .tower import best_tower, build_tower, summarize
from .verify import verify_certificate
from .words import Registry

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asdim",
        description=(
            "Decompose a one-relator group presentation into a chain of "
            "HNN and embedding steps and bound its asymptotic dimension."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser(
        "bound", help="print the relator-length bound and the tower bound"
    )
    p_bound.set_defaults(run=_cmd_bound)
    p_bound.add_argument("presentation", help='e.g. "< a, b | [a, b] >"')
    p_bound.add_argument("--json", action="store_true", help="structured output")
    p_bound.add_argument(
        "--all-pivots",
        action="store_true",
        help="also try every pivot and pair choice and report the best bound",
    )

    p_tree = sub.add_parser("tree", help="print the decomposition chain")
    p_tree.set_defaults(run=_cmd_tree)
    p_tree.add_argument("presentation")

    p_cert = sub.add_parser(
        "certify", help="emit the certificate document and verify it"
    )
    p_cert.set_defaults(run=_cmd_certify)
    p_cert.add_argument("presentation")

    p_batch = sub.add_parser(
        "batch", help="process one presentation per line of a file, or a random sweep"
    )
    p_batch.set_defaults(run=_cmd_batch)
    p_batch.add_argument(
        "file", nargs="?", help="input file; blank lines and # comments are skipped"
    )
    p_batch.add_argument("--json", action="store_true", help="one JSON object per line")
    p_batch.add_argument(
        "--seed", type=int, default=0, help="random seed for --random (default 0)"
    )
    p_batch.add_argument(
        "--random",
        nargs=3,
        type=int,
        metavar=("COUNT", "MAXLEN", "GENS"),
        help="sweep COUNT random presentations instead of reading a file",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = args.run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # The reader stopped early, as head does.  Send what is left of the
        # output to the null device, so that the exit flush passes too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _parse_or_complain(text: str, registry: Registry):
    try:
        return parse_presentation(text, registry)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return None


def _cmd_bound(args: argparse.Namespace) -> int:
    reg = Registry()
    p = _parse_or_complain(args.presentation, reg)
    if p is None:
        return 1
    root = build_tower(p, reg)
    report = summarize(root)
    payload: dict[str, Any] = {
        "presentation": format_presentation(p),
        "relator_length": len(p.relator),
        "length_bound": report.length_bound,
        "tower_bound": report.tower_bound,
        "hnn_steps": report.hnn_steps,
        "node_count": report.node_count,
    }
    if args.all_pivots:
        best, examined = best_tower(p)
        payload["best_tower_bound"] = best.bound
        payload["towers_examined"] = examined
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"presentation:   {payload['presentation']}")
        print(f"relator length: {payload['relator_length']}")
        print(f"length bound:   {payload['length_bound']}")
        print(f"tower bound:    {payload['tower_bound']}")
        print(f"hnn steps:      {payload['hnn_steps']}")
        print(f"nodes:          {payload['node_count']}")
        if args.all_pivots:
            print(f"best tower bound: {payload['best_tower_bound']}")
            print(f"towers examined:  {payload['towers_examined']}")
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    reg = Registry()
    p = _parse_or_complain(args.presentation, reg)
    if p is None:
        return 1
    print(render_tree(build_tower(p, reg)))
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    reg = Registry()
    p = _parse_or_complain(args.presentation, reg)
    if p is None:
        return 1
    root = build_tower(p, reg)
    print(emit_certificate(root))
    report = verify_certificate(root)
    if not report.ok:
        print(report, file=sys.stderr)
        return 2
    return 0


def _batch_inputs(args: argparse.Namespace) -> list[str] | None:
    if (args.file is None) == (args.random is None):
        print("batch needs a file or --random, not both", file=sys.stderr)
        return None
    if args.random is not None:
        count, maxlen, gens = args.random
        if count < 0 or maxlen < 1 or not 1 <= gens <= 26:  # generators a to z
            print(
                "--random needs COUNT >= 0, MAXLEN >= 1, 1 <= GENS <= 26",
                file=sys.stderr,
            )
            return None
        rng = Random(args.seed)
        texts = []
        for _ in range(count):
            p = random_presentation(rng, Registry(), max_gens=gens, max_len=maxlen)
            texts.append(format_presentation(p))
        return texts
    try:
        with open(args.file, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read {args.file}: {e}", file=sys.stderr)
        return None
    texts = []
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            texts.append(stripped)
    return texts


def _cmd_batch(args: argparse.Namespace) -> int:
    texts = _batch_inputs(args)
    if texts is None:
        return 1
    any_parse_error = False
    any_unverified = False
    if not args.json:
        print("input\trelator_length\tlength_bound\ttower_bound\tverified")
    for text in texts:
        reg = Registry()
        try:
            p = parse_presentation(text, reg)
        except ParseError as e:
            any_parse_error = True
            if args.json:
                print(json.dumps({"input": text, "error": str(e)}))
            else:
                print(f"{text}\terror: {e}")
            continue
        root = build_tower(p, reg)
        report = summarize(root)
        ok = verify_certificate(root).ok
        if not ok:
            any_unverified = True
        if args.json:
            print(
                json.dumps(
                    {
                        "input": format_presentation(p),
                        "relator_length": len(p.relator),
                        "length_bound": report.length_bound,
                        "tower_bound": report.tower_bound,
                        "verified": ok,
                    }
                )
            )
        else:
            print(
                f"{format_presentation(p)}\t{len(p.relator)}"
                f"\t{report.length_bound}\t{report.tower_bound}"
                f"\t{'yes' if ok else 'NO'}"
            )
    if any_unverified:
        return 2
    if any_parse_error:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
