"""The ``alive-tv`` command-line tool (the standalone validator analog).

Stage 3 of the discrete-tools baseline: parse the original and optimized
files, pair functions by name, and report refinement verdicts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..ir.bitcode import BitcodeError, load_module_file
from ..ir.parser import ParseError
from ..tv import RefinementConfig, Verdict, check_module_refinement


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alive-tv",
        description="bounded translation validation between two .ll files")
    parser.add_argument("source", help="original .ll file")
    parser.add_argument("target", help="optimized .ll file")
    parser.add_argument("--max-inputs", type=int, default=24,
                        help="inputs per function pair")
    parser.add_argument("--seed", type=int, default=0,
                        help="input-generation seed")
    parser.add_argument("--no-batched-exec", action="store_true",
                        help="tree-walk enumerated inputs one at a time "
                             "instead of running struct-of-arrays "
                             "batches (verdicts are identical either way)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only set the exit code")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = RefinementConfig(max_inputs=args.max_inputs, seed=args.seed,
                              batched=not args.no_batched_exec)
    try:
        config.validate()
    except ValueError as exc:
        print(f"alive-tv: {exc}", file=sys.stderr)
        return 2
    try:
        source = load_module_file(args.source)
        target = load_module_file(args.target)
    except (OSError, ParseError, BitcodeError) as exc:
        print(f"alive-tv: {exc}", file=sys.stderr)
        return 2

    results = check_module_refinement(source, target, config)
    unsound = 0
    for name, result in results.items():
        if result.verdict == Verdict.UNSOUND:
            unsound += 1
            if not args.quiet:
                print(f"@{name}: NOT verified")
                if result.counterexample:
                    print(f"  {result.counterexample}")
        elif not args.quiet:
            label = {"correct": "verified",
                     "unsupported": f"skipped ({result.reason})",
                     "inconclusive": "inconclusive"}[result.verdict.value]
            print(f"@{name}: {label}")
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main())
