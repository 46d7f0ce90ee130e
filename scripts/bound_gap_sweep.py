"""Measure how far the tower bound sits below the relator-length bound.

Runs a seeded random sweep and prints a histogram of the gap
ceil(|r|/2) - tower_bound, plus the verification tally.

    python3 scripts/bound_gap_sweep.py --count 20000 --max-len 16
"""

from __future__ import annotations

import argparse
from collections import Counter
from random import Random

from asdim import (
    Registry,
    build_tower,
    random_presentation,
    summarize,
    verify_certificate,
)


def run_sweep(
    count: int, max_gens: int, max_len: int, seed: int
) -> tuple[Counter[int], int]:
    rng = Random(seed)
    gaps: Counter[int] = Counter()
    verified = 0
    for _ in range(count):
        reg = Registry()
        p = random_presentation(rng, reg, max_gens=max_gens, max_len=max_len)
        root = build_tower(p, reg)
        report = summarize(root)
        gaps[report.length_bound - report.tower_bound] += 1
        if verify_certificate(root).ok:
            verified += 1
    return gaps, verified


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000)
    parser.add_argument("--max-gens", type=int, default=4)
    parser.add_argument("--max-len", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    gaps, verified = run_sweep(args.count, args.max_gens, args.max_len, args.seed)
    total = sum(gaps.values())
    print(f"presentations: {total}   verified: {verified}   seed: {args.seed}")
    print("gap (length bound - tower bound):")
    widest = max(gaps.values())
    for gap in sorted(gaps):
        n = gaps[gap]
        bar = "#" * max(1, round(50 * n / widest))
        print(f"  {gap:3d}  {n:7d}  {bar}")


if __name__ == "__main__":
    main()
