"""Tabulate tower bounds over every cyclically reduced relator of each
length on a fixed generator set.

    python3 scripts/exhaustive_table.py --max-len 8 --gens 2
"""

from __future__ import annotations

import argparse

from asdim import (
    Presentation,
    Registry,
    all_cyclically_reduced_words,
    build_tower,
    ceil_half,
    format_presentation,
    parse_presentation,
    verify_certificate,
)


def row_for_length(gens_count: int, length: int) -> tuple[int, int, float, int]:
    names = "abcdefgh"[:gens_count]
    reg = Registry()
    gens = tuple(reg.declare(n) for n in names)
    count = 0
    worst = 0
    total = 0
    failures = 0
    for w in all_cyclically_reduced_words(gens, length):
        text = format_presentation(Presentation(gens, w))
        run_reg = Registry()
        p = parse_presentation(text, run_reg)
        root = build_tower(p, run_reg)
        count += 1
        worst = max(worst, root.bound)
        total += root.bound
        if root.bound > ceil_half(length) or not verify_certificate(root).ok:
            failures += 1
    return count, worst, total / count if count else 0.0, failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=int, default=8)
    parser.add_argument("--gens", type=int, default=2)
    args = parser.parse_args()

    print("length  relators  max_bound  mean_bound  length_bound  failures")
    for length in range(1, args.max_len + 1):
        count, worst, mean, failures = row_for_length(args.gens, length)
        print(
            f"{length:6d}  {count:8d}  {worst:9d}  {mean:10.3f}"
            f"  {ceil_half(length):12d}  {failures:8d}"
        )


if __name__ == "__main__":
    main()
