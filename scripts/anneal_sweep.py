#!/usr/bin/env python3
"""Stochastic counterexample search over all sequences up to a vertex budget.

Runs the seeded annealer from each constructed tree and reports any run
that improves on the construction.
"""

import argparse
import sys

from sombortree.graph import exceeds
from sombortree.sweep import generate_degree_sequences
from sombortree.verify import anneal_search


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=14)
    parser.add_argument("--budget", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    if args.budget < 0:
        parser.error(f"--budget must be at least 0, got {args.budget}")

    improved = []
    for d in generate_degree_sequences(args.max_n):
        result = anneal_search(d, budget=args.budget, seed=args.seed)
        start_so = result.start_so
        if exceeds(result.best_so, start_so):
            improved.append((d, start_so, result.best_so))
            print(f"IMPROVED {d}: {start_so:.9f} -> {result.best_so:.9f}")
    print(f"done: {len(improved)} improvements found")
    return 3 if improved else 0


if __name__ == "__main__":
    sys.exit(main())
