#!/usr/bin/env python3
"""Order sensitivity of the parallel copies versus the pack algorithms.

Reshuffles the items inside every pack of a synthetic stream many times.
The pack algorithms commit to the same weights for a whole pack, so their
totals are invariant to within-pack order (up to float summation noise);
the parallel copies reassign items to copies when order changes, so their total
moves.  This script quantifies both effects and confirms that every
reshuffled parallel-copies run still satisfies its guarantee.

Example:
    python scripts/shuffle_stability.py --experts 4 --trials 40 --shuffles 50
"""

import argparse

import numpy as np

from packpredict import (
    SyntheticConfig,
    generate_synthetic_stream,
    run_experiment,
    shuffle_within_packs,
)

PACK_ALGORITHMS = ["aap-max", "aap-incremental", "aap-current"]


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experts", type=int, default=4)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--max-pack", type=int, default=7)
    ap.add_argument("--shuffles", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.shuffles < 1:
        ap.error("--shuffles must be >= 1")
    return args


def main():
    args = parse_args()
    config = SyntheticConfig(
        num_experts=args.experts,
        num_trials=args.trials,
        pack_size_max=args.max_pack,
        seed=args.seed,
    )
    stream, game = generate_synthetic_stream(config)
    print(f"stream: {len(stream)} packs, {stream.num_items} items, "
          f"{stream.num_experts} experts")

    # Every algorithm on each reshuffle, with every prefix audited; the
    # parallel copies' spread comes from the stream's own shuffle study.
    base = run_experiment(stream, game, PACK_ALGORITHMS,
                          shuffles=args.shuffles, shuffle_seed=args.seed)
    rng = np.random.default_rng(args.seed)
    runs = [run_experiment(shuffle_within_packs(stream, rng), game,
                           PACK_ALGORITHMS + ["parallel"], every_prefix=True)
            for _ in range(args.shuffles)]
    print(f"\nwithin-pack reshuffles: {args.shuffles}")
    for i, a in enumerate(base.algorithms):
        dev = max(abs(r.algorithms[i].total_loss - a.total_loss) for r in runs)
        print(f"{a.name:>18}: total {a.total_loss:.6f}   max |shift| over "
              f"reshuffles {dev:.3e}  (invariant)")
    summary = base.shuffle
    print(f"{'parallel copies':>18}: mean {summary.mean:.6f}   "
          f"spread [{summary.min:.6f}, {summary.max:.6f}]   "
          f"width {summary.max - summary.min:.6f}")

    held = sum(r.algorithms[-1].passed for r in runs)
    print(f"\nguarantee on reshuffled parallel-copies runs: "
          f"{held}/{args.shuffles} hold")
    return 0 if held == args.shuffles else 2


if __name__ == "__main__":
    raise SystemExit(main())
