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
    audit_run,
    bounds,
    generate_synthetic_stream,
    run_aap_current,
    run_aap_incremental,
    run_aap_max,
    run_parallel,
    shuffle_experiment,
    shuffle_within_packs,
    uniform_prior,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experts", type=int, default=4)
    ap.add_argument("--trials", type=int, default=40)
    ap.add_argument("--max-pack", type=int, default=7)
    ap.add_argument("--shuffles", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args()


def main():
    args = parse_args()
    config = SyntheticConfig(
        num_experts=args.experts,
        num_trials=args.trials,
        pack_size_max=args.max_pack,
        seed=args.seed,
    )
    stream, game = generate_synthetic_stream(config)
    prior = uniform_prior(stream.num_experts)
    print(f"stream: {len(stream)} packs, {stream.num_items} items, "
          f"{stream.num_experts} experts")

    # The pack algorithms: max deviation of the total across reshuffles.
    runners = {
        "aap-max": lambda s: run_aap_max(s, stream.max_pack_size, game),
        "aap-incremental": lambda s: run_aap_incremental(s, game),
        "aap-current": lambda s: run_aap_current(s, game),
    }
    rng = np.random.default_rng(args.seed)
    reshuffled = [shuffle_within_packs(stream, rng) for _ in range(args.shuffles)]
    print(f"\nwithin-pack reshuffles: {args.shuffles}")
    for name, runner in runners.items():
        base = runner(stream).cumulative_loss[-1]
        dev = max(abs(runner(s).cumulative_loss[-1] - base) for s in reshuffled)
        print(f"{name:>18}: total {base:.6f}   max |shift| over reshuffles "
              f"{dev:.3e}  (invariant)")

    # Parallel copies: real spread, and the guarantee on every reshuffle.
    summary = shuffle_experiment(stream, game, num_shuffles=args.shuffles,
                                 seed=args.seed)
    print(f"{'parallel copies':>18}: mean {summary.mean:.6f}   "
          f"spread [{summary.min:.6f}, {summary.max:.6f}]   "
          f"width {summary.max - summary.min:.6f}")

    violations = 0
    for s in reshuffled:
        records = run_parallel(s, game, prior)
        report = audit_run(records, bounds.PARALLEL, game, prior,
                           every_prefix=True)
        violations += 0 if report.passed else 1
    print(f"\nguarantee on reshuffled parallel-copies runs: "
          f"{args.shuffles - violations}/{args.shuffles} hold")
    return 0 if violations == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
