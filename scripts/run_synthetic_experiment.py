#!/usr/bin/env python3
"""Regret-curve experiment on a drifting synthetic stream.

Generates a pack stream whose best expert changes every --drift-period
trials, runs every applicable algorithm, and prints cumulative losses at
checkpoints together with each algorithm's final guarantee slack (minimum
over experts of bound minus learner loss; negative would be a violation).

Example:
    python scripts/run_synthetic_experiment.py --experts 5 --trials 60 \
        --drift-period 15 --seed 3
"""

import argparse

from packpredict import SyntheticConfig, generate_synthetic_stream, run_experiment


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experts", type=int, default=5)
    ap.add_argument("--trials", type=int, default=60)
    ap.add_argument("--min-pack", type=int, default=1)
    ap.add_argument("--max-pack", type=int, default=7)
    ap.add_argument("--drift-period", type=int, default=15,
                    help="trials between changes of the sharpest expert (0: no drift)")
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkpoints", type=int, default=10)
    return ap.parse_args()


def main():
    args = parse_args()
    config = SyntheticConfig(
        num_experts=args.experts,
        num_trials=args.trials,
        pack_size_min=args.min_pack,
        pack_size_max=args.max_pack,
        drift_period=args.drift_period,
        noise=args.noise,
        seed=args.seed,
    )
    stream, game = generate_synthetic_stream(config)
    result = run_experiment(stream, game, every_prefix=True)

    names = [a.name for a in result.algorithms]
    t = len(stream)
    marks = sorted({max(1, round(t * i / args.checkpoints)) for i in
                    range(1, args.checkpoints + 1)})
    print(f"stream: {t} packs, {stream.num_items} items, "
          f"{stream.num_experts} experts, sizes "
          f"{stream.min_pack_size}..{stream.max_pack_size}, eta={game.eta:g}")
    print()
    header = "trial" + "".join(f"{n:>18}" for n in names)
    print(header)
    for m in marks:
        row = f"{m:>5}"
        for a in result.algorithms:
            row += f"{a.records.cumulative_loss[m - 1]:>18.6f}"
        print(row)
    print()
    best = None
    for a in result.algorithms:
        slack = min(r.min_slack for r in a.reports)
        status = "ok" if a.passed else "VIOLATED"
        print(f"{a.name:>18}: total loss {a.total_loss:.6f}   "
              f"min guarantee slack {slack:+.6f}   [{status}]")
        if best is None or a.total_loss < best[1]:
            best = (a.name, a.total_loss)
    expert_losses = result.algorithms[0].records.expert_cumulative_losses[-1]
    print(f"{'best expert':>18}: total loss {expert_losses.min():.6f}   "
          f"(expert {int(expert_losses.argmin())})")
    print(f"\nlowest learner loss: {best[0]} ({best[1]:.6f})")
    return 0 if result.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
