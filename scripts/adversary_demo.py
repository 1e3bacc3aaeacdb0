#!/usr/bin/env python3
"""The mix-loss lower bound in action.

Plays probability-vector learners against the adversarial outcome designer
that zeroes the loss of one low-product expert per pack and makes every
other expert's loss infinite.  Each pack of size K then costs any learner
at least K*ln(N) regret, so the total regret of every strategy matches the
sum of the per-pack floors — showing the pack guarantees of the prediction
algorithms are tight up to constants.

Example:
    python scripts/adversary_demo.py --experts 3 --packs 2,4,1,3
"""

import argparse

from packpredict import (
    AdversaryNature,
    ExponentialWeightsLearner,
    UniformLearner,
    regret_lower_bound,
    run_mixloss_game,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--experts", type=int, default=3)
    ap.add_argument("--packs", type=str, default="2,4,1,3",
                    help="comma-separated pack sizes")
    return ap.parse_args()


def show(name, run):
    print(f"\n{name}:")
    print(f"{'pack':>5}{'size':>6}{'regret increment':>20}{'K ln N floor':>16}")
    for t, (k, regret, bound) in enumerate(zip(
            run.pack_size.tolist(), run.regret_increment.tolist(),
            run.lower_bound_increment.tolist())):
        print(f"{t:>5}{k:>6}{regret:>20.6f}{bound:>16.6f}")
    print(f"{'':>11}{'total':>20} {run.total_regret:>19.6f}")
    return run.total_regret


def main():
    args = parse_args()
    sizes = [int(x) for x in args.packs.split(",")]
    n = args.experts
    floor = regret_lower_bound(sizes, n)
    print(f"{n} experts, packs {sizes}: floor = ln({n}) * {sum(sizes)} "
          f"= {floor:.6f}")

    uniform_total = show(
        "uniform learner vs adversary",
        run_mixloss_game(UniformLearner(n), AdversaryNature(), sizes))
    ew_total = show(
        "exponential-weights learner vs adversary",
        run_mixloss_game(ExponentialWeightsLearner(n), AdversaryNature(), sizes))

    print(f"\nfloor {floor:.6f}; uniform achieves it exactly "
          f"(gap {uniform_total - floor:.2e}); exponential weights pays "
          f"{'at least the floor' if ew_total >= floor - 1e-9 else 'LESS (bug!)'}"
          f" (total {ew_total:.6f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
