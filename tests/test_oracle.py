"""The replay and the online learner against a 50-digit mpmath oracle.

The oracle plays each protocol literally, one pack at a time.  Before pack t
the weights are p * exp(-(eta / D_t) * L_{t-1}), with the divisor D_t and
the charged losses L written out per algorithm in `mp_run`; every item is
predicted by the closed-form substitution from the mixed loss profile g at
the interval ends.  For the parallel copies, copy k plays item k of every
pack as a one-item game.  Nothing here calls the library's weight code: the
library only supplies the runs under test.

Float error bounds met by every path on these streams:

  * predictions of the replay (all six algorithms) and of the online
    learner (all three divisor policies): 1e-13 * (B - A).  The largest
    error seen is 5.9e-15 * (B - A), on [1e9, 1e9 + 1e7], where one ulp of
    the prediction is already 1.2e-14 * (B - A);
  * cumulative losses, the experts' and the learner's:
    1e-16 * (B - A)^2 * items.  The largest error seen is 1.3e-17.
"""

import mpmath as mp
import numpy as np
import pytest

from packpredict import (
    DivisorPolicy,
    GameSpec,
    Pack,
    PackStream,
    init_state,
    observe_pack,
    predict_pack,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
    run_parallel,
)

from conftest import INTERVALS

PRED_TOL = 1e-13   # times (B - A)
LOSS_TOL = 1e-16   # times (B - A)^2 * items

REPLAYS = {
    "aa": run_aa,
    "aap-equal": lambda s, g, p: run_aap_equal(s, s.max_pack_size, g, p),
    "aap-max": lambda s, g, p: run_aap_max(s, s.max_pack_size, g, p),
    "aap-incremental": run_aap_incremental,
    "aap-current": run_aap_current,
    "parallel": run_parallel,
}

# The online learner's policy for each pack algorithm it can play.
POLICIES = {
    "aap-max": lambda s: DivisorPolicy.fixed(s.max_pack_size),
    "aap-incremental": lambda s: DivisorPolicy.running_max(),
    "aap-current": lambda s: DivisorPolicy.current_pack(),
}


def small_stream(seed, lower, upper, num_experts, sizes=None):
    """A few packs of noisy experts on [lower, upper], with a non-uniform
    prior (unless there is one expert)."""
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = rng.integers(1, 5, size=6)
    width = upper - lower
    packs = []
    for k in sizes:
        latent = rng.uniform(0.2, 0.8, size=k)
        preds = np.clip(latent + rng.normal(0, 0.2, (num_experts, k)), 0, 1)
        outcomes = np.clip(latent + rng.normal(0, 0.1, k), 0, 1)
        packs.append(Pack(lower + width * preds, lower + width * outcomes))
    prior = rng.uniform(0.2, 1.0, num_experts)
    return PackStream(packs), GameSpec.for_interval(lower, upper), prior / prior.sum()


def mp_weights(prior, charged, rate):
    raw = [p * mp.exp(-rate * loss) for p, loss in zip(prior, charged)]
    total = mp.fsum(raw)
    return [r / total for r in raw]


def mp_substitute(weights, expert_preds, lower, upper, eta):
    a, b = mp.mpf(lower), mp.mpf(upper)

    def g(omega):
        return -(1 / eta) * mp.log(mp.fsum(
            w * mp.exp(-eta * (x - omega) ** 2)
            for w, x in zip(weights, expert_preds)))

    gamma = (a + b) / 2 + (g(a) - g(b)) / (2 * (b - a))
    return min(max(gamma, a), b)


@mp.workdps(50)
def mp_run(algorithm, stream, game, prior):
    """The oracle: every item's prediction and, after each pack, the
    experts' cumulative losses."""
    eta = mp.mpf(game.eta)
    prior = [mp.mpf(p) for p in prior]
    n = len(prior)
    totals = [mp.mpf(0)] * n     # sum of pack losses
    averages = [mp.mpf(0)] * n   # sum of per-item average pack losses
    copies = {}                  # parallel: copy k's losses on items k
    running_max = 1              # largest pack before this one
    preds, expert_totals = [], []
    for pack in stream:
        k = pack.size
        xs = [[mp.mpf(x) for x in column] for column in pack.expert_preds.T]
        omegas = [mp.mpf(o) for o in pack.outcomes]
        if algorithm == "aap-incremental":
            w = mp_weights(prior, totals, eta / running_max)
        elif algorithm == "aap-current":
            w = mp_weights(prior, averages, eta)
        elif algorithm != "parallel":  # aa, aap-equal, aap-max: declared K
            w = mp_weights(prior, totals, eta / stream.max_pack_size)
        for j in range(k):
            if algorithm == "parallel":
                w = mp_weights(prior, copies.get(j, [mp.mpf(0)] * n), eta)
            preds.append(mp_substitute(w, xs[j], game.lower, game.upper, eta))
        item_losses = [[(x - o) ** 2 for x in col] for col, o in zip(xs, omegas)]
        pack_losses = [mp.fsum(col[e] for col in item_losses) for e in range(n)]
        for j, col in enumerate(item_losses):
            copies[j] = [c + loss for c, loss in
                         zip(copies.get(j, [mp.mpf(0)] * n), col)]
        totals = [t + s for t, s in zip(totals, pack_losses)]
        averages = [a + s / k for a, s in zip(averages, pack_losses)]
        running_max = max(running_max, k)
        expert_totals.append(totals)
    return preds, expert_totals


def max_error(got, want):
    return max(abs(mp.mpf(float(g)) - w) for g, w in
               zip(np.ravel(got), np.ravel(want)))


@mp.workdps(50)
def assert_near_oracle(preds, expert_totals, learner_totals, stream, game,
                       want):
    """`preds`, the experts' and the learner's cumulative losses within the
    stated bounds of the oracle's run `want`."""
    want_preds, want_totals = want
    width = game.upper - game.lower
    assert len(preds) == len(want_preds) == stream.num_items
    assert max_error(preds, want_preds) <= PRED_TOL * width
    loss_tol = LOSS_TOL * width ** 2 * stream.num_items
    assert max_error(expert_totals, want_totals) <= loss_tol
    # The learner's cumulative loss, from its own float predictions.
    outcomes = np.concatenate([p.outcomes for p in stream])
    item_losses = [(mp.mpf(float(x)) - mp.mpf(o)) ** 2
                   for x, o in zip(preds, outcomes)]
    ends = np.cumsum(stream.pack_sizes)
    want_learner = [mp.fsum(item_losses[:e]) for e in ends]
    assert max_error(learner_totals, want_learner) <= loss_tol


def streams():
    """(id, stream arguments, algorithms it suits) over every interval, with
    three experts and with one."""
    for lower, upper in INTERVALS:
        for num_experts in (3, 1):
            base = (lower, upper, num_experts)
            yield (f"{lower:g}-{num_experts}", (0,) + base, None,
                   ("aap-max", "aap-incremental", "aap-current", "parallel"))
            yield (f"{lower:g}-{num_experts}-unit", (1,) + base, [1] * 5,
                   ("aa", "aap-equal", "aap-max", "aap-incremental",
                    "aap-current", "parallel"))
            yield (f"{lower:g}-{num_experts}-equal", (2,) + base, [3] * 3,
                   ("aap-equal",))


CASES = [pytest.param(alg, args, sizes, id=f"{alg}-{name}")
         for name, args, sizes, algs in streams() for alg in algs]


@pytest.mark.parametrize("algorithm,args,sizes", CASES)
def test_replay_matches_oracle(algorithm, args, sizes):
    stream, game, prior = small_stream(*args, sizes=sizes)
    records = REPLAYS[algorithm](stream, game, prior)
    assert_near_oracle(records.learner_preds, records.expert_cumulative_losses,
                       records.cumulative_loss, stream, game,
                       mp_run(algorithm, stream, game, prior))


@pytest.mark.parametrize("algorithm,args,sizes",
                         [c for c in CASES if c.values[0] in POLICIES])
def test_online_learner_matches_oracle(algorithm, args, sizes):
    stream, game, prior = small_stream(*args, sizes=sizes)
    policy = POLICIES[algorithm](stream)
    state = init_state(prior)
    preds, expert_totals, learner_totals, total = [], [], [], 0.0
    for pack in stream:
        pack_preds = predict_pack(state, pack.expert_preds, game)
        observe_pack(state, (pack.expert_preds - pack.outcomes) ** 2, policy,
                     game)
        preds.extend(pack_preds)
        expert_totals.append(state.cumulative_losses)
        total += float(np.sum((pack_preds - pack.outcomes) ** 2))
        learner_totals.append(total)
    assert_near_oracle(preds, expert_totals, learner_totals, stream, game,
                       mp_run(algorithm, stream, game, prior))


def test_oracle_reads_its_schedule():
    # Guard against an oracle that ignores the divisor: with packs of sizes
    # 1 then 3, aap-max (D = 3 from the start) and aap-incremental (D = 1
    # for pack 2) must predict pack 2 differently.
    stream, game, prior = small_stream(3, 0.0, 1.0, 3, sizes=[1, 3])
    fixed = mp_run("aap-max", stream, game, prior)[0]
    incremental = mp_run("aap-incremental", stream, game, prior)[0]
    assert fixed[0] == incremental[0]
    assert abs(fixed[1] - incremental[1]) > 1e-6
