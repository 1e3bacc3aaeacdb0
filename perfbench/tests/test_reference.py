"""The benchmark's reference against a 50-digit mpmath oracle on tiny streams.

Run with: python3 -m pytest perfbench/tests

The oracle replays each protocol literally, one pack at a time: weights from
the prior and the divided cumulative losses, the substitution from the mixed
loss profile g at the interval ends, and for the parallel baseline a pool of
copies with lowest-ready dispatch.  None of it shares code with reference.py.
"""

import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import reference as ref  # noqa: E402

mp.mp.dps = 50

INTERVALS = [(0.0, 1.0), (3e4, 8e5), (1e9, 1e9 + 1e7)]
ALGORITHMS = ["aap-max", "aap-incremental", "aap-current", "parallel"]


def tiny_stream(seed, lower, upper, sizes=None, num_experts=3):
    rng = np.random.default_rng(seed)
    if sizes is None:
        sizes = rng.integers(1, 4, size=7)
    sizes = np.asarray(sizes)
    n = int(sizes.sum())
    latent = rng.uniform(0.2, 0.8, size=n)
    preds = np.clip(latent[:, None] + rng.normal(0, 0.2, (n, num_experts)), 0, 1)
    outcomes = np.clip(latent + rng.normal(0, 0.1, n), 0, 1)
    prior = rng.uniform(0.2, 1.0, num_experts)
    width = upper - lower
    return (lower + width * preds, lower + width * outcomes, sizes,
            prior / prior.sum())


def mp_substitute(weights, expert_preds, lower, upper, eta, c=1):
    a, b = mp.mpf(lower), mp.mpf(upper)

    def g(omega):
        return -(c / eta) * mp.log(mp.fsum(
            w * mp.exp(-eta * (x - omega) ** 2)
            for w, x in zip(weights, expert_preds)))

    gamma = (a + b) / 2 + (g(a) - g(b)) / (2 * (b - a))
    return min(max(gamma, a), b)


def mp_weights(prior, losses, rate):
    raw = [p * mp.exp(-rate * loss) for p, loss in zip(prior, losses)]
    total = mp.fsum(raw)
    return [r / total for r in raw]


def mp_pack_run(algorithm, preds, outcomes, sizes, prior, lower, upper):
    """Pack protocols, one pack at a time."""
    eta = 2 / (mp.mpf(upper) - mp.mpf(lower)) ** 2
    prior = [mp.mpf(p) for p in prior]
    n = len(prior)
    totals = [mp.mpf(0)] * n
    averages = [mp.mpf(0)] * n
    running_max = 1
    out, item = [], 0
    for k in sizes:
        if algorithm == "aap-max":
            w = mp_weights(prior, totals, eta / int(max(sizes)))
        elif algorithm == "aap-incremental":
            w = mp_weights(prior, totals, eta / running_max)
        else:  # aap-current
            w = mp_weights(prior, averages, eta)
        pack_losses = [mp.mpf(0)] * n
        for j in range(item, item + k):
            xs = [mp.mpf(x) for x in preds[j]]
            out.append(mp_substitute(w, xs, lower, upper, eta))
            for e in range(n):
                pack_losses[e] += (xs[e] - mp.mpf(outcomes[j])) ** 2
        for e in range(n):
            totals[e] += pack_losses[e]
            averages[e] += pack_losses[e] / k
        running_max = max(running_max, int(k))
        item += k
    return out


def mp_parallel(preds, outcomes, sizes, prior, lower, upper):
    """Copy pool: each item goes to the lowest-numbered ready copy; a copy is
    blocked from its prediction until the end of its pack."""
    eta = 2 / (mp.mpf(upper) - mp.mpf(lower)) ** 2
    prior = [mp.mpf(p) for p in prior]
    copies = []  # cumulative expert losses per copy
    out, item = [], 0
    for k in sizes:
        blocked, pending = set(), []
        for j in range(item, item + k):
            free = [i for i in range(len(copies)) if i not in blocked]
            if not free:
                copies.append([mp.mpf(0)] * len(prior))
                free = [len(copies) - 1]
            i = free[0]
            blocked.add(i)
            xs = [mp.mpf(x) for x in preds[j]]
            out.append(mp_substitute(mp_weights(prior, copies[i], eta), xs,
                                     lower, upper, eta))
            pending.append((i, xs, mp.mpf(outcomes[j])))
        for i, xs, omega in pending:
            copies[i] = [c + (x - omega) ** 2 for c, x in zip(copies[i], xs)]
        item += k
    return out


def mp_run(algorithm, *stream):
    if algorithm == "parallel":
        return mp_parallel(*stream)
    return mp_pack_run(algorithm, *stream)


@pytest.mark.parametrize("lower,upper", INTERVALS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_predictions_match_oracle(algorithm, lower, upper, seed):
    preds, outcomes, sizes, prior = tiny_stream(seed, lower, upper)
    eta = 2.0 / (upper - lower) ** 2
    got = ref.run(algorithm, preds, outcomes, sizes, prior, lower, upper, eta)
    want = mp_run(algorithm, preds, outcomes, sizes, prior, lower, upper)
    err = max(abs(mp.mpf(float(g)) - w) for g, w in zip(got, want))
    assert err <= 1e-12 * (upper - lower)


@pytest.mark.parametrize("algorithm", ["aa", "aap-equal"])
def test_single_size_protocols_match_oracle(algorithm):
    sizes = [1] * 6 if algorithm == "aa" else [2] * 4
    preds, outcomes, sizes, prior = tiny_stream(5, 0.0, 1.0, sizes)
    got = ref.run(algorithm, preds, outcomes, sizes, prior, 0.0, 1.0, 2.0)
    # With one pack size, declared K = max size, as aap-max.
    want = mp_run("aap-max", preds, outcomes, sizes, prior, 0.0, 1.0)
    assert max(abs(mp.mpf(float(g)) - w) for g, w in zip(got, want)) <= 1e-12


def test_log_softmax_matches_oracle():
    z = np.array([[-700.0, -701.5, -699.0], [3.0, 1e-3, -2.0]])
    got = ref.log_softmax(z)
    for row, out in zip(z, got):
        total = mp.fsum(mp.exp(mp.mpf(x)) for x in row)
        for x, y in zip(row, out):
            assert abs(mp.mpf(float(y)) - (mp.mpf(x) - mp.log(total))) < 1e-13


def test_divisor_schedules():
    sizes = np.array([2, 1, 4, 3, 5])
    assert ref.divisors("declared", sizes, 5).tolist() == [5] * 5
    assert ref.divisors("running-max", sizes).tolist() == [1, 2, 2, 4, 4]
    assert ref.divisors("unit", sizes).tolist() == [1] * 5


def mp_slacks(algorithm, learner_preds, preds, outcomes, sizes, prior, eta):
    """Guarantee slacks at every prefix from the README table, in mpmath."""
    rows = {}
    total = avg = mp.mpf(0)
    experts = [mp.mpf(0)] * len(prior)
    experts_avg = [mp.mpf(0)] * len(prior)
    item, kmax, kmin = 0, 0, 10 ** 9
    for k in sizes:
        pack = mp.fsum((mp.mpf(learner_preds[j]) - mp.mpf(outcomes[j])) ** 2
                       for j in range(item, item + k))
        total, avg = total + pack, avg + pack / k
        for e in range(len(prior)):
            loss = mp.fsum((mp.mpf(preds[j][e]) - mp.mpf(outcomes[j])) ** 2
                           for j in range(item, item + k))
            experts[e] += loss
            experts_avg[e] += loss / k
        kmax, kmin = max(kmax, int(k)), min(kmin, int(k))
        log_terms = [mp.log(1 / mp.mpf(p)) / eta for p in prior]
        if algorithm == "aap-current":
            rows.setdefault("aap-current-average", []).append(
                [ea + lt - avg for ea, lt in zip(experts_avg, log_terms)])
            rows.setdefault("aap-current-plain", []).append(
                [mp.mpf(kmax) / kmin * ex + kmax * lt - total
                 for ex, lt in zip(experts, log_terms)])
        else:
            d = int(max(sizes)) if algorithm == "aap-max" else kmax
            rows.setdefault(algorithm, []).append(
                [ex + d * lt - total for ex, lt in zip(experts, log_terms)])
        item += k
    return rows


@pytest.mark.parametrize("lower,upper", INTERVALS[:2])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_guarantees_match_oracle_and_hold(algorithm, lower, upper):
    preds, outcomes, sizes, prior = tiny_stream(7, lower, upper)
    width = upper - lower
    eta = 2.0 / width ** 2
    learner = ref.run(algorithm, preds, outcomes, sizes, prior, lower, upper, eta)
    cumulative = ref.cumulative_losses(learner, preds, outcomes, sizes)
    got = ref.guarantee_slacks(algorithm, cumulative, sizes, prior, eta)
    want = mp_slacks(algorithm, learner, preds, outcomes, sizes, prior,
                     mp.mpf(2) / mp.mpf(width) ** 2)
    assert sorted(got) == sorted(want)
    for name, rows in want.items():
        for g_row, w_row in zip(got[name], rows):
            for g, w in zip(g_row, w_row):
                assert abs(mp.mpf(float(g)) - w) <= 1e-9 * width ** 2
                assert w >= 0
