import numpy as np
import pytest
from scipy.special import logsumexp

from packpredict import Pack, PackStream


def make_stream(rng, num_experts, num_trials, size_min=1, size_max=7):
    """Random stream on [0, 1]: experts are noisy observers of a latent path."""
    packs = []
    for _ in range(num_trials):
        k = int(rng.integers(size_min, size_max + 1))
        latent = rng.uniform(0.1, 0.9, size=k)
        preds = np.clip(
            latent[None, :] + rng.normal(scale=0.15, size=(num_experts, k)),
            0.0, 1.0,
        )
        outcomes = np.clip(latent + rng.normal(scale=0.1, size=k), 0.0, 1.0)
        packs.append(Pack(preds, outcomes))
    return PackStream(tuple(packs))


def random_prior(rng, num_experts):
    w = rng.uniform(0.1, 1.0, size=num_experts)
    return w / w.sum()


def invariant_gap(records, game, prior, mode):
    """Smallest margin, over all prefixes, of the exponential-weights
    induction invariant the protocols maintain:

      total:       -(eta/D) * Loss_t(S) >= lse(ln p - (eta/D) * Loss_t(E_n))
      average:     -eta * Avg_t(S)     >= lse(ln p - eta * Avg_t(E_n))

    where D is the divisor for the prefix (mode: an int for a fixed divisor,
    "running_max" to use the running max pack size).  Returns min(lhs - rhs);
    nonnegative (within float noise) means the invariant held everywhere.
    """
    log_prior = np.log(np.asarray(prior, dtype=float))
    gaps = []
    running_max = 0
    for r in records:
        running_max = max(running_max, r.pack_size)
        if mode == "average":
            rate = game.eta
            learner = r.cumulative_average_loss
            experts = np.array(r.expert_cumulative_average_losses)
        else:
            divisor = running_max if mode == "running_max" else int(mode)
            rate = game.eta / divisor
            learner = r.cumulative_loss
            experts = np.array(r.expert_cumulative_losses)
        lhs = -rate * learner
        rhs = logsumexp(log_prior - rate * experts)
        gaps.append(lhs - rhs)
    return min(gaps)


# Intervals for the replay-vs-online comparison: the unit interval and two
# dollar-scale ones, one of them far from zero.
INTERVALS = ((0.0, 1.0), (3e4, 8e5), (1e9, 1e9 + 1e7))


def assert_matches_online(records, online_preds, online_totals, stream, game):
    """Replay records against the online learner's per-trial predictions and
    cumulative expert losses: predictions within 1e-12*(B-A), cumulative
    losses within 1e-12*(B-A)^2*items."""
    width = game.upper - game.lower
    loss_tol = 1e-12 * width ** 2 * stream.num_items
    learner_total = 0.0
    assert len(records) == len(stream)
    for r, pack, preds, totals in zip(records, stream, online_preds,
                                      online_totals):
        np.testing.assert_allclose(r.learner_preds, preds, rtol=0,
                                   atol=1e-12 * width)
        np.testing.assert_allclose(r.expert_cumulative_losses, totals,
                                   rtol=0, atol=loss_tol)
        learner_total += np.sum((np.asarray(preds) - pack.outcomes) ** 2)
        assert abs(r.cumulative_loss - learner_total) <= loss_tol


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
