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
    if mode == "average":
        rate = np.full(len(records), game.eta)
        learner = records.cumulative_average_loss
        experts = records.expert_cumulative_average_losses
    else:
        divisor = (np.maximum.accumulate(records.pack_size)
                   if mode == "running_max" else np.full(len(records), int(mode)))
        rate = game.eta / divisor
        learner = records.cumulative_loss
        experts = records.expert_cumulative_losses
    lhs = -rate * learner
    rhs = logsumexp(log_prior - rate[:, None] * experts, axis=1)
    return float(np.min(lhs - rhs))


def trial_preds(records):
    """The learner's predictions split by trial: one array per pack."""
    return np.split(records.learner_preds, np.cumsum(records.pack_size)[:-1])


# Intervals for the replay-vs-online comparison: the unit interval and two
# dollar-scale ones, one of them far from zero.
INTERVALS = ((0.0, 1.0), (3e4, 8e5), (1e9, 1e9 + 1e7))


def assert_matches_online(records, online_preds, online_totals, stream, game):
    """Replay records against the online learner's per-trial predictions and
    cumulative expert losses: predictions within 1e-12*(B-A), cumulative
    losses within 1e-12*(B-A)^2*items."""
    width = game.upper - game.lower
    loss_tol = 1e-12 * width ** 2 * stream.num_items
    assert len(records) == len(stream)
    np.testing.assert_allclose(records.learner_preds,
                               np.concatenate(online_preds), rtol=0,
                               atol=1e-12 * width)
    np.testing.assert_allclose(records.expert_cumulative_losses,
                               np.array(online_totals), rtol=0, atol=loss_tol)
    learner_totals = np.cumsum([np.sum((np.asarray(preds) - pack.outcomes) ** 2)
                                for preds, pack in zip(online_preds, stream)])
    np.testing.assert_allclose(records.cumulative_loss, learner_totals, rtol=0,
                               atol=loss_tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
