import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.special import logsumexp

from packpredict import (DivisorPolicy, PackStream, init_state, observe_pack,
                         predict_item)


def make_stream(rng, num_experts, num_trials, size_min=1, size_max=7):
    """Random stream on [0, 1]: experts are noisy observers of a latent path."""
    sizes, preds, outcomes = [], [], []
    for _ in range(num_trials):
        k = int(rng.integers(size_min, size_max + 1))
        latent = rng.uniform(0.1, 0.9, size=k)
        preds.append(latent[None, :]
                     + rng.normal(scale=0.15, size=(num_experts, k)))
        outcomes.append(latent + rng.normal(scale=0.1, size=k))
        sizes.append(k)
    return PackStream(np.clip(np.hstack(preds), 0.0, 1.0),
                      np.clip(np.concatenate(outcomes), 0.0, 1.0), sizes)


def ends_stream(sizes, ends, leaders):
    """A stream on [0, 1] built to stress a bound: expert n predicts
    `ends[n]`, 0 or 1, on every item, and pack t's outcomes follow expert
    `leaders[t]`.  Sizes [1, K], ends [0, 1] and leaders [0, 1] give the
    stream on which aap-incremental's divisor lags its pack (ROADMAP item 1)."""
    ends = np.asarray(ends, dtype=float)
    return PackStream(np.repeat(ends[:, None], np.sum(sizes), axis=1),
                      np.repeat(ends[leaders], sizes), sizes)


@st.composite
def stress_streams(draw, min_experts=2, max_experts=6, max_packs=8, max_size=9):
    """`ends_stream`s: pack sizes that grow after a small first pack, experts
    at both ends of the interval, each pack's outcomes following one expert."""
    n = draw(st.integers(min_experts, max_experts))
    first = draw(st.integers(1, 3))
    sizes = [first] + draw(st.lists(st.integers(first + 1, max_size),
                                    max_size=max_packs - 1))
    ends = [0, 1] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2,
                                  max_size=n - 2))
    leaders = draw(st.lists(st.integers(0, n - 1), min_size=len(sizes),
                            max_size=len(sizes)))
    return ends_stream(sizes, ends, leaders)


@st.composite
def noisy_streams(draw, min_experts=2, max_experts=6, max_packs=8, max_size=9):
    """`make_stream`s from a drawn seed: predictions and outcomes anywhere
    in [0, 1], so the experts' loss sums round."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_stream(rng, draw(st.integers(min_experts, max_experts)),
                       draw(st.integers(1, max_packs)), 1, max_size)


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


def step_copies(packs, game, prior):
    """The parallel copies stepped item by item over (N x K matrix,
    outcomes) pairs: copy k predicts item k of each pack with `predict_item`,
    then observes its loss with `observe_pack` at divisor 1.  Yields each
    pack's predictions and the copies after the pack."""
    copies = []
    for matrix, outcomes in packs:
        while len(copies) < outcomes.size:
            copies.append(init_state(prior))
        preds = np.array([predict_item(copies[k], matrix[:, k], game)
                          for k in range(outcomes.size)])
        for k in range(outcomes.size):
            observe_pack(copies[k], (matrix[:, k:k + 1] - outcomes[k]) ** 2,
                         DivisorPolicy.fixed(1), game)
        yield preds, copies


def assert_matches_online(records, online_preds, online_totals, stream, game):
    """Replay records against the online learner's per-trial predictions and
    cumulative expert losses: predictions bit for bit, cumulative losses
    within 1e-12*(B-A)^2*items."""
    width = game.upper - game.lower
    loss_tol = 1e-12 * width ** 2 * stream.num_items
    assert len(records) == len(stream)
    np.testing.assert_array_equal(records.learner_preds,
                                  np.concatenate(online_preds))
    np.testing.assert_allclose(records.expert_cumulative_losses,
                               np.array(online_totals), rtol=0, atol=loss_tol)
    learner_totals = np.cumsum([np.sum((np.asarray(preds) - pack.outcomes) ** 2)
                                for preds, pack in zip(online_preds, stream)])
    np.testing.assert_allclose(records.cumulative_loss, learner_totals, rtol=0,
                               atol=loss_tol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
