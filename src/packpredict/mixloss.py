"""Mix-loss games over packs, and the adversary that forces K*ln(N) regret.

In the mix-loss game the learner announces, for every item of a pack, a
probability vector over N experts; after the pack closes, arbitrary losses in
[0, +inf] are revealed and the learner pays

    mix_loss = -sum_k ln sum_n p_{k,n} * exp(-loss_{n,k}).

Against a single item this loss is fully mixable and exponential weights has
regret ln(N) total.  Over packs the picture changes: since the learner must
commit K distributions before any feedback, some expert has product of
assigned masses at most N^(-K) (an averaging argument over the K rows), and a
nature that zeroes that expert's losses while blowing up everyone else's
makes the learner pay at least K*ln(N) in that pack alone -- per pack, not
per game.

Each row of a distribution is a probability vector as `games` states it,
summing to 1 within `games.WEIGHT_TOL` (1e-12); a pack's losses are N x K
in [0, +inf] (`_as_losses`).  `run_mixloss_game` checks each pack once, as
it enters: its nature and the kernel `_mix_loss` take the checked arrays.
It returns the game's ledger, a `MixLossRun`, from which `harness` writes
the `adversary` command's report, table or JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK_TOL
from .games import _as_probabilities, _logsumexp

# Rounding allowance: the low-product expert's log-product may exceed its
# averaging bound by at most this.
_PRODUCT_TOL = 1e-12


def _as_losses(losses, shape: tuple) -> np.ndarray:
    """`losses` as an N x K float array of `shape`, entries in [0, +inf]."""
    ell = np.asarray(losses, dtype=float)
    if ell.shape != shape:
        raise ValueError(f"losses must be N x K = {shape}, got {ell.shape}")
    if np.any(np.isnan(ell)) or np.any(ell < 0):
        raise ValueError("losses must be non-negative and non-NaN")
    return ell


def _mix_loss(p: np.ndarray, ell: np.ndarray) -> float:
    """The mix loss of one pack, from its checked K x N distributions `p`
    and N x K losses `ell`, in the log domain: zero masses and infinite
    losses drop out exactly, and it is +inf when some item has no expert
    with both positive mass and finite loss."""
    with np.errstate(divide="ignore"):  # exponent ln p_{k,n} - loss_{n,k}
        per_item = _logsumexp(np.log(p) - ell.T, axis=1)
    return float(-per_item.sum())


def _low_product_expert(p: np.ndarray) -> int:
    """The expert with the smallest product of masses over the items of
    the checked K x N distributions `p`, first on ties.  The products
    average, geometrically, at most prod_k (s_k / N) for rows summing to
    s_k (N^(-K) for rows summing to 1), so this raises if the smallest
    exceeds that bound by more than rounding."""
    with np.errstate(divide="ignore"):
        log_products = np.log(p).sum(axis=0)
    n0 = int(np.argmin(log_products))
    ceiling = float(np.log(p.sum(axis=1)).sum()
                    - p.shape[0] * math.log(p.shape[1]))
    if not log_products[n0] <= ceiling + _PRODUCT_TOL:
        raise RuntimeError(f"no expert with mass product <= prod_k (s_k / N): "
                           f"min log-product {log_products[n0]!r} exceeds "
                           f"{ceiling!r}")
    return n0


@dataclass(frozen=True, eq=False)
class MixLossRun:
    """A mix-loss game as played, as columns; row t is pack t: its size, the
    learner's mix loss and each expert's loss over the pack (T x N), with
    T, N >= 1.  The rest is derived on each access.

    A pack's regret is its mix loss less its best expert's loss, and the
    cumulative regret sums these: regret against each pack's own best
    expert, not against the best expert of the game.  Against
    `ExponentialWeightsLearner` and the adversary (N >= 2) it is inf from
    the second pack on, where the learner weights only the expert the
    adversary spared in the first, and the adversary spares another.
    """

    pack_size: np.ndarray
    mix_loss: np.ndarray
    expert_pack_losses: np.ndarray

    @property
    def regret_increment(self) -> np.ndarray:
        best = self.expert_pack_losses.min(axis=1)
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as for floats
            return self.mix_loss - best

    @property
    def lower_bound_increment(self) -> np.ndarray:
        """K_t*ln(N), the regret the adversary forces in pack t."""
        return self.pack_size * math.log(self.expert_pack_losses.shape[1])

    # The running sums start from 0.0 and np.cumsum does not: + 0.0 turns a
    # leading -0.0 (a mix loss against zero losses) into 0.0.
    @property
    def cumulative_mix_loss(self) -> np.ndarray:
        return np.cumsum(self.mix_loss) + 0.0

    @property
    def cumulative_regret(self) -> np.ndarray:
        return np.cumsum(self.regret_increment) + 0.0

    @property
    def total_regret(self) -> float:
        return float(self.cumulative_regret[-1])

    @property
    def total_lower_bound(self) -> float:
        """The game's K*ln(N) floor, as `regret_lower_bound` states it."""
        return regret_lower_bound(self.pack_size.tolist(),
                                  self.expert_pack_losses.shape[1])

    @property
    def forced(self) -> bool:
        """Whether each pack's regret reached its K_t*ln(N), to `SLACK_TOL`."""
        return bool(np.all(self.regret_increment
                           >= self.lower_bound_increment - SLACK_TOL))


class UniformLearner:
    """Plays the uniform distribution on every item, forever."""

    def __init__(self, num_experts: int):
        if num_experts < 1:
            raise ValueError("need at least one expert")
        self.num_experts = num_experts

    def distributions(self, pack_size: int) -> np.ndarray:
        return np.full((pack_size, self.num_experts), 1.0 / self.num_experts)

    def observe(self, losses) -> None:
        pass


class ExponentialWeightsLearner:
    """Multiplicative weights at unit rate: after each pack, each expert's
    log-weight drops by its summed pack loss.

    Infinite losses zero experts out exactly; if every expert has been zeroed
    (possible against natures that play +inf widely) the learner restarts
    from uniform rather than dividing by zero.
    """

    def __init__(self, num_experts: int):
        if num_experts < 1:
            raise ValueError("need at least one expert")
        self.num_experts = num_experts
        self.log_weights = np.zeros(num_experts)

    def distributions(self, pack_size: int) -> np.ndarray:
        lw = self.log_weights
        if np.all(np.isinf(lw) & (lw < 0)):
            lw = np.zeros(self.num_experts)
        p = np.exp(lw - _logsumexp(lw))
        return np.tile(p, (pack_size, 1))

    def observe(self, losses) -> None:
        self.log_weights = self.log_weights - np.sum(losses, axis=1)


class AdversaryNature:
    """Given the game's checked K x N distributions, zeroes the losses of a
    lowest-mass-product expert and gives +inf to everyone else, forcing a
    mix loss of at least K*ln(N) in every pack."""

    def __call__(self, distributions: np.ndarray) -> np.ndarray:
        losses = np.full(distributions.shape[::-1], np.inf)
        losses[_low_product_expert(distributions), :] = 0.0
        return losses


class ZeroNature:
    """All losses zero; the learner's mix loss is then its own entropy cost.
    It reads only the shape of the game's checked K x N distributions."""

    def __call__(self, distributions: np.ndarray) -> np.ndarray:
        return np.zeros(distributions.shape[::-1])


def run_mixloss_game(learner, nature, pack_sizes) -> MixLossRun:
    """Play the mix-loss game for len(pack_sizes) >= 1 packs and return its
    ledger.  `learner` supplies distributions(pack_size) and observe(losses);
    `nature` maps the checked distributions to an N x K loss matrix.
    """
    sizes = [int(k) for k in pack_sizes]
    if not sizes:
        raise ValueError("a game needs at least one pack")
    if any(k < 1 for k in sizes):
        raise ValueError("pack sizes must be >= 1")
    mix, expert = [], []
    for t, k in enumerate(sizes):
        dists = _as_probabilities(learner.distributions(k), 2)
        if dists.shape[0] != k:
            raise ValueError(f"learner returned {dists.shape[0]} rows for a "
                             f"pack of {k}")
        num_experts = dists.shape[1]
        if expert and num_experts != expert[0].size:
            raise ValueError(f"learner returned {num_experts} experts in pack "
                             f"{t}, {expert[0].size} before")
        losses = _as_losses(nature(dists), (num_experts, k))
        mix.append(_mix_loss(dists, losses))
        expert.append(losses.sum(axis=1))
        learner.observe(losses)
    return MixLossRun(np.array(sizes, dtype=int), np.array(mix, dtype=float),
                      np.array(expert, dtype=float))


def regret_lower_bound(pack_sizes, num_experts: int) -> float:
    """ln(N) per item: what the adversary extracts from any learner, as
    the packs' K*ln(N) summed in pack order from 0.0."""
    if num_experts < 1:
        raise ValueError("need at least one expert")
    log_n = math.log(num_experts)
    return sum((int(k) * log_n for k in pack_sizes), 0.0)
