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

`run_mixloss_game` returns the game's ledger, a `MixLossRun`.  The
`adversary` command's report, table or JSON, is written from it by `harness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK_TOL
from .games import _logsumexp

# Distribution rows must sum to 1 within this tolerance.
_ROW_TOL = 1e-9
# The low-product expert's log-product may exceed -K*ln(N) by at most this.
_PRODUCT_TOL = 1e-12


def _as_distributions(distributions) -> np.ndarray:
    p = np.asarray(distributions, dtype=float)
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
        raise ValueError(
            f"distributions must be K x N with K, N >= 1, got shape {p.shape}"
        )
    if np.any(np.isnan(p)) or np.any(p < 0):
        raise ValueError("distribution entries must be non-negative and non-NaN")
    sums = p.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > _ROW_TOL)[0]
    if bad.size:
        raise ValueError(
            f"distribution row {bad[0]} sums to {sums[bad[0]]!r}, expected 1"
        )
    return p


def mix_loss(distributions, losses) -> float:
    """Total mix loss of one pack.

    `distributions` is K x N (one row per item), `losses` is N x K with
    entries in [0, +inf].  Computed in the log domain so that zero masses and
    infinite losses drop out exactly; the result is +inf when some item has
    no expert with both positive mass and finite loss.
    """
    p = _as_distributions(distributions)
    ell = np.asarray(losses, dtype=float)
    if ell.shape != (p.shape[1], p.shape[0]):
        raise ValueError(
            f"losses must be N x K = {(p.shape[1], p.shape[0])}, got {ell.shape}"
        )
    if np.any(np.isnan(ell)) or np.any(ell < 0):
        raise ValueError("losses must be non-negative and non-NaN")
    with np.errstate(divide="ignore"):
        log_p = np.log(p)  # (K, N)
    # exponent for item k, expert n: ln p_{k,n} - loss_{n,k}
    per_item = _logsumexp(log_p - ell.T, axis=1)
    return float(-per_item.sum())


def find_low_product_expert(distributions) -> int:
    """Index of an expert whose product of assigned masses over the pack's
    items is at most N^(-K).  Such an expert always exists; this returns the
    one with the smallest product (first index on ties) and raises if the
    averaging guarantee somehow fails, since that would mean the inputs were
    not distributions.
    """
    p = _as_distributions(distributions)
    num_items, num_experts = p.shape
    with np.errstate(divide="ignore"):
        log_products = np.log(p).sum(axis=0)
    n0 = int(np.argmin(log_products))
    ceiling = -num_items * math.log(num_experts)
    if not log_products[n0] <= ceiling + _PRODUCT_TOL:
        raise RuntimeError(
            f"no expert with mass product <= N^-K: min log-product "
            f"{log_products[n0]!r} exceeds {ceiling!r}"
        )
    return n0


@dataclass(frozen=True, eq=False)
class MixLossRun:
    """A mix-loss game as played, as columns; row t is pack t: its size, the
    learner's mix loss and each expert's loss over the pack (T x N).  The
    rest is derived on each access.  An empty game has T = N = 0.

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

    def __len__(self):
        return len(self.pack_size)

    @property
    def regret_increment(self) -> np.ndarray:
        # `initial` lets an empty game, with no experts, take the minimum.
        best = self.expert_pack_losses.min(axis=1, initial=np.inf)
        with np.errstate(invalid="ignore"):  # inf - inf is nan, as for floats
            return self.mix_loss - best

    @property
    def lower_bound_increment(self) -> np.ndarray:
        """K_t*ln(N), the regret the adversary forces in pack t."""
        n = self.expert_pack_losses.shape[1]
        return self.pack_size * (math.log(n) if n else 0.0)

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
        return float(self.cumulative_regret[-1:].sum())  # 0 if empty

    @property
    def total_lower_bound(self) -> float:
        """The per-pack bounds added one by one, in pack order."""
        return sum(self.lower_bound_increment.tolist(), 0.0)

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
        ell = np.asarray(losses, dtype=float)
        self.log_weights = self.log_weights - ell.sum(axis=1)


class AdversaryNature:
    """Zeroes the losses of a lowest-mass-product expert and gives +inf to
    everyone else, forcing a mix loss of at least K*ln(N) in every pack."""

    def __call__(self, distributions) -> np.ndarray:
        p = _as_distributions(distributions)
        num_items, num_experts = p.shape
        n0 = find_low_product_expert(p)
        losses = np.full((num_experts, num_items), np.inf)
        losses[n0, :] = 0.0
        return losses


class ZeroNature:
    """All losses zero; the learner's mix loss is then its own entropy cost."""

    def __call__(self, distributions) -> np.ndarray:
        p = _as_distributions(distributions)
        return np.zeros((p.shape[1], p.shape[0]))


def run_mixloss_game(learner, nature, pack_sizes) -> MixLossRun:
    """Play the mix-loss game for len(pack_sizes) packs and return its
    ledger.  `learner` supplies distributions(pack_size) and observe(losses);
    `nature` maps the announced distributions to an N x K loss matrix.
    """
    sizes = [int(k) for k in pack_sizes]
    if any(k < 1 for k in sizes):
        raise ValueError("pack sizes must be >= 1")
    mix, expert = [], []
    for t, k in enumerate(sizes):
        dists = _as_distributions(learner.distributions(k))
        if dists.shape[0] != k:
            raise ValueError(
                f"learner returned {dists.shape[0]} rows for a pack of {k}"
            )
        num_experts = dists.shape[1]
        if expert and num_experts != expert[0].size:
            raise ValueError(f"learner returned {num_experts} experts in pack "
                             f"{t}, {expert[0].size} before")
        losses = np.asarray(nature(dists), dtype=float)
        if losses.shape != (num_experts, k):
            raise ValueError(
                f"nature returned losses of shape {losses.shape}, "
                f"expected {(num_experts, k)}"
            )
        mix.append(mix_loss(dists, losses))
        expert.append(losses.sum(axis=1))
        learner.observe(losses)
    width = expert[0].size if expert else 0
    return MixLossRun(np.array(sizes, dtype=int), np.array(mix, dtype=float),
                      np.array(expert, dtype=float).reshape(len(sizes), width))


def regret_lower_bound(pack_sizes, num_experts: int) -> float:
    """ln(N) per item: what the adversary extracts from any learner."""
    if num_experts < 1:
        raise ValueError("need at least one expert")
    return math.log(num_experts) * sum(int(k) for k in pack_sizes)
