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

The game's strategies are named, as `bounds._TABLE` names the algorithms:
`LEARNERS` holds the learners (`uniform`, `exp-weights`) and `NATURES` the
natures (`adversary`, `zero`).  Each learner's rows are probability
vectors as `games` states them, and each nature's losses lie in
[0, +inf], by construction, so the game checks no pack.
`run_mixloss_game` plays a named pair and returns the game's ledger, a
`MixLossRun`: the names it played and its columns, from which alone
`harness` writes the `adversary` command's report, table or JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import SLACK_TOL, _row
from .games import _logsumexp

# Rounding allowance: the low-product expert's log-product may exceed its
# averaging bound by at most this.
_PRODUCT_TOL = 1e-12


def _mix_loss(p: np.ndarray, ell: np.ndarray) -> float:
    """The mix loss of one pack, from its K x N distributions `p` and N x K
    losses `ell`, in the log domain: zero masses and infinite losses drop
    out exactly, and it is +inf when some item has no expert with both
    positive mass and finite loss."""
    with np.errstate(divide="ignore"):  # exponent ln p_{k,n} - loss_{n,k}
        per_item = _logsumexp(np.log(p) - ell.T, axis=1)
    return float(-per_item.sum())


def _low_product_expert(p: np.ndarray) -> int:
    """The expert with the smallest product of masses over the items of the
    K x N distributions `p`, first on ties.  The products average,
    geometrically, at most prod_k (s_k / N) for rows summing to s_k
    (N^(-K) for rows summing to 1), so this raises if the smallest exceeds
    that bound by more than rounding."""
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
    """A mix-loss game as played: the learner's and the nature's names, then
    columns, row t for pack t: its size, the learner's mix loss and each
    expert's loss over the pack (T x N), with T, N >= 1.  The rest, the
    K*ln(N) floor and the `forced` verdict included, is derived on each access.

    A pack's regret is its mix loss less its best expert's loss, and the
    cumulative regret sums these: regret against each pack's own best
    expert, not against the best expert of the game.  With `exp-weights`
    against the adversary (N >= 2) it is inf from the second pack on,
    where the learner weights only the expert the adversary spared in the
    first, and the adversary spares another.
    """

    learner: str
    nature: str
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
        """The game's floor: the packs' K*ln(N), summed in pack order."""
        return float(np.cumsum(self.lower_bound_increment)[-1])

    @property
    def forced(self) -> bool:
        """Whether each pack's regret reached its K_t*ln(N), to `SLACK_TOL`."""
        return bool(np.all(self.regret_increment
                           >= self.lower_bound_increment - SLACK_TOL))


def _uniform(pack_size: int, sums: np.ndarray) -> np.ndarray:
    """The uniform distribution on every item, forever."""
    return np.full((pack_size, sums.size), 1.0 / sums.size)


def _exp_weights(pack_size: int, sums: np.ndarray) -> np.ndarray:
    """Exponential weights at unit rate: on every item, the softmax of minus
    each expert's summed losses.  An infinite sum zeroes its expert exactly;
    once every sum is infinite (as natures that play +inf widely can make
    them) it restarts from uniform rather than dividing by zero."""
    lw = np.zeros(sums.size) if np.all(np.isinf(sums)) else -sums
    return np.tile(np.exp(lw - _logsumexp(lw)), (pack_size, 1))


def _adversary(p: np.ndarray) -> np.ndarray:
    """Zero losses for a lowest-mass-product expert and +inf for everyone
    else, forcing a mix loss of at least K*ln(N) in every pack."""
    losses = np.full(p.shape[::-1], np.inf)
    losses[_low_product_expert(p), :] = 0.0
    return losses


def _zero(p: np.ndarray) -> np.ndarray:
    """All losses zero: each item's mix loss is -ln(sum_n p_{k,n}), which is
    0 up to rounding (the table prints a pack's -0.0 as -0.000000)."""
    return np.zeros(p.shape[::-1])


# Learner name -> its K x N distributions for a pack of K, given each
# expert's losses summed over the packs before; nature name -> its N x K
# losses for the learner's distributions.
LEARNERS = {"uniform": _uniform, "exp-weights": _exp_weights}
NATURES = {"adversary": _adversary, "zero": _zero}


def run_mixloss_game(learner: str, nature: str, num_experts: int,
                     pack_sizes) -> MixLossRun:
    """Play the named `learner` against the named `nature` over
    `num_experts` >= 1 experts and len(pack_sizes) >= 1 packs, and return
    the game's ledger."""
    play = _row(LEARNERS, learner, "learner")
    answer = _row(NATURES, nature, "nature")
    if num_experts < 1:
        raise ValueError("need at least one expert")
    sizes = [int(k) for k in pack_sizes]
    if not sizes:
        raise ValueError("a game needs at least one pack")
    if any(k < 1 for k in sizes):
        raise ValueError("pack sizes must be >= 1")
    sums = np.zeros(num_experts)
    mix, expert = [], []
    for k in sizes:
        p = play(k, sums)
        losses = answer(p)
        mix.append(_mix_loss(p, losses))
        expert.append(losses.sum(axis=1))
        sums = sums + expert[-1]
    return MixLossRun(learner, nature, np.array(sizes, dtype=int),
                      np.array(mix, dtype=float), np.array(expert, dtype=float))
