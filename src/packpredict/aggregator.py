"""The online learner: predict a pack, then observe its outcomes.

The month-by-month form of the pack algorithms that `algorithms` and
`parallel` replay over a whole stream.  One observed pack of K_t items costs
expert n the sum of its K_t square losses.  The divisor policy decides how
much of that sum reaches the exponential weights; `DivisorPolicy` states the
schedule, and both this learner and the replay call it.

All weight arithmetic stays in the log domain; a weight of exactly zero is
represented as -inf and an all-(-inf) state is a fatal error rather than a
silent renormalization.  `predict_pack` and `predict_item` substitute
straight from the log-weights (`normalized_weights` is for inspection), and
check their input with the helper `substitute_pack` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (GameSpec, _as_pred_column, _as_pred_matrix,
                    _as_probabilities, _logsumexp, _substitute)


@dataclass(frozen=True)
class DivisorPolicy:
    """How pack losses enter the weights: the one statement of the schedule.

    After packs 1..t of sizes K_1..K_t, every policy's log-weights are

        ln p^n - (eta / D_t) * (charged losses of expert n, summed to t)

    with each pack's charge (`charge`) and the divisor D_t (`divisor`):

      policy          charge of pack s               D_t
      fixed(K)        its loss sum (K_s <= K)        K, declared upfront
      running_max     its loss sum                   max(1, K_1, ..., K_t)
      current_pack    its loss sum / K_s             1

    The weights are recomputed from the prior, never updated in place:
    when the running max grows, the earlier losses must be re-discounted at
    the new, slower rate, which a multiplicative update cannot do.
    """

    kind: str
    pack_size: int | None = None

    _KINDS = ("fixed", "running_max", "current_pack")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown divisor policy {self.kind!r}")
        if self.kind == "fixed":
            if self.pack_size is None or self.pack_size < 1:
                raise ValueError("fixed policy needs pack_size >= 1")
        elif self.pack_size is not None:
            raise ValueError(f"{self.kind} policy takes no pack_size")

    @classmethod
    def fixed(cls, pack_size: int) -> "DivisorPolicy":
        return cls("fixed", int(pack_size))

    @classmethod
    def running_max(cls) -> "DivisorPolicy":
        return cls("running_max")

    @classmethod
    def current_pack(cls) -> "DivisorPolicy":
        return cls("current_pack")

    def charge(self, pack_losses, sizes):
        """Each pack's charge, from its experts' loss sums `pack_losses`
        (N, or N x T for T packs) and its size(s) `sizes`.  Raises for a
        fixed policy's pack larger than the declared size."""
        if self.kind == "current_pack":
            return pack_losses / sizes
        if self.kind == "fixed":
            largest = np.maximum.reduce(sizes, axis=None)
            if largest > self.pack_size:
                raise ValueError(f"pack of size {largest} exceeds declared size "
                                 f"{self.pack_size}")
        return pack_losses

    def divisor(self, running_max):
        """D for the largest pack size seen so far (a scalar or an array)."""
        if self.kind == "fixed":
            return self.pack_size
        return running_max if self.kind == "running_max" else 1


@dataclass
class AggregatorState:
    """Mutable per-run state: prior, current log-weights, loss ledgers (the
    experts' loss sums, and their charges under the policy)."""

    prior: np.ndarray
    log_weights: np.ndarray
    cumulative_losses: np.ndarray
    charged_losses: np.ndarray
    running_max_pack: int = 1
    trial_index: int = 0

    @property
    def num_experts(self) -> int:
        return self.prior.size


def _as_prior(prior, num_experts: int | None = None) -> np.ndarray:
    """`prior` checked as a positive probability vector with one weight per
    expert (any count if `num_experts` is None): the one statement of the
    prior contract.  None is no prior; a caller's default is its own."""
    p = _as_probabilities(prior)
    if num_experts is not None and p.size != num_experts:
        raise ValueError(f"prior has {p.size} entries for {num_experts} experts")
    if np.any(p == 0):
        # A zero prior weight can never recover under any policy; forbid it
        # so every bound ln(1/p^n) is finite.
        raise ValueError("prior must give every expert positive weight")
    return p


def init_state(prior) -> AggregatorState:
    p = _as_prior(prior)
    return AggregatorState(
        prior=p.copy(),
        log_weights=np.log(p),
        cumulative_losses=np.zeros(p.size),
        charged_losses=np.zeros(p.size),
    )


def uniform_prior(num_experts: int) -> np.ndarray:
    if num_experts < 1:
        raise ValueError("need at least one expert")
    return np.full(num_experts, 1.0 / num_experts)


def _top_log_weight(state: AggregatorState) -> float:
    """The largest log-weight; raises if every weight has underflowed."""
    top = np.maximum.reduce(state.log_weights, axis=None)
    if -math.inf < top < math.inf:
        return top
    if top == -math.inf:
        raise FloatingPointError(
            "all expert weights have underflowed to zero; "
            "the learning rate or losses are too large for this prior"
        )
    raise ValueError(f"log-weights must be free of NaN and +inf, got {top}")


def normalized_weights(state: AggregatorState) -> np.ndarray:
    """Current weights as a probability vector."""
    _top_log_weight(state)
    lw = state.log_weights
    return np.exp(lw - _logsumexp(lw))


def predict_item(state: AggregatorState, expert_preds, game: GameSpec) -> float:
    """Aggregated prediction for one item at the current weights.

    Always the full-rate substitution: the divisor policies slow down the
    weight updates, never the prediction step.  (Substituting at a slowed
    rate would break the per-pack mixture inequality; the full-rate
    substitution survives the geometric-mean argument that turns K per-item
    guarantees into one pack guarantee at rate eta/K.)
    """
    return float(predict_pack(state, _as_pred_column(expert_preds), game)[0])


def predict_pack(state: AggregatorState, expert_pred_matrix, game: GameSpec) -> np.ndarray:
    """Aggregated predictions for a whole pack, weights frozen across it.
    They come straight from the log-weights, shifted so that the largest is
    0: the substitution needs no normalized weights."""
    preds = _as_pred_matrix(expert_pred_matrix, state.num_experts, game)
    shifted = state.log_weights - _top_log_weight(state)
    return _substitute(shifted[:, None], preds, game)


def observe_pack(state: AggregatorState, expert_losses, policy: DivisorPolicy,
                 game: GameSpec) -> None:
    """Fold an N x K_t matrix of per-item expert losses into the weights; a
    rejected pack leaves the state as it was."""
    losses = np.array(expert_losses, dtype=float, copy=None, ndmin=2)
    if losses.ndim != 2 or losses.shape[0] != state.num_experts:
        raise ValueError(
            f"expected losses for {state.num_experts} experts, got shape {losses.shape}"
        )
    pack_size = losses.shape[1]
    if pack_size < 1:
        raise ValueError("empty pack")
    # A NaN minimum or maximum fails its comparison.
    if not (np.minimum.reduce(losses, axis=None) >= 0
            and np.maximum.reduce(losses, axis=None) < math.inf):
        raise ValueError("losses must be non-negative and finite")
    sums = np.add.reduce(losses, axis=1)
    charged = state.charged_losses + policy.charge(sums, pack_size)
    state.cumulative_losses = state.cumulative_losses + sums
    state.charged_losses = charged
    state.running_max_pack = max(state.running_max_pack, pack_size)
    state.trial_index += 1
    state.log_weights = (
        np.log(state.prior)
        - (game.eta / policy.divisor(state.running_max_pack)) * charged
    )
