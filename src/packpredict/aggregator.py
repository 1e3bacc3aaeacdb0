"""The online learner: predict a pack, then observe its outcomes.

The month-by-month form of the pack algorithms, and the oracle for the
whole-stream replay of `algorithms` and `parallel`.  One observed pack of K_t items costs expert n the sum of its K_t square
losses.  The divisor policy decides what fraction of that sum hits the
exponential weights:

  * fixed(K):       log-weight -= (eta / K) * pack_loss_sum      (K known upfront)
  * current_pack:   log-weight -= (eta / K_t) * pack_loss_sum    (whatever just arrived)
  * running_max:    log-weights are *recomputed from the prior* each trial as
                    ln p^n - (eta / Kmax_t) * cumulative_loss_n, where Kmax_t
                    is the largest pack size seen so far.

Recomputation matters: when Kmax_t grows, earlier losses must be re-discounted
at the new, slower rate, which a multiplicative update cannot do.

All weight arithmetic stays in the log domain; a weight of exactly zero is
represented as -inf and an all-(-inf) state is a fatal error rather than a
silent renormalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import GameSpec, _as_weights, _logsumexp, substitute, substitute_pack


@dataclass(frozen=True)
class DivisorPolicy:
    """How pack loss sums are scaled before entering the weight update."""

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


@dataclass
class AggregatorState:
    """Mutable per-run state: prior, current log-weights, loss ledger."""

    prior: np.ndarray
    log_weights: np.ndarray
    cumulative_losses: np.ndarray
    running_max_pack: int = 1
    trial_index: int = 0

    @property
    def num_experts(self) -> int:
        return self.prior.size


def _as_prior(prior) -> np.ndarray:
    p = _as_weights(prior)
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
    )


def uniform_prior(num_experts: int) -> np.ndarray:
    if num_experts < 1:
        raise ValueError("need at least one expert")
    return np.full(num_experts, 1.0 / num_experts)


def normalized_weights(state: AggregatorState) -> np.ndarray:
    """Current weights as a probability vector."""
    lw = state.log_weights
    if np.all(np.isinf(lw) & (lw < 0)):
        raise FloatingPointError(
            "all expert weights have underflowed to zero; "
            "the learning rate or losses are too large for this prior"
        )
    return np.exp(lw - _logsumexp(lw))


def predict_item(state: AggregatorState, expert_preds, game: GameSpec) -> float:
    """Aggregated prediction for one item at the current weights.

    Always the full-rate substitution: the divisor policies slow down the
    weight updates, never the prediction step.  (Substituting at a slowed
    rate would break the per-pack mixture inequality; the full-rate
    substitution survives the geometric-mean argument that turns K per-item
    guarantees into one pack guarantee at rate eta/K.)
    """
    return substitute(normalized_weights(state), expert_preds, game)


def predict_pack(state: AggregatorState, expert_pred_matrix, game: GameSpec) -> np.ndarray:
    """Aggregated predictions for a whole pack, weights frozen across it."""
    return substitute_pack(normalized_weights(state), expert_pred_matrix, game)


def observe_pack(state: AggregatorState, expert_losses, policy: DivisorPolicy,
                 game: GameSpec) -> None:
    """Fold an N x K_t matrix of per-item expert losses into the weights; a
    rejected pack leaves the state as it was."""
    losses = np.atleast_2d(np.asarray(expert_losses, dtype=float))
    if losses.shape[0] != state.num_experts:
        raise ValueError(
            f"expected losses for {state.num_experts} experts, got shape {losses.shape}"
        )
    if not np.all(np.isfinite(losses) & (losses >= 0)):
        raise ValueError("losses must be non-negative and finite")
    pack_size = losses.shape[1]
    if pack_size < 1:
        raise ValueError("empty pack")
    if policy.kind == "fixed" and pack_size > policy.pack_size:
        raise ValueError(
            f"pack of size {pack_size} exceeds declared size {policy.pack_size}"
        )
    sums = losses.sum(axis=1)
    state.cumulative_losses = state.cumulative_losses + sums
    state.trial_index += 1

    if policy.kind == "running_max":
        state.running_max_pack = max(state.running_max_pack, pack_size)
        state.log_weights = (
            np.log(state.prior)
            - (game.eta / state.running_max_pack) * state.cumulative_losses
        )
    else:
        divisor = policy.pack_size if policy.kind == "fixed" else pack_size
        state.log_weights = state.log_weights - (game.eta / divisor) * sums
