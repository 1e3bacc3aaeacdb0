"""Pack prediction protocols, replayed over a whole stream at once.

A pack is a batch of items revealed together: the learner sees all expert
predictions for the batch, commits predictions for every item, and only then
observes the outcomes.  Weights are therefore frozen within a pack and updated
once per pack.

Four variants, differing only in the loss divisor fed to the weight update:

  run_aap_equal        packs of one known size K          (divisor: K)
  run_aap_max          sizes vary, max size K known ahead (divisor: K)
  run_aap_incremental  nothing known ahead                (divisor: running max)
  run_aap_current      nothing known ahead                (divisor: current size)

plus `run_aa` (single items, divisor 1).  Every variant predicts each item
with the full-rate substitution; only the weight update is slowed.  The
predictions never feed back into the weights, so `_replay` computes a whole
run from cumulative sums of the experts' losses and one vectorized
substitution; `parallel` runs its copies through the same replay.  The
online learner of `aggregator` is the month-by-month form of the same rules
and the test oracle for the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .aggregator import DivisorPolicy, _as_prior, uniform_prior
from .games import GameSpec, _substitute


@dataclass(eq=False)
class Pack:
    """One trial: an N x K matrix of expert predictions plus K outcomes."""

    expert_preds: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        self.expert_preds = np.asarray(self.expert_preds, dtype=float)
        self.outcomes = np.asarray(self.outcomes, dtype=float)
        if self.expert_preds.ndim != 2:
            raise ValueError(
                f"expert predictions must be N x K, got shape {self.expert_preds.shape}"
            )
        if self.outcomes.ndim != 1 or self.outcomes.size != self.expert_preds.shape[1]:
            raise ValueError(
                f"outcomes shape {self.outcomes.shape} does not match "
                f"{self.expert_preds.shape[1]} items"
            )
        if self.size < 1:
            raise ValueError("empty pack")

    @property
    def num_experts(self) -> int:
        return self.expert_preds.shape[0]

    @property
    def size(self) -> int:
        return self.expert_preds.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Pack):
            return NotImplemented
        return np.array_equal(self.expert_preds, other.expert_preds) and np.array_equal(
            self.outcomes, other.outcomes
        )


@dataclass(eq=False)
class PackStream:
    """An ordered sequence of packs sharing one expert panel."""

    trials: tuple

    def __post_init__(self):
        self.trials = tuple(self.trials)
        if self.trials:
            n = self.trials[0].num_experts
            for i, t in enumerate(self.trials):
                if t.num_experts != n:
                    raise ValueError(
                        f"trial {i} has {t.num_experts} experts, expected {n}"
                    )

    def __len__(self):
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def __getitem__(self, i):
        return self.trials[i]

    def __eq__(self, other):
        if not isinstance(other, PackStream):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self.trials, other.trials)
        )

    @property
    def num_experts(self) -> int:
        if not self.trials:
            raise ValueError("empty stream has no expert panel")
        return self.trials[0].num_experts

    @property
    def num_items(self) -> int:
        return sum(t.size for t in self.trials)

    @property
    def max_pack_size(self) -> int:
        return max(t.size for t in self.trials)

    @property
    def min_pack_size(self) -> int:
        return min(t.size for t in self.trials)

    @property
    def pack_sizes(self) -> tuple:
        return tuple(t.size for t in self.trials)

    def validate_for_game(self, game: GameSpec) -> None:
        for i, t in enumerate(self.trials):
            if not game.contains(t.expert_preds):
                raise ValueError(
                    f"trial {i}: expert prediction outside [{game.lower}, {game.upper}]"
                )
            if not game.contains(t.outcomes):
                raise ValueError(
                    f"trial {i}: outcome outside [{game.lower}, {game.upper}]"
                )


@dataclass(frozen=True)
class TrialRecord:
    """Everything an audit needs about one trial, in plain Python floats."""

    trial_index: int
    pack_size: int
    learner_preds: tuple
    learner_pack_loss: float
    expert_pack_losses: tuple
    cumulative_loss: float
    cumulative_average_loss: float
    expert_cumulative_losses: tuple
    expert_cumulative_average_losses: tuple

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, d: dict) -> "TrialRecord":
        # Field types are strings under postponed annotations.
        convert = {"int": int, "float": float,
                   "tuple": lambda v: tuple(float(x) for x in v)}
        return cls(**{f.name: convert[f.type](d[f.name]) for f in fields(cls)})


def _losses_before(losses: np.ndarray) -> np.ndarray:
    """Per column t of an N x T loss matrix, each expert's sum over the
    columns before t, less the smallest such sum: the shift leaves the
    weights unchanged and keeps the log-weights near zero, the most precise."""
    before = np.zeros_like(losses)
    np.cumsum(losses[:, :-1], axis=1, out=before[:, 1:])
    return before - before.min(axis=0)


def _replay(stream: PackStream, game: GameSpec, prior, charges) -> list:
    """Per-trial records of a whole run, from whole-stream arrays: the packs
    side by side as N x items matrices, pack t from column starts[t].
    `charges(expert_losses, pack_losses, sizes, starts)` gives each item's
    N charges c, the weights at that item being proportional to p * exp(-c).
    """
    if len(stream) == 0:
        return []
    preds = np.concatenate([t.expert_preds for t in stream], axis=1)
    outcomes = np.concatenate([t.outcomes for t in stream])
    if not (game.contains(preds) and game.contains(outcomes)):
        stream.validate_for_game(game)  # raises, naming the first bad trial
    num_experts = stream.num_experts
    p = _as_prior(uniform_prior(num_experts) if prior is None else prior)
    if p.size != num_experts:
        raise ValueError(f"prior has {p.size} entries for {num_experts} experts")
    sizes = np.array(stream.pack_sizes)
    starts = np.cumsum(sizes) - sizes
    expert_losses = (preds - outcomes) ** 2
    pack_losses = np.add.reduceat(expert_losses, starts, axis=1)
    log_w = np.log(p)[:, None] - charges(expert_losses, pack_losses, sizes, starts)
    del expert_losses  # as large as `preds`; free it before the substitution
    learner = _substitute(log_w, preds, game)
    learner_pack = np.add.reduceat((learner - outcomes) ** 2, starts)
    flat = learner.tolist()
    columns = zip(
        sizes.tolist(), starts.tolist(), learner_pack.tolist(),
        pack_losses.T.tolist(),
        np.cumsum(learner_pack).tolist(),
        np.cumsum(learner_pack / sizes).tolist(),
        np.cumsum(pack_losses, axis=1).T.tolist(),
        np.cumsum(pack_losses / sizes, axis=1).T.tolist(),
    )
    return [
        TrialRecord(t, k, tuple(flat[s:s + k]), loss, tuple(experts), total,
                    avg_total, tuple(expert_totals), tuple(expert_avg_totals))
        for t, (k, s, loss, experts, total, avg_total, expert_totals,
                expert_avg_totals) in enumerate(columns)
    ]


def _run_with_policy(stream: PackStream, game: GameSpec, policy: DivisorPolicy,
                     prior) -> list:
    """Weights before trial t: p * exp(-(eta / D_t) * L_{t-1}), or with
    per-pack average losses and D_t = 1 for the current-pack divisor."""

    def charges(expert_losses, pack_losses, sizes, starts):
        if policy.kind == "current_pack":
            pack_losses, divisor = pack_losses / sizes, 1
        elif policy.kind == "running_max":
            divisor = np.maximum.accumulate(np.concatenate(([1], sizes[:-1])))
        elif sizes.max() > policy.pack_size:
            raise ValueError(
                f"pack of size {sizes.max()} exceeds declared size "
                f"{policy.pack_size}"
            )
        else:
            divisor = policy.pack_size
        charged = (game.eta / divisor) * _losses_before(pack_losses)
        return np.repeat(charged, sizes, axis=1)

    return _replay(stream, game, prior, charges)


def run_aap_equal(stream: PackStream, pack_size: int, game: GameSpec,
                  prior=None) -> list:
    """Pack prediction when every pack has the same known size.

    Raises if any pack's size differs from `pack_size`.
    """
    for i, t in enumerate(stream):
        if t.size != pack_size:
            raise ValueError(
                f"trial {i} has size {t.size}; this protocol requires every "
                f"pack to have size {pack_size}"
            )
    return _run_with_policy(stream, game, DivisorPolicy.fixed(pack_size), prior)


def run_aap_max(stream: PackStream, max_pack_size: int, game: GameSpec,
                prior=None) -> list:
    """Pack prediction when only an upper bound on pack sizes is known ahead."""
    return _run_with_policy(stream, game, DivisorPolicy.fixed(max_pack_size), prior)


def run_aap_incremental(stream: PackStream, game: GameSpec, prior=None) -> list:
    """Pack prediction with no size information: divisor is the running max
    pack size, with weights recomputed from the prior whenever it grows."""
    return _run_with_policy(stream, game, DivisorPolicy.running_max(), prior)


def run_aap_current(stream: PackStream, game: GameSpec, prior=None) -> list:
    """Pack prediction with no size information: divisor is the current pack
    size.  Controls average per-item loss rather than total loss."""
    return _run_with_policy(stream, game, DivisorPolicy.current_pack(), prior)


def run_aa(stream: PackStream, game: GameSpec, prior=None) -> list:
    """Classic one-item-at-a-time aggregation: a stream whose packs all have
    size one, run with divisor 1."""
    for i, t in enumerate(stream):
        if t.size != 1:
            raise ValueError(f"trial {i} has size {t.size}; expected single items")
    return _run_with_policy(stream, game, DivisorPolicy.fixed(1), prior)
