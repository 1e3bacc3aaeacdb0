"""Pack prediction protocols, replayed over a whole stream at once.

A pack is a batch of items revealed together: the learner sees all expert
predictions for the batch, commits predictions for every item, and only then
observes the outcomes.  Weights are therefore frozen within a pack and updated
once per pack.

Four variants, differing only in the divisor schedule of the weight update
(stated once, in `aggregator.DivisorPolicy`):

  run_aap_equal        packs of one known size K          fixed(K)
  run_aap_max          sizes vary, max size K known ahead fixed(K)
  run_aap_incremental  nothing known ahead                running_max
  run_aap_current      nothing known ahead                current_pack

plus `run_aa` (single items, fixed(1)).  Every variant predicts each item
with the full-rate substitution; only the weight update is slowed.  The
predictions never feed back into the weights, so `_replay` computes a whole
run from cumulative sums of the experts' losses and one vectorized
substitution; `parallel` runs its copies through the same replay.  The
online learner of `aggregator` is the month-by-month form of the same
schedule; an mpmath oracle in the tests checks both.

A run's records are the replay's arrays, kept as columns (`RunRecords`): one
row per trial, T x N for the experts.  Only `to_dict`/`from_dict` turn them
into the per-trial JSON objects and back.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter

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


def _json_column(name: str, values, dtype=float, lengths=None) -> np.ndarray:
    """JSON values as an array of `dtype`, checked as a whole: each must be
    a number, and an integer for an int `dtype`; a bool or a string is an
    error, never converted.  With `lengths`, each value is a list of that
    many numbers (one length for all, or one each), concatenated."""
    values = list(values)
    if lengths is not None:
        if (set(map(type, values)) - {list}
                or np.any(np.fromiter(map(len, values), int, len(values))
                          != lengths)):
            raise ValueError(f"{name}: a list has the wrong length")
        values = list(chain.from_iterable(values))
    if set(map(type, values)) - ({int} if dtype is int else {int, float}):
        kind = "integers" if dtype is int else "numbers"
        raise ValueError(f"{name}: values must be JSON {kind}")
    return np.array(values, dtype=dtype)


@dataclass(frozen=True, eq=False)
class RunRecords:
    """A run's per-trial records as columns; row t is trial t.

    `learner_preds` holds every item's prediction in stream order (trial t's
    are the next `pack_size[t]`); the `expert_*` columns are T x N.
    """

    pack_size: np.ndarray
    learner_preds: np.ndarray
    learner_pack_loss: np.ndarray
    cumulative_loss: np.ndarray
    cumulative_average_loss: np.ndarray
    expert_pack_losses: np.ndarray
    expert_cumulative_losses: np.ndarray
    expert_cumulative_average_losses: np.ndarray

    def __len__(self):
        return len(self.pack_size)

    def __eq__(self, other):
        if not isinstance(other, RunRecords):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def to_dict(self) -> list:
        """The JSON form: one object per trial, with its `trial_index`."""
        columns = {f.name: getattr(self, f.name).tolist() for f in fields(self)}
        preds, ends = columns["learner_preds"], np.cumsum(self.pack_size).tolist()
        columns["learner_preds"] = [preds[e - k:e]
                                    for k, e in zip(columns["pack_size"], ends)]
        columns["trial_index"] = range(len(self))
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    @classmethod
    def from_dict(cls, rows: list) -> "RunRecords":
        """Inverse of `to_dict`.  Trial t must have `trial_index` t and
        `pack_size` predictions, and every expert list the same length."""
        def column(name, dtype=float, lengths=None):
            return _json_column(name, map(itemgetter(name), rows), dtype, lengths)

        if not np.array_equal(column("trial_index", int), np.arange(len(rows))):
            raise ValueError("records: trial_index must count 0, 1, 2, ...")
        sizes = column("pack_size", int)
        width = len(rows[0]["expert_pack_losses"]) if rows else 0

        def experts(name):
            return column(name, float, width).reshape(len(rows), width)

        return cls(sizes, column("learner_preds", float, sizes),
                   column("learner_pack_loss"), column("cumulative_loss"),
                   column("cumulative_average_loss"),
                   experts("expert_pack_losses"),
                   experts("expert_cumulative_losses"),
                   experts("expert_cumulative_average_losses"))


def _losses_before(losses: np.ndarray) -> np.ndarray:
    """Per column t of an N x T loss matrix, each expert's sum over the
    columns before t, less the smallest such sum: the shift leaves the
    weights unchanged and keeps the log-weights near zero, the most precise."""
    before = np.zeros_like(losses)
    np.cumsum(losses[:, :-1], axis=1, out=before[:, 1:])
    return before - before.min(axis=0)


def _replay(stream: PackStream, game: GameSpec, prior, charges) -> RunRecords:
    """A whole run's records, from whole-stream arrays: the packs side by
    side as N x items matrices, pack t from column starts[t].
    `charges(expert_losses, pack_losses, sizes, starts)` gives each item's
    N charges c, the weights at that item being proportional to p * exp(-c).
    """
    if len(stream) == 0:
        return RunRecords.from_dict([])
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
    return RunRecords(sizes, learner, learner_pack, np.cumsum(learner_pack),
                      np.cumsum(learner_pack / sizes), pack_losses.T,
                      np.cumsum(pack_losses, axis=1).T,
                      np.cumsum(pack_losses / sizes, axis=1).T)


def _run_with_policy(stream: PackStream, game: GameSpec, policy: DivisorPolicy,
                     prior) -> RunRecords:
    """Weights before trial t: p * exp(-(eta / D_t) * charges before t), on
    the schedule of `DivisorPolicy`."""

    def charges(expert_losses, pack_losses, sizes, starts):
        running_max = np.maximum.accumulate(np.concatenate(([1], sizes[:-1])))
        charged = ((game.eta / policy.divisor(running_max))
                   * _losses_before(policy.charge(pack_losses, sizes)))
        return np.repeat(charged, sizes, axis=1)

    return _replay(stream, game, prior, charges)


def run_aap_equal(stream: PackStream, pack_size: int, game: GameSpec,
                  prior=None) -> RunRecords:
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
                prior=None) -> RunRecords:
    """Pack prediction when only an upper bound on pack sizes is known ahead."""
    return _run_with_policy(stream, game, DivisorPolicy.fixed(max_pack_size), prior)


def run_aap_incremental(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Pack prediction with no size information: divisor is the running max
    pack size, with weights recomputed from the prior whenever it grows."""
    return _run_with_policy(stream, game, DivisorPolicy.running_max(), prior)


def run_aap_current(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Pack prediction with no size information: divisor is the current pack
    size.  Controls average per-item loss rather than total loss."""
    return _run_with_policy(stream, game, DivisorPolicy.current_pack(), prior)


def run_aa(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Classic one-item-at-a-time aggregation: a stream whose packs all have
    size one, run with divisor 1."""
    for i, t in enumerate(stream):
        if t.size != 1:
            raise ValueError(f"trial {i} has size {t.size}; expected single items")
    return _run_with_policy(stream, game, DivisorPolicy.fixed(1), prior)
