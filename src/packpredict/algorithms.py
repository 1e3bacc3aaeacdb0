"""The pack prediction protocols, replayed over a whole stream at once.

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

plus `run_aa` (single items, fixed(1)); each runs its row of `bounds._TABLE`.
Every variant predicts each item with the full-rate substitution; only the
weight update is slowed.  The predictions never feed back into the weights,
so `_replay` computes a whole run from cumulative sums of the experts'
losses and one vectorized substitution, the parallel copies' too.  The
online learner of `aggregator` is the month-by-month form of the same
schedule and weights, and predicts the same bits; an mpmath oracle in the
tests checks both.

A stream is stored as the columns the replay reads (`PackStream`): one
N x items matrix of expert predictions, the outcomes and the pack sizes.
`PackStream(expert_preds, outcomes, sizes)` is the one way to build a
stream, and it checks the columns: every producer in this package (the CSV
loader, the synthetic generator, rescaling, shuffling, the one-pack views)
passes the same checks.

A run's records are the four columns the replay produced (`RunRecords`):
the pack sizes, every item's prediction, the learner's pack losses and the
experts' (T x N).  The running totals are derived from the pack losses, one
`np.cumsum` each, on every access.  This module holds no JSON: the report's
form of the records, written and read, is stated in `harness`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .aggregator import _as_prior, _log_weights, uniform_prior
from .bounds import _TABLE, _require_fit
from .games import GameSpec, _substitute


class PackStream:
    """An ordered sequence of at least one pack, all sharing one expert
    panel, stored as columns: `expert_preds` (N x items, packs side by
    side), `outcomes` and `sizes`; pack t holds the `sizes[t]` items from
    column `starts[t]`.  The constructor checks the columns and stores them
    in C order, the sizes as `intp`.  `stream[t]` is pack t as a one-pack
    stream of its columns, and iteration gives the packs in order."""

    def __init__(self, expert_preds, outcomes, sizes):
        sizes = np.array(sizes)  # a copy: the stream derives `starts` from it
        if sizes.size == 0:
            raise ValueError("a stream needs at least one pack")
        if sizes.ndim != 1 or not np.issubdtype(sizes.dtype, np.integer):
            raise ValueError(f"pack sizes must be a 1-d integer array, got "
                             f"{sizes.dtype} of shape {sizes.shape}")
        if (sizes < 1).any():
            t = int(np.argmax(sizes < 1))
            raise ValueError(f"pack {t} has size {sizes[t]}, not at least 1")
        expert_preds = np.asarray(expert_preds, dtype=float)
        outcomes = np.asarray(outcomes, dtype=float)
        if expert_preds.ndim != 2 or outcomes.shape != expert_preds.shape[1:]:
            raise ValueError(
                f"expert predictions of shape {expert_preds.shape} and outcomes "
                f"of shape {outcomes.shape} are not N x items and items")
        if sizes.sum() != outcomes.size:
            raise ValueError(f"pack sizes sum to {sizes.sum()}, not to the "
                             f"{outcomes.size} items")
        self.sizes = sizes.astype(np.intp, copy=False)
        # C order, whoever built the stream: the replay reads it faster.
        self.expert_preds = np.ascontiguousarray(expert_preds)
        self.outcomes = np.ascontiguousarray(outcomes)
        self.starts = np.cumsum(self.sizes) - self.sizes

    def __len__(self):
        return len(self.sizes)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        items = slice(self.starts[i], self.starts[i] + self.sizes[i])
        return PackStream(self.expert_preds[:, items], self.outcomes[items],
                          self.sizes[i:i + 1 or None])

    def __eq__(self, other):
        if not isinstance(other, PackStream):
            return NotImplemented
        return (np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.outcomes, other.outcomes)
                and np.array_equal(self.expert_preds, other.expert_preds))

    @property
    def num_experts(self) -> int:
        return self.expert_preds.shape[0]

    @property
    def num_items(self) -> int:
        return self.outcomes.size

    @property
    def pack_sizes(self) -> tuple:
        return tuple(self.sizes.tolist())

    def validate_for_game(self, game: GameSpec) -> None:
        """Raise naming the first trial with a value outside the game."""
        bad = ~(game._inside(self.expert_preds).all(axis=0)
                & game._inside(self.outcomes))
        if bad.any():
            i = np.searchsorted(self.starts, np.argmax(bad), side="right") - 1
            items = slice(self.starts[i], self.starts[i] + self.sizes[i])
            game._require_inside(self.expert_preds[:, items],
                                 f"trial {i}: expert prediction")
            game._require_inside(self.outcomes[items], f"trial {i}: outcome")


@dataclass(frozen=True, eq=False)
class RunRecords:
    """A run's per-trial records as columns; row t is trial t, and a run
    has at least one trial.

    `learner_preds` holds every item's prediction in stream order (trial t's
    are the next `pack_size[t]`); `expert_pack_losses` is T x N.  The
    running totals are derived from the pack losses on each access.
    """

    pack_size: np.ndarray
    learner_preds: np.ndarray
    learner_pack_loss: np.ndarray
    expert_pack_losses: np.ndarray

    @property
    def cumulative_loss(self) -> np.ndarray:
        return np.cumsum(self.learner_pack_loss)

    @property
    def cumulative_average_loss(self) -> np.ndarray:
        return np.cumsum(self.learner_pack_loss / self.pack_size)

    @property
    def expert_cumulative_losses(self) -> np.ndarray:
        return np.cumsum(self.expert_pack_losses, axis=0)

    @property
    def expert_cumulative_average_losses(self) -> np.ndarray:
        return np.cumsum(self.expert_pack_losses / self.pack_size[:, None], axis=0)

    def __len__(self):
        return len(self.pack_size)

    def __eq__(self, other):
        if not isinstance(other, RunRecords):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


# Most columns `_replay` substitutes at once.  The substitution's two
# temporaries are 2 x N x columns each; at 8192 columns and 8 experts the
# allocator returned them to the system after each block and the next block
# faulted them in again, while at 2048 it reuses them.
_REPLAY_BLOCK = 2048


def _losses_before(losses: np.ndarray) -> np.ndarray:
    """Per column t of an N x T loss matrix, each expert's sum before t."""
    before = np.zeros_like(losses)
    np.cumsum(losses[:, :-1], axis=1, out=before[:, 1:])
    return before


def _replay(stream: PackStream, game: GameSpec, prior, policy) -> RunRecords:
    """A whole run's records, from the stream's columns (see `PackStream`),
    on the schedule `policy`: a `DivisorPolicy`, or None for the parallel
    copies.  The weights at an item are those `aggregator._log_weights`
    states for the online learner."""
    stream.validate_for_game(game)
    n = stream.num_experts
    log_p = np.log(_as_prior(uniform_prior(n) if prior is None else prior, n))[:, None]
    sizes, starts = stream.sizes, stream.starts
    expert_losses = (stream.expert_preds - stream.outcomes) ** 2
    pack_losses = np.add.reduceat(expert_losses, starts, axis=1)
    if policy is None:
        # Copy k's weights at item k of pack t, at divisor 1, from the
        # experts' losses on item k of the packs before t.
        log_w = np.empty_like(expert_losses)
        for k in range(sizes.max()):
            items = starts[sizes > k] + k  # what copy k sees, in order
            log_w[:, items] = _log_weights(
                log_p, _losses_before(expert_losses[:, items]), 1, game.eta)
    else:
        # Weights before pack t: divisor D_t, charges before t.
        running_max = np.maximum.accumulate(np.concatenate(([1], sizes[:-1])))
        log_w = np.repeat(_log_weights(
            log_p, _losses_before(policy.charge(pack_losses, sizes)),
            policy.divisor(running_max), game.eta), sizes, axis=1)
    del expert_losses  # as large as the predictions; free it before substituting
    # Near-equal column blocks bound the substitution's temporaries.
    blocks = -(-stream.num_items // _REPLAY_BLOCK)
    learner = np.concatenate([
        _substitute(w, x, game) for w, x in
        zip(np.array_split(log_w, blocks, axis=1),
            np.array_split(stream.expert_preds, blocks, axis=1))])
    learner_pack = np.add.reduceat((learner - stream.outcomes) ** 2, starts)
    return RunRecords(sizes.copy(), learner, learner_pack, pack_losses.T)


def _run(name: str, stream: PackStream, declared, game: GameSpec,
         prior) -> RunRecords:
    """A run of algorithm `name`, declaring pack size `declared`, on its row
    of `bounds._TABLE`; raises naming the first pack it may not take."""
    _require_fit(name, stream.sizes, declared)
    return _replay(stream, game, prior, _TABLE[name].schedule(declared))


def run_aap_equal(stream: PackStream, pack_size: int, game: GameSpec,
                  prior=None) -> RunRecords:
    """Predict packs when every pack has the same known size.

    Raises if any pack's size differs from `pack_size`.
    """
    return _run("aap-equal", stream, pack_size, game, prior)


def run_aap_max(stream: PackStream, max_pack_size: int, game: GameSpec,
                prior=None) -> RunRecords:
    """Predict packs when only an upper bound on pack sizes is known ahead."""
    return _run("aap-max", stream, max_pack_size, game, prior)


def run_aap_incremental(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Predict packs with no size information: divisor is the running max
    pack size, with weights recomputed from the prior whenever it grows."""
    return _run("aap-incremental", stream, None, game, prior)


def run_aap_current(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Predict packs with no size information: divisor is the current pack
    size.  Controls average per-item loss rather than total loss."""
    return _run("aap-current", stream, None, game, prior)


def run_aa(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Classic one-item-at-a-time aggregation: a stream whose packs all have
    size one, run with divisor 1."""
    return _run("aa", stream, None, game, prior)
