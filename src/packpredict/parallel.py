"""Parallel copies: pack prediction by multiplexing single-item aggregators.

Keep independent copies of the one-item aggregator and give item k of every
pack to copy k.  This is the reduction of Weinberger & Ordentlich ("On
delayed prediction of individual sequences", IEEE Trans. IT 2002): send each
item to the lowest-numbered copy that has seen the outcomes of everything it
predicted.  Since all outcomes of a pack arrive together when the pack
closes, that copy is always copy k, and the number of copies never exceeds
the largest pack.

Each copy thus sees a subsequence of the items as its own one-item game.
The aggregate guarantee degrades with the number of copies an expert's loss
is split across, which is why item order inside packs (and pack order)
changes the total loss: shuffling reassigns items to copies.

`run_parallel` replays all copies at once through the replay of
`algorithms`, on the copies' row of `bounds._TABLE`; stepping copy k item
by item with the online learner (`predict_item`, then `observe_pack` with
divisor 1) gives the same predictions, bit for bit.  A `ShuffleSummary`'s
JSON form is stated in `harness`, with the rest of the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import PackStream, RunRecords, _run
from .games import GameSpec


def run_parallel(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Run the parallel copies over a pack stream, returning its records."""
    return _run("parallel", stream, None, game, prior)


@dataclass(frozen=True)
class ShuffleSummary:
    """Total losses of the parallel copies over within-pack reshuffles of one
    stream; the statistics are derived from the losses on each access."""

    losses: tuple
    seed: int

    @property
    def num_shuffles(self) -> int:
        return len(self.losses)

    @property
    def mean(self) -> float:
        return float(np.mean(self.losses))

    @property
    def min(self) -> float:
        return float(np.min(self.losses))

    @property
    def max(self) -> float:
        return float(np.max(self.losses))


def shuffle_within_packs(stream: PackStream, rng) -> PackStream:
    """Permute items inside each pack (expert columns and outcomes jointly);
    pack order and membership are untouched."""
    order = np.empty(stream.num_items, dtype=np.intp)
    for start, size in zip(stream.starts.tolist(), stream.sizes.tolist()):
        order[start:start + size] = start + rng.permutation(size)
    return PackStream(stream.expert_preds[:, order], stream.outcomes[order],
                      stream.sizes)


def shuffle_experiment(stream: PackStream, game: GameSpec, prior=None,
                       num_shuffles: int = 20, seed: int = 0) -> ShuffleSummary:
    """Total parallel-copies loss across `num_shuffles` within-pack reshuffles.

    The spread (max - min) measures how order-sensitive the parallel copies
    are on this stream; the pack algorithms are invariant to within-pack
    order, so any nonzero spread is attributable to item-to-copy assignment.
    """
    if num_shuffles < 1:
        raise ValueError("need at least one shuffle")
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(num_shuffles):
        records = run_parallel(shuffle_within_packs(stream, rng), game, prior)
        losses.append(float(records.cumulative_loss[-1]))
    return ShuffleSummary(tuple(losses), seed)
