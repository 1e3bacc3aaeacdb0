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
`algorithms`; stepping copy k item by item with the online learner
(`predict_item`, then `observe_pack` with divisor 1) gives the same run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import (
    Pack,
    PackStream,
    RunRecords,
    _json_column,
    _losses_before,
    _replay,
)
from .games import GameSpec


def run_parallel(stream: PackStream, game: GameSpec, prior=None) -> RunRecords:
    """Run the parallel copies over a pack stream, returning its records."""

    def charges(expert_losses, pack_losses, sizes, starts):
        # Copy k's weights for item k of pack t: p * exp(-eta * L), with L
        # the experts' losses on item k of the packs before t.
        charged = np.empty_like(expert_losses)
        for k in range(sizes.max()):
            items = starts[sizes > k] + k  # what copy k sees, in order
            charged[:, items] = game.eta * _losses_before(expert_losses[:, items])
        return charged

    return _replay(stream, game, prior, charges)


@dataclass(frozen=True)
class ShuffleSummary:
    """Total losses of the parallel copies over within-pack reshuffles of one
    stream."""

    losses: tuple
    mean: float
    min: float
    max: float
    num_shuffles: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "losses": list(self.losses),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "num_shuffles": self.num_shuffles,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ShuffleSummary":
        """Inverse of `to_dict`: JSON numbers only, integer counts, one loss
        per shuffle.  `seed` stays a Python int of any size, as `--seed`
        takes it."""
        losses = _json_column("shuffle.losses", d["losses"])
        stats = _json_column("shuffle", [d["mean"], d["min"], d["max"]])
        num_shuffles, seed = d["num_shuffles"], d["seed"]
        if type(num_shuffles) is not int or type(seed) is not int:
            raise ValueError("shuffle: num_shuffles and seed must be JSON integers")
        if num_shuffles < 1 or num_shuffles != losses.size:
            raise ValueError(
                f"shuffle: num_shuffles is {num_shuffles} for {losses.size} losses"
            )
        return cls(tuple(losses.tolist()), *stats.tolist(), num_shuffles, seed)


def shuffle_within_packs(stream: PackStream, rng) -> PackStream:
    """Permute items inside each pack (expert columns and outcomes jointly);
    pack order and membership are untouched."""
    shuffled = []
    for pack in stream:
        perm = rng.permutation(pack.size)
        shuffled.append(Pack(pack.expert_preds[:, perm], pack.outcomes[perm]))
    return PackStream(tuple(shuffled))


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
        losses.append(float(records.cumulative_loss[-1:].sum()))  # 0 if empty
    arr = np.array(losses)
    return ShuffleSummary(
        losses=tuple(losses),
        mean=float(arr.mean()),
        min=float(arr.min()),
        max=float(arr.max()),
        num_shuffles=num_shuffles,
        seed=seed,
    )
