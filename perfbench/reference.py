"""Independent plain-numpy reference for checking the benchmark's outputs.

This module never imports packpredict.  A stream is given as flat arrays:
`preds` (items x N expert predictions), `outcomes` (items) and `sizes`
(pack sizes, in order).  Within a pack the weights are frozen, so every
algorithm is a closed form over the experts' cumulative losses:

    weights before pack t = softmax(ln p - (eta / D_t) * L_{t-1})

with L the cumulative expert loss before pack t and D_t the divisor
schedule.  `aap-current` uses the cumulative per-pack average loss and
D_t = 1.  The parallel-copies baseline runs one single-item learner per
within-pack position: copy k sees item k of every pack.
"""

from __future__ import annotations

import numpy as np


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log of softmax(z)."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1)
    return m + np.log(np.exp(z - m[..., None]).sum(axis=-1))


def substitute(log_w: np.ndarray, preds: np.ndarray, lower: float,
               upper: float, eta: float) -> np.ndarray:
    """Closed-form square-loss substitution, one prediction per row.

    `log_w` and `preds` are items x N.  In the unit coordinates
    x = (gamma - A) / (B - A) and eta' = eta (B - A)^2 the prediction is

        A + (B - A) * (1/2 + (lse(ln w - eta'(1 - x)^2)
                              - lse(ln w - eta' x^2)) / (2 eta'))

    clipped to [A, B].
    """
    width = upper - lower
    x = (preds - lower) / width
    unit_eta = eta * width * width
    at_lower = _logsumexp(log_w - unit_eta * x * x)
    at_upper = _logsumexp(log_w - unit_eta * (1.0 - x) ** 2)
    unit = 0.5 + (at_upper - at_lower) / (2.0 * unit_eta)
    return lower + width * np.clip(unit, 0.0, 1.0)


def pack_index(sizes: np.ndarray) -> np.ndarray:
    """Pack number of every item."""
    return np.repeat(np.arange(len(sizes)), sizes)


def per_pack(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum item rows within each pack."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.add.reduceat(values, starts, axis=0)


def exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """Row t holds the sum of rows before t."""
    out = np.zeros_like(values)
    np.cumsum(values[:-1], axis=0, out=out[1:])
    return out


def divisors(schedule: str, sizes: np.ndarray, declared: int | None = None
             ) -> np.ndarray:
    """D_t before each pack: 'declared' K, 'running-max' of earlier packs
    (1 before the first), or 'unit' (1, as for aa and per-pack averages)."""
    t = len(sizes)
    if schedule == "declared":
        return np.full(t, float(declared))
    if schedule == "running-max":
        before = np.concatenate([[1], sizes[:-1]])
        return np.maximum.accumulate(before).astype(float)
    if schedule == "unit":
        return np.ones(t)
    raise ValueError(f"unknown divisor schedule {schedule!r}")


def pack_weights(prior: np.ndarray, pack_losses: np.ndarray, eta: float,
                 divisor: np.ndarray) -> np.ndarray:
    """Log-weights before each pack (T x N) from per-pack expert losses."""
    before = exclusive_cumsum(pack_losses)
    return log_softmax(np.log(prior)[None, :] - (eta / divisor)[:, None] * before)


# Algorithm -> (divisor schedule, whether the weights use per-pack averages).
SCHEDULES = {
    "aa": ("unit", False),
    "aap-equal": ("declared", False),
    "aap-max": ("declared", False),
    "aap-incremental": ("running-max", False),
    "aap-current": ("unit", True),
}


def run(algorithm: str, preds, outcomes, sizes, prior, lower, upper,
        eta) -> np.ndarray:
    """Per-item learner predictions of one algorithm."""
    preds = np.asarray(preds, dtype=float)
    outcomes = np.asarray(outcomes, dtype=float)
    sizes = np.asarray(sizes)
    prior = np.asarray(prior, dtype=float)
    item_losses = (preds - outcomes[:, None]) ** 2
    if algorithm == "parallel":
        return _run_parallel(preds, item_losses, sizes, prior, lower, upper,
                             eta)
    schedule, average = SCHEDULES[algorithm]
    if algorithm == "aa" and np.any(sizes != 1):
        raise ValueError("aa needs single-item packs")
    if algorithm == "aap-equal" and len(set(sizes.tolist())) != 1:
        raise ValueError("aap-equal needs packs of one size")
    pack_losses = per_pack(item_losses, sizes)
    if average:
        pack_losses = pack_losses / sizes[:, None]
    log_w = pack_weights(prior, pack_losses, eta,
                         divisors(schedule, sizes, int(sizes.max())))
    return substitute(log_w[pack_index(sizes)], preds, lower, upper, eta)


def within_pack_position(sizes: np.ndarray) -> np.ndarray:
    """Position k of every item inside its pack."""
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return np.arange(int(sizes.sum())) - np.repeat(starts, sizes)


def _run_parallel(preds, item_losses, sizes, prior, lower, upper, eta):
    position = within_pack_position(sizes)
    log_w = np.empty_like(preds)
    for k in range(int(sizes.max())):
        items = np.flatnonzero(position == k)
        before = exclusive_cumsum(item_losses[items])
        log_w[items] = log_softmax(np.log(prior)[None, :] - eta * before)
    return substitute(log_w, preds, lower, upper, eta)


def cumulative_losses(learner_preds, preds, outcomes, sizes) -> dict:
    """Per-trial cumulative totals and per-pack-average totals, learner (T)
    and experts (T x N)."""
    outcomes = np.asarray(outcomes, dtype=float)
    sizes = np.asarray(sizes)
    learner = per_pack((np.asarray(learner_preds) - outcomes) ** 2, sizes)
    experts = per_pack((np.asarray(preds) - outcomes[:, None]) ** 2, sizes)
    return {
        "learner": np.cumsum(learner),
        "learner_avg": np.cumsum(learner / sizes),
        "experts": np.cumsum(experts, axis=0),
        "experts_avg": np.cumsum(experts / sizes[:, None], axis=0),
    }


# Algorithm -> guarantees (name, metric, divisor D, uses the Kmax/Kmin
# multiplier), as in the README table:  Loss(S) <= mult * Loss(E_n)
# + D * ln(1/p_n) / eta, at every prefix.
GUARANTEES = {
    "aa": (("aa", "total", "one", False),),
    "aap-equal": (("aap-equal", "total", "declared", False),),
    "aap-max": (("aap-max", "total", "declared", False),),
    "aap-incremental": (("aap-incremental", "total", "max-seen", False),),
    "aap-current": (("aap-current-average", "average", "one", False),
                    ("aap-current-plain", "total", "max-seen", True)),
    "parallel": (("parallel", "total", "max-seen", False),),
}


def guarantee_slacks(algorithm: str, cumulative: dict, sizes, prior, eta,
                     declared: int | None = None) -> dict:
    """Slack bound - learner loss (T x N) of every guarantee of `algorithm`,
    at every prefix, from the given cumulative losses."""
    sizes = np.asarray(sizes)
    log_terms = np.log(1.0 / np.asarray(prior, dtype=float))[None, :]
    max_seen = np.maximum.accumulate(sizes).astype(float)[:, None]
    min_seen = np.minimum.accumulate(sizes).astype(float)[:, None]
    if declared is None:
        declared = int(sizes.max())
    out = {}
    for name, metric, divisor, ratio in GUARANTEES[algorithm]:
        if metric == "average":
            learner, experts = cumulative["learner_avg"], cumulative["experts_avg"]
        else:
            learner, experts = cumulative["learner"], cumulative["experts"]
        d = {"one": 1.0, "declared": float(declared), "max-seen": max_seen}[divisor]
        mult = max_seen / min_seen if ratio else 1.0
        bound = mult * experts + (d / eta) * log_terms
        out[name] = bound - learner[:, None]
    return out
