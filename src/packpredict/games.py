"""Square-loss aggregation game: admissibility, generalized predictions, substitution.

The central object is the inequality that makes exponential mixing of expert
losses work: given a probability vector p over N experts and their predictions
gamma^1..gamma^N, there must exist a single prediction gamma with

    loss(gamma, omega) <= -(C/eta) * ln sum_n p^n * exp(-eta * loss(gamma^n, omega))

for every outcome omega.  For the square loss on an interval [A, B] this holds
with C = 1 whenever eta <= 2/(B-A)^2, and the closed-form substitution below
produces such a gamma.  Validity is never trusted: `check_substitution_validity`
evaluates the worst slack on an outcome grid.

This module alone states what the games accept.  A probability vector
(weights, a prior) sums to 1 within `WEIGHT_TOL` (`_as_probabilities`); an
interval has finite ends, lower < upper and a finite squared width
(`_checked_width`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Probability vectors must sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12


def _logsumexp(a, axis=None):
    """ln(sum(exp(a))) along `axis`, shifted by the maximum; -inf, +inf and
    NaN entries and all-(-inf) slices behave as in scipy.special.logsumexp."""
    a = np.array(a, dtype=float, copy=None, ndmin=1)
    top = np.maximum.reduce(a, axis=axis, keepdims=True)
    # Finite maxima whose sum overflows take the second branch harmlessly.
    finite = math.isfinite(np.add.reduce(top, axis=None))
    if not finite:
        top[~np.isfinite(top)] = 0.0
    shifted = np.subtract(a, top)
    np.exp(shifted, out=shifted)
    out = np.add.reduce(shifted, axis=axis, keepdims=True)
    if finite:
        np.log(out, out=out)  # each maximum adds exp(0) = 1, so no sum is 0
    else:
        with np.errstate(divide="ignore"):  # an all-(-inf) slice sums to 0
            np.log(out, out=out)
    out += top
    return out.squeeze(axis=axis)[()]


def _checked_width(lower: float, upper: float) -> float:
    """upper - lower for an interval with finite ends, lower < upper and a
    finite squared width; any other interval is refused, named."""
    ends = math.isfinite(lower) and math.isfinite(upper) and lower < upper
    # As Python floats, a width or square that overflows is inf, with no
    # numpy warning.
    width = float(upper) - float(lower) if ends else math.nan
    if not math.isfinite(width * width):
        raise ValueError(f"degenerate interval [{lower}, {upper}]: need "
                         f"finite ends, lower < upper and a finite squared "
                         f"width")
    return width


def max_mixable_eta(lower: float, upper: float) -> float:
    """Largest learning rate at which the square-loss game on [lower, upper]
    admits the aggregation constant C = 1."""
    return 2.0 / _checked_width(lower, upper) ** 2


@dataclass(frozen=True)
class GameSpec:
    """Square-loss game on the interval [lower, upper].

    `eta` is the learning rate and `c` the aggregation constant assumed
    admissible for it.  The defaults of `for_interval` (eta = 2/(B-A)^2,
    c = 1) are the tightest pair for the square loss.
    """

    lower: float
    upper: float
    eta: float
    c: float = 1.0

    def __post_init__(self):
        _checked_width(self.lower, self.upper)
        if not self.eta > 0:
            raise ValueError(f"learning rate must be positive, got {self.eta}")
        if not self.c >= 1:
            raise ValueError(f"aggregation constant must be >= 1, got {self.c}")
        if not np.isfinite([self.eta, self.c, self.c / self.eta]).all():
            raise ValueError(
                f"eta, c and c/eta must be finite, got eta={self.eta}, c={self.c}"
            )

    @classmethod
    def for_interval(cls, lower: float, upper: float, eta: float | None = None,
                     c: float = 1.0) -> "GameSpec":
        """Square-loss game with the maximal mixable eta unless overridden."""
        if eta is None:
            eta = max_mixable_eta(lower, upper)
        return cls(float(lower), float(upper), float(eta), float(c))

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @cached_property
    def _endpoints(self) -> np.ndarray:
        """A and B as a 2 x 1 column, against N x 1 x K predictions."""
        ends = np.array([[self.lower], [self.upper]])
        ends.flags.writeable = False
        return ends

    def contains(self, values) -> bool:
        """Whether every value lies in [lower, upper].  A NaN minimum or
        maximum fails its comparison, so a NaN never does."""
        v = np.asarray(values, dtype=float)
        return v.size == 0 or bool(
            np.minimum.reduce(v, axis=None) >= self.lower
            and np.maximum.reduce(v, axis=None) <= self.upper)

    def _inside(self, values) -> np.ndarray:
        """`contains` value by value: a mask, False at a NaN."""
        return (values >= self.lower) & (values <= self.upper)

    def _require_inside(self, values, what: str) -> None:
        if not self.contains(values):
            raise ValueError(f"{what} outside [{self.lower}, {self.upper}]")


def _as_probabilities(values) -> np.ndarray:
    """`values` as a non-empty 1-d float array that is a probability vector:
    weights or a prior."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or not p.size:
        raise ValueError(f"probability vectors must form a 1-d array "
                         f"with no empty axis, got shape {p.shape}")
    if np.any(np.isnan(p)) or np.any(p < 0):
        raise ValueError("probabilities must be non-negative and free of NaN")
    total = p.sum()
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(f"probability vector sums to {float(total)!r}, "
                         f"expected 1 within {WEIGHT_TOL}")
    return p


def _checked_inputs(weights, expert_pred_matrix, game: GameSpec) -> tuple:
    """A substitution's checked inputs: the log-weights as an N x 1 column
    (-inf for a zero weight), and the N x K predictions."""
    w = _as_probabilities(weights)
    preds = _as_pred_matrix(expert_pred_matrix, w.size, game)
    with np.errstate(divide="ignore"):
        return np.log(w)[:, None], preds


def _mixed_loss(log_w, preds, omega, game: GameSpec):
    """The mixed loss profile, or generalized prediction, of the experts'
    predictions `preds` (experts on axis 0) under the log-weights `log_w`,
    at the outcomes `omega`:

        g(omega) = -(C/eta) * ln sum_n p^n * exp(-eta * (gamma^n - omega)^2)

    reduced over the experts; the arguments broadcast, and `log_w` fits the
    shape of `preds - omega`.  The exponent is built in place in one C-order
    array, so the sum adds its rows in expert order, whatever the inputs'
    memory order, if a row holds two or more values (numpy sums eight or
    more adjacent values pairwise)."""
    x = np.subtract(preds, omega, order="C")
    np.square(x, out=x)
    np.multiply(x, -game.eta, out=x)
    np.add(x, log_w, out=x)
    return -(game.c / game.eta) * _logsumexp(x, axis=0)


def _as_pred_matrix(expert_pred_matrix, num_experts: int,
                    game: GameSpec) -> np.ndarray:
    """An N x K matrix of expert predictions in [A, B], K >= 1."""
    preds = np.asarray(expert_pred_matrix, dtype=float)
    if preds.ndim != 2 or preds.shape[0] != num_experts or preds.shape[1] < 1:
        raise ValueError(
            f"expert prediction matrix must be {num_experts} x K with K >= 1, "
            f"got shape {preds.shape}"
        )
    game._require_inside(preds, "expert prediction")
    return preds


def _as_pred_column(expert_preds) -> np.ndarray:
    """One round of expert predictions as an N x 1 matrix."""
    p = np.asarray(expert_preds, dtype=float)
    if p.ndim != 1:
        raise ValueError("expert predictions must be a 1-d vector")
    return p[:, None]


def substitute_pack(weights, expert_pred_matrix, game: GameSpec) -> np.ndarray:
    """Predictions solving the aggregation inequality for each column of an
    N x K matrix of expert predictions, all under the same weights.

    Closed form for the square loss: the prediction equalizes the slack of the
    inequality at the two interval endpoints,

        gamma = (A+B)/2 + (g(A) - g(B)) / (2 * (B-A)),

    clipped to [A, B].  A single expert is reproduced exactly.
    """
    return _substitute(*_checked_inputs(weights, expert_pred_matrix, game), game)


def _substitute(log_w, preds, game: GameSpec) -> np.ndarray:
    """The closed form of `substitute_pack`, unchecked, with column k of
    `preds` mixed under the log-weights log_w[:, k].  Only differences within
    a column matter, so they need not be normalized.  g(A) and g(B) come
    from one `_mixed_loss`, N x 2 x K: no expert's row is a single value."""
    a, b = game.lower, game.upper
    if preds.shape[0] == 1:
        # Mixing a single expert can only reproduce it; skip the closed form
        # to avoid pointless cancellation noise.
        return preds[0].clip(a, b)
    g = _mixed_loss(log_w[:, None], preds[:, None], game._endpoints, game)
    gamma = np.subtract(g[0], g[1])
    np.divide(gamma, 2.0 * (b - a), out=gamma)
    np.add(gamma, 0.5 * (a + b), out=gamma)
    np.maximum(gamma, a, out=gamma)
    return np.minimum(gamma, b, out=gamma)


def check_substitution_validity(gamma: float, weights, expert_preds, game: GameSpec,
                                grid_size: int = 1001) -> float:
    """Worst slack of the aggregation inequality over the outcomes in [A, B].

    Returns the max of (gamma - omega)^2 - g(omega), which a valid
    substitution keeps within noise, 1e-12 * (B - A)^2 in the game's units.
    The maximum is taken on a uniform grid of `grid_size` outcomes, then
    refined beside the grid's eight highest peaks (a peak is above its left
    neighbour and not below its right one; on a flat slack, rounding makes
    many): a 257-point grid over the one or two cells beside the peak, then
    again beside that grid's maximum, three times in all, which leaves the
    points at most 2.5e-7 * (B - A) apart, so the maximum is off by at most
    1e-14 times the slack's second derivative times (B - A)^2.  With c = 1
    the slack is convex in omega, so it peaks at an endpoint, which every
    grid holds.  With c > 1 it can peak between grid points, and that peak
    counts in full unless the grid is monotone across it.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    game._require_inside(gamma, "prediction")
    log_w, preds = _checked_inputs(weights, _as_pred_column(expert_preds), game)

    def slack(omega):
        flat = omega.ravel()
        return ((gamma - flat) ** 2
                - _mixed_loss(log_w, preds, flat, game)).reshape(omega.shape)

    grid = np.linspace(game.lower, game.upper, grid_size)
    worst = slack(grid)
    peaks = np.flatnonzero(np.r_[True, worst[1:] > worst[:-1]]
                           & np.r_[worst[:-1] >= worst[1:], True])
    peaks = peaks[np.argsort(worst[peaks], kind="stable")[-8:]]
    lo = grid[np.maximum(peaks - 1, 0)]
    hi = grid[np.minimum(peaks + 1, grid_size - 1)]
    worst = worst.max()
    step = np.linspace(0.0, 1.0, 257)
    for _ in range(3):
        grids = lo[:, None] + (hi - lo)[:, None] * step  # one row per peak
        grids[:, -1] = hi  # exactly, so no outcome leaves [A, B]
        values = slack(grids)
        worst = max(worst, values.max())
        best = values.argmax(axis=1)
        rows = np.arange(best.size)
        lo = grids[rows, np.maximum(best - 1, 0)]
        hi = grids[rows, np.minimum(best + 1, step.size - 1)]
    return float(worst)
