"""Square-loss aggregation game: admissibility, generalized predictions, substitution.

The central object is the inequality that makes exponential mixing of expert
losses work: given a probability vector p over N experts and their predictions
gamma^1..gamma^N, there must exist a single prediction gamma with

    loss(gamma, omega) <= -(C/eta) * ln sum_n p^n * exp(-eta * loss(gamma^n, omega))

for every outcome omega.  For the square loss on an interval [A, B] this holds
with C = 1 whenever eta <= 2/(B-A)^2, and the closed-form substitution below
produces such a gamma.  Validity is never trusted: `check_substitution_validity`
evaluates the worst slack on an outcome grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probability vectors must sum to 1 within this tolerance.
WEIGHT_TOL = 1e-12


def _logsumexp(a, axis=None):
    """ln(sum(exp(a))) along `axis`, shifted by the maximum; -inf entries and
    all-(-inf) slices behave as in scipy.special.logsumexp."""
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    shifted = a - top
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis, keepdims=True)) + top
    return np.squeeze(out, axis=axis)[()]


def max_mixable_eta(lower: float, upper: float) -> float:
    """Largest learning rate at which the square-loss game on [lower, upper]
    admits the aggregation constant C = 1."""
    if not np.isfinite(lower) or not np.isfinite(upper) or lower >= upper:
        raise ValueError(f"need finite lower < upper, got [{lower}, {upper}]")
    return 2.0 / (upper - lower) ** 2


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
        if not np.isfinite(self.lower) or not np.isfinite(self.upper):
            raise ValueError("interval bounds must be finite")
        if self.lower >= self.upper:
            raise ValueError(
                f"degenerate interval [{self.lower}, {self.upper}]: need lower < upper"
            )
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

    def contains(self, values) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

    def loss(self, gamma, omega):
        """Square loss (gamma - omega)^2; both arguments must lie in [lower, upper]."""
        g = np.asarray(gamma, dtype=float)
        o = np.asarray(omega, dtype=float)
        if not self.contains(g):
            raise ValueError(f"prediction outside [{self.lower}, {self.upper}]")
        if not self.contains(o):
            raise ValueError(f"outcome outside [{self.lower}, {self.upper}]")
        out = (g - o) ** 2
        return float(out) if out.ndim == 0 else out


def _as_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d probability vector")
    if np.any(np.isnan(w)) or np.any(w < 0):
        raise ValueError("weights must be non-negative and free of NaN")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within {WEIGHT_TOL}")
    return w


def _as_expert_preds(expert_preds, game: GameSpec, num_experts: int) -> np.ndarray:
    p = np.asarray(expert_preds, dtype=float)
    if p.shape[0] != num_experts:
        raise ValueError(
            f"expected {num_experts} expert predictions, got shape {p.shape}"
        )
    if not game.contains(p):
        raise ValueError(
            f"expert prediction outside [{game.lower}, {game.upper}]"
        )
    return p


def _mixed_loss(log_w, preds, omega, game: GameSpec):
    """The mixed loss profile of the experts' predictions `preds` (one row
    per expert) under the log-weights `log_w`, at the outcomes `omega`:

        g(omega) = -(C/eta) * ln sum_n p^n * exp(-eta * (gamma^n - omega)^2)

    reduced over the rows; the arguments broadcast.  The exponent is written
    so that numpy builds it in one temporary."""
    return -(game.c / game.eta) * _logsumexp(
        (preds - omega) ** 2 * (-game.eta) + log_w, axis=0
    )


def generalized_prediction(weights, expert_preds, game: GameSpec, omega):
    """Evaluate the mixed loss profile g at `omega` (scalar or array)."""
    w = _as_weights(weights)
    p = _as_expert_preds(expert_preds, game, w.size)
    o = np.asarray(omega, dtype=float)
    if not game.contains(o):
        raise ValueError(f"outcome outside [{game.lower}, {game.upper}]")
    with np.errstate(divide="ignore"):
        log_w = np.log(w)[:, None]
    g = _mixed_loss(log_w, p[:, None], np.atleast_1d(o), game)
    return float(g[0]) if o.ndim == 0 else g


def substitute_pack(weights, expert_pred_matrix, game: GameSpec) -> np.ndarray:
    """Predictions solving the aggregation inequality for each column of an
    N x K matrix of expert predictions, all under the same weights.

    Closed form for the square loss: the prediction equalizes the slack of the
    inequality at the two interval endpoints,

        gamma = (A+B)/2 + (g(A) - g(B)) / (2 * (B-A)),

    clipped to [A, B].  A single expert is reproduced exactly.
    """
    w = _as_weights(weights)
    preds = np.asarray(expert_pred_matrix, dtype=float)
    if preds.ndim != 2 or preds.shape[0] != w.size or preds.shape[1] < 1:
        raise ValueError(
            f"expert prediction matrix must be {w.size} x K with K >= 1, "
            f"got shape {preds.shape}"
        )
    if not game.contains(preds):
        raise ValueError(f"expert prediction outside [{game.lower}, {game.upper}]")
    with np.errstate(divide="ignore"):
        log_w = np.log(w)[:, None]
    return _substitute(log_w, preds, game)


def _substitute(log_w, preds, game: GameSpec) -> np.ndarray:
    """The closed form of `substitute_pack`, unchecked, with column k of
    `preds` mixed under the log-weights log_w[:, k].  Only differences within
    a column matter, so they need not be normalized."""
    a, b = game.lower, game.upper
    if preds.shape[0] == 1:
        # Mixing a single expert can only reproduce it; skip the closed form
        # to avoid pointless cancellation noise.
        return np.clip(preds[0], a, b)
    g_a = _mixed_loss(log_w, preds, a, game)
    g_b = _mixed_loss(log_w, preds, b, game)
    gamma = 0.5 * (a + b) + (g_a - g_b) / (2.0 * (b - a))
    return np.clip(gamma, a, b)


def substitute(weights, expert_preds, game: GameSpec) -> float:
    """Single prediction solving the aggregation inequality for one round of
    expert predictions."""
    p = np.asarray(expert_preds, dtype=float)
    if p.ndim != 1:
        raise ValueError("expert predictions must be a 1-d vector")
    return float(substitute_pack(weights, p[:, None], game)[0])


def check_substitution_validity(gamma: float, weights, expert_preds, game: GameSpec,
                                grid_size: int = 1001) -> float:
    """Worst slack of the aggregation inequality over a uniform outcome grid.

    Returns max over the grid of (gamma - omega)^2 - g(omega); a valid
    substitution keeps this at or below numerical noise (<= 1e-12).
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    if not game.contains(gamma):
        raise ValueError(f"prediction outside [{game.lower}, {game.upper}]")
    grid = np.linspace(game.lower, game.upper, grid_size)
    g = generalized_prediction(weights, expert_preds, game, grid)
    return float(np.max((gamma - grid) ** 2 - g))
