"""Closed-form loss guarantees and run auditing.

Every protocol in this package carries a guarantee of the shape

    learner_total <= mult * C * expert_total + (C * D / eta) * ln(1 / p_n)

for each expert n with prior weight p_n.  What varies is the divisor D, the
multiplier `mult`, and whether the "total" is a plain sum of losses or a sum
of per-pack average losses:

  algorithm              metric    D                        mult
  -------------------    -------   ----------------------   ----------------
  aa                     total     1                        1
  aap-equal              total     K (the common size)      1
  aap-max                total     K (declared max size)    1
  aap-incremental        total     max size seen so far     1
  aap-current-average    average   1                        1
  aap-current-plain      total     max size seen so far     max/min size seen
  parallel               total     pool size (= max size)   1

`audit_run` reads a finished run's cumulative-loss columns (`RunRecords`)
and checks the matching guarantee for every expert, either at the end or at
every prefix, and reports the slack bound - learner_total.  Anything below
-1e-9 is a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

import numpy as np

from .algorithms import _json_column
from .games import _as_weights

# A guarantee holds if bound - loss >= -SLACK_TOL (room for float accumulation).
SLACK_TOL = 1e-9

AA = "aa"
AAP_EQUAL = "aap-equal"
AAP_MAX = "aap-max"
AAP_INCREMENTAL = "aap-incremental"
AAP_CURRENT_AVERAGE = "aap-current-average"
AAP_CURRENT_PLAIN = "aap-current-plain"
PARALLEL = "parallel"


@dataclass(frozen=True)
class _Guarantee:
    """One row of the table above.

    `sizes` names the pack sizes the row depends on, as they appear in a
    report's params and as `theoretical_bound` keywords.  `divisor` and
    `mult` map those sizes to D and mult; in an audit the running sizes are
    arrays over prefixes.
    """

    metric: str  # "total" or "average"
    sizes: tuple
    divisor: Callable
    mult: Callable = lambda s: 1


_GUARANTEES = {
    AA: _Guarantee("total", (), lambda s: 1),
    AAP_EQUAL: _Guarantee("total", ("pack_size",), lambda s: s["pack_size"]),
    AAP_MAX: _Guarantee("total", ("pack_size",), lambda s: s["pack_size"]),
    AAP_INCREMENTAL: _Guarantee("total", ("max_pack",),
                                lambda s: s["max_pack"]),
    AAP_CURRENT_AVERAGE: _Guarantee("average", (), lambda s: 1),
    AAP_CURRENT_PLAIN: _Guarantee("total", ("max_pack", "min_pack"),
                                  lambda s: s["max_pack"],
                                  lambda s: s["max_pack"] / s["min_pack"]),
    PARALLEL: _Guarantee("total", ("max_delay",), lambda s: s["max_delay"]),
}

ALGORITHMS = tuple(_GUARANTEES)


def _guarantee(algorithm: str) -> _Guarantee:
    try:
        return _GUARANTEES[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None


def _sizes(declared, running_max, running_min) -> dict:
    """The named sizes of a run; the parallel pool size `max_delay` is the
    largest pack seen so far."""
    return {"pack_size": declared, "max_pack": running_max,
            "min_pack": running_min, "max_delay": running_max}


def _bound(g: _Guarantee, expert_loss, prior, sizes: dict, c: float,
           eta: float):
    """mult * c * expert_loss + (c * D / eta) * ln(1 / prior), broadcast."""
    log_terms = np.log(1.0 / prior)
    return (g.mult(sizes) * c * expert_loss
            + (c * g.divisor(sizes) / eta) * log_terms)


def theoretical_bound(algorithm: str, expert_loss, *, c: float, eta: float,
                      prior_weight: float, pack_size: int | None = None,
                      max_pack: int | None = None, min_pack: int | None = None,
                      max_delay: int | None = None):
    """Guaranteed learner total against one expert.  `expert_loss` is that
    expert's total (or average-loss total, for aap-current-average).

    Accepts scalars or arrays for `expert_loss` and broadcasts.
    """
    if not 0 < prior_weight <= 1:
        raise ValueError(f"prior weight must be in (0, 1], got {prior_weight}")
    g = _guarantee(algorithm)
    sizes = {"pack_size": pack_size, "max_pack": max_pack,
             "min_pack": min_pack, "max_delay": max_delay}
    for name in g.sizes:
        if sizes[name] is None or sizes[name] < 1:
            raise ValueError(f"{algorithm} bound needs {name} >= 1")
    out = _bound(g, np.asarray(expert_loss, dtype=float), prior_weight, sizes,
                 c, eta)
    return float(out) if out.ndim == 0 else out


# One row per (prefix, expert) check, with the type of each JSON value; a
# report's entries are these rows as a structured array.
_ENTRY_FIELDS = (
    ("expert_index", int),
    ("learner_loss", float),
    ("expert_loss", float),
    ("bound", float),
    ("slack", float),
    ("prefix", int),  # number of trials included
)
_ENTRY_DTYPE = np.dtype(list(_ENTRY_FIELDS))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All guarantee checks for one algorithm on one run.  `entries` is a
    structured array with one row per (prefix, expert) check, prefix-major,
    and the fields expert_index, learner_loss, expert_loss, bound, slack and
    prefix (the number of trials included)."""

    algorithm: str
    metric: str  # "total" or "average"
    params: dict
    entries: np.ndarray

    @property
    def min_slack(self) -> float | None:
        if len(self.entries) == 0:
            return None
        return float(self.entries["slack"].min())

    @property
    def passed(self) -> bool:
        ms = self.min_slack
        return ms is None or ms >= -SLACK_TOL

    @property
    def violations(self) -> np.ndarray:
        return self.entries[self.entries["slack"] < -SLACK_TOL]

    def __eq__(self, other):
        if not isinstance(other, BoundReport):
            return NotImplemented
        return ((self.algorithm, self.metric, self.params)
                == (other.algorithm, other.metric, other.params)
                and np.array_equal(self.entries, other.entries))

    def to_dict(self) -> dict:
        names = _ENTRY_DTYPE.names
        return {
            "algorithm": self.algorithm,
            "metric": self.metric,
            "params": dict(self.params),
            "passed": self.passed,
            "min_slack": self.min_slack,
            "entries": [dict(zip(names, row)) for row in self.entries.tolist()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoundReport":
        rows = d["entries"]
        entries = np.empty(len(rows), dtype=_ENTRY_DTYPE)
        for name, dtype in _ENTRY_FIELDS:
            entries[name] = _json_column(name, map(itemgetter(name), rows), dtype)
        params = dict(d["params"])
        for name, value in params.items():
            # The rate and constant are numbers, the named sizes integers.
            _json_column(f"params.{name}", [value],
                         float if name in ("c", "eta") else int)
        return cls(
            algorithm=str(d["algorithm"]),
            metric=str(d["metric"]),
            params=params,
            entries=entries,
        )


def audit_run(records, algorithm: str, game, prior, *,
              declared_pack_size: int | None = None,
              every_prefix: bool = False) -> BoundReport:
    """Check a run's records against the guarantee for `algorithm`.

    `declared_pack_size` is required for aap-equal and aap-max (the size the
    run was configured with).  With `every_prefix` the guarantee is checked
    after every trial, not just the last; prefix-dependent divisors (running
    max size, pool size, max/min ratio) use their value as of that prefix.
    """
    g = _guarantee(algorithm)
    prior = _as_weights(prior)
    params = {"c": game.c, "eta": game.eta}
    if len(records) == 0:
        return BoundReport(algorithm, g.metric, params,
                           np.empty(0, dtype=_ENTRY_DTYPE))

    sizes = records.pack_size
    num_trials, num_experts = records.expert_cumulative_losses.shape
    if prior.size != num_experts:
        raise ValueError(
            f"prior has {prior.size} entries for {num_experts} experts"
        )

    if algorithm == AA and np.any(sizes != 1):
        raise ValueError("aa guarantee applies to single-item trials only")
    if algorithm == AAP_EQUAL:
        if declared_pack_size is None:
            raise ValueError("aap-equal audit needs declared_pack_size")
        if np.any(sizes != declared_pack_size):
            raise ValueError(
                f"aap-equal audit declared size {declared_pack_size} but "
                f"saw sizes {sorted(set(sizes.tolist()))}"
            )
    if algorithm == AAP_MAX:
        if declared_pack_size is None:
            raise ValueError("aap-max audit needs declared_pack_size")
        if np.any(sizes > declared_pack_size):
            raise ValueError(
                f"aap-max audit declared max size {declared_pack_size} but "
                f"saw a pack of size {int(sizes.max())}"
            )

    running_max = np.maximum.accumulate(sizes)
    running_min = np.minimum.accumulate(sizes)
    prefixes = np.arange(1, num_trials + 1) if every_prefix \
        else np.array([num_trials])
    idx = prefixes - 1

    if g.metric == "average":
        learner = records.cumulative_average_loss[idx, None]
        expert = records.expert_cumulative_average_losses[idx, :]
    else:
        learner = records.cumulative_loss[idx, None]
        expert = records.expert_cumulative_losses[idx, :]

    final = _sizes(declared_pack_size, int(running_max[-1]),
                   int(running_min[-1]))
    params.update((name, final[name]) for name in g.sizes)
    bounds = _bound(g, expert, prior,
                    _sizes(declared_pack_size, running_max[idx, None],
                           running_min[idx, None]),
                    game.c, game.eta)

    entries = np.empty(bounds.size, dtype=_ENTRY_DTYPE)
    entries["expert_index"] = np.tile(np.arange(num_experts), idx.size)
    entries["learner_loss"] = np.repeat(learner[:, 0], num_experts)
    entries["expert_loss"] = expert.ravel()
    entries["bound"] = bounds.ravel()
    entries["slack"] = (bounds - learner).ravel()
    entries["prefix"] = np.repeat(prefixes, num_experts)
    return BoundReport(algorithm, g.metric, params, entries)
