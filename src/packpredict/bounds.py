"""The algorithm table, closed-form loss guarantees and run auditing.

`_TABLE` says once what each algorithm name is: its weight schedule, the
pack size K it declares ahead, the packs it may take, and the guarantees
its runs are audited against.  aa and the AAP variants differ only in their
`aggregator.DivisorPolicy`; the parallel copies are the one other schedule.
Every guarantee has the shape

    learner_total <= mult * C * expert_total + (C * D / eta) * ln(1 / p_n)

for each expert n with prior weight p_n.  What varies is the divisor D, the
multiplier `mult`, and whether the "total" is a plain sum of losses or a sum
of per-pack average losses:

  guarantee              metric    D                        mult
  -------------------    -------   ----------------------   ----------------
  aa                     total     1                        1
  aap-equal              total     K (the common size)      1
  aap-max                total     K (declared max size)    1
  aap-incremental        total     max size seen so far     1
  aap-current-average    average   1                        1
  aap-current-plain      total     max size seen so far     max/min size seen
  parallel               total     pool size (= max size)   1

Each row of this table is data in `_TABLE`: a `_Guarantee` names the pack
sizes that give its D and mult.  `_row` is the one refusal of a name the
table lacks, an algorithm's or a guarantee's.

`audit_run` reads the running totals of a finished run (`RunRecords`)
and checks the matching guarantee for every expert, either at the end or at
every prefix, and reports the slack bound - learner_total, keeping each
prefix's least (`_checks` gives them all).  Anything below
-1e-9 * (B - A)^2 is a violation: slacks scale with (B - A)^2.  A
`BoundReport`'s JSON form (its verdict and how the audit ran) is stated in
`harness`, with the rest of the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .aggregator import DivisorPolicy, _as_prior

# A guarantee holds if bound - loss >= -SLACK_TOL * (B - A)^2, room for float
# accumulation in the game's units: every loss and slack scales with (B - A)^2.
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
    """One row of the guarantee table above.  `sizes` names the pack sizes
    it depends on, as report params: D is the first (1 if none), and mult
    the first over the second (1 if there is no second); in an audit they
    are arrays over prefixes.  D is not read off the run's schedule, so
    that the audit does not move with the schedule it checks."""

    name: str
    metric: str  # "total" or "average"
    sizes: tuple = ()


@dataclass(frozen=True)
class _Algorithm:
    """One row of `_TABLE`.  `schedule` maps the declared size K (or None)
    to the run's `DivisorPolicy`, or to None for the parallel copies;
    `declare` maps pack sizes to K.  `fits(sizes, K)` says which packs the
    algorithm may take (`requires` says it in words); the run, `audit_run`
    and the `all` selection all check it."""

    schedule: Callable
    guarantees: tuple
    declare: Callable | None = None
    fits: Callable = lambda sizes, k: sizes > 0
    requires: str = ""


_TABLE = {
    "aa": _Algorithm(
        lambda k: DivisorPolicy.fixed(1),
        (_Guarantee(AA, "total"),),
        fits=lambda sizes, k: sizes == 1, requires="single items"),
    "aap-equal": _Algorithm(
        DivisorPolicy.fixed,
        (_Guarantee(AAP_EQUAL, "total", ("pack_size",)),),
        declare=lambda sizes: sizes[0],
        fits=lambda sizes, k: sizes == k, requires="every pack of size {k}"),
    "aap-max": _Algorithm(
        DivisorPolicy.fixed,
        (_Guarantee(AAP_MAX, "total", ("pack_size",)),),
        declare=max,
        fits=lambda sizes, k: sizes <= k, requires="no pack larger than {k}"),
    "aap-incremental": _Algorithm(
        lambda k: DivisorPolicy.running_max(),
        (_Guarantee(AAP_INCREMENTAL, "total", ("max_pack",)),)),
    "aap-current": _Algorithm(
        lambda k: DivisorPolicy.current_pack(),
        (_Guarantee(AAP_CURRENT_AVERAGE, "average"),
         _Guarantee(AAP_CURRENT_PLAIN, "total", ("max_pack", "min_pack")))),
    "parallel": _Algorithm(
        lambda k: None,
        (_Guarantee(PARALLEL, "total", ("max_delay",)),)),
}

# Guarantee name -> (the algorithm that owns it, the guarantee).
_GUARANTEES = {g.name: (name, g)
               for name, row in _TABLE.items() for g in row.guarantees}


def _row(table: dict, name, what: str, path: str = ""):
    """The row of `table` named `name`: the one refusal of an unknown name
    of a `what`, an unhashable value too, after the key path `path` if
    given."""
    try:
        return table[name]
    except (KeyError, TypeError):
        where = f"{path}: " if path else ""
        raise ValueError(f"{where}unknown {what} {name!r}; choose from "
                         f"{', '.join(table)}") from None


def _require_fit(name: str, sizes, declared) -> None:
    """Raise naming the first of the packs `sizes` that `name` may not take."""
    row = _TABLE[name]
    if row.declare is not None and declared is None:
        raise ValueError(f"{name} needs its declared pack size")
    wrong = np.flatnonzero(~row.fits(np.asarray(sizes), declared))
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"trial {i} has size {sizes[i]}; {name} requires "
                         + row.requires.format(k=declared))


def _sizes(declared, running_max, running_min) -> dict:
    """The named sizes of a run; the parallel pool size `max_delay` is the
    largest pack seen so far."""
    return {"pack_size": declared, "max_pack": running_max,
            "min_pack": running_min, "max_delay": running_max}


def _bound(g: _Guarantee, expert_loss, prior, sizes: dict, c: float,
           eta: float):
    """mult * c * expert_loss + (c * D / eta) * ln(1 / prior), broadcast,
    with D and mult read from `sizes` as `_Guarantee` says."""
    log_terms = np.log(1.0 / prior)
    named = [sizes[name] for name in g.sizes]
    divisor = named[0] if named else 1
    mult = named[0] / named[1] if len(named) > 1 else 1
    return mult * c * expert_loss + (c * divisor / eta) * log_terms


# One row per check of a guarantee: a report's entries, as a structured array.
_ENTRY_DTYPE = np.dtype([
    ("expert_index", int),
    ("learner_loss", float),
    ("expert_loss", float),
    ("bound", float),
    ("slack", float),
    ("prefix", int),  # number of trials included
])


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All guarantee checks for one algorithm on one run, kept as one row
    per prefix checked.  `entries` is a structured array of `_ENTRY_DTYPE`,
    at least one row, in prefix order, and the fields expert_index,
    learner_loss, expert_loss, bound, slack and prefix (the number of
    trials included): each row is its prefix's check of least slack, the
    first expert's on a tie.  `checks` counts the checks made, one per
    (prefix, expert); a check passes if its slack is at least -`tolerance`,
    `SLACK_TOL` in the game's units; `every_prefix` says whether every
    prefix was checked or only the whole run."""

    algorithm: str
    metric: str  # "total" or "average"
    params: dict
    entries: np.ndarray
    checks: int
    tolerance: float
    every_prefix: bool = False

    @property
    def min_slack(self) -> float:
        return float(self.entries["slack"].min())

    @property
    def binding(self) -> tuple:
        """(expert_index, prefix) of the check with the minimum slack: on a
        tie, the earliest prefix's, and there the first expert's."""
        row = self.entries[np.argmin(self.entries["slack"])]
        return int(row["expert_index"]), int(row["prefix"])

    @property
    def passed(self) -> bool:
        return self.min_slack >= -self.tolerance

    def __eq__(self, other):
        if not isinstance(other, BoundReport):
            return NotImplemented
        return ((self.algorithm, self.metric, self.params, self.checks,
                 self.tolerance, self.every_prefix)
                == (other.algorithm, other.metric, other.params, other.checks,
                    other.tolerance, other.every_prefix)
                and np.array_equal(self.entries, other.entries))


def _checks(records, algorithm: str, game, prior, declared_pack_size=None,
            every_prefix: bool = False) -> np.ndarray:
    """Every check `audit_run` makes, as a structured array of
    `_ENTRY_DTYPE` with a row per prefix checked and a column per expert;
    `audit_run` keeps each row's least slack.  It refuses what `audit_run`
    refuses."""
    if len(records) == 0:
        raise ValueError("cannot audit a run on no packs")
    owner, g = _row(_GUARANTEES, algorithm, "guarantee")
    sizes = records.pack_size
    num_trials, num_experts = records.expert_pack_losses.shape
    prior = _as_prior(prior, num_experts)
    _require_fit(owner, sizes, declared_pack_size)

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
    bounds = _bound(g, expert, prior,
                    _sizes(declared_pack_size, running_max[idx, None],
                           running_min[idx, None]),
                    game.c, game.eta)

    checks = np.empty(bounds.shape, dtype=_ENTRY_DTYPE)
    checks["expert_index"] = np.arange(num_experts)
    checks["learner_loss"] = learner
    checks["expert_loss"] = expert
    checks["bound"] = bounds
    checks["slack"] = bounds - learner
    checks["prefix"] = prefixes[:, None]
    return checks


def audit_run(records, algorithm: str, game, prior, *,
              declared_pack_size: int | None = None,
              every_prefix: bool = False) -> BoundReport:
    """Check a run's records against the guarantee for `algorithm`.

    `declared_pack_size` is the size K the run declared, which aap-equal
    and aap-max need; the packs must be ones the algorithm owning the
    guarantee may take (see `_TABLE`).  With `every_prefix` the guarantee
    is checked after every trial, not just the last; prefix-dependent
    divisors (running max size, pool size, max/min ratio) use their value
    as of that prefix.  Records of no trials are refused.  The report
    keeps each prefix's check of least slack (see `BoundReport`).
    """
    every_prefix = bool(every_prefix)
    checks = _checks(records, algorithm, game, prior, declared_pack_size,
                     every_prefix)
    # The first expert's on a tie, as `BoundReport.binding` takes the
    # earliest prefix's.
    entries = checks[np.arange(len(checks)), checks["slack"].argmin(axis=1)]
    _, g = _GUARANTEES[algorithm]
    sizes = records.pack_size
    final = _sizes(declared_pack_size, int(sizes.max()), int(sizes.min()))
    params = {"c": float(game.c), "eta": float(game.eta)}
    params.update((name, final[name]) for name in g.sizes)
    return BoundReport(algorithm, g.metric, params, entries, checks.size,
                       SLACK_TOL * game.width ** 2, every_prefix)
