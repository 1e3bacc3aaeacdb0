"""Data loading, synthetic streams, experiment driver, report emission.

The on-disk format for pack data is a flat CSV: one row per item, a timestamp
column whose calendar month defines the pack, a target column, and one column
per expert.  Months are played in chronological order; within a month, rows
keep file order unless an explicit order column says otherwise.

An experiment runs one stream through any subset of the algorithms, audits
each run against its guarantee, and serializes everything (records, bound
checks, shuffle spread) to JSON that round-trips losslessly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from io import StringIO

import numpy as np

from . import bounds as bd
from .aggregator import uniform_prior
from .algorithms import (
    Pack,
    PackStream,
    RunRecords,
    _json_column,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
)
from .bounds import BoundReport, audit_run
from .games import GameSpec, max_mixable_eta
from .parallel import ShuffleSummary, run_parallel, shuffle_experiment

SCHEMA_VERSION = 1

# Algorithm names accepted by run_experiment / the command line, each with
# (runner, guarantees its run is audited against, declared pack size rule).
# A runner takes (stream, declared size or None, game, prior) and looks its
# run_* function up when called, so wrappers installed on those names by a
# profiler still see the calls.  A size rule maps the pack sizes to K.
_ALGORITHM_TABLE = {
    "aa": (lambda s, k, g, p: run_aa(s, g, p), (bd.AA,), None),
    "aap-equal": (lambda s, k, g, p: run_aap_equal(s, k, g, p),
                  (bd.AAP_EQUAL,), lambda sizes: sizes[0]),
    "aap-max": (lambda s, k, g, p: run_aap_max(s, k, g, p),
                (bd.AAP_MAX,), max),
    "aap-incremental": (lambda s, k, g, p: run_aap_incremental(s, g, p),
                        (bd.AAP_INCREMENTAL,), None),
    "aap-current": (lambda s, k, g, p: run_aap_current(s, g, p),
                    (bd.AAP_CURRENT_AVERAGE, bd.AAP_CURRENT_PLAIN), None),
    "parallel": (lambda s, k, g, p: run_parallel(s, g, p),
                 (bd.PARALLEL,), None),
}
ALGORITHM_CHOICES = tuple(_ALGORITHM_TABLE)


@dataclass(frozen=True)
class DatasetSpec:
    """How to read a pack CSV: column roles plus the game interval.

    The interval either is given outright (clip_lower/clip_upper) or is
    calibrated as the min/max of targets and expert predictions over the
    first `calibration_packs` months.  Values outside the interval are
    clipped, never dropped.
    """

    path: str
    timestamp_col: str
    target_col: str
    expert_cols: tuple
    order_col: str | None = None
    clip_lower: float | None = None
    clip_upper: float | None = None
    calibration_packs: int | None = None
    eta: float | None = None
    c: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "expert_cols", tuple(self.expert_cols))
        if not self.expert_cols:
            raise ValueError("need at least one expert column")
        if len(set(self.expert_cols)) != len(self.expert_cols):
            raise ValueError("duplicate expert columns")
        has_clip = self.clip_lower is not None or self.clip_upper is not None
        if has_clip and (self.clip_lower is None or self.clip_upper is None):
            raise ValueError("clip_lower and clip_upper must be given together")
        if has_clip == (self.calibration_packs is not None):
            raise ValueError(
                "give either clip bounds or calibration_packs, not both/neither"
            )
        if has_clip and self.clip_lower >= self.clip_upper:
            raise ValueError(
                f"empty clip interval [{self.clip_lower}, {self.clip_upper}]"
            )
        if self.calibration_packs is not None and self.calibration_packs < 1:
            raise ValueError("calibration_packs must be >= 1")


_MONTH = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")


def _month_key(raw: str, line_num: int, column: str) -> str:
    s = (raw or "").strip()
    if _MONTH.match(s):
        return s[:7]
    raise ValueError(
        f"line {line_num}: cannot parse month from {column}={raw!r} "
        f"(expected YYYY-MM... with month 01-12)"
    )


def _parse_float(raw: str, line_num: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"line {line_num}: bad numeric value {raw!r} in column {column!r}"
        )
    return value


def load_pack_csv(spec: DatasetSpec):
    """Read a pack CSV into (PackStream, GameSpec) per the dataset spec."""
    months = {}
    with open(spec.path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [spec.timestamp_col, spec.target_col, *spec.expert_cols]
        if spec.order_col is not None:
            needed.append(spec.order_col)
        missing = [c for c in needed if c not in header]
        if missing:
            raise ValueError(f"{spec.path}: missing columns {missing}")
        for row in reader:
            ln = reader.line_num
            key = _month_key(row[spec.timestamp_col], ln, spec.timestamp_col)
            target = _parse_float(row[spec.target_col], ln, spec.target_col)
            preds = [_parse_float(row[c], ln, c) for c in spec.expert_cols]
            order = (_parse_float(row[spec.order_col], ln, spec.order_col)
                     if spec.order_col is not None else None)
            months.setdefault(key, []).append((order, target, preds))
    if not months:
        raise ValueError(f"{spec.path}: no data rows")

    packs_raw = []
    for key in sorted(months):  # ISO months sort chronologically
        rows = months[key]
        if spec.order_col is not None:
            rows = sorted(rows, key=lambda r: r[0])  # stable: file order on ties
        targets = np.array([r[1] for r in rows])
        preds = np.array([r[2] for r in rows]).T  # N x K
        packs_raw.append((targets, preds))

    if spec.calibration_packs is not None:
        if spec.calibration_packs >= len(packs_raw):
            raise ValueError(
                f"calibration_packs={spec.calibration_packs} leaves no packs "
                f"to evaluate (file has {len(packs_raw)} months)"
            )
        head = packs_raw[:spec.calibration_packs]
        values = np.concatenate(
            [np.concatenate([t, p.ravel()]) for t, p in head]
        )
        lower, upper = float(values.min()), float(values.max())
        if lower >= upper:
            raise ValueError(
                f"calibration packs are constant at {lower}; cannot form an interval"
            )
    else:
        lower, upper = float(spec.clip_lower), float(spec.clip_upper)

    eta = spec.eta if spec.eta is not None else max_mixable_eta(lower, upper)
    game = GameSpec(lower, upper, float(eta), float(spec.c))
    packs = [
        Pack(np.clip(preds, lower, upper), np.clip(targets, lower, upper))
        for targets, preds in packs_raw
    ]
    return PackStream(tuple(packs)), game


def write_pack_csv(stream: PackStream, path: str) -> None:
    """Write a stream in the flat CSV format `load_pack_csv` reads: trial t
    becomes month 2000-01 + t, experts become columns e1..eN."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = stream.num_experts
        writer.writerow(["month", "target"] + [f"e{i + 1}" for i in range(n)])
        for t, pack in enumerate(stream):
            month = f"{2000 + t // 12:04d}-{t % 12 + 1:02d}"
            for k in range(pack.size):
                writer.writerow(
                    [month, repr(float(pack.outcomes[k]))]
                    + [repr(float(x)) for x in pack.expert_preds[:, k]]
                )


def rescale_stream(stream: PackStream, lower: float, upper: float) -> PackStream:
    """Affinely map a stream living on [0, 1] onto [lower, upper]."""
    if lower >= upper:
        raise ValueError(f"degenerate interval [{lower}, {upper}]")
    span = upper - lower
    packs = tuple(
        Pack(lower + span * p.expert_preds, lower + span * p.outcomes)
        for p in stream
    )
    return PackStream(packs)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic pack generator.

    Experts track a smooth latent signal on [0, 1] with individual noise; one
    expert at a time is "sharp" (low noise), and with drift_period > 0 the
    sharp role rotates to the next expert every drift_period items, so no
    single expert stays best forever.
    """

    num_experts: int
    num_trials: int
    pack_size_min: int = 1
    pack_size_max: int = 7
    drift_period: int = 0
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_experts < 1:
            raise ValueError("need at least one expert")
        if self.num_trials < 0:
            raise ValueError("num_trials must be >= 0")
        if not 1 <= self.pack_size_min <= self.pack_size_max:
            raise ValueError(
                f"need 1 <= pack_size_min <= pack_size_max, got "
                f"[{self.pack_size_min}, {self.pack_size_max}]"
            )
        if self.drift_period < 0:
            raise ValueError("drift_period must be >= 0")
        if not 0 <= self.noise:
            raise ValueError("noise must be >= 0")


def generate_synthetic_stream(config: SyntheticConfig):
    """Deterministic synthetic (PackStream, GameSpec) on [0, 1] from a seed."""
    rng = np.random.default_rng(config.seed)
    game = GameSpec.for_interval(0.0, 1.0)
    packs = []
    item = 0
    for _ in range(config.num_trials):
        k = int(rng.integers(config.pack_size_min, config.pack_size_max + 1))
        idx = item + np.arange(k)
        latent = 0.5 + 0.35 * np.sin(2 * np.pi * idx / 97.0)
        if config.drift_period > 0:
            sharp = (idx // config.drift_period) % config.num_experts
        else:
            sharp = np.zeros(k, dtype=int)
        sigma = np.where(
            np.arange(config.num_experts)[:, None] == sharp[None, :],
            config.noise,
            4.0 * config.noise,
        )
        preds = latent[None, :] + rng.normal(size=(config.num_experts, k)) * sigma
        outcomes = latent + rng.normal(size=k) * config.noise
        packs.append(Pack(np.clip(preds, 0.0, 1.0), np.clip(outcomes, 0.0, 1.0)))
        item += k
    return PackStream(tuple(packs)), game


@dataclass(frozen=True)
class AlgorithmResult:
    """One algorithm's run on one stream: records plus its guarantee checks."""

    name: str
    params: dict
    records: RunRecords
    reports: tuple

    @property
    def total_loss(self) -> float:
        return float(self.records.cumulative_loss[-1:].sum())  # 0 if empty

    @property
    def total_average_loss(self) -> float:
        return float(self.records.cumulative_average_loss[-1:].sum())

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "total_loss": self.total_loss,
            "total_average_loss": self.total_average_loss,
            "records": self.records.to_dict(),
            "reports": [r.to_dict() for r in self.reports],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AlgorithmResult":
        params = dict(d["params"])
        if "pack_size" in params:
            params["pack_size"] = int(
                _json_column("pack_size", [params["pack_size"]], int)[0])
        return cls(
            name=str(d["name"]),
            params=params,
            records=RunRecords.from_dict(d["records"]),
            reports=tuple(BoundReport.from_dict(r) for r in d["reports"]),
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced, JSON round-trippable."""

    game: GameSpec
    prior: tuple
    pack_sizes: tuple
    algorithms: tuple
    shuffle: ShuffleSummary | None = None

    @property
    def num_experts(self) -> int:
        return len(self.prior)

    @property
    def num_trials(self) -> int:
        return len(self.pack_sizes)

    @property
    def num_items(self) -> int:
        return int(sum(self.pack_sizes))

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.algorithms)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "game": {
                "lower": self.game.lower,
                "upper": self.game.upper,
                "eta": self.game.eta,
                "c": self.game.c,
            },
            "prior": list(self.prior),
            "pack_sizes": list(self.pack_sizes),
            "num_experts": self.num_experts,
            "num_trials": self.num_trials,
            "num_items": self.num_items,
            "passed": self.passed,
            "algorithms": [a.to_dict() for a in self.algorithms],
            "shuffle": self.shuffle.to_dict() if self.shuffle else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentResult":
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        g = d["game"]
        game = _json_column("game", [g["lower"], g["upper"], g["eta"], g["c"]])
        game = GameSpec(*game.tolist())
        prior = _json_column("prior", d["prior"])
        pack_sizes = _json_column("pack_sizes", d["pack_sizes"], int)
        counts = _json_column("num_experts, num_trials, num_items",
                              [d["num_experts"], d["num_trials"], d["num_items"]],
                              int)
        if counts.tolist() != [prior.size, pack_sizes.size, pack_sizes.sum()]:
            raise ValueError(
                "num_experts, num_trials or num_items does not match prior "
                "and pack_sizes")
        pack_sizes = tuple(pack_sizes.tolist())
        algorithms = tuple(AlgorithmResult.from_dict(a) for a in d["algorithms"])
        for a in algorithms:
            # One record per pack, of its size, with one loss per expert.
            records = a.records
            if not (np.array_equal(records.pack_size, pack_sizes)
                    and records.expert_pack_losses.size
                    == len(pack_sizes) * prior.size):
                raise ValueError(
                    f"{a.name}: records do not match pack_sizes and prior")
            _check_declarations(a, game, prior, pack_sizes)
        return cls(
            game=game,
            prior=tuple(prior.tolist()),
            pack_sizes=pack_sizes,
            algorithms=algorithms,
            shuffle=(ShuffleSummary.from_dict(d["shuffle"])
                     if d.get("shuffle") else None),
        )


def _declared(name: str, pack_sizes: tuple) -> dict:
    """The params of algorithm `name` on these packs: the pack size it
    declares, if it declares one."""
    declare = _ALGORITHM_TABLE[name][2]
    return {} if declare is None else {"pack_size": declare(pack_sizes)}


def _audit(name: str, records: RunRecords, game: GameSpec, prior, declared,
           every_prefix: bool) -> tuple:
    """The reports of a run of algorithm `name`, one per guarantee."""
    return tuple(
        audit_run(records, g, game, prior, declared_pack_size=declared,
                  every_prefix=every_prefix)
        for g in _ALGORITHM_TABLE[name][1]
    )


def _check_declarations(a: AlgorithmResult, game: GameSpec, prior,
                        pack_sizes: tuple) -> None:
    """Raise unless `a`'s params and its reports' algorithm, metric and
    params are those a run of `a.name` on these packs gives.  The verdicts
    (`passed`, `min_slack`, `entries`) stay advisory: `audit` re-derives
    them."""
    if a.name not in _ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {a.name!r}")
    if a.params != _declared(a.name, pack_sizes):
        raise ValueError(f"{a.name}: params {a.params} do not match pack_sizes")
    fresh = _audit(a.name, a.records, game, prior, a.params.get("pack_size"),
                   every_prefix=False)
    if ([(r.algorithm, r.metric, r.params) for r in a.reports]
            != [(r.algorithm, r.metric, r.params) for r in fresh]):
        raise ValueError(f"{a.name}: reports do not match its guarantees")


def _expand_algorithms(names, stream: PackStream):
    if names == "all" or names == ["all"] or names == ("all",):
        sizes = set(stream.pack_sizes)
        chosen = ["aap-max", "aap-incremental", "aap-current", "parallel"]
        if len(sizes) == 1:
            chosen.insert(0, "aap-equal")
        if sizes == {1}:
            chosen.insert(0, "aa")
        return chosen
    names = [names] if isinstance(names, str) else list(names)
    for n in names:
        if n not in ALGORITHM_CHOICES:
            raise ValueError(
                f"unknown algorithm {n!r}; choose from {ALGORITHM_CHOICES} or 'all'"
            )
    return names


def _run_one(name: str, stream: PackStream, game: GameSpec, prior,
             every_prefix: bool):
    """Run one named algorithm and audit it; returns an AlgorithmResult."""
    params = _declared(name, stream.pack_sizes)
    k = params.get("pack_size")
    records = _ALGORITHM_TABLE[name][0](stream, k, game, prior)
    return AlgorithmResult(name, params, records,
                           _audit(name, records, game, prior, k, every_prefix))


def run_experiment(stream: PackStream, game: GameSpec, algorithms="all",
                   prior=None, shuffles: int = 0, shuffle_seed: int = 0,
                   every_prefix: bool = False) -> ExperimentResult:
    """Run and audit the chosen algorithms on one stream.

    `algorithms` is a name, a list of names, or "all" (which selects every
    algorithm whose preconditions the stream meets).  `shuffles` > 0 adds a
    within-pack shuffle study of the parallel-copies construction.
    """
    if len(stream) == 0:
        raise ValueError("cannot run an experiment on an empty stream")
    if shuffles < 0:
        raise ValueError(f"shuffles must be >= 0, got {shuffles}")
    if prior is None:
        prior = uniform_prior(stream.num_experts)
    prior = np.asarray(prior, dtype=float)
    names = _expand_algorithms(algorithms, stream)
    results = tuple(
        _run_one(name, stream, game, prior, every_prefix) for name in names
    )
    shuffle = None
    if shuffles > 0:
        shuffle = shuffle_experiment(stream, game, prior,
                                     num_shuffles=shuffles, seed=shuffle_seed)
    return ExperimentResult(
        game=game,
        prior=tuple(float(x) for x in prior),
        pack_sizes=stream.pack_sizes,
        algorithms=results,
        shuffle=shuffle,
    )


def emit_report(result: ExperimentResult, format: str = "json") -> str:
    """Serialize a result: full-fidelity `json`, per-trial cumulative-loss
    `csv`, or a human-oriented `table` of totals and guarantee slacks."""
    if format == "json":
        return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    if format == "csv":
        buf = StringIO()
        writer = csv.writer(buf)
        writer.writerow(["trial", "pack_size"] + [a.name for a in result.algorithms])
        columns = [a.records.cumulative_loss.tolist() for a in result.algorithms]
        for t, row in enumerate(zip(result.pack_sizes, *columns)):
            writer.writerow([t, row[0], *map(repr, row[1:])])
        return buf.getvalue()
    if format == "table":
        lines = []
        lines.append(
            f"game: [{result.game.lower:g}, {result.game.upper:g}]  "
            f"eta={result.game.eta:g}  c={result.game.c:g}"
        )
        sizes = (f"{min(result.pack_sizes)}..{max(result.pack_sizes)}"
                 if result.pack_sizes else "-")
        lines.append(
            f"stream: {result.num_trials} packs, {result.num_items} items, "
            f"{result.num_experts} experts, sizes {sizes}"
        )
        header = (f"{'algorithm':<18} {'total loss':>14} {'avg-loss total':>14} "
                  f"{'min slack':>12} {'bound':>7}")
        lines.append(header)
        lines.append("-" * len(header))
        for a in result.algorithms:
            slacks = [r.min_slack for r in a.reports if r.min_slack is not None]
            min_slack = min(slacks) if slacks else float("nan")
            status = "ok" if a.passed else "FAIL"
            lines.append(
                f"{a.name:<18} {a.total_loss:>14.6f} {a.total_average_loss:>14.6f} "
                f"{min_slack:>12.4e} {status:>7}"
            )
        if result.shuffle is not None:
            s = result.shuffle
            lines.append(
                f"parallel shuffle x{s.num_shuffles} (seed {s.seed}): "
                f"min {s.min:.6f}  mean {s.mean:.6f}  max {s.max:.6f}  "
                f"spread {s.max - s.min:.6f}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r} (json, csv, table)")


def result_from_json(text: str) -> ExperimentResult:
    """Inverse of emit_report(..., 'json')."""
    return ExperimentResult.from_dict(json.loads(text))
