"""Data loading, synthetic streams, experiment driver, report emission.

The on-disk format for pack data is a flat CSV: one row per item, a timestamp
column whose calendar month defines the pack, a target column, and one column
per expert.  Months are played in chronological order; within a month, rows
keep file order unless an explicit order column says otherwise.

Cells mean what `csv.DictReader` and `float()` make of them.  The loader
reads the numeric columns in one `np.loadtxt` pass and the timestamps in
another, and checks each distinct timestamp once.  A file that read cannot
vouch for (say, a cell `np.loadtxt` refuses, a non-finite value, a bad month,
no rows, a record over several lines) is read again by the per-cell reader,
which either returns the same values or raises naming the CSV line of the
first bad cell.  Both readers feed the same grouping code.

An experiment runs one stream through any subset of the algorithms named in
`bounds._TABLE`, audits each run against its guarantees, and serializes
everything (records, audit verdicts, shuffle spread) to JSON that
round-trips losslessly: a reader re-runs the audit from the stored records.
The JSON report is `json.dumps` of one object, except each run's records:
`RunRecords.to_json` writes those from the columns, and the expert columns
a stream's runs share are written once per report.  The text is the same as
`json.dumps` of the whole object with the records as per-trial dicts.  A
reader refuses a file that contradicts itself or holds an impossible
record: a negative loss, or a prediction outside the game's interval.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from .aggregator import _as_prior, uniform_prior
from .algorithms import (
    PackStream,
    RunRecords,
    _check_stored,
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

SCHEMA_VERSION = 2

# Algorithm names accepted by run_experiment / the command line.
ALGORITHM_CHOICES = tuple(bd._TABLE)


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
    s = raw.strip()
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


def _lines(fh, lengths: list):
    """Yield the lines of `fh`, appending each non-blank one's length to
    `lengths`.  Raise ValueError at a line holding one of U+001C..U+001F:
    `np.loadtxt` strips them from a number as whitespace, `float()` does
    not."""
    for line in fh:
        if ("\x1c" in line or "\x1d" in line or "\x1e" in line
                or "\x1f" in line):
            raise ValueError("information separator in a line")
        if line.rstrip("\r\n"):
            lengths.append(len(line))
        yield line


def _after_header(fh):
    """`fh`, rewound to just after its header row."""
    fh.seek(0)
    next(csv.reader(fh))
    return fh


def _read_columns(fh, header: list, columns: list):
    """The bulk reader: whole columns through `np.loadtxt`.  Returns the
    month rank of each row (0 = earliest) and the row's values of
    `columns[1:]`.

    It raises ValueError, or a warning turned into an error, on any file it
    cannot vouch for: a cell `np.loadtxt` cannot read, a non-finite value, a
    bad month, no data rows, or a record that spans lines or outgrows
    `csv.field_size_limit()`.  It names no line; `_read_cells` does."""
    # As in csv.DictReader, a repeated name stands for its last column.
    index = {name: i for i, name in enumerate(header)}
    fields = dict(delimiter=",", quotechar='"', comments=None)
    lengths = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        values = np.loadtxt(_lines(_after_header(fh), lengths),
                            usecols=[index[c] for c in columns[1:]], ndmin=2,
                            **fields)
        stamps = np.loadtxt(_after_header(fh), dtype=object,
                            usecols=index[columns[0]], ndmin=1,
                            **fields).tolist()
    # One line per record keeps every field within one line, so no field is
    # longer than the csv module would read.
    if (len(lengths) != len(values)
            or max(lengths, default=0) > csv.field_size_limit()):
        raise ValueError("a record spans lines or is too long")
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    # Each distinct stamp is checked once; a bad one raises here, and the
    # per-cell reader then names its line.  ISO months sort chronologically.
    keys = {s: _month_key(s, None, columns[0]) for s in set(stamps)}
    rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    month = {s: rank[k] for s, k in keys.items()}
    return np.fromiter(map(month.__getitem__, stamps), np.intp,
                       len(stamps)), values


def _read_cells(fh, columns: list):
    """The per-cell reader: returns what `_read_columns` does, parsing each
    cell as `csv.DictReader` and `float()` do, or raises at the first bad
    cell, naming its CSV line."""
    reader = csv.DictReader(fh)
    stamp, numeric = columns[0], columns[1:]
    keys, rows = [], []
    for row in reader:
        ln = reader.line_num
        if None in map(row.get, columns):  # a short row
            missing = next(c for c in columns if row[c] is None)
            raise ValueError(f"line {ln}: no cell for column {missing!r}")
        keys.append(_month_key(row[stamp], ln, stamp))
        rows.append([_parse_float(row[c], ln, c) for c in numeric])
    values = np.array(rows, dtype=float).reshape(len(rows), len(numeric))
    return np.unique(keys, return_inverse=True)[1], values


def load_pack_csv(spec: DatasetSpec):
    """Read a pack CSV into (PackStream, GameSpec) per the dataset spec."""
    columns = [spec.timestamp_col, spec.target_col, *spec.expert_cols]
    if spec.order_col is not None:
        columns.append(spec.order_col)
    with open(spec.path, newline="") as fh:
        if not fh.seekable():  # a pipe: each reader starts from the top
            fh = io.StringIO(fh.read(), newline="")
        header = next(csv.reader(fh), [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{spec.path}: missing columns {missing}")
        try:
            month, values = _read_columns(fh, header, columns)
        except (ValueError, Warning):
            fh.seek(0)
            month, values = _read_cells(fh, columns)
    if not len(values):
        raise ValueError(f"{spec.path}: no data rows")

    # A stable sort keeps file order on ties.
    if spec.order_col is not None:
        rows = np.lexsort((values[:, -1], month))
    else:
        rows = np.argsort(month, kind="stable")
    values = values[rows, :1 + len(spec.expert_cols)]
    sizes = np.bincount(month)

    if spec.calibration_packs is not None:
        if spec.calibration_packs >= len(sizes):
            raise ValueError(
                f"calibration_packs={spec.calibration_packs} leaves no packs "
                f"to evaluate (file has {len(sizes)} months)"
            )
        head = values[:sizes[:spec.calibration_packs].sum()]
        lower, upper = float(head.min()), float(head.max())
        if lower >= upper:
            raise ValueError(
                f"calibration packs are constant at {lower}; cannot form an interval"
            )
    else:
        lower, upper = float(spec.clip_lower), float(spec.clip_upper)

    eta = spec.eta if spec.eta is not None else max_mixable_eta(lower, upper)
    game = GameSpec(lower, upper, float(eta), float(spec.c))
    values = np.clip(values, lower, upper)
    return PackStream._from_columns(values[:, 1:].T, values[:, 0], sizes), game


def write_pack_csv(stream: PackStream, path: str) -> None:
    """Write a stream in the flat CSV format `load_pack_csv` reads: trial t
    becomes month 2000-01 + t, experts become columns e1..eN."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = stream.num_experts
        trial = np.repeat(np.arange(len(stream)), stream.sizes).tolist()
        values = np.column_stack([stream.outcomes, stream.expert_preds.T]).tolist()
        writer.writerow(["month", "target"] + [f"e{i + 1}" for i in range(n)])
        writer.writerows([f"{2000 + t // 12:04d}-{t % 12 + 1:02d}", *map(repr, row)]
                         for t, row in zip(trial, values))


def rescale_stream(stream: PackStream, lower: float, upper: float) -> PackStream:
    """Affinely map a stream living on [0, 1] onto [lower, upper]."""
    if lower >= upper:
        raise ValueError(f"degenerate interval [{lower}, {upper}]")
    span = upper - lower
    return PackStream._from_columns(lower + span * stream.expert_preds,
                                    lower + span * stream.outcomes, stream.sizes)


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
    """Deterministic synthetic (PackStream, GameSpec) on [0, 1] from a seed.

    The seed contract: for each pack in turn the generator draws its size
    `integers(pack_size_min, pack_size_max + 1)`, then the experts' noise
    `normal(size=(N, k))`, then the outcomes' noise `normal(size=k)`, in
    that order.  Reordering these draws changes every seeded stream.  The
    rest is elementwise over all items at once, and writes the columns."""
    rng = np.random.default_rng(config.seed)
    game = GameSpec.for_interval(0.0, 1.0)
    n = config.num_experts
    sizes, expert_noise, outcome_noise = [], [np.empty((n, 0))], [np.empty(0)]
    for _ in range(config.num_trials):
        k = int(rng.integers(config.pack_size_min, config.pack_size_max + 1))
        sizes.append(k)
        expert_noise.append(rng.normal(size=(n, k)))
        outcome_noise.append(rng.normal(size=k))
    idx = np.arange(sum(sizes))
    latent = 0.5 + 0.35 * np.sin(2 * np.pi * idx / 97.0)
    if config.drift_period > 0:
        sharp = (idx // config.drift_period) % n
    else:
        sharp = np.zeros(idx.size, dtype=int)
    sigma = np.where(np.arange(n)[:, None] == sharp[None, :],
                     config.noise, 4.0 * config.noise)
    preds = latent[None, :] + np.hstack(expert_noise) * sigma
    outcomes = latent + np.concatenate(outcome_noise) * config.noise
    return PackStream._from_columns(np.clip(preds, 0.0, 1.0),
                                    np.clip(outcomes, 0.0, 1.0), sizes), game


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

    @classmethod
    def from_dict(cls, d: dict, game: GameSpec, prior: np.ndarray,
                  pack_sizes: tuple) -> "AlgorithmResult":
        """A run's object in the JSON report, read back, for a run on packs
        of `pack_sizes`.  Raise unless the file agrees with itself: the
        params are those a run of `name` declares, there is one record per
        pack with one loss per expert, no loss is negative, every prediction
        lies in the game's interval, the totals are the records' last
        running totals, and each stored report is the one re-auditing the
        records gives, up to its verdict.  The verdicts (`passed`,
        `min_slack`) stay advisory: the returned reports are the
        re-audit's."""
        name = str(d["name"])
        if name not in bd._TABLE:
            raise ValueError(f"unknown algorithm {name!r}")
        params = dict(d["params"])
        if "pack_size" in params:
            params["pack_size"] = int(
                _json_column("pack_size", [params["pack_size"]], int)[0])
        if params != _declared(name, pack_sizes):
            raise ValueError(f"{name}: params {params} do not match pack_sizes")
        records = RunRecords.from_dict(d["records"])
        if not (np.array_equal(records.pack_size, pack_sizes)
                and records.expert_pack_losses.size
                == len(pack_sizes) * prior.size):
            raise ValueError(f"{name}: records do not match pack_sizes and prior")
        # Square losses are never negative, and every prediction is clipped
        # to the game's interval.
        for field in ("learner_pack_loss", "expert_pack_losses"):
            if not (getattr(records, field) >= 0).all():
                raise ValueError(f"{name}: {field} must not be negative")
        if not game.contains(records.learner_preds):
            raise ValueError(f"{name}: learner_preds must lie in "
                             f"[{game.lower}, {game.upper}]")
        stored = d["reports"]
        every_prefix = bool(stored) and stored[0]["every_prefix"] is True
        reports = _audit(name, records, game, prior, params, every_prefix)
        if len(stored) != len(reports) or not all(
                _same_audit(s, r) for s, r in zip(stored, reports)):
            raise ValueError(f"{name}: reports do not match its guarantees")
        result = cls(name, params, records, reports)
        _check_stored(f"{name}: ", d, result, ["total_loss", "total_average_loss"],
                      "the last running totals of its records")
        return result


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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentResult":
        """The JSON report's object (`emit_report`), read back; each run is
        read by `AlgorithmResult.from_dict`."""
        version = d.get("schema_version") if isinstance(d, dict) else None
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}; re-run to write "
                f"version {SCHEMA_VERSION}")
        g = d["game"]
        game = _json_column("game", [g["lower"], g["upper"], g["eta"], g["c"]])
        game = GameSpec(*game.tolist())
        prior = _as_prior(_json_column("prior", d["prior"]))
        pack_sizes = tuple(_json_column("pack_sizes", d["pack_sizes"], int).tolist())
        if not pack_sizes and d["algorithms"]:
            # As run_experiment refuses to run on an empty stream.
            raise ValueError("algorithm runs on no packs")
        algorithms = tuple(AlgorithmResult.from_dict(a, game, prior, pack_sizes)
                           for a in d["algorithms"])
        shuffle = d["shuffle"]
        if shuffle is not None and type(shuffle) is not dict:
            raise ValueError("shuffle must be an object or null")
        result = cls(
            game=game,
            prior=tuple(prior.tolist()),
            pack_sizes=pack_sizes,
            algorithms=algorithms,
            shuffle=None if shuffle is None else ShuffleSummary.from_dict(shuffle),
        )
        _check_stored("", d, result, ["num_experts", "num_trials", "num_items"],
                      "prior and pack_sizes")
        if type(d["passed"]) is not bool:  # advisory, like each report's
            raise ValueError("passed must be a JSON bool")
        return result


def _declared(name: str, pack_sizes: tuple) -> dict:
    """The params of algorithm `name` on these packs: the pack size it
    declares, if it declares one."""
    declare = bd._TABLE[name].declare
    return {} if declare is None else {"pack_size": declare(pack_sizes)}


def _audit(name: str, records: RunRecords, game: GameSpec, prior,
           params: dict, every_prefix: bool) -> tuple:
    """The reports of a run of `name` with these params, one per guarantee."""
    return tuple(
        audit_run(records, g.name, game, prior,
                  declared_pack_size=params.get("pack_size"),
                  every_prefix=every_prefix)
        for g in bd._TABLE[name].guarantees
    )


def _same_audit(stored: dict, report: BoundReport) -> bool:
    """Whether a stored report is `report` up to its verdict: the same keys,
    and the same JSON for every value but `passed` (a JSON bool) and
    `min_slack`."""
    fresh = {**report.to_dict(), "passed": stored["passed"],
             "min_slack": stored["min_slack"]}
    return (type(stored["passed"]) is bool
            and json.dumps(stored, sort_keys=True)
            == json.dumps(fresh, sort_keys=True))


def _expand_algorithms(names, stream: PackStream) -> list:
    """The names `names` selects: "all" is every algorithm that may take
    all of the stream's packs; otherwise each name must be known, and
    given once."""
    if names == "all" or names == ["all"] or names == ("all",):
        return [n for n in ALGORITHM_CHOICES if bd._TABLE[n].fits(
            stream.sizes, _declared(n, stream.pack_sizes).get("pack_size")).all()]
    names = [names] if isinstance(names, str) else list(names)
    if not names or len(set(names)) < len(names):
        raise ValueError(f"select at least one algorithm, each once; got {names}")
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
    # The public run_<name>, looked up when called so that a wrapper put on
    # that name (by a profiler) sees the call; params hold its size, if any.
    run = globals()["run_" + name.replace("-", "_")]
    records = run(stream, *params.values(), game, prior)
    return AlgorithmResult(name, params, records,
                           _audit(name, records, game, prior, params,
                                  every_prefix))


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


# Stands in for each algorithm's records in `_report_object`; the JSON
# report holds the records' own text (`RunRecords.to_json`) in its place.
_RECORDS = "\0records"


def _report_object(result: ExperimentResult) -> dict:
    """The JSON report's object, with `_RECORDS` for each run's records."""
    return {
        "schema_version": SCHEMA_VERSION,
        "game": {
            "lower": float(result.game.lower),
            "upper": float(result.game.upper),
            "eta": float(result.game.eta),
            "c": float(result.game.c),
        },
        "prior": list(result.prior),
        "pack_sizes": list(result.pack_sizes),
        "num_experts": result.num_experts,
        "num_trials": result.num_trials,
        "num_items": result.num_items,
        "passed": result.passed,
        "algorithms": [{
            "name": a.name,
            "params": dict(a.params),
            "total_loss": a.total_loss,
            "total_average_loss": a.total_average_loss,
            "records": _RECORDS,
            "reports": [r.to_dict() for r in a.reports],
        } for a in result.algorithms],
        "shuffle": result.shuffle.to_dict() if result.shuffle else None,
    }


def emit_report(result: ExperimentResult, format: str = "json") -> str:
    """Serialize a result: full-fidelity `json`, per-trial cumulative-loss
    `csv`, or a human-oriented `table` of totals and guarantee slacks.

    The `json` text is `json.dumps(..., sort_keys=True, separators=(",",
    ":"))` of the report's object, with each run's records written from
    its columns as `RunRecords.to_json` writes them; the runs share one
    memo, so the expert columns of a stream are written once, and the
    whole text is joined once."""
    if format == "json":
        texts = json.dumps(_report_object(result), sort_keys=True,
                           separators=(",", ":")).split(json.dumps(_RECORDS))
        if len(texts) != len(result.algorithms) + 1:
            raise ValueError(f"a value of the report holds {_RECORDS!r}")
        memo, parts = {}, texts[:1]
        for a, text in zip(result.algorithms, texts[1:]):
            parts += a.records._json_parts(memo)
            parts.append(text)
        return "".join(parts)
    if format == "csv":
        buf = io.StringIO()
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
                  f"{'min slack':>12} {'bound':>7}  tightest at")
        lines.append(header)
        lines.append("-" * len(header))
        for a in result.algorithms:
            tight = min((r for r in a.reports if r.min_slack is not None),
                        key=lambda r: r.min_slack, default=None)
            min_slack = float("nan") if tight is None else tight.min_slack
            status = "ok" if a.passed else "FAIL"
            lines.append(
                f"{a.name:<18} {a.total_loss:>14.6f} {a.total_average_loss:>14.6f} "
                f"{min_slack:>12.4e} {status:>7}  {_where(tight)}"
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


def _where(report: BoundReport | None) -> str:
    """The expert (0-based) and prefix of a report's minimum slack."""
    if report is None or report.binding is None:
        return "-"
    expert, prefix = report.binding
    return f"expert {expert}, prefix {prefix}"


def result_from_json(text: str) -> ExperimentResult:
    """Inverse of emit_report(..., 'json')."""
    return ExperimentResult.from_dict(json.loads(text))
