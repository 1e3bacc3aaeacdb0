"""Data loading, synthetic streams, experiment driver, report emission.

The on-disk format for pack data is a flat CSV: one row per item, a timestamp
column whose calendar month defines the pack, a target column, and one column
per expert.  Months are played in chronological order; within a month, rows
keep file order unless an explicit order column says otherwise.

Cells mean what `csv.DictReader` and `float()` make of them.  The loader
reads the rows in one `np.loadtxt` pass (`_read_columns`), with no Python
call per row.  A file that pass cannot vouch for is read again by the
per-cell reader (`_read_cells`), which either returns the same values or
raises naming the CSV line of the first bad cell.  Both readers feed the
same grouping code, which gathers the stream's columns out of the rows.

An experiment runs one stream through any subset of the algorithms named in
`bounds._TABLE`, audits each run against its guarantees, and serializes
everything (records, audit verdicts, shuffle spread) to JSON that
round-trips losslessly: a reader re-runs the audit from the stored records.

This module alone states the JSON report; `algorithms`, `parallel`,
`bounds`, `mixloss` and `cli` hold no JSON code.  The writer is
`_report_object`, dumped with one `json.dumps`, and `_records_parts` for
each run's records: it writes them from the columns, and the columns the
runs share once, from the first run (a result is one stream's runs: see
`ExperimentResult`).  `_float_texts` writes every float column of the
records in one dump, each number as `json.dumps` writes it, and cuts a
list column (a row of a T x N column, or a pack's `learner_preds`) from
that dump into per-trial texts, with no `str` per value; the CSV outputs
write their floats through it too, one text per value.  The text is the
same as `json.dumps` of the whole object with the records as per-trial
dicts.  It is made a run at a time (`_report_texts`), so a writer need
hold only one run's text.
The reader (`_read_parsed`), on stdlib `json` (see `_float_texts` for
why), parses only what the runs produced, rebuilds the result through the
re-audit, and refuses a file that is not, key for key, the writer's object
for that result (apart from the advisory verdicts), or that holds an
impossible record.  `emit_adversary_report` writes the `adversary`
command's report of a mix-loss game from its ledger alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import chain, repeat
from operator import itemgetter

import numpy as np
import orjson

from . import bounds as bd
from .aggregator import _as_prior, uniform_prior
from .algorithms import (
    PackStream,
    RunRecords,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
)
from .bounds import BoundReport, audit_run
from .games import GameSpec, _checked_width
from .mixloss import MixLossRun
from .parallel import ShuffleSummary, run_parallel, shuffle_experiment

SCHEMA_VERSION = 2

# Algorithm names accepted by run_experiment / the command line.
ALGORITHM_CHOICES = tuple(bd._TABLE)


@dataclass(frozen=True)
class DatasetSpec:
    """How to read a pack CSV: column roles plus the game interval.

    The interval either is given outright (clip_lower/clip_upper) or is
    calibrated as the min/max of targets and expert predictions over the
    first `calibration_packs` months, at most the file's, which are then
    evaluated like every other month.  Values outside the interval are
    clipped, never dropped.  The spec holds no rate: see `load_pack_csv`.
    """

    path: str
    timestamp_col: str
    target_col: str
    expert_cols: tuple
    order_col: str | None = None
    clip_lower: float | None = None
    clip_upper: float | None = None
    calibration_packs: int | None = None

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
        if has_clip:
            _checked_width(self.clip_lower, self.clip_upper)
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
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(
            f"line {line_num}: bad numeric value {raw!r} in column {column!r}"
        )
    return value


class _CsvLineError(ValueError, csv.Error):
    """A `csv.Error` (say, a field over `csv.field_size_limit()`) named by
    its CSV line: a ValueError, as the reader's other refusals are."""


@contextmanager
def _csv_line_errors(cells):
    """Raise a `csv.Error` from the `csv.reader` `cells` as a
    `_CsvLineError` naming the line `cells` read last."""
    try:
        yield
    except csv.Error as e:
        raise _CsvLineError(f"line {cells.line_num}: {e}") from None


def _month_codes(stamps: np.ndarray) -> np.ndarray:
    """The month code (year * 12 + month) of each bytes stamp, read as
    `_month_key` reads it: past leading ASCII whitespace, `YYYY-MM` with a
    month of 01-12.  Raises ValueError if any stamp is not of that form."""
    head = np.char.lstrip(stamps).astype("S7").view(np.uint8).reshape(-1, 7)
    # A byte below b"0" wraps round to above 9, so `> 9` finds every
    # non-digit.
    digits = head - np.uint8(ord("0"))
    year = digits[:, :4].astype(np.intp) @ [1000, 100, 10, 1]
    month = digits[:, 5:].astype(np.intp) @ [10, 1]
    if ((digits[:, [0, 1, 2, 3, 5, 6]] > 9).any()
            or (head[:, 4] != ord("-")).any()
            or ((month < 1) | (month > 12)).any()):
        raise ValueError("a timestamp not of the form YYYY-MM...")
    return year * 12 + month


# `_blocks` reads lines until a block holds at least this many characters.
_BLOCK_CHARS = 1 << 16
# The bulk reader keeps a timestamp's first this many characters, one byte
# each: `np.loadtxt` refuses a character past U+00FF there.
_STAMP_BYTES = 16


def _blocks(fh, counts: list):
    """The lines left in `fh`, in blocks of about `_BLOCK_CHARS`.  Adds each
    block's number of non-blank lines to `counts[0]`; raises ValueError at a
    block holding one of U+001C..U+001F, or a line longer than
    `csv.field_size_limit()`."""
    limit = csv.field_size_limit()
    while block := fh.readlines(_BLOCK_CHARS):
        # `np.loadtxt` strips these from a number as whitespace, `float()`
        # does not.
        text = "".join(block)
        if ("\x1c" in text or "\x1d" in text or "\x1e" in text
                or "\x1f" in text):
            raise ValueError("information separator in a line")
        if max(map(len, block)) > limit:
            raise ValueError("a line too long for the csv module")
        counts[0] += (len(block) - block.count("\n") - block.count("\r\n")
                      - block.count("\r"))
        yield block


def _read_columns(fh, header: list, columns: list):
    """The bulk reader: the rows after the header in one `np.loadtxt` pass
    into records of the raw timestamp (bytes, at most `_STAMP_BYTES`) and
    the row's values of `columns[1:]`, the stamps then decoded at once by
    `_month_codes`.  Returns the month rank of each row (0 = earliest) and
    the values, a strided float view of the records.

    It raises ValueError, or a warning turned into an error, on any file it
    cannot vouch for: a cell `np.loadtxt` cannot read, a non-finite value, a
    stamp that is not `YYYY-MM...` within its first bytes, no data rows, or
    a record that spans lines or outgrows `csv.field_size_limit()`.  It
    names no line; `_read_cells` does."""
    # As in csv.DictReader, a repeated name stands for its last column.
    index = {name: i for i, name in enumerate(header)}
    record = np.dtype([("stamp", f"S{_STAMP_BYTES}"),
                       ("values", float, (len(columns) - 1,))])
    counts = [0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. "input contained no data"
        table = np.loadtxt(
            chain.from_iterable(_blocks(fh, counts)), dtype=record,
            delimiter=",", quotechar='"', comments=None, ndmin=1,
            usecols=[index[c] for c in columns])
    # One line per record keeps every field within one line, so no field is
    # longer than `_blocks` lets a line be.
    if counts[0] != len(table):
        raise ValueError("a record spans lines")
    values = table["values"]
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    # Month codes sort chronologically.
    month = np.unique(_month_codes(table["stamp"]), return_inverse=True)[1]
    return month, values


def _read_cells(fh, columns: list):
    """The per-cell reader: returns what `_read_columns` does, parsing each
    cell as `csv.DictReader` and `float()` do, or raises at the first bad
    cell or record, naming its CSV line."""
    reader = csv.DictReader(fh)
    stamp, numeric = columns[0], columns[1:]
    keys, rows = [], []
    # A DictReader sets its own line_num only once a row parses.
    with _csv_line_errors(reader.reader):
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
    """Read a pack CSV into (PackStream, GameSpec) per the dataset spec; the
    game is the interval's at its default rate, as for synthetic streams."""
    columns = [spec.timestamp_col, spec.target_col, *spec.expert_cols]
    if spec.order_col is not None:
        columns.append(spec.order_col)
    with open(spec.path, newline="") as fh:
        if not fh.seekable():
            # A pipe: each reader starts from the top, so hold its bytes and
            # decode them as read (a `str` may take 4 bytes a character).
            fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()),
                                  encoding=fh.encoding, newline="")
        cells = csv.reader(fh)
        with _csv_line_errors(cells):
            header = next(cells, [])
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
    # One gather a column, straight into the stream's layout: a gather of
    # all the expert columns at once would copy them first, or give them
    # transposed.
    outcomes = values[rows, 0]
    experts = values[:, 1:1 + len(spec.expert_cols)].T
    expert_preds = np.empty((len(experts), len(rows)))
    for preds, column in zip(expert_preds, experts):
        preds[:] = column[rows]
    sizes = np.bincount(month)

    if spec.calibration_packs is not None:
        if spec.calibration_packs > len(sizes):
            raise ValueError(f"calibration_packs={spec.calibration_packs} "
                             f"exceeds the file's {len(sizes)} months")
        head = sizes[:spec.calibration_packs].sum()
        lower = float(min(outcomes[:head].min(), expert_preds[:, :head].min()))
        upper = float(max(outcomes[:head].max(), expert_preds[:, :head].max()))
        if lower == upper:
            raise ValueError(
                f"calibration packs are constant at {lower}; cannot form an interval"
            )
    else:
        lower, upper = float(spec.clip_lower), float(spec.clip_upper)

    game = GameSpec.for_interval(lower, upper)
    np.clip(outcomes, lower, upper, out=outcomes)
    np.clip(expert_preds, lower, upper, out=expert_preds)
    return PackStream(expert_preds, outcomes, sizes), game


def write_pack_csv(stream: PackStream, path: str) -> None:
    """Write a stream in the flat CSV format `load_pack_csv` reads: trial t
    becomes month 2000-01 + t, experts become columns e1..eN.  The months
    end at 9999-12, so a stream may have at most 96000 packs."""
    if len(stream) > 96000:
        raise ValueError(f"{path}: {len(stream)} packs; a pack CSV names at "
                         f"most 96000 months (2000-01 to 9999-12)")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = stream.num_experts
        trial = np.repeat(np.arange(len(stream)), stream.sizes).tolist()
        values = _repr_texts(np.column_stack([stream.outcomes, stream.expert_preds.T]))
        writer.writerow(["month", "target"] + [f"e{i + 1}" for i in range(n)])
        writer.writerows([f"{2000 + t // 12:04d}-{t % 12 + 1:02d}", *row]
                         for t, row in zip(trial, zip(*[iter(values)] * (n + 1))))


def rescale_stream(stream: PackStream, lower: float, upper: float) -> PackStream:
    """Affinely map a stream living on [0, 1] onto [lower, upper]."""
    span = _checked_width(lower, upper)
    return PackStream(lower + span * stream.expert_preds,
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
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
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
    `integers(pack_size_min, pack_size_max + 1)`, then its noise
    `normal(size=(N + 1, k))`: rows 0..N-1 are the experts', row N the
    outcomes'.  Reordering these draws changes every seeded stream.  The
    rest is elementwise over all items at once, and writes the columns."""
    rng = np.random.default_rng(config.seed)
    game = GameSpec.for_interval(0.0, 1.0)
    n = config.num_experts
    sizes, noise = [], []
    for _ in range(config.num_trials):
        k = int(rng.integers(config.pack_size_min, config.pack_size_max + 1))
        sizes.append(k)
        noise.append(rng.normal(size=(n + 1, k)))
    noise = np.hstack(noise)
    idx = np.arange(sum(sizes))
    latent = 0.5 + 0.35 * np.sin(2 * np.pi * idx / 97.0)
    if config.drift_period > 0:
        sharp = (idx // config.drift_period) % n
    else:
        sharp = np.zeros(idx.size, dtype=int)
    sigma = np.where(np.arange(n)[:, None] == sharp[None, :],
                     config.noise, 4.0 * config.noise)
    preds = latent[None, :] + noise[:n] * sigma
    outcomes = latent + noise[n] * config.noise
    return PackStream(np.clip(preds, 0.0, 1.0), np.clip(outcomes, 0.0, 1.0),
                      sizes), game


@dataclass(frozen=True)
class AlgorithmResult:
    """One algorithm's run on one stream: records plus its guarantee checks.
    `name` is a row of `bounds._TABLE`; `params` (its declared pack size, if
    any) is derived from the name and the records, never passed in."""

    name: str
    records: RunRecords
    reports: tuple

    def __post_init__(self):
        bd._row(bd._TABLE, self.name, "algorithm")

    @property
    def params(self) -> dict:
        return _declared(self.name, self.records.pack_size)

    @property
    def total_loss(self) -> float:
        return float(self.records.cumulative_loss[-1])

    @property
    def total_average_loss(self) -> float:
        return float(self.records.cumulative_average_loss[-1])

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced, JSON round-trippable.  It is one
    stream's runs: at least one, each with records of the stream's
    `pack_sizes`, a column per expert of `prior`, and the first run's
    expert pack losses, bit for bit."""

    game: GameSpec
    prior: tuple
    pack_sizes: tuple
    algorithms: tuple
    shuffle: ShuffleSummary | None = None

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("algorithms: a report holds at least one run")
        first = self.algorithms[0].records.expert_pack_losses.tobytes()
        for i, records in enumerate(a.records for a in self.algorithms):
            if not np.array_equal(records.pack_size, self.pack_sizes):
                raise ValueError(f"algorithms.{i}: records do not match pack_sizes")
            if records.expert_pack_losses.shape[1:] != (self.num_experts,):
                raise ValueError(f"algorithms.{i}: expert_pack_losses need "
                                 f"{self.num_experts} columns, one per expert")
            if records.expert_pack_losses.tobytes() != first:
                raise ValueError(f"algorithms.{i}: expert_pack_losses differ "
                                 f"from those of algorithms.0")

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


def _declared(name: str, pack_sizes) -> dict:
    """The params of algorithm `name` on these packs: the pack size it
    declares, if it declares one."""
    declare = bd._TABLE[name].declare
    return {} if declare is None else {"pack_size": int(declare(pack_sizes))}


def _audit(a: AlgorithmResult, game: GameSpec, prior,
           every_prefix: bool) -> tuple:
    """The reports of run `a`, one per guarantee, at its declared size."""
    return tuple(
        audit_run(a.records, g.name, game, prior,
                  declared_pack_size=a.params.get("pack_size"),
                  every_prefix=every_prefix)
        for g in bd._TABLE[a.name].guarantees
    )


def _expand_algorithms(names, stream: PackStream) -> list:
    """The names `names` selects: "all" is every algorithm that may take
    all of the stream's packs; otherwise each name must be known, and
    given once."""
    names = [names] if isinstance(names, str) else list(names)
    if names == ["all"]:
        return [n for n in ALGORITHM_CHOICES if bd._TABLE[n].fits(
            stream.sizes, _declared(n, stream.pack_sizes).get("pack_size")).all()]
    for n in names:
        bd._row(bd._TABLE, n, "algorithm")
    if not names or len(set(names)) < len(names):
        raise ValueError(f"select at least one algorithm, each once; got {names}")
    return names


def _run_one(name: str, stream: PackStream, game: GameSpec, prior,
             every_prefix: bool):
    """Run one named algorithm and audit it; returns an AlgorithmResult."""
    # The public run_<name>, looked up when called so that a wrapper put on
    # that name (by a profiler) sees the call, with the declared size if any.
    run = globals()["run_" + name.replace("-", "_")]
    records = run(stream, *_declared(name, stream.sizes).values(), game, prior)
    a = AlgorithmResult(name, records, ())
    return replace(a, reports=_audit(a, game, prior, every_prefix))


def run_experiment(stream: PackStream, game: GameSpec, algorithms="all",
                   prior=None, shuffles: int = 0, shuffle_seed: int = 0,
                   every_prefix: bool = False) -> ExperimentResult:
    """Run and audit the chosen algorithms on one stream.

    `algorithms` is a name, a list of names, or "all" (which selects every
    algorithm whose preconditions the stream meets).  `shuffles` > 0 adds a
    within-pack shuffle study of the parallel-copies construction.
    """
    if shuffles < 0:
        raise ValueError(f"shuffles must be >= 0, got {shuffles}")
    n = stream.num_experts
    prior = _as_prior(uniform_prior(n) if prior is None else prior, n)
    names = _expand_algorithms(algorithms, stream)
    results = tuple(
        _run_one(name, stream, game, prior, every_prefix) for name in names
    )
    shuffle = None
    if shuffles > 0:
        shuffle = shuffle_experiment(stream, game, prior,
                                     num_shuffles=shuffles, seed=shuffle_seed)
    return ExperimentResult(game, tuple(prior.tolist()), stream.pack_sizes,
                            results, shuffle)


# Stands in for each algorithm's records in `_report_object`; the JSON
# report holds the records' own text (`_records_parts`) in its place.
_RECORDS = "\0records"


# The game's fields, as the report stores them.
_GAME_FIELDS = ("lower", "upper", "eta", "c")


def _report_object(result: ExperimentResult) -> dict:
    """The JSON report's object, with `_RECORDS` for each run's records.  A
    guarantee report is stored as its verdict and how the audit ran; the
    checks themselves are not stored, and a reader re-runs the audit."""
    shuffle = result.shuffle
    return {
        "schema_version": SCHEMA_VERSION,
        "game": {k: float(getattr(result.game, k)) for k in _GAME_FIELDS},
        "prior": list(result.prior),
        "pack_sizes": list(result.pack_sizes),
        "num_experts": result.num_experts,
        "num_trials": result.num_trials,
        "num_items": result.num_items,
        "passed": result.passed,
        "algorithms": [{
            "name": a.name,
            "params": a.params,
            "total_loss": a.total_loss,
            "total_average_loss": a.total_average_loss,
            "records": _RECORDS,
            "reports": [{k: getattr(r, k) for k in (
                "algorithm", "metric", "params", "every_prefix", "passed",
                "min_slack")} for r in a.reports],
        } for a in result.algorithms],
        "shuffle": None if shuffle is None else {
            k: getattr(shuffle, k) for k in (
                "losses", "mean", "min", "max", "num_shuffles", "seed")},
    }


# The columns of a run's JSON records, one value per trial: `trial_index`
# (the row number) and attributes of `RunRecords`.  The runs on one stream
# share `_SHARED_COLUMNS`, written once per report; `_RUN_COLUMNS` are each
# run's own, `learner_preds` among them (each trial's predictions, as a
# list).  The reader parses the fields of `RunRecords` and checks every
# other column against these.
_SHARED_COLUMNS = ("trial_index", "pack_size", "expert_pack_losses",
                   "expert_cumulative_losses", "expert_cumulative_average_losses")
_RUN_COLUMNS = ("learner_pack_loss", "cumulative_loss", "cumulative_average_loss",
                "learner_preds")


def _column(records: RunRecords, name: str) -> np.ndarray:
    if name == "trial_index":
        return np.arange(len(records))
    return getattr(records, name)


def _float_texts(a, sizes=None) -> list:
    """Each value of the float array `a`, in C order, as the text
    `json.dumps` writes for it: `repr`'s, the shortest digits that read
    back as the same float, or `NaN`, `Infinity` and `-Infinity`.  Given
    `sizes`, one text per group of `sizes[i]` consecutive values instead,
    the group's texts joined by commas (a row of a T x N column, or a
    pack's `learner_preds`), with no `str` made per value.

    orjson writes the same shortest digits (Ryu's), the whole array in one
    dump with no Python object per value.  It writes `null` for a
    non-finite value, and without Python's exponent (`0.00001`, `1e16`
    where `repr` has `1e-05`, `1e+16`) for a magnitude below 1e-4 or from
    1e16 up, so those values alone are written again by one `json.dumps`
    (`_patched`).  The text is then cut at the commas that end each value
    or group, found by one numpy scan of its bytes.  Only this writer uses
    orjson: a report is read by `json.loads`, because `orjson.loads`
    refuses `NaN` and `Infinity`, which a report may hold, and integers
    past 64 bits, such as a shuffle `seed` may be."""
    a = np.ravel(np.asarray(a, dtype=float))
    if not a.size:
        return []
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)
    size = np.abs(a)
    odd = ~(size < 1e16) | ((size > 0) & (size < 1e-4))
    if odd.any():
        text = _patched(text, a, odd)
    return _cut(text, sizes)


def _cut(text: bytes, sizes=None) -> list:
    """The values of `text`, a flat JSON list of numbers, one text each, or
    given `sizes` one text per group of `sizes[i]` consecutive values, cut
    at the commas that end the groups."""
    if sizes is None:
        return text[1:-1].decode().split(",")
    cuts = _delimiters(text)[np.concatenate(([0], np.cumsum(sizes)))].tolist()
    text = text.decode()
    return [text[i + 1:j] for i, j in zip(cuts[:-1], cuts[1:])]


def _delimiters(text: bytes) -> np.ndarray:
    """The offsets of the `[`, each `,` and the `]` of `text`, a flat JSON
    list of numbers: its value i lies between delimiters i and i + 1."""
    commas = np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))
    return np.concatenate(([0], commas, [len(text) - 1]))


def _patched(text: bytes, a: np.ndarray, odd: np.ndarray) -> bytes:
    """`text`, `_float_texts`' dump of the flat float array `a`, with the
    values where `odd` is true written as `json.dumps` writes them.  Each run of
    consecutive values of one kind is copied in one slice, from `text` or
    from one `json.dumps` of the odd values, so a column that is mostly
    odd, or mostly not, is a few slices."""
    redone = json.dumps(a[odd].tolist(), separators=(",", ":")).encode()
    edges = np.flatnonzero(odd[1:] != odd[:-1]) + 1
    first, last = np.concatenate(([0], edges)), np.concatenate((edges, [a.size]))
    kind = odd[first]
    ours = _delimiters(text)
    lo, hi = ours[first], ours[last]
    # The odd runs, in order, are consecutive in `redone`.
    ends = np.cumsum(last[kind] - first[kind])
    theirs = _delimiters(redone)
    lo[kind], hi[kind] = theirs[np.concatenate(([0], ends[:-1]))], theirs[ends]
    sources = text, redone
    return b"[%s]" % b",".join([sources[k][i + 1:j] for k, i, j in zip(
        kind.tolist(), lo.tolist(), hi.tolist())])


def _repr_texts(a) -> list:
    """`repr` of each value of the float array `a`, in C order: the text
    `_float_texts` writes, apart from a non-finite value (`nan`, `inf`)."""
    a = np.ravel(a)
    texts = _float_texts(a)
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        texts[i] = repr(float(a[i]))
    return texts


def _json_trials(records: RunRecords, names) -> dict:
    """For the columns `names` of a run's records, the placeholder of a
    trial's value in a trial template ("%s", or "[%s]" for a list) and
    each trial's text.  Each column is written in one dump, a float
    column by `_float_texts` and an integer one by one `json.dumps`, and
    a list column (a row of a T x N column, or a pack's `learner_preds`)
    is cut from that dump into per-trial texts (`_cut`)."""
    formats = {}
    for name in names:
        values = _column(records, name)
        sizes = None
        if name == "learner_preds":
            sizes = records.pack_size
        elif values.ndim == 2:
            sizes = np.full(len(values), values.shape[1])
        if values.dtype.kind == "f":
            texts = _float_texts(values, sizes)
        else:
            texts = _cut(json.dumps(values.tolist(),
                                    separators=(",", ":")).encode(), sizes)
        formats[name] = ("%s" if sizes is None else "[%s]"), texts
    return formats


def _records_parts(records: RunRecords, shared: dict) -> list:
    """A run's records as `json.dumps(rows, sort_keys=True, separators=(",",
    ":"))` would write them, one object per trial, as a list of parts to
    join.  Each column is written in one dump and cut into per-trial
    texts (`_json_trials`), laid out by one trial template made from the
    sorted column names.  `shared` is `_json_trials` of `_SHARED_COLUMNS`:
    a result is one stream's runs (`ExperimentResult`), so a report writes
    those once, from its first run."""
    columns = {**shared, **_json_trials(records, _RUN_COLUMNS)}
    names = sorted(columns)
    trial = "{%s}" % ",".join(f'"{name}":{columns[name][0]}' for name in names)
    # Trial after trial: the template's first literal, then each column's
    # text followed by the next literal.  The caller joins the parts once,
    # into the run's text: a text per trial, or a `%` format (its result
    # grows as it is written), raised the peak resident set by 2 to 4 MB
    # at the reference size, as did joining the run texts again into one.
    literals = trial.split("%s")
    streams = [repeat(literals[0])]
    for name, literal in zip(names, [*literals[1:-1], literals[-1] + ","]):
        streams += columns[name][1], repeat(literal)
    parts = list(chain.from_iterable(zip(*streams)))
    parts[0], parts[-1] = "[" + literals[0], literals[-1] + "]"
    return parts


def _report_texts(result: ExperimentResult, format: str):
    """`emit_report`'s text as a few texts, in order, for a writer to write
    as they come: for `json` the head of the report, then each run's
    records with the text that follows them, each made only when it is
    asked for; for `csv` and `table` the one text.  Every refusal is
    raised by this call, before any text is asked for, so a refused report
    opens no file."""
    if format == "json":
        texts = json.dumps(_report_object(result), sort_keys=True,
                           separators=(",", ":")).split(json.dumps(_RECORDS))
        if len(texts) != len(result.algorithms) + 1:
            raise ValueError(f"a value of the report holds {_RECORDS!r}")
        shared = _json_trials(result.algorithms[0].records, _SHARED_COLUMNS)
        return chain(texts[:1], (
            "".join([*_records_parts(a.records, shared), text])
            for a, text in zip(result.algorithms, texts[1:])))
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["trial", "pack_size"] + [a.name for a in result.algorithms])
        columns = [_repr_texts(a.records.cumulative_loss) for a in result.algorithms]
        for t, row in enumerate(zip(result.pack_sizes, *columns)):
            writer.writerow([t, *row])
        return [buf.getvalue()]
    if format == "table":
        lines = []
        lines.append(
            f"game: [{result.game.lower:g}, {result.game.upper:g}]  "
            f"eta={result.game.eta:g}  c={result.game.c:g}"
        )
        lines.append(
            f"stream: {result.num_trials} packs, {result.num_items} items, "
            f"{result.num_experts} experts, sizes "
            f"{min(result.pack_sizes)}..{max(result.pack_sizes)}"
        )
        header = (f"{'algorithm':<18} {'total loss':>14} {'avg-loss total':>14} "
                  f"{'min slack':>12} {'bound':>7}  tightest at")
        lines.append(header)
        lines.append("-" * len(header))
        for a in result.algorithms:
            tight = min(a.reports, key=lambda r: r.min_slack)
            status = "ok" if a.passed else "FAIL"
            lines.append(
                f"{a.name:<18} {a.total_loss:>14.6f} {a.total_average_loss:>14.6f} "
                f"{tight.min_slack:>12.4e} {status:>7}  {_where(tight)}"
            )
        # The expert of least total loss; on a tie, the first.
        records = result.algorithms[0].records
        totals = records.expert_cumulative_losses[-1]
        best = int(np.argmin(totals))
        lines.append(
            f"{f'best expert {best}':<18} {totals[best]:>14.6f} "
            f"{records.expert_cumulative_average_losses[-1, best]:>14.6f}"
        )
        if result.shuffle is not None:
            s = result.shuffle
            lines.append(
                f"parallel shuffle x{s.num_shuffles} (seed {s.seed}): "
                f"min {s.min:.6f}  mean {s.mean:.6f}  max {s.max:.6f}  "
                f"spread {s.max - s.min:.6f}"
            )
        return ["\n".join(lines) + "\n"]
    raise ValueError(f"unknown format {format!r} (json, csv, table)")


def emit_report(result: ExperimentResult, format: str = "json") -> str:
    """Serialize a result: full-fidelity `json`, per-trial cumulative-loss
    `csv`, or a human-oriented `table` of totals and guarantee slacks, with
    the best expert's totals.

    The `json` text is `json.dumps(..., sort_keys=True, separators=(",",
    ":"))` of the report's object, with each run's records written from
    its columns by `_records_parts`; the columns the runs share are written
    once, from the first run.  The `csv` text writes each loss as `repr`
    does (`_repr_texts`).  The text is `_report_texts`' texts joined; the
    command line writes those as they come instead."""
    return "".join(_report_texts(result, format))


def emit_adversary_report(run: MixLossRun, format: str) -> str:
    """The `adversary` command's report of a game, from its ledger alone: a
    `table`, or `json` with its own `schema_version` 1, indented, one object
    per pack (an infinite loss is a bare `Infinity` token).  Each names the
    learner and the nature and gives the totals; the JSON's `forced` is
    `run.forced` against any nature, and the table prints that verdict only
    against the adversary."""
    num_experts = run.expert_pack_losses.shape[1]
    names = ("pack_size", "mix_loss", "expert_pack_losses", "regret_increment",
             "lower_bound_increment", "cumulative_mix_loss", "cumulative_regret")
    rows = list(zip(*(getattr(run, name).tolist() for name in names)))
    if format == "json":
        return json.dumps({
            "schema_version": 1,
            "num_experts": num_experts,
            "learner": run.learner,
            "nature": run.nature,
            "trials": [dict(zip(names, row), trial_index=t)
                       for t, row in enumerate(rows)],
            "total_regret": run.total_regret,
            "total_lower_bound": run.total_lower_bound,
            "forced": run.forced,
        }, indent=2, sort_keys=True) + "\n"
    if format != "table":
        raise ValueError(f"unknown format {format!r} (json, table)")
    lines = [
        f"mix-loss game: {num_experts} experts, learner={run.learner}, "
        f"nature={run.nature}",
        f"{'trial':>5} {'K':>3} {'mix loss':>12} {'regret +=':>12} "
        f"{'K*ln(N)':>12} {'cum regret':>12}",
    ]
    for t, (k, ell, _, regret, bound, _, cum) in enumerate(rows):
        lines.append(f"{t:>5} {k:>3} {ell:>12.6f} {regret:>12.6f} "
                     f"{bound:>12.6f} {cum:>12.6f}")
    lines.append(f"total regret {run.total_regret:.6f} vs forced lower bound "
                 f"{run.total_lower_bound:.6f} (ln(N) per item)")
    if run.nature == "adversary":
        lines.append("per-pack lower bound " +
                     ("held in every pack" if run.forced else "VIOLATED"))
    return "\n".join(lines) + "\n"


def _where(report: BoundReport) -> str:
    """The expert (0-based) and prefix of a report's minimum slack."""
    expert, prefix = report.binding
    return f"expert {expert}, prefix {prefix}"


def _json_column(name: str, values, dtype=float, lengths=None) -> np.ndarray:
    """JSON values as an array of `dtype`, checked as a whole: each must be
    a number that `dtype` holds, and an integer for an int `dtype`; a bool
    or a string is an error, never converted.  With `lengths`, each value
    is a list of that many numbers (one length for all, or one each),
    concatenated."""
    values = list(values)
    if lengths is not None:
        if (set(map(type, values)) - {list}
                or np.any(np.fromiter(map(len, values), int, len(values))
                          != lengths)):
            raise ValueError(f"{name}: a list has the wrong length")
        values = list(chain.from_iterable(values))
    if set(map(type, values)) - ({int} if dtype is int else {int, float}):
        kind = "integers" if dtype is int else "numbers"
        raise ValueError(f"{name}: values must be JSON {kind}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name}: a value is out of range for "
                         f"{np.dtype(dtype)}") from None


def _dotted(path) -> str:
    return ".".join(map(str, path))


def _at(d, *path, kind=None):
    """The value at key path `path` of a report's object `d`, of JSON type
    `kind` if given; raises naming the path."""
    value = d
    try:
        for key in path:
            value = value[key]
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"no {_dotted(path)}") from None
    if kind is not None and type(value) is not kind:
        raise ValueError(f"{_dotted(path)} must be a JSON {kind.__name__}")
    return value


def _read_records(rows: list, num_experts: int,
                  where: str = "records") -> RunRecords:
    """A run's records read back from their JSON objects (`_records_parts`):
    the fields of `RunRecords` are parsed, with `pack_size` predictions and
    `num_experts` expert losses in each trial, and every other column must
    be the one the writer writes for them."""
    def column(name, dtype=float, lengths=None):
        try:
            values = list(map(itemgetter(name), rows))
        except (KeyError, TypeError):
            t, row = next((t, row) for t, row in enumerate(rows)
                          if type(row) is not dict or name not in row)
            raise ValueError(f"no {where}.{t}.{name}" if type(row) is dict
                             else f"{where}.{t} must be a JSON object") from None
        return _json_column(f"{where}: {name}", values, dtype, lengths)

    sizes = column("pack_size", int)
    records = RunRecords(
        sizes, column("learner_preds", float, sizes), column("learner_pack_loss"),
        column("expert_pack_losses", float, num_experts).reshape(-1, num_experts))
    produced = [f.name for f in fields(RunRecords)]
    for name in _SHARED_COLUMNS + _RUN_COLUMNS:
        if name not in produced:
            derived = _column(records, name)
            stored = column(name, int if derived.dtype.kind == "i" else float,
                            derived.shape[1] if derived.ndim == 2 else None)
            if not np.array_equal(stored.reshape(derived.shape), derived):
                raise ValueError(f"{where}: {name} does not match "
                                 f"{', '.join(produced)}")
    # Each row holds every column, so a longer one holds an unknown key.
    names = {*_SHARED_COLUMNS, *_RUN_COLUMNS}
    if set(map(len, rows)) - {len(names)}:
        t = next(t for t, row in enumerate(rows) if len(row) != len(names))
        raise ValueError(f"unknown key {where}.{t}.{min(rows[t].keys() - names)}")
    return records


def _check_written(stored, written, path=()) -> None:
    """Raise unless a report's stored object is `written`, the writer's
    object for the result read from it, key for key; the error names the
    first key path where it is not.  A JSON integer may stand for a float,
    but a bool is no number.  The verdicts are advisory: each `passed` must
    be a JSON bool, and a `min_slack` may be anything.  The records
    (`_RECORDS`) were checked as they were read."""
    if isinstance(written, dict):
        if type(stored) is not dict:
            raise ValueError(f"{_dotted(path)} must be a JSON object")
        for key in sorted(stored.keys() - written.keys()):
            raise ValueError(f"unknown key {_dotted((*path, key))}")
        for key, value in written.items():
            if key not in stored:
                raise ValueError(f"no {_dotted((*path, key))}")
            _check_written(stored[key], value, (*path, key))
    elif isinstance(written, (list, tuple)):
        if type(stored) is not list or len(stored) != len(written):
            raise ValueError(f"{_dotted(path)} must be a JSON list of "
                             f"{len(written)}")
        kinds = set(map(type, written))
        if (kinds <= {int, float} and stored == list(written)
                and set(map(type, stored)) == kinds):
            return  # numbers of the writer's types, in one comparison
        for i, (s, w) in enumerate(zip(stored, written)):
            _check_written(s, w, (*path, i))
    elif path[-1] == "passed":
        if type(stored) is not bool:
            raise ValueError(f"{_dotted(path)} must be a JSON bool")
    elif path[-1] != "min_slack" and written is not _RECORDS and not (
            type(stored) in ((int, float) if type(written) is float
                             else (type(written),))
            and stored == written):
        raise ValueError(f"{_dotted(path)} is {stored!r}; the rest of the "
                         f"report gives {written!r}")


def _read_report(fh) -> tuple:
    """A JSON report read back from its open text file (see `_read_parsed`).
    `json.load` drops the file's text once it is parsed."""
    return _read_parsed(json.load(fh))


def _read_parsed(d) -> tuple:
    """A JSON report read back from its parsed object `d`: the result, and
    each run's stored `passed` verdicts, one per report.  Only what the
    runs produced is parsed: the game, prior and pack sizes, each run's
    name, records and `every_prefix`, and the shuffle study's losses and
    seed.  The result is rebuilt from them through the re-audit, so its
    reports are the re-audit's, and the runs must be one stream's
    (`ExperimentResult`) before they are audited.  The file must then be
    the writer's object for that result (`_check_written`), and no record
    may be impossible: a pack's loss is a sum of squares of differences
    within the game's interval, and every prediction lies in that interval
    (to which it is clipped).  Every refusal is a `ValueError`, as `cli`'s
    `audit` expects.  Each run's parsed records are dropped from `d` once
    they are arrays."""
    version = d.get("schema_version") if isinstance(d, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r}; re-run to write "
            f"version {SCHEMA_VERSION}")
    game = [float(_json_column(f"game.{key}", [_at(d, "game", key)])[0])
            for key in _GAME_FIELDS]
    prior = _json_column("prior", _at(d, "prior", kind=list))
    try:
        game, prior = GameSpec(*game), _as_prior(prior)
    except ValueError as e:
        raise ValueError(f"game or prior: {e}") from None
    pack_sizes = tuple(_json_column(
        "pack_sizes", _at(d, "pack_sizes", kind=list), int).tolist())
    if not pack_sizes:
        raise ValueError("pack_sizes: a report holds at least one pack")
    runs = _at(d, "algorithms", kind=list)
    algorithms = []
    for i in range(len(runs)):
        where = f"algorithms.{i}"
        name = _at(d, "algorithms", i, "name")
        bd._row(bd._TABLE, name, "algorithm", f"{where}.name")
        records = _read_records(_at(d, "algorithms", i, "records", kind=list),
                                prior.size, f"{where}.records")
        runs[i]["records"] = _RECORDS  # what `_check_written` expects there
        # A pack of k items loses a sum of k squares, each in [0, (B - A)^2]
        # as rounded (rounding is monotone).  The sum's k - 1 additions
        # round up by at most (k - 1) eps/2 relative, and this limit's own
        # products by a few eps/2: 2k eps of room covers both.
        k = records.pack_size[:, None]
        limit = k * game.width ** 2 * (1 + 2 * k * np.finfo(float).eps)
        for field, losses in (
                ("learner_pack_loss", records.learner_pack_loss[:, None]),
                ("expert_pack_losses", records.expert_pack_losses)):
            if not ((losses >= 0) & (losses <= limit)).all():
                raise ValueError(f"{where}: {field} must lie in "
                                 f"[0, k (B - A)^2] for a pack of k items")
        if not game.contains(records.learner_preds):
            raise ValueError(f"{where}: learner_preds must lie in "
                             f"[{game.lower}, {game.upper}]")
        algorithms.append(AlgorithmResult(name, records, ()))
    shuffle = _at(d, "shuffle")
    if type(shuffle) is dict:  # otherwise it must be null, as written
        losses = _json_column("shuffle.losses",
                              _at(d, "shuffle", "losses", kind=list))
        if not losses.size:
            raise ValueError("shuffle.losses: no losses")
        seed = _at(d, "shuffle", "seed", kind=int)  # any size, as --seed takes
        shuffle = ShuffleSummary(tuple(losses.tolist()), seed)
    else:
        shuffle = None
    # Checked as one stream's runs before an audit can refuse them otherwise.
    result = ExperimentResult(game, tuple(prior.tolist()), pack_sizes,
                              tuple(algorithms), shuffle)
    result = replace(result, algorithms=tuple(replace(a, reports=_audit(
        a, game, prior,
        _at(d, "algorithms", i, "reports", 0, "every_prefix") is True))
        for i, a in enumerate(algorithms)))
    _check_written(d, _report_object(result))
    return result, tuple(tuple(r["passed"] for r in run["reports"])
                         for run in runs)


def result_from_json(text: str) -> ExperimentResult:
    """Inverse of emit_report(..., 'json'); see `_read_parsed`."""
    return _read_parsed(json.loads(text))[0]
