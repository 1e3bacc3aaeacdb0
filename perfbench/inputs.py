"""Seeded input generators for the workloads.

Every generator takes the workload seed and nothing else that varies, so one
seed always gives the same file.  They run in `run.py`, before the measured
process starts.
"""

from __future__ import annotations

import csv

import numpy as np

# synth-small-packs: the ROADMAP reference size, packs of 1..7 items.
SYNTH_EXPERTS = 8
SYNTH_TRIALS = 2000


def synth_argv(seed: int, out: str) -> list:
    """`packpredict synth` arguments: all algorithms, every-prefix audit."""
    return ["synth", "--experts", str(SYNTH_EXPERTS), "--trials",
            str(SYNTH_TRIALS), "--seed", str(seed), "--every-prefix",
            "--format", "json", "--out", out]


# monthly-csv: a housing-shaped sales panel, one row per sale.
CSV_MONTHS = 240
CSV_SALES_PER_MONTH = (170, 230)  # inclusive range, uniform
CSV_EXPERTS = 16
CSV_TIMESTAMP_COL = "SaleDate"
CSV_TARGET_COL = "SalePrice"
CSV_ORDER_COL = "Id"
CSV_EXPERT_COLS = tuple(f"m{i}" for i in range(1, CSV_EXPERTS + 1))

# Sale prices are log-normal around exp(12) ~ $163k; expert n multiplies the
# price by exp(N(bias_n, sd_n)), from a sharp unbiased model to a loose one.
PRICE_LOG_MEAN = 12.0
PRICE_LOG_SD = 0.35
EXPERT_LOG_SD = np.linspace(0.04, 0.30, CSV_EXPERTS)
EXPERT_LOG_BIAS = np.linspace(-0.06, 0.06, CSV_EXPERTS)

# online-monthly: a pack stream on a fixed dollar interval.
ONLINE_PACKS = 3000
ONLINE_PACK_SIZES = (1, 60)  # inclusive range, each size 50 times
ONLINE_EXPERTS = 16
ONLINE_INTERVAL = (3e4, 8e5)


def _expert_prices(rng, prices: np.ndarray, num_experts: int) -> np.ndarray:
    """items x N expert predictions of the given prices."""
    noise = rng.normal(size=(prices.size, num_experts))
    return prices[:, None] * np.exp(EXPERT_LOG_BIAS[:num_experts]
                                    + EXPERT_LOG_SD[:num_experts] * noise)


def _sales_rows(rng, months: int, sales_range: tuple) -> list:
    """Rows of (Id, date, price, *expert prices), Ids in sale order."""
    rows = []
    sale_id = 1
    for m in range(months):
        year, month = 2001 + m // 12, m % 12 + 1
        count = int(rng.integers(sales_range[0], sales_range[1] + 1))
        days = np.sort(rng.integers(1, 29, size=count))
        prices = np.exp(rng.normal(PRICE_LOG_MEAN, PRICE_LOG_SD, size=count))
        experts = _expert_prices(rng, prices, CSV_EXPERTS)
        for day, price, preds in zip(days, prices, experts):
            rows.append([sale_id, f"{year:04d}-{month:02d}-{day:02d}",
                         f"{price:.2f}", *(f"{p:.2f}" for p in preds)])
            sale_id += 1
    return rows


CSV_HEADER = (CSV_ORDER_COL, CSV_TIMESTAMP_COL, CSV_TARGET_COL,
              *CSV_EXPERT_COLS)


def _write_rows(path: str, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def write_monthly_csv(path: str, seed: int) -> int:
    """The monthly-csv input: about 240 x 200 sales in shuffled file order.
    Returns the number of data rows."""
    rng = np.random.default_rng(seed)
    rows = _sales_rows(rng, CSV_MONTHS, CSV_SALES_PER_MONTH)
    order = rng.permutation(len(rows))
    _write_rows(path, [rows[i] for i in order])
    return len(rows)


def run_argv(data: str, out: str) -> list:
    """`packpredict run` arguments for a monthly CSV."""
    return ["run", "--data", data,
            "--timestamp-col", CSV_TIMESTAMP_COL, "--target", CSV_TARGET_COL,
            "--experts", f"{CSV_EXPERT_COLS[0]}..{CSV_EXPERT_COLS[-1]}",
            "--order-col", CSV_ORDER_COL, "--calibration-packs", "12",
            "--algorithms", "aap-max,aap-incremental,aap-current",
            "--format", "json", "--out", out]


# Bad-input probes: one bad cell each, in a small panel that does not depend
# on the workload seed.  Line numbers count the header as line 1.  Each cell
# sits after the 12 calibration months, so the interval stays finite.
PROBE_MONTHS = 15
PROBE_SALES = (3, 3)
PROBE_LINE = 40
PROBES = (
    ("inf-expert", "m2", "inf"),
    ("nan-target", CSV_TARGET_COL, "nan"),
    ("month-13", CSV_TIMESTAMP_COL, "2020-13-05"),
)


def write_probe_csvs(directory: str) -> list:
    """Write one CSV per probe; returns [(name, path, bad line number)]."""
    rows = _sales_rows(np.random.default_rng(0), PROBE_MONTHS, PROBE_SALES)
    probes = []
    for name, column, value in PROBES:
        bad = [list(r) for r in rows]
        bad[PROBE_LINE - 2][CSV_HEADER.index(column)] = value
        path = f"{directory}/probe-{name}.csv"
        _write_rows(path, bad)
        probes.append((name, path, PROBE_LINE))
    return probes


def online_stream(seed: int) -> dict:
    """The online-monthly input: packs of 1..60 items on a dollar interval.

    Every size occurs equally often, in an order shuffled by the seed, so
    every seed prices the same number of items in the same mix of pack
    sizes; the seed moves the order and the prices.  Returns flat arrays: `preds` (items x N), `outcomes` (items), `sizes`
    (packs) and the interval `lower`, `upper`.
    """
    rng = np.random.default_rng(seed)
    lower, upper = ONLINE_INTERVAL
    lo, hi = ONLINE_PACK_SIZES
    sizes = rng.permutation(np.repeat(np.arange(lo, hi + 1),
                                      ONLINE_PACKS // (hi - lo + 1)))
    n = int(sizes.sum())
    prices = np.exp(rng.normal(PRICE_LOG_MEAN, PRICE_LOG_SD, size=n))
    preds = _expert_prices(rng, prices, ONLINE_EXPERTS)
    return {
        "preds": np.clip(preds, lower, upper),
        "outcomes": np.clip(prices, lower, upper),
        "sizes": sizes,
        "lower": lower,
        "upper": upper,
    }
