"""Output checks: packpredict's outputs against the independent reference.

Tolerances scale with the game interval: predictions must agree within
PRED_TOL * (B - A); cumulative losses, and the guarantee slacks, within
LOSS_TOL * (B - A)^2 * (items so far).
"""

from __future__ import annotations

import csv

import numpy as np

import inputs
import reference as ref

PRED_TOL = 1e-9
LOSS_TOL = 1e-9

def report_view(payload: dict) -> dict:
    """The report fields the checks read.  The only code that knows the
    JSON report's layout."""
    game = payload["game"]
    algorithms = {}
    for alg in payload["algorithms"]:
        records = alg["records"]
        algorithms[alg["name"]] = {
            "preds": np.array([p for r in records for p in r["learner_preds"]]),
            "learner": np.array([r["cumulative_loss"] for r in records]),
            "learner_avg": np.array([r["cumulative_average_loss"]
                                     for r in records]),
            "experts": np.array([r["expert_cumulative_losses"]
                                 for r in records]),
            "experts_avg": np.array([r["expert_cumulative_average_losses"]
                                     for r in records]),
            "declared": alg["params"].get("pack_size"),
        }
    return {"lower": game["lower"], "upper": game["upper"], "eta": game["eta"],
            "sizes": np.array(payload["pack_sizes"]),
            "passed": payload["passed"], "algorithms": algorithms}


def check_algorithm(name: str, got: dict, stream: dict, every_prefix: bool,
                    declared: int | None = None) -> list:
    """Compare one algorithm's outputs with the reference, then check its
    guarantees on the reference's own losses.  `got` holds `preds` and any
    of the cumulative losses `ref.cumulative_losses` gives, plus optionally
    `experts_final`.  Returns errors."""
    lower, upper, sizes = stream["lower"], stream["upper"], stream["sizes"]
    width = upper - lower
    eta = 2.0 / width ** 2
    prior = np.full(stream["preds"].shape[1], 1.0 / stream["preds"].shape[1])
    loss_tol = LOSS_TOL * width ** 2 * np.cumsum(sizes)
    errors = []

    preds = ref.run(name, stream["preds"], stream["outcomes"], sizes, prior,
                    lower, upper, eta)
    if got["preds"].shape != preds.shape:
        return [f"{name}: {got['preds'].shape} predictions, expected "
                f"{preds.shape}"]
    worst = float(np.max(np.abs(got["preds"] - preds)))
    if worst > PRED_TOL * width:
        errors.append(f"{name}: predictions differ from the reference by "
                      f"{worst:.3e} (limit {PRED_TOL * width:.3e})")

    cumulative = ref.cumulative_losses(preds, stream["preds"],
                                       stream["outcomes"], sizes)
    cumulative["experts_final"] = cumulative["experts"][-1]
    for key, want in cumulative.items():
        if key not in got:
            continue
        tol = loss_tol[-1] if key == "experts_final" else (
            loss_tol if want.ndim == 1 else loss_tol[:, None])
        if got[key].shape != want.shape or np.any(np.abs(got[key] - want) > tol):
            errors.append(f"{name}: cumulative {key} losses differ from the "
                          f"reference")

    slacks = ref.guarantee_slacks(name, cumulative, sizes, prior, eta,
                                  declared=declared)
    for guarantee, slack in slacks.items():
        rows = slice(None) if every_prefix else slice(-1, None)
        if np.any(slack[rows] < -loss_tol[rows, None]):
            errors.append(f"{guarantee}: guarantee violated, min slack "
                          f"{float(slack[rows].min()):.3e}")
    return errors


def check_report(payload: dict, stream: dict, algorithms: tuple,
                 every_prefix: bool) -> list:
    """Check a run/synth JSON report against the reference."""
    view = report_view(payload)
    width = stream["upper"] - stream["lower"]
    errors = []
    if (view["lower"], view["upper"]) != (stream["lower"], stream["upper"]):
        errors.append(f"game interval [{view['lower']}, {view['upper']}] != "
                      f"[{stream['lower']}, {stream['upper']}]")
    if abs(view["eta"] * width ** 2 - 2.0) > 1e-12:
        errors.append(f"eta {view['eta']} is not 2/(B-A)^2")
    if not np.array_equal(view["sizes"], stream["sizes"]):
        errors.append("pack sizes differ from the input")
    if sorted(view["algorithms"]) != sorted(algorithms):
        errors.append(f"algorithms {sorted(view['algorithms'])} != "
                      f"{sorted(algorithms)}")
        return errors
    if not view["passed"]:
        errors.append("report says a guarantee failed")
    for name in algorithms:
        got = view["algorithms"][name]
        errors += check_algorithm(name, got, stream, every_prefix,
                                  declared=got["declared"])
    return errors


def check_online(preds: np.ndarray, expert_totals: np.ndarray,
                 stream: dict) -> list:
    """Check the online loop's prices (aap-incremental) and final expert
    totals; its learner losses are recomputed from its own prices."""
    own = ref.cumulative_losses(preds, stream["preds"], stream["outcomes"],
                                stream["sizes"])
    got = {"preds": preds, "learner": own["learner"],
           "learner_avg": own["learner_avg"], "experts_final": expert_totals}
    return check_algorithm("aap-incremental", got, stream, every_prefix=True)


def read_monthly_csv(path: str, calibration_packs: int = 12) -> dict:
    """The stream `packpredict run` should build from a sales CSV: one pack
    per YYYY-MM, months in order, rows by Id within a month, the interval
    from the first `calibration_packs` months and every value clipped to it."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col = {name: header.index(name) for name in header}
    months = [r[col[inputs.CSV_TIMESTAMP_COL]][:7] for r in rows]
    ids = [float(r[col[inputs.CSV_ORDER_COL]]) for r in rows]
    order = sorted(range(len(rows)), key=lambda i: (months[i], ids[i]))
    outcomes = np.array([float(rows[i][col[inputs.CSV_TARGET_COL]])
                         for i in order])
    preds = np.array([[float(rows[i][col[c]]) for c in inputs.CSV_EXPERT_COLS]
                      for i in order])
    _, sizes = np.unique([months[i] for i in order], return_counts=True)
    head = int(sizes[:calibration_packs].sum())
    lower = float(min(outcomes[:head].min(), preds[:head].min()))
    upper = float(max(outcomes[:head].max(), preds[:head].max()))
    return {"preds": np.clip(preds, lower, upper),
            "outcomes": np.clip(outcomes, lower, upper),
            "sizes": sizes, "lower": lower, "upper": upper}
