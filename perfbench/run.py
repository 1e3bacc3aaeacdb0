"""packpredict benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: packpredict is imported from
the checkout's `src/`, never from an installed copy.  This process makes the
workload's inputs from the seed, times the interpreter's cold start, starts
`workload.py` in a fresh interpreter for the measured repetitions, then
checks the outputs against `reference.py`.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.  A failed check exits 1.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread per numeric library, set before numpy is imported here or in
# any child process.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
from speed import Clock  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_CODE = "import packpredict, packpredict.cli; packpredict.cli.build_parser()"
SETUP_REPS = 13
# Cold starts are calibrated by the cold start of an interpreter that
# imports numpy and nothing of packpredict: it tracks the host's speed at
# starting processes and loading modules far better than the in-process
# load does.  BARE_NOMINAL_S is its time on the nominal host.
BARE_CODE = "import json, numpy"
BARE_NOMINAL_S = 0.12
WORKLOAD_TIMEOUT_S = 150


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _cold_start(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True)
    return time.perf_counter() - start


def setup_clock() -> Clock:
    """Times cold starts of a fresh interpreter that imports packpredict and
    builds the CLI parser, under the label "setup".  One unmeasured start
    first compiles bytecode."""
    _cold_start(SETUP_CODE)
    clock = Clock(calibration=lambda: _cold_start(BARE_CODE),
                  nominal_s=BARE_NOMINAL_S)
    for _ in range(SETUP_REPS):
        clock.time("setup", lambda: _cold_start(SETUP_CODE))
    return clock


def prepare(workload: str, seed: int, work: str) -> tuple:
    """Write the workload's inputs; returns (spec fields, reference stream,
    items per repetition)."""
    if workload == "synth-small-packs":
        from packpredict import SyntheticConfig, generate_synthetic_stream

        stream, _ = generate_synthetic_stream(SyntheticConfig(
            num_experts=inputs.SYNTH_EXPERTS, num_trials=inputs.SYNTH_TRIALS,
            seed=seed))
        flat = {"preds": np.concatenate([p.expert_preds.T for p in stream]),
                "outcomes": np.concatenate([p.outcomes for p in stream]),
                "sizes": np.array(stream.pack_sizes),
                "lower": 0.0, "upper": 1.0}
        spec = {"report": f"{work}/report.json", "audit_out": f"{work}/audit.txt"}
    elif workload == "monthly-csv":
        csv_path = f"{work}/sales.csv"
        inputs.write_monthly_csv(csv_path, seed)
        flat = check.read_monthly_csv(csv_path)
        spec = {"csv": csv_path, "report": f"{work}/report.json",
                "probes": inputs.write_probe_csvs(work),
                "probe_out": f"{work}/probe.json"}
    else:
        flat = inputs.online_stream(seed)
        np.savez(f"{work}/stream.npz", **flat)
        spec = {"stream": f"{work}/stream.npz",
                "online_out": f"{work}/online.npz"}
    return spec, flat, int(flat["sizes"].sum())


def check_outputs(workload: str, spec: dict, flat: dict, result: dict) -> list:
    errors = list(result["failures"])
    if len(result["output_sha256"]) != 1:
        errors.append("repetitions produced different outputs")
    if workload == "online-monthly":
        out = np.load(spec["online_out"])
        return errors + check.check_online(out["preds"], out["expert_totals"],
                                           flat)
    with open(spec["report"]) as fh:
        payload = json.load(fh)
    if workload == "synth-small-packs":
        algorithms = ("aap-max", "aap-incremental", "aap-current", "parallel")
        return errors + check.check_report(payload, flat, algorithms, True)
    algorithms = ("aap-max", "aap-incremental", "aap-current")
    return errors + check.check_report(payload, flat, algorithms, False)


def versions() -> dict:
    import scipy

    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    return "bytes" if name.endswith("bytes") else "count"


def metrics_of(result: dict, setup: Clock, items: int, trace: bool) -> dict:
    """End-to-end times are calibrated medians (speed.py); the per-layer
    span times are raw, and `raw.*` gives the raw medians beside them."""
    run_s = statistics.median(result["scaled"]["run"])
    if not trace:
        values = {"setup_s": (setup.median("setup"), "s"),
                  "run_s": (run_s, "s"),
                  "items_per_s": (items / run_s, "items/s"),
                  "peak_rss_mb": (result["peak_rss_mb"], "MB")}
    else:
        traced_s = statistics.median(result["traced"]["run"])
        audit = result["scaled"].get("audit", [0.0])
        values = {name: (value, _unit(name))
                  for name, value in result["layers"].items()}
        values.update({
            "audit_s": (statistics.median(audit), "s"),
            "trace.run_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - run_s, "s"),
            "raw.run_s": (statistics.median(result["raw"]["run"]), "s"),
            "raw.setup_s": (statistics.median(setup.raw["setup"]), "s"),
            "speed.calibration_s": (
                statistics.median(result["calibrations"]), "s")})
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("synth-small-packs", "monthly-csv",
                                 "online-monthly"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind like Ctrl-C: subprocess.run kills and reaps the
    # running child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "packpredict" / "__init__.py").is_file():
        _fail(f"no packpredict source at {SRC}; run inside a source checkout")
    sys.path.insert(0, str(SRC))
    import packpredict

    if Path(packpredict.__file__).resolve().parent != SRC / "packpredict":
        _fail(f"imported packpredict from {packpredict.__file__}, not {SRC}")

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as work:
        spec, flat, items = prepare(args.workload, args.seed, work)
        setup = setup_clock()
        spec.update(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace,
                    result=f"{work}/result.json")
        with open(f"{work}/spec.json", "w") as fh:
            json.dump(spec, fh)
        try:
            subprocess.run([sys.executable, str(HERE / "workload.py"),
                            f"{work}/spec.json"], env=_child_env(),
                           stdout=sys.stderr, check=True,
                           timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.CalledProcessError as e:
            _fail(f"workload process exited {e.returncode}")
        except subprocess.TimeoutExpired:
            _fail(f"workload process ran past {WORKLOAD_TIMEOUT_S} s")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        errors = check_outputs(args.workload, spec, flat, result)

    metrics = metrics_of(result, setup, items, bool(args.trace))
    for name, probe in result["probes"].items():
        print(f"probe {name}: {'rejected' if probe[0] else 'FAILED'} ({probe[1]})")
    print(f"versions: {json.dumps(versions())}")
    print(f"items per repetition: {items}")
    for label, times in (("setup", setup.raw["setup"]),
                         *result["raw"].items()):
        print(f"raw {label}_s: {[round(t, 4) for t in times]}")
    print(f"calibrations, setup and workload: "
          f"{[round(t, 4) for t in setup.calibrations]} "
          f"{[round(t, 4) for t in result['calibrations']]}")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
