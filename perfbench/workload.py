"""The measured process: repeats one workload's timed operations.

Usage: python3 perfbench/workload.py SPEC_JSON

`run.py` writes the spec (workload, seed, seconds, trace flag and the paths
of the inputs it generated) and starts this script in a fresh interpreter
with packpredict's source on PYTHONPATH.  Results go to the spec's `result`
path as JSON; the outputs of the last repetition stay on disk for checking.

Each repetition is one round of the workload's operations.  Each timed
operation runs under a `speed.Clock`, which records its raw wall time and
its time scaled to a nominal host speed.  With trace on, the first half of
the time runs untraced (the baseline for the tracing overhead) and the
second half traced, both without the clock's calibration ticks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import time

import numpy as np

import packpredict as pp
from packpredict import cli

import inputs
from speed import Clock
from tracing import Tracer, layer_metrics


def price_months(months, prior, game):
    """The online adapter: price each month with the current weights, then
    fold in its outcomes with the running-max divisor.  Every call into the
    online API sits here.  Returns the prices per month and the final state."""
    state = pp.init_state(prior)
    policy = pp.DivisorPolicy.running_max()
    priced = []
    for expert_preds, outcomes in months:
        priced.append(pp.predict_pack(state, expert_preds, game))
        pp.observe_pack(state, (expert_preds - outcomes) ** 2, policy, game)
    return priced, state


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Synth:
    """`synth` writes a JSON report, then `audit --every-prefix` re-reads it."""

    def __init__(self, spec):
        self.report = spec["report"]
        self.synth_argv = inputs.synth_argv(spec["seed"], self.report)
        self.audit_argv = ["audit", self.report, "--every-prefix",
                           "--out", spec["audit_out"]]

    def rep(self, tracer, clock):
        code = clock.time("run", lambda: cli.main(self.synth_argv))
        audit_code = clock.time("audit", lambda: cli.main(self.audit_argv))
        failures = [f"{name} exited {c}" for name, c in
                    (("synth", code), ("audit", audit_code)) if c != 0]
        return {"attempted": 2,
                "failed": len(failures), "failures": failures,
                "output_sha256": _sha256(self.report)}


class MonthlyCsv:
    """`run` on the sales CSV, then the bad-input probes (untimed)."""

    def __init__(self, spec):
        self.report = spec["report"]
        self.argv = inputs.run_argv(spec["csv"], self.report)
        self.probes = spec["probes"]
        self.probe_out = spec["probe_out"]

    def _probe(self, path, line):
        """A bad cell must be rejected with exit 1 and its CSV line number."""
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(inputs.run_argv(path, self.probe_out))
        named = re.search(rf"\bline {line}\b", stderr.getvalue()) is not None
        return code == 1 and named, f"exit {code}: {stderr.getvalue().strip()}"

    def rep(self, tracer, clock):
        code = clock.time("run", lambda: cli.main(self.argv))
        failures = [f"run exited {code}"] if code != 0 else []
        if tracer is not None:
            tracer.enabled = False
        probes = {name: self._probe(path, line)
                  for name, path, line in self.probes}
        if tracer is not None:
            tracer.enabled = True
        return {"attempted": 1 + len(probes),
                "failed": len(failures) + sum(not ok for ok, _ in probes.values()),
                "failures": failures, "probes": probes,
                "output_sha256": _sha256(self.report)}


class OnlineMonthly:
    """The month-by-month online loop over a pre-built pack stream."""

    def __init__(self, spec):
        data = np.load(spec["stream"])
        preds, outcomes, sizes = data["preds"], data["outcomes"], data["sizes"]
        bounds = np.cumsum(sizes)[:-1]
        self.months = [(np.ascontiguousarray(p.T), o) for p, o in
                       zip(np.split(preds, bounds), np.split(outcomes, bounds))]
        self.game = pp.GameSpec.for_interval(float(data["lower"]),
                                             float(data["upper"]))
        self.prior = pp.uniform_prior(preds.shape[1])
        self.output = spec["online_out"]

    def rep(self, tracer, clock):
        priced, state = clock.time(
            "run", lambda: price_months(self.months, self.prior, self.game))
        preds = np.concatenate(priced)
        np.savez(self.output, preds=preds, expert_totals=state.cumulative_losses)
        digest = hashlib.sha256(preds.tobytes() + state.cumulative_losses.tobytes())
        return {"attempted": len(self.months), "failed": 0,
                "failures": [], "output_sha256": digest.hexdigest()}


WORKLOADS = {"synth-small-packs": Synth, "monthly-csv": MonthlyCsv,
             "online-monthly": OnlineMonthly}


def _repeat(workload, tracer, budget_s, ticks):
    """Run whole repetitions until `budget_s` has passed (at least one).
    Returns the repetitions and the clock that timed them."""
    reps = []
    clock = Clock(ticks=ticks)
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < budget_s:
        reps.append(workload.rep(tracer, clock))
    return reps, clock


def _peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[spec["workload"]](spec)
    seconds = spec["seconds"]
    result = {"traced": {}}
    if spec["trace"]:
        # No calibration ticks in either half: inside spans they would
        # count as layer time, and both halves must be timed alike.
        untraced, clock = _repeat(workload, None, seconds / 2, False)
        tracer = Tracer()
        tracer.install()
        traced, traced_clock = _repeat(workload, tracer, seconds / 2, False)
        result["layers"] = layer_metrics(tracer.summary(), len(traced))
        result["traced"] = traced_clock.scaled
    else:
        (untraced, clock), traced = _repeat(workload, None, seconds, True), []
    reps = untraced + traced
    result.update({
        "scaled": clock.scaled,
        "raw": clock.raw,
        "calibrations": clock.calibrations,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": sorted({f for r in reps for f in r["failures"]}),
        "probes": reps[-1].get("probes", {}),
        "output_sha256": sorted({r["output_sha256"] for r in reps}),
        "peak_rss_mb": _peak_rss_mb(),
    })
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
