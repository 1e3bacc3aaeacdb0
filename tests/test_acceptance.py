"""Acceptance gate: the eight headline checks for this package.

Each test prints one [ACCEPTANCE n] PASS/FAIL line; run with -rP (the
default via pyproject) so the verdict lines show up in the report even when
everything passes.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

import packpredict as pp
from packpredict import bounds as bd
from packpredict.cli import main as cli_main

from conftest import make_stream, random_prior

GAME = pp.GameSpec(0.0, 1.0, 2.0)


def _verdict(num, name, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    tail = f"  ({extra})" if extra else ""
    print(f"[ACCEPTANCE {num}] {name}: {status}{tail}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_acceptance_1_admissibility_suite():
    # 1000 random (weights, predictions) instances on [0,1], eta=2, C=1:
    # substitution validity slack <= 1e-12 on a 1001-point outcome grid.
    rng = np.random.default_rng(101)
    failures = []
    start = time.perf_counter()
    for i in range(1000):
        n = int(rng.integers(1, 11))
        w = rng.dirichlet(np.ones(n))
        preds = rng.uniform(0, 1, size=n)
        gamma = pp.substitute_pack(w, preds[:, None], GAME)[0]
        slack = pp.check_substitution_validity(gamma, w, preds, GAME,
                                               grid_size=1001)
        if slack > 1e-12:
            failures.append((i, slack))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _verdict(1, "admissibility suite (1000 instances)", failures,
             f"{elapsed:.2f}s")


def test_acceptance_2_regret_bound_suite():
    # 200 random streams (N in 2..10, T <= 100, pack sizes 1..7) across all
    # five algorithms; every per-expert guarantee holds at every prefix with
    # slack >= -1e-9.
    rng = np.random.default_rng(202)
    failures = []
    start = time.perf_counter()
    for i in range(200):
        n = int(rng.integers(2, 11))
        t = int(rng.integers(10, 101))
        if i >= 190:
            size_min = size_max = 1          # unit packs: classic regime
        elif i >= 170:
            size_min = size_max = int(rng.integers(2, 8))  # constant size
        else:
            size_min, size_max = 1, 7
        stream = make_stream(rng, n, t, size_min=size_min, size_max=size_max)
        prior = random_prior(rng, n) if i % 5 == 0 else pp.uniform_prior(n)

        def check(records, algorithm, **kwargs):
            report = pp.audit_run(records, algorithm, GAME, prior,
                                  every_prefix=True, **kwargs)
            if not report.passed:
                failures.append((i, algorithm, report.min_slack))

        kmax = int(stream.sizes.max())
        check(pp.run_aap_max(stream, kmax, GAME, prior), bd.AAP_MAX,
              declared_pack_size=kmax)
        check(pp.run_aap_incremental(stream, GAME, prior), bd.AAP_INCREMENTAL)
        current = pp.run_aap_current(stream, GAME, prior)
        check(current, bd.AAP_CURRENT_AVERAGE)
        check(current, bd.AAP_CURRENT_PLAIN)
        check(pp.run_parallel(stream, GAME, prior), bd.PARALLEL)
        if size_min == size_max:
            check(pp.run_aap_equal(stream, size_min, GAME, prior),
                  bd.AAP_EQUAL, declared_pack_size=size_min)
        if size_max == 1:
            check(pp.run_aa(stream, GAME, prior), bd.AA)
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _verdict(2, "regret-bound suite (200 streams, all prefixes)", failures,
             f"{elapsed:.1f}s")


def test_acceptance_3_coincidence_checks():
    rng = np.random.default_rng(303)
    failures = []
    # Constant pack size: the four pack protocols coincide item by item.
    for i in range(20):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 6))
        stream = make_stream(rng, n, 12, size_min=k, size_max=k)
        runs = [
            pp.run_aap_equal(stream, k, GAME),
            pp.run_aap_max(stream, k, GAME),
            pp.run_aap_incremental(stream, GAME),
            pp.run_aap_current(stream, GAME),
        ]
        for alt, records in zip(("max", "incremental", "current"), runs[1:]):
            diff = np.max(np.abs(runs[0].learner_preds - records.learner_preds))
            if diff > 1e-12:
                failures.append((i, alt, diff))
    # Packs of size one: everything, parallel copies included, is classic AA.
    for i in range(10):
        n = int(rng.integers(2, 6))
        stream = make_stream(rng, n, 20, size_min=1, size_max=1)
        base = pp.run_aa(stream, GAME)
        contenders = {
            "equal": pp.run_aap_equal(stream, 1, GAME),
            "max": pp.run_aap_max(stream, 1, GAME),
            "incremental": pp.run_aap_incremental(stream, GAME),
            "current": pp.run_aap_current(stream, GAME),
            "parallel": pp.run_parallel(stream, GAME),
        }
        for name, records in contenders.items():
            diff = np.max(np.abs(base.learner_preds - records.learner_preds))
            if diff > 1e-12:
                failures.append(("unit", i, name, diff))
    _verdict(3, "protocol coincidence checks", failures)


def test_acceptance_4_pack_order_invariance():
    rng = np.random.default_rng(404)
    failures = []
    for i in range(100):
        n = int(rng.integers(2, 7))
        stream = make_stream(rng, n, 15, size_min=1, size_max=6)
        shuffled = pp.shuffle_within_packs(stream, rng)
        for name, runner in (
            ("max", lambda s: pp.run_aap_max(s, int(stream.sizes.max()), GAME)),
            ("incremental", lambda s: pp.run_aap_incremental(s, GAME)),
            ("current", lambda s: pp.run_aap_current(s, GAME)),
        ):
            a = runner(stream).cumulative_loss[-1]
            b = runner(shuffled).cumulative_loss[-1]
            rel = abs(a - b) / max(abs(a), 1e-12)
            if rel > 1e-9:
                failures.append((i, name, rel))
        # Parallel copies may change under reordering, but every shuffled
        # run must still satisfy its delay bound.
        prior = pp.uniform_prior(n)
        records = pp.run_parallel(shuffled, GAME, prior)
        report = pp.audit_run(records, bd.PARALLEL, GAME, prior,
                              every_prefix=True)
        if not report.passed:
            failures.append((i, "parallel-bound", report.min_slack))
    _verdict(4, "pack-order invariance (100 streams)", failures)


def test_acceptance_5_pack_mixability_brute_force():
    # For K <= 3, N <= 3 and outcomes on {0, 0.5, 1}: the per-item full-rate
    # substitutions jointly dominate, at rate eta/K, the exponential mixture
    # of summed pack losses — for every outcome tuple.
    rng = np.random.default_rng(505)
    failures = []
    outcomes = (0.0, 0.5, 1.0)
    for i in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        w = rng.dirichlet(np.ones(n))
        preds = rng.uniform(0, 1, size=(n, k))
        gammas = pp.substitute_pack(w, preds, GAME)
        rate = GAME.eta / k
        log_w = np.log(w)
        for tup in itertools.product(outcomes, repeat=k):
            om = np.array(tup)
            lhs = -rate * np.sum((gammas - om) ** 2)
            rhs = logsumexp(log_w - rate * np.sum((preds - om) ** 2, axis=1))
            if rhs - lhs > 1e-12:
                failures.append((i, tup, rhs - lhs))
    _verdict(5, "pack inequality brute force (K,N <= 3)", failures)


def test_acceptance_6_mixloss_lower_bound():
    failures = []
    # Uniform learner vs adversary, N=2, sizes {3,3,3}: regret exactly 9 ln 2.
    run = pp.run_mixloss_game(pp.UniformLearner(2), pp.AdversaryNature(),
                              [3, 3, 3])
    target = 9 * math.log(2)
    if abs(run.cumulative_regret[-1] - target) > 1e-9:
        failures.append(("uniform", run.cumulative_regret[-1]))
    # Exponential weights vs adversary in several configurations: per-pack
    # regret increment >= K_t ln N - 1e-9 every time.
    for n, sizes in ((2, [3] * 10), (3, [1, 2, 3, 4, 5]), (4, [2, 2, 2]),
                     (5, [4, 1, 3])):
        run = pp.run_mixloss_game(pp.ExponentialWeightsLearner(n),
                                  pp.AdversaryNature(), sizes)
        for t, (regret, bound) in enumerate(zip(run.regret_increment,
                                                run.lower_bound_increment)):
            if not regret >= bound - 1e-9:
                failures.append(("exp-weights", n, t, regret))
    # Averaging lemma: the low-product expert exists in 10^4 random tuples,
    # and the adversary spares it.
    rng = np.random.default_rng(606)
    nature = pp.AdversaryNature()
    for i in range(10_000):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2, 7))
        dists = rng.dirichlet(np.ones(n), size=k)
        n0 = int(np.flatnonzero(nature(dists)[:, 0] == 0)[0])
        if np.sum(np.log(dists[:, n0])) > -k * math.log(n) + 1e-12:
            failures.append(("product", i))
    _verdict(6, "mix-loss lower bound and averaging lemma", failures)


def test_acceptance_7_harness_round_trip(tmp_path):
    import test_harness

    failures = []
    # The 20-row fixture loads to exactly the expected stream.
    stream, game = pp.load_pack_csv(test_harness.fixture_spec())
    if stream != test_harness.expected_fixture_stream():
        failures.append("fixture stream mismatch")
    if stream.pack_sizes != (4, 6, 3, 2, 5):
        failures.append(("pack sizes", stream.pack_sizes))
    # JSON reports round-trip to an equal result.
    result = pp.run_experiment(stream, game, shuffles=3, every_prefix=True)
    if pp.result_from_json(pp.emit_report(result, "json")) != result:
        failures.append("json round trip")
    # Identical seeds give byte-identical reports, library and CLI alike.
    again = pp.run_experiment(stream, game, shuffles=3, every_prefix=True)
    if pp.emit_report(result, "json") != pp.emit_report(again, "json"):
        failures.append("library determinism")
    out_a, out_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    argv = ["synth", "--experts", "4", "--trials", "15", "--seed", "42",
            "--shuffles", "5", "--format", "json"]
    assert cli_main(argv + ["--out", out_a]) == 0
    assert cli_main(argv + ["--out", out_b]) == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        if fa.read() != fb.read():
            failures.append("cli determinism")
    _verdict(7, "harness round trip and determinism", failures)


def _write_housing_shaped_csv(path, rng):
    """A sale-price panel shaped like the public Ames data: one row per sale,
    month column, dollar-scale prices, three precomputed model columns."""
    months = [f"{y}-{m:02d}" for y in range(2006, 2011) for m in range(1, 13)]
    months = months[:55]
    rows = []
    sale_id = 1
    for month in months:
        for _ in range(int(rng.integers(5, 15))):
            price = float(np.exp(rng.normal(12.0, 0.4)))
            base = dict(
                Id=sale_id,
                MoSold=month,
                SalePrice=round(price, 2),
                pred_lr=round(price * (1 + rng.normal(0, 0.10)), 2),
                pred_rf=round(price * (1 + rng.normal(0, 0.07)), 2),
                pred_nn=round(price * (1 + rng.normal(0, 0.15)), 2),
            )
            rows.append(base)
            sale_id += 1
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def test_acceptance_8_housing_shaped_run(tmp_path, capsys):
    # Report-only: a dollar-scale monthly-pack run must produce the totals
    # table with every guarantee passing.  The loss ordering between
    # algorithms is an empirical observation, so it is printed, not asserted.
    failures = []
    rng = np.random.default_rng(808)
    data = str(tmp_path / "housing.csv")
    num_rows = _write_housing_shaped_csv(data, rng)
    out_json = str(tmp_path / "housing_result.json")
    argv = ["run", "--data", data, "--timestamp-col", "MoSold",
            "--target", "SalePrice", "--experts", "pred_lr,pred_rf,pred_nn",
            "--calibration-packs", "12", "--shuffles", "10"]
    code_table = cli_main(argv + ["--format", "table"])
    table = capsys.readouterr().out
    if code_table != 0:
        failures.append(("table exit", code_table))
    if "aap-current" not in table or "ok" not in table:
        failures.append("table missing algorithms")
    code_json = cli_main(argv + ["--format", "json", "--out", out_json])
    capsys.readouterr()
    if code_json != 0:
        failures.append(("json exit", code_json))
    if cli_main(["audit", out_json, "--every-prefix"]) != 0:
        failures.append("audit failed")
    capsys.readouterr()
    with open(out_json) as fh:
        payload = json.load(fh)
    totals = {a["name"]: a["total_loss"] for a in payload["algorithms"]}
    observed = totals["aap-current"] <= totals["aap-incremental"] \
        <= totals["aap-max"]
    extra = (f"{num_rows} rows; current<=incremental<=max ordering "
             f"{'observed' if observed else 'not observed'} (not asserted)")
    _verdict(8, "housing-shaped run (report-only)", failures, extra)
