import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from packpredict import (
    GameSpec,
    PackStream,
    SyntheticConfig,
    emit_report,
    generate_synthetic_stream,
    harness,
    max_mixable_eta,
    result_from_json,
    run_experiment,
    run_mixloss_game,
)
from packpredict import cli
from packpredict.cli import main
from packpredict.mixloss import LEARNERS, NATURES

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_20.csv")
# `run` on the fixture, short of its interval.
FIXTURE_RUN = ["run", "--data", FIXTURE, "--target", "price",
               "--experts", "m1,m2,m3"]
UNIT = ["--lower", "0", "--upper", "1"]


class TestSynth:
    def test_table_output(self, capsys):
        code = main(["synth", "--experts", "3", "--trials", "10",
                     "--seed", "7", "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aap-incremental" in out and "ok" in out

    def test_table_names_the_best_expert(self, capsys):
        # Under drift, the learners beat every expert; expert 3 does best.
        assert main(["synth", "--experts", "5", "--trials", "60",
                     "--drift-period", "15", "--every-prefix"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("best expert")]
        stream, game = generate_synthetic_stream(
            SyntheticConfig(num_experts=5, num_trials=60, drift_period=15))
        records = run_experiment(stream, game).algorithms[0].records
        totals = records.expert_cumulative_losses[-1]
        average = records.expert_cumulative_average_losses[-1, 3]
        assert int(np.argmin(totals)) == 3
        assert rows == [["best", "expert", "3", f"{totals[3]:.6f}",
                         f"{average:.6f}"]]
        assert rows[0][3:] == ["5.495821", "1.456549"]

    def test_json_deterministic(self, capsys):
        argv = ["synth", "--experts", "3", "--trials", "12", "--seed", "5",
                "--algorithms", "aap-current", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 2
        assert payload["passed"] is True

    def test_emit_data_round_trips_through_run(self, tmp_path, capsys):
        data = str(tmp_path / "stream.csv")
        for experts in ("3", "8"):
            argv = ["synth", "--experts", experts, "--trials", "9", "--seed", "4",
                    "--emit-data", data, "--format", "json"]
            assert main(argv) == 0
            synth_payload = json.loads(capsys.readouterr().out)
            assert main(["run", "--data", data, "--target", "target",
                         "--experts", f"e1..e{experts}", "--lower", "0",
                         "--upper", "1", "--format", "json"]) == 0
            run_payload = json.loads(capsys.readouterr().out)
            assert run_payload["algorithms"] == synth_payload["algorithms"]

    def test_eta_warning(self, capsys):
        code = main(["synth", "--trials", "6", "--eta", "10",
                     "--format", "table"])
        err = capsys.readouterr().err
        assert "warning" in err and "10" in err
        assert code in (0, 2)  # bounds may legitimately fail above the safe rate

    def test_explicit_prior(self, capsys):
        code = main(["synth", "--experts", "2", "--trials", "8", "--seed", "1",
                     "--prior", "0.8,0.2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["prior"] == [0.8, 0.2]

    def test_prior_length_mismatch(self, capsys):
        code = main(["synth", "--experts", "3", "--trials", "4",
                     "--prior", "0.5,0.5"])
        assert code == 1
        assert "prior" in capsys.readouterr().err

    def test_negative_shuffles_rejected(self, capsys):
        code = main(["synth", "--trials", "5", "--shuffles", "-2"])
        assert code == 1
        assert "shuffles" in capsys.readouterr().err

    def test_nonfinite_rate_rejected(self, capsys):
        # Bad input, not a failed guarantee: each would give NaN losses.
        for command in (["synth", "--trials", "5"], [*FIXTURE_RUN, *UNIT]):
            for flags in (["--c", "inf"], ["--eta", "inf"], ["--eta", "1e-320"]):
                code = main([*command, *flags])
                assert code == 1, (command, flags)
                assert "finite" in capsys.readouterr().err, (command, flags)

    def test_empty_stream_rejected(self, capsys, tmp_path):
        # Refused by the config, before a stream is generated or written.
        data = tmp_path / "empty.csv"
        for flags in ([], ["--prior", "1,2,3"], ["--emit-data", str(data)]):
            assert main(["synth", "--trials", "0", *flags]) == 1, flags
            assert "num_trials must be >= 1" in capsys.readouterr().err, flags
        assert not data.exists()

    def test_rescaled_interval(self, capsys):
        code = main(["synth", "--experts", "2", "--trials", "6", "--seed", "2",
                     "--lower", "10", "--upper", "20", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["game"]["lower"] == 10.0
        assert payload["game"]["upper"] == 20.0
        assert payload["game"]["eta"] == pytest.approx(0.02)
        assert payload["passed"] is True


class TestRun:
    def test_fixture_table(self, capsys):
        code = main(["run", "--data", FIXTURE, "--target", "price",
                     "--experts", "m1,m2,m3", "--lower", "0", "--upper", "1",
                     "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "5 packs, 20 items, 3 experts" in out

    def test_expert_range_shorthand(self, capsys):
        code = main(["run", "--data", FIXTURE, "--target", "price",
                     "--experts", "m1..m3", "--order-col", "ord",
                     "--calibration-packs", "2", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == \
            "trial,pack_size,aap-max,aap-incremental,aap-current,parallel"
        assert len(out.strip().splitlines()) == 1 + 5

    def test_cell_reader_writes_the_same_bytes(self, tmp_path, monkeypatch):
        def run(out):
            assert main(["run", "--data", FIXTURE, "--target", "price",
                         "--experts", "m1..m3", "--order-col", "ord",
                         "--calibration-packs", "2", "--shuffles", "2",
                         "--format", "json", "--out", str(out)]) == 0
            return out.read_bytes()

        read, accepted = harness._read_columns, []

        def spy(*args):
            columns = read(*args)
            accepted.append(True)
            return columns

        def refuse(*args):
            raise ValueError("bulk reader off")

        monkeypatch.setattr(harness, "_read_columns", spy)
        bulk = run(tmp_path / "bulk.json")
        assert accepted == [True]
        monkeypatch.setattr(harness, "_read_columns", refuse)
        assert run(tmp_path / "cells.json") == bulk

    def test_missing_required_flag(self, capsys):
        assert main(["run", "--data", FIXTURE]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["run", "--data", "/nonexistent.csv", "--target", "p",
                     "--experts", "a", "--lower", "0", "--upper", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_algorithm(self, capsys):
        code = main(["run", "--data", FIXTURE, "--target", "price",
                     "--experts", "m1,m2,m3", "--lower", "0", "--upper", "1",
                     "--algorithms", "boosting"])
        assert code == 1
        for names in ("aap-max,aap-max", ","):
            code = main(["run", "--data", FIXTURE, "--target", "price",
                         "--experts", "m1,m2,m3", "--lower", "0", "--upper",
                         "1", "--algorithms", names, "--format", "csv"])
            assert code == 1
            assert "at least one algorithm, each once" in capsys.readouterr().err

    def test_eta_override(self, capsys):
        # `run` and `synth` take the game's rate and constant alike.
        for command in ([*FIXTURE_RUN, *UNIT], ["synth", "--trials", "6"]):
            assert main([*command, "--eta", "0.5", "--c", "1.25",
                         "--format", "json"]) == 0, command
            game = json.loads(capsys.readouterr().out)["game"]
            assert (game["eta"], game["c"]) == (0.5, 1.25), command

    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (3e4, 8e5)])
    def test_eta_warning_boundary(self, capsys, lower, upper):
        # A rate 1e-9 above the largest safe one warns; that rate does not.
        top = max_mixable_eta(lower, upper)
        interval = ["--lower", repr(lower), "--upper", repr(upper)]
        for command in (["synth", "--trials", "3", *interval],
                        [*FIXTURE_RUN, *interval]):
            for eta, warns in ((top * (1 + 1e-9), True), (top, False)):
                assert main([*command, "--eta", repr(eta)]) == 0, command
                err = capsys.readouterr().err
                assert ("warning: eta=" in err) == warns, (command, eta, err)

    def test_half_interval_rejected(self, capsys):
        code = main(["run", "--data", FIXTURE, "--target", "price",
                     "--experts", "m1,m2,m3", "--lower", "0"])
        assert code == 1


# Bad command lines, each refused with exit 1 and this message on stderr.
# `RUN` begins a `run` command on the fixture; `{constant}` names a CSV
# whose cells are all 0.5, and `{huge}` one whose first month holds 0 and
# 1e200.
RUN = "run --data {fixture} --target price"
INTERVAL = "--lower 0 --upper 1"


class TestRefusals:
    @pytest.mark.parametrize("argv, message", [
        (f"{RUN} --experts e5..e2 {INTERVAL}", "bad column range 'e5..e2'"),
        (f"{RUN} --experts , {INTERVAL}", "no expert columns given"),
        (f"{RUN} --experts m1,m2,m3 --prior 1,x {INTERVAL}",
         "bad --prior '1,x'"),
        (f"{RUN} --experts m1,m2,m3 --calibration-packs 0",
         "calibration_packs must be >= 1"),
        (f"{RUN} --experts m1,m2,m3 --calibration-packs 6",
         "calibration_packs=6 exceeds the file's 5 months"),
        ("run --data {constant} --target target --experts e1 "
         "--calibration-packs 1",
         "calibration packs are constant at 0.5; cannot form an interval"),
        ("synth --drift-period -1", "drift_period must be >= 0"),
        ("synth --lower 1 --upper 1", "degenerate interval [1.0, 1.0]"),
        ("synth --lower=-1e308 --upper 1e308",
         "degenerate interval [-1e+308, 1e+308]"),
        ("synth --lower 0 --upper inf", "degenerate interval [0.0, inf]"),
        ("synth --lower 0 --upper 1e200 --trials 3",
         "degenerate interval [0.0, 1e+200]"),
        ("run --data {huge} --target target --experts e1 "
         "--calibration-packs 1", "degenerate interval [0.0, 1e+200]"),
        # The file is refused before the rate.
        (f"{RUN} --experts m1,nope {INTERVAL} --c inf",
         "missing columns ['nope']"),
        (f"{RUN} --experts m1,m2,m3 --calibration-packs 6 --eta inf",
         "calibration_packs=6 exceeds the file's 5 months"),
    ])
    def test_refused_with_message(self, tmp_path, capsys, argv, message):
        constant = tmp_path / "constant.csv"
        constant.write_text("month,target,e1\n2020-01,0.5,0.5\n"
                            "2020-02,0.5,0.5\n")
        huge = tmp_path / "huge.csv"
        huge.write_text("month,target,e1\n2020-01,0,1e200\n"
                        "2020-02,0.5,0.5\n")
        argv = argv.format(fixture=FIXTURE, constant=constant,
                           huge=huge).split()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestAdversary:
    def test_uniform_equality_case(self, capsys):
        code = main(["adversary", "--experts", "2", "--packs", "3,3,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "6.238325" in out
        assert "held in every pack" in out

    def test_json_payload(self, capsys):
        code = main(["adversary", "--experts", "4", "--packs", "2,3",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["forced"] is True
        assert payload["total_regret"] == pytest.approx(6.9314718055994531)
        assert len(payload["trials"]) == 2

    def test_exp_weights_learner(self, capsys):
        code = main(["adversary", "--experts", "2", "--packs", "2,2,2",
                     "--learner", "exp-weights"])
        assert code == 0
        assert "held in every pack" in capsys.readouterr().out

    def test_bad_packs(self, capsys):
        assert main(["adversary", "--packs", "two"]) == 1
        assert main(["adversary", "--packs", "0,3"]) == 1
        capsys.readouterr()
        # A list that parses is checked once, by the game.
        for packs, message in (("2,x", "bad --packs '2,x'"),
                               ("0,2", "error: pack sizes must be >= 1"),
                               (",", "error: a game needs at least one pack")):
            assert main(["adversary", "--packs", packs]) == 1
            assert capsys.readouterr().err.strip() == message

    def test_forced_is_the_ledgers(self, capsys):
        # For every learner and nature, the ledger records the names it
        # played, the JSON reads them and `forced` from it, and the exit
        # code is 2 only for an adversary short of its floor: never, for
        # the shipped learners.  Against `zero`, N >= 2 leaves the
        # learner's regret 0 below K*ln(N); N = 1 makes the floor 0.
        for learner in LEARNERS:
            for nature in NATURES:
                for experts, packs in ((1, [2, 1]), (3, [2, 2]), (4, [1, 3])):
                    run = run_mixloss_game(learner, nature, experts, packs)
                    assert (run.learner, run.nature) == (learner, nature)
                    code = main(["adversary", "--experts", str(experts),
                                 "--packs", ",".join(map(str, packs)),
                                 "--learner", learner, "--nature", nature,
                                 "--format", "json"])
                    payload = json.loads(capsys.readouterr().out)
                    assert (payload["learner"], payload["nature"],
                            payload["forced"]) == (learner, nature, run.forced)
                    assert run.forced is (nature == "adversary" or experts == 1)
                    assert code == 0, (learner, nature, experts)

    def test_unforced_adversary_exits_2(self, capsys, monkeypatch):
        # An adversary that spares every expert forces nothing: the table
        # says VIOLATED and the command exits 2, for both formats.
        monkeypatch.setitem(NATURES, "adversary", NATURES["zero"])
        assert main(["adversary", "--experts", "2", "--packs", "1"]) == 2
        assert "per-pack lower bound VIOLATED" in capsys.readouterr().out
        assert main(["adversary", "--experts", "2", "--packs", "1",
                     "--format", "json"]) == 2
        assert json.loads(capsys.readouterr().out)["forced"] is False

    def test_no_experts(self, capsys):
        for learner in ("uniform", "exp-weights"):
            assert main(["adversary", "--experts", "0",
                         "--learner", learner]) == 1
            assert (capsys.readouterr().err
                    == "error: need at least one expert\n"), learner

    # The sha256 prefixes of the table and the JSON report, and the exit
    # code.  The second holds `Infinity` tokens; the third, the sixth and
    # the last hold mix losses of -0.0, whose running totals print as 0.
    # The two JSON reports against `zero` say `"forced": false`.
    @pytest.mark.parametrize("args, table, report", [
        ("--experts 2 --packs 3,3,3", "0246b4866ecaa7a2", "2cb8cea71b250f0e"),
        ("--experts 4 --packs 2,3 --learner exp-weights",
         "819d3b8045915907", "a4e023e1bbc60bb2"),
        ("--experts 3 --packs 2,2 --learner exp-weights --nature zero",
         "8f669cde81d4181e", "3fffd1e8d2967ab8"),
        ("--experts 3 --packs 1,2,3,4,5", "3d2a932c47fbf251", "dc97ce2f6d317d5a"),
        ("--experts 5 --packs 4,1,3 --learner exp-weights",
         "d8c8572fafd345f2", "14ca0bb4857e8c25"),
        ("--experts 1 --packs 2,1", "f1fb013f542d911b", "8a3242b20525ebcc"),
        ("--experts 6 --packs 7,1,1,9,2,3,3,8 --nature zero",
         "e9b1b895d0cc44e8", "699242810e947cbf"),
    ])
    def test_output_bytes(self, capsys, args, table, report):
        for fmt, digest in (("table", table), ("json", report)):
            assert main(["adversary", *args.split(), "--format", fmt]) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest()[:16] == digest, fmt


class TestReferenceReports:
    # The sha256 prefixes of seven `synth` JSON reports, and the exit code:
    # varied pack sizes, constant sizes of 3 and of 1 (where aa and
    # aap-equal run), rescaled intervals, shuffle studies and drift.  On
    # [0, 1e-3], 81 % of the T x N values are below 1e-4, where the writer
    # takes `json.dumps`'s text over orjson's.
    @pytest.mark.parametrize("args, digest", [
        ("--experts 8 --trials 2000 --every-prefix", "ed4df16ac9e05c19"),
        ("--experts 8 --trials 2000 --lower 0 --upper 1e-3 --every-prefix",
         "9e987b94560b0bbb"),
        ("--experts 5 --trials 300 --min-pack 3 --max-pack 3 --every-prefix "
         "--shuffles 3", "cbfb2200db30a327"),
        ("--experts 4 --trials 200 --min-pack 1 --max-pack 1 --every-prefix",
         "ebcb35a095bdd458"),
        ("--experts 16 --trials 3000 --max-pack 12 --lower 5 --upper 9 "
         "--seed 4", "1af48e69e2692227"),
        ("--experts 9 --trials 500 --shuffles 3 --seed 2", "595f30937e69eb12"),
        ("--experts 6 --trials 400 --drift-period 13 --max-pack 9",
         "138f73698d2194b5"),
    ])
    def test_output_bytes(self, capsys, args, digest):
        assert main(["synth", *args.split(), "--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest()[:16] == digest

    def test_run_output_bytes(self, tmp_path, capsys):
        # `run` on a seeded CSV of dollar-scale sales: day-level stamps over
        # 30 months, rows shuffled, an `Id` column giving the order within a
        # month, and the interval calibrated on the first 3 months.
        rng = np.random.default_rng(2006)
        n = 600
        months = np.sort(rng.integers(0, 30, size=n))
        days = rng.integers(1, 29, size=n)
        prices = np.exp(rng.normal(12.0, 0.4, size=n))
        experts = prices[:, None] * np.exp(rng.normal(0.0, [0.05, 0.1, 0.2],
                                                      size=(n, 3)))
        rows = [f"{i},{2001 + m // 12}-{m % 12 + 1:02d}-{d:02d},{p:.2f},"
                + ",".join(f"{e:.2f}" for e in row)
                for i, (m, d, p, row) in enumerate(
                    zip(months.tolist(), days.tolist(), prices.tolist(),
                        experts.tolist()))]
        path = tmp_path / "sales.csv"
        path.write_text("\n".join(["Id,date,price,e1,e2,e3",
                                   *(rows[i] for i in rng.permutation(n))])
                        + "\n")
        assert main(["run", "--data", str(path), "--timestamp-col", "date",
                     "--target", "price", "--experts", "e1..e3",
                     "--order-col", "Id", "--calibration-packs", "3",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest()[:16] == "9e16c08901dc2e79"


def _synth_result():
    stream, game = generate_synthetic_stream(
        SyntheticConfig(num_experts=4, num_trials=30, seed=5))
    return run_experiment(stream, game, shuffles=2, shuffle_seed=5,
                          every_prefix=True)


def _run_result():
    stream, loaded = harness.load_pack_csv(harness.DatasetSpec(
        FIXTURE, "month", "price", ("m1", "m2", "m3"), clip_lower=0.0,
        clip_upper=1.0))
    game = GameSpec.for_interval(loaded.lower, loaded.upper)
    return run_experiment(stream, game, every_prefix=True)


# `synth` and `run` arguments, each with the result they report.
WRITTEN = {
    "synth": (["synth", "--experts", "4", "--trials", "30", "--seed", "5",
               "--shuffles", "2", "--every-prefix"], _synth_result),
    "run": ([*FIXTURE_RUN, *UNIT, "--every-prefix"], _run_result),
}


class TestReportWriter:
    """`synth` and `run` write their report as it is made, a run at a time,
    with the bytes `emit_report` joins, and refuse before opening `--out`."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    @pytest.mark.parametrize("command", sorted(WRITTEN))
    def test_out_and_stdout_are_the_report(self, tmp_path, capsys, command,
                                           fmt):
        argv, result = WRITTEN[command]
        report = emit_report(result(), fmt).encode()
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == report
        out = tmp_path / "report"
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == report

    def test_write_holds_less_than_the_report(self, tmp_path):
        # After the run, writing the reference-size JSON report holds one
        # run's text at a time, so the traced peak stays below the size of
        # the report; joining the whole text and then encoding it holds
        # twice that.
        stream, game = generate_synthetic_stream(SyntheticConfig(8, 2000))
        result = run_experiment(stream, game, every_prefix=True)
        out = tmp_path / "r.json"
        args = cli.build_parser().parse_args(
            ["synth", "--format", "json", "--out", str(out)])
        tracemalloc.start()
        try:
            assert cli._report(result, args) == cli.EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size

    @pytest.mark.parametrize("existing", [True, False])
    def test_refused_report_leaves_out_as_it_was(self, tmp_path, capsys,
                                                monkeypatch, existing):
        # A value holding the records' placeholder is refused by the writer:
        # an existing `--out` keeps its bytes, and no file is made.
        def placeholder_run(*args, **kwargs):
            result = run_experiment(*args, **kwargs)
            a = result.algorithms[0]
            report = dataclasses.replace(a.reports[0], algorithm="\0records")
            return dataclasses.replace(result, algorithms=(
                dataclasses.replace(a, reports=(report,)),
                *result.algorithms[1:]))

        monkeypatch.setattr(cli, "run_experiment", placeholder_run)
        out = tmp_path / "r.json"
        if existing:
            out.write_bytes(b"an earlier report\n")
        argv, _ = WRITTEN["synth"]
        assert main([*argv, "--format", "json", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "a value of the report holds" in captured.err
        assert (out.read_bytes() == b"an earlier report\n" if existing
                else not out.exists())
        assert main([*argv, "--format", "json"]) == 1
        assert capsys.readouterr().out == ""


def last_pack_to_one(losses):
    """Losses with the last pack's set to 1, within k (B - A)^2 on [0, 1]."""
    losses[-1] = 1.0
    return losses


class TestAudit:
    def _write_result(self, tmp_path, capsys, *extra):
        out = str(tmp_path / "result.json")
        argv = ["synth", "--experts", "3", "--trials", "10", "--seed", "6",
                "--format", "json", "--out", out, *extra]
        assert main(argv) == 0
        capsys.readouterr()
        return out

    def test_clean_result_passes(self, tmp_path, capsys):
        path = self._write_result(tmp_path, capsys)
        assert main(["audit", path]) == 0
        assert "all guarantees hold" in capsys.readouterr().out

    def test_every_prefix(self, tmp_path, capsys):
        path = self._write_result(tmp_path, capsys)
        assert main(["audit", path, "--every-prefix"]) == 0
        out = capsys.readouterr().out
        assert "checks=30" in out  # 10 prefixes x 3 experts

    @staticmethod
    def _forge(path, **edits):
        """Give the first run of a result file the records `edit(old)` for
        each `field=edit`, written by the records' writer, and rewrite its
        totals to match: a forgery the file itself cannot give away."""
        with open(path) as fh:
            payload = json.load(fh)
        run = payload["algorithms"][0]
        records = harness._read_records(run["records"])
        records = dataclasses.replace(records, **{
            field: edit(getattr(records, field)) for field, edit in edits.items()})
        shared = harness._json_trials(records, harness._SHARED_COLUMNS)
        run["records"] = json.loads("".join(harness._records_parts(records, shared)))
        run["total_loss"] = float(records.cumulative_loss[-1])
        run["total_average_loss"] = float(records.cumulative_average_loss[-1])
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @staticmethod
    def _full_losses(path):
        """Each pack's largest possible loss on [0, 1]: its size."""
        with open(path) as fh:
            return np.array(json.load(fh)["pack_sizes"], dtype=float)

    def test_tampered_result_fails(self, tmp_path, capsys):
        # A learner that loses every item in full: possible records, but no
        # guarantee allows them.
        path = self._write_result(tmp_path, capsys)
        full = self._full_losses(path)
        self._forge(path, learner_pack_loss=lambda loss: full)
        assert main(["audit", path]) == 2
        assert "VIOLATED" in capsys.readouterr().out

    def test_names_where_the_bound_is_tightest(self, tmp_path, capsys):
        # The audit text names the expert and prefix of each minimum slack.
        # A learner that loses every item in full up to trial 5 (at least 4
        # per pack) and nothing after is tightest there, as the experts'
        # losses then only add slack; a final-only file is audited at prefix
        # 10 unless asked for more.
        path = self._write_result(tmp_path, capsys)
        full = self._full_losses(path)

        def full_to_trial_5(loss):
            loss[:5] = full[:5]
            loss[5:] = 0.0
            return loss

        self._forge(path, learner_pack_loss=full_to_trial_5)
        assert main(["audit", path]) == 2
        first = capsys.readouterr().out.splitlines()[0]
        assert "FAIL" in first and "prefix 10" in first
        assert main(["audit", path, "--every-prefix"]) == 2
        first = capsys.readouterr().out.splitlines()[0]
        assert "checks=30" in first and "prefix 5" in first

    @pytest.mark.parametrize("field, edit", [
        ("learner_pack_loss", lambda loss: loss - 5.0),
        ("expert_pack_losses", lambda losses: losses - 5.0),
        ("learner_preds", lambda preds: preds + 7.0),
        pytest.param("learner_pack_loss", lambda loss: loss * 1e6 + 10,
                     id="learner_pack_loss-above_k"),
        pytest.param("expert_pack_losses", lambda losses: losses * 1e6 + 10,
                     id="expert_pack_losses-above_k"),
        pytest.param("expert_pack_losses", last_pack_to_one,
                     id="expert_pack_losses-one_run_alone"),
    ])
    def test_impossible_records_refused(self, tmp_path, capsys, field, edit):
        # Predictions lie in the game's interval [0, 1], a pack of k items
        # loses a sum of k squares, each in [0, 1], and every run sees the
        # same experts (so the first run's raised expert losses, within the
        # loss bound, are given away by the others).  A file that says
        # otherwise is a read error, however consistently it was forged.
        path = self._write_result(tmp_path, capsys)
        self._forge(path, **{field: edit})
        assert main(["audit", path]) == 1
        err = capsys.readouterr().err
        assert "cannot read result file" in err and field in err

    def test_losses_at_the_bound_read(self, tmp_path, capsys):
        # Experts at A and outcomes at B: every item loses exactly (B - A)^2,
        # and on this interval packs of 12 to 16 items sum to more than
        # k (B - A)^2 as computed, in the last bit.  Such a report reads.
        lower, upper = -3.3, 7.9
        sizes = [1, 2, 12, 13, 15, 16, 40]
        stream = PackStream(np.full((3, sum(sizes)), lower),
                            np.full(sum(sizes), upper), sizes)
        result = run_experiment(stream, GameSpec.for_interval(lower, upper))
        losses = result.algorithms[0].records.expert_pack_losses
        assert (losses[:, 0] > np.array(sizes) * (upper - lower) ** 2).any()
        path = tmp_path / "bound.json"
        path.write_text(emit_report(result, "json"))
        assert main(["audit", str(path)]) == 0
        assert result_from_json(path.read_text()) == result

    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (3e4, 8e5)])
    def test_pack_loss_past_the_bound_refused(self, tmp_path, capsys, lower,
                                              upper):
        # Each pack's learner loss forged to k (B - A)^2 (1 + 1e-9), past
        # the most a pack of k items can lose: a read error naming the
        # field, on the unit interval and on a wide one.
        path = self._write_result(tmp_path, capsys, "--lower", str(lower),
                                  "--upper", str(upper))
        past = self._full_losses(path) * (upper - lower) ** 2 * (1 + 1e-9)
        self._forge(path, learner_pack_loss=lambda loss: past)
        assert main(["audit", path]) == 1
        err = capsys.readouterr().err
        assert "cannot read result file" in err and "learner_pack_loss" in err

    def test_bool_pack_size_refused(self, tmp_path, capsys):
        # A one-item pack whose record's pack_size is written `true`: a
        # bool is no JSON integer, though it would read as 1.
        path = self._write_result(tmp_path, capsys, "--max-pack", "1")
        with open(path) as fh:
            payload = json.load(fh)
        payload["algorithms"][0]["records"][0]["pack_size"] = True
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert main(["audit", path]) == 1
        err = capsys.readouterr().err
        assert "cannot read result file" in err and "pack_size:" in err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_deeply_nested_file(self, tmp_path, capsys):
        # Past its nesting limit `json.loads` raises RecursionError: a read
        # error too, not a traceback.
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["audit", str(p)]) == 1
        assert "cannot read result file" in capsys.readouterr().err

    def test_big_shuffle_seed_round_trips(self, tmp_path, capsys):
        # --seed takes any integer; the file keeps it exactly, past int64.
        seed = 2 ** 64 + 1
        path = self._write_result(tmp_path, capsys, "--shuffles", "2",
                                  "--seed", str(seed))
        with open(path) as fh:
            assert result_from_json(fh.read()).shuffle.seed == seed
        assert main(["audit", path]) == 0

    def test_verdicts_stay_advisory(self, tmp_path, capsys):
        # Stored verdicts are re-derived, so editing them is no read error.
        path = self._write_result(tmp_path, capsys)
        with open(path) as fh:
            payload = json.load(fh)
        payload["passed"] = False
        payload["algorithms"][0]["reports"][0]["min_slack"] = -3.0
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert main(["audit", path]) == 0

    def test_corrupt_json(self, tmp_path, capsys):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        assert main(["audit", str(p)]) == 1
        p.write_text("[1]")
        assert main(["audit", str(p)]) == 1
        assert "schema_version" in capsys.readouterr().err
        # Valid JSON of the wrong shape is a read error too, not a traceback:
        # each case sets the value at a key path of a good result.
        with open(self._write_result(tmp_path, capsys, "--shuffles", "2")) as fh:
            good = fh.read()
        # A callable value maps the old value to the new one; `drop` deletes
        # the key.
        shorten = lambda v: v[:-1]  # noqa: E731
        drop = object()

        def audit_edited(path, value):
            """Audit the good result edited at key path `path`: a read error,
            whose message is returned."""
            payload = json.loads(good)
            node = payload
            for key in path[:-1]:
                node = node[key]
            if value is drop:
                del node[path[-1]]
            else:
                node[path[-1]] = value(node[path[-1]]) if callable(value) else value
            p.write_text(json.dumps(payload))
            assert main(["audit", str(p)]) == 1, path
            err = capsys.readouterr().err
            assert "cannot read result file" in err, path
            return err

        cases = [
            (("algorithms", 0, "records"), None),
            (("algorithms", 0, "records", 0), 1),
            (("algorithms", 0, "reports", 0, "every_prefix"), 1),
            (("algorithms", 0, "reports", 0, "every_prefix"), "yes"),
            (("algorithms", 0, "reports", 0, "entries"), []),
            (("game",), [1, 2]),
            (("algorithms",), {"a": 1}),
            (("algorithms", 0, "records", -1, "expert_cumulative_losses", 0),
             "x"),
            # Coerced or self-inconsistent values.
            (("algorithms", 0, "records"), shorten),
            (("algorithms", 0, "records"), []),
            (("pack_sizes",), shorten),
            (("algorithms", 0, "records", 0, "pack_size"), 3.7),
            (("algorithms", 0, "records", 0, "trial_index"), 99),
            (("algorithms", 0, "records", 0, "learner_preds"), shorten),
            (("algorithms", 0, "records", 0, "expert_pack_losses"), shorten),
            (("algorithms", 0, "records", 0, "cumulative_loss"), True),
            (("algorithms", 0, "reports", 0, "passed"), "yes"),
            (("algorithms", 0, "params", "pack_size"), 7.5),
            (("game", "eta"), "2"),
            (("prior",), [1, 0, 0]),
            (("shuffle", "seed"), 3.7),
            (("shuffle", "seed"), "7"),
            (("shuffle", "num_shuffles"), True),
            (("shuffle", "num_shuffles"), 3),
            (("shuffle", "losses"), ["1.5", "2.5"]),
            (("shuffle", "mean"), "0.1"),
            (("shuffle", "mean"), 99.0),
            (("shuffle", "min"), -5.0),
            # Fields that contradict the rest of the file.
            (("num_experts",), 7),
            (("num_trials",), 11),
            (("num_items",), 999),
            (("algorithms", 0, "name"), "bogus"),
            (("algorithms", 0, "params", "pack_size"), 8),
            (("algorithms", 0, "reports", 0, "algorithm"), "aap-incremental"),
            (("algorithms", 0, "reports", 0, "metric"), "bogus"),
            (("algorithms", 0, "reports", 0, "params", "eta"), "x"),
            (("algorithms", 0, "reports", 0, "params", "c"), True),
            (("algorithms", 0, "reports", 0, "params", "pack_size"), 100),
            (("algorithms", 2, "reports"), shorten),
        ]
        for path, value in cases:
            audit_edited(path, value)
        # Each stored copy of a derived value must be the derived one, and so
        # must what it is derived from: editing either alone, or dropping a
        # total, is a read error naming the field.  So is a shuffle study
        # that is no object or null, and a top-level verdict that is missing
        # or no JSON bool (it stays advisory, as each report's).
        halve = lambda v: v / 2  # noqa: E731
        add_5 = lambda v: v + 5  # noqa: E731
        named = [
            (("algorithms", 0, "records", -1, "cumulative_loss"), halve),
            (("algorithms", 0, "records", 3, "cumulative_average_loss"), halve),
            (("algorithms", 1, "records", -1, "expert_cumulative_losses", 0),
             add_5),
            (("algorithms", 2, "records", 0,
              "expert_cumulative_average_losses", 2), halve),
            (("algorithms", 0, "records", -1, "learner_pack_loss"), add_5),
            (("algorithms", 3, "records", 4, "expert_pack_losses", 1), add_5),
            (("algorithms", 0, "total_loss"), halve),
            (("algorithms", 2, "total_average_loss"), add_5),
            (("algorithms", 0, "total_loss"), "5.0"),
            (("algorithms", 0, "total_average_loss"), True),
            (("algorithms", 0, "total_loss"), drop),
            (("algorithms", 1, "total_average_loss"), drop),
            (("shuffle", "max"), add_5),
            (("shuffle",), False),
            (("shuffle",), []),
            (("shuffle",), 0),
            (("shuffle",), drop),
            (("passed",), "yes"),
            (("passed",), 1),
            (("passed",), drop),
            (("algorithms",), []),
            # The runs of a result are audited alike: a run whose reports
            # say otherwise than the first run's, or the first against the
            # rest.
            (("algorithms", 1, "reports", 0, "every_prefix"), True),
            (("algorithms", 0, "reports", 0, "every_prefix"), True),
            # Unknown keys, outside the records and inside a trial's record.
            (("extra",), 1),
            (("algorithms", 0, "extra"), 1),
            (("algorithms", 0, "records", 0, "bogus"), 1),
            (("algorithms", 2, "records", 5, "bogus"), None),
            # A trial's record that is no object, or that lacks a key.
            (("algorithms", 0, "records", 2), 1),
            (("algorithms", 0, "records", 3, "learner_preds"), drop),
            # Numbers too large for the column's type.
            (("pack_sizes", 0), 10 ** 30),
            (("algorithms", 0, "records", 0, "pack_size"), 10 ** 30),
            (("algorithms", 0, "records", 0, "trial_index"), 10 ** 30),
            (("game", "eta"), 10 ** 400),
            (("prior", 0), 10 ** 400),
            (("algorithms", 0, "records", 0, "learner_pack_loss"), 10 ** 400),
        ]
        for path, value in named:
            field = next(k for k in reversed(path) if isinstance(k, str))
            assert field in audit_edited(path, value), path
        # Those two name their key path, as the rest of the reader does.
        for path, value, message in [
                (("algorithms", 0, "records", 2), [],
                 "algorithms.0.records.2 must be a JSON object"),
                (("algorithms", 1, "records", 3, "learner_preds"), drop,
                 "no algorithms.1.records.3.learner_preds")]:
            assert message in audit_edited(path, value), path
        # A result on no packs that still holds a run: aap-equal declares the
        # size of its first pack, aap-max its largest.
        for name in ("aap-equal", "aap-max"):
            with open(self._write_result(tmp_path, capsys, "--min-pack", "2",
                                         "--max-pack", "2", "--algorithms",
                                         name)) as fh:
                payload = json.load(fh)
            payload.update(pack_sizes=[], num_trials=0, num_items=0)
            payload["algorithms"][0]["records"] = []
            p.write_text(json.dumps(payload))
            assert main(["audit", str(p)]) == 1, name
            err = capsys.readouterr().err
            assert "cannot read result file" in err and "pack_sizes" in err, name
        # A report without its every_prefix, and a whole file of version 1.
        payload = json.loads(good)
        del payload["algorithms"][0]["reports"][0]["every_prefix"]
        p.write_text(json.dumps(payload))
        assert main(["audit", str(p)]) == 1
        assert "cannot read result file" in capsys.readouterr().err
        payload = json.loads(good)
        payload["schema_version"] = 1
        p.write_text(json.dumps(payload))
        assert main(["audit", str(p)]) == 1
        assert "schema_version 1" in capsys.readouterr().err


@functools.lru_cache(maxsize=None)
def shuffled_report() -> str:
    """A report with a shuffle study: 3 experts, 10 packs, seed 6."""
    stream, game = generate_synthetic_stream(SyntheticConfig(3, 10, seed=6))
    return emit_report(run_experiment(stream, game, shuffles=2), "json")


def key_paths(node, path=()):
    """Every key path of a JSON value, list indices included."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict)
                           else enumerate(node)):
            yield (*path, key)
            yield from key_paths(value, (*path, key))


# The key paths a reader must check: all but the records, the advisory
# verdicts and the shuffle seed (any integer).
CHECKED_PATHS = [
    path for path in key_paths(json.loads(shuffled_report()))
    if "records" not in path and path[-1] not in ("passed", "min_slack")
    and path != ("shuffle", "seed")]


class TestReaderContract:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_edit_is_refused_naming_the_key(self, tmp_path, capsys, data):
        # Shift a number by one, swap a value's type, or drop a key: the read
        # fails naming the key, or the object holding it where the edit
        # shows in a value derived from it (a shuffle loss in the mean).
        payload = json.loads(shuffled_report())
        path = data.draw(st.sampled_from(CHECKED_PATHS))
        *parents, key = path
        node = functools.reduce(lambda n, k: n[k], parents, payload)
        value = node[key]
        edits = ["swap"]
        if type(value) in (int, float) and path != ("game", "upper"):
            # Not `game.upper`: a wider interval, like the seed, contradicts
            # nothing else in the file.
            edits.append("shift")
        if isinstance(node, dict):  # a list entry (a run, a loss) is no key
            edits.append("drop")
        edit = data.draw(st.sampled_from(edits))
        if edit == "shift":
            node[key] = value + 1
        elif edit == "swap":
            node[key] = str(value) if type(value) in (int, float) else 1
        else:
            del node[key]
        p = tmp_path / "edited.json"
        p.write_text(json.dumps(payload))
        assert main(["audit", str(p)]) == 1, (path, edit)
        err = capsys.readouterr().err
        names = [k for k in path if isinstance(k, str)][-2:]
        assert "cannot read result file" in err, (path, edit)
        assert any(name in err for name in names), (path, edit, err)


@functools.lru_cache(maxsize=None)
def small_reports() -> tuple:
    """A 3-expert, 6-pack report with a shuffle study, in both prefix modes."""
    stream, game = generate_synthetic_stream(SyntheticConfig(3, 6, seed=6))
    return tuple(emit_report(run_experiment(stream, game, shuffles=2,
                                            every_prefix=every), "json")
                 for every in (False, True))


DROP = object()
# What may be written over any value, or `DROP` a key.
ODD_VALUES = (None, [], {}, "x", True, 10 ** 400, [[1]])


def reads_any(path, value) -> bool:
    """Whether a read may succeed with `value` at `path`: the verdicts are
    advisory, the shuffle seed is any integer, and a report may hold no
    shuffle study."""
    return (path[-1] in ("passed", "min_slack") or path == ("shuffle", "seed")
            or (path == ("shuffle",) and value is None))


class TestReaderErrors:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_refusal_is_a_value_error(self, tmp_path, capsys, data):
        # One edit anywhere in the report, records included: the read
        # succeeds or raises ValueError, which `audit` reports as a bad
        # file.  Any other exception is a reader bug, and shows as one.
        text = data.draw(st.sampled_from(small_reports()))
        payload = json.loads(text)
        path = data.draw(st.sampled_from(list(key_paths(payload))))
        *parents, key = path
        node = functools.reduce(lambda n, k: n[k], parents, payload)
        values = ODD_VALUES + ((DROP,) if isinstance(node, dict) else ())
        value = data.draw(st.sampled_from(values))
        if value is DROP:
            del node[key]
        else:
            node[key] = value
        edited = json.dumps(payload)
        try:
            harness._read_report(io.StringIO(edited))
        except ValueError:
            p = tmp_path / "edited.json"
            p.write_text(edited)
            assert main(["audit", str(p)]) == 1, (path, value)
            assert "cannot read result file" in capsys.readouterr().err
        else:
            # An edit to an equal value (`{}` for empty params) is none.
            unedited = edited == json.dumps(json.loads(text))
            assert unedited or reads_any(path, value), (path, value)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "packpredict.cli", "adversary",
             "--experts", "2", "--packs", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "0.693147" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "packpredict.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr

    def test_star_import_gives_the_public_names(self):
        # `__all__` is every name the package imports, and no submodule.
        import packpredict

        namespace = {}
        exec("from packpredict import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(packpredict.__all__)
        assert {"MixLossRun", "emit_adversary_report", "run_experiment",
                "SLACK_TOL"} <= namespace.keys()
        assert not {"harness", "mixloss", "types"} & namespace.keys()

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency: importing the library and its
        # command line must not load it.
        code = ("import sys, packpredict, packpredict.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
