import json
import os
import subprocess
import sys

import pytest

from packpredict.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_20.csv")


class TestSynth:
    def test_table_output(self, capsys):
        code = main(["synth", "--experts", "3", "--trials", "10",
                     "--seed", "7", "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aap-incremental" in out and "ok" in out

    def test_json_deterministic(self, capsys):
        argv = ["synth", "--experts", "3", "--trials", "12", "--seed", "5",
                "--algorithms", "aap-current", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema_version"] == 1
        assert payload["passed"] is True

    def test_emit_data_round_trips_through_run(self, tmp_path, capsys):
        data = str(tmp_path / "stream.csv")
        argv = ["synth", "--experts", "3", "--trials", "9", "--seed", "4",
                "--emit-data", data, "--format", "json"]
        assert main(argv) == 0
        synth_payload = json.loads(capsys.readouterr().out)
        assert main(["run", "--data", data, "--target", "target",
                     "--experts", "e1..e3", "--lower", "0", "--upper", "1",
                     "--format", "json"]) == 0
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

    def test_half_interval_rejected(self, capsys):
        code = main(["run", "--data", FIXTURE, "--target", "price",
                     "--experts", "m1,m2,m3", "--lower", "0"])
        assert code == 1


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

    def test_tampered_result_fails(self, tmp_path, capsys):
        path = self._write_result(tmp_path, capsys)
        with open(path) as fh:
            payload = json.load(fh)
        rec = payload["algorithms"][0]["records"][-1]
        rec["cumulative_loss"] += 1000.0
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert main(["audit", path]) == 2
        assert "VIOLATED" in capsys.readouterr().out

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_json(self, tmp_path, capsys):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        assert main(["audit", str(p)]) == 1
        # Valid JSON of the wrong shape is a read error too, not a traceback:
        # each case sets the value at a key path of a good result.
        with open(self._write_result(tmp_path, capsys)) as fh:
            good = fh.read()
        cases = [
            (("algorithms", 0, "records"), None),
            (("algorithms", 0, "records", 0), 1),
            (("algorithms", 0, "reports", 0, "entries", 0), 1),
            (("algorithms", 0, "reports", 0, "entries", 0, "slack"), None),
            (("algorithms", 0, "reports", 0, "entries", 0, "prefix"), 10**20),
            (("game",), [1, 2]),
            (("algorithms",), {"a": 1}),
            (("algorithms", 0, "records", -1, "expert_cumulative_losses", 0),
             "x"),
        ]
        for path, value in cases:
            payload = json.loads(good)
            node = payload
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            p.write_text(json.dumps(payload))
            assert main(["audit", str(p)]) == 1, path
            assert "cannot read result file" in capsys.readouterr().err, path


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

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency: importing the library and its
        # command line must not load it.
        code = ("import sys, packpredict, packpredict.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
