import csv
import dataclasses
import functools
import importlib.util
import io
import itertools
import json
import os
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packpredict import (
    AlgorithmResult,
    DatasetSpec,
    ExperimentResult,
    GameSpec,
    PackStream,
    RunRecords,
    SyntheticConfig,
    emit_report,
    generate_synthetic_stream,
    load_pack_csv,
    max_mixable_eta,
    rescale_stream,
    result_from_json,
    run_experiment,
    write_pack_csv,
)
import packpredict
from packpredict import harness
from packpredict.cli import main
from packpredict.harness import ALGORITHM_CHOICES

from conftest import make_stream

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "fixture_20.csv")

# The fixture grouped by month, ordered by the `ord` column, clipped to [0,1].
EXPECTED_OUTCOMES = [
    [0.30, 0.32, 0.35, 0.28],
    [0.48, 0.52, 0.55, 0.60, 0.58, 0.62],
    [0.70, 0.75, 0.72],
    [0.42, 0.45],
    [0.85, 1.00, 0.90, 0.00, 0.65],
]
EXPECTED_M1 = [
    [0.28, 0.30, 0.33, 0.26],
    [0.45, 0.50, 0.54, 0.62, 0.56, 0.65],
    [0.72, 0.74, 0.70],
    [0.40, 0.44],
    [0.88, 0.95, 0.92, 0.05, 0.60],
]
EXPECTED_M2 = [
    [0.35, 0.31, 0.36, 0.30],
    [0.50, 0.55, 0.52, 0.58, 0.60, 0.61],
    [0.65, 0.78, 0.73],
    [0.43, 0.47],
    [0.83, 1.00, 0.89, 0.00, 0.68],
]
EXPECTED_M3 = [
    [0.20, 0.45, 0.30, 0.22],
    [0.41, 0.60, 0.58, 0.66, 0.57, 0.63],
    [0.80, 0.70, 0.75],
    [0.44, 0.40],
    [0.90, 0.99, 0.94, 0.10, 0.64],
]


def fixture_spec(**overrides):
    base = dict(
        path=FIXTURE,
        timestamp_col="month",
        target_col="price",
        expert_cols=("m1", "m2", "m3"),
        order_col="ord",
        clip_lower=0.0,
        clip_upper=1.0,
    )
    base.update(overrides)
    return DatasetSpec(**base)


def expected_fixture_stream():
    experts = (EXPECTED_M1, EXPECTED_M2, EXPECTED_M3)
    return PackStream([np.concatenate(m) for m in experts],
                      np.concatenate(EXPECTED_OUTCOMES),
                      [len(o) for o in EXPECTED_OUTCOMES])


class TestDatasetSpec:
    def test_interval_policy_exclusive(self):
        with pytest.raises(ValueError):
            fixture_spec(calibration_packs=2)  # both policies
        with pytest.raises(ValueError):
            fixture_spec(clip_lower=None, clip_upper=None)  # neither
        with pytest.raises(ValueError):
            fixture_spec(clip_upper=None)  # half a clip interval

    def test_no_expert_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one expert column"):
            fixture_spec(expert_cols=())

    def test_duplicate_experts_rejected(self):
        with pytest.raises(ValueError):
            fixture_spec(expert_cols=("m1", "m1"))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            fixture_spec(clip_lower=1.0, clip_upper=1.0)


class TestLoadPackCsv:
    def test_loads_exact_expected_stream(self):
        stream, game = load_pack_csv(fixture_spec())
        assert stream == expected_fixture_stream()
        assert stream.pack_sizes == (4, 6, 3, 2, 5)
        assert (game.lower, game.upper, game.eta, game.c) == (0.0, 1.0, 2.0, 1.0)

    def test_month_grouping_ignores_day(self):
        stream, _ = load_pack_csv(fixture_spec())
        # March rows carry full dates (2006-03-10 etc.) but land in one pack.
        assert stream[2].num_items == 3

    def test_file_order_without_order_col(self):
        stream, _ = load_pack_csv(fixture_spec(order_col=None))
        # February rows appear in the file as ord 2,1,3,4,5,6.
        np.testing.assert_allclose(
            stream[1].outcomes, [0.52, 0.48, 0.55, 0.60, 0.58, 0.62], atol=0
        )
        # April rows appear in the file as ord 2,1.
        np.testing.assert_allclose(stream[3].outcomes, [0.45, 0.42], atol=0)

    def test_values_clipped_to_interval(self):
        stream, _ = load_pack_csv(fixture_spec())
        may = stream[4]
        assert may.outcomes[1] == 1.0 and may.outcomes[3] == 0.0
        assert may.expert_preds[1, 1] == 1.0 and may.expert_preds[1, 3] == 0.0

    def test_calibration_interval_from_prefix(self):
        stream, game = load_pack_csv(
            fixture_spec(clip_lower=None, clip_upper=None, calibration_packs=2)
        )
        # First two months (Jan, Feb) span [0.20, 0.66] over targets+experts.
        assert game.lower == 0.20 and game.upper == 0.66
        assert game.eta == pytest.approx(2.0 / 0.46**2, rel=1e-12)
        # Later values collapse onto the calibrated interval.
        assert stream[4].outcomes.max() == 0.66
        assert stream[4].outcomes.min() == 0.20

    def test_calibration_on_every_month(self):
        # M equal to the file's 5 months calibrates on the whole file, and
        # the calibration months are evaluated like every other month.
        stream, game = load_pack_csv(
            fixture_spec(clip_lower=None, clip_upper=None, calibration_packs=5)
        )
        assert stream.pack_sizes == (4, 6, 3, 2, 5)
        assert game.lower == -0.10 and game.upper == 1.20
        # Nothing is clipped: May keeps its 1.20 and -0.10.
        assert stream[4].outcomes[1] == 1.20 and stream[4].outcomes[3] == -0.10

    def test_calibration_beyond_the_file_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "calibration_packs=6 exceeds the file's 5 months")):
            load_pack_csv(fixture_spec(clip_lower=None, clip_upper=None,
                                       calibration_packs=6))

    def test_missing_column(self, tmp_path):
        with pytest.raises(ValueError, match="missing columns"):
            load_pack_csv(fixture_spec(target_col="nope"))

    def test_bad_number_reports_line(self, tmp_path):
        # Non-finite values are rejected too, never clipped or passed on.
        p = tmp_path / "bad.csv"
        spec = DatasetSpec(path=str(p), timestamp_col="month",
                           target_col="price", expert_cols=("m1",),
                           clip_lower=0.0, clip_upper=1.0)
        for row, message in [
                ("2006-01,oops,0.4", "bad numeric value 'oops' in column 'price'"),
                ("2006-01,nan,0.4", "bad numeric value 'nan' in column 'price'"),
                ("2006-01,0.5,inf", "bad numeric value 'inf' in column 'm1'"),
                ("2006-01,0.5,-inf", "bad numeric value '-inf' in column 'm1'"),
                ("2006-01,0.5", "no cell for column 'm1'")]:
            p.write_text(f"month,price,m1\n2006-01,0.5,0.4\n{row}\n")
            with pytest.raises(ValueError, match=f"line 3: {message}"):
                load_pack_csv(spec)

    def test_bad_month_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        spec = DatasetSpec(path=str(p), timestamp_col="month",
                           target_col="price", expert_cols=("m1",),
                           clip_lower=0.0, clip_upper=1.0)
        # The last file's short row has no month cell at all.
        for text, message in [
                ("month,price,m1\nJanuary,0.5,0.4\n", "cannot parse month"),
                ("month,price,m1\n2020-13-05,0.5,0.4\n", "cannot parse month"),
                ("month,price,m1\n2020-00,0.5,0.4\n", "cannot parse month"),
                ("month,price,m1\n2020-1,0.5,0.4\n", "cannot parse month"),
                ("price,m1,month\n0.5,0.4\n", "no cell for column 'month'")]:
            p.write_text(text)
            with pytest.raises(ValueError, match=f"line 2: {message}"):
                load_pack_csv(spec)

    def test_empty_file(self, tmp_path):
        # np.loadtxt warns on no data; the loader must raise its own error
        # and let no warning out.
        p = tmp_path / "empty.csv"
        spec = DatasetSpec(path=str(p), timestamp_col="month",
                           target_col="price", expert_cols=("m1",),
                           clip_lower=0.0, clip_upper=1.0)
        for body in ("", "\n\n"):
            p.write_text("month,price,m1\n" + body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="no data rows"):
                    load_pack_csv(spec)

    def test_loading_twice_identical(self):
        a, _ = load_pack_csv(fixture_spec())
        b, _ = load_pack_csv(fixture_spec())
        assert a == b

    def test_write_then_load_round_trip(self, tmp_path, rng):
        stream = make_stream(rng, 3, 14)
        path = str(tmp_path / "rt.csv")
        write_pack_csv(stream, path)
        spec = DatasetSpec(path=path, timestamp_col="month",
                           target_col="target",
                           expert_cols=("e1", "e2", "e3"),
                           clip_lower=0.0, clip_upper=1.0)
        loaded, _ = load_pack_csv(spec)
        assert loaded == stream

    def test_write_refuses_more_packs_than_months(self, tmp_path):
        # Month 2000-01 + t holds pack t: 96000 packs end at 9999-12 and read
        # back; one more would need a five-digit year, so nothing is written.
        def stream(num_packs):
            return PackStream(np.linspace(0, 1, num_packs)[None, :],
                              np.zeros(num_packs), np.ones(num_packs, int))

        path = tmp_path / "long.csv"
        write_pack_csv(stream(96000), str(path))
        assert path.read_text().splitlines()[-1].startswith("9999-12,")
        spec = DatasetSpec(path=str(path), timestamp_col="month",
                           target_col="target", expert_cols=("e1",),
                           clip_lower=0.0, clip_upper=1.0)
        assert load_pack_csv(spec)[0] == stream(96000)
        path.unlink()
        with pytest.raises(ValueError, match="96001 packs.*at most 96000"):
            write_pack_csv(stream(96001), str(path))
        assert not path.exists()


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(num_experts=4, num_trials=15, seed=9)
        a, _ = generate_synthetic_stream(cfg)
        b, _ = generate_synthetic_stream(cfg)
        assert a == b

    @staticmethod
    def _reference(config):
        """The generator pack by pack, each pack's columns drawn in turn."""
        rng = np.random.default_rng(config.seed)
        sizes, preds, outcomes = [], [], []
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
                config.noise, 4.0 * config.noise)
            preds.append(latent[None, :]
                         + rng.normal(size=(config.num_experts, k)) * sigma)
            outcomes.append(latent + rng.normal(size=k) * config.noise)
            sizes.append(k)
            item += k
        return PackStream(np.clip(np.hstack(preds), 0.0, 1.0),
                          np.clip(np.concatenate(outcomes), 0.0, 1.0), sizes)

    def _assert_matches_reference(self, config):
        # Bitwise: array_equal would take -0.0 for 0.0.
        ours, game = generate_synthetic_stream(config)
        ref = self._reference(config)
        assert game == GameSpec.for_interval(0.0, 1.0)
        for column in ("expert_preds", "outcomes", "sizes"):
            a, b = getattr(ours, column), getattr(ref, column)
            assert a.shape == b.shape and a.dtype == b.dtype, (config, column)
            assert a.tobytes() == b.tobytes(), (config, column)
        assert ours.expert_preds.flags.c_contiguous
        assert ours == ref

    def test_matches_pack_by_pack_reference(self):
        for config in [
            SyntheticConfig(8, 2000, seed=1),
            SyntheticConfig(1, 200, seed=3),
            SyntheticConfig(1, 150, drift_period=7, seed=5),
            SyntheticConfig(4, 300, pack_size_min=1, pack_size_max=1, seed=2),
            SyntheticConfig(5, 300, pack_size_min=2, pack_size_max=7,
                            drift_period=17),
            # Drift periods shorter and longer than a pack.
            SyntheticConfig(3, 120, pack_size_min=4, pack_size_max=9,
                            drift_period=2, seed=8),
            SyntheticConfig(6, 120, pack_size_min=1, pack_size_max=3,
                            drift_period=40, seed=4),
            SyntheticConfig(9, 100, noise=0.0, seed=6),
            SyntheticConfig(16, 200, pack_size_max=40, drift_period=5,
                            noise=0.3),
            SyntheticConfig(3, 1),
        ]:
            self._assert_matches_reference(config)

    @given(
        num_experts=st.integers(1, 10),
        num_trials=st.integers(1, 40),
        sizes=st.tuples(st.integers(1, 9), st.integers(0, 6)),
        drift_period=st.integers(0, 12),
        noise=st.sampled_from([0.0, 0.05, 0.3, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_sweep(self, num_experts, num_trials, sizes,
                                     drift_period, noise, seed):
        self._assert_matches_reference(SyntheticConfig(
            num_experts, num_trials, sizes[0], sizes[0] + sizes[1],
            drift_period, noise, seed))

    def test_empty_stream(self, capsys):
        # No stream of no packs is generated: the config refuses it.
        for n, trials in ((1, 0), (3, 0), (8, -1)):
            with pytest.raises(ValueError, match="num_trials must be >= 1"):
                SyntheticConfig(n, trials)
        assert main(["synth", "--experts", "3", "--trials", "0"]) == 1
        assert "num_trials must be >= 1" in capsys.readouterr().err

    def test_seed_changes_stream(self):
        a, _ = generate_synthetic_stream(SyntheticConfig(3, 10, seed=1))
        b, _ = generate_synthetic_stream(SyntheticConfig(3, 10, seed=2))
        assert a != b

    def test_shapes_and_ranges(self):
        cfg = SyntheticConfig(num_experts=5, num_trials=25, pack_size_min=2,
                              pack_size_max=6, seed=0)
        stream, game = generate_synthetic_stream(cfg)
        assert len(stream) == 25
        assert stream.num_experts == 5
        assert all(2 <= k <= 6 for k in stream.pack_sizes)
        for pack in stream:
            assert game.contains(pack.expert_preds)
            assert game.contains(pack.outcomes)

    def test_drift_rotates_best_expert(self):
        cfg = SyntheticConfig(num_experts=3, num_trials=30, pack_size_min=2,
                              pack_size_max=4, drift_period=25, noise=0.03,
                              seed=11)
        stream, _ = generate_synthetic_stream(cfg)
        per_item = []
        for pack in stream:
            for k in range(pack.num_items):
                per_item.append(
                    (pack.expert_preds[:, k] - pack.outcomes[k]) ** 2
                )
        per_item = np.array(per_item)  # items x experts
        num_windows = per_item.shape[0] // 25
        for w in range(num_windows):
            window = per_item[w * 25:(w + 1) * 25]
            assert int(np.argmin(window.sum(axis=0))) == w % 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(0, 10)
        with pytest.raises(ValueError):
            SyntheticConfig(2, 10, pack_size_min=3, pack_size_max=2)
        with pytest.raises(ValueError):
            SyntheticConfig(2, 10, noise=-1)

    def test_rescale(self, rng):
        stream = make_stream(rng, 2, 5)
        scaled = rescale_stream(stream, -2.0, 6.0)
        assert scaled.pack_sizes == stream.pack_sizes
        np.testing.assert_allclose(
            scaled[0].outcomes, -2.0 + 8.0 * stream[0].outcomes, atol=1e-12
        )


class TestRunExperiment:
    def test_all_on_varying_stream(self, rng):
        stream = make_stream(rng, 3, 10, size_min=1, size_max=5)
        assert len(set(stream.pack_sizes)) > 1
        result = run_experiment(stream, GameSpec(0, 1, 2.0))
        assert [a.name for a in result.algorithms] == [
            "aap-max", "aap-incremental", "aap-current", "parallel",
        ]
        current = result.algorithms[2]
        assert [r.algorithm for r in current.reports] == [
            "aap-current-average", "aap-current-plain",
        ]
        assert result.passed

    def test_all_on_constant_stream(self, rng):
        stream = make_stream(rng, 3, 8, size_min=3, size_max=3)
        result = run_experiment(stream, GameSpec(0, 1, 2.0))
        names = [a.name for a in result.algorithms]
        assert names[0] == "aap-equal"
        assert result.algorithms[0].params == {"pack_size": 3}

    def test_all_on_unit_stream_includes_classic(self, rng):
        stream = make_stream(rng, 3, 8, size_min=1, size_max=1)
        result = run_experiment(stream, GameSpec(0, 1, 2.0))
        assert [a.name for a in result.algorithms][:2] == ["aa", "aap-equal"]

    def test_named_subset(self, rng):
        stream = make_stream(rng, 2, 6)
        result = run_experiment(stream, GameSpec(0, 1, 2.0),
                                algorithms=["aap-incremental"])
        assert [a.name for a in result.algorithms] == ["aap-incremental"]

    def test_unknown_algorithm(self, rng):
        stream = make_stream(rng, 2, 4)
        with pytest.raises(ValueError):
            run_experiment(stream, GameSpec(0, 1, 2.0), algorithms=["sgd"])

    def test_one_unknown_name_refusal(self, rng):
        # Every place a name enters refuses an unknown one alike, an
        # unhashable one too, with the choices: the selection, a result,
        # and the reader, which adds the key path.
        stream = make_stream(rng, 2, 4)
        game = GameSpec(0, 1, 2.0)
        result = run_experiment(stream, game, algorithms=["aap-max"])
        d = json.loads(emit_report(result))
        for name in ("sgd", 7, None, ["aa"], {"aa": 1}):
            message = (f"unknown algorithm {name!r}; choose from aa, "
                       f"aap-equal, aap-max, aap-incremental, aap-current, "
                       f"parallel")
            with pytest.raises(ValueError) as refused:
                run_experiment(stream, game, algorithms=[name])
            assert str(refused.value) == message
            with pytest.raises(ValueError) as refused:
                AlgorithmResult(name, result.algorithms[0].records, ())
            assert str(refused.value) == message
            d["algorithms"][0]["name"] = name
            with pytest.raises(ValueError) as refused:
                result_from_json(json.dumps(d))
            assert str(refused.value) == f"algorithms.0.name: {message}"

    def test_empty_or_repeated_selection(self, rng):
        stream = make_stream(rng, 2, 4)
        for names in ([], (), ["aap-max", "aap-current", "aap-max"]):
            with pytest.raises(ValueError, match="at least one algorithm, each once"):
                run_experiment(stream, GameSpec(0, 1, 2.0), algorithms=names)

    @pytest.mark.parametrize("sizes", [(1,) * 5, (2, 1, 4, 3, 1)])
    def test_params_of_all(self, rng, sizes):
        # What each algorithm declares and each report states, as written.
        items = sum(sizes)
        stream = PackStream(rng.uniform(0, 1, (2, items)),
                            rng.uniform(0, 1, items), sizes)
        result = run_experiment(stream, GameSpec(0, 1, 2.0))
        k, top, bottom = sizes[0], max(sizes), min(sizes)
        game = {"c": 1.0, "eta": 2.0}
        expected = [
            ("aa", {}, [("aa", game)]),
            ("aap-equal", {"pack_size": k},
             [("aap-equal", {**game, "pack_size": k})]),
            ("aap-max", {"pack_size": top},
             [("aap-max", {**game, "pack_size": top})]),
            ("aap-incremental", {},
             [("aap-incremental", {**game, "max_pack": top})]),
            ("aap-current", {},
             [("aap-current-average", game),
              ("aap-current-plain", {**game, "max_pack": top,
                                     "min_pack": bottom})]),
            ("parallel", {}, [("parallel", {**game, "max_delay": top})]),
        ]
        if top > 1:  # aa and aap-equal take single items only here
            expected = expected[2:]
        payload = json.loads(emit_report(result))
        assert [(a["name"], a["params"],
                 [(r["algorithm"], r["params"]) for r in a["reports"]])
                for a in payload["algorithms"]] == expected
        assert [(a.name, a.params) for a in result.algorithms] == [
            (name, params) for name, params, _ in expected]

    @pytest.mark.parametrize("name, sizes", [
        ("aa", (1, 1, 1)), ("aap-equal", (3, 3, 3)), ("aap-max", (2, 1, 4)),
        ("aap-incremental", (2, 1, 4)), ("aap-current", (2, 1, 4)),
        ("parallel", (2, 1, 4))])
    def test_params_are_derived_from_the_run(self, rng, name, sizes):
        # A result's params come from its name and its records' pack sizes,
        # so the writer stores what the reader derives; none is passed in,
        # and a name with no row in the table is no result.
        items = sum(sizes)
        stream = PackStream(rng.uniform(0, 1, (2, items)),
                            rng.uniform(0, 1, items), sizes)
        result = run_experiment(stream, GameSpec(0, 1, 2.0), algorithms=[name])
        a = result.algorithms[0]
        text = emit_report(result)
        assert a.params == json.loads(text)["algorithms"][0]["params"]
        assert result_from_json(text).algorithms[0].params == a.params
        with pytest.raises(TypeError):
            AlgorithmResult(name, {"pack_size": 99}, a.records, ())
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            AlgorithmResult("bogus", a.records, ())

    def test_each_run_function_called_by_name(self, rng, monkeypatch):
        # A profiler may wrap each public run_* wherever packpredict binds
        # it, as perfbench/tracing.py does; every run must go through the
        # wrapper, once per algorithm.
        modules = [m for n, m in list(sys.modules.items())
                   if n == "packpredict" or n.startswith("packpredict.")]
        calls = []
        for home, name in [("algorithms", f"run_{n}") for n in
                           ("aa", "aap_equal", "aap_max", "aap_incremental",
                            "aap_current")] + [("parallel", "run_parallel")]:
            original = getattr(sys.modules[f"packpredict.{home}"], name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
        stream = make_stream(rng, 3, 6, size_min=1, size_max=1)
        run_experiment(stream, GameSpec(0, 1, 2.0))
        assert calls == ["run_aa", "run_aap_equal", "run_aap_max",
                         "run_aap_incremental", "run_aap_current",
                         "run_parallel"]

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(PackStream(np.zeros((1, 0)), (), ()),
                           GameSpec(0, 1, 2.0))

    def test_shuffle_summary_attached(self, rng):
        stream = make_stream(rng, 3, 6, size_min=2, size_max=4)
        result = run_experiment(stream, GameSpec(0, 1, 2.0), shuffles=4,
                                shuffle_seed=3)
        assert result.shuffle is not None
        assert result.shuffle.num_shuffles == 4

    def test_negative_shuffles_rejected(self, rng):
        stream = make_stream(rng, 2, 4)
        with pytest.raises(ValueError, match="shuffles"):
            run_experiment(stream, GameSpec(0, 1, 2.0), shuffles=-2)

    def test_totals_match_records(self, rng):
        stream = make_stream(rng, 3, 9)
        result = run_experiment(stream, GameSpec(0, 1, 2.0),
                                algorithms=["aap-current"])
        alg = result.algorithms[0]
        assert alg.total_loss == alg.records.cumulative_loss[-1]
        assert alg.total_average_loss == alg.records.cumulative_average_loss[-1]


# The game intervals the writer's byte check draws: every loss is below
# 1e-4 on the first, and on the last most are 1e16 or more, numbers `json`
# writes with an exponent.
INTERVALS = [(0, 2**-17), (0, 1), (3e4, 8e5), (0, 1e9)]


def per_trial_json(result):
    """The JSON report written the plain way: the whole object, records as
    one dict per trial, through one `json.dumps`.  The report's writer must
    give the same text."""
    def records(r):
        starts = np.cumsum(r.pack_size) - r.pack_size
        return [{
            "trial_index": t,
            "pack_size": int(r.pack_size[t]),
            "learner_preds":
                r.learner_preds[starts[t]:starts[t] + r.pack_size[t]].tolist(),
            "learner_pack_loss": float(r.learner_pack_loss[t]),
            "cumulative_loss": float(r.cumulative_loss[t]),
            "cumulative_average_loss": float(r.cumulative_average_loss[t]),
            "expert_pack_losses": r.expert_pack_losses[t].tolist(),
            "expert_cumulative_losses": r.expert_cumulative_losses[t].tolist(),
            "expert_cumulative_average_losses":
                r.expert_cumulative_average_losses[t].tolist(),
        } for t in range(len(r))]

    g, s = result.game, result.shuffle
    return json.dumps({
        "schema_version": 2,
        "game": {"lower": float(g.lower), "upper": float(g.upper),
                 "eta": float(g.eta), "c": float(g.c)},
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
            "records": records(a.records),
            "reports": [{
                "algorithm": r.algorithm, "metric": r.metric,
                "params": dict(r.params), "every_prefix": r.every_prefix,
                "passed": r.passed, "min_slack": r.min_slack,
            } for r in a.reports],
        } for a in result.algorithms],
        "shuffle": None if s is None else {
            "losses": list(s.losses), "mean": s.mean, "min": s.min,
            "max": s.max, "num_shuffles": s.num_shuffles, "seed": s.seed},
    }, sort_keys=True, separators=(",", ":"))


def hand_built(*records, pack_sizes=(1, 2)):
    """A result holding the given records, as runs of aap-incremental,
    aap-current, ... with no reports; for the writer only."""
    runs = tuple(AlgorithmResult(name, r, ()) for name, r in
                 zip(("aap-incremental", "aap-current", "parallel"), records))
    return ExperimentResult(game=GameSpec(0, 1, 2.0), prior=(0.5, 0.5),
                            pack_sizes=pack_sizes, algorithms=runs)


def two_pack_records(**columns):
    """Records of packs of sizes 1 and 2 on two experts, with `columns`
    replacing the defaults."""
    return RunRecords(**{
        "pack_size": np.array([1, 2]),
        "learner_preds": np.array([0.25, 0.5, 0.75]),
        "learner_pack_loss": np.array([0.0625, 0.125]),
        "expert_pack_losses": np.array([[0.01, 0.09], [0.1, 1 / 3]]),
        **columns})


class TestReports:
    def _result(self, rng, **kwargs):
        stream = make_stream(rng, 3, 8, size_min=1, size_max=4)
        return run_experiment(stream, GameSpec(0, 1, 2.0), **kwargs)

    def test_json_round_trip_equal(self, rng):
        result = self._result(rng, shuffles=3, every_prefix=True)
        text = emit_report(result, "json")
        assert result_from_json(text) == result

    @pytest.mark.parametrize("every_prefix", [False, True])
    def test_compact_json_round_trips_every_algorithm(self, rng, every_prefix):
        # Unit packs let "all" pick every algorithm, aa and aap-equal too.
        # Reports are stored as verdicts only and rebuilt on read, also for
        # a game given in integers.
        stream = make_stream(rng, 3, 7, size_min=1, size_max=1)
        result = run_experiment(stream, GameSpec(0, 1, 2, 1),
                                every_prefix=every_prefix)
        assert [a.name for a in result.algorithms] == list(ALGORITHM_CHOICES)
        text = emit_report(result, "json")
        assert "\n" not in text
        payload = json.loads(text)
        for a in payload["algorithms"]:
            for report in a["reports"]:
                assert "entries" not in report
                assert report["every_prefix"] is every_prefix
        assert result_from_json(text) == result

    def test_read_and_rewrite_keeps_bytes_of_an_integer_game(self, rng):
        stream = make_stream(rng, 3, 5)
        text = emit_report(run_experiment(stream, GameSpec(0, 1, 2, 1)), "json")
        assert json.loads(text)["game"] == {"c": 1.0, "eta": 2.0,
                                            "lower": 0.0, "upper": 1.0}
        assert emit_report(result_from_json(text), "json") == text

    def test_json_deterministic(self, rng):
        stream = make_stream(rng, 3, 8)
        a = emit_report(run_experiment(stream, GameSpec(0, 1, 2.0)), "json")
        b = emit_report(run_experiment(stream, GameSpec(0, 1, 2.0)), "json")
        assert a == b

    def test_csv_schema(self, rng):
        result = self._result(rng)
        lines = emit_report(result, "csv").strip().splitlines()
        assert lines[0] == "trial,pack_size,aap-max,aap-incremental," \
                           "aap-current,parallel"
        assert len(lines) == 1 + result.num_trials
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[2]) == result.algorithms[0].records.cumulative_loss[0]

    def test_table_mentions_algorithms(self, rng):
        result = self._result(rng, shuffles=2)
        table = emit_report(result, "table")
        for name in ("aap-max", "aap-incremental", "aap-current", "parallel"):
            assert name in table
        assert "shuffle" in table

    def test_table_best_expert_tie(self):
        # Experts 1 and 2 tie for the least loss: the first is named.
        stream = PackStream([[0.2, 0.7], [0.4, 0.4], [0.4, 0.4]], [0.5, 0.5],
                            [1, 1])
        table = emit_report(run_experiment(stream, GameSpec(0, 1, 2.0)),
                            "table")
        rows = [line for line in table.splitlines()
                if line.startswith("best expert")]
        assert rows == [f"{'best expert 1':<18} {0.02:>14.6f} {0.02:>14.6f}"]

    def test_unknown_format(self, rng):
        with pytest.raises(ValueError):
            emit_report(self._result(rng), "yaml")

    def test_empty_result_emits_all_formats(self, rng):
        # A report holds at least one pack: the reader refuses one of no
        # packs, with or without runs, naming pack_sizes.
        payload = json.loads(emit_report(self._result(rng), "json"))
        payload.update(pack_sizes=[], num_trials=0, num_items=0)
        for runs in (payload["algorithms"], []):
            payload["algorithms"] = runs
            with pytest.raises(ValueError, match="pack_sizes"):
                result_from_json(json.dumps(payload))

    @given(
        num_experts=st.sampled_from([1, 8, 9]),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=12),
        every_prefix=st.booleans(),
        shuffles=st.integers(0, 2),
        integer_game=st.booleans(),
        interval=st.sampled_from(INTERVALS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_writer_matches_per_trial_json(self, num_experts, sizes,
                                           every_prefix, shuffles,
                                           integer_game, interval, seed):
        rng = np.random.default_rng(seed)
        items = sum(sizes)
        stream = rescale_stream(
            PackStream(rng.uniform(0, 1, (num_experts, items)),
                       rng.uniform(0, 1, items), sizes), *interval)
        ends = [int(x) if integer_game and float(x).is_integer() else x
                for x in (*interval, max_mixable_eta(*interval))]
        game = GameSpec(*ends, 1) if integer_game else GameSpec(*ends)
        result = run_experiment(stream, game, shuffles=shuffles,
                                every_prefix=every_prefix)
        assert emit_report(result, "json") == per_trial_json(result)

    def test_result_refuses_runs_of_different_streams(self):
        # A result is one stream's runs: the same pack sizes, and the same
        # expert losses to the bit (one ulp apart is another stream).  The
        # refusal names the run and the field, as a reader's does.
        base = two_pack_records()
        losses = base.expert_pack_losses.copy()
        losses[1, 1] = np.nextafter(losses[1, 1], 1.0)
        near = two_pack_records(expert_pack_losses=losses)
        other_sizes = two_pack_records(pack_size=np.array([2, 1]))
        for runs, message in [
                ((base, near), "algorithms.1: expert_pack_losses differ"),
                ((near, base), "algorithms.1: expert_pack_losses differ"),
                ((base, base, near), "algorithms.2: expert_pack_losses differ"),
                ((base, other_sizes), "algorithms.1: records do not match "
                                      "pack_sizes")]:
            with pytest.raises(ValueError, match=message):
                hand_built(*runs)
        three_experts = two_pack_records(expert_pack_losses=np.ones((2, 3)))
        with pytest.raises(ValueError, match="algorithms.0: expert_pack_losses"):
            hand_built(three_experts)

    def test_writer_writes_non_finite_numbers_as_json_does(self):
        records = two_pack_records(
            learner_preds=np.array([np.nan, 0.5, np.inf]),
            learner_pack_loss=np.array([-np.inf, 1e300]),
            expert_pack_losses=np.array([[5e-324, np.nan], [-0.0, 1e22]]))
        result = hand_built(records, records)
        text = emit_report(result, "json")
        assert "NaN" in text and "Infinity" in text
        assert text == per_trial_json(result)

    def test_writer_on_empty_results(self):
        # The smallest results: one pack of one item, on one expert, with no
        # run or with one.  A result of no run is refused when it is built,
        # and the reader refuses a file of no run, naming algorithms: its
        # report would carry a verdict on nothing.
        game = GameSpec(0, 1, 2.0)
        stream = PackStream(np.full((1, 1), 0.25), np.full(1, 0.5), [1])
        with pytest.raises(ValueError, match="algorithms"):
            ExperimentResult(game=game, prior=(1.0,), pack_sizes=(1,),
                             algorithms=())
        result = run_experiment(stream, game, algorithms="aa")
        text = emit_report(result, "json")
        assert text == per_trial_json(result)
        assert result_from_json(text) == result
        payload = json.loads(text)
        payload["algorithms"] = []
        with pytest.raises(ValueError, match="algorithms"):
            result_from_json(json.dumps(payload))

    def test_writer_memory_at_the_reference_size(self):
        # Every column is written once and the expert columns once per
        # report: the emit's peak stays within three times the text.  On
        # [0, 1e-3] most values are below 1e-4, so most are written again
        # by `json.dumps` (`harness._patched`).
        stream, _ = generate_synthetic_stream(SyntheticConfig(8, 2000))
        for interval in [(0.0, 1.0), (0.0, 1e-3)]:
            result = run_experiment(rescale_stream(stream, *interval),
                                    GameSpec.for_interval(*interval),
                                    every_prefix=True)
            tracemalloc.start()
            try:
                text = emit_report(result, "json")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * len(text), (interval, peak, len(text))

    def test_shuffle_study_of_no_losses_refused(self, rng):
        payload = json.loads(emit_report(self._result(rng, shuffles=2), "json"))
        payload["shuffle"]["losses"] = []
        with pytest.raises(ValueError, match="^shuffle.losses: no losses$"):
            result_from_json(json.dumps(payload))

    def test_records_marker_in_a_value_refused(self, rng):
        # The writer puts each run's records where the marker stands, so a
        # value that holds it would misplace them.
        result = self._result(rng)
        a = result.algorithms[0]
        report = dataclasses.replace(a.reports[0], algorithm="\0records")
        result = dataclasses.replace(result, algorithms=(
            dataclasses.replace(a, reports=(report,)), *result.algorithms[1:]))
        with pytest.raises(ValueError, match="a value of the report holds"):
            emit_report(result, "json")

    def test_schema_version_enforced(self, rng):
        payload = json.loads(emit_report(self._result(rng), "json"))
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            result_from_json(json.dumps(payload))


@functools.lru_cache(maxsize=None)
def reference_report() -> str:
    """The JSON report at the reference size: 8 experts, 2000 packs of 1 to
    7 items, all algorithms, every prefix."""
    stream, game = generate_synthetic_stream(SyntheticConfig(8, 2000))
    return emit_report(run_experiment(stream, game, every_prefix=True), "json")


@functools.lru_cache(maxsize=None)
def small_report() -> str:
    """A report of 3 experts and 6 packs, all algorithms, every prefix."""
    stream, game = generate_synthetic_stream(SyntheticConfig(3, 6, seed=6))
    return emit_report(run_experiment(stream, game, every_prefix=True), "json")


def reference_spellings() -> list:
    """The reference report, rewritten as `json.dumps` may write it, and
    with a repeated key at the top level, in a run and in a trial, each
    read as the reference report itself."""
    text = reference_report()
    payload = json.loads(text)
    first_trial = '"records":[{'
    return [
        text,
        json.dumps(payload, indent=2),
        json.dumps(payload, separators=(", ", ": ")),
        # A repeated key keeps its last value.  The first values here would
        # be refused.
        text.replace("{", '{"algorithms":[{"name":"x","records":[7]}],', 1)
        .replace('[{"name":', '[{"records":[{"bogus":1}],"name":', 1)
        .replace(first_trial, first_trial + '"pack_size":99,', 1),
    ]


def edited_trials() -> list:
    """The small report with one trial holding a long string of `},` and
    `}]` and an object with a `},` inside: under a key that a later one
    repeats, so the report reads as before, and under an unknown key, so
    it is refused.  A window that ends within them ends at no trial."""
    text = small_report()
    third = re.search(r'"pack_size":[0-9]+,"trial_index":2}', text).group()
    odd = '{"s":"%s","o":{"n":{"m":[{}]},"k":1}}' % ("},}]" * 3000)
    return [text.replace(third, f'"pack_size":{odd},{third}', 1),
            text.replace(third, f'{third[:-1]},"zz":{odd}}}', 1)]


def parse(text: str):
    """`text` parsed as a file is, a block of `_BLOCK_CHARS` at a time: the
    blocks of `harness._slices`, small ones cut in C, as the tests read
    many."""
    size = harness._BLOCK_CHARS
    if size >= 64:
        return harness._parse(harness._slices(text))
    blocks = itertools.zip_longest(*[iter(text)] * size, fillvalue="")
    return harness._parse(map("".join, blocks))


def read_outcome(text: str, parsed=None):
    """What reading `text` gives, the report's object parsed by `parsed`
    (by default a block at a time): the result and verdicts, or the type
    and message of the refusal."""
    try:
        return harness._read_parsed((parsed or parse)(text))
    except ValueError as e:
        return type(e), str(e)


def refusal(parse_text, text: str) -> tuple:
    """The place and message of the `JSONDecodeError` that refuses `text`."""
    with pytest.raises(json.JSONDecodeError) as info:
        parse_text(text)
    e = info.value
    return e.msg, e.pos, e.lineno, e.colno, str(e)


@functools.lru_cache(maxsize=None)
def split_cases() -> tuple:
    """The texts that every split into windows must read alike, each with
    what reading its `json.loads` object gives."""
    texts = reference_spellings() + edited_trials()
    cases = tuple((t, read_outcome(t, json.loads)) for t in texts)
    assert "zz" in cases[-1][1][1]  # the unknown key is what is refused
    return cases


@functools.lru_cache(maxsize=None)
def refusal_cases() -> tuple:
    """Texts that `json.loads` refuses, each with its refusal: those of
    `TestReader.test_what_json_refuses_is_refused` and of
    `test_every_truncation_refused`, two more, and truncations of a
    multi-line report."""
    text, small = reference_report(), small_report()
    pretty = json.dumps(json.loads(small), indent=2)
    bad = ["\ufeff" + text, text + "x", text + " {}", "", " ",
           text.replace(",", ", ,", 1), "[1,]", '{"a":1,}',
           *(small[:end] for end in range(0, len(small), 7)),
           *(pretty[:end] for end in range(0, len(pretty), 29))]
    return tuple((t, refusal(json.loads, t)) for t in bad)


class TestReader:
    """The reader parses a report a block at a time (`harness._parse`), as
    `json.loads` parses it and refuses it."""

    def test_any_json_spelling_reads_alike(self):
        text = reference_report()
        payload = json.loads(text)
        expected = harness._read_parsed(json.loads(text))
        first_trial = '"records":[{'
        for variant in [
                *reference_spellings()[1:3], " \t\r\n" + text + "\n\n ",
                # A repeated key keeps its last value: at the top level, in
                # a run and in a trial.  The first values here would be
                # refused.
                text.replace("{", '{"algorithms":[{"name":"x","records":[7]}],', 1),
                text.replace('[{"name":', '[{"records":[{"bogus":1}],"name":', 1),
                text.replace(first_trial, first_trial + '"pack_size":99,', 1)]:
            assert json.loads(variant) == payload
            assert harness._read_parsed(parse(variant)) == expected

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, 4096])
    def test_every_window_split_reads_alike(self, monkeypatch, block):
        # Each split of the text into windows, the trials parsed many at a
        # time or, where a `},` in a value hides where one ends, one by one.
        monkeypatch.setattr(harness, "_BLOCK_CHARS", block)
        for text, outcome in split_cases():
            assert read_outcome(text) == outcome

    def test_what_json_refuses_is_refused(self):
        # A UTF-8 BOM, trailing data, no value, a stray comma.
        text = reference_report()
        for bad in ["\ufeff" + text, text + "x", text + " {}", "", " ",
                    text.replace(",", ", ,", 1)]:
            with pytest.raises(json.JSONDecodeError):
                json.loads(bad)
            with pytest.raises(json.JSONDecodeError):
                parse(bad)
        # JSON, but a top level that is no object.
        for bad in (f"[{text}]", "1", "null"):
            with pytest.raises(ValueError, match="schema_version"):
                result_from_json(bad)

    def test_every_truncation_refused(self):
        text = small_report()
        for end in range(0, len(text), 7):
            with pytest.raises(json.JSONDecodeError):
                parse(text[:end])
            with pytest.raises(ValueError):
                result_from_json(text[:end])

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_refusals_match_json_loads(self, monkeypatch, block):
        # The same message, place, line and column as `json.loads` gives,
        # though the text before the place was dropped: in one line, over
        # many lines, and at every split of a value over two windows.
        monkeypatch.setattr(harness, "_BLOCK_CHARS", block)
        for text, outcome in refusal_cases():
            assert refusal(parse, text) == outcome

    def test_audit_names_where_json_loads_refuses(self, tmp_path, capsys):
        # `audit`'s message for a truncated multi-line file is `json.loads`'
        # on the file's text.
        text = json.dumps(json.loads(small_report()), indent=2)
        path = tmp_path / "pretty.json"
        path.write_text(text[:len(text) // 2])
        e = refusal(json.loads, text[:len(text) // 2])[-1]
        assert main(["audit", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read result file {str(path)!r}: {e}\n")

    def test_read_memory_at_the_reference_size(self, tmp_path):
        # The read holds one window of the file's text and, of its parsed
        # rows, one run's at a time: its traced peak stays below the file's
        # size, where decoding the whole file took 2.0 times it and parsing
        # the whole file at once 2.9 times.  A real file, as `audit` opens
        # it.
        path = tmp_path / "report.json"
        path.write_text(reference_report())
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with open(path) as fh:
                harness._read_report(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * size, (peak, size)

    def test_text_read_memory_at_the_reference_size(self):
        # `result_from_json` reads its text a slice at a time, as a file:
        # its traced peak above the text stays below the text's size (a
        # `StringIO` copy alone holds 4 bytes a character).
        text = reference_report()
        tracemalloc.start()
        try:
            result_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * len(text), (peak, len(text))


class TestFloatTexts:
    """`harness._float_texts` writes each float as `json.dumps` does, and
    the CSV outputs write each as `repr` does."""

    @staticmethod
    def _check(a):
        a = np.asarray(a, dtype=float)
        expected = json.dumps(a.tolist(), separators=(",", ":"))[1:-1].split(",")
        assert harness._float_texts(a) == (expected if a.size else [])

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_floats(self, values):
        self._check(values)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns(self, bits):
        self._check(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_many_values(self):
        # Random bit patterns, and magnitudes spread over every exponent
        # within [1e-4, 1e16), where the digits are orjson's own.
        rng = np.random.default_rng(2017)
        self._check(rng.integers(0, 2**64, 50_000, dtype=np.uint64,
                                 endpoint=False).view(np.float64))
        self._check(10.0 ** rng.uniform(-4, 16, 50_000))
        self._check(np.round(10.0 ** rng.uniform(0, 16, 50_000)))

    def test_notation_edges(self):
        edges = []
        for x in (1e-4, 1e16):
            edges += [x, np.nextafter(x, 0), np.nextafter(x, np.inf)]
        edges += [5e-324, np.finfo(float).max, 0.0, np.nan, np.inf]
        edges += [10.0 ** k for k in range(-6, 24)]
        edges = np.array(edges)
        self._check(np.concatenate([edges, -edges]))

    # Grouped: one text per group of consecutive values, the group's
    # values as `json.dumps` writes each, joined by commas.

    @staticmethod
    def _check_grouped(a, sizes):
        flat = [json.dumps(x) for x in np.ravel(a).tolist()]
        ends = np.cumsum(sizes).tolist()
        expected = [",".join(flat[i:j]) for i, j in zip([0, *ends[:-1]], ends)]
        assert harness._float_texts(a, sizes) == expected

    def _check_groups(self, groups):
        self._check_grouped(np.array([x for g in groups for x in g], dtype=float),
                            [len(g) for g in groups])

    @given(st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                       allow_subnormal=True),
                             min_size=1, max_size=9), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_grouped_floats(self, groups):
        self._check_groups(groups)

    @given(st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                             max_size=9), min_size=1, max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_grouped_bit_patterns(self, groups):
        values = np.array([x for g in groups for x in g], dtype=np.uint64)
        self._check_grouped(values.view(np.float64), [len(g) for g in groups])

    @given(st.integers(1, 30), st.integers(1, 9), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_grouped_rows(self, rows, columns, fortran, seed):
        # A T x N column, cut into its rows, in either memory order.
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2**64, (rows, columns), dtype=np.uint64,
                            endpoint=False)
        for a in (bits.view(np.float64), 10.0 ** rng.uniform(-8, 20, bits.shape)):
            a = np.asfortranarray(a) if fortran else a
            self._check_grouped(a, np.full(rows, columns))

    def test_grouped_odd_values_at_the_edges(self):
        # Values `json.dumps` writes again (below 1e-4 or from 1e16 up, or
        # not finite) alone, first, last, inside, and filling a group or
        # the whole column.
        odd = [np.nan, np.inf, -np.inf, 5e-324, -1e-5, 1e16, 1e300]
        normal = [0.0, -0.0, 1e-4, 0.5, -123.25]
        groups = [[x] for x in odd + normal]
        for x in odd:
            for y in normal:
                groups += [[x, y, y], [y, y, x], [x, y, x], [y, x, y], [y, x]]
        groups.append(odd)
        self._check_groups(groups)
        self._check_groups([[x] for x in odd])
        self._check_groups([odd, odd[::-1], odd[2:]])
        self._check_groups([normal, normal[::-1], [-0.0]])

    def test_grouped_many_values(self):
        # Pack-sized groups of 1 to 7 over 50k values, sparse and dense in
        # values written again.
        rng = np.random.default_rng(2017)
        sizes = rng.integers(1, 8, 12_000)
        values = 10.0 ** rng.uniform(-4.05, 4, sizes.sum())
        self._check_grouped(values, sizes)
        self._check_grouped(values * 1e-4, sizes)
        self._check_grouped(rng.integers(0, 2**64, sizes.sum(), dtype=np.uint64,
                                         endpoint=False).view(np.float64), sizes)

    @pytest.mark.parametrize("interval", [(0, 2**-17), (0, 1e9)])
    def test_csv_outputs_write_repr(self, tmp_path, interval):
        def repr_csv(header, rows):
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows([*head, *map(repr, tail)] for head, tail in rows)
            return buf.getvalue()

        rng = np.random.default_rng(7)
        stream = rescale_stream(make_stream(rng, 3, 40), *interval)
        result = run_experiment(stream, GameSpec.for_interval(*interval))
        losses = [a.records.cumulative_loss.tolist() for a in result.algorithms]
        assert emit_report(result, "csv") == repr_csv(
            ["trial", "pack_size", *(a.name for a in result.algorithms)],
            [((t, k), tail) for t, (k, *tail)
             in enumerate(zip(result.pack_sizes, *losses))])

        # A stream may hold a non-finite value, which `repr` writes as nan
        # or inf where JSON has NaN or Infinity.
        preds = stream.expert_preds.copy()
        preds[0, :3] = np.nan, np.inf, -np.inf
        for s in (stream, PackStream(preds, stream.outcomes, stream.sizes)):
            path = tmp_path / "s.csv"
            write_pack_csv(s, str(path))
            trial = np.repeat(np.arange(len(s)), s.sizes)
            assert path.read_bytes() == repr_csv(
                ["month", "target", "e1", "e2", "e3"],
                [((f"{2000 + t // 12:04d}-{t % 12 + 1:02d}",), row) for t, row
                 in zip(trial, np.column_stack([s.outcomes, s.expert_preds.T])
                        .tolist())]).encode()

    def test_csv_report_writes_non_finite_totals_as_repr(self):
        result = hand_built(two_pack_records(
            learner_pack_loss=np.array([np.inf, np.nan])))
        assert emit_report(result, "csv").splitlines()[1:] == [
            "0,1,inf", "1,2,nan"]


# The public surface: what README, scripts/ and perfbench/ use.
PUBLIC_NAMES = [
    'AggregatorState', 'AlgorithmResult', 'BoundReport',
    'DatasetSpec', 'DivisorPolicy', 'ExperimentResult',
    'GameSpec', 'MixLossRun', 'PackStream',
    'RunRecords', 'SLACK_TOL', 'ShuffleSummary', 'SyntheticConfig',
    'audit_run',
    'check_substitution_validity', 'emit_adversary_report', 'emit_report',
    'generate_synthetic_stream', 'init_state', 'load_pack_csv',
    'max_mixable_eta', 'observe_pack', 'predict_item', 'predict_pack',
    'rescale_stream', 'result_from_json', 'run_aa',
    'run_aap_current', 'run_aap_equal', 'run_aap_incremental',
    'run_aap_max', 'run_experiment', 'run_mixloss_game', 'run_parallel',
    'shuffle_experiment', 'shuffle_within_packs', 'substitute_pack',
    'uniform_prior', 'write_pack_csv',
]
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


class TestPublicSurface:
    """A cut to the surface fails here, not first in the benchmark."""

    def test_public_names(self):
        assert sorted(packpredict.__all__) == PUBLIC_NAMES

    def test_benchmark_names_resolve(self):
        # The tracer wraps each TRACED name on its defining module; its
        # file imports only sys, time and numpy, so it loads by path.
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, functions in tracing.TRACED.items():
            home = importlib.import_module(f"packpredict.{module}")
            for name in functions:
                assert callable(getattr(home, name, None)), (module, name)
        # The workload and the runner call packpredict as `pp.` and `cli.`
        # and import names from it.
        homes = {"pp": packpredict, "cli": packpredict.cli}
        for script in ("workload.py", "run.py"):
            with open(os.path.join(PERFBENCH, script)) as f:
                text = f.read()
            used = re.findall(r"\b(pp|cli)\.(\w+)", text)
            used += [("pp", name.strip()) for names in re.findall(
                r"from packpredict import ([\w, ]+)", text)
                for name in names.split(",")]
            assert used, script
            for home, name in used:
                assert hasattr(homes[home], name), (script, home, name)
        # The online workload reads the state's loss ledger.
        assert "cumulative_losses" in {
            f.name for f in dataclasses.fields(packpredict.AggregatorState)}
