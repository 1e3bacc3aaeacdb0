import json
import os

import numpy as np
import pytest

from packpredict import (
    DatasetSpec,
    ExperimentResult,
    GameSpec,
    Pack,
    PackStream,
    SyntheticConfig,
    emit_report,
    generate_synthetic_stream,
    load_pack_csv,
    rescale_stream,
    result_from_json,
    run_experiment,
    write_pack_csv,
)

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
    packs = []
    for o, a, b, c in zip(EXPECTED_OUTCOMES, EXPECTED_M1, EXPECTED_M2,
                          EXPECTED_M3):
        packs.append(Pack(np.array([a, b, c]), np.array(o)))
    return PackStream(tuple(packs))


class TestDatasetSpec:
    def test_interval_policy_exclusive(self):
        with pytest.raises(ValueError):
            fixture_spec(calibration_packs=2)  # both policies
        with pytest.raises(ValueError):
            fixture_spec(clip_lower=None, clip_upper=None)  # neither
        with pytest.raises(ValueError):
            fixture_spec(clip_upper=None)  # half a clip interval

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
        assert stream[2].size == 3

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

    def test_calibration_needs_leftover_packs(self):
        with pytest.raises(ValueError):
            load_pack_csv(fixture_spec(clip_lower=None, clip_upper=None,
                                       calibration_packs=5))

    def test_eta_override(self):
        _, game = load_pack_csv(fixture_spec(eta=0.5, c=1.25))
        assert game.eta == 0.5 and game.c == 1.25

    def test_missing_column(self, tmp_path):
        with pytest.raises(ValueError, match="missing columns"):
            load_pack_csv(fixture_spec(target_col="nope"))

    def test_bad_number_reports_line(self, tmp_path):
        # Non-finite values are rejected too, never clipped or passed on.
        p = tmp_path / "bad.csv"
        spec = DatasetSpec(path=str(p), timestamp_col="month",
                           target_col="price", expert_cols=("m1",),
                           clip_lower=0.0, clip_upper=1.0)
        for row, column in [("2006-01,oops,0.4", "price"),
                            ("2006-01,nan,0.4", "price"),
                            ("2006-01,0.5,inf", "m1"),
                            ("2006-01,0.5,-inf", "m1")]:
            p.write_text(f"month,price,m1\n2006-01,0.5,0.4\n{row}\n")
            with pytest.raises(ValueError, match=f"line 3.*{column}"):
                load_pack_csv(spec)

    def test_bad_month_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        spec = DatasetSpec(path=str(p), timestamp_col="month",
                           target_col="price", expert_cols=("m1",),
                           clip_lower=0.0, clip_upper=1.0)
        # The last file's short row has no month cell at all.
        for text in ("month,price,m1\nJanuary,0.5,0.4\n",
                     "month,price,m1\n2020-13-05,0.5,0.4\n",
                     "month,price,m1\n2020-00,0.5,0.4\n",
                     "month,price,m1\n2020-1,0.5,0.4\n",
                     "price,m1,month\n0.5,0.4\n"):
            p.write_text(text)
            with pytest.raises(ValueError, match="line 2"):
                load_pack_csv(spec)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("month,price,m1\n")
        spec = DatasetSpec(path=str(p), timestamp_col="month",
                           target_col="price", expert_cols=("m1",),
                           clip_lower=0.0, clip_upper=1.0)
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


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(num_experts=4, num_trials=15, seed=9)
        a, _ = generate_synthetic_stream(cfg)
        b, _ = generate_synthetic_stream(cfg)
        assert a == b

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
            for k in range(pack.size):
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

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(PackStream(()), GameSpec(0, 1, 2.0))

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


class TestReports:
    def _result(self, rng, **kwargs):
        stream = make_stream(rng, 3, 8, size_min=1, size_max=4)
        return run_experiment(stream, GameSpec(0, 1, 2.0), **kwargs)

    def test_json_round_trip_equal(self, rng):
        result = self._result(rng, shuffles=3, every_prefix=True)
        text = emit_report(result, "json")
        assert result_from_json(text) == result

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

    def test_unknown_format(self, rng):
        with pytest.raises(ValueError):
            emit_report(self._result(rng), "yaml")

    def test_empty_result_emits_all_formats(self):
        empty = ExperimentResult(game=GameSpec(0, 1, 2.0), prior=(1.0,),
                                 pack_sizes=(), algorithms=())
        assert emit_report(empty, "csv").strip() == "trial,pack_size"
        assert "0 packs" in emit_report(empty, "table")
        assert result_from_json(emit_report(empty, "json")) == empty

    def test_schema_version_enforced(self, rng):
        payload = json.loads(emit_report(self._result(rng), "json"))
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentResult.from_dict(payload)
