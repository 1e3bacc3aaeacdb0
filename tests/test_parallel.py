import os
import subprocess
import sys

import numpy as np
import pytest

from packpredict import (
    GameSpec,
    PackStream,
    audit_run,
    emit_report,
    rescale_stream,
    result_from_json,
    run_aa,
    run_experiment,
    run_parallel,
    shuffle_experiment,
    shuffle_within_packs,
    uniform_prior,
)
from packpredict import bounds as bd

from conftest import (
    INTERVALS,
    assert_matches_online,
    make_stream,
    random_prior,
    step_copies,
    trial_preds,
)

GAME = GameSpec(0.0, 1.0, 2.0)


class TestEquivalences:
    def test_size_one_equals_classic(self, rng):
        stream = make_stream(rng, 3, 25, size_min=1, size_max=1)
        par = run_parallel(stream, GAME)
        base = run_aa(stream, GAME)
        np.testing.assert_array_equal(par.learner_preds, base.learner_preds)

    def test_each_copy_runs_its_own_classic_game(self, rng):
        # Copy k takes item k of every pack.  Reconstruct the subsequence
        # each copy saw and replay it as a stand-alone single-item game;
        # predictions must match bitwise.
        stream = make_stream(rng, 4, 12, size_min=1, size_max=5)
        records = run_parallel(stream, GAME)
        flat = []  # (copy, expert_preds, outcome, prediction)
        for preds, pack in zip(trial_preds(records), stream):
            for k in range(pack.num_items):
                flat.append(
                    (k, pack.expert_preds[:, k], pack.outcomes[k], preds[k])
                )
        num_copies = max(c for c, *_ in flat) + 1
        for j in range(num_copies):
            own = [(p, o, pred) for c, p, o, pred in flat if c == j]
            sub = PackStream(np.array([p for p, _, _ in own]).T,
                             [o for _, o, _ in own], np.ones(len(own), int))
            replay = run_aa(sub, GAME)
            for (_, _, pred), rr in zip(own, replay.learner_preds):
                assert rr == pred

    def test_single_expert_loss_equals_expert(self, rng):
        stream = make_stream(rng, 1, 10, size_min=1, size_max=4)
        records = run_parallel(stream, GAME)
        assert records.cumulative_loss[-1] == pytest.approx(
            records.expert_cumulative_losses[-1, 0], abs=0
        )


class TestReplayMatchesOnline:
    def test_copies_step_item_by_item(self, rng):
        # run_parallel replays every copy at once; stepping copy k through
        # item k of each pack with predict_item and observe_pack (divisor 1)
        # must give the same run.
        for lower, upper in INTERVALS:
            game = GameSpec.for_interval(lower, upper)
            for n in (1, 2, 5):
                stream = rescale_stream(make_stream(rng, n, 30), lower, upper)
                prior = random_prior(rng, n)
                packs = ((pack.expert_preds, pack.outcomes)
                         for pack in stream)
                preds, totals = [], []
                for pack_preds, copies in step_copies(packs, game, prior):
                    preds.append(pack_preds)
                    totals.append(sum(c.cumulative_losses for c in copies))
                assert_matches_online(run_parallel(stream, game, prior),
                                      preds, totals, stream, game)


class TestBound:
    def test_delay_bound_holds(self, rng):
        for _ in range(5):
            stream = make_stream(rng, int(rng.integers(2, 6)), 20)
            prior = uniform_prior(stream.num_experts)
            records = run_parallel(stream, GAME, prior)
            report = audit_run(records, bd.PARALLEL, GAME, prior,
                               every_prefix=True)
            assert report.passed, f"min slack {report.min_slack}"

    def test_two_expert_delay_four_regret(self, rng):
        # With two experts, max pack size 4, eta 2: regret vs the best
        # expert is at most (4/2) * ln 2.
        for _ in range(5):
            stream = make_stream(rng, 2, 15, size_min=1, size_max=4)
            records = run_parallel(stream, GAME)
            regret = (records.cumulative_loss[-1]
                      - min(records.expert_cumulative_losses[-1]))
            assert regret <= 2.0 * np.log(2.0) + 1e-9
            assert 2.0 * np.log(2.0) == pytest.approx(
                1.3862943611198906188, abs=1e-15
            )


class TestShuffle:
    def test_deterministic_under_seed(self, rng):
        stream = make_stream(rng, 3, 10, size_min=2, size_max=5)
        a = shuffle_experiment(stream, GAME, num_shuffles=5, seed=11)
        b = shuffle_experiment(stream, GAME, num_shuffles=5, seed=11)
        assert a == b

    def test_order_sensitivity_appears(self, rng):
        # Parallel copies is order-sensitive by construction: reshuffling
        # items inside packs moves items between copies and changes the loss.
        stream = make_stream(rng, 3, 20, size_min=2, size_max=6)
        summary = shuffle_experiment(stream, GAME, num_shuffles=10, seed=5)
        assert summary.max - summary.min > 0

    def test_size_one_stream_has_zero_spread(self, rng):
        stream = make_stream(rng, 3, 10, size_min=1, size_max=1)
        summary = shuffle_experiment(stream, GAME, num_shuffles=6, seed=2)
        assert summary.max == summary.min

    def test_single_expert_has_zero_spread(self, rng):
        stream = make_stream(rng, 1, 8, size_min=2, size_max=4)
        summary = shuffle_experiment(stream, GAME, num_shuffles=6, seed=3)
        assert summary.max == summary.min

    def test_every_shuffled_run_satisfies_bound(self, rng):
        stream = make_stream(rng, 3, 12, size_min=1, size_max=5)
        prior = uniform_prior(3)
        shuffle_rng = np.random.default_rng(7)
        for _ in range(10):
            shuffled = shuffle_within_packs(stream, shuffle_rng)
            records = run_parallel(shuffled, GAME, prior)
            report = audit_run(records, bd.PARALLEL, GAME, prior,
                               every_prefix=True)
            assert report.passed

    def test_shuffle_preserves_pack_membership(self, rng):
        stream = make_stream(rng, 2, 6, size_min=2, size_max=4)
        shuffled = shuffle_within_packs(stream, np.random.default_rng(0))
        assert shuffled.pack_sizes == stream.pack_sizes
        for a, b in zip(stream, shuffled):
            np.testing.assert_allclose(
                np.sort(a.outcomes), np.sort(b.outcomes), atol=0
            )

    def test_shuffle_matches_pack_by_pack_reference(self, rng):
        def reference(stream, rng):
            order = np.concatenate([start + rng.permutation(size)
                                    for start, size in zip(stream.starts,
                                                           stream.sizes)])
            return PackStream(stream.expert_preds[:, order],
                              stream.outcomes[order], stream.sizes)

        for size_max, seed in [(1, 0), (1, 3), (4, 1), (6, 2), (6, 9)]:
            stream = make_stream(rng, 3, 15, size_min=1, size_max=size_max)
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # the second shuffle continues the same draws
                assert shuffle_within_packs(stream, ours) == reference(stream, ref)

    def test_num_shuffles_validated(self, rng):
        stream = make_stream(rng, 2, 3)
        with pytest.raises(ValueError):
            shuffle_experiment(stream, GAME, num_shuffles=0)

    def test_script_refuses_no_shuffles(self):
        # scripts/shuffle_stability.py refuses a count below 1 as a usage
        # error (exit 2), as shuffle_experiment refuses it.
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        script = os.path.join(root, "scripts", "shuffle_stability.py")
        done = subprocess.run(
            [sys.executable, script, "--shuffles", "0"], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.endswith("error: --shuffles must be >= 1\n")

    def test_summary_round_trip(self, rng):
        stream = make_stream(rng, 2, 5, size_min=2, size_max=3)
        s = shuffle_experiment(stream, GAME, num_shuffles=4, seed=9)
        result = run_experiment(stream, GAME, shuffles=4, shuffle_seed=9)
        assert result_from_json(emit_report(result)).shuffle == s
