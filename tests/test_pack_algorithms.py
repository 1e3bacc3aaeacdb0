import json

import numpy as np
import pytest

from packpredict import algorithms, harness
from packpredict import (
    DivisorPolicy,
    GameSpec,
    Pack,
    PackStream,
    init_state,
    observe_pack,
    predict_pack,
    rescale_stream,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
    run_parallel,
)

from conftest import (
    INTERVALS,
    assert_matches_online,
    invariant_gap,
    make_stream,
    random_prior,
    trial_preds,
)

GAME = GameSpec(0.0, 1.0, 2.0)


class TestPackTypes:
    def test_pack_shapes(self):
        p = Pack(np.zeros((3, 2)), np.zeros(2))
        assert p.num_experts == 3 and p.size == 2

    def test_pack_validation(self):
        with pytest.raises(ValueError):
            Pack(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            Pack(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            Pack(np.zeros((3, 0)), np.zeros(0))

    def test_stream_properties(self):
        packs = [
            Pack(np.zeros((2, 3)), np.zeros(3)),
            Pack(np.ones((2, 1)) * 0.5, np.ones(1) * 0.5),
        ]
        s = PackStream(packs)
        assert len(s) == 2
        assert s.num_experts == 2
        assert s.num_items == 4
        assert s.pack_sizes == (3, 1)
        assert s.max_pack_size == 3 and s.min_pack_size == 1
        assert all(s[i] == p for i, p in enumerate(packs))
        assert list(s) == packs and s[-1] == packs[-1]
        assert len(PackStream(())) == 0

    def test_stream_rejects_mixed_expert_counts(self):
        with pytest.raises(ValueError):
            PackStream([
                Pack(np.zeros((2, 1)), np.zeros(1)),
                Pack(np.zeros((3, 1)), np.zeros(1)),
            ])

    def test_stream_equality(self):
        a = PackStream([Pack(np.full((1, 2), 0.5), np.full(2, 0.5))])
        b = PackStream([Pack(np.full((1, 2), 0.5), np.full(2, 0.5))])
        c = PackStream([Pack(np.full((1, 2), 0.5), np.full(2, 0.6))])
        assert a == b and a != c

    def test_out_of_range_values_caught_at_run(self):
        s = PackStream([Pack(np.full((1, 1), 1.5), np.full(1, 0.5))])
        with pytest.raises(ValueError):
            run_aap_current(s, GAME)
        # Three packs of two items: a bad expert prediction in trial 1 is
        # named before a bad outcome in trial 2, and is named even when an
        # earlier item of trial 1 has a bad outcome.
        preds, outcomes = np.full((2, 6), 0.5), np.full(6, 0.5)
        preds[1, 3], outcomes[4] = 1.5, -0.5
        cases = [((preds, outcomes), "trial 1: expert prediction"),
                 ((np.full((2, 6), 0.5), outcomes), "trial 2: outcome"),
                 ((preds, np.where(np.arange(6) == 2, np.nan, 0.5)),
                  "trial 1: expert prediction")]
        for (p, o), message in cases:
            s = PackStream([Pack(p[:, k:k + 2], o[k:k + 2]) for k in (0, 2, 4)])
            with pytest.raises(ValueError, match=message):
                run_aap_current(s, GAME)

    def test_record_round_trip(self, rng):
        stream = make_stream(rng, 3, 12)
        unit = make_stream(rng, 3, 12, size_min=1, size_max=1)
        equal = make_stream(rng, 3, 12, size_min=3, size_max=3)
        runs = (
            run_aa(unit, GAME), run_aap_equal(equal, 3, GAME),
            run_aap_max(stream, 7, GAME), run_aap_incremental(stream, GAME),
            run_aap_current(stream, GAME), run_parallel(stream, GAME),
            run_aap_current(PackStream(()), GAME),
        )
        for records in runs:
            rows = json.loads("".join(harness._records_parts(records, {})))
            assert [r["trial_index"] for r in rows] == list(range(len(records)))
            assert harness._read_records(rows) == records


class TestRunners:
    def test_empty_stream(self):
        empty = PackStream(())
        assert len(run_aap_incremental(empty, GAME)) == 0
        assert len(run_aap_current(empty, GAME)) == 0

    def test_runs_do_not_depend_on_memory_order(self, rng):
        # Nine experts: numpy sums eight or more adjacent values pairwise,
        # so a replay over expert-major columns would round differently.
        stream = make_stream(rng, 9, 30)
        expert_major = PackStream(
            [Pack(np.asfortranarray(p.expert_preds), p.outcomes) for p in stream])
        for runner in (run_aap_incremental, run_aap_current, run_parallel):
            assert runner(expert_major, GAME) == runner(stream, GAME)

    def test_blocks_match_one_substitution(self, rng, monkeypatch):
        # Nine experts over 2 * _REPLAY_BLOCK + 1 items: three column blocks
        # of unequal size, each summing its experts like the whole matrix.
        items = 2 * algorithms._REPLAY_BLOCK + 1
        sizes = rng.integers(1, 8, size=items)
        sizes = sizes[:np.searchsorted(np.cumsum(sizes), items) + 1]
        sizes[-1] -= sizes.sum() - items
        ends = np.cumsum(sizes)[:-1]
        preds = np.split(rng.uniform(0, 1, (9, items)), ends, axis=1)
        stream = PackStream(map(Pack, preds, np.split(rng.uniform(0, 1, items), ends)))
        runners = (lambda s, g: run_aap_max(s, 7, g), run_aap_incremental,
                   run_aap_current, run_parallel)
        blocked = [runner(stream, GAME) for runner in runners]
        monkeypatch.setattr(algorithms, "_REPLAY_BLOCK", items)
        for runner, records in zip(runners, blocked):
            np.testing.assert_array_equal(records.learner_preds,
                                          runner(stream, GAME).learner_preds)

    def test_record_bookkeeping(self, rng):
        stream = make_stream(rng, 3, 15)
        records = run_aap_incremental(stream, GAME)
        assert len(records) == 15
        assert tuple(records.pack_size.tolist()) == stream.pack_sizes
        assert np.all((records.learner_preds >= 0.0)
                      & (records.learner_preds <= 1.0))
        per_pack = [np.sum((preds - pack.outcomes) ** 2)
                    for preds, pack in zip(trial_preds(records), stream)]
        np.testing.assert_allclose(records.learner_pack_loss, per_pack,
                                   rtol=0, atol=1e-12)
        loss = records.learner_pack_loss
        np.testing.assert_allclose(records.cumulative_loss, np.cumsum(loss),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(records.cumulative_average_loss,
                                   np.cumsum(loss / records.pack_size),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            records.expert_cumulative_losses,
            np.cumsum(records.expert_pack_losses, axis=0), atol=1e-12
        )

    def test_single_expert_reproduced_exactly(self, rng):
        stream = make_stream(rng, 1, 10)
        for runner in (run_aap_incremental, run_aap_current):
            records = runner(stream, GAME)
            np.testing.assert_array_equal(
                records.learner_preds,
                np.concatenate([pack.expert_preds[0] for pack in stream])
            )
            np.testing.assert_array_equal(records.learner_pack_loss,
                                          records.expert_pack_losses[:, 0])

    def test_aap_equal_requires_constant_size(self, rng):
        stream = make_stream(rng, 2, 8, size_min=1, size_max=4)
        assert len(set(stream.pack_sizes)) > 1
        i = next(t for t, k in enumerate(stream.pack_sizes) if k != 3)
        with pytest.raises(ValueError, match=f"^trial {i} has size "
                           f"{stream.pack_sizes[i]}; aap-equal requires"):
            run_aap_equal(stream, 3, GAME)

    def test_aap_max_rejects_oversize(self, rng):
        stream = make_stream(rng, 2, 8, size_min=2, size_max=5)
        top = stream.max_pack_size
        with pytest.raises(ValueError, match=f"^trial {stream.pack_sizes.index(top)}"
                           f" has size {top}; aap-max requires"):
            run_aap_max(stream, top - 1, GAME)

    def test_run_aa_requires_single_items(self, rng):
        stream = make_stream(rng, 2, 5, size_min=2, size_max=3)
        with pytest.raises(ValueError, match=f"^trial 0 has size "
                           f"{stream.pack_sizes[0]}; aa requires single items"):
            run_aa(stream, GAME)

    def test_prior_length_mismatch(self, rng):
        stream = make_stream(rng, 3, 4)
        with pytest.raises(ValueError):
            run_aap_current(stream, GAME, prior=[0.5, 0.5])

    def test_prior_changes_predictions(self, rng):
        stream = make_stream(rng, 3, 6)
        uniform = run_aap_current(stream, GAME)
        skewed = run_aap_current(stream, GAME, prior=[0.90, 0.05, 0.05])
        assert not np.array_equal(trial_preds(uniform)[0],
                                  trial_preds(skewed)[0])


class TestCoincidence:
    def test_constant_size_protocols_agree(self, rng):
        stream = make_stream(rng, 4, 12, size_min=3, size_max=3)
        runs = [
            run_aap_equal(stream, 3, GAME),
            run_aap_max(stream, 3, GAME),
            run_aap_incremental(stream, GAME),
            run_aap_current(stream, GAME),
        ]
        base = runs[0]
        for other in runs[1:]:
            np.testing.assert_allclose(
                base.learner_preds, other.learner_preds, atol=1e-12
            )

    def test_size_one_reduces_to_classic(self, rng):
        stream = make_stream(rng, 3, 20, size_min=1, size_max=1)
        base = run_aa(stream, GAME)
        for runner in (run_aap_incremental, run_aap_current):
            other = runner(stream, GAME)
            np.testing.assert_allclose(
                base.learner_preds, other.learner_preds, atol=1e-12
            )


class TestInductionInvariants:
    """Each protocol maintains an exponential-weights invariant relating its
    own cumulative loss to the log-mixture of expert losses; the final regret
    guarantees all fall out of it, so it is checked at every prefix."""

    def test_fixed_divisor_invariant(self, rng):
        for trial in range(5):
            stream = make_stream(rng, int(rng.integers(2, 7)), 25)
            k = stream.max_pack_size
            prior = random_prior(rng, stream.num_experts)
            records = run_aap_max(stream, k, GAME, prior=prior)
            assert invariant_gap(records, GAME, prior, mode=k) >= -1e-9

    def test_running_max_invariant(self, rng):
        for trial in range(5):
            stream = make_stream(rng, int(rng.integers(2, 7)), 25)
            prior = random_prior(rng, stream.num_experts)
            records = run_aap_incremental(stream, GAME, prior=prior)
            assert invariant_gap(records, GAME, prior, "running_max") >= -1e-9

    def test_average_loss_invariant(self, rng):
        for trial in range(5):
            stream = make_stream(rng, int(rng.integers(2, 7)), 25)
            prior = random_prior(rng, stream.num_experts)
            records = run_aap_current(stream, GAME, prior=prior)
            assert invariant_gap(records, GAME, prior, "average") >= -1e-9

    def test_equal_size_invariant(self, rng):
        stream = make_stream(rng, 5, 30, size_min=4, size_max=4)
        records = run_aap_equal(stream, 4, GAME)
        prior = np.full(5, 0.2)
        assert invariant_gap(records, GAME, prior, mode=4) >= -1e-9


class TestOrderInvariance:
    def test_within_pack_permutation_keeps_losses(self, rng):
        stream = make_stream(rng, 3, 10, size_min=2, size_max=6)
        permuted = []
        for pack in stream:
            perm = rng.permutation(pack.size)
            permuted.append(Pack(pack.expert_preds[:, perm], pack.outcomes[perm]))
        shuffled = PackStream(tuple(permuted))
        for runner in (run_aap_incremental, run_aap_current):
            a = runner(stream, GAME)
            b = runner(shuffled, GAME)
            np.testing.assert_allclose(a.learner_pack_loss, b.learner_pack_loss,
                                       rtol=0, atol=1e-12)
        records = run_aap_max(stream, stream.max_pack_size, GAME)
        records_b = run_aap_max(shuffled, stream.max_pack_size, GAME)
        assert records.cumulative_loss[-1] == pytest.approx(
            records_b.cumulative_loss[-1], abs=1e-9
        )


class TestReplayMatchesOnline:
    """Each runner replays the whole stream at once; stepping the online
    learner (predict_pack, then observe_pack with the runner's divisor
    policy) pack by pack must give the same run."""

    @staticmethod
    def online(stream, game, policy, prior):
        state = init_state(prior)
        preds, totals = [], []
        for pack in stream:
            preds.append(predict_pack(state, pack.expert_preds, game))
            observe_pack(state, (pack.expert_preds - pack.outcomes) ** 2,
                         policy, game)
            totals.append(state.cumulative_losses)
        return preds, totals

    def cases(self, rng, size_min=1, size_max=7):
        """Random streams over every interval, N = 1 included, each with a
        non-uniform prior."""
        for lower, upper in INTERVALS:
            game = GameSpec.for_interval(lower, upper)
            for n in (1, 2, 5):
                unit = make_stream(rng, n, 30, size_min, size_max)
                yield (rescale_stream(unit, lower, upper), game,
                       random_prior(rng, n))

    def test_variable_size_protocols(self, rng):
        for stream, game, prior in self.cases(rng):
            k = stream.max_pack_size
            for records, policy in (
                (run_aap_max(stream, k + 1, game, prior),
                 DivisorPolicy.fixed(k + 1)),
                (run_aap_incremental(stream, game, prior),
                 DivisorPolicy.running_max()),
                (run_aap_current(stream, game, prior),
                 DivisorPolicy.current_pack()),
            ):
                assert_matches_online(
                    records, *self.online(stream, game, policy, prior),
                    stream, game)

    def test_equal_size_protocol(self, rng):
        for stream, game, prior in self.cases(rng, 3, 3):
            assert_matches_online(
                run_aap_equal(stream, 3, game, prior),
                *self.online(stream, game, DivisorPolicy.fixed(3), prior),
                stream, game)

    def test_classic_aggregation(self, rng):
        for stream, game, prior in self.cases(rng, 1, 1):
            assert_matches_online(
                run_aa(stream, game, prior),
                *self.online(stream, game, DivisorPolicy.fixed(1), prior),
                stream, game)
