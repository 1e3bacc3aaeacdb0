import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packpredict import algorithms, harness
from packpredict import (
    DivisorPolicy,
    GameSpec,
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
    ends_stream,
    invariant_gap,
    make_stream,
    noisy_streams,
    random_prior,
    step_copies,
    stress_streams,
    trial_preds,
)

GAME = GameSpec(0.0, 1.0, 2.0)


class TestPackTypes:
    def test_pack_shapes(self):
        p = PackStream(np.zeros((3, 2)), np.zeros(2), [2])
        assert p.num_experts == 3 and p.num_items == 2 and len(p) == 1

    def test_pack_validation(self):
        # Each refusal of the constructor, with its message.
        cases = [
            ((np.zeros((2, 0)), np.zeros(0), []), "at least one pack"),
            (([], [], ()), "at least one pack"),
            ((np.zeros((2, 2)), np.zeros(2), [[1, 1]]), "1-d integer array"),
            ((np.zeros((2, 2)), np.zeros(2), 2), "1-d integer array"),
            ((np.zeros((2, 2)), np.zeros(2), [1.0, 1.0]), "1-d integer array"),
            ((np.zeros((2, 2)), np.zeros(2), [True, True]), "1-d integer array"),
            ((np.zeros((2, 2)), np.zeros(2), [2, 0]), "pack 1 has size 0"),
            ((np.zeros((2, 2)), np.zeros(2), [3, -1]), "pack 1 has size -1"),
            ((np.zeros(3), np.zeros(3), [3]), "not N x items"),
            ((np.zeros((1, 2, 3)), np.zeros(3), [3]), "not N x items"),
            ((np.zeros((2, 3)), np.zeros((1, 3)), [3]), "not N x items"),
            ((np.zeros((2, 3)), np.zeros(2), [2]), "not N x items"),
            ((np.zeros((2, 3)), np.zeros(3), [1, 1]), "sum to 2, not to the 3"),
            ((np.zeros((2, 3)), np.zeros(3), [2, 2]), "sum to 4, not to the 3"),
        ]
        for columns, message in cases:
            with pytest.raises(ValueError, match=message):
                PackStream(*columns)

    def test_stream_properties(self):
        preds, outcomes = np.arange(8.0).reshape(2, 4), np.arange(4.0)
        s = PackStream(preds, outcomes, [3, 1])
        assert len(s) == 2
        assert s.num_experts == 2
        assert s.num_items == 4
        assert s.pack_sizes == (3, 1)
        assert s.sizes.max() == 3 and s.sizes.min() == 1
        packs = [PackStream(preds[:, :3], outcomes[:3], [3]),
                 PackStream(preds[:, 3:], outcomes[3:], [1])]
        assert all(s[i] == p for i, p in enumerate(packs))
        assert list(s) == packs and s[-1] == packs[-1] and s[-2] == packs[0]
        with pytest.raises(IndexError):
            s[2]

    def test_stream_rejects_mixed_expert_counts(self):
        # One matrix holds every pack, so every pack has the same experts; a
        # ragged panel is no matrix.
        with pytest.raises(ValueError):
            PackStream([[0.0, 0.0], [0.0]], [0.0, 0.0], [1, 1])

    def test_stream_equality(self):
        a = PackStream(np.full((1, 2), 0.5), np.full(2, 0.5), [2])
        b = PackStream(np.full((1, 2), 0.5), np.full(2, 0.5), [2])
        c = PackStream(np.full((1, 2), 0.5), np.full(2, 0.6), [2])
        d = PackStream(np.full((1, 2), 0.5), np.full(2, 0.5), [1, 1])
        assert a == b and a != c and a != d

    def test_out_of_range_values_caught_at_run(self):
        s = PackStream(np.full((1, 1), 1.5), np.full(1, 0.5), [1])
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
            s = PackStream(p, o, [2, 2, 2])
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
        )
        for records in runs:
            shared = harness._json_trials(records, harness._SHARED_COLUMNS)
            rows = json.loads("".join(harness._records_parts(records, shared)))
            assert [r["trial_index"] for r in rows] == list(range(len(records)))
            assert harness._read_records(rows, 3) == records


class TestRunners:
    def test_empty_stream(self):
        # No runner sees an empty stream: building one is refused.
        with pytest.raises(ValueError, match="at least one pack"):
            PackStream(np.zeros((3, 0)), np.zeros(0), np.zeros(0, int))
        with pytest.raises(TypeError):
            PackStream()

    def test_runs_do_not_depend_on_memory_order(self, rng):
        # Nine experts: numpy sums eight or more adjacent values pairwise,
        # so a replay over expert-major columns would round differently.
        stream = make_stream(rng, 9, 30)
        expert_major = PackStream(np.asfortranarray(stream.expert_preds),
                                  stream.outcomes, stream.sizes)
        for runner in (run_aap_incremental, run_aap_current, run_parallel):
            assert runner(expert_major, GAME) == runner(stream, GAME)

    def test_blocks_match_one_substitution(self, rng, monkeypatch):
        # Nine experts over 2 * _REPLAY_BLOCK + 1 items: three column blocks
        # of unequal size, each summing its experts like the whole matrix.
        items = 2 * algorithms._REPLAY_BLOCK + 1
        sizes = rng.integers(1, 8, size=items)
        sizes = sizes[:np.searchsorted(np.cumsum(sizes), items) + 1]
        sizes[-1] -= sizes.sum() - items
        stream = PackStream(rng.uniform(0, 1, (9, items)),
                            rng.uniform(0, 1, items), sizes)
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
        top = int(stream.sizes.max())
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
            k = int(stream.sizes.max())
            prior = random_prior(rng, stream.num_experts)
            records = run_aap_max(stream, k, GAME, prior=prior)
            assert invariant_gap(records, GAME, prior, mode=k) >= -1e-9

    def test_running_max_invariant(self, rng):
        for trial in range(5):
            stream = make_stream(rng, int(rng.integers(2, 7)), 25)
            prior = random_prior(rng, stream.num_experts)
            records = run_aap_incremental(stream, GAME, prior=prior)
            assert invariant_gap(records, GAME, prior, "running_max") >= -1e-9

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: aap-incremental divides pack t by the running max "
        "of the packs before t, so a pack larger than all before it breaks "
        "the invariant; invariant_gap is -0.252 at K=2"))
    def test_running_max_invariant_on_growing_packs(self):
        # The stress family: a pack of one item following expert 0, then a
        # pack of K following expert 1.
        for k in (2, 3, 5, 20):
            records = run_aap_incremental(ends_stream([1, k], [0, 1], [0, 1]),
                                          GAME)
            assert invariant_gap(records, GAME, [0.5, 0.5],
                                 "running_max") >= -1e-9

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
        order = np.concatenate([start + rng.permutation(size) for start, size
                                in zip(stream.starts, stream.sizes)])
        shuffled = PackStream(stream.expert_preds[:, order],
                              stream.outcomes[order], stream.sizes)
        for runner in (run_aap_incremental, run_aap_current):
            a = runner(stream, GAME)
            b = runner(shuffled, GAME)
            np.testing.assert_allclose(a.learner_pack_loss, b.learner_pack_loss,
                                       rtol=0, atol=1e-12)
        records = run_aap_max(stream, int(stream.sizes.max()), GAME)
        records_b = run_aap_max(shuffled, int(stream.sizes.max()), GAME)
        assert records.cumulative_loss[-1] == pytest.approx(
            records_b.cumulative_loss[-1], abs=1e-9
        )


def six_runs(stream, game, prior):
    """Every algorithm's predictions on packs of the stream's columns that
    it may take: aa on single items, aap-equal on packs of the largest size
    (the last items left out), the rest on the stream's own packs."""
    items, k = stream.num_items, int(stream.sizes.max())
    single = PackStream(stream.expert_preds, stream.outcomes,
                        np.ones(items, int))
    equal = PackStream(stream.expert_preds[:, :items // k * k],
                       stream.outcomes[:items // k * k],
                       np.full(items // k, k))
    return [r.learner_preds for r in (
        run_aa(single, game, prior), run_aap_equal(equal, k, game, prior),
        run_aap_max(stream, k, game, prior),
        run_aap_incremental(stream, game, prior),
        run_aap_current(stream, game, prior), run_parallel(stream, game, prior))]


class TestMetamorphic:
    """Relations between runs that hold whatever the divisor schedule: no
    schedule is restated.  Predictions agree within 1e-13*(B-A)."""

    @staticmethod
    def case(stream, interval, data):
        """The stream moved onto the interval, its game and a random prior."""
        prior = random_prior(np.random.default_rng(data.draw(st.integers(0, 99))),
                             stream.num_experts)
        return (rescale_stream(stream, *interval),
                GameSpec.for_interval(*interval), prior)

    @staticmethod
    def assert_same_runs(a, b, game):
        for x, y in zip(a, b):
            np.testing.assert_allclose(x, y, rtol=0,
                                       atol=1e-13 * (game.upper - game.lower))

    @given(stream=stress_streams(), interval=st.sampled_from(INTERVALS),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_duplicated_expert_splits_its_weight(self, stream, interval, data):
        stream, game, prior = self.case(stream, interval, data)
        n = stream.num_experts
        j = data.draw(st.integers(0, n - 1))
        share = data.draw(st.floats(0.1, 0.9))
        rows = np.insert(np.arange(n), j, j)
        split = np.insert(prior, j, prior[j] * share)
        split[j + 1] = prior[j] - split[j]
        doubled = PackStream(stream.expert_preds[rows], stream.outcomes,
                             stream.sizes)
        self.assert_same_runs(six_runs(doubled, game, split),
                              six_runs(stream, game, prior), game)

    @given(stream=stress_streams(), interval=st.sampled_from(INTERVALS),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuted_experts_with_their_prior(self, stream, interval, data):
        stream, game, prior = self.case(stream, interval, data)
        perm = np.array(data.draw(st.permutations(range(stream.num_experts))))
        permuted = PackStream(stream.expert_preds[perm], stream.outcomes,
                              stream.sizes)
        self.assert_same_runs(six_runs(permuted, game, prior[perm]),
                              six_runs(stream, game, prior), game)


class TestReplayMatchesOnline:
    """Each runner replays the whole stream at once; stepping the online
    learner (predict_pack, then observe_pack with the runner's divisor
    policy) pack by pack must give the same run."""

    @staticmethod
    def online(stream, game, policy, prior, order="C"):
        state = init_state(prior)
        preds, totals = [], []
        for pack in stream:
            matrix = np.asarray(pack.expert_preds, order=order)
            preds.append(predict_pack(state, matrix, game))
            observe_pack(state, (matrix - pack.outcomes) ** 2, policy, game)
            totals.append(state.cumulative_losses)
        return preds, totals

    @staticmethod
    def online_copies(stream, game, prior):
        """The parallel copies stepped item by item, on F-order inputs."""
        packs = ((np.asfortranarray(pack.expert_preds), pack.outcomes)
                 for pack in stream)
        return np.concatenate([preds for preds, _ in
                               step_copies(packs, game, prior)])

    @given(stream=stress_streams(8, 17, max_size=12)
           | noisy_streams(8, 17, max_size=60),
           interval=st.sampled_from(INTERVALS), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_online_steps_are_the_replay_bit_for_bit(self, stream, interval,
                                                     seed):
        # Eight or more experts, whose sums numpy could take pairwise, a
        # non-uniform prior, F-order inputs and packs of size 1 (every
        # parallel copy's): the online learner computes the replay's
        # numbers in the replay's order.
        stream = rescale_stream(stream, *interval)
        game = GameSpec.for_interval(*interval)
        prior = random_prior(np.random.default_rng(seed), stream.num_experts)
        k = int(stream.sizes.max())
        for records, policy in (
            (run_aap_max(stream, k, game, prior), DivisorPolicy.fixed(k)),
            (run_aap_incremental(stream, game, prior),
             DivisorPolicy.running_max()),
            (run_aap_current(stream, game, prior), DivisorPolicy.current_pack()),
        ):
            preds, _ = self.online(stream, game, policy, prior, order="F")
            assert (np.concatenate(preds).tobytes()
                    == records.learner_preds.tobytes()), policy
        assert (self.online_copies(stream, game, prior).tobytes()
                == run_parallel(stream, game, prior).learner_preds.tobytes())

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
            k = int(stream.sizes.max())
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
