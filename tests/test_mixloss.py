import json
import math

import numpy as np
import pytest

from packpredict import mixloss
from packpredict import (
    AdversaryNature,
    ExponentialWeightsLearner,
    UniformLearner,
    ZeroNature,
    regret_lower_bound,
    run_mixloss_game,
)
from packpredict.harness import emit_adversary_report
from packpredict.mixloss import _low_product_expert, _mix_loss

LN2 = 0.69314718055994530942


class TestMixLoss:
    def test_zero_losses_cost_nothing(self):
        dists = np.full((3, 2), 0.5)
        assert _mix_loss(dists, np.zeros((2, 3))) == 0.0

    def test_single_item_one_dead_expert(self):
        # Uniform over two experts, losses {0, inf}: -ln(1/2).
        out = _mix_loss(np.array([[0.5, 0.5]]), np.array([[0.0], [np.inf]]))
        assert out == pytest.approx(LN2, abs=1e-15)

    def test_three_items_one_dead_expert(self):
        dists = np.full((3, 2), 0.5)
        losses = np.array([[0.0] * 3, [np.inf] * 3])
        assert _mix_loss(dists, losses) == pytest.approx(
            2.0794415416798359283, abs=1e-15
        )

    def test_infinite_when_no_expert_survives(self):
        out = _mix_loss(np.array([[1.0, 0.0]]), np.array([[np.inf], [0.0]]))
        assert out == np.inf

    def test_zero_mass_expert_excluded_exactly(self):
        # Mass 0 on an infinite-loss expert must not poison the sum.
        out = _mix_loss(np.array([[0.0, 1.0]]), np.array([[np.inf], [0.0]]))
        assert out == 0.0

    def test_shape_validation(self):
        # The game checks a nature's losses before it scores them: N x K,
        # no NaN, none negative.
        for losses in (np.zeros((2, 3)), np.zeros((3, 2)), -np.ones((2, 2)),
                       np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="losses must be"):
                run_mixloss_game(UniformLearner(2), lambda p: losses, [2])


class TestDistributions:
    def test_refusal_names_the_row(self):
        dists = np.full((3, 2), 0.5)
        dists[2, 1] = 0.6
        learner = UniformLearner(2)
        learner.distributions = lambda pack_size: dists
        with pytest.raises(ValueError, match="row 2 sums to 1.1"):
            run_mixloss_game(learner, ZeroNature(), [3])


class TestLowProductExpert:
    def test_uniform_picks_first(self):
        assert _low_product_expert(np.full((3, 4), 0.25)) == 0

    def test_single_item_smallest_mass(self):
        assert _low_product_expert(np.array([[0.9, 0.1]])) == 1

    def test_two_item_three_expert_case(self):
        # Products are 0.10, 0.09, 0.10; the middle expert has the smallest,
        # and 0.09 <= 1/9.  (All three actually clear the 1/9 ceiling here.)
        dists = np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
        assert _low_product_expert(dists) == 1

    def test_tie_breaks_low_index(self):
        dists = np.array([[0.25, 0.25, 0.5], [0.5, 0.5, 0.0]])
        assert _low_product_expert(dists) == 2  # product 0 beats ties
        tie = np.array([[0.4, 0.4, 0.2], [0.2, 0.2, 0.6]])
        # experts 0 and 1 tie at 0.08; lowest index wins
        assert _low_product_expert(tie) == 0

    def test_rows_off_by_rounding(self):
        # Rows summing to 1 + 9e-13, within the tolerance: every expert's
        # log-product is 4 ln((1 + 9e-13)/3), above -4 ln 3 but within the
        # bound sum_k ln(s_k) - K ln N of the rows' own sums.
        assert _low_product_expert(np.full((4, 3), (1 + 9e-13) / 3)) == 0

    def test_guarantee_on_random_tuples(self, rng):
        for _ in range(500):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            dists = rng.dirichlet(np.ones(n), size=k)
            n0 = _low_product_expert(dists)
            log_product = np.sum(np.log(dists[:, n0]))
            assert log_product <= -k * math.log(n) + 1e-12


class TestNatures:
    def test_adversary_matrix_shape(self):
        nature = AdversaryNature()
        losses = nature(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert losses.shape == (2, 2)
        # Expert 1 has product 0.05 <= 1/4: its row is zero, the other inf.
        np.testing.assert_array_equal(losses[1], [0.0, 0.0])
        assert np.all(np.isinf(losses[0]))

    def test_skewed_learner_pays_more(self):
        # Learner {0.9, 0.1}: the adversary zeroes the low-mass expert and
        # the learner pays -ln(0.1) > ln 2.
        nature = AdversaryNature()
        dists = np.array([[0.9, 0.1]])
        losses = nature(dists)
        out = _mix_loss(dists, losses)
        assert out == pytest.approx(2.302585092994045684, abs=1e-15)
        assert out >= LN2

    def test_zero_nature(self):
        losses = ZeroNature()(np.full((2, 3), 1 / 3))
        np.testing.assert_array_equal(losses, np.zeros((3, 2)))


class TestGame:
    def test_uniform_learner_exact_equality(self):
        # Uniform learner vs the adversary: mix loss is exactly K*ln(N) per
        # pack, so total regret over sizes {3,3,3} with N=2 is 9*ln 2.
        run = run_mixloss_game(UniformLearner(2), AdversaryNature(), [3, 3, 3])
        assert run.cumulative_regret[-1] == pytest.approx(
            6.2383246250395077848, abs=1e-9
        )
        for regret, bound, losses in zip(run.regret_increment,
                                         run.lower_bound_increment,
                                         run.expert_pack_losses):
            assert regret == pytest.approx(bound, abs=1e-12)
            assert min(losses) == 0.0

    def test_uniform_learner_four_experts(self):
        run = run_mixloss_game(UniformLearner(4), AdversaryNature(), [2, 3])
        assert run.cumulative_regret[-1] == pytest.approx(
            6.9314718055994530942, abs=1e-9
        )

    def test_exp_weights_never_beats_lower_bound(self):
        # Whatever the learner, every pack's regret increment is at least
        # K_t*ln(N); exponential weights included (infinite increments count).
        for n, sizes in ((2, [3] * 10), (3, [1, 2, 3, 4]), (5, [2, 5, 1])):
            learner = ExponentialWeightsLearner(n)
            run = run_mixloss_game(learner, AdversaryNature(), sizes)
            for regret, bound in zip(run.regret_increment,
                                     run.lower_bound_increment):
                assert regret >= bound - 1e-9
            assert run.forced

    def test_exp_weights_first_pack_forced(self):
        run = run_mixloss_game(ExponentialWeightsLearner(2),
                               AdversaryNature(), [3])
        assert run.regret_increment[0] >= 3 * LN2 - 1e-9

    def test_exp_weights_learns_under_zero_nature(self):
        learner = ExponentialWeightsLearner(3)
        run = run_mixloss_game(learner, ZeroNature(), [2, 2])
        assert run.cumulative_mix_loss[-1] == 0.0
        assert run.cumulative_regret[-1] == 0.0
        # Each pack's mix loss is -0.0; the running sums start from 0.0.
        assert repr(run.mix_loss.tolist()) == "[-0.0, -0.0]"
        assert repr(run.cumulative_regret.tolist()) == "[0.0, 0.0]"
        assert repr(run.total_regret) == "0.0"
        assert not run.forced  # regret 0 is below K*ln(N)

    def test_trial_bookkeeping(self):
        run = run_mixloss_game(UniformLearner(2), AdversaryNature(), [1, 2, 3])
        assert list(range(len(run.pack_size))) == [0, 1, 2]
        assert run.pack_size.tolist() == [1, 2, 3]
        total = sum(run.mix_loss)
        assert run.cumulative_mix_loss[-1] == pytest.approx(total, abs=1e-12)
        report = json.loads(emit_adversary_report(
            run, "json", "uniform", "adversary", run.forced))
        assert [t["trial_index"] for t in report["trials"]] == [0, 1, 2]
        d = report["trials"][0]
        assert d["pack_size"] == 1 and d["mix_loss"] == pytest.approx(LN2)
        with pytest.raises(ValueError, match="unknown format"):
            emit_adversary_report(run, "csv", "uniform", "adversary", True)

    def test_derived_columns_are_running_sums(self):
        # Sums pack by pack in Python floats, from 0.0: each derived column
        # must be bitwise equal to them, the sign of zero included.
        for learner, nature, sizes in (
                (ExponentialWeightsLearner(4), AdversaryNature(), [2, 3, 1]),
                (ExponentialWeightsLearner(3), ZeroNature(), [2, 2, 5]),
                (UniformLearner(5), AdversaryNature(), [4, 1, 3, 7, 2]),
                (UniformLearner(1), AdversaryNature(), [2, 1])):
            run = run_mixloss_game(learner, nature, sizes)
            n = run.expert_pack_losses.shape[1]
            cum_mix, cum_regret, increments, bounds = 0.0, 0.0, [], []
            mix_sums, regret_sums = [], []
            for k, ell, losses in zip(sizes, run.mix_loss.tolist(),
                                      run.expert_pack_losses.tolist()):
                increments.append(ell - min(losses))
                bounds.append(k * math.log(n))
                cum_mix += ell
                cum_regret += increments[-1]
                mix_sums.append(cum_mix)
                regret_sums.append(cum_regret)
            for got, want in (
                    (run.regret_increment, increments),
                    (run.lower_bound_increment, bounds),
                    (run.cumulative_mix_loss, mix_sums),
                    (run.cumulative_regret, regret_sums)):
                assert repr(got.tolist()) == repr(want)
            assert repr(run.total_regret) == repr(regret_sums[-1])
            assert repr(run.total_lower_bound) == repr(sum(bounds))

    def test_learners_need_an_expert(self):
        for learner in (UniformLearner, ExponentialWeightsLearner):
            with pytest.raises(ValueError, match="at least one expert"):
                learner(0)

    def test_empty_game(self):
        # A game has at least one pack, as a stream does.
        with pytest.raises(ValueError, match="at least one pack"):
            run_mixloss_game(UniformLearner(2), AdversaryNature(), [])

    def test_learner_shape_policed(self):
        class BadLearner:
            def distributions(self, pack_size):
                return np.full((pack_size + 1, 2), 0.5)

            def observe(self, losses):
                pass

        with pytest.raises(ValueError):
            run_mixloss_game(BadLearner(), ZeroNature(), [2])

        class GrowingLearner(UniformLearner):
            """One more expert in every pack: a game has one panel."""

            def distributions(self, pack_size):
                self.num_experts += 1
                return super().distributions(pack_size)

        with pytest.raises(ValueError, match="4 experts in pack 1, 3 before"):
            run_mixloss_game(GrowingLearner(2), ZeroNature(), [1, 2])

    def test_nature_shape_policed(self):
        class BadNature:
            def __call__(self, dists):
                return np.zeros((dists.shape[1], dists.shape[0] + 1))

        with pytest.raises(ValueError):
            run_mixloss_game(UniformLearner(2), BadNature(), [2])

    def test_pack_size_validation(self):
        with pytest.raises(ValueError):
            run_mixloss_game(UniformLearner(2), ZeroNature(), [0])

    def test_each_pack_checked_once(self, monkeypatch):
        # The game checks a pack's distributions where they enter; the
        # natures and the scoring kernel take the checked array.
        calls = []
        check = mixloss._as_probabilities

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(mixloss, "_as_probabilities", counted)
        for learner, nature in ((UniformLearner(3), AdversaryNature()),
                                (ExponentialWeightsLearner(3), ZeroNature())):
            calls.clear()
            run_mixloss_game(learner, nature, [1, 2, 3, 4, 5])
            assert len(calls) == 5, (learner, nature)

    @pytest.mark.parametrize("spoil, match", [
        (lambda p: p[1:], "1 rows for a pack of 2"),
        (lambda p: p + [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], "row 1 sums to"),
        (lambda p: p * [[1.0, 1.0, np.nan]], "free of NaN"),
    ])
    def test_bad_rows_never_reach_the_nature(self, spoil, match):
        class SpoiltLearner(UniformLearner):
            def distributions(self, pack_size):
                return spoil(super().distributions(pack_size))

        seen = []

        class RecordingNature(ZeroNature):
            def __call__(self, distributions):
                seen.append(distributions)
                return super().__call__(distributions)

        with pytest.raises(ValueError, match=match):
            run_mixloss_game(SpoiltLearner(3), RecordingNature(), [2])
        assert seen == []


class TestLowerBoundFormula:
    def test_value(self):
        assert regret_lower_bound([1, 2, 3, 4, 5], 12) == pytest.approx(
            37.273599746820004653, abs=1e-12
        )

    def test_needs_an_expert(self):
        with pytest.raises(ValueError, match="at least one expert"):
            regret_lower_bound([1], 0)

    def test_ledger_states_the_same_floor(self):
        # One K*ln(N) floor, bit for bit, on 28 small games: the ledger's
        # total is regret_lower_bound's, which adds the packs in order.
        for n in range(2, 9):
            for sizes in ([3] * 10, [1, 2, 3, 4, 5], [4, 1, 3],
                          [7, 1, 1, 9, 2, 3, 3, 8]):
                run = run_mixloss_game(UniformLearner(n), AdversaryNature(),
                                       sizes)
                assert (repr(run.total_lower_bound)
                        == repr(regret_lower_bound(sizes, n))
                        == repr(sum(k * math.log(n) for k in sizes))), (n, sizes)

    def test_matches_uniform_equality_case(self):
        run = run_mixloss_game(UniformLearner(3), AdversaryNature(), [2, 4, 1])
        assert run.cumulative_regret[-1] == pytest.approx(
            regret_lower_bound([2, 4, 1], 3), abs=1e-9
        )
