import json
import math
import re

import numpy as np
import pytest

from packpredict import MixLossRun, run_mixloss_game
from packpredict.games import _as_probabilities
from packpredict.harness import emit_adversary_report
from packpredict.mixloss import (LEARNERS, NATURES, _low_product_expert,
                                 _mix_loss)

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
        losses = NATURES["adversary"](np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert losses.shape == (2, 2)
        # Expert 1 has product 0.05 <= 1/4: its row is zero, the other inf.
        np.testing.assert_array_equal(losses[1], [0.0, 0.0])
        assert np.all(np.isinf(losses[0]))

    def test_skewed_learner_pays_more(self):
        # Learner {0.9, 0.1}: the adversary zeroes the low-mass expert and
        # the learner pays -ln(0.1) > ln 2.
        dists = np.array([[0.9, 0.1]])
        losses = NATURES["adversary"](dists)
        out = _mix_loss(dists, losses)
        assert out == pytest.approx(2.302585092994045684, abs=1e-15)
        assert out >= LN2

    def test_zero_nature(self):
        losses = NATURES["zero"](np.full((2, 3), 1 / 3))
        np.testing.assert_array_equal(losses, np.zeros((3, 2)))


class TestGame:
    def test_uniform_learner_exact_equality(self):
        # Uniform learner vs the adversary: mix loss is exactly K*ln(N) per
        # pack, so total regret over sizes {3,3,3} with N=2 is 9*ln 2.
        run = run_mixloss_game("uniform", "adversary", 2, [3, 3, 3])
        assert run.cumulative_regret[-1] == pytest.approx(
            6.2383246250395077848, abs=1e-9
        )
        for regret, bound, losses in zip(run.regret_increment,
                                         run.lower_bound_increment,
                                         run.expert_pack_losses):
            assert regret == pytest.approx(bound, abs=1e-12)
            assert min(losses) == 0.0

    def test_uniform_learner_four_experts(self):
        run = run_mixloss_game("uniform", "adversary", 4, [2, 3])
        assert run.cumulative_regret[-1] == pytest.approx(
            6.9314718055994530942, abs=1e-9
        )

    def test_exp_weights_never_beats_lower_bound(self):
        # Whatever the learner, every pack's regret increment is at least
        # K_t*ln(N); exponential weights included (infinite increments count).
        for n, sizes in ((2, [3] * 10), (3, [1, 2, 3, 4]), (5, [2, 5, 1])):
            run = run_mixloss_game("exp-weights", "adversary", n, sizes)
            for regret, bound in zip(run.regret_increment,
                                     run.lower_bound_increment):
                assert regret >= bound - 1e-9
            assert run.forced

    def test_exp_weights_first_pack_forced(self):
        run = run_mixloss_game("exp-weights", "adversary", 2, [3])
        assert run.regret_increment[0] >= 3 * LN2 - 1e-9

    def test_exp_weights_learns_under_zero_nature(self):
        run = run_mixloss_game("exp-weights", "zero", 3, [2, 2])
        assert run.cumulative_mix_loss[-1] == 0.0
        assert run.cumulative_regret[-1] == 0.0
        # Each pack's mix loss is -0.0; the running sums start from 0.0.
        assert repr(run.mix_loss.tolist()) == "[-0.0, -0.0]"
        assert repr(run.cumulative_regret.tolist()) == "[0.0, 0.0]"
        assert repr(run.total_regret) == "0.0"
        assert not run.forced  # regret 0 is below K*ln(N)

    def test_trial_bookkeeping(self):
        run = run_mixloss_game("uniform", "adversary", 2, [1, 2, 3])
        assert list(range(len(run.pack_size))) == [0, 1, 2]
        assert run.pack_size.tolist() == [1, 2, 3]
        total = sum(run.mix_loss)
        assert run.cumulative_mix_loss[-1] == pytest.approx(total, abs=1e-12)
        report = json.loads(emit_adversary_report(run, "json"))
        assert [t["trial_index"] for t in report["trials"]] == [0, 1, 2]
        d = report["trials"][0]
        assert d["pack_size"] == 1 and d["mix_loss"] == pytest.approx(LN2)
        with pytest.raises(ValueError, match="unknown format"):
            emit_adversary_report(run, "csv")

    def test_derived_columns_are_running_sums(self):
        # Sums pack by pack in Python floats, from 0.0: each derived column
        # must be bitwise equal to them, the sign of zero included.
        for learner, nature, n, sizes in (
                ("exp-weights", "adversary", 4, [2, 3, 1]),
                ("exp-weights", "zero", 3, [2, 2, 5]),
                ("uniform", "adversary", 5, [4, 1, 3, 7, 2]),
                ("uniform", "adversary", 1, [2, 1])):
            run = run_mixloss_game(learner, nature, n, sizes)
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
        for learner in LEARNERS:
            with pytest.raises(ValueError, match="at least one expert"):
                run_mixloss_game(learner, "adversary", 0, [1])

    def test_unknown_names(self):
        # One refusal of a name, bounds._row's, listing the table's names;
        # an unhashable name too.
        for learner, nature, message in (
                ("hedge", "zero", "unknown learner 'hedge'; choose from "
                 "uniform, exp-weights"),
                ("uniform", "nice", "unknown nature 'nice'; choose from "
                 "adversary, zero"),
                (["uniform"], "zero", "unknown learner ['uniform']")):
            with pytest.raises(ValueError, match=re.escape(message)):
                run_mixloss_game(learner, nature, 2, [1])

    def test_empty_game(self):
        # A game has at least one pack, as a stream does.
        with pytest.raises(ValueError, match="at least one pack"):
            run_mixloss_game("uniform", "adversary", 2, [])

    def test_learner_shape_policed(self):
        # Every learner plays K rows over the game's N experts, each a
        # probability vector as `games` states it, whatever the experts'
        # summed losses, an infinite sum or all of them included.
        for learner, play in LEARNERS.items():
            for sums in ([0.0], [0.0, 0.0, 0.0], [3.5, 0.25, 700.0],
                         [np.inf, 1.0, 2.0], [np.inf, np.inf]):
                for k in (1, 4):
                    p = play(k, np.array(sums))
                    assert p.shape == (k, len(sums)), (learner, sums)
                    for row in p:
                        _as_probabilities(row)
        # Once every sum is infinite, exponential weights restarts from
        # uniform; a finite sum keeps all the mass while any is finite.
        play = LEARNERS["exp-weights"]
        assert (play(2, np.array([np.inf] * 4)) == 0.25).all()
        assert play(1, np.array([np.inf, 9.0])).tolist() == [[0.0, 1.0]]

    def test_nature_shape_policed(self, rng):
        # Every nature answers K x N distributions with N x K losses, none
        # NaN or negative.
        for nature, answer in NATURES.items():
            for k, n in ((1, 1), (3, 2), (2, 5)):
                losses = answer(rng.dirichlet(np.ones(n), size=k))
                assert losses.shape == (n, k), nature
                assert not np.isnan(losses).any() and (losses >= 0).all()

    def test_pack_size_validation(self):
        with pytest.raises(ValueError, match="pack sizes must be >= 1"):
            run_mixloss_game("uniform", "zero", 2, [0])


def ledger(sizes, mix_loss, expert_pack_losses):
    """A ledger built by hand, as if the uniform learner met the adversary."""
    return MixLossRun("uniform", "adversary", np.array(sizes),
                      np.array(mix_loss, dtype=float),
                      np.array(expert_pack_losses, dtype=float))


class TestLowerBoundFormula:
    def test_value(self):
        run = run_mixloss_game("uniform", "adversary", 12, [1, 2, 3, 4, 5])
        assert run.total_lower_bound == pytest.approx(
            37.273599746820004653, abs=1e-12
        )

    def test_needs_an_expert(self):
        # No floor without an expert: the game refuses N = 0 for every
        # nature before it states one.
        for nature in NATURES:
            with pytest.raises(ValueError, match="at least one expert"):
                run_mixloss_game("uniform", nature, 0, [1])

    def test_ledger_states_the_same_floor(self, rng):
        # One K*ln(N) floor, bit for bit: the ledger's total is the packs'
        # K*ln(N) added in pack order from 0.0, on 28 small games and on
        # 2000 hand-built ledgers of random sizes.
        for n in range(2, 9):
            for sizes in ([3] * 10, [1, 2, 3, 4, 5], [4, 1, 3],
                          [7, 1, 1, 9, 2, 3, 3, 8]):
                run = run_mixloss_game("uniform", "adversary", n, sizes)
                assert (repr(run.total_lower_bound)
                        == repr(sum((k * math.log(n) for k in sizes), 0.0))
                        ), (n, sizes)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            sizes = rng.integers(1, 60, size=int(rng.integers(1, 50)))
            run = ledger(sizes, np.zeros(sizes.size), np.zeros((sizes.size, n)))
            want = sum((int(k) * math.log(n) for k in sizes), 0.0)
            assert repr(run.total_lower_bound) == repr(want), (n, sizes)

    def test_matches_uniform_equality_case(self):
        run = run_mixloss_game("uniform", "adversary", 3, [2, 4, 1])
        assert run.cumulative_regret[-1] == pytest.approx(
            run.total_lower_bound, abs=1e-9
        )
        assert run.total_lower_bound == pytest.approx(7 * math.log(3),
                                                      abs=1e-12)


class TestForced:
    def test_tolerance_is_literal(self):
        # One pack of 2 items over 3 experts, expert 0 spared: the floor is
        # 2 ln 3.  A regret short of it by 1e-6 is not forced; one short by
        # 1e-12, rounding, is.
        for delta, forced in ((1e-6, False), (1e-12, True)):
            run = ledger([2], [2 * math.log(3) - delta], [[0.0, np.inf, np.inf]])
            assert run.forced is forced, delta
