import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packpredict import (
    GameSpec,
    PackStream,
    RunRecords,
    audit_run,
    emit_report,
    rescale_stream,
    result_from_json,
    run_aa,
    run_aap_current,
    run_aap_equal,
    run_aap_incremental,
    run_aap_max,
    run_experiment,
    run_parallel,
    uniform_prior,
)
from packpredict import bounds as bd

from conftest import ends_stream, make_stream, random_prior, stress_streams

GAME = GameSpec(0.0, 1.0, 2.0)


def final_bounds(guarantee, preds, outcomes, sizes, game=GAME, prior=None,
                 declared=None):
    """The audit's bound for each expert over a whole stream.  Any records
    the guarantee may check will do, so these are aap-current's."""
    stream = PackStream(preds, outcomes, sizes)
    if prior is None:
        prior = uniform_prior(stream.num_experts)
    records = run_aap_current(stream, game, prior)
    return bd._checks(records, guarantee, game, prior, declared)["bound"][-1]


class TestClosedForms:
    """Each guarantee's bound against an expert of known loss, as the audit
    states it: expert 0 predicts every outcome, so it loses 0 unless a case
    says otherwise."""

    def test_single_expert_zero_loss(self):
        out = final_bounds(bd.AA, [[0.3, 0.7]], [0.3, 0.7], [1, 1],
                           prior=[1.0])
        assert out.tolist() == [0.0]

    def test_known_max_size_value(self):
        # C=1, eta=2, K=30, prior 1/12, zero expert loss -> 15*ln(12).
        outcomes = np.linspace(0, 1, 30)
        preds = np.vstack([outcomes, np.zeros((11, 30))])
        out = final_bounds(bd.AAP_MAX, preds, outcomes, [30], declared=30)
        assert out[0] == pytest.approx(37.273599746820004653, abs=1e-12)

    def test_plain_current_value(self):
        # C=1, eta=2, Kmax=4, Kmin=2, prior 1/2, expert loss 3^2 + 1^2 = 10
        # on [0, 4] -> 2*10 + 2*ln(2).
        outcomes = [3.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        out = final_bounds(bd.AAP_CURRENT_PLAIN, [np.zeros(6), outcomes],
                           outcomes, [4, 2], game=GameSpec(0.0, 4.0, 2.0))
        assert out[0] == pytest.approx(21.386294361119890619, abs=1e-12)

    def test_parallel_value(self):
        # C=1, eta=2, pool of 4 copies, prior 1/2 -> 2*ln(2).
        outcomes = np.linspace(0, 1, 5)
        out = final_bounds(bd.PARALLEL, [outcomes, np.ones(5)], outcomes,
                           [4, 1])
        assert out[0] == pytest.approx(1.3862943611198906188, abs=1e-15)

    def test_incremental_value(self):
        # C=1, eta=1, largest pack 9, prior 1/2 -> 9*ln(2).
        outcomes = np.linspace(0, 1, 11)
        out = final_bounds(bd.AAP_INCREMENTAL, [outcomes, np.ones(11)],
                           outcomes, [9, 2], game=GameSpec(0.0, 1.0, 1.0))
        assert out[0] == pytest.approx(6.2383246250395077848, abs=1e-12)

    def test_average_value(self):
        # C=1, eta=2, prior 1/3, zero average loss -> (1/2)*ln(3).
        outcomes = np.linspace(0, 1, 5)
        out = final_bounds(bd.AAP_CURRENT_AVERAGE,
                           [outcomes, np.ones(5), np.zeros(5)], outcomes,
                           [3, 2])
        assert out[0] == pytest.approx(0.5493061443340548457, abs=1e-15)

    def test_broadcasts_over_losses(self):
        # One bound per expert: losses 0 and 1 at eta=1, prior 1/2 each.
        out = final_bounds(bd.AA, [[1.0, 0.5], [0.0, 0.5]], [1.0, 0.5],
                           [1, 1], game=GameSpec(0.0, 1.0, 1.0))
        np.testing.assert_allclose(out, np.array([0.0, 1.0]) + math.log(2),
                                   atol=1e-15)


class TestGuaranteeInstantiations:
    def test_perfect_expert_two_expert_pack_game(self, rng):
        # One expert always equal to the outcome: total learner loss is at
        # most (K/2)*ln(2) when packs share size K.
        k = 4
        outcomes = rng.uniform(0, 1, size=12 * k)
        others = rng.uniform(0, 1, size=12 * k)
        stream = PackStream(np.stack([outcomes, others]), outcomes, [k] * 12)
        records = run_aap_equal(stream, k, GAME)
        assert records.cumulative_loss[-1] <= (k / 2) * math.log(2) + 1e-9

    def test_mixed_sizes_known_max(self, rng):
        # Sizes {3,1,2} with K=3, two experts: regret term (3/2)*ln 2.
        stream = PackStream(rng.uniform(0, 1, size=(2, 6)),
                            rng.uniform(0, 1, size=6), [3, 1, 2])
        records = run_aap_max(stream, 3, GAME)
        for n in range(2):
            bound = records.expert_cumulative_losses[-1, n] + 1.5 * math.log(2)
            assert records.cumulative_loss[-1] <= bound + 1e-9

    def test_average_regret_three_experts(self, rng):
        # Uniform prior over three experts: average-loss regret is at most
        # (1/2)*ln(3), whatever the stream.
        for _ in range(5):
            stream = make_stream(rng, 3, 30)
            records = run_aap_current(stream, GAME)
            regret = records.cumulative_average_loss[-1] - min(
                records.expert_cumulative_average_losses[-1]
            )
            assert regret <= 0.5493061443340548457 + 1e-9


class TestTightness:
    """The audit checks that no bound is violated; a witness checks the
    other side, that no bound is loose by a constant factor."""

    @pytest.mark.parametrize("k", [1, 2, 20])
    def test_witness_reaches_every_bound(self, k):
        # N experts evenly spaced on [0, 1], ends included, every outcome 1,
        # 50 packs of k items, a uniform prior, eta = 2.  Against expert
        # N - 1, which loses nothing, each run's total is about 0.806, 0.751
        # and 0.640 of its bound's (C D / eta) ln N for N = 2, 4 and 16, for
        # every row and every k: so each row needs its divisor D, and one
        # with D doubled would read at most about 0.403.
        items = 50 * k
        for n in (2, 4, 16):
            preds = np.repeat(np.linspace(0, 1, n)[:, None], items, axis=1)
            stream = PackStream(preds, np.ones(items), [k] * 50)
            result = run_experiment(stream, GAME)
            runs = [(a, r) for a in result.algorithms for r in a.reports]
            assert len(runs) == (7 if k == 1 else 6)  # aa: single items
            for a, report in runs:
                assert report.passed, (n, report.algorithm)
                checks = bd._checks(a.records, report.algorithm, GAME,
                                    uniform_prior(n), a.params.get("pack_size"))
                learner, bound = checks[["learner_loss", "bound"]][-1, n - 1]
                assert learner / bound >= 0.6, (n, report.algorithm,
                                                learner / bound)


class TestAuditRun:
    def test_each_algorithm_passes(self, rng):
        stream = make_stream(rng, 4, 20)
        prior = uniform_prior(4)
        cases = [
            (run_aap_max(stream, int(stream.sizes.max()), GAME), bd.AAP_MAX,
             dict(declared_pack_size=int(stream.sizes.max()))),
            (run_aap_incremental(stream, GAME), bd.AAP_INCREMENTAL, {}),
            (run_aap_current(stream, GAME), bd.AAP_CURRENT_AVERAGE, {}),
            (run_aap_current(stream, GAME), bd.AAP_CURRENT_PLAIN, {}),
            (run_parallel(stream, GAME), bd.PARALLEL, {}),
        ]
        for records, algorithm, kwargs in cases:
            report = audit_run(records, algorithm, GAME, prior,
                               every_prefix=True, **kwargs)
            assert report.passed, (algorithm, report.min_slack)
            assert report.min_slack >= -1e-9

    def test_unknown_guarantee_refusal(self, rng):
        # The refusal of an unknown algorithm name, for guarantee names: an
        # unhashable value and an algorithm that is not a guarantee too.
        records = run_aa(make_stream(rng, 2, 4, size_max=1), GAME)
        for name in (["aa"], "aap-current", None, 7, {}):
            with pytest.raises(ValueError) as refused:
                audit_run(records, name, GAME, uniform_prior(2))
            assert str(refused.value) == (
                f"unknown guarantee {name!r}; choose from aa, aap-equal, "
                f"aap-max, aap-incremental, aap-current-average, "
                f"aap-current-plain, parallel")

    def test_entry_counts(self, rng):
        # A report keeps a row per prefix checked, and counts a check per
        # (prefix, expert).
        stream = make_stream(rng, 3, 10)
        records = run_aap_incremental(stream, GAME)
        prior = uniform_prior(3)
        final_only = audit_run(records, bd.AAP_INCREMENTAL, GAME, prior)
        assert (len(final_only.entries), final_only.checks) == (1, 3)
        assert final_only.entries["prefix"].tolist() == [10]
        full = audit_run(records, bd.AAP_INCREMENTAL, GAME, prior,
                         every_prefix=True)
        assert (len(full.entries), full.checks) == (10, 30)
        assert full.entries["prefix"].tolist() == list(range(1, 11))
        # Every check: a row per prefix and a column per expert, read off
        # the records.
        checks = bd._checks(records, bd.AAP_INCREMENTAL, GAME, prior,
                            every_prefix=True)
        assert checks.shape == (10, 3)
        learner = records.cumulative_loss.tolist()
        experts = records.expert_cumulative_losses.tolist()
        expected = [(n, learner[t], experts[t][n], t + 1)
                    for t in range(len(records)) for n in range(3)]
        assert checks[["expert_index", "learner_loss", "expert_loss",
                       "prefix"]].ravel().tolist() == expected

    @staticmethod
    def _assert_keeps_every_check(report, checks):
        """`report`, kept as a row per prefix, says what its every check
        `checks` says: the least slack, where it is (the earliest prefix
        and there the first expert, on a tie), the verdict and the count."""
        slack = checks["slack"].ravel()
        least = int(np.argmin(slack))
        assert report.min_slack == slack[least]
        assert report.binding == (int(checks["expert_index"].flat[least]),
                                  int(checks["prefix"].flat[least]))
        assert report.passed == (slack[least] >= -report.tolerance)
        assert report.checks == checks.size
        assert report.entries["prefix"].tolist() == checks["prefix"][:, 0].tolist()

    @given(stream=stress_streams(), unit=st.booleans(),
           every_prefix=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_agree_with_every_check(self, stream, unit, every_prefix):
        # Every guarantee: on single items every algorithm may run.  Experts
        # at the same end of the interval lose alike, so ties abound.
        if unit:
            stream = PackStream(stream.expert_preds, stream.outcomes,
                                np.ones(stream.num_items, int))
        prior = uniform_prior(stream.num_experts)
        result = run_experiment(stream, GAME, every_prefix=every_prefix)
        assert not unit or len(result.algorithms) == len(bd._TABLE)
        for a in result.algorithms:
            for report in a.reports:
                self._assert_keeps_every_check(report, bd._checks(
                    a.records, report.algorithm, GAME, prior,
                    a.params.get("pack_size"), every_prefix))

    def test_planted_tie(self):
        # Experts 1 and 2 lose nothing and expert 0 loses 1 in the first of
        # three single items, where the learner loses 1/4: experts 1 and 2
        # tie for the least slack at every prefix, and the report names the
        # first prefix and expert 1.
        records = RunRecords(np.ones(3, int), np.zeros(3),
                             np.array([0.25, 0.0, 0.0]),
                             np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]))
        prior = uniform_prior(3)
        report = audit_run(records, bd.AA, GAME, prior, every_prefix=True)
        checks = bd._checks(records, bd.AA, GAME, prior, every_prefix=True)
        assert (checks["slack"][:, 1:] == checks["slack"].min()).all()
        assert report.binding == (1, 1)
        assert report.entries["expert_index"].tolist() == [1, 1, 1]
        self._assert_keeps_every_check(report, checks)

    def test_average_metric_selected(self, rng):
        stream = make_stream(rng, 2, 5)
        records = run_aap_current(stream, GAME)
        report = audit_run(records, bd.AAP_CURRENT_AVERAGE, GAME,
                           uniform_prior(2))
        assert report.metric == "average"
        assert report.entries["learner_loss"][0] == pytest.approx(
            records.cumulative_average_loss[-1], abs=0
        )

    def test_tampered_run_fails(self, rng):
        stream = make_stream(rng, 3, 8)
        records = run_aap_incremental(stream, GAME)
        bad = records.learner_pack_loss.copy()
        bad[-1] += 100.0
        tampered = dataclasses.replace(records, learner_pack_loss=bad)
        report = audit_run(tampered, bd.AAP_INCREMENTAL, GAME, uniform_prior(3))
        assert not report.passed
        checks = bd._checks(tampered, bd.AAP_INCREMENTAL, GAME, uniform_prior(3))
        assert (checks["slack"] < -report.tolerance).any()

    @pytest.mark.parametrize("lower, upper", [(0.0, 1.0), (3e4, 8e5)])
    def test_slack_boundary_in_the_games_units(self, lower, upper):
        # One single-item pack in which expert 0 loses nothing: under a
        # uniform prior of two, its aa bound is ln(2)/eta.  A learner loss
        # past it by 1e-6 (B - A)^2 is a violation; by 1e-12 (B - A)^2,
        # rounding.  The limits are literal, not the audit's tolerance.
        game = GameSpec.for_interval(lower, upper)
        width2 = (upper - lower) ** 2
        for excess, passed in ((1e-6, False), (1e-12, True)):
            records = RunRecords(
                np.array([1]), np.array([lower]),
                np.array([math.log(2) / game.eta + excess * width2]),
                np.array([[0.0, width2]]))
            report = audit_run(records, bd.AA, game, uniform_prior(2))
            assert report.min_slack / width2 == pytest.approx(-excess, rel=1e-3)
            assert report.passed is passed, excess

    def test_empty_records(self):
        # Records are public input; a run has at least one pack.
        records = RunRecords(np.empty(0, int), np.empty(0), np.empty(0),
                             np.empty((0, 2)))
        with pytest.raises(ValueError, match="no packs"):
            audit_run(records, bd.AA, GAME, uniform_prior(2))

    def test_prior_length_validation(self, rng):
        records = run_aap_incremental(make_stream(rng, 3, 5), GAME)
        with pytest.raises(ValueError, match="prior has 2 entries for 3 experts"):
            audit_run(records, bd.AAP_INCREMENTAL, GAME, uniform_prior(2))

    def test_declared_size_validation(self, rng):
        stream = make_stream(rng, 2, 6, size_min=1, size_max=4)
        records = run_aap_incremental(stream, GAME)
        sizes, top = np.asarray(stream.pack_sizes), int(stream.sizes.max())
        for algorithm, declared, bad in [(bd.AAP_EQUAL, 4, sizes != 4),
                                         (bd.AAP_MAX, top - 1, sizes == top),
                                         (bd.AA, None, sizes != 1)]:
            i = np.argmax(bad)  # the first trial the precondition rejects
            with pytest.raises(ValueError, match=f"^trial {i} has size "
                               f"{sizes[i]}; {algorithm} requires"):
                audit_run(records, algorithm, GAME, uniform_prior(2),
                          declared_pack_size=declared)
        with pytest.raises(ValueError, match="aap-max needs its declared"):
            audit_run(records, bd.AAP_MAX, GAME, uniform_prior(2))

    def test_zero_prior_weight_rejected(self, rng):
        # As in a run: the bound's ln(1/p_n) must be finite for every n.
        records = run_aap_incremental(make_stream(rng, 3, 5), GAME)
        with pytest.raises(ValueError, match="positive weight"):
            audit_run(records, bd.AAP_INCREMENTAL, GAME, [1.0, 0.0, 0.0])

    def test_prefix_divisors_track_running_extremes(self, rng):
        # The incremental guarantee at prefix t may only use the max pack
        # size seen up to t, so audit a stream whose sizes grow late.
        stream = PackStream(rng.uniform(0, 1, size=(2, 10)),
                            rng.uniform(0, 1, size=10), [1, 1, 2, 6])
        records = run_aap_incremental(stream, GAME)
        report = audit_run(records, bd.AAP_INCREMENTAL, GAME, uniform_prior(2),
                           every_prefix=True)
        assert report.passed
        checks = bd._checks(records, bd.AAP_INCREMENTAL, GAME, uniform_prior(2),
                            every_prefix=True)
        term = checks["bound"] - checks["expert_loss"]
        # Early prefixes use divisor 1, so their additive term is smaller
        # than the final one with divisor 6.
        early_term = term[0, 0]
        late_term = term[3, 0]
        assert early_term == pytest.approx((1 / 2) * math.log(2), abs=1e-12)
        assert late_term == pytest.approx((6 / 2) * math.log(2), abs=1e-12)

    def test_report_round_trip(self, rng):
        # Reports are stored without their checks; reading a result file
        # re-audits its records and gives back the same reports.
        stream = make_stream(rng, 3, 6)
        prior = random_prior(rng, 3)
        result = run_experiment(stream, GAME, ["aap-current"], prior=prior,
                                every_prefix=True)
        report = audit_run(result.algorithms[0].records, bd.AAP_CURRENT_PLAIN,
                           GAME, prior, every_prefix=True)
        assert result.algorithms[0].reports[1] == report
        assert result_from_json(emit_report(result)) == result

    def test_aa_audit_on_unit_packs(self, rng):
        stream = make_stream(rng, 3, 15, size_min=1, size_max=1)
        records = run_aa(stream, GAME)
        report = audit_run(records, bd.AA, GAME, uniform_prior(3),
                           every_prefix=True)
        assert report.passed


class TestUnits:
    """A verdict does not depend on the data's units: every loss and slack
    scales with (B - A)^2, and so does the audit's tolerance."""

    @staticmethod
    def _cases(rng):
        """Seven streams on [0, 1], each with its prior: the stress family
        (sizes 1 and K, no prior), then three random streams with random
        priors, drawn from `rng` in this order."""
        cases = [(ends_stream([1, k], [0, 1], [0, 1]), None)
                 for k in (2, 3, 5, 20)]
        return cases + [(stream, random_prior(rng, stream.num_experts))
                        for stream in (make_stream(rng, 3, 12),
                                       make_stream(rng, 4, 10, 1, 1),
                                       make_stream(rng, 2, 8, 3, 3))]

    @staticmethod
    def _runs(unit, prior, games):
        """The every-prefix runs of `unit`, mapped onto each game's interval,
        each with every check's slack of each of its reports."""
        for game in games:
            stream = rescale_stream(unit, game.lower, game.upper)
            n = stream.num_experts
            runs = run_experiment(stream, game, prior=prior,
                                  every_prefix=True).algorithms
            yield [(a, [bd._checks(a.records, r.algorithm, game,
                                   uniform_prior(n) if prior is None else prior,
                                   a.params.get("pack_size"),
                                   every_prefix=True)["slack"]
                        for r in a.reports]) for a in runs]

    @pytest.mark.parametrize("scale", [2.0 ** -17, 2.0 ** 20])
    def test_rescaling_keeps_every_verdict(self, rng, scale):
        # Powers of two scale exactly: the predictions by s and the slacks
        # by s^2, bit for bit.  On [0, 1] the stress family (sizes 1 and K)
        # fails aap-incremental's audit for K >= 3 (ROADMAP item 1); on
        # [0, 2^-17] its slacks are within 1e-9 of zero, and still fail.
        games = [GameSpec.for_interval(0, upper) for upper in (1, scale)]
        for unit, prior in self._cases(rng):
            for (ours, ours_slacks), (scaled, scaled_slacks) in zip(
                    *self._runs(unit, prior, games)):
                np.testing.assert_array_equal(
                    scaled.records.learner_preds,
                    scale * ours.records.learner_preds)
                for a, b, slack_a, slack_b in zip(
                        ours.reports, scaled.reports, ours_slacks,
                        scaled_slacks):
                    np.testing.assert_array_equal(slack_b, scale ** 2 * slack_a)
                    assert b.min_slack == scale ** 2 * a.min_slack
                    assert b.passed == a.passed
                    assert ((slack_b < -b.tolerance).sum()
                            == (slack_a < -a.tolerance).sum())

    @pytest.mark.parametrize("lower, upper", [
        (5.0, 9.0), (-3.0, 1.0), (1e6, 1e6 + 1024), (-1e-3, 1e-3)])
    def test_shifting_keeps_every_verdict(self, rng, lower, upper):
        # An affine map x -> A + s x with s = B - A moves the origin: the
        # predictions map affinely and the slacks scale by s^2, up to
        # rounding, and no verdict moves (the smallest unit-interval |slack|
        # of these cases is 0.061).
        s = upper - lower
        games = [GameSpec.for_interval(0, 1), GameSpec.for_interval(lower, upper)]
        for unit, prior in self._cases(rng):
            for (ours, ours_slacks), (shifted, shifted_slacks) in zip(
                    *self._runs(unit, prior, games)):
                np.testing.assert_allclose(
                    shifted.records.learner_preds,
                    lower + s * ours.records.learner_preds,
                    rtol=0, atol=1e-12 * s)
                for a, b, slack_a, slack_b in zip(
                        ours.reports, shifted.reports, ours_slacks,
                        shifted_slacks):
                    np.testing.assert_allclose(
                        slack_b, s ** 2 * slack_a,
                        rtol=0, atol=bd.SLACK_TOL * s ** 2)
                    assert b.passed == a.passed
                    assert ((slack_b < -b.tolerance).sum()
                            == (slack_a < -a.tolerance).sum())
