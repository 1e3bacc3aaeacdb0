import dataclasses
import math

import numpy as np
import pytest

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
    theoretical_bound,
    uniform_prior,
)
from packpredict import bounds as bd

from conftest import ends_stream, make_stream, random_prior

GAME = GameSpec(0.0, 1.0, 2.0)


class TestClosedForms:
    def test_single_expert_zero_loss(self):
        assert theoretical_bound(bd.AA, 0.0, c=1, eta=2, prior_weight=1.0) == 0.0

    def test_known_max_size_value(self):
        # C=1, eta=2, K=30, prior 1/12, zero expert loss -> 15*ln(12).
        out = theoretical_bound(bd.AAP_MAX, 0.0, c=1, eta=2,
                                prior_weight=1 / 12, pack_size=30)
        assert out == pytest.approx(37.273599746820004653, abs=1e-12)

    def test_plain_current_value(self):
        # C=1, eta=2, Kmax=4, Kmin=2, prior 1/2, expert loss 10
        # -> 2*10 + 2*ln(2).
        out = theoretical_bound(bd.AAP_CURRENT_PLAIN, 10.0, c=1, eta=2,
                                prior_weight=0.5, max_pack=4, min_pack=2)
        assert out == pytest.approx(21.386294361119890619, abs=1e-12)

    def test_parallel_value(self):
        out = theoretical_bound(bd.PARALLEL, 0.0, c=1, eta=2,
                                prior_weight=0.5, max_delay=4)
        assert out == pytest.approx(1.3862943611198906188, abs=1e-15)

    def test_incremental_value(self):
        out = theoretical_bound(bd.AAP_INCREMENTAL, 0.0, c=1, eta=1,
                                prior_weight=0.5, max_pack=9)
        assert out == pytest.approx(6.2383246250395077848, abs=1e-12)

    def test_average_value(self):
        out = theoretical_bound(bd.AAP_CURRENT_AVERAGE, 0.0, c=1, eta=2,
                                prior_weight=1 / 3)
        assert out == pytest.approx(0.5493061443340548457, abs=1e-15)

    def test_broadcasts_over_losses(self):
        losses = np.array([0.0, 1.0, 2.0])
        out = theoretical_bound(bd.AA, losses, c=1, eta=1, prior_weight=0.5)
        np.testing.assert_allclose(out, losses + math.log(2), atol=1e-15)

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError):
            theoretical_bound(bd.AAP_MAX, 0.0, c=1, eta=2, prior_weight=0.5)
        with pytest.raises(ValueError):
            theoretical_bound(bd.AAP_CURRENT_PLAIN, 0.0, c=1, eta=2,
                              prior_weight=0.5, max_pack=4)
        with pytest.raises(ValueError):
            theoretical_bound(bd.PARALLEL, 0.0, c=1, eta=2, prior_weight=0.5)
        with pytest.raises(ValueError):
            theoretical_bound("nonsense", 0.0, c=1, eta=2, prior_weight=0.5)
        with pytest.raises(ValueError):
            theoretical_bound(bd.AA, 0.0, c=1, eta=2, prior_weight=0.0)
        # Packs of at least 4 and at most 2 items: no stream has them.
        with pytest.raises(ValueError, match="min_pack <= max_pack"):
            theoretical_bound(bd.AAP_CURRENT_PLAIN, 10.0, c=1, eta=2,
                              prior_weight=0.5, max_pack=2, min_pack=4)


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


class TestAuditRun:
    def test_each_algorithm_passes(self, rng):
        stream = make_stream(rng, 4, 20)
        prior = uniform_prior(4)
        cases = [
            (run_aap_max(stream, stream.max_pack_size, GAME), bd.AAP_MAX,
             dict(declared_pack_size=stream.max_pack_size)),
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

    def test_entry_counts(self, rng):
        stream = make_stream(rng, 3, 10)
        records = run_aap_incremental(stream, GAME)
        prior = uniform_prior(3)
        final_only = audit_run(records, bd.AAP_INCREMENTAL, GAME, prior)
        assert len(final_only.entries) == 3
        assert set(final_only.entries["prefix"].tolist()) == {10}
        full = audit_run(records, bd.AAP_INCREMENTAL, GAME, prior,
                         every_prefix=True)
        assert len(full.entries) == 30
        # One row per (prefix, expert), prefix-major, read off the records.
        learner = records.cumulative_loss.tolist()
        experts = records.expert_cumulative_losses.tolist()
        expected = [(n, learner[t], experts[t][n], t + 1)
                    for t in range(len(records)) for n in range(3)]
        assert full.entries[["expert_index", "learner_loss", "expert_loss",
                             "prefix"]].tolist() == expected

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
        assert len(report.violations) > 0

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
        sizes, top = np.asarray(stream.pack_sizes), stream.max_pack_size
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
        entries = report.entries
        term = entries["bound"] - entries["expert_loss"]
        # Early prefixes use divisor 1, so their additive term is smaller
        # than the final one with divisor 6.
        early_term = term[(entries["prefix"] == 1)
                          & (entries["expert_index"] == 0)][0]
        late_term = term[(entries["prefix"] == 4)
                         & (entries["expert_index"] == 0)][0]
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

    def test_theoretical_bound_matches_final_audit(self, rng):
        # Both read the one guarantee table; they must give the same bound
        # for every guarantee name.  aa needs unit packs and aap-equal one
        # common size; aap-max declares more than the largest pack so that
        # the declared size and the running max differ.
        game = GameSpec(0.0, 1.0, 1.5, 1.25)
        prior = random_prior(rng, 4)
        varied = make_stream(rng, 4, 15, size_min=2, size_max=6)
        streams = {
            bd.AA: (make_stream(rng, 4, 15, size_min=1, size_max=1), None),
            bd.AAP_EQUAL: (make_stream(rng, 4, 15, size_min=3, size_max=3), 3),
            bd.AAP_MAX: (varied, varied.max_pack_size + 2),
        }
        for algorithm in bd.ALGORITHMS:
            stream, declared = streams.get(algorithm, (varied, None))
            records = run_aap_current(stream, game, prior)
            report = audit_run(records, algorithm, game, prior,
                               declared_pack_size=declared)
            for n, expert_loss, bound in report.entries[
                    ["expert_index", "expert_loss", "bound"]].tolist():
                expected = theoretical_bound(
                    algorithm, expert_loss, c=game.c, eta=game.eta,
                    prior_weight=prior[n], pack_size=declared,
                    max_pack=stream.max_pack_size,
                    min_pack=stream.min_pack_size,
                    max_delay=stream.max_pack_size)
                assert expected == pytest.approx(bound, rel=1e-14, abs=0), \
                    algorithm

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

    @pytest.mark.parametrize("scale", [2.0 ** -17, 2.0 ** 20])
    def test_rescaling_keeps_every_verdict(self, rng, scale):
        # Powers of two scale exactly: the predictions by s and the slacks
        # by s^2, bit for bit.  On [0, 1] the stress family (sizes 1 and K)
        # fails aap-incremental's audit for K >= 3 (ROADMAP item 1); on
        # [0, 2^-17] its slacks are within 1e-9 of zero, and still fail.
        for unit, prior in self._cases(rng):
            runs = [run_experiment(stream, GameSpec.for_interval(0, upper),
                                   prior=prior, every_prefix=True).algorithms
                    for stream, upper in ((unit, 1),
                                          (rescale_stream(unit, 0, scale),
                                           scale))]
            for ours, scaled in zip(*runs):
                np.testing.assert_array_equal(
                    scaled.records.learner_preds,
                    scale * ours.records.learner_preds)
                for a, b in zip(ours.reports, scaled.reports):
                    np.testing.assert_array_equal(
                        b.entries["slack"], scale ** 2 * a.entries["slack"])
                    assert b.min_slack == scale ** 2 * a.min_slack
                    assert b.passed == a.passed
                    assert len(b.violations) == len(a.violations)

    @pytest.mark.parametrize("lower, upper", [
        (5.0, 9.0), (-3.0, 1.0), (1e6, 1e6 + 1024), (-1e-3, 1e-3)])
    def test_shifting_keeps_every_verdict(self, rng, lower, upper):
        # An affine map x -> A + s x with s = B - A moves the origin: the
        # predictions map affinely and the slacks scale by s^2, up to
        # rounding, and no verdict moves (the smallest unit-interval |slack|
        # of these cases is 0.061).
        s = upper - lower
        for unit, prior in self._cases(rng):
            runs = [run_experiment(stream, GameSpec.for_interval(a, b),
                                   prior=prior, every_prefix=True).algorithms
                    for stream, a, b in (
                        (unit, 0, 1),
                        (rescale_stream(unit, lower, upper), lower, upper))]
            for ours, shifted in zip(*runs):
                np.testing.assert_allclose(
                    shifted.records.learner_preds,
                    lower + s * ours.records.learner_preds,
                    rtol=0, atol=1e-12 * s)
                for a, b in zip(ours.reports, shifted.reports):
                    np.testing.assert_allclose(
                        b.entries["slack"], s ** 2 * a.entries["slack"],
                        rtol=0, atol=bd.SLACK_TOL * s ** 2)
                    assert b.passed == a.passed
                    assert len(b.violations) == len(a.violations)
