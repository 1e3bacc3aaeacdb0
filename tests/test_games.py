import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packpredict import (
    DatasetSpec,
    GameSpec,
    PackStream,
    check_substitution_validity,
    init_state,
    max_mixable_eta,
    predict_item,
    rescale_stream,
    substitute_pack,
)
from packpredict.games import WEIGHT_TOL, _logsumexp, _mixed_loss, _substitute

from conftest import INTERVALS

# Reference values for weights (0.75, 0.25), experts (0.2, 0.8) on [0, 1]
# with eta = 2, computed independently with 60-digit arithmetic.
REF_W = np.array([0.75, 0.25])
REF_PREDS = np.array([0.2, 0.8])
REF_G0 = 0.13600503785673048895
REF_G1 = 0.41127832634962872192
REF_GAMMA = 0.36236335575355088351
# Best gamma found by brute-force minimax over a 10^4-point prediction grid.
REF_GAMMA_GRID = 0.36233623362336237


def unit_game(eta=2.0):
    return GameSpec(0.0, 1.0, eta)


def substitute_one(weights, expert_preds, game):
    """`substitute_pack` on one column of expert predictions."""
    column = np.reshape(np.asarray(expert_preds, dtype=float), (-1, 1))
    return float(substitute_pack(weights, column, game)[0])


def mixed_loss_at(weights, expert_preds, game, omega):
    """The mixed loss profile g of one round of expert predictions at the
    outcomes `omega`, from the kernel `_mixed_loss`."""
    with np.errstate(divide="ignore"):  # a zero weight is -inf
        log_w = np.log(np.asarray(weights, dtype=float))[:, None]
    preds = np.asarray(expert_preds, dtype=float)[:, None]
    return _mixed_loss(log_w, preds, np.atleast_1d(omega), game)


class TestLogSumExp:
    def test_matches_scipy(self, rng):
        # The library's own max-shift helper against scipy's, including
        # -inf entries, all-(-inf) slices, large magnitudes, and +inf and
        # NaN entries, whose slice maximum is not finite.
        from scipy.special import logsumexp

        ninf, inf, nan = -np.inf, np.inf, np.nan
        cases = [
            rng.normal(scale=50.0, size=7),
            rng.normal(size=(4, 6)),
            np.array([ninf, 0.3, ninf]),
            np.full(3, ninf),
            np.array([[ninf, ninf, 0.0], [0.5, ninf, ninf], [-2.0, ninf, 1.0]]),
            np.full((2, 3), ninf),
            np.array([-1e4, -1e4 - 1.0, -3e4]),
            np.array([1e308, 1e308]),
            np.array(-2.5),
            np.concatenate([rng.normal(size=(2, 5, 3)), np.full((2, 1, 3), ninf)],
                           axis=1),
            np.array([0.3, inf, -1.0]),
            np.array([[inf, ninf], [nan, 0.2], [ninf, ninf]]),
        ]
        axes = {0: (None,), 1: (None, 0), 2: (None, 0, 1, -1), 3: (None, -2)}
        for a in cases:
            for axis in axes[a.ndim]:
                got = _logsumexp(a, axis=axis)
                want = logsumexp(a, axis=axis)
                assert np.shape(got) == np.shape(want)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestGameSpec:
    def test_max_mixable_eta(self):
        assert max_mixable_eta(0, 1) == 2.0
        assert max_mixable_eta(0, 2) == 0.5
        assert max_mixable_eta(-1, 1) == 0.5

    def test_max_mixable_eta_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            max_mixable_eta(1, 1)
        with pytest.raises(ValueError):
            max_mixable_eta(0, np.inf)

    def test_for_interval_defaults(self):
        g = GameSpec.for_interval(0, 1)
        assert g.eta == 2.0 and g.c == 1.0
        g2 = GameSpec.for_interval(-3, 5, eta=0.01, c=1.5)
        assert g2.eta == 0.01 and g2.c == 1.5 and g2.width == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            GameSpec(1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            GameSpec(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            GameSpec(0.0, 1.0, 2.0, c=0.5)
        with pytest.raises(ValueError):
            GameSpec(0.0, np.nan, 2.0)
        # Non-finite eta or c, or a c/eta that overflows, would give NaN
        # losses rather than a guarantee.
        for eta, c in ((np.inf, 1.0), (2.0, np.inf), (1e-320, 1.0),
                       (1e-10, 1e300)):
            with pytest.raises(ValueError, match="finite"):
                GameSpec(0.0, 1.0, eta, c)
        assert GameSpec(0.0, 1.0, 1e-307).eta == 1e-307
        assert GameSpec(0.0, 1.0, 2.0, 1e300).c == 1e300



class TestGeneralizedPrediction:
    def test_reference_values(self):
        g = unit_game()
        assert mixed_loss_at(REF_W, REF_PREDS, g, 0.0) == \
            pytest.approx(REF_G0, abs=1e-15)
        assert mixed_loss_at(REF_W, REF_PREDS, g, 1.0) == \
            pytest.approx(REF_G1, abs=1e-15)

    def test_array_evaluation(self):
        g = unit_game()
        grid = np.linspace(0, 1, 11)
        vals = mixed_loss_at(REF_W, REF_PREDS, g, grid)
        assert vals.shape == (11,)
        assert vals[0] == pytest.approx(REF_G0, abs=1e-15)
        assert vals[-1] == pytest.approx(REF_G1, abs=1e-15)

    def test_single_expert_profile_is_own_loss(self):
        g = unit_game()
        grid = np.linspace(0, 1, 101)
        vals = mixed_loss_at([1.0], [0.4], g, grid)
        np.testing.assert_allclose(vals, (0.4 - grid) ** 2, atol=1e-14)

    def test_weight_validation(self):
        # The profile's weights are checked where they enter: by the
        # substitution and by the validity check that evaluates g.
        g = unit_game()
        for weights in ([0.6, 0.6], [-0.1, 1.1], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                substitute_one(weights, REF_PREDS, g)
            with pytest.raises(ValueError):
                check_substitution_validity(0.5, weights, REF_PREDS, g)

    def test_zero_weight_expert_drops_out(self):
        g = unit_game()
        with_zero = mixed_loss_at([0.0, 1.0], [0.1, 0.8], g, 0.3)
        alone = mixed_loss_at([1.0], [0.8], g, 0.3)
        assert with_zero == pytest.approx(alone, abs=1e-15)


class TestSubstitute:
    def test_reference_value(self):
        gamma = substitute_one(REF_W, REF_PREDS, unit_game())
        assert gamma == pytest.approx(REF_GAMMA, abs=1e-14)

    def test_matches_brute_force_minimax(self):
        # The closed form must land within one grid step of the best
        # prediction found by exhaustive search over 10^4 candidates.
        gamma = substitute_one(REF_W, REF_PREDS, unit_game())
        assert abs(gamma - REF_GAMMA_GRID) < 1.0 / 9999

    def test_reference_validity(self):
        gamma = substitute_one(REF_W, REF_PREDS, unit_game())
        slack = check_substitution_validity(gamma, REF_W, REF_PREDS, unit_game())
        assert slack <= 1e-12

    def test_single_expert_reproduced_exactly(self, rng):
        g = unit_game()
        for _ in range(50):
            p = float(rng.uniform(0, 1))
            assert substitute_one([1.0], [p], g) == p

    def test_equal_experts_reproduced(self):
        g = unit_game()
        gamma = substitute_one([0.3, 0.7], [0.4, 0.4], g)
        assert gamma == pytest.approx(0.4, abs=1e-14)

    def test_pack_columns_independent(self, rng):
        # Each column of a pack rounds as if substituted alone, whatever the
        # memory order, with expert counts on both sides of eight (numpy
        # sums eight or more adjacent values pairwise).
        g = unit_game()
        for n in (3, 8, 9, 17):
            w = rng.dirichlet(np.ones(n))
            for k in (1, 2, 7):
                for order in "CF":
                    preds = np.asarray(rng.uniform(0, 1, size=(n, k)), order=order)
                    singles = [substitute_one(w, preds[:, j], g) for j in range(k)]
                    np.testing.assert_array_equal(substitute_pack(w, preds, g),
                                                  singles)

    def test_fused_endpoints_match_two_calls(self, rng):
        # One `_mixed_loss` over both endpoints must round exactly like each
        # endpoint's mixture summed expert by expert in expert order,
        # whatever the memory order of its inputs.
        game = GameSpec.for_interval(-2.0, 3.0)
        a, b = game.lower, game.upper

        def in_expert_order(log_w, preds, omega):
            x = (preds - omega) ** 2 * -game.eta + log_w
            top = x.max(axis=0)
            total = np.exp(x[0] - top)
            for row in x[1:]:
                total = total + np.exp(row - top)
            return -(game.c / game.eta) * (np.log(total) + top)

        for n in (2, 3, 8, 9, 17):
            for k in (1, 2, 7, 64):
                for order in "CF":
                    preds = np.asarray(rng.uniform(a, b, (n, k)), order=order)
                    zero_weight = rng.normal(0, 3, (n, 1))
                    zero_weight[0] = -np.inf
                    for log_w in (rng.normal(0, 3, (n, 1)), zero_weight,
                                  np.asarray(rng.normal(0, 3, (n, k)), order=order)):
                        g_a = in_expert_order(log_w, preds, a)
                        g_b = in_expert_order(log_w, preds, b)
                        two_calls = np.clip(
                            0.5 * (a + b) + (g_a - g_b) / (2.0 * (b - a)), a, b)
                        np.testing.assert_array_equal(
                            _substitute(log_w, preds, game), two_calls)

    def test_shape_errors(self):
        g = unit_game()
        with pytest.raises(ValueError):
            substitute_pack(REF_W, np.zeros((3, 2)), g)
        with pytest.raises(ValueError):
            substitute_one(REF_W, [0.2, 1.4], g)
        # Every function taking one round of expert predictions checks them
        # the same way: a scalar or a matrix is no round.
        state = init_state([1.0])
        for bad in (0.4, np.full((1, 2), 0.4)):
            for check in (lambda p: predict_item(state, p, g),
                          lambda p: check_substitution_validity(0.4, [1.0], p, g)):
                with pytest.raises(ValueError, match="1-d vector"):
                    check(bad)
        with pytest.raises(ValueError, match="2 x K"):
            predict_item(init_state(REF_W), [0.4], g)
        with pytest.raises(ValueError, match="2 x K"):
            check_substitution_validity(0.4, REF_W, [0.4, 0.5, 0.6], g)

    @given(seed=st.integers(0, 2**32 - 1), eta_frac=st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_validity_is_monotone_in_eta(self, seed, eta_frac):
        # A prediction valid at some rate stays valid at any smaller rate:
        # the exponential mixture that it must dominate only grows as the
        # rate shrinks.
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 7))
        w = r.dirichlet(np.ones(n))
        preds = r.uniform(0, 1, size=n)
        gamma = substitute_one(w, preds, unit_game(2.0))
        smaller = unit_game(2.0 * eta_frac)
        assert check_substitution_validity(gamma, w, preds, smaller) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pack_inequality_from_full_rate_substitutions(self, seed):
        # Full-rate per-item substitutions dominate, at rate eta/K, the
        # exponential mixture of the experts' summed pack losses — the
        # geometric-mean step that every pack guarantee rests on.  Checked
        # over a full grid of outcome tuples.
        import itertools

        from scipy.special import logsumexp

        r = np.random.default_rng(seed)
        k = int(r.integers(1, 4))
        n = int(r.integers(1, 4))
        w = r.dirichlet(np.ones(n))
        preds = r.uniform(0, 1, size=(n, k))
        game = unit_game(2.0)
        gammas = substitute_pack(w, preds, game)
        rate = game.eta / k
        log_w = np.log(w)
        for tup in itertools.product(np.linspace(0, 1, 5), repeat=k):
            om = np.array(tup)
            lhs = -rate * np.sum((gammas - om) ** 2)
            rhs = logsumexp(log_w - rate * np.sum((preds - om) ** 2, axis=1))
            assert lhs >= rhs - 1e-12

    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        eta_frac=st.floats(0.05, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_validity_random(self, n, seed, eta_frac):
        # Any rate at or below the maximal mixable one must give a valid
        # substitution (slack within float noise on a 1001-point grid).
        r = np.random.default_rng(seed)
        w = r.dirichlet(np.ones(n))
        preds = r.uniform(0, 1, size=n)
        game = GameSpec(0.0, 1.0, 2.0 * eta_frac)
        gamma = substitute_one(w, preds, game)
        assert 0.0 <= gamma <= 1.0
        assert check_substitution_validity(gamma, w, preds, game) <= 1e-12

    @given(
        interval=st.tuples(st.floats(-5, 0), st.floats(0.5, 10)).map(
            lambda lw: (lw[0], lw[0] + lw[1])) | st.sampled_from(INTERVALS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_validity_other_intervals(self, interval, seed):
        # The slack is in the game's units, so its noise is 1e-12 (B - A)^2;
        # INTERVALS holds dollar-scale ones, one far from zero.  Equal
        # experts leave no room above the noise: on (3e4, 8e5) their slack
        # reaches about 4e-4, which is 6e-16 (B - A)^2.
        r = np.random.default_rng(seed)
        game = GameSpec.for_interval(*interval)
        w = r.dirichlet(np.ones(4))
        spread = r.uniform(game.lower, game.upper, size=4)
        for preds in (spread, np.full(4, spread[0])):
            gamma = substitute_one(w, preds, game)
            assert game.lower <= gamma <= game.upper
            assert (check_substitution_validity(gamma, w, preds, game)
                    <= 1e-12 * game.width ** 2)

    def test_validity_does_not_depend_on_the_grid(self, rng):
        # With c > 1 the slack can peak between grid points.  Refined beside
        # its grid maximum, a 5-point grid gives the slack a 100001-point
        # grid does, and never less than any point of a plain dense grid;
        # the plain 5-point grid falls short.
        short = 0
        for _ in range(60):
            lower, width = rng.uniform(-5, 5), rng.uniform(0.5, 10)
            game = GameSpec(lower, lower + width,
                            max_mixable_eta(0, width) * rng.uniform(0.3, 3),
                            rng.choice([1.0, 1.5, 2.0, 4.0]))
            n = int(rng.integers(1, 6))
            w = rng.dirichlet(np.ones(n))
            preds = rng.uniform(lower, lower + width, size=n)
            gamma = substitute_one(w, preds, game)
            tol = 1e-12 * width ** 2
            coarse = check_substitution_validity(gamma, w, preds, game, 5)
            fine = check_substitution_validity(gamma, w, preds, game, 100001)
            assert abs(coarse - fine) <= tol
            for size in (5, 100001):
                grid = np.linspace(game.lower, game.upper, size)
                plain = np.max((gamma - grid) ** 2
                               - mixed_loss_at(w, preds, game, grid))
                assert plain <= coarse + tol
                short += size == 5 and plain < coarse - 1e-6 * width ** 2
        assert short > 5

    def test_validity_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="grid_size must be >= 2, got 1"):
            check_substitution_validity(0.5, [0.5, 0.5], [0.1, 0.2],
                                        unit_game(), grid_size=1)

    def test_validity_checker_flags_bad_prediction(self):
        # An endpoint prediction against a far-away consensus must violate.
        g = unit_game()
        slack = check_substitution_validity(1.0, [0.5, 0.5], [0.1, 0.2], g)
        assert slack > 0.1


# Every entry that takes probability vectors, as a call on one vector over
# three experts.
PROBABILITY_ENTRIES = {
    "substitute_pack": lambda p: substitute_pack(
        p, np.full((3, 2), 0.5), unit_game()),
    "check_substitution_validity": lambda p: check_substitution_validity(
        0.5, p, [0.2, 0.5, 0.8], unit_game(), grid_size=11),
    "init_state": init_state,
}

# Every entry that takes an interval [lower, upper].
UNIT_STREAM = PackStream([[0.0, 1.0]], [0.5, 0.25], [2])
INTERVAL_ENTRIES = {
    "GameSpec": lambda lower, upper: GameSpec(lower, upper, 1e-3),
    "max_mixable_eta": max_mixable_eta,
    "rescale_stream": lambda lower, upper: rescale_stream(
        UNIT_STREAM, lower, upper),
    "DatasetSpec": lambda lower, upper: DatasetSpec(
        "data.csv", "month", "target", ("e1",), clip_lower=lower,
        clip_upper=upper),
}


class TestInputContracts:
    """`games` states what the games accept, once, for every entry."""

    @pytest.mark.parametrize("entry", list(PROBABILITY_ENTRIES.values()),
                             ids=list(PROBABILITY_ENTRIES))
    def test_probability_vectors_sum_to_one_within_weight_tol(self, entry):
        # Equal entries whose sum is 1 + 0.9 and 1 + 2 WEIGHT_TOL.
        entry(np.full(3, (1 + 0.9 * WEIGHT_TOL) / 3))
        with pytest.raises(ValueError,
                           match=f"expected 1 within {WEIGHT_TOL}"):
            entry(np.full(3, (1 + 2 * WEIGHT_TOL) / 3))

    @pytest.mark.parametrize("entry", list(INTERVAL_ENTRIES.values()),
                             ids=list(INTERVAL_ENTRIES))
    def test_intervals(self, entry):
        for lower, upper in [(0.0, 1.0), (5, 9), (-1e150, 1e150)]:
            entry(lower, upper)
        # Equal or swapped ends, an infinite or NaN end, an infinite width,
        # a finite width whose square is infinite.
        for lower, upper in [(1.0, 1.0), (1.0, 0.0), (0.0, math.inf),
                             (-math.inf, 0.0), (math.nan, 1.0),
                             (0.0, math.nan), (-1e308, 1e308), (0.0, 1e200)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"degenerate interval [{lower}, {upper}]")):
                entry(lower, upper)
