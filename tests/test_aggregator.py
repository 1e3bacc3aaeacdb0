import numpy as np
import pytest

from packpredict import (
    DivisorPolicy,
    GameSpec,
    init_state,
    normalized_weights,
    observe_pack,
    predict_item,
    predict_pack,
    substitute,
    substitute_pack,
    uniform_prior,
)

# Weights after one pack with per-expert loss sums {0, 0.5}, uniform prior,
# current-pack divisor K_t = 2, eta = 2: w2 = 0.5*exp(-0.5), then normalize.
# Reference from 60-digit arithmetic.
REF_P1 = 0.62245933120185456464
REF_P2 = 0.37754066879814543536

GAME = GameSpec(0.0, 1.0, 2.0)


class TestPolicy:
    def test_constructors(self):
        assert DivisorPolicy.fixed(3).pack_size == 3
        assert DivisorPolicy.running_max().kind == "running_max"
        assert DivisorPolicy.current_pack().kind == "current_pack"

    def test_validation(self):
        with pytest.raises(ValueError):
            DivisorPolicy("fixed")
        with pytest.raises(ValueError):
            DivisorPolicy.fixed(0)
        with pytest.raises(ValueError):
            DivisorPolicy("running_max", pack_size=2)
        with pytest.raises(ValueError):
            DivisorPolicy("nonsense")

    def test_charge_and_divisor(self):
        # Two packs of sizes 2 and 4 with loss sums 1 and 2 per expert.
        losses, sizes = np.array([[1.0, 2.0]] * 3), np.array([2, 4])
        running_max = np.array([1, 2])
        fixed = DivisorPolicy.fixed(4)
        np.testing.assert_array_equal(fixed.charge(losses, sizes), losses)
        assert fixed.divisor(running_max) == 4
        with pytest.raises(ValueError, match="exceeds declared size 3"):
            DivisorPolicy.fixed(3).charge(losses, sizes)
        with pytest.raises(ValueError):
            DivisorPolicy.fixed(3).charge(losses[:, 1], 4)
        growing = DivisorPolicy.running_max()
        np.testing.assert_array_equal(growing.charge(losses, sizes), losses)
        np.testing.assert_array_equal(growing.divisor(running_max), [1, 2])
        assert growing.divisor(5) == 5
        current = DivisorPolicy.current_pack()
        np.testing.assert_array_equal(current.charge(losses, sizes),
                                      [[0.5, 0.5]] * 3)
        np.testing.assert_array_equal(current.charge(losses[:, 1], 4),
                                      [0.5] * 3)
        assert current.divisor(running_max) == 1


class TestInit:
    def test_uniform_prior_logs(self):
        state = init_state(uniform_prior(4))
        np.testing.assert_allclose(state.log_weights, np.log(0.25), atol=0)
        assert state.trial_index == 0
        assert state.running_max_pack == 1
        np.testing.assert_array_equal(state.cumulative_losses, np.zeros(4))
        np.testing.assert_array_equal(state.charged_losses, np.zeros(4))

    def test_explicit_prior_logs(self):
        state = init_state([0.7, 0.3])
        np.testing.assert_array_equal(
            state.log_weights, np.log(np.array([0.7, 0.3]))
        )
        np.testing.assert_array_equal(state.charged_losses, np.zeros(2))

    def test_zero_prior_weight_rejected(self):
        with pytest.raises(ValueError):
            init_state([1.0, 0.0])

    def test_unnormalized_prior_rejected(self):
        with pytest.raises(ValueError):
            init_state([0.5, 0.6])

    def test_uniform_prior_validation(self):
        with pytest.raises(ValueError):
            uniform_prior(0)


class TestObserve:
    def test_current_pack_reference_weights(self):
        state = init_state(uniform_prior(2))
        losses = np.array([[0.0, 0.0], [0.25, 0.25]])
        observe_pack(state, losses, DivisorPolicy.current_pack(), GAME)
        w = normalized_weights(state)
        assert w[0] == pytest.approx(REF_P1, abs=1e-15)
        assert w[1] == pytest.approx(REF_P2, abs=1e-15)
        assert state.trial_index == 1
        np.testing.assert_allclose(state.cumulative_losses, [0.0, 0.5], atol=0)
        np.testing.assert_allclose(state.charged_losses, [0.0, 0.25], atol=0)

    def test_fixed_divisor_decrement(self):
        state = init_state([0.7, 0.3])
        losses = np.array([[0.1, 0.3], [0.2, 0.0]])
        observe_pack(state, losses, DivisorPolicy.fixed(4), GAME)
        expected = np.log([0.7, 0.3]) - (2.0 / 4.0) * np.array([0.4, 0.2])
        np.testing.assert_allclose(state.log_weights, expected, atol=0)

    def test_fixed_rejects_oversize_pack(self):
        # A rejected pack, here one too large for the declared size or one
        # with an infinite loss, must leave the state untouched.
        state = init_state(uniform_prior(2))
        observe_pack(state, np.full((2, 1), 0.5), DivisorPolicy.fixed(2), GAME)
        before = (state.log_weights.copy(), state.cumulative_losses.copy(),
                  state.charged_losses.copy(), state.running_max_pack,
                  state.trial_index)
        for losses in (np.zeros((2, 3)), np.array([[0.1, np.inf], [0.2, 0.3]])):
            with pytest.raises(ValueError):
                observe_pack(state, losses, DivisorPolicy.fixed(2), GAME)
            np.testing.assert_array_equal(state.log_weights, before[0])
            np.testing.assert_array_equal(state.cumulative_losses, before[1])
            np.testing.assert_array_equal(state.charged_losses, before[2])
            assert (state.running_max_pack, state.trial_index) == before[3:]

    def test_running_max_recomputes_from_prior(self):
        # Sizes 2 then 5: after the second pack every log-weight must equal
        # ln(prior) - eta * cumulative / 5, i.e. the early losses get
        # re-discounted at the new slower rate.
        prior = np.array([0.6, 0.4])
        state = init_state(prior)
        first = np.array([[0.2, 0.1], [0.0, 0.4]])
        second = np.array([[0.1] * 5, [0.2] * 5])
        observe_pack(state, first, DivisorPolicy.running_max(), GAME)
        np.testing.assert_array_equal(
            state.log_weights, np.log(prior) - (2.0 / 2.0) * first.sum(axis=1)
        )
        observe_pack(state, second, DivisorPolicy.running_max(), GAME)
        total = first.sum(axis=1) + second.sum(axis=1)
        np.testing.assert_array_equal(
            state.log_weights, np.log(prior) - (2.0 / 5.0) * total
        )
        assert state.running_max_pack == 5

    def test_running_max_never_shrinks(self):
        state = init_state(uniform_prior(2))
        observe_pack(state, np.zeros((2, 4)), DivisorPolicy.running_max(), GAME)
        observe_pack(state, np.ones((2, 1)), DivisorPolicy.running_max(), GAME)
        assert state.running_max_pack == 4
        np.testing.assert_allclose(
            state.log_weights, np.log(0.5) - (2.0 / 4.0) * np.ones(2), atol=0
        )

    def test_loss_validation(self):
        state = init_state(uniform_prior(2))
        with pytest.raises(ValueError):
            observe_pack(state, np.array([[-0.1], [0.2]]),
                         DivisorPolicy.fixed(1), GAME)
        with pytest.raises(ValueError):
            observe_pack(state, np.zeros((3, 1)), DivisorPolicy.fixed(1), GAME)


class TestWeightsAndPredict:
    def test_all_underflowed_weights_fatal(self):
        state = init_state(uniform_prior(2))
        state.log_weights = np.array([-np.inf, -np.inf])
        with pytest.raises(FloatingPointError):
            normalized_weights(state)

    def test_weights_stay_normalized(self, rng):
        state = init_state(uniform_prior(3))
        for _ in range(30):
            losses = rng.uniform(0, 1, size=(3, 2))
            observe_pack(state, losses, DivisorPolicy.current_pack(), GAME)
            assert normalized_weights(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_predict_delegates_to_substitution(self, rng):
        state = init_state([0.25, 0.75])
        observe_pack(state, rng.uniform(0, 1, size=(2, 3)),
                     DivisorPolicy.fixed(3), GAME)
        w = normalized_weights(state)
        preds = rng.uniform(0, 1, size=2)
        assert predict_item(state, preds, GAME) == substitute(w, preds, GAME)
        matrix = rng.uniform(0, 1, size=(2, 4))
        np.testing.assert_array_equal(
            predict_pack(state, matrix, GAME),
            substitute_pack(w, matrix, GAME),
        )
