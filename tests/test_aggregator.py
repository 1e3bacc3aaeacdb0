import hashlib

import numpy as np
import pytest

from packpredict import (
    DivisorPolicy,
    GameSpec,
    PackStream,
    audit_run,
    init_state,
    normalized_weights,
    observe_pack,
    predict_item,
    predict_pack,
    run_aa,
    run_aap_incremental,
    run_experiment,
    run_parallel,
    substitute,
    substitute_pack,
    uniform_prior,
)
from packpredict.cli import main

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


# Three experts, four single-item packs.
THREE = PackStream(np.tile([[0.2], [0.5], [0.9]], 4), np.full(4, 0.4),
                   [1, 1, 1, 1])
PRIOR_ENTRIES = {
    "run_aap_incremental": lambda p: run_aap_incremental(THREE, GAME, p),
    "run_parallel": lambda p: run_parallel(THREE, GAME, p),
    "run_experiment": lambda p: run_experiment(THREE, GAME, prior=p),
    "audit_run": lambda p: audit_run(run_aa(THREE, GAME), "aa", GAME, p),
    "init_state": init_state,
}


@pytest.mark.parametrize("entry, prior, message", [
    ("run_aap_incremental", [0.5, 0.5], "prior has 2 entries for 3 experts"),
    ("run_parallel", [0.5, 0.5], "prior has 2 entries for 3 experts"),
    ("run_experiment", [0.5, 0.5], "prior has 2 entries for 3 experts"),
    ("audit_run", [0.5, 0.5], "prior has 2 entries for 3 experts"),
    ("cli", [0.5, 0.5], "prior has 2 entries for 3 experts"),
    # None means a uniform prior only to the runs; these two refuse it.
    ("audit_run", None, "must form a 1-d array"),
    ("init_state", None, "must form a 1-d array"),
])
def test_prior_contract_is_stated_once(entry, prior, message, capsys):
    if entry == "cli":
        assert main(["synth", "--experts", "3", "--trials", "4",
                     "--prior", ",".join(map(str, prior))]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValueError, match=message):
            PRIOR_ENTRIES[entry](prior)


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
        for shape in ((3, 1), (2, 1, 1)):
            with pytest.raises(ValueError, match="experts"):
                observe_pack(state, np.zeros(shape), DivisorPolicy.fixed(1), GAME)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                observe_pack(state, np.array([[bad], [0.2]]),
                             DivisorPolicy.fixed(1), GAME)
        observe_pack(state, np.array([[-0.0], [0.2]]), DivisorPolicy.fixed(1),
                     GAME)
        assert state.cumulative_losses.tolist() == [0.0, 0.2]


class TestWeightsAndPredict:
    def test_all_underflowed_weights_fatal(self):
        state = init_state(uniform_prior(2))
        state.log_weights = np.array([-np.inf, -np.inf])
        with pytest.raises(FloatingPointError):
            normalized_weights(state)
        with pytest.raises(FloatingPointError):
            predict_pack(state, np.full((2, 3), 0.5), GAME)
        with pytest.raises(FloatingPointError):
            predict_item(state, np.full(2, 0.5), GAME)

    def test_weights_stay_normalized(self, rng):
        state = init_state(uniform_prior(3))
        for _ in range(30):
            losses = rng.uniform(0, 1, size=(3, 2))
            observe_pack(state, losses, DivisorPolicy.current_pack(), GAME)
            assert normalized_weights(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_predict_matches_substitution(self, rng):
        # Predicting straight from the log-weights skips their normalization,
        # so it may differ from substituting the normalized weights in the
        # last bits only.
        game = GameSpec.for_interval(-3.0, 5.0)
        tol = 1e-15 * game.width
        for n in (1, 2, 9):
            state = init_state(rng.dirichlet(np.ones(n)))
            for _ in range(20):
                matrix = rng.uniform(game.lower, game.upper, size=(n, 6))
                w = normalized_weights(state)
                np.testing.assert_allclose(predict_pack(state, matrix, game),
                                           substitute_pack(w, matrix, game),
                                           rtol=0, atol=tol)
                assert predict_item(state, matrix[:, 0], game) == pytest.approx(
                    substitute(w, matrix[:, 0], game), rel=0, abs=tol)
                observe_pack(state, (matrix - matrix[0]) ** 2,
                             DivisorPolicy.running_max(), game)

    def test_predict_validates_input(self):
        state = init_state(uniform_prior(2))
        for matrix in (np.full((3, 2), 0.5), np.full((2, 0), 0.5),
                       np.full(2, 0.5), np.full((2, 2, 1), 0.5)):
            with pytest.raises(ValueError, match="2 x K"):
                predict_pack(state, matrix, GAME)
        for bad in (1.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                predict_pack(state, np.array([[0.5, bad], [0.5, 0.5]]), GAME)
        for preds in (np.full(3, 0.5), np.full((2, 1), 0.5)):
            with pytest.raises(ValueError):
                predict_item(state, preds, GAME)
        for bad in (-0.1, np.nan):
            with pytest.raises(ValueError, match="outside"):
                predict_item(state, np.array([0.5, bad]), GAME)
        for bad in (np.nan, np.inf):
            state.log_weights = np.array([bad, 0.0])
            with pytest.raises(ValueError):
                predict_pack(state, np.full((2, 1), 0.5), GAME)

    def test_predict_does_not_depend_on_memory_order(self, rng):
        # With 8 or more experts numpy sums adjacent values pairwise, so the
        # order the caller's matrix is stored in could change the rounding.
        state = init_state(rng.dirichlet(np.ones(9)))
        for _ in range(200):
            matrix = rng.uniform(0, 1, size=(9, 12))
            np.testing.assert_array_equal(
                predict_pack(state, matrix, GAME),
                predict_pack(state, np.asfortranarray(matrix), GAME))
            observe_pack(state, rng.uniform(0, 1, size=(9, 3)),
                         DivisorPolicy.current_pack(), GAME)


class TestOnlineBytes:
    # The sha256 prefixes of the online learner's predictions and of its
    # experts' loss totals on a seeded stream of 10 experts and 40 packs of
    # 1..60 items on [-3, 5]: first the pack learner with the running-max
    # divisor, then parallel copies stepped item by item with divisor 1.
    # Clipped draws put many predictions and outcomes on an endpoint.
    def test_output_bytes(self):
        rng = np.random.default_rng(18)
        game = GameSpec.for_interval(-3.0, 5.0)
        packs = []
        for size in rng.integers(1, 61, size=40):
            latent = rng.uniform(game.lower, game.upper, size=size)
            preds = np.clip(latent + rng.normal(scale=1.5, size=(10, size)),
                            game.lower, game.upper)
            outcomes = np.clip(latent + rng.normal(scale=1.0, size=size),
                               game.lower, game.upper)
            packs.append((preds, outcomes))

        state = init_state(uniform_prior(10))
        policy = DivisorPolicy.running_max()
        preds = []
        for matrix, outcomes in packs:
            preds.append(predict_pack(state, matrix, game))
            observe_pack(state, (matrix - outcomes) ** 2, policy, game)
        pack_preds = np.concatenate(preds).tobytes()
        pack_totals = state.cumulative_losses.tobytes()

        copies, preds = [], []
        for matrix, outcomes in packs:
            while len(copies) < outcomes.size:
                copies.append(init_state(uniform_prior(10)))
            preds += [predict_item(copies[k], matrix[:, k], game)
                      for k in range(outcomes.size)]
            for k in range(outcomes.size):
                observe_pack(copies[k], (matrix[:, k:k + 1] - outcomes[k]) ** 2,
                             DivisorPolicy.fixed(1), game)
        item_preds = np.array(preds).tobytes()
        item_totals = b"".join(c.cumulative_losses.tobytes() for c in copies)

        digests = [hashlib.sha256(b).hexdigest()[:16] for b in
                   (pack_preds, pack_totals, item_preds, item_totals)]
        assert digests == ["caa172aa4cead1eb", "264abffecb56f60e",
                           "30a588448296836d", "342a845484ced2c4"]
