"""Acceptance-sampling screener: training, certainty bands, accuracy."""

import numpy as np
import pytest

from repro.problems import make_quadratic_problem, make_sphere_problem
from repro.sampling.acceptance import LinearMarginScreener


@pytest.fixture
def problem():
    return make_sphere_problem(sigma=0.3)


def _simulate(problem, x, samples):
    """Performance of design ``x`` at every sample row."""
    return problem.evaluate_pairs(np.broadcast_to(x, (len(samples), x.size)), samples)


def _train_screener(problem, x, n_train=200, safety=3.0, seed=0):
    screener = LinearMarginScreener(problem.specs, safety=safety, min_train=30)
    rng = np.random.default_rng(seed)
    samples = problem.variation.sample(n_train, rng)
    performance = _simulate(problem, x, samples)
    screener.update(samples, problem.specs.margins(performance))
    return screener


class TestTraining:
    def test_inactive_until_min_train(self, problem):
        screener = LinearMarginScreener(problem.specs, min_train=30)
        assert not screener.active
        rng = np.random.default_rng(0)
        samples = problem.variation.sample(10, rng)
        margins = problem.specs.margins(
            _simulate(problem, np.full(4, 0.6), samples)
        )
        screener.update(samples, margins)
        assert not screener.active  # 10 < 30

    def test_becomes_active(self, problem):
        screener = _train_screener(problem, np.full(4, 0.6))
        assert screener.active
        assert screener.n_train == 200

    def test_invalid_safety(self, problem):
        with pytest.raises(ValueError):
            LinearMarginScreener(problem.specs, safety=0.0)

    def test_owns_its_training_rows(self, problem):
        # The engine hands over rows of a round buffer that the round's
        # next group overwrites before the (lazy) fit reads them.
        x = np.full(4, 0.5)
        rng = np.random.default_rng(0)
        samples = problem.variation.sample(200, rng)
        margins = problem.specs.margins(_simulate(problem, x, samples))
        fed, untouched = (LinearMarginScreener(problem.specs, min_train=30) for _ in range(2))
        untouched.update(samples.copy(), margins)
        fed.update(samples, margins)
        samples[:] = problem.variation.sample(200, rng)
        batch = problem.variation.sample(500, np.random.default_rng(1))
        expected = untouched.classify(batch)
        assert expected.n_screened > 0
        assert np.array_equal(fed.classify(batch).labels, expected.labels)


class TestClassification:
    def test_inactive_screener_simulates_everything(self, problem):
        screener = LinearMarginScreener(problem.specs)
        rng = np.random.default_rng(1)
        samples = problem.variation.sample(25, rng)
        result = screener.classify(samples)
        assert result.n_screened == 0
        assert np.all(result.simulate_mask)

    def test_screens_a_useful_fraction(self, problem):
        """On the linear synthetic problem most samples are far from the
        border, so the trained screener should skip a large share."""
        x = np.full(4, 0.6)
        screener = _train_screener(problem, x)
        rng = np.random.default_rng(2)
        fresh = problem.variation.sample(500, rng)
        result = screener.classify(fresh)
        assert result.n_screened > 100

    def test_screened_labels_are_accurate(self, problem):
        """Certain-pass/fail labels must agree with the true indicator
        essentially always (safety = 3 sigma)."""
        x = np.full(4, 0.55)
        screener = _train_screener(problem, x, n_train=300)
        rng = np.random.default_rng(3)
        fresh = problem.variation.sample(2000, rng)
        result = screener.classify(fresh)
        truth = problem.specs.passes(_simulate(problem, x, fresh))
        labelled = result.labels >= 0
        if np.any(labelled):
            agreement = np.mean(
                (result.labels[labelled] == 1) == truth[labelled]
            )
            assert agreement > 0.995

    def test_two_spec_problem(self):
        problem = make_quadratic_problem()
        x = np.full(5, 0.62)
        screener = _train_screener(problem, x, n_train=300)
        rng = np.random.default_rng(4)
        fresh = problem.variation.sample(1000, rng)
        result = screener.classify(fresh)
        truth = problem.specs.passes(_simulate(problem, x, fresh))
        labelled = result.labels >= 0
        if np.any(labelled):
            agreement = np.mean((result.labels[labelled] == 1) == truth[labelled])
            assert agreement > 0.99

    def test_higher_safety_screens_less(self, problem):
        x = np.full(4, 0.58)
        tight = _train_screener(problem, x, safety=2.0)
        loose = _train_screener(problem, x, safety=5.0)
        rng = np.random.default_rng(5)
        fresh = problem.variation.sample(800, rng)
        assert tight.classify(fresh).n_screened >= loose.classify(fresh).n_screened

    def test_empty_batch(self, problem):
        screener = _train_screener(problem, np.full(4, 0.6))
        result = screener.classify(np.empty((0, problem.process_dimension)))
        assert result.n_screened == 0
        assert result.labels.shape == (0,)
