"""Per-neighbour link estimators."""

import random

import pytest

from repro.mac.link_estimator import LinkEstimator


def test_initial_loss_seed():
    estimator = LinkEstimator(1, initial_loss=0.3)
    assert estimator.loss_rate == pytest.approx(0.3)


def test_loss_rate_converges_to_observed():
    estimator = LinkEstimator(1, loss_alpha=0.1, initial_loss=0.5)
    rng = random.Random(0)
    for _ in range(3000):
        estimator.record_attempt(rng.random() >= 0.2)
    assert 0.10 <= estimator.loss_rate <= 0.32


def test_loss_rate_bounded():
    estimator = LinkEstimator(1, initial_loss=0.0)
    for _ in range(50):
        estimator.record_attempt(False)
    assert estimator.loss_rate < 1.0
    for _ in range(500):
        estimator.record_attempt(True)
    assert estimator.loss_rate >= 0.0


def test_empirical_loss_rate():
    estimator = LinkEstimator(1)
    estimator.record_attempt(True)
    estimator.record_attempt(False)
    assert estimator.empirical_loss_rate == pytest.approx(0.5)


def test_average_attempts_tracks_packets():
    estimator = LinkEstimator(1, attempts_alpha=0.5)
    for _ in range(20):
        estimator.record_packet(attempts_used=3, delivered=True)
    assert estimator.average_attempts == pytest.approx(3.0, rel=0.05)
    assert estimator.average_attempts >= 1.0


def test_average_attempts_floor_is_one():
    estimator = LinkEstimator(1)
    estimator.record_packet(attempts_used=0, delivered=True)
    assert estimator.average_attempts >= 1.0


def test_delivery_ratio():
    estimator = LinkEstimator(1)
    estimator.record_packet(1, delivered=True)
    estimator.record_packet(5, delivered=False)
    assert estimator.delivery_ratio == pytest.approx(0.5)
    assert LinkEstimator(2).delivery_ratio == 1.0

