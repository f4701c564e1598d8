"""Shared fixtures: synthetic benchmarks with trained detectors.

Two pipelines are trained once per session: an 8-dimensional one
matching the default benchmark, and a 16-dimensional one used for the
attribution property suites (wider observations spread the per-axis
perturbation mass, which the convergence checks rely on).
"""

import numpy as np
import pytest

from blamekit import (
    BenchmarkConfig,
    LabeledSet,
    NegativeSamplingConfig,
    TrainConfig,
    fit_detector,
    generate_fault_benchmark,
    select_baseline,
)

NS_CFG = NegativeSamplingConfig(ratio=3.0, envelope=0.05, seed=1)


def train_cfg(epochs: int) -> TrainConfig:
    return TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=64,
                       hidden=(24,), seed=2)


@pytest.fixture(scope="session")
def bench8():
    cfg = BenchmarkConfig(dims=8, fault_dims=(1, 2), seed=0)
    train, test = generate_fault_benchmark(cfg)
    return cfg, train, test


@pytest.fixture(scope="session")
def det8(bench8):
    _, train, _ = bench8
    return fit_detector(train, NS_CFG, train_cfg(300))


@pytest.fixture(scope="session")
def ex8(bench8, det8):
    _, train, _ = bench8
    return select_baseline(det8.normalizer.apply(train.values), det8,
                           n=5, epsilon=0.1, seed=3)


@pytest.fixture(scope="session")
def bench16():
    cfg = BenchmarkConfig(dims=16, fault_dims=(1, 2), seed=0)
    train, test = generate_fault_benchmark(cfg)
    return cfg, train, test


@pytest.fixture(scope="session")
def det16(bench16):
    _, train, _ = bench16
    return fit_detector(train, NS_CFG, train_cfg(400))


@pytest.fixture(scope="session")
def ex16(bench16, det16):
    _, train, _ = bench16
    return select_baseline(det16.normalizer.apply(train.values), det16,
                           n=5, epsilon=0.1, seed=3)


def fault_rows(test):
    m = test.anomalous
    return LabeledSet(test.x[m], m[m], test.beta[m])


@pytest.fixture(scope="session")
def anomalies16(bench16):
    _, _, test = bench16
    return fault_rows(test)


@pytest.fixture(scope="session")
def anomalies8(bench8):
    _, _, test = bench8
    return fault_rows(test)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-gate lines after the normal pytest summary."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in RESULTS:
            terminalreporter.write_line(line)
