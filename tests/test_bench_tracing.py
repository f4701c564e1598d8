"""The traced benchmark patches blamekit functions by module attribute
(bench/tracing.py); every name it patches must still exist."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    from blamekit import network

    original = network.train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert network.train is not original
        assert network.train.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert network.train is original
