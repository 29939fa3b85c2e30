"""The bench's traced run patches names in waferforge; each must still exist."""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_probe_resolves_in_a_home(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Tracer

    tracer = Tracer(layers.PROBES)
    tracer.install()
    try:
        assert tracer.missing == set()
    finally:
        tracer.uninstall()
