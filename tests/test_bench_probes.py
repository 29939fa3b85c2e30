"""The bench's traced run patches names in waferforge; each must still exist."""

from pathlib import Path

from waferforge import calibration as cal

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


def test_every_op_reaches_its_probe_under_its_own_key(monkeypatch):
    # calibrate_hicann runs each op through its public function, looked up at
    # call time; the bench's probe on that function reads the op from the call
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    probes = {p.name: p for p in layers.PROBES if p.layer == "calibration"}
    for op in cal.OPS:
        calls = []
        monkeypatch.setattr(cal, op.function, lambda *a, **k: calls.append((a, k)) or [])
        assert cal._run_op("wafer", "db", 0, op.name, "availability", [5]) == []
        [(args, kwargs)] = calls
        assert args == ("wafer", "db", 0) + (() if op.arg is None else (op.arg,))
        assert kwargs == {"availability": "availability", "neurons": [5]}
        assert probes[op.function].key(args, kwargs) == f"calibration.{op.name}"
