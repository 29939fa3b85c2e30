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


def test_the_integrate_probe_sees_constant_input_runs(monkeypatch):
    # e_leak's rest sweep is one stacked run with constant inputs; it reaches
    # the bench's probe on the integrator as simulate_batch calls it
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from tracer import Stats, Tracer

    from waferforge.wafer import build_wafer

    w, db, neurons = build_wafer(3), cal.CalibrationDb(), [0, 128, 256, 384]
    cal.calibrate_readout_shift(w, db, 0, neurons=neurons)
    tracer = Tracer([p for p in layers.PROBES if p.layer == "dynamics"])
    tracer.install()
    stats = Stats()
    try:
        assert tracer.missing == set()
        entries = tracer.run(stats, cal.calibrate_voltage, w, db, 0, "e_leak",
                             neurons=neurons)
    finally:
        tracer.uninstall()
    assert len(entries) == 4
    assert tracer.absent == set()
    assert stats.get("dynamics.integrate", "calls") >= 1
    assert stats.get("dynamics.integrate", "steps") > 0


def test_commissioning_counts_measure_the_same_work(monkeypatch):
    # the dense workload's per-layer counts: one stability test per unstable
    # array, and the coordinates that reach exclude/exclude_many
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import workloads
    from tracer import Stats, Tracer

    from waferforge import commissioning

    wl = workloads.CommissionDense(workloads.DEFAULT_SEEDS["commission_dense"])
    wafer = wl.setup(0)
    tracer = Tracer([p for p in layers.PROBES
                     if p.layer in ("commissioning", "availability")])
    tracer.install()
    stats = Stats()
    try:
        assert tracer.missing == set()
        tracer.run(stats, commissioning.commission, wafer)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    assert stats.get("commissioning.stability_test", "calls") == 6
    assert stats.get("availability.exclude", "coords") == 288
