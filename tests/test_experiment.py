import dataclasses

import numpy as np
import pytest

from waferforge.availability import AvailabilityState
from waferforge.topology import Coord
from waferforge.variability import VariabilityConfig
from waferforge.wafer import (build_wafer, efficacy_arrays, program_floating_gates,
                              true_parameter_array)
from waferforge import dynamics
from waferforge.dynamics import EventQueue, cannot_spike
from waferforge.experiment import (
    EmitterSpec,
    HicannConfig,
    RecordingLimitError,
    RowSpec,
    SynapseSpec,
    UnusableComponentError,
    compile_network,
    prepare,
    readout,
    run_experiment,
    simulate,
    simulate_batch,
    write_trace_csv,
)

ZERO = VariabilityConfig().zeroed()


def quiet_wafer(seed=3, h=0):
    """Zero-variability wafer with neurons resting at 0.7 V, never firing."""
    w = build_wafer(seed, variability=ZERO)
    program_floating_gates(w, h, {
        "e_leak": 398, "v_threshold": 1023, "e_synx": 796, "e_syni": 171,
        "v_syntcx": 568, "v_syntci": 568, "v_convoffx": 512, "v_convoffi": 512,
        "i_gl": 74, "i_pulse": 1023, "v_reset": 284, "vgmax": [455] * 4,
    })
    return w


def spiking_values():
    return {"e_leak": 682, "v_threshold": 512, "v_reset": 284, "i_gl": 74,
            "i_pulse": 1023, "e_synx": 796, "e_syni": 171, "v_syntcx": 568,
            "v_syntci": 568, "v_convoffx": 512, "v_convoffi": 512,
            "vgmax": [455] * 4}


def test_resting_trace_exact():
    w = quiet_wafer()
    cfg = HicannConfig(hicann=0, enabled=[7])
    res = run_experiment(w, cfg, [], 0.05, [Coord.neuron(0, 7)], v_init="rest")
    tr = res.traces[Coord.neuron(0, 7)]
    # DAC 398 rests at 0.70029 V, divides to 0.35015 V: code 1593 everywhere
    assert np.all(tr == 1593 * 0.9 / 4095)
    assert res.adc_dt == pytest.approx(1e4 / 9.6e7, rel=1e-12)
    assert len(res.t) == int(np.floor(0.05 / res.adc_dt)) + 1


def test_reset_init_relaxes_to_rest():
    w = quiet_wafer()
    cfg = HicannConfig(hicann=0, enabled=[7])
    res = run_experiment(w, cfg, [], 0.1, [Coord.neuron(0, 7)], v_init="reset")
    tr = res.traces[Coord.neuron(0, 7)]
    assert tr[0] == pytest.approx(0.25, abs=1e-3)   # V_reset/2 at the ADC
    assert tr[-1] == pytest.approx(0.35, abs=1e-3)  # settled at E_leak/2
    assert np.all(np.diff(tr) >= 0)  # monotone charge toward rest


def test_stimulated_psp_visible_and_formats_agree():
    w = quiet_wafer()
    cfg = HicannConfig(
        hicann=0, enabled=[3],
        rows=[RowSpec(row=0, sign="x", source="in", gmax_div=11)],
        synapses=[SynapseSpec(row=0, col=3, weight=15, address=5)])
    rec = [Coord.neuron(0, 3)]
    a = run_experiment(w, cfg, [("in", 5, 0.02)], 0.08, rec, v_init="rest")
    b = run_experiment(w, cfg, [(("in", 5), 0.02)], 0.08, rec, v_init="rest")
    tra, trb = a.traces[rec[0]], b.traces[rec[0]]
    assert np.array_equal(tra, trb)
    # PSP rises well above the 0.35 V resting baseline (about +7 mV at the ADC)
    assert tra.max() - tra[0] > 5e-3
    # address mismatch delivers nothing
    c = run_experiment(w, cfg, [("in", 4, 0.02)], 0.08, rec, v_init="rest")
    assert c.traces[rec[0]].max() - c.traces[rec[0]][0] < 1e-3


def test_inhibitory_row_pulls_down():
    w = quiet_wafer()
    cfg = HicannConfig(
        hicann=0, enabled=[3],
        rows=[RowSpec(row=1, sign="i", source="in")],
        synapses=[SynapseSpec(row=1, col=3, weight=15, address=0)])
    rec = [Coord.neuron(0, 3)]
    res = run_experiment(w, cfg, [("in", 0, 0.02)], 0.08, rec, v_init="rest")
    tr = res.traces[rec[0]]
    assert tr.min() - tr[0] < -3e-3


def test_row_array_determines_target_circuits():
    # rows 220..439 live in the second array and reach circuits 256..511
    w = quiet_wafer()
    program_floating_gates(w, 0, {
        "e_leak": 398, "v_threshold": 1023, "e_synx": 796, "v_syntcx": 568,
        "v_convoffx": 512, "i_gl": 74, "vgmax": [455] * 4})
    cfg = HicannConfig(
        hicann=0, enabled=[300],
        rows=[RowSpec(row=230, sign="x", source="in")],
        synapses=[SynapseSpec(row=230, col=300 - 256, weight=15, address=0)])
    res = run_experiment(w, cfg, [("in", 0, 0.02)], 0.06, [Coord.neuron(0, 300)],
                         v_init="rest")
    tr = res.traces[Coord.neuron(0, 300)]
    assert tr.max() - tr[0] > 5e-3


def test_unprogrammed_vgmax_cell_drives_no_negative_step():
    # right after build_wafer the vgmax cells hold their offsets, and palette
    # entry 1 of hicann 0 sits below zero volts on seed 3
    w = build_wafer(3)
    assert true_parameter_array(w, 0, "vgmax1")[0] < 0.0
    cfg = HicannConfig(
        hicann=0, enabled=[0],
        rows=[RowSpec(row=0, sign="x", source="in", gmax_div=1, vgmax_sel=1)],
        synapses=[SynapseSpec(row=0, col=0, weight=15, address=0)])
    run = prepare(w, [cfg], [("in", 0, 0.02)], 0.04, v_init="rest")
    res = simulate_batch([run])[0]
    assert np.isfinite(res.engine.v).all()


def test_spiking_and_raster():
    w = build_wafer(5, variability=ZERO)
    program_floating_gates(w, 0, spiking_values())
    cfg = HicannConfig(hicann=0, enabled=[0, 1])
    res = run_experiment(w, cfg, [], 0.2, [Coord.neuron(0, 0)])
    spikes = res.raster[Coord.neuron(0, 0)]
    # leak-only ISI = tau_m * ln((1.2-0.5)/(1.2-0.9)) = 16.23 ms
    isi = np.diff(spikes)
    assert abs(np.mean(isi) - 0.0162337) < 2e-4
    assert np.array_equal(spikes, res.raster[Coord.neuron(0, 1)])


def test_emitter_drives_recurrent_synapse():
    w = build_wafer(6, variability=ZERO)
    program_floating_gates(w, 0, spiking_values())
    # circuit 0 fires regularly; its spikes excite the quiet circuit 9
    cfg = HicannConfig(
        hicann=0, enabled=[0, 9],
        rows=[RowSpec(row=0, sign="x", source="loop")],
        synapses=[SynapseSpec(row=0, col=9, weight=15, address=2)],
        emitters=[EmitterSpec(circuit=0, channel="loop", address=2)])
    net = compile_network(w, [cfg])
    assert net.recurrent_x is not None and net.recurrent_x.n_connections == 1
    sim = simulate(w, cfg, [], 0.2)
    v9 = sim.engine.v[sim.compiled.unit(Coord.neuron(0, 9))]
    spikes0 = sim.raster()[Coord.neuron(0, 0)]
    assert len(spikes0) >= 10
    # circuit 9 rests at 1.2 V (same e_leak) but v_threshold pins it: it fires
    # too, driven harder than leak alone because of the extra excitation
    assert v9.max() >= 0.9 - 1e-9 or len(sim.raster()[Coord.neuron(0, 9)]) > 0


def test_merged_group_scales_psp():
    w = quiet_wafer()
    base = dict(
        rows=[RowSpec(row=0, sign="x", source="in")],
        synapses=[SynapseSpec(row=0, col=3, weight=15, address=0)])
    single = HicannConfig(hicann=0, enabled=[3], **base)
    merged = HicannConfig(hicann=0, enabled=[3, 4], membrane_groups=[[3, 4]], **base)
    t1 = simulate(w, single, [("in", 0, 0.02)], 0.08, v_init="rest")
    t2 = simulate(w, merged, [("in", 0, 0.02)], 0.08, v_init="rest")
    h1 = t1.engine.v[t1.compiled.unit(Coord.neuron(0, 3))].max() - 0.7002932551319648
    h2 = t2.engine.v[t2.compiled.unit(Coord.neuron(0, 3))].max() - 0.7002932551319648
    # doubled capacitance and leak: same tau, half the PSP height
    assert h2 / h1 == pytest.approx(0.5, rel=0.02)
    # group members resolve to the same unit
    assert (t2.compiled.unit(Coord.neuron(0, 3))
            == t2.compiled.unit(Coord.neuron(0, 4)))


def test_readout_token_and_determinism():
    w = build_wafer(7)  # default variability: ADC noise active
    program_floating_gates(w, 0, {"e_leak": 398, "v_threshold": 1023, "i_gl": 74})
    cfg = HicannConfig(hicann=0, enabled=[2])
    sim = simulate(w, cfg, [], 0.03)
    a = readout(w, sim, [Coord.neuron(0, 2)], token=1)
    b = readout(w, sim, [Coord.neuron(0, 2)], token=1)
    c = readout(w, sim, [Coord.neuron(0, 2)], token=2)
    ka = a.traces[Coord.neuron(0, 2)]
    assert np.array_equal(ka, b.traces[Coord.neuron(0, 2)])
    assert not np.array_equal(ka, c.traces[Coord.neuron(0, 2)])
    # readings always land on the ADC grid
    codes = ka * 4095 / 0.9
    assert np.allclose(codes, np.rint(codes), atol=1e-9)


def test_recording_limit_is_twelve():
    w = quiet_wafer()
    cfg = HicannConfig(hicann=0, enabled=list(range(13)))
    rec13 = [Coord.neuron(0, n) for n in range(13)]
    with pytest.raises(RecordingLimitError):
        run_experiment(w, cfg, [], 0.01, rec13)
    res = run_experiment(w, cfg, [], 0.01, rec13[:12])
    assert len(res.traces) == 12


def test_recording_a_circuit_outside_the_network_is_named():
    w = quiet_wafer()
    cfg = HicannConfig(hicann=0, enabled=[0, 1])
    with pytest.raises(ValueError, match=r"neuron\[0,5\] was not part"):
        run_experiment(w, [cfg], (), 0.01, [Coord.neuron(0, 5)])
    with pytest.raises(ValueError, match=r"neuron\[0,5\] was not part"):
        prepare(w, [cfg], (), 0.01,
                trace_circuits=[Coord.neuron(0, 1), Coord.neuron(0, 5)])
    sim = simulate(w, [cfg], (), 0.01, trace_circuits=[Coord.neuron(0, 1)])
    with pytest.raises(ValueError, match=r"no trace stored for neuron\[0,0\]"):
        readout(w, sim, [Coord.neuron(0, 1), Coord.neuron(0, 0)])


def test_excluded_circuits_cannot_be_enabled():
    w = quiet_wafer()
    av = AvailabilityState(w.topology, [Coord.neuron(0, 5)])
    with pytest.raises(UnusableComponentError, match=r"neuron\[0,5\]"):
        compile_network(w, [HicannConfig(hicann=0, enabled=[3, 5])], av)
    with pytest.raises(UnusableComponentError, match=r"neuron\[0,5\]"):
        simulate(w, [HicannConfig(hicann=0, enabled=[4, 5],
                                  membrane_groups=[[4, 5]])], (), 0.01,
                 availability=av)
    # a circuit that is not enabled may be excluded
    net = compile_network(w, [HicannConfig(hicann=0, enabled=[4, 6],
                                           membrane_groups=[[4, 6]])], av)
    assert net.params.n_units == 1


def test_validation_rejects_bad_configs():
    w = quiet_wafer()
    row0 = [RowSpec(0, "x", "a")]
    for kw, match in (
            (dict(hicann=384), "hicann 384 out of range"),
            (dict(enabled=[1, 1]), "duplicate enabled circuits"),
            (dict(enabled=[512]), "circuit 512 out of range"),
            (dict(enabled=[1], membrane_groups=[[1, 2]]), "enabled circuits"),
            (dict(enabled=[1, 2, 3], membrane_groups=[[1, 2], [2, 3]]),
             "circuit 2 is listed twice"),
            (dict(rows=[RowSpec(0, "x", "a"), RowSpec(0, "i", "b")]), "configured twice"),
            (dict(synapses=[SynapseSpec(0, 0, 1, 0)]), "unconfigured row 0"),
            (dict(rows=row0, synapses=[SynapseSpec(0, 256, 1, 0)]), "column out of range"),
            (dict(rows=row0, synapses=[SynapseSpec(0, 5, 1, 0)]), "disabled circuit 5"),
            (dict(rows=row0, synapses=[SynapseSpec(0, 0, 16, 0)]), "weight must be 4-bit"),
            (dict(rows=row0, synapses=[SynapseSpec(0, 0, 1, 16)]), "address must be 4-bit"),
            (dict(rows=[RowSpec(440, "x", "a")]), "row 440 out of range"),
            (dict(rows=[RowSpec(0, "z", "a")]), "row sign"),
            (dict(rows=[RowSpec(0, "x", "a", gmax_div=0)]), "gmax_div"),
            (dict(rows=[RowSpec(0, "x", "a", vgmax_sel=4)]), "vgmax_sel"),
            (dict(emitters=[EmitterSpec(1, "a", 0)]), "emitter circuit not enabled"),
            (dict(emitters=[EmitterSpec(0, "a", 16)]), "address must be 4-bit")):
        cfg = HicannConfig(**{"hicann": 0, "enabled": [0], **kw})
        with pytest.raises(ValueError, match=match):
            compile_network(w, [cfg])
    with pytest.raises(ValueError, match="unknown v_init 'cold'"):
        prepare(w, HicannConfig(hicann=0, enabled=[0]), [], 0.01, v_init="cold")


def test_a_circuit_joins_one_membrane_group_once():
    # listed twice, a circuit would count twice: [[3, 3, 4]] compiled to 1.5
    # times the capacitance and leak of [[3, 4]]
    w = quiet_wafer()
    for groups in ([[3, 3, 4]], [[3, 4], [4]]):
        cfg = HicannConfig(hicann=0, enabled=[3, 4], membrane_groups=groups)
        with pytest.raises(ValueError, match="circuit [34] is listed twice"):
            compile_network(w, [cfg])
    net = compile_network(w, [HicannConfig(hicann=0, enabled=[3, 4],
                                           membrane_groups=[[3, 4]])])
    assert net.params.capacitance.tolist() == [2 * ZERO.membrane_capacitance]


def test_trace_csv_roundtrip(tmp_path):
    w = quiet_wafer()
    cfg = HicannConfig(hicann=0, enabled=[7])
    res = run_experiment(w, cfg, [], 0.02, [Coord.neuron(0, 7)], v_init="rest")
    path = tmp_path / "trace.csv"
    write_trace_csv(path, res, Coord.neuron(0, 7))
    text = path.read_text().splitlines()
    assert text[0] == "time_bio_s,volts"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(res.t), 2)
    assert np.allclose(data[:, 1], res.traces[Coord.neuron(0, 7)], atol=1e-9)


# ---------------------------------------------------------------------------
# batched integration: a run's result does not depend on its batch


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def assert_same_run(batched, alone):
    for name in ("v", "spike_units", "spike_times", "t", "record_units"):
        assert _bits(getattr(batched.engine, name)) \
            == _bits(getattr(alone.engine, name)), name
    assert batched.engine.n_steps == alone.engine.n_steps
    ra, rb = batched.raster(), alone.raster()
    assert list(ra) == list(rb)
    for coord in ra:
        assert _bits(ra[coord]) == _bits(rb[coord])


def prepare_and_simulate(w, configs, stimulus, duration, **kw):
    """The prepared run and, from the same FG state, the run alone."""
    return (prepare(w, configs, stimulus, duration, **kw),
            simulate(w, configs, stimulus, duration, **kw))


def psp_config(circuits, sign="x", gmax_div=11, weight=15):
    return HicannConfig(
        hicann=0, enabled=list(circuits),
        rows=[RowSpec(row=0, sign=sign, source="in", gmax_div=gmax_div)],
        synapses=[SynapseSpec(row=0, col=c, weight=weight, address=0)
                  for c in circuits])


def saturates(prepared) -> bool:
    """Does lifting the amplifier current limit change the run?"""
    unlimited = dataclasses.replace(prepared, compiled=dataclasses.replace(
        prepared.compiled, params=dataclasses.replace(
            prepared.compiled.params,
            i_sat=np.full(prepared.compiled.params.n_units, np.inf))))
    limited, free = simulate_batch([prepared]), simulate_batch([unlimited])
    return not np.array_equal(limited[0].engine.v, free[0].engine.v)


def test_batch_matches_separate_psp_runs():
    w = quiet_wafer()
    stim = [("in", 0, 0.01), ("in", 0, 0.011), ("in", 0, 0.03)]
    strong, strong_alone = prepare_and_simulate(
        w, psp_config([3, 4, 6], gmax_div=1), stim, 0.05, v_init="rest")
    # the same FG cells rewritten: prepare reads the state of its moment
    program_floating_gates(w, 0, {"e_leak": 455, "vgmax": [300] * 4})
    # events interleaved in time with the strong run's
    weak, weak_alone = prepare_and_simulate(
        w, psp_config([3, 5, 9], weight=4), [("in", 0, 0.005), ("in", 0, 0.02)],
        0.05,
        v_init="reset", trace_circuits=[Coord.neuron(0, 9), Coord.neuron(0, 5)])
    quiet, quiet_alone = prepare_and_simulate(
        w, psp_config([1, 2], sign="i"), [("in", 0, 0.02)], 0.05,
        v_init=np.array([0.5, 0.9]), trace_circuits=[])
    assert saturates(strong) and not saturates(weak)

    batch = simulate_batch([strong, weak, quiet])
    for batched, alone in zip(batch, [strong_alone, weak_alone, quiet_alone]):
        assert_same_run(batched, alone)
    assert batch[1].engine.v.shape[0] == 2 and batch[2].engine.v.shape[0] == 0


def test_batch_matches_separate_spiking_runs():
    w = build_wafer(5, variability=ZERO)
    # a weak pulse current: each spike is followed by a long reset clamp
    program_floating_gates(w, 0, dict(spiking_values(), i_pulse=120))
    slow, slow_alone = prepare_and_simulate(
        w, HicannConfig(hicann=0, enabled=[0, 1, 2], membrane_groups=[[1, 2]]),
        [], 0.2, v_init="rest")
    program_floating_gates(w, 0, dict(spiking_values(), i_pulse=600,
                                      v_threshold=480))
    fast, fast_alone = prepare_and_simulate(
        w, HicannConfig(hicann=0, enabled=[7, 8]), [], 0.2)
    v_reset = slow.compiled.params.v_reset[0]
    clamped = np.flatnonzero(slow_alone.engine.v[0] == v_reset)
    assert len(slow_alone.raster()[Coord.neuron(0, 0)]) >= 3
    assert np.any(np.diff(clamped) == 1)  # the membrane sat at reset

    for batched, alone in zip(simulate_batch([fast, slow]), [fast_alone, slow_alone]):
        assert_same_run(batched, alone)


def test_an_empty_batch_simulates_nothing():
    assert simulate_batch([]) == []
    assert simulate_batch(iter([])) == []


def recurrent_config(pre, post, sign):
    return HicannConfig(
        hicann=0, enabled=[pre, post],
        rows=[RowSpec(row=0, sign=sign, source="loop")],
        synapses=[SynapseSpec(row=0, col=post, weight=15, address=2)],
        emitters=[EmitterSpec(circuit=pre, channel="loop", address=2)])


def test_batch_matches_separate_recurrent_runs():
    w = build_wafer(6)  # circuits differ, so a stray connection shows
    program_floating_gates(w, 0, spiking_values())
    plain, plain_alone = prepare_and_simulate(
        w, HicannConfig(hicann=0, enabled=[20]), [], 0.2)
    exc, exc_alone = prepare_and_simulate(w, recurrent_config(0, 9, "x"), [], 0.2)
    inh, inh_alone = prepare_and_simulate(w, recurrent_config(12, 5, "i"), [], 0.2)
    assert exc.compiled.recurrent_x.n_connections == 1
    assert inh.compiled.recurrent_i.n_connections == 1
    assert len(exc_alone.raster()[Coord.neuron(0, 0)]) >= 10

    batch = simulate_batch([plain, exc, inh, exc])
    for batched, alone in zip(batch, [plain_alone, exc_alone, inh_alone, exc_alone]):
        assert_same_run(batched, alone)


def test_trains_split_the_engine_raster_per_unit():
    w = build_wafer(6)
    for h in (0, 1):
        program_floating_gates(w, h, spiking_values())
    spiking = prepare(w, [HicannConfig(hicann=0, enabled=[0, 1, 2],
                                       membrane_groups=[[2, 1]]),
                          HicannConfig(hicann=1, enabled=[5])], [], 0.1)
    recurrent = prepare(w, recurrent_config(3, 9, "x"), [], 0.1)
    program_floating_gates(w, 0, {"v_threshold": 1023, "e_leak": 398})
    psp = prepare(w, psp_config([4, 5]), [("in", 0, 0.02)], 0.1, v_init="rest")
    silent = prepare(w, HicannConfig(hicann=0, enabled=[6]), [], 0.1,
                     v_init="rest")
    assert scanned(psp)
    batch = simulate_batch([spiking, recurrent, psp, silent])
    heads = [[(0, 2), (0, 0), (1, 5)], [(0, 3), (0, 9)], [(0, 4), (0, 5)], [(0, 6)]]
    for sim, want in zip(batch, heads):
        e = sim.engine
        n = sim.compiled.params.n_units
        assert len(sim.trains) == n
        for u in range(n):
            assert _bits(sim.trains[u]) == _bits(e.spike_times[e.spike_units == u])
        raster = sim.raster()
        assert list(raster) == [Coord.neuron(*hc) for hc in want]
        for u, coord in enumerate(raster):
            assert _bits(raster[coord]) == _bits(e.spike_times[e.spike_units == u])
    # the units of the spiking run interleave in time, so the split reorders
    assert np.any(np.diff(batch[0].engine.spike_units) < 0)
    assert all(len(ts) >= 3 for ts in batch[0].trains)
    assert batch[3].trains[0].shape == (0,)


def test_group_columns_sum_their_members():
    w = build_wafer(3)  # circuits differ, so a wrong member shows
    program_floating_gates(w, 0, {"v_convoffx": 300, "v_convoffi": 300})
    groups = [[10], [20, 3, 7], list(range(48, 39, -1))]
    enabled = sorted(c for g in groups for c in g)
    net = compile_network(w, [HicannConfig(hicann=0, enabled=enabled,
                                           membrane_groups=groups)])
    g_l = true_parameter_array(w, 0, "g_leak")
    e_l = true_parameter_array(w, 0, "e_leak")
    gp_x, _ = efficacy_arrays(w, 0, "x")
    gp_i, _ = efficacy_arrays(w, 0, "i")
    p = net.params
    for got, want in ((p.g_leak, [g_l[g].sum() for g in groups]),
                      (p.g_leak_e, [(g_l[g] * e_l[g]).sum() for g in groups]),
                      (p.g_base_x, [gp_x[g].sum() for g in groups]),
                      (p.g_base_i, [gp_i[g].sum() for g in groups])):
        assert _bits(got) == _bits(np.array(want))
    assert np.all(p.g_base_x > 0) and np.all(p.g_base_i > 0)
    assert list(net.unit_head) == [10, 20, 48]
    assert list(net.unit_hicann) == [0, 0, 0]
    units = np.full(512, -1)
    for u, g in enumerate(groups):
        units[g] = u
    assert np.array_equal(net.unit_of[0], units)


def test_batch_rejects_mismatched_timing():
    w = quiet_wafer()
    cfg = HicannConfig(hicann=0, enabled=[7])
    a = prepare(w, cfg, [], 0.05)
    with pytest.raises(ValueError):
        simulate_batch([a, prepare(w, cfg, [], 0.06)])
    with pytest.raises(ValueError):
        simulate_batch([a, prepare(w, cfg, [], 0.05, dt=5e-5)])


# ---------------------------------------------------------------------------
# runs that cannot spike are integrated by the prefix scan


def n_steps_of(run):
    return int(round(run.duration / run.dt))


def scanned(run):
    """Whether ``simulate_batch`` solves the run by the prefix scan."""
    net = run.compiled
    return dynamics.scannable(net.params, run.v0, run.dt, n_steps_of(run),
                              run.events_x, run.events_i, net.recurrent_x,
                              net.recurrent_i)


LOOP = dynamics._loop  # the step loop, whatever a test patches


def loop_alone(run):
    """The run through the step loop, whichever path it would take."""
    return LOOP(dynamics._preamble(
        run.compiled.params, run.duration, run.dt, events_x=run.events_x,
        events_i=run.events_i, recurrent_x=run.compiled.recurrent_x,
        recurrent_i=run.compiled.recurrent_i, record_units=run.trace_units,
        v_init=run.v0))


def assert_same_engine(a, b):
    for name in ("v", "spike_units", "spike_times", "t", "record_units"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def test_mixed_batch_matches_separate_runs():
    w = quiet_wafer()
    stim = [("in", 0, 0.01), ("in", 0, 0.011), ("in", 0, 0.03)]
    strong, strong_alone = prepare_and_simulate(
        w, psp_config([3, 4, 6], gmax_div=1), stim, 0.05, v_init="rest")
    inh, inh_alone = prepare_and_simulate(
        w, psp_config([1, 2], sign="i"), [("in", 0, 0.02)], 0.05,
        v_init=np.array([0.5, 0.9]), trace_circuits=[Coord.neuron(0, 2)])
    program_floating_gates(w, 0, spiking_values())
    spiking, spiking_alone = prepare_and_simulate(
        w, psp_config([7, 8]), [("in", 0, 0.02)], 0.05)
    rest, rest_alone = prepare_and_simulate(
        w, HicannConfig(hicann=0, enabled=[9]), [], 0.05, v_init="rest")
    assert saturates(strong)
    assert [scanned(r) for r in (strong, inh, spiking, rest)] == [
        True, True, False, False]
    assert len(spiking_alone.raster()[Coord.neuron(0, 7)]) >= 3

    order = [spiking, strong, rest, inh, strong]
    alone = [spiking_alone, strong_alone, rest_alone, inh_alone, strong_alone]
    batch = simulate_batch(order)
    for batched, single in zip(batch, alone):
        assert_same_run(batched, single)
    # the scanned runs agree with the step loop to rounding
    for run, res in ((strong, batch[1]), (inh, batch[3])):
        loop = loop_alone(run)
        assert np.max(np.abs(res.engine.v - loop.v)) <= 1e-12
        assert loop.spike_units.shape == (0,)


def test_runs_the_scan_cannot_take_stay_on_the_loop():
    w = build_wafer(6)
    program_floating_gates(w, 0, spiking_values())
    # it can spike
    spiking = prepare(w, psp_config([3, 4]), [("in", 0, 0.02)], 0.05)
    # it has a recurrent connection (a quiet circuit, but connected)
    program_floating_gates(w, 0, {"v_threshold": 1023, "e_leak": 398})
    recurrent = prepare(w, recurrent_config(0, 9, "x"), [], 0.05)
    recurrent.events_x = EventQueue.from_times([0.01], [1], [2e-12], 1e-4)
    # it carries a negative amount
    negative = prepare(w, psp_config([5], sign="i"), [("in", 0, 0.02)], 0.05)
    negative.events_i = EventQueue.from_boundaries(
        np.array([100, 300]), np.array([0, 0]), np.array([-3e-10, 2e-12]))
    # its events leave segments of fewer than a few steps
    dense = prepare(w, psp_config([6]), [("in", 0, 0.0001 * k)
                                         for k in range(500)], 0.05)
    for run in (recurrent, dense):  # quiet, but not scanned
        assert cannot_spike(run.compiled.params, run.v0, run.dt,
                            n_steps_of(run), run.events_x, run.events_i)
    for run in (spiking, recurrent, negative, dense):
        assert not scanned(run)
        assert_same_engine(simulate_batch([run])[0].engine, loop_alone(run))
    assert len(simulate_batch([spiking])[0].raster()[Coord.neuron(0, 3)]) > 0


# ---------------------------------------------------------------------------
# runs with constant inputs are solved without the step loop


def with_params(run, **changes):
    params = dataclasses.replace(run.compiled.params, **changes)
    return dataclasses.replace(
        run, compiled=dataclasses.replace(run.compiled, params=params))


def loop_calls(monkeypatch):
    """Record the runs that reach the step loop from ``simulate_batch``."""
    calls = []

    def counted(run):
        calls.append(run.params.n_units)
        return LOOP(run)

    monkeypatch.setattr(dynamics, "_loop", counted)
    return calls


def amplifiers_off():
    # v_convoff at the DAC ceiling: no permanent synaptic conductance
    return dict(spiking_values(), v_convoffx=1023, v_convoffi=1023)


def test_constant_input_runs_skip_the_loop(monkeypatch):
    w = build_wafer(6)
    program_floating_gates(w, 0, amplifiers_off())
    spiking = prepare(w, HicannConfig(hicann=0, enabled=[3, 4, 5]), [], 0.1,
                      v_init="rest", trace_circuits=[Coord.neuron(0, 4)])
    program_floating_gates(w, 0, {"v_threshold": 1023})
    quiet = prepare(w, HicannConfig(hicann=0, enabled=[6, 7]), [], 0.1)
    # an event that lands after the last step changes nothing
    late = prepare(w, psp_config([8]), [("in", 0, 0.2)], 0.1)
    calls = loop_calls(monkeypatch)
    runs = [spiking, quiet, late, spiking]
    batch = simulate_batch(runs)
    assert calls == []
    for run, res in zip(runs, batch):
        assert_same_engine(res.engine, loop_alone(run))
    assert len(batch[0].trains[0]) >= 3


def test_runs_without_constant_inputs_stay_on_the_loop(monkeypatch):
    w = build_wafer(6)
    program_floating_gates(w, 0, amplifiers_off())
    plain = prepare(w, HicannConfig(hicann=0, enabled=[3, 4]), [], 0.05)
    n = plain.compiled.params.n_units
    # it receives an event (and can spike, so it is not scanned)
    evented = prepare(w, psp_config([3, 4]), [("in", 0, 0.02)], 0.05)
    # it has a recurrent connection
    recurrent = prepare(w, recurrent_config(0, 9, "x"), [], 0.05)
    # a permanent conductance with a finite amplifier limit can saturate
    saturable = with_params(plain, g_base_x=np.full(n, 3e-11))
    # a decay factor that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        diverging = with_params(plain, tau_syni=np.full(n, -1e-7))
        calls = loop_calls(monkeypatch)
        for run in (evented, recurrent, saturable, diverging):
            before = len(calls)
            res = simulate_batch([run, plain])[0]
            assert len(calls) == before + 1
            assert_same_engine(res.engine, loop_alone(run))
    assert len(simulate_batch([plain])[0].trains[0]) >= 3
    assert len(calls) == 4
