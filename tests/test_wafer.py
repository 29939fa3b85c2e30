import dataclasses
import json
import os
import re
import signal
import sys
import threading
import time

import numpy as np
import pytest

from waferforge import rng
from waferforge.defects import Defect, DefectSet, DefectType
from waferforge.topology import Coord, Kind, TopologyConfig
from waferforge.variability import SoftplusLaw, VariabilityConfig
from waferforge.wafer import (
    CONTROL_CELL,
    FG_CELLS,
    WaferModel,
    adc_readout,
    build_wafer,
    conductance_step_array,
    dac_to_ua,
    dac_to_volts,
    efficacy_arrays,
    fg_dac_array,
    inverse_softplus_tau,
    program_floating_gates,
    softplus_tau,
    true_parameter_array,
)

CFG = TopologyConfig()
ZERO = VariabilityConfig().zeroed()
PER_CIRCUIT = [name for name, cell in FG_CELLS.items() if not cell.shared]


def d(volts):
    return round(volts / 1.8 * 1023)


def test_truth_deterministic_per_seed():
    a = build_wafer(11)
    b = build_wafer(11)
    c = build_wafer(12)
    for h in (0, 17, 383):
        ta, tb, tc = a.truth(h), b.truth(h), c.truth(h)
        assert np.array_equal(ta.gain["e_leak"], tb.gain["e_leak"])
        assert np.array_equal(ta.readout_shift, tb.readout_shift)
        assert np.array_equal(ta.weight_scale, tb.weight_scale)
        assert not np.array_equal(ta.gain["e_leak"], tc.gain["e_leak"])
    # per-HICANN streams are independent
    assert not np.array_equal(a.truth(0).gain["e_leak"], a.truth(1).gain["e_leak"])


def test_zeroed_sets_every_spread_and_nothing_else():
    base = VariabilityConfig(adc_bits=10, membrane_capacitance=1e-12,
                             tau_mem_rel_sigma=0.3)
    zero = base.zeroed()
    spreads = [f.name for f in dataclasses.fields(base) if "sigma" in f.name]
    assert all(getattr(base, name) > 0.0 for name in spreads)
    for f in dataclasses.fields(base):
        want = 0.0 if f.name in spreads else getattr(base, f.name)
        assert getattr(zero, f.name) == want, f.name


def test_zeroed_variability_is_identity():
    w = build_wafer(3, variability=ZERO)
    t = w.truth(5)
    for name in ("e_leak", "v_threshold", "e_synx", "e_syni", "v_convoffx", "v_convoffi"):
        assert np.all(t.gain[name] == 1.0)
        assert np.all(t.offset[name] == 0.0)
    assert np.all(t.gain["v_reset"] == 1.0)
    assert np.all(t.offset["v_reset"] == 0.0)
    assert np.all(t.readout_shift == 0.0)
    assert np.all(t.tau_ref_c0 == 0.5)
    assert np.all(t.tau_ref_c1 == 250.0)
    assert np.all(t.weight_scale == 4.0e-11)


def test_gain_and_offset_spread_match_config():
    w = build_wafer(21)
    gains = np.concatenate([w.truth(h).gain["e_leak"] for h in range(10)])
    offs = np.concatenate([w.truth(h).offset["e_leak"] for h in range(10)])
    assert abs(gains.mean() - 1.0) < 0.002
    assert 0.018 < gains.std() < 0.022  # fp_gain_sigma = 0.02
    assert abs(offs.mean()) < 0.002
    assert 0.018 < offs.std() < 0.022  # fp_offset_sigma_voltage = 20 mV


def test_weight_scale_floor():
    var = VariabilityConfig(weight_scale_rel_sigma=2.0)
    w = build_wafer(9, variability=var)
    scale = np.concatenate([w.truth(h).weight_scale for h in range(8)])
    assert np.all(scale >= 0.05 * 4.0e-11)
    assert np.any(scale == 0.05 * 4.0e-11)  # floor actually engages at this sigma


def test_fg_write_without_noise_is_exact():
    w = build_wafer(4, variability=ZERO)
    program_floating_gates(w, 2, {"e_leak": 682, "v_reset": 284, "vgmax": [455, 455, 455, 455]})
    st = w.fg_state(2)
    assert st.write_cycle == 1
    assert fg_dac_array(w, 2, "e_leak")[100] == 682
    assert np.all(fg_dac_array(w, 2, "v_reset") == 284)
    # unwritten cells stay at zero and are not marked written
    assert fg_dac_array(w, 2, "i_gl")[0] == 0
    assert not st.written[0, FG_CELLS["i_gl"].row, 1]
    assert st.written[0, FG_CELLS["v_reset"].row, 0]


def test_fg_write_noise_flip_fraction():
    # P(|N(0, 2 LSB)| >= 0.5) = erfc(0.25/sqrt(2)) = 0.8026
    w = build_wafer(5)
    program_floating_gates(w, 0, {name: 512 for name in PER_CIRCUIT})
    flipped = 0
    total = 0
    for name in PER_CIRCUIT:
        eff = fg_dac_array(w, 0, name)
        flipped += int(np.sum(eff != 512))
        total += eff.size
    assert total == 5120
    assert abs(flipped / total - 0.8026) < 0.02
    # effective values stay integers in DAC range
    assert np.all(eff == np.rint(eff))
    assert eff.min() >= 0 and eff.max() <= 1023


def test_fg_write_noise_clamps_at_rails():
    w = build_wafer(6)
    program_floating_gates(w, 1, {"e_leak": 1023, "i_gl": 0})
    assert fg_dac_array(w, 1, "e_leak").max() <= 1023
    assert fg_dac_array(w, 1, "i_gl").min() >= 0


def test_rewrite_redraws_noise():
    w = build_wafer(7)
    program_floating_gates(w, 3, {"e_leak": 512})
    first = fg_dac_array(w, 3, "e_leak").copy()
    program_floating_gates(w, 3, {"e_leak": 512})
    second = fg_dac_array(w, 3, "e_leak")
    assert w.fg_state(3).write_cycle == 2
    assert not np.array_equal(first, second)


def test_program_rejects_out_of_range():
    w = build_wafer(8, variability=ZERO)
    with pytest.raises(ValueError):
        program_floating_gates(w, 0, {"e_leak": 1024})
    with pytest.raises(ValueError):
        program_floating_gates(w, 0, {"e_leak": -1})
    with pytest.raises(ValueError):
        program_floating_gates(w, 0, {"no_such_row": 10})
    with pytest.raises(ValueError):
        program_floating_gates(w, 0, {"e_leak": np.full(511, 10)})  # wrong length


def test_dac_transfer_endpoints():
    assert dac_to_volts(CFG, 0) == 0.0
    assert dac_to_volts(CFG, 1023) == 1.8
    assert dac_to_volts(CFG, 682) == pytest.approx(1.2, abs=1e-12)
    assert dac_to_ua(CFG, 1023) == 2.5
    assert dac_to_ua(CFG, 0) == 0.0


def test_voltage_parameter_transfer():
    w = build_wafer(10, variability=ZERO)
    program_floating_gates(w, 0, {"e_leak": 682})
    v = true_parameter_array(w, 0, "e_leak")[9]
    assert v == pytest.approx(1.2, abs=1e-12)
    # d_eff override bypasses the programmed state
    v0 = true_parameter_array(w, 0, "e_leak", d_eff=0)[9]
    assert v0 == 0.0


def test_tau_ref_pins_to_zero_at_full_scale():
    w = build_wafer(12, variability=ZERO)
    program_floating_gates(w, 0, {"i_pulse": 1023})
    assert true_parameter_array(w, 0, "tau_ref")[0] == 0.0
    # 1.0 uA with c0=0.5, c1=250 -> (1/1 - 0.5)/250 = 2 ms
    i_1ua = round(1.0 / 2.5 * 1023)  # 409 -> 0.99976 uA
    tr = true_parameter_array(w, 0, "tau_ref", d_eff=i_1ua)[0]
    assert tr == pytest.approx((1023 / 409 / 2.5 - 0.5) / 250, rel=1e-12)
    assert tr == pytest.approx(0.002, rel=1e-3)


def test_tau_ref_margin_survives_variability():
    # c0 spread (5%) must never push tau_ref(full scale) above zero
    for seed in range(5):
        w = build_wafer(100 + seed)
        program_floating_gates(w, 0, {"i_pulse": 1023})
        tr = true_parameter_array(w, 0, "tau_ref")
        assert np.all(tr == 0.0)


def test_tau_mem_matches_softplus_law():
    w = build_wafer(13, variability=ZERO)
    program_floating_gates(w, 0, {"i_gl": 74})  # 0.18084 uA
    tm = true_parameter_array(w, 0, "tau_mem")[7]
    assert tm == pytest.approx(0.019159386358239945, rel=1e-12)
    # larger bias current -> faster membrane
    tm_hi = true_parameter_array(w, 0, "tau_mem", d_eff=512)[7]
    assert tm_hi < tm


def test_tau_syn_matches_softplus_law():
    w = build_wafer(14, variability=ZERO)
    program_floating_gates(w, 0, {"v_syntcx": 568, "v_syntci": 568})
    ts = true_parameter_array(w, 0, "tau_synx")[0]
    assert ts == pytest.approx(0.0010805603616899648, rel=1e-12)
    assert true_parameter_array(w, 0, "tau_syni")[0] == pytest.approx(ts, rel=1e-12)


def test_softplus_inverse_roundtrip():
    law = SoftplusLaw(0.05, 0.5, 10.0, 0.003)
    for tau in (0.004, 0.01, 0.019, 0.05):
        x = inverse_softplus_tau(tau, *law)
        assert softplus_tau(x, *law) == pytest.approx(tau, rel=1e-9)


def test_g_leak_is_capacitance_over_tau():
    w = build_wafer(15, variability=ZERO)
    program_floating_gates(w, 0, {"i_gl": 74})
    gl = true_parameter_array(w, 0, "g_leak")[0]
    assert gl == pytest.approx(2.16e-12 / 0.019159386358239945, rel=1e-12)


def test_conductance_step_value():
    w = build_wafer(16, variability=ZERO)
    program_floating_gates(w, 0, {"vgmax": [455, 0, 0, 0]})
    g, g0 = conductance_step_array(w, 0, [4, 4], [5, 0], 11, 0)
    # 4e-11 * (5 * 0.8005865 V / 11 + i0 + i1 + i4), bits of 5 = {1, 4}
    assert g == pytest.approx(1.6036118368435084e-11, rel=1e-12)
    assert g0 == pytest.approx(8.0e-13, rel=1e-12)  # weight 0 leaves only i0


def test_conductance_step_scales_with_palette_and_divisor():
    w = build_wafer(17, variability=ZERO)
    program_floating_gates(w, 0, {"vgmax": [455, 910, 0, 0]})
    g_sel0, g_sel1, g_div22 = conductance_step_array(w, 0, [0, 0, 0], [8, 8, 8],
                                                     [11, 11, 22], [0, 1, 0])
    base = 4e-11 * (0.02 + 0.02)  # i0 + i8
    assert (g_sel1 - base) == pytest.approx(2 * (g_sel0 - base), rel=1e-9)
    assert (g_div22 - base) == pytest.approx((g_sel0 - base) / 2, rel=1e-9)


def test_efficacy_transition():
    w = build_wafer(18, variability=ZERO)
    # at the transition midpoint: no parasitic leak, full efficacy
    program_floating_gates(w, 0, {"v_convoffx": 512, "v_convoffi": 512})
    g_perm, eff = efficacy_arrays(w, 0, "x")
    assert g_perm[3] == 0.0
    assert eff[3] == pytest.approx(0.9990322580645161, rel=1e-12)
    # far above: synapses practically dead
    g_perm_hi, eff_hi = _efficacy_at(w, 1023)
    assert g_perm_hi == 0.0
    assert eff_hi == pytest.approx(0.01, abs=1e-12)  # 1 - 1.1*(1.8 - 0.9)
    # below: full efficacy but permanent leak onto the membrane
    g_perm_lo, eff_lo = _efficacy_at(w, 284)
    assert eff_lo == 1.0
    assert g_perm_lo == pytest.approx(2e-9 * (0.9 - 0.4997067448680352), rel=1e-12)


def _efficacy_at(w, dac):
    program_floating_gates(w, 0, {"v_convoffx": dac})
    g_perm, eff = efficacy_arrays(w, 0, "x")
    return g_perm[3], eff[3]


def test_adc_codes_and_grid():
    w = build_wafer(19, variability=ZERO)
    # full scale input divides down to exactly the top code
    r = adc_readout(w, 0, [0], np.array([[1.8, 0.0, 2.4]]), token=0)
    assert r[0, 0] == pytest.approx(0.9, abs=1e-15)
    assert r[0, 1] == 0.0
    assert r[0, 2] == pytest.approx(0.9, abs=1e-15)  # clipped at full scale
    # all readings land on the 12-bit grid
    v = np.linspace(0.2, 1.6, 97)[None, :]
    r = adc_readout(w, 0, [0], v, token=1)
    codes = r * 4095 / 0.9
    assert np.allclose(codes, np.rint(codes), atol=1e-9)


def test_adc_readout_shift():
    w = build_wafer(20, variability=ZERO)
    w.truth(0).readout_shift[7] = 0.010
    r = adc_readout(w, 0, [7], np.array([[0.9]]), token=0)
    # (0.9 + 10 mV)/2 = 0.455 -> code 2070
    assert r[0, 0] == pytest.approx(2070 * 0.9 / 4095, abs=1e-15)
    assert r[0, 0] == pytest.approx(0.455, abs=1e-3)


def test_adc_noise_keyed_by_token():
    w = build_wafer(22)
    v = np.full((1, 64), 0.9)
    a = adc_readout(w, 0, [0], v, token=5)
    b = adc_readout(w, 0, [0], v, token=5)
    c = adc_readout(w, 0, [0], v, token=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # 1 mV ADC noise is about 4.6 LSB after the divider: readings spread
    assert a.std() > 0


def test_stream_normals_match_their_keyed_streams():
    # one reused bit generator draws what a fresh stream per row draws
    paths = [("adc", 0, ("i_gl", 3), 17), ("adc", 2, 0, 5), ("truth", 1), ()]
    for seed in (0, 3, 2**40 + 7):
        for n in (0, 1, 5, 400, 1001):
            got = rng.stream_normals(seed, paths, n)
            assert got.shape == (len(paths), n)
            for row, tokens in zip(got, paths):
                assert np.array_equal(row, rng.stream(seed, *tokens).standard_normal(n))
    assert rng.stream_normals(3, [], 8).shape == (0, 8)


def test_stream_words_match_their_keyed_streams():
    paths = [("memtest", "synapse(300,1,2,3)"), ("stability", 7, ("a", 2)), ()]
    for seed in (0, 3, 2**40 + 7):
        for n in (0, 1, 5, 10):
            got = rng.stream_words(seed, paths, n)
            assert got.shape == (len(paths), n) and got.dtype == np.uint64
            for row, tokens in zip(got, paths):
                assert np.array_equal(row, rng.stream(seed, *tokens).bit_generator.random_raw(n))
    assert rng.stream_words(3, [], 8).shape == (0, 8)


PATHS = [("memtest", "synapse(300,1,2,3)"), ("stability", 7, ("a", 2)), ("adc", 0, 17), ()]


def _keyed_rows_match(seed):
    """Whether the thread's keyed draws equal fresh streams, after other draws."""
    ok = True
    for n in (1, 7, 10):
        rng.stream_normals(seed + 1, [("earlier", n)], 3)
        words, normals = rng.stream_words(seed, PATHS, n), rng.stream_normals(seed, PATHS, n)
        for tokens, w, z in zip(PATHS, words, normals):
            ok &= np.array_equal(w, rng.stream(seed, *tokens).bit_generator.random_raw(n))
            ok &= np.array_equal(z, rng.stream(seed, *tokens).standard_normal(n))
    return bool(ok)


def test_keyed_draws_reuse_one_generator_per_thread(monkeypatch):
    built = []
    init = rng.Rekeyed.__init__
    monkeypatch.setattr(rng.Rekeyed, "__init__", lambda self: built.append(1) or init(self))
    monkeypatch.setattr(rng, "_local", threading.local())
    assert _keyed_rows_match(5)
    assert len(built) == 1
    results = []
    worker = threading.Thread(target=lambda: results.append(_keyed_rows_match(6)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert results == [True] and len(built) == 2


def test_keyed_draws_in_concurrent_threads_and_a_forked_child():
    # more threads than cores, switching every microsecond, would re-key a
    # shared generator between another thread's re-key and its draw
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        workers = [threading.Thread(target=lambda s=s: results.append(
            all(_keyed_rows_match(s) for _ in range(10)))) for s in (0, 1, 2**40 + 7, 9)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert results == [True] * 4
    rng.stream_words(9, PATHS, 3)  # the parent's generator is keyed when it forks
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if _keyed_rows_match(3) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_rekeyed_draws_match_their_keyed_streams():
    # every re-keyed draw starts as a fresh stream does, also right after an
    # odd-sized integers draw left half of a 64-bit word buffered
    keyed = rng.Rekeyed()
    paths = [("memtest", "synapse(1,0,2,3)"), ("stability", 7, ("a", 2)), ()]
    draws = [lambda g: g.integers(0, 256, size=5), lambda g: g.integers(0, 256, size=1),
             lambda g: g.random(9), lambda g: g.standard_normal(7)]
    for seed in (0, 3, 2**40 + 7):
        for tokens in paths:
            for draw in draws:
                earlier = keyed.stream(seed, "earlier", *tokens)
                earlier.integers(0, 256, size=3)
                assert earlier.bit_generator.state["has_uint32"]
                got = draw(keyed.stream(seed, *tokens))
                assert np.array_equal(got, draw(rng.stream(seed, *tokens)))


def test_wafer_json_roundtrip(tmp_path):
    w = build_wafer(23)
    program_floating_gates(w, 2, {"e_leak": 400, "v_reset": 300})
    path = tmp_path / "wafer.json"
    w.save(path)
    w2 = WaferModel.load(path)
    assert w2.master_seed == 23
    assert np.array_equal(fg_dac_array(w2, 2, "e_leak"), fg_dac_array(w, 2, "e_leak"))
    assert np.array_equal(w2.truth(2).gain["e_leak"], w.truth(2).gain["e_leak"])
    assert w2.variability == w.variability
    # truth is derived from the seed, so unwritten HICANNs need no stored state
    assert np.array_equal(w2.truth(100).offset["e_syni"], w.truth(100).offset["e_syni"])
    # nor does one whose FG state was read but never written
    assert w.fg_state(100).write_cycle == 0
    assert w.to_json() == w2.to_json()


# one coordinate per defect type with one index past its bound (or negative)
OUT_OF_RANGE_DEFECTS = [
    Defect(DefectType.JTAG_DEAD, Coord.hicann_(384)),
    Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(-1)),
    Defect(DefectType.MEMORY_STUCK, Coord.synapse(0, 1, 220, 0), pattern=3),
    Defect(DefectType.MEMORY_UNSTABLE, Coord.synapse(0, 2, 0, 0), flip_probability=0.1),
    Defect(DefectType.FG_CONTROLLER_BROKEN, Coord.hicann_(400)),
    Defect(DefectType.REPEATER_BROKEN, Coord.repeater(400, 5)),
    Defect(DefectType.SYNAPSE_DRIVER_BROKEN, Coord.synapse_driver(3, 0, 110)),
    Defect(DefectType.SWITCH_BROKEN, Coord(Kind.SWITCH, (3, 7680))),
]


@pytest.mark.parametrize("bad", OUT_OF_RANGE_DEFECTS, ids=lambda d: d.type.value)
def test_out_of_range_defect_fails_when_the_wafer_is_built(bad, tmp_path):
    assert {d.type for d in OUT_OF_RANGE_DEFECTS} == set(DefectType)
    # the first bad defect is named, after a good one of the same type
    good = dataclasses.replace(bad, coord=Coord(bad.coord.kind, (0,) * len(bad.coord.indices)))
    defects = DefectSet([good, bad])
    message = f"defect {bad.type.value}: {re.escape(str(bad.coord))}"
    with pytest.raises(ValueError, match=message):
        build_wafer(1, defects=defects)
    data = dict(build_wafer(1).to_json(), defects=defects.to_json())
    path = tmp_path / "wafer.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=message):
        WaferModel.load(path)


def test_load_rejects_a_wrongly_shaped_fg_array(tmp_path):
    w = build_wafer(23)
    program_floating_gates(w, 2, {"e_leak": 400})
    for name in ("d_set", "d_eff", "written"):
        data = w.to_json()
        data["fg"]["2"][name] = data["fg"]["2"][name][:-1]
        path = tmp_path / "wafer.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"hicann 2: {name} has shape"):
            WaferModel.load(path)


@pytest.mark.parametrize("h", [400, -1])
def test_hicann_outside_the_topology_is_refused(h, tmp_path):
    w = build_wafer(1)
    message = rf"hicann\[{h}\]: index 0 out of range \(0\.\.383\)"
    for call in (lambda: program_floating_gates(w, h, {"e_leak": 300}),
                 lambda: w.fg_state(h), lambda: w.truth(h),
                 lambda: fg_dac_array(w, h, "e_leak")):
        with pytest.raises(ValueError, match=message):
            call()
    assert w.fg == {} and w._truth == {}
    # nor can a stored state name one
    program_floating_gates(w, 2, {"e_leak": 400})
    data = w.to_json()
    data["fg"][str(h)] = data["fg"].pop("2")
    path = tmp_path / "wafer.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=message):
        WaferModel.load(path)


def test_true_parameter_array_matches_scalar():
    # each circuit's value is the array evaluated at the circuit's own stored
    # DAC value, given as a scalar override
    w = build_wafer(24)
    program_floating_gates(w, 0, dict({n: 500 for n in PER_CIRCUIT},
                                      v_reset=284, vgmax=[455] * 4))
    for name in ("e_leak", "tau_mem", "tau_ref", "v_reset", "tau_synx", "vgmax0"):
        arr = true_parameter_array(w, 0, name)
        cell = CONTROL_CELL.get(name, name)
        d = fg_dac_array(w, 0, cell)
        per = CFG.neurons_per_fg_block if FG_CELLS[cell].shared else 1
        picks = [true_parameter_array(w, 0, name, d_eff=float(d[n // per]))[n]
                 for n in (0, 127, 128, 511)]
        assert arr.shape == (512,)
        assert picks == [arr[0], arr[127], arr[128], arr[511]]
    with pytest.raises(ValueError, match="unknown parameter 'tau_foo'"):
        true_parameter_array(w, 0, "tau_foo")


def test_v_reset_and_vgmax_are_per_block():
    w = build_wafer(25)
    program_floating_gates(w, 0, {"v_reset": 284, "vgmax": [455, 512, 600, 700]})
    vr = true_parameter_array(w, 0, "v_reset")
    for blk in range(4):
        seg = vr[128 * blk:128 * (blk + 1)]
        assert np.all(seg == seg[0])  # shared line within a block
    assert len(np.unique(vr)) > 1  # distinct block-level truth draws


def test_dac_range_error_quotes_the_topology_ceiling():
    w = build_wafer(3, TopologyConfig(dac_max=511))
    program_floating_gates(w, 0, {"e_leak": 511})
    with pytest.raises(ValueError, match=r"out of range 0\.\.511$"):
        program_floating_gates(w, 0, {"e_leak": 512})
