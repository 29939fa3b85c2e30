import copy
import dataclasses
import hashlib
import json
import os
import threading

import numpy as np
import pytest

from waferforge import calibration as cal
from waferforge.availability import AvailabilityDb, AvailabilityState
from waferforge.commissioning import commission, effective_exclusion
from waferforge.defects import DefectRates, random_defects
from waferforge.dynamics import EventQueue
from waferforge.topology import Coord, Kind, TopologyConfig
from waferforge.variability import VariabilityConfig
from waferforge.wafer import (FG_CELLS, build_wafer, fg_dac_array, from_reference_dac,
                              true_parameter_array)

# sha256 of the sorted-key JSON of the DB below, which pins every coefficient
# and verdict bit for bit
EARLY_OPS_DIGEST = "af4d06de162437e9d94d4aedaeafdf09d59da8944c7a3345283bed9bba7cb9d2"
# the same for the whole suite, which adds i_gl, v_syntcx, v_syntci and
# e_synx: single-PSP runs that the integrator solves as prefix scans
LATE_OPS_DIGEST = "ba55c104e26c47bdd57ca1d37fa2cdd21dc25973b7cc42d280665a5debe73215"


def _digest(db) -> str:
    return hashlib.sha256(
        json.dumps(db.to_json(), sort_keys=True).encode()).hexdigest()


def test_early_ops_reproduce_reference_db():
    w = build_wafer(3)
    db = cal.CalibrationDb()
    kw = dict(neurons=range(0, 512, 128))
    cal.calibrate_readout_shift(w, db, 0, **kw)
    for p in ("v_reset", "v_threshold", "e_leak", "e_syni"):
        cal.calibrate_voltage(w, db, 0, p, **kw)
    cal.calibrate_i_pulse(w, db, 0, **kw)
    for side in "xi":
        cal.calibrate_v_convoff(w, db, 0, side, **kw)
    # 4 circuits x 7 per-circuit ops, plus one v_reset entry per FG block
    assert len(db) == 32
    assert all(e.valid for e in db.entries())
    assert _digest(db) == EARLY_OPS_DIGEST


@pytest.fixture(scope="module")
def late_db():
    return cal.calibrate_hicann(build_wafer(3), None, 0,
                                neurons=range(0, 512, 128))


def test_late_ops_reproduce_reference_db(late_db):
    assert len(late_db) == 48
    assert _digest(late_db) == LATE_OPS_DIGEST


def test_db_save_load_round_trip(late_db, tmp_path):
    late_db.save(tmp_path / "calib.json")
    loaded = cal.CalibrationDb.load(tmp_path / "calib.json")
    assert loaded.master_seed == 3
    assert len(loaded) == 48
    assert _digest(loaded) == LATE_OPS_DIGEST


def test_a_circuit_calibrates_the_same_in_any_scope():
    # each op runs on the scope, on sub-scopes of it and on the scope
    # reversed, every run from the same wafer and DB state; a circuit's entry
    # may not depend on which other circuits share its run. readout_shift and
    # v_reset are exempt by design: they measure relative to the circuit's
    # readout group and its FG block, so their scope is part of the result.
    scope = [3, 40, 128, 129, 200, 300, 390, 505]
    subs = ([128], [505, 40, 3], scope[::-1])
    w, db = build_wafer(3), cal.CalibrationDb()
    for op in cal.CALIBRATION_ORDER:
        state = copy.deepcopy((w, db))
        cal._run_op(w, db, 0, op, None, scope)
        if op in ("readout_shift", "v_reset"):
            continue
        for sub in subs:
            w_sub, db_sub = copy.deepcopy(state)
            cal._run_op(w_sub, db_sub, 0, op, None, sub)
            for n in sub:
                c = Coord.neuron(0, n)
                assert db_sub.entry(c, op) == db.entry(c, op), (op, sub, n)


# scope, topology and FG block excluded by availability of each split case
SPLIT_CASES = {
    # one circuit in each FG block
    "every_block": ([3, 130, 260, 400], TopologyConfig(), None),
    # block 2 is unusable, and circuit 142 fails i_gl, so the ops after
    # i_gl find eligible circuits in block 0 alone
    "later_ops_in_one_part": ([5, 142, 300, 301], TopologyConfig(), 2),
    "descending": ([450, 300, 140, 10], TopologyConfig(), None),
    "two_blocks_small_groups": ([3, 100, 300, 500], TopologyConfig(
        fg_blocks_per_hicann=2, neuron_block_size=16), None),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_any_worker_count_gives_the_same_db_and_floating_gates(monkeypatch, case):
    neurons, cfg, excluded_block = SPLIT_CASES[case]
    availability = None
    if excluded_block is not None:
        per = cfg.neurons_per_fg_block
        availability = AvailabilityState(cfg, [
            Coord.neuron(0, n) for n in range(excluded_block * per, (excluded_block + 1) * per)])
    got = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(cal, "_worker_count", lambda: workers)
        w = build_wafer(3, cfg)
        db = cal.calibrate_hicann(w, None, 0, availability=availability, neurons=neurons)
        st = w.fg_state(0)
        got[workers] = (list(db._entries), _digest(db), st.d_set.tobytes(),
                        st.d_eff.tobytes(), st.written.tobytes(), st.write_cycle)
    assert got[2] == got[1]
    assert got[4] == got[1]
    if case == "later_ops_in_one_part":
        assert not db.entry(Coord.neuron(0, 142), "i_gl").valid
        assert [e.coord.indices[1] for e in db.entries("v_syntcx")] == [5]


class _WorkerFault(RuntimeError):
    """Raised by a calibration op in a worker process."""


def _split_run(monkeypatch, fault):
    """Make calibrate_hicann run readout_shift and e_leak in two parts,
    with ``fault(caller_pid)`` called at the start of every e_leak part.
    Returns the list the pids of forked workers are appended to."""
    caller, fork, voltage = os.getpid(), os.fork, cal.calibrate_voltage
    forked = []

    def recorded_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def faulty_voltage(*args, **kw):
        fault(caller)
        return voltage(*args, **kw)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(cal, "_worker_count", lambda: 2)
    monkeypatch.setattr(cal, "CALIBRATION_ORDER", ("readout_shift", "e_leak"))
    monkeypatch.setattr(cal, "calibrate_voltage", faulty_voltage)
    return forked


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    def fault(caller):
        if os.getpid() != caller:
            raise _WorkerFault("in the worker")

    forked = _split_run(monkeypatch, fault)
    with pytest.raises(_WorkerFault, match="in the worker"):
        cal.calibrate_hicann(build_wafer(3), None, 0, neurons=[0, 200])
    assert len(forked) == 2 and all(map(_reaped, forked))


def test_a_worker_without_a_result_raises(monkeypatch):
    def fault(caller):
        if os.getpid() != caller:
            os._exit(3)

    forked = _split_run(monkeypatch, fault)
    with pytest.raises(RuntimeError, match="without a result"):
        cal.calibrate_hicann(build_wafer(3), None, 0, neurons=[0, 200])
    assert len(forked) == 2 and all(map(_reaped, forked))


def test_no_worker_outlives_a_call(monkeypatch):
    forked = _split_run(monkeypatch, lambda caller: None)
    db = cal.calibrate_hicann(build_wafer(3), None, 0, neurons=[0, 200])
    assert len(db) == 4
    assert len(forked) == 2 and all(map(_reaped, forked))

    def fault(caller):  # the caller's own part fails while the worker runs
        if os.getpid() == caller:
            raise _WorkerFault("in the caller")

    forked = _split_run(monkeypatch, fault)
    with pytest.raises(_WorkerFault, match="in the caller"):
        cal.calibrate_hicann(build_wafer(3), None, 0, neurons=[0, 200])
    assert len(forked) == 2 and all(map(_reaped, forked))


@pytest.mark.parametrize("blocker", ["one_cpu", "live_thread"])
def test_no_fork_on_one_cpu_or_beside_another_thread(monkeypatch, blocker):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if blocker == "one_cpu" else {0, 1, 2, 3})
    monkeypatch.setattr(cal, "CALIBRATION_ORDER", ("readout_shift", "e_leak"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if blocker == "live_thread":
        thread.start()
    try:
        db = cal.calibrate_hicann(build_wafer(3), None, 0, neurons=[0, 200])
    finally:
        release.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(db) == 4


# to_hardware target -> the calibrated floating-gate parameter behind it; the
# oracle parameter of each target has the target's own name
ROUND_TRIP_TARGETS = {
    "e_leak": "e_leak", "v_threshold": "v_threshold", "e_syni": "e_syni",
    "e_synx": "e_synx", "v_reset": "v_reset", "tau_ref": "i_pulse",
    "tau_mem": "i_gl", "tau_synx": "v_syntcx", "tau_syni": "v_syntci",
}


def test_apply_calibration_round_trip(late_db):
    # one shared target per parameter: the design value at the middle of the
    # parameter's default sweep
    ideal = build_wafer(0, variability=VariabilityConfig().zeroed())
    targets = {}
    for name, param in ROUND_TRIP_TARGETS.items():
        dacs = cal.DEFAULT_PLANS[param].dac_values
        mid = 0.5 * (min(dacs) + max(dacs))
        targets[name] = float(true_parameter_array(ideal, 0, name, d_eff=mid)[0])
    w = build_wafer(3)
    circuits = [0, 128, 256, 384]
    report = cal.apply_calibration(w, late_db, 0, targets, neurons=circuits)

    cfg = w.topology
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    no_entry = []
    for n in circuits:
        for name, param in ROUND_TRIP_TARGETS.items():
            coord = Coord.fg_block(0, n // per_block) if param == "v_reset" \
                else Coord.neuron(0, n)
            if not late_db.has(coord, param):  # valid entries only
                no_entry.append((coord, name))
    assert sorted(report["fallback"]) == sorted(no_entry)
    assert sorted(no_entry) == sorted([(Coord.neuron(0, 0), "e_synx"),
                                       (Coord.neuron(0, 256), "e_synx")])
    assert report["clamped"] == []

    d_set = w.fg_state(0).d_set
    for n in circuits:
        for name, param in ROUND_TRIP_TARGETS.items():
            if (Coord.neuron(0, n), name) in no_entry:
                continue
            dac = cal.to_hardware(cfg, late_db, Coord.neuron(0, n),
                                  {name: targets[name]}).dacs[param]
            b = n // per_block
            cell = d_set[b, FG_CELLS["v_reset"].row, 0] if param == "v_reset" \
                else d_set[b, FG_CELLS[param].row, 1 + n % per_block]
            assert cell == dac, (n, name)
            # the oracle reads the programmed cells, write noise included
            got = true_parameter_array(w, 0, name)[n]
            bound = 0.15 if name.startswith("tau_") else 0.05
            assert abs(got / targets[name] - 1.0) < bound, (n, name)


def _hand_db(cfg):
    """Hand-built entries for circuit 0 and FG blocks 1 and 2 of hicann 0."""
    n0 = Coord.neuron(0, 0)
    db = cal.CalibrationDb(3)
    for coord, param, model, coeffs, valid in (
            (n0, "e_leak", "linear", (1.8 / 1023, 0.01), True),
            (n0, "i_pulse", "reciprocal", (0.5, 250.0), True),
            (n0, "i_gl", "softplus", (0.05, 0.5, 10.0, 0.003), True),
            (n0, "v_convoffx", "constant", (300.0, 290.0), True),
            (n0, "e_syni", "linear", (1.8 / 1023, 0.0), False),
            (Coord.fg_block(0, 1), "v_reset", "linear", (2e-3, 0.1), True),
            (Coord.fg_block(0, 2), "v_reset", "linear", (4e-3, 0.1), True)):
        db.add(cal.CalibrationEntry(coord, param, model, coeffs, 1.0, valid))
    return db


def test_to_hardware_inverts_each_model():
    cfg = TopologyConfig()
    hw = cal.to_hardware(cfg, _hand_db(cfg), Coord.neuron(0, 0),
                         {"e_leak": 0.8, "tau_ref": 1e-3, "tau_mem": 0.01,
                          "v_convoffx": None})
    # linear: (0.8 - 0.01) / (1.8 / 1023) = 448.98
    # reciprocal: 1 / (0.5 + 250 * 1e-3) = 4/3 uA at 2.5 uA / 1023 per LSB
    # softplus: x = 0.5 - ln(expm1((0.01 - 0.003) * 10 / 0.05)) / 10 uA
    # constant: the stored programming point, whatever the target
    assert hw.dacs == {"e_leak": 449, "i_pulse": 546, "i_gl": 159,
                       "v_convoffx": 300}
    assert hw.clamped == ()


def test_to_hardware_reads_v_reset_from_the_fg_block():
    cfg = TopologyConfig()
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    db = _hand_db(cfg)
    for n in (per_block, per_block + 7, 2 * per_block - 1):
        assert cal.to_hardware(cfg, db, Coord.neuron(0, n),
                               {"v_reset": 0.5}).dacs == {"v_reset": 200}
    # the next block holds its own entry
    assert cal.to_hardware(cfg, db, Coord.neuron(0, 2 * per_block),
                           {"v_reset": 0.5}).dacs == {"v_reset": 100}
    with pytest.raises(KeyError, match="v_reset"):
        cal.to_hardware(cfg, db, Coord.neuron(0, per_block - 1),
                        {"v_reset": 0.5})


def test_to_hardware_reports_clamped_targets():
    cfg = TopologyConfig()
    db = _hand_db(cfg)
    n0 = Coord.neuron(0, 0)
    high = cal.to_hardware(cfg, db, n0, {"e_leak": 1.9, "tau_ref": 1e-3})
    assert high.dacs == {"e_leak": cfg.dac_max, "i_pulse": 546}
    assert high.clamped == ("e_leak",)
    low = cal.to_hardware(cfg, db, n0, {"e_leak": -0.1})
    assert low.dacs == {"e_leak": 0}
    assert low.clamped == ("e_leak",)


def test_to_hardware_rejects_what_no_model_expresses():
    cfg = TopologyConfig()
    db = _hand_db(cfg)
    n0 = Coord.neuron(0, 0)
    with pytest.raises(cal.RangeError, match="unknown"):
        cal.to_hardware(cfg, db, n0, {"tau_foo": 1e-3})
    with pytest.raises(cal.RangeError, match="no valid 'e_syni'"):
        cal.to_hardware(cfg, db, n0, {"e_syni": 0.2})
    for tau in (0.003, 0.002):  # at and below the softplus offset
        with pytest.raises(cal.RangeError, match="attainable"):
            cal.to_hardware(cfg, db, n0, {"tau_mem": tau})
    with pytest.raises(KeyError, match="e_synx"):
        cal.to_hardware(cfg, db, n0, {"e_synx": 0.9})


def test_db_rejects_entry_without_coordinate():
    data = cal.CalibrationDb(3).to_json()
    data["entries"] = [{"coord": None, "parameter": "e_leak", "model": "linear",
                        "coeffs": [1.0, 0.0], "red_chi2": 1.0, "valid": True}]
    with pytest.raises(ValueError, match="coordinate"):
        cal.CalibrationDb.from_json(data)


def test_op_tables_agree():
    assert list(cal.CALIBRATION_ORDER) == list(cal.REQUIRES)
    assert set(cal.DEFAULT_PLANS) == set(cal.CALIBRATION_ORDER)
    for op, plan in cal.DEFAULT_PLANS.items():
        assert plan.parameter == op
    for i, op in enumerate(cal.CALIBRATION_ORDER):
        for req in cal.REQUIRES[op]:
            assert cal.CALIBRATION_ORDER.index(req) < i, (op, req)


def test_calibration_exclusion_drops_failed_circuits():
    cfg = TopologyConfig()
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann

    def entry(coord, parameter, red_chi2=1.0, valid=True):
        return cal.CalibrationEntry(coord, parameter, "linear", (1.0, 0.0),
                                    red_chi2, valid)

    db = cal.CalibrationDb(3)
    for n in (0, 5, 7, per_block + 2, per_block + 9, 2 * per_block):
        db.add(entry(Coord.neuron(0, n), "readout_shift"))
        db.add(entry(Coord.neuron(0, n), "e_leak"))
    db.add(entry(Coord.neuron(0, 5), "e_leak", valid=False))
    db.add(entry(Coord.neuron(0, 7), "e_leak", red_chi2=9.9))
    db.add(entry(Coord.neuron(0, 2 * per_block), "e_leak",
                 red_chi2=cal.RED_CHI2_MAX))
    db.add(entry(Coord.fg_block(0, 0), "v_reset"))
    db.add(entry(Coord.fg_block(0, 1), "v_reset", valid=False))

    link = Coord(Kind.JTAG_LINK, (9,))
    av_db = AvailabilityDb(cfg)
    av_db.ensure("individual").exclude(link)
    av_db.ensure("effective")  # stale: misses the closure of the link
    excluded = cal.calibration_exclusion(av_db, db)

    assert excluded == [Coord.neuron(0, n) for n in
                        (5, per_block + 2, per_block + 9, 2 * per_block)]
    individual = av_db.state("individual")
    assert set(individual.all_excluded()) == set(excluded) | {link}
    effective = av_db.state("effective")
    assert effective == effective_exclusion(cfg, individual)
    assert not effective.is_usable(Coord.hicann_(9))
    assert all(not effective.is_usable(c) for c in excluded)
    assert effective.is_usable(Coord.neuron(0, 7))


def test_i_pulse_needs_its_prerequisites():
    w = build_wafer(3)
    with pytest.raises(cal.CalibrationOrderError):
        cal.calibrate_i_pulse(w, cal.CalibrationDb(), 0, neurons=[0, 8])


def test_readout_shift_groups_by_neuron_block():
    # shorted membranes span one neuron block, whatever its size: the
    # offsets of a block are deviations from the block mean
    cfg = TopologyConfig(neuron_block_size=16)
    w = build_wafer(3, cfg)
    db = cal.CalibrationDb()
    cal.calibrate_readout_shift(w, db, 0, neurons=range(64))
    off = np.array([db.coeffs(Coord.neuron(0, n), "readout_shift")[0]
                    for n in range(64)])
    assert np.all(np.abs(off.reshape(4, 16).sum(axis=1)) < 1e-12)
    assert np.ptp(off) > 1e-3  # the offsets themselves are not zero


def test_convoff_defaults_follow_the_dac_ceiling():
    # circuits without a v_convoff entry are programmed to the topology's
    # DAC ceiling, not to the reference module's 1023
    cfg = TopologyConfig(dac_max=511)
    w = build_wafer(3, cfg)
    db = cal.CalibrationDb()
    for n, dac in ((0, 300.0), (8, 420.0)):
        db.add(cal.CalibrationEntry(Coord.neuron(0, n), "v_convoffx", "constant",
                                    (dac, dac - 10.0), 0.0, True))
    want = np.full(cfg.neurons_per_hicann, 511.0)
    want[[0, 8]] = 300.0, 420.0
    assert np.array_equal(cal._convoff_array(w, db, 0, "v_convoffx", [0, 8]), want)
    cal.apply_calibration(w, db, 0, {"e_leak": 0.5})
    got = fg_dac_array(w, 0, "v_convoffx")
    assert got.max() <= 511
    assert np.all(np.abs(got - want) <= 10)  # FG write noise


def test_time_constant_fallback_follows_the_dac_range():
    # without an entry a time-constant target falls back to mid-range of the
    # topology's DAC, not of the reference module's
    cfg = TopologyConfig(dac_max=511)
    w = build_wafer(3, cfg)
    report = cal.apply_calibration(w, cal.CalibrationDb(), 0, {"tau_mem": 0.01})
    assert report["fallback"] == [(Coord.neuron(0, n), "tau_mem")
                                  for n in range(cfg.neurons_per_hicann)]
    assert report["clamped"] == []
    assert fg_dac_array(w, 0, "i_gl").max() <= 511


def test_apply_calibration_takes_convoff_targets(late_db):
    # without an entry the input amplifier is switched off: DAC ceiling,
    # reported as a fallback
    w = build_wafer(3)
    report = cal.apply_calibration(w, cal.CalibrationDb(), 0,
                                   {"v_convoffx": None}, neurons=[0])
    assert report == {"clamped": [], "fallback": [(Coord.neuron(0, 0), "v_convoffx")]}
    assert w.fg_state(0).d_set[0, FG_CELLS["v_convoffx"].row, 1] == 1023
    # with entries every circuit gets its calibrated programming point, the
    # same cells the automatic v_convoff programming writes
    circuits = [0, 128, 256, 384]
    report = cal.apply_calibration(w, late_db, 0,
                                   {"v_convoffx": None, "v_convoffi": None},
                                   neurons=circuits)
    assert report == {"clamped": [], "fallback": []}
    d_set = w.fg_state(0).d_set
    for param in ("v_convoffx", "v_convoffi"):
        cells = d_set[:, FG_CELLS[param].row, 1:].reshape(-1)
        assert np.array_equal(cells, cal._convoff_array(w, late_db, 0, param,
                                                        circuits)), param


class _Stimulus(Exception):
    """Carries the stimulus a PSP sweep hands to ``simulate``."""


def _psp_stimulus(monkeypatch, plan):
    """Spike times and step of one PSP sweep point, captured before it runs."""
    def capture(wafer, configs, stimulus, duration, *, dt, **kw):
        raise _Stimulus([t for _, _, t in stimulus], dt)

    monkeypatch.setattr(cal, "simulate", capture)
    w, db = build_wafer(3), cal.CalibrationDb()
    db.add(cal.CalibrationEntry(Coord.neuron(0, 0), "readout_shift", "constant",
                                (0.0,), 1.0, True))
    with pytest.raises(_Stimulus) as sent:
        cal._psp_windows(w, db, 0, [0], plan, {})
    return sent.value.args


def test_psp_presentations_land_at_one_window_offset(monkeypatch):
    # every presentation of every PSP sweep is delivered at the same boundary
    # of its window, so the averaged window holds one onset
    psp_plans = [p for p in cal.DEFAULT_PLANS.values() if p.window > 0.0]
    assert {p.parameter for p in psp_plans} == {"i_gl", "v_syntcx", "v_syntci", "e_synx"}
    for plan in psp_plans:
        times, dt = _psp_stimulus(monkeypatch, plan)
        k = np.arange(plan.presentations)
        assert len(times) == k.size
        boundary = EventQueue.from_times(times, k, np.ones(k.size), dt).boundary
        offsets = boundary - k * round(plan.window / dt)
        assert (offsets == offsets[0]).all(), (plan.parameter, offsets)


def test_psp_window_off_the_step_grid_raises(monkeypatch):
    plan = dataclasses.replace(cal.DEFAULT_PLANS["v_syntcx"],
                               window=cal.DEFAULT_PLANS["v_syntcx"].window + 0.5 * cal.PSP_DT)
    with pytest.raises(ValueError, match="whole integration steps"):
        _psp_stimulus(monkeypatch, plan)


def test_time_constants_recover_with_zero_variability():
    # an ideal wafer: each tau law, inverted at the design value at the middle
    # of its sweep, lands within the error measured for the fitter (-0.063,
    # -0.028 and -0.0072 on every circuit; the fitter with a free onset gave
    # -0.068, -0.035 and -0.014)
    w = build_wafer(3, variability=VariabilityConfig().zeroed())
    circuits = range(0, 512, 64)
    db = cal.calibrate_hicann(w, None, 0, neurons=circuits)
    for name, bound in (("tau_mem", 0.065), ("tau_synx", 0.03), ("tau_syni", 0.008)):
        param = ROUND_TRIP_TARGETS[name]
        dacs = cal.DEFAULT_PLANS[param].dac_values
        target = float(true_parameter_array(
            w, 0, name, d_eff=0.5 * (min(dacs) + max(dacs)))[0])
        for n in circuits:
            dac = cal.to_hardware(w.topology, db, Coord.neuron(0, n),
                                  {name: target}).dacs[param]
            err = true_parameter_array(w, 0, name, d_eff=dac)[n] / target - 1.0
            assert abs(err) < bound, (name, n, err)


def test_direct_reversal_readout_lies_between_rest_and_reversal():
    # the amplifier's limited current holds the membrane below the true
    # reversal potential, but well above the leak's rest
    w = build_wafer(3)
    db = cal.CalibrationDb()
    circuits = [0, 128, 256, 384]
    cal.calibrate_readout_shift(w, db, 0, neurons=circuits)
    reading = cal.direct_reversal_readout(w, db, 0, circuits)
    e_leak = true_parameter_array(w, 0, "e_leak", d_eff=455)[circuits]
    e_synx = true_parameter_array(w, 0, "e_synx", d_eff=853)[circuits]
    assert reading.shape == (4,)
    assert np.all((e_leak < reading) & (reading < e_synx))


def test_plan_rescaling_is_the_identity_at_the_reference_dac():
    cfg = TopologyConfig()
    for plan in cal.DEFAULT_PLANS.values():
        assert cal._rescaled(cfg, plan) == plan, plan.parameter
    for name, value in cal.BASE_SETTINGS.items():
        assert from_reference_dac(cfg, value) == value, name
    assert cal._write_sigma(cfg) == 2.0 * 1.8 / 1023


def test_e_leak_calibrates_on_a_smaller_dac():
    # plans are reference-DAC codes; a 9-bit DAC runs the same sweep over
    # the same fraction of its range
    cfg = TopologyConfig(dac_max=511)
    w = build_wafer(3, cfg)
    db = cal.CalibrationDb()
    cal.calibrate_readout_shift(w, db, 0, neurons=[0, 8])
    entries = cal.calibrate_voltage(w, db, 0, "e_leak", neurons=[0, 8])
    assert [e.valid for e in entries] == [True, True]
    assert w.fg_state(0).d_set.max() <= 511
    for e in entries:
        n = e.coord.indices[1]
        slope, icpt = e.coeffs
        lo = true_parameter_array(w, 0, "e_leak", d_eff=0)[n]
        hi = true_parameter_array(w, 0, "e_leak", d_eff=511)[n]
        assert abs(slope * 511 / (hi - lo) - 1.0) < 0.05
        assert abs(icpt - lo) < 0.02


def test_two_fg_blocks_calibrate():
    # 256 circuits per FG block: the block's columns follow its circuit count
    cfg = TopologyConfig(fg_blocks_per_hicann=2)
    w = build_wafer(3, cfg)
    db = cal.CalibrationDb()
    circuits = [0, 8, 300]
    cal.calibrate_readout_shift(w, db, 0, neurons=circuits)
    entries = cal.calibrate_voltage(w, db, 0, "e_leak", neurons=circuits)
    assert [e.coord.indices[1] for e in entries] == circuits
    assert all(e.valid for e in entries)


def test_reduced_topology_end_to_end():
    # commission, calibrate 8 usable circuits, program mid-sweep targets and
    # score them against the oracle on a 32-die, 9-bit-DAC module
    cfg = TopologyConfig(reticle_rows=(1, 2, 1), neuron_block_size=16, dac_max=511)
    rates = DefectRates(highspeed=0.1, merger_stuck=0.05)
    w = build_wafer(3, cfg, defects=random_defects(3, cfg, rates))
    av_db, _ = commission(w)
    effective = av_db.state("effective")
    h = 0
    circuits = [n for n in range(0, cfg.neurons_per_hicann, 64)
                if effective.is_usable(Coord.neuron(h, n))]
    assert len(circuits) == 8
    db = cal.calibrate_hicann(w, None, h, availability=effective, neurons=circuits)
    # 8 circuits x 11 per-circuit ops and 4 FG blocks' v_reset, less the
    # entries whose prerequisites failed; 83 of 91 were valid when measured
    assert sum(e.valid for e in db.entries()) >= 80

    ideal = build_wafer(0, cfg, variability=VariabilityConfig().zeroed())
    targets = {}
    for name, param in ROUND_TRIP_TARGETS.items():
        dacs = cal._rescaled(cfg, cal.DEFAULT_PLANS[param]).dac_values
        mid = 0.5 * (min(dacs) + max(dacs))
        targets[name] = float(true_parameter_array(ideal, 0, name, d_eff=mid)[0])
    report = cal.apply_calibration(w, db, h, targets, neurons=circuits)
    assert report["clamped"] == []
    assert len(report["fallback"]) <= 10
    assert w.fg_state(h).d_set.max() <= cfg.dac_max

    fallback = set(report["fallback"])
    for name, param in ROUND_TRIP_TARGETS.items():
        got = true_parameter_array(w, h, name)
        bound = 0.15 if name.startswith("tau_") else 0.08
        for n in circuits:
            if (cal._entry_coord(cfg, h, n, param), name) not in fallback:
                assert abs(got[n] / targets[name] - 1.0) < bound, (n, name)
