"""The per-kind excluded counts a state keeps must equal a scan of its masks."""

import dataclasses
import hashlib
import json

import numpy as np

from waferforge.availability import AvailabilityState
from waferforge.commissioning import commission, exclusion_report, write_off_array
from waferforge.defects import DefectRates, DefectSet, DefectType, random_defects
from waferforge.scenarios import golden_defect_set
from waferforge.topology import Coord, Kind, TopologyConfig
from waferforge.wafer import build_wafer

CFG = TopologyConfig()
# the closure property test's rates plus unstable synapse cells
DENSE_RATES = DefectRates(jtag=0.02, highspeed=0.03, fg_controller=0.004, repeater=0.001,
                          switch=3e-5, synapse_driver=1e-4, synapse_stuck=1e-6,
                          merger_stuck=3e-4, fg_block_stuck=3e-4, synapse_unstable=1e-7)


def assert_counts_exact(state):
    scanned = {k: int(np.count_nonzero(state.read_mask(k))) for k in Kind}
    assert {k: state.count_excluded(k) for k in Kind} == scanned
    assert len(state) == sum(scanned.values())
    assert state.kinds() == [k for k in Kind if scanned[k]]


def dense_db():
    # every unstable cell flips, so all of its arrays are written off
    drawn = random_defects(0, CFG, DENSE_RATES)
    ds = DefectSet([dataclasses.replace(d, flip_probability=1.0)
                    if d.type is DefectType.MEMORY_UNSTABLE else d for d in drawn])
    db, mem = commission(build_wafer(1, CFG, defects=ds))
    assert len(mem.unstable_arrays) == 6
    return db


def test_counts_after_golden_commissioning():
    db, _ = commission(build_wafer(4242, defects=golden_defect_set()))
    for name in ("individual", "effective"):
        assert_counts_exact(db.state(name))


def test_counts_after_dense_commissioning():
    db = dense_db()
    for name in ("individual", "effective"):
        assert_counts_exact(db.state(name))


def test_dense_commissioning_state_digest():
    # the commission_dense bench workload's DIGEST: sha256 of both states' to_json()
    db = dense_db()
    data = {name: db.state(name).to_json() for name in ("individual", "effective")}
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() \
        == "96465270f3c49363a78d60a9ef56d7f56bd723761904dbc15564c3a0c51a830d"


def test_counts_on_reduced_topology():
    small = TopologyConfig(reticle_rows=(1, 2, 1), neuron_block_size=16)
    rates = DefectRates(jtag=0.1, highspeed=0.1, fg_controller=0.05, repeater=0.01,
                        switch=1e-4, synapse_driver=1e-3, synapse_stuck=1e-5,
                        synapse_unstable=1.5e-6, merger_stuck=0.02, fg_block_stuck=0.02)
    db, mem = commission(build_wafer(5, small, defects=random_defects(5, small, rates)))
    assert mem.unstable_arrays
    for name in ("individual", "effective"):
        assert_counts_exact(db.state(name))


def test_counts_after_copy_and_writes_on_either_side():
    a = AvailabilityState(CFG, [Coord.neuron(3, 4), Coord.synapse(1, 0, 2, 3)])
    b = a.copy()
    assert_counts_exact(a)
    assert_counts_exact(b)
    b.exclude(Coord.neuron(3, 5))
    a.exclude_many([Coord.synapse(1, 0, 2, 4), Coord(Kind.BUS, (0, 1))])
    write_off_array(b, 2, 1)
    b.mask(Kind.SYNAPSE)[0, 0, 0, :10] = True  # raw write through the mask
    for st in (a, b):
        assert_counts_exact(st)
    # b: 2 neurons, 1 + 220 * 256 + 10 synapses, the array, its rows and drivers
    assert (len(a), len(b)) == (4, 2 + 1 + 220 * 256 + 10 + 1 + 224 + 110)
    c = b.copy()
    c.mask(Kind.NEURON)[3, 6] = True
    assert_counts_exact(b)
    assert_counts_exact(c)
    assert c.count_excluded(Kind.NEURON) == b.count_excluded(Kind.NEURON) + 1


def test_counts_after_json_round_trip():
    st = AvailabilityState(CFG, [Coord(Kind.BUS, (5, 9)), Coord(Kind.BUS, (5, 2)), Coord.hicann_(1)])
    write_off_array(st, 4, 0)
    loaded = AvailabilityState.from_json(st.to_json(), CFG)
    assert loaded == st
    assert_counts_exact(loaded)
    assert loaded.count_excluded(Kind.SYNAPSE) == 220 * 256


def test_counts_with_repeated_and_duplicate_coordinates():
    st = AvailabilityState(CFG)
    st.exclude(Coord.repeater(7, 85))
    st.exclude(Coord.repeater(7, 85))
    assert_counts_exact(st)
    batch = [Coord.repeater(7, 85), Coord(Kind.BUS, (2, 3)), Coord(Kind.BUS, (2, 3)),
             Coord.repeater(7, 86), Coord(Kind.BUS, (2, 3))]
    st.exclude_many(batch)
    assert_counts_exact(st)
    looped = AvailabilityState(CFG)
    for c in batch:
        looped.exclude(c)
    assert looped == st
    assert (st.count_excluded(Kind.REPEATER), st.count_excluded(Kind.BUS)) == (2, 1)
    data = {"excluded": {"bus": [[2, 3], [2, 3], [2, 4]]}}
    assert_counts_exact(AvailabilityState.from_json(data, CFG))
    assert len(AvailabilityState.from_json(data, CFG)) == 2


def test_counts_when_writing_off_an_array_with_excluded_synapses():
    st = AvailabilityState(CFG, [Coord.synapse(5, 1, 0, 0), Coord.synapse(5, 1, 219, 255),
                                 Coord.synapse_row(5, 1, 3), Coord.synapse(5, 0, 9, 9)])
    write_off_array(st, 5, 1)
    assert_counts_exact(st)
    assert st.count_excluded(Kind.SYNAPSE) == 220 * 256 + 1
    assert st.count_excluded(Kind.SYNAPSE_ROW) == 224
    write_off_array(st, 5, 1)  # twice is a no-op
    assert_counts_exact(st)


def test_dense_report_scans_no_whole_synapse_mask(monkeypatch):
    db = dense_db()
    ind, eff = db.state("individual"), db.state("effective")
    whole = int(np.prod(CFG.index_shapes[Kind.SYNAPSE]))
    sizes = []
    count_nonzero = np.count_nonzero

    def spy(a, *args, **kwargs):
        sizes.append(np.size(a))
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", spy)
    rows = {r.resource: r for r in exclusion_report(CFG, ind, eff)}
    counts = [{k: st.count_excluded(k) for k in Kind} for st in (ind, eff)]
    lengths = [len(ind), len(eff)]
    monkeypatch.undo()
    assert sizes and max(sizes) < whole
    assert rows["synapse"].individual == rows["synapse"].effective == 337969
    assert [c[Kind.SYNAPSE] for c in counts] == [337969, 337969]
    assert lengths == [sum(c.values()) for c in counts]
