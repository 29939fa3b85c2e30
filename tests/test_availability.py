import json
import mmap
import os
import pickle
import re
import signal
import time

import numpy as np
import pytest

from waferforge import availability
from waferforge.availability import (PAGED_MASK_BYTES, AvailabilityDb, AvailabilityState,
                                     load_state, save_state)
from waferforge.topology import Coord, Kind, TopologyConfig

CFG = TopologyConfig()


def test_exclude_and_usable():
    st = AvailabilityState(CFG)
    c = Coord.repeater(7, 85)
    assert st.is_usable(c)
    st.exclude(c)
    st.exclude(c)  # re-excluding is a no-op
    assert not st.is_usable(c)
    assert st.is_usable(Coord.repeater(7, 86))
    assert st.is_usable(Coord(Kind.BUS, (7, 85)))  # same indices, different kind
    assert st.count_excluded(Kind.REPEATER) == 1
    assert st.count_excluded(Kind.BUS) == 0
    assert len(st) == 1
    assert st.kinds() == [Kind.REPEATER]


def test_copy_is_independent():
    a = AvailabilityState(CFG, [Coord.neuron(3, 4)])
    b = a.copy()
    b.exclude(Coord.neuron(3, 5))
    assert len(a) == 1 and len(b) == 2
    assert a.is_usable(Coord.neuron(3, 5))
    a.exclude(Coord.neuron(3, 6))  # the original stays writable on its own
    assert b.is_usable(Coord.neuron(3, 6))
    c = b.copy()
    b.mask(Kind.NEURON)[3, 7] = True
    assert c.is_usable(Coord.neuron(3, 7)) and not b.is_usable(Coord.neuron(3, 7))
    # the same on the synapse mask, which is above the paged-mask size
    s = [Coord.synapse(1, 0, 2, k) for k in range(4)]
    a = AvailabilityState(CFG, s[:1])
    b = a.copy()
    b.exclude(s[1])
    a.exclude(s[2])
    b.mask(Kind.SYNAPSE)[s[3].indices] = True
    assert [a.is_usable(c) for c in s] == [False, True, False, True]
    assert [b.is_usable(c) for c in s] == [False, False, True, False]
    assert (a.count_excluded(Kind.SYNAPSE), b.count_excluded(Kind.SYNAPSE)) == (2, 3)


def test_reference_synapse_mask_is_paged():
    st = AvailabilityState(CFG, [Coord.synapse(1, 0, 2, 3)])
    assert st.read_mask(Kind.SYNAPSE).nbytes >= PAGED_MASK_BYTES
    assert st.read_mask(Kind.NEURON).nbytes < PAGED_MASK_BYTES


def _owner(a):
    """The object that owns the memory behind array ``a``."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


@pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"), reason="needs mmap.MAP_PRIVATE")
def test_copy_writes_a_large_mask_into_its_own_mapping():
    # the first write into a copy's shared synapse mask makes a mapping of
    # its own, as a fresh mask is, not a resident copy of the whole mask
    a = AvailabilityState(CFG, [Coord.synapse(1, 0, 2, 3)])
    b = a.copy()
    b.exclude(Coord.synapse(1, 0, 2, 4))
    owners = [_owner(st.read_mask(Kind.SYNAPSE)) for st in (a, b)]
    assert all(isinstance(o, mmap.mmap) for o in owners)
    assert owners[0] is not owners[1]
    assert (a.count_excluded(Kind.SYNAPSE), b.count_excluded(Kind.SYNAPSE)) == (1, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_synapse_write_in_forked_child_stays_in_child():
    st = AvailabilityState(CFG, [Coord.synapse(1, 0, 2, 3)])
    pid = os.fork()
    if pid == 0:  # child: write, then leave without running the parent's cleanup
        code = 1
        try:
            st.exclude(Coord.synapse(1, 0, 2, 4))
            st.mask(Kind.SYNAPSE)[200, 1, 0, :] = True
            code = 0 if st.count_excluded(Kind.SYNAPSE) == 258 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
    assert st.is_usable(Coord.synapse(1, 0, 2, 4))
    assert st.count_excluded(Kind.SYNAPSE) == 1
    assert int(np.count_nonzero(st.read_mask(Kind.SYNAPSE))) == 1


def test_paged_mask_survives_pickle_and_json():
    st = AvailabilityState(CFG, [Coord.synapse(383, 1, 219, 255), Coord.neuron(2, 3)])
    back = pickle.loads(pickle.dumps(st))
    assert back == st and back.to_json() == st.to_json()
    assert back.count_excluded(Kind.SYNAPSE) == 1
    back.exclude(Coord.synapse(0, 0, 0, 0))  # the unpickled mask is writable
    assert back.count_excluded(Kind.SYNAPSE) == 2 and st.count_excluded(Kind.SYNAPSE) == 1
    loaded = AvailabilityState.from_json(st.to_json(), CFG)
    assert loaded == st and loaded.to_json() == st.to_json()


def test_superset_and_equality():
    a = AvailabilityState(CFG, [Coord(Kind.BUS, (0, 1)), Coord.neuron(2, 3)])
    b = AvailabilityState(CFG, [Coord(Kind.BUS, (0, 1))])
    assert a.issuperset(b) and not b.issuperset(a)
    assert a.issuperset(a)
    assert not a.issuperset(AvailabilityState(CFG, [Coord.neuron(2, 4)]))
    assert a != b
    assert a != "neuron[2,3]" and a.__eq__(None) is NotImplemented
    assert a == AvailabilityState(CFG, [Coord.neuron(2, 3), Coord(Kind.BUS, (0, 1))])


def test_all_excluded_sorted():
    st = AvailabilityState(CFG, [Coord(Kind.BUS, (5, 9)), Coord(Kind.BUS, (5, 2)), Coord.hicann_(1)])
    coords = st.all_excluded()
    assert coords == sorted(coords, key=Coord.sort_key)
    assert coords[0] == Coord.hicann_(1)  # hicann kind orders before bus


def test_json_roundtrip_canonical():
    st = AvailabilityState(CFG, [Coord(Kind.BUS, (5, 9)), Coord(Kind.BUS, (5, 2)),
                            Coord.synapse(1, 0, 10, 20)])
    data = st.to_json()
    assert data["schema"] == "waferforge.availability/1"
    assert data["excluded"]["bus"] == [[5, 2], [5, 9]]  # sorted
    assert AvailabilityState.from_json(data, CFG) == st
    # same content listed in any order loads to the same state
    data2 = json.loads(json.dumps(data))
    data2["excluded"]["bus"].reverse()
    assert AvailabilityState.from_json(data2, CFG) == st


def test_from_json_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        AvailabilityState.from_json({"schema": "something.else/1", "excluded": {}}, CFG)


def test_out_of_range_coordinates_rejected():
    st = AvailabilityState(CFG, [Coord.neuron(3, 511)])
    for bad in (Coord.neuron(3, -1), Coord.neuron(3, 512), Coord.neuron(384, 0),
                Coord.synapse(0, 0, 220, 0), Coord(Kind.NEURON, (3,))):
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            st.exclude(bad)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            st.is_usable(bad)
    # a negative index must not wrap onto neuron 511
    assert st.all_excluded() == [Coord.neuron(3, 511)]
    # a batch is checked whole before any of it is written; the error names
    # the batch's first bad coordinate, whatever its kind
    for batch, name in (([Coord.neuron(3, 5), Coord.neuron(3, -1)], "neuron[3,-1]"),
                        ([Coord(Kind.BUS, (0, 1)), Coord.neuron(3, 512), Coord(Kind.BUS, (0, 10 ** 6))],
                         "neuron[3,512]"),
                        ([Coord.synapse(0, 0, 1, 1), Coord(Kind.NEURON, (3,))], "neuron[3]")):
        with pytest.raises(ValueError, match=re.escape(name)):
            st.exclude_many(batch)
        assert st.all_excluded() == [Coord.neuron(3, 511)] and len(st) == 1
    with pytest.raises(ValueError, match=re.escape("synapse[384,0]")):
        st.exclude_block(Kind.SYNAPSE, (384, 0))
    assert len(st) == 1
    for coords, name in (([[3, 5], [3, -1]], "neuron[3,-1]"),
                         ([[3, 512]], "neuron[3,512]"),
                         ([[384, 0]], "neuron[384,0]")):
        with pytest.raises(ValueError, match=re.escape(name)):
            AvailabilityState.from_json({"excluded": {"neuron": coords}}, CFG)
    with pytest.raises(ValueError, match="2 indices"):
        AvailabilityState.from_json({"excluded": {"neuron": [[3]]}}, CFG)


def test_a_batch_error_that_no_coordinate_explains_propagates(monkeypatch):
    # a failing batch is re-checked coordinate by coordinate to name its
    # first bad one; an error that check does not reproduce is raised as is
    monkeypatch.setattr(availability, "validate_coord", lambda cfg, coord: None)
    st = AvailabilityState(CFG, [Coord.neuron(3, 511)])
    with pytest.raises(ValueError, match="invalid entry in coordinates array"):
        st.exclude_many([Coord.neuron(3, 5), Coord.neuron(3, 512)])
    assert st.all_excluded() == [Coord.neuron(3, 511)] and len(st) == 1


def test_db_named_states():
    db = AvailabilityDb(CFG)
    with pytest.raises(KeyError, match="unknown availability state"):
        db.state("individual")
    ind = db.ensure("individual")
    ind.exclude(Coord.repeater(0, 0))
    assert db.state("individual") is ind
    assert db.ensure("individual") is ind
    assert db.names() == ["individual"]
    db.set_state("effective", ind.copy())
    assert db.names() == ["effective", "individual"]


def test_save_load_state_roundtrip(tmp_path):
    db = AvailabilityDb(CFG)
    st = db.ensure("individual")
    st.exclude_many([Coord(Kind.BUS, (3, 77)), Coord.hicann_(9),
                     Coord(Kind.JTAG_LINK, (4,))])
    path = tmp_path / "individual.json"
    save_state(db, "individual", path)

    db2 = AvailabilityDb(CFG)
    loaded = load_state(db2, "individual", path)
    assert loaded == st
    assert db2.state("individual") == st
    with pytest.raises(KeyError):
        save_state(db2, "effective", tmp_path / "x.json")


def test_load_state_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "waferforge.wafer/1", "excluded": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_state(AvailabilityDb(CFG), "individual", path)
