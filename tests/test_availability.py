import json
import re

import pytest

from waferforge.availability import (AvailabilityDb, AvailabilityState, load_state,
                                     save_state)
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
    assert st.is_usable(Coord.bus(7, 85))  # same indices, different kind
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


def test_superset_and_equality():
    a = AvailabilityState(CFG, [Coord.bus(0, 1), Coord.neuron(2, 3)])
    b = AvailabilityState(CFG, [Coord.bus(0, 1)])
    assert a.issuperset(b) and not b.issuperset(a)
    assert a.issuperset(a)
    assert a != b
    assert a == AvailabilityState(CFG, [Coord.neuron(2, 3), Coord.bus(0, 1)])


def test_all_excluded_sorted():
    st = AvailabilityState(CFG, [Coord.bus(5, 9), Coord.bus(5, 2), Coord.hicann_(1)])
    coords = st.all_excluded()
    assert coords == sorted(coords, key=Coord.sort_key)
    assert coords[0] == Coord.hicann_(1)  # hicann kind orders before bus


def test_json_roundtrip_canonical():
    st = AvailabilityState(CFG, [Coord.bus(5, 9), Coord.bus(5, 2),
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
                        ([Coord.bus(0, 1), Coord.neuron(3, 512), Coord.bus(0, 10 ** 6)],
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
    st.exclude_many([Coord.bus(3, 77), Coord.hicann_(9),
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


def test_diff_lists_union_with_flags():
    db = AvailabilityDb(CFG)
    ind = db.ensure("individual")
    eff = db.ensure("effective")
    ind.exclude(Coord.repeater(4, 10))
    eff.exclude(Coord.repeater(4, 10))
    eff.exclude(Coord.bus(4, 10))
    rows = db.diff("individual", "effective")
    assert [(str(c), a, b) for c, a, b in rows] == [
        ("bus[4,10]", True, False),  # closure-added
        ("repeater[4,10]", False, False),
    ]


def test_diff_csv(tmp_path):
    db = AvailabilityDb(CFG)
    db.ensure("individual").exclude(Coord.neuron(2, 7))
    eff = db.ensure("effective")
    eff.exclude(Coord.neuron(2, 7))
    eff.exclude(Coord.ext_merger(2, 1))
    path = tmp_path / "diff.csv"
    db.write_diff_csv(path)
    assert path.read_text() == (
        "coord,kind,usable_individual,usable_effective\n"
        "2:7,neuron,0,0\n"
        "2:1,ext_merger,1,0\n"
    )
