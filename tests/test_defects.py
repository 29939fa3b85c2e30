import hashlib
import json
import re

import numpy as np
import pytest

from waferforge import defects
from waferforge.commissioning import commission
from waferforge.defects import Defect, DefectRates, DefectSet, DefectType, random_defects
from waferforge.topology import Coord, Kind, TopologyConfig
from waferforge.wafer import build_wafer

# rates at which every (defect type, component kind) pair is drawn on both
# topologies below
RATES = DefectRates(jtag=0.1, highspeed=0.1, fg_controller=0.1, repeater=0.01,
                    switch=0.002, synapse_driver=0.01, synapse_stuck=2e-5,
                    synapse_unstable=2e-5, merger_stuck=0.02, fg_block_stuck=0.05)

# sha256 of the defect list in draw order: type, coordinate, stuck pattern
# and flip probability of every defect
TOPOLOGIES = {"reference": TopologyConfig(),
              "reduced": TopologyConfig(reticle_rows=(1, 2, 1))}
PINNED = {
    ("reference", 3): "1a08493e8de69a07ef82525bad0b809e6b852e357f1feb4fbffeb08285c4ebd4",
    ("reference", 11): "feb1defe1e2f68b814db698c26dfcce3d9f0ff5554c6a898d1b3bf979a1c302b",
    ("reduced", 3): "6f0c1fe466687a22a87fe14a4d6ff19682c53d4e24ce1c6a55a22ffac08a4e66",
    ("reduced", 11): "b157ab5dc09aa84f36135d3d4941d79eceb5f2c06365dd9a888ef6c5d37ea445",
}


@pytest.mark.parametrize("topology, seed", sorted(PINNED))
def test_random_defects_reproduce_pinned_lists(topology, seed):
    ds = random_defects(seed, TOPOLOGIES[topology], RATES)
    assert len({(d.type, d.coord.kind) for d in ds}) == 10
    listed = json.dumps([d.to_json() for d in ds.defects])
    assert hashlib.sha256(listed.encode()).hexdigest() == PINNED[(topology, seed)]


# ---- the defect table ------------------------------------------------------


def test_table_columns_place_every_defect():
    for name, cfg in TOPOLOGIES.items():
        ds = random_defects(3, cfg, RATES)
        tab = ds.table(cfg)
        assert tab.defects == tuple(ds.defects)
        for i, d in enumerate(ds.defects):
            shape = cfg.index_shapes[d.coord.kind]
            assert list(DefectType)[tab.type[i]] is d.type
            assert list(Kind)[tab.kind[i]] is d.coord.kind
            assert tab.hicann[i] == d.coord.hicann
            assert tab.flat[i] == np.ravel_multi_index(d.coord.indices, shape)
        assert np.array_equal(tab.is_type(DefectType.JTAG_DEAD),
                              [d.type is DefectType.JTAG_DEAD for d in ds.defects])
    empty = DefectSet().table(TopologyConfig())
    assert empty.flat.shape == empty.hicann.shape == (0,)


def test_table_is_built_once_per_list(monkeypatch):
    calls = []
    build = defects._build_table
    monkeypatch.setattr(defects, "_build_table", lambda cfg, ds: calls.append(1) or build(cfg, ds))
    cfg = TopologyConfig()
    w = build_wafer(1, cfg, defects=random_defects(3, cfg, RATES))
    tab = w.defects.table(cfg)
    commission(w)
    assert w.defects.table(TopologyConfig()) is tab  # an equal topology finds it too
    assert len(calls) == 1
    shuffled = DefectSet(w.defects.defects[::-1])
    assert shuffled.table(cfg).flat.tolist() == tab.flat.tolist()[::-1]


def test_table_sees_every_change_to_the_list():
    cfg = TopologyConfig()
    ds = DefectSet([Defect(DefectType.JTAG_DEAD, Coord.hicann_(5))])
    first = ds.table(cfg)
    ds.add(Defect(DefectType.REPEATER_BROKEN, Coord.repeater(7, 9)))
    assert ds.table(cfg).flat.tolist() == [5, 7 * 320 + 9]
    ds.defects[0] = Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(6))
    tab = ds.table(cfg)
    assert tab.hicann.tolist() == [6, 7] and tab.is_type(DefectType.HIGHSPEED_DEAD)[0]
    assert first.hicann.tolist() == [5]  # a table is never changed in place
    ds.defects = []
    assert len(ds.table(cfg).flat) == 0
    small = TopologyConfig(reticle_rows=(1, 2, 1))
    ds.add(Defect(DefectType.REPEATER_BROKEN, Coord.repeater(31, 9)))
    assert ds.table(small).flat.tolist() == [31 * 320 + 9]
    with pytest.raises(ValueError, match=re.escape("defect repeater_broken: repeater[40,9]")):
        DefectSet([Defect(DefectType.REPEATER_BROKEN, Coord.repeater(40, 9))]).table(small)


def test_a_changed_defect_set_is_checked_again():
    # the table of the built wafer does not stand in for the changed list
    w = build_wafer(1, defects=DefectSet([Defect(DefectType.JTAG_DEAD, Coord.hicann_(5))]))
    w.defects.add(Defect(DefectType.SWITCH_BROKEN, Coord(Kind.SWITCH, (3, 10 ** 6))))
    with pytest.raises(ValueError, match=re.escape("defect switch_broken: switch[3,1000000]: "
                                                   "index 1 out of range")):
        commission(w)
    w.defects.defects[1] = Defect(DefectType.MEMORY_STUCK, Coord(Kind.SYNAPSE, (3, 0, 0)), 7)
    with pytest.raises(ValueError, match=re.escape("defect memory_stuck: synapse[3,0,0]: "
                                                   "expected 4 indices")):
        commission(w)
    w.defects = DefectSet([Defect(DefectType.JTAG_DEAD, Coord.hicann_(-1))])
    with pytest.raises(ValueError, match=re.escape("defect jtag_dead: hicann[-1]: index 0")):
        commission(w)


def test_a_table_error_that_no_defect_explains_propagates(monkeypatch):
    monkeypatch.setattr(defects, "validate_coord", lambda cfg, coord: None)
    ds = DefectSet([Defect(DefectType.JTAG_DEAD, Coord.hicann_(384))])
    with pytest.raises(ValueError, match="invalid entry in coordinates array"):
        ds.table(TopologyConfig())
