import dataclasses
import hashlib
import json
import random

import numpy as np
import pytest

from waferforge import commissioning, rng
from waferforge.availability import AvailabilityDb, AvailabilityState
from waferforge.commissioning import (READOUT_MEAN_TOL, CommResult, analog_readout_test,
                                      array_exclusion, comm_test, commission,
                                      effective_exclusion, exclusion_report,
                                      individual_from_defects, memory_test,
                                      stability_test, write_report_csv)
from waferforge.defects import Defect, DefectRates, DefectSet, DefectType, random_defects
from waferforge.scenarios import golden_defect_set
from waferforge.topology import Coord, Direction, Kind, TopologyConfig
from waferforge.variability import VariabilityConfig
from waferforge.wafer import build_wafer, true_parameter_array

CFG = TopologyConfig()
FULL_BYTES = 117250  # sum of the per-hicann memory map
CLOSURE_RATES = DefectRates(jtag=0.02, highspeed=0.03, fg_controller=0.004,
                            repeater=0.001, switch=3e-5, synapse_driver=1e-4,
                            synapse_stuck=1e-6, merger_stuck=3e-4, fg_block_stuck=3e-4)
# 32 dies, 16-circuit neuron blocks, and rates that put faults on most of them
SMALL = TopologyConfig(reticle_rows=(1, 2, 1), neuron_block_size=16)
SMALL_RATES = DefectRates(jtag=0.1, highspeed=0.1, fg_controller=0.05, repeater=0.01,
                          switch=1e-4, synapse_driver=1e-3, synapse_stuck=1e-5,
                          synapse_unstable=1.5e-6, merger_stuck=0.02, fg_block_stuck=0.02)


def jtag(h):
    return Coord(Kind.JTAG_LINK, (h,))


def highspeed(h):
    return Coord(Kind.HIGHSPEED_LINK, (h,))


def wafer_with(defects=None, seed=11, **kw):
    return build_wafer(seed, defects=DefectSet(list(defects or [])), **kw)


def state_digest(state):
    return hashlib.sha256(json.dumps(state.to_json()).encode()).hexdigest()


def baseline_effective():
    return effective_exclusion(CFG, AvailabilityState(CFG))


# ---- comm test -------------------------------------------------------------


def test_comm_test_defect_free():
    db = AvailabilityDb(CFG)
    res = comm_test(wafer_with(), db)
    assert res.jtag_ok.sum() == 384
    assert res.highspeed_ok.sum() == 368  # center groups unbonded by design
    assert not res.highspeed_ok[list(CFG.no_highspeed_hicanns())].any()
    assert len(db.state("individual")) == 0  # by-design gaps are not failures


def test_comm_test_records_individual_failures():
    db = AvailabilityDb(CFG)
    res = comm_test(wafer_with([
        Defect(DefectType.JTAG_DEAD, Coord.hicann_(40)),
        Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(40)),  # probed independently
        Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(41)),
    ]), db)
    assert not res.jtag_ok[40] and res.jtag_ok[41]
    assert not res.highspeed_ok[40] and not res.highspeed_ok[41]
    ind = db.state("individual")
    assert ind.excluded_of(Kind.JTAG_LINK) == {jtag(40)}
    assert ind.excluded_of(Kind.HIGHSPEED_LINK) == {highspeed(40), highspeed(41)}


# ---- memory test -----------------------------------------------------------


def test_memory_test_defect_free_coverage():
    db = AvailabilityDb(CFG)
    w = wafer_with()
    comm_test(w, db)
    res = memory_test(w, db)
    assert res.full_passes == 384 and res.reduced_passes == 0 and res.skipped == 0
    assert res.bytes_tested == 384 * FULL_BYTES == 45024000
    assert res.bytes_tested > 42 * 1024 * 1024
    assert res.bytes_by_region["synapse_array"] == 384 * 110 * 1024
    assert res.duration_s == 8 * 70.0  # groups in parallel, 8 dies each in series
    assert res.discovered == [] and res.unstable_arrays == []
    assert len(db.state("individual")) == 0


def test_memory_test_reduced_pass_on_failed_highspeed():
    db = AvailabilityDb(CFG)
    w = wafer_with([Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(100))])
    comm_test(w, db)
    res = memory_test(w, db)
    assert (res.full_passes, res.reduced_passes, res.skipped) == (383, 1, 0)
    assert res.bytes_tested == 383 * FULL_BYTES + 640 + 960  # routing regions only
    mm, routing = CFG.memory_map(), CFG.routing_regions()
    assert list(res.bytes_by_region) == list(mm)
    for region, size in mm.items():
        assert res.bytes_by_region[region] == size * (384 if region in routing else 383)


def test_memory_test_adds_a_groups_seconds_in_member_order():
    # one group: five unreachable dies, two full passes, then a reduced one;
    # numpy's pairwise sum of the same seconds ends in ...b8, not ...b7
    one_group = TopologyConfig(reticle_rows=(1,))
    db = AvailabilityDb(one_group)
    w = build_wafer(11, one_group, defects=DefectSet(
        [Defect(DefectType.JTAG_DEAD, Coord.hicann_(h)) for h in range(5)]
        + [Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(7))]))
    comm_test(w, db)
    res = memory_test(w, db)
    assert (res.full_passes, res.reduced_passes, res.skipped) == (2, 1, 5)
    assert res.duration_s.hex() == "0x1.19e9131abf0b7p+7"  # 70 + 70 + 70 * 1600 / 117250


def test_memory_test_skips_unreachable_die():
    db = AvailabilityDb(CFG)
    w = wafer_with([
        Defect(DefectType.JTAG_DEAD, Coord.hicann_(100)),
        # undiscoverable: sits behind the dead control link
        Defect(DefectType.REPEATER_BROKEN, Coord.repeater(100, 17)),
    ])
    comm_test(w, db)
    res = memory_test(w, db)
    assert (res.full_passes, res.reduced_passes, res.skipped) == (383, 0, 1)
    assert res.bytes_tested == 383 * FULL_BYTES
    assert db.state("individual").excluded_of(Kind.REPEATER) == set()


def test_memory_test_granularity():
    db = AvailabilityDb(CFG)
    w = wafer_with([
        Defect(DefectType.MEMORY_STUCK, Coord.synapse(10, 1, 30, 40), pattern=0xA5),
        Defect(DefectType.MEMORY_STUCK, Coord.fg_block(11, 2), pattern=0x00),
        Defect(DefectType.SYNAPSE_DRIVER_BROKEN, Coord.synapse_driver(12, 0, 55)),
        Defect(DefectType.SWITCH_BROKEN, Coord(Kind.SWITCH, (13, 600))),
        Defect(DefectType.FG_CONTROLLER_BROKEN, Coord.hicann_(14)),
        Defect(DefectType.REPEATER_BROKEN, Coord.repeater(15, 300)),
    ])
    comm_test(w, db)
    res = memory_test(w, db)
    ind = db.state("individual")
    assert ind.excluded_of(Kind.SYNAPSE) == {Coord.synapse(10, 1, 30, 40)}
    # a stuck FG-controller SRAM cell corrupts programming for the whole die
    assert ind.excluded_of(Kind.HICANN) == {Coord.hicann_(11), Coord.hicann_(14)}
    assert ind.excluded_of(Kind.SYNAPSE_DRIVER) == {Coord.synapse_driver(12, 0, 55)}
    assert ind.excluded_of(Kind.SWITCH) == {Coord(Kind.SWITCH, (13, 600))}
    assert ind.excluded_of(Kind.REPEATER) == {Coord.repeater(15, 300)}
    assert res.discovered == ind.all_excluded()


def test_a_stuck_cell_that_every_write_matches_escapes(monkeypatch):
    # the test sees a stuck cell only through a write it cannot take: when
    # every random value equals the stuck pattern, the cell reads back right
    # words whose every 32-bit half has the top byte 0x5A: every write value is 0x5A
    monkeypatch.setattr(rng, "stream_words", lambda seed, paths, n: np.full(
        (len(paths), n), 0x5A5A5A5A5A5A5A5A, dtype=np.uint64))
    db = AvailabilityDb(CFG)
    w = wafer_with([
        Defect(DefectType.MEMORY_STUCK, Coord.synapse(10, 1, 30, 40), pattern=0x5A),
        Defect(DefectType.MEMORY_STUCK, Coord.repeater(15, 300), pattern=0xA5),
    ])
    comm_test(w, db)
    assert memory_test(w, db).discovered == [Coord.repeater(15, 300)]


def test_memory_test_words_give_what_the_keyed_generators_draw():
    # the memory test reads its write values and stability uniforms off raw
    # Philox words; they must be what Generator.integers(0, 256) and
    # Generator.random draw from the same keyed stream, odd counts included
    gen = np.random.default_rng(5)
    coords = [Coord.synapse(300, 1, 219, 255), Coord(Kind.MERGER, (383, 0))]
    for _ in range(340):
        for kind in (Kind.SYNAPSE, Kind.MERGER, Kind.REPEATER):
            shape = CFG.index_shapes[kind]
            coords.append(Coord(kind, tuple(int(i) for i in gen.integers(0, shape))))
    seed = 2**40 + 11
    stuck = [("memtest", str(c)) for c in coords]
    unstable = [("stability", str(c)) for c in coords]
    assert len(stuck) >= 1000
    wide = rng.stream_words(seed, stuck, commissioning.STABILITY_REPS)
    for n in (commissioning.WRITES_PER_CELL, 7, 1):
        values = commissioning._write_values(rng.stream_words(seed, stuck, -(-n // 2)), n)
        want = np.array([rng.stream(seed, *t).integers(0, 256, size=n) for t in stuck])
        assert np.array_equal(values, want)
        # drawing more words than the writes need does not move them
        assert np.array_equal(commissioning._write_values(wide, n), want)
    doubles = commissioning._uniforms(
        rng.stream_words(seed, unstable, commissioning.STABILITY_REPS))
    want = np.array([rng.stream(seed, *t).random(commissioning.STABILITY_REPS)
                     for t in unstable])
    assert np.array_equal(doubles, want)


def test_an_unstable_register_shows_only_when_it_flips():
    db = AvailabilityDb(CFG)
    w = wafer_with([
        Defect(DefectType.MEMORY_UNSTABLE, Coord.repeater(15, 300), flip_probability=0.0),
        Defect(DefectType.MEMORY_UNSTABLE, Coord.repeater(16, 300), flip_probability=1.0),
    ])
    comm_test(w, db)
    assert memory_test(w, db).discovered == [Coord.repeater(16, 300)]


def test_reduced_pass_still_finds_routing_faults():
    # a die reachable only over the control link gets repeater/switch tests,
    # but its driver registers stay untested
    db = AvailabilityDb(CFG)
    w = wafer_with([
        Defect(DefectType.HIGHSPEED_DEAD, Coord.hicann_(60)),
        Defect(DefectType.REPEATER_BROKEN, Coord.repeater(60, 5)),
        Defect(DefectType.SWITCH_BROKEN, Coord(Kind.SWITCH, (60, 100))),
        Defect(DefectType.SYNAPSE_DRIVER_BROKEN, Coord.synapse_driver(60, 0, 10)),
    ])
    comm_test(w, db)
    memory_test(w, db)
    ind = db.state("individual")
    assert ind.excluded_of(Kind.REPEATER) == {Coord.repeater(60, 5)}
    assert ind.excluded_of(Kind.SWITCH) == {Coord(Kind.SWITCH, (60, 100))}
    assert ind.excluded_of(Kind.SYNAPSE_DRIVER) == set()


# ---- stability test --------------------------------------------------------


def test_stability_stable_without_unstable_cells():
    w = wafer_with([Defect(DefectType.MEMORY_STUCK, Coord.synapse(3, 0, 1, 2), pattern=1)])
    res = stability_test(w, Coord.synapse_array(3, 0))
    assert res.stable and res.unstable_cells == []
    with pytest.raises(ValueError, match="synapse array"):
        stability_test(w, Coord.hicann_(3))


def test_stability_detection_rate():
    # p=0.2 cell escapes 10 same-value reps with 0.8^10 ~ 0.107
    d = Defect(DefectType.MEMORY_UNSTABLE, Coord.synapse(3, 0, 10, 20),
               flip_probability=0.2)
    hits = sum(not stability_test(build_wafer(1000 + s, defects=DefectSet([d])),
                                  Coord.synapse_array(3, 0)).stable
               for s in range(300))
    assert abs(hits / 300 - (1 - 0.8 ** 10)) < 0.05


def test_unstable_cell_takes_whole_array():
    db = AvailabilityDb(CFG)
    w = wafer_with([Defect(DefectType.MEMORY_UNSTABLE, Coord.synapse(7, 1, 100, 200),
                           flip_probability=0.9)], seed=2)
    comm_test(w, db)
    res = memory_test(w, db)
    assert res.unstable_arrays == [Coord.synapse_array(7, 1)]
    assert res.discovered == []  # the array's contents are not listed cell by cell
    ind = db.state("individual")
    assert ind.count_excluded(Kind.SYNAPSE) == 220 * 256 == 56320
    assert ind.count_excluded(Kind.SYNAPSE_ROW) == 224
    assert ind.count_excluded(Kind.SYNAPSE_DRIVER) == 110
    assert ind.excluded_of(Kind.SYNAPSE_ARRAY) == {Coord.synapse_array(7, 1)}
    assert all(c.indices[1] == 1 for c in ind.excluded_of(Kind.SYNAPSE_ROW))
    assert set(array_exclusion(CFG, 7, 1)) == set(ind.all_excluded())
    # the transparent translation writes the array off the same way
    assert individual_from_defects(CFG, w.defects) == ind


# ---- effective exclusion ---------------------------------------------------


def test_defect_free_closure_is_design_plus_edge():
    eff = baseline_effective()
    center = set(CFG.no_highspeed_hicanns())
    assert eff.excluded_of(Kind.HIGHSPEED_LINK) == {highspeed(h) for h in center}
    assert eff.excluded_of(Kind.NEURON) == {Coord.neuron(h, n)
                                            for h in center for n in range(512)}
    assert eff.excluded_of(Kind.EXT_MERGER) == {Coord(Kind.EXT_MERGER, (h, m))
                                                for h in center for m in range(8)}
    edge_buses = {Coord(Kind.BUS, (h, d * 80 + lane))
                  for h in CFG.edge_hicanns for d in Direction for lane in range(80)
                  if CFG.neighbor(h, d) is None}
    assert eff.excluded_of(Kind.BUS) == edge_buses
    assert len(edge_buses) == 1120  # 12 southern groups + 2 rim corners
    for kind in (Kind.JTAG_LINK, Kind.HICANN, Kind.REPEATER, Kind.MERGER,
                 Kind.SYNAPSE, Kind.SWITCH):
        assert eff.count_excluded(kind) == 0


def test_single_repeater_takes_its_two_buses():
    h = CFG.hicann_at(18, 4)
    ind = AvailabilityState(CFG, [Coord.repeater(h, 85)])
    eff = effective_exclusion(CFG, ind)
    assert eff.excluded_of(Kind.REPEATER) == {Coord.repeater(h, 85)}
    added = eff.excluded_of(Kind.BUS) - baseline_effective().excluded_of(Kind.BUS)
    partner = CFG.bus_partner(h, 85)
    assert added == {Coord(Kind.BUS, (h, 85)), Coord(Kind.BUS, partner)}


def test_two_repeaters_close_the_block():
    h = CFG.hicann_at(18, 4)
    ind = AvailabilityState(CFG, [Coord.repeater(h, 85), Coord.repeater(h, 99)])
    eff = effective_exclusion(CFG, ind)
    reps = eff.excluded_of(Kind.REPEATER)
    assert reps == {Coord.repeater(h, r) for r in range(80, 120)}
    assert eff.excluded_of(Kind.REPEATER_BLOCK) == {Coord(Kind.REPEATER_BLOCK, (h, 2))}
    added = eff.excluded_of(Kind.BUS) - baseline_effective().excluded_of(Kind.BUS)
    assert len(added) == 80  # 40 own + 40 partner-side


@pytest.mark.parametrize("block", [0, CFG.repeater_blocks_per_hicann - 1])
def test_two_repeaters_close_a_block_of_the_last_die(block):
    h, per = CFG.n_hicanns - 1, CFG.repeaters_per_block
    first, last = block * per, (block + 1) * per - 1
    outside = last + 1 if block == 0 else first - 1  # in the adjacent block

    def closed(*repeaters):
        eff = effective_exclusion(CFG, AvailabilityState(
            CFG, [Coord.repeater(h, r) for r in repeaters]))
        return eff.excluded_of(Kind.REPEATER_BLOCK), eff.excluded_of(Kind.REPEATER)

    assert closed(last) == (set(), {Coord.repeater(h, last)})
    assert closed(first, outside) == (set(), {Coord.repeater(h, first),
                                             Coord.repeater(h, outside)})
    assert closed(first, last) == ({Coord(Kind.REPEATER_BLOCK, (h, block))},
                                   {Coord.repeater(h, r) for r in range(first, last + 1)})


def test_rim_facing_repeater_has_one_bus():
    h = CFG.hicann_at(13, 0)  # top row, northern group faces off-grid
    ind = AvailabilityState(CFG, [Coord.repeater(h, 7)])
    eff = effective_exclusion(CFG, ind)
    added = eff.excluded_of(Kind.BUS) - baseline_effective().excluded_of(Kind.BUS)
    assert added == {Coord(Kind.BUS, (h, 7))}


def test_fg_controller_acts_like_dead_jtag():
    f = CFG.hicann_at(12, 0)  # corner: east + south neighbors only
    ind = AvailabilityState(CFG, [Coord.hicann_(f)])
    eff = effective_exclusion(CFG, ind)
    assert not eff.is_usable(jtag(f))
    assert not eff.is_usable(highspeed(f))
    assert {c.hicann for c in eff.excluded_of(Kind.NEURON)} \
        == set(CFG.no_highspeed_hicanns()) | {f}
    added = eff.excluded_of(Kind.BUS) - baseline_effective().excluded_of(Kind.BUS)
    east, south = CFG.neighbor(f, Direction.E), CFG.neighbor(f, Direction.S)
    expected = {Coord(Kind.BUS, (east, Direction.W * 80 + lane)) for lane in range(80)}
    expected |= {Coord(Kind.BUS, (south, Direction.N * 80 + lane)) for lane in range(80)}
    assert added == expected  # neighbors lose their facing groups, not f its own


def test_no_route_excludes_neurons_and_ext_mergers():
    h = CFG.hicann_at(18, 4)
    # channels 0 and 4 share the injection pair (bus 0, bus 160)
    ind = AvailabilityState(CFG, [Coord.repeater(h, 0), Coord.repeater(h, 160)])
    eff = effective_exclusion(CFG, ind)
    neurons = {c for c in eff.excluded_of(Kind.NEURON) if c.hicann == h}
    assert {c.indices[1] // 64 for c in neurons} == {0, 4}
    assert len(neurons) == 128
    ext = {c.indices[1] for c in eff.excluded_of(Kind.EXT_MERGER) if c.hicann == h}
    assert ext == {0, 4}


def test_broken_leaf_merger_strands_its_neurons():
    h = CFG.hicann_at(18, 4)
    eff = effective_exclusion(CFG, AvailabilityState(CFG, [Coord(Kind.MERGER, (h, 3))]))
    neurons = {c.indices[1] for c in eff.excluded_of(Kind.NEURON) if c.hicann == h}
    assert neurons == set(range(3 * 64, 4 * 64))
    # external input does not pass the leaf merger
    assert all(c.hicann != h for c in eff.excluded_of(Kind.EXT_MERGER))


def test_a_stranded_channel_strands_every_block_it_sends():
    # 16-circuit blocks: block b sends on channel b % 8, so 4 blocks share one
    small = TopologyConfig(neuron_block_size=16)
    h = small.hicann_at(18, 4)

    def stranded(*mergers):
        ind = AvailabilityState(small, [Coord(Kind.MERGER, (h, m)) for m in mergers])
        eff = effective_exclusion(small, ind)
        return {c.indices[1] for c in eff.excluded_of(Kind.NEURON) if c.hicann == h}

    assert stranded(3) == {n for b in (3, 11, 19, 27) for n in range(16 * b, 16 * b + 16)}
    assert stranded(*range(8)) == set(range(512))


def test_closure_properties_on_random_sets():
    extra_rates = DefectRates(jtag=0.01, repeater=3e-4, merger_stuck=2e-4)
    for s in range(10):
        ds = random_defects(s, CFG, CLOSURE_RATES)
        ind = individual_from_defects(CFG, ds)
        eff = effective_exclusion(CFG, ind)
        assert eff.issuperset(ind)
        assert effective_exclusion(CFG, eff) == eff
        grown = DefectSet(ds.defects + random_defects(900 + s, CFG, extra_rates).defects)
        eff_grown = effective_exclusion(CFG, individual_from_defects(CFG, grown))
        assert eff_grown.issuperset(eff)


# sha256 of json.dumps(to_json()) of (individual, effective) for closure
# seeds 0-9, recorded from the coordinate-set states the masks replaced
CLOSURE_DIGESTS = [
    ("b2d3d4066e70842e5177b71caa16b4b7a287192a2e24c6bd82565048816104e7",
     "688671f4018aca44af1f0ae0b48d56fa0719bbc959da7ad67b2eb81bd179592e"),
    ("c4cb32ad84311f2199f42bfc4cce2268c6478a3aa54be9de3c07fed3be6d8f04",
     "850df53e91721e9dc2629c83899ea3b5f0d4aa7005d72d690c4b0b4b078032da"),
    ("75223d1950a05c8e2dd238362f95a1c61ab48b5b340196e35bd8a483b0a54adf",
     "405135a4566eff74ab4abfb43f70c6d0b3ed611265f2b462c5059df23e08cc87"),
    ("30391291eef6ee24fe2741a09f86f45e5be136b0234af2f06317fa937e3e397b",
     "bb5d8c29a2e6aedd7189e22846a7b48558e3290e3201971bad9149d9a362460d"),
    ("44f5ebbcf831180c4c6f55a515ca6fe91f7c112de07d01748b273647a0b9605b",
     "19f16727b137882f9ccdce59a9b0ed37142fe636c4719e069a20e8dd2207ce29"),
    ("0105790cc255e676e69452c5bc78750c9ada05805de9a67d196586ea079c9ca7",
     "23770e83439532fee9949f82a8c38dc7efde5fddfe7086a48c5a4d0e570ddcda"),
    ("d7efa124d0a00e645fbf60fedf3fe667777a7ed48763f1bbc2331398903f2bc0",
     "47ba6f474f95c139aaf512b1054fb1db0bd8a381000e72aa4359b3604e39ce97"),
    ("7e851d3538fb99072cce4d8a3d0554736e3a621875b6b8df95f78e0fae3f036c",
     "68e86d7b1f64c8c0bfdf1dec43f1996e96c493ef5a3a550e3d42b2745d0c88a5"),
    ("b5728e154922fd7f0d0cc2d49c7eca1e0edc0ac6d8a4a50951c3f0da0c4240d1",
     "6d064480e81dec84af10c594ab87884d8ea12d60b8cbbe18120494a8154c0ae1"),
    ("e9e77ceb6a195a1ae81523732db5c7f3f2da3746d317ddf9b7e58ecf4a2c3146",
     "98e21780b350196c6b0e94eb4625ec1fc59c6ff8c9527e445952eaa0d3a255b9"),
]


def test_closure_states_byte_identical():
    for s, want in enumerate(CLOSURE_DIGESTS):
        ind = individual_from_defects(CFG, random_defects(s, CFG, CLOSURE_RATES))
        assert (state_digest(ind), state_digest(effective_exclusion(CFG, ind))) == want


def test_reduced_topology_commissioning_byte_identical():
    # two unstable arrays are written off. The effective neuron row: 5 dies
    # that pass JTAG lose every circuit (2560), and dies 14 and 31 strand 4
    # and 6 sending channels, each taking its 4 blocks of 16 circuits (640)
    db, mem = commission(build_wafer(5, SMALL, defects=random_defects(5, SMALL, SMALL_RATES)))
    ind, eff = db.state("individual"), db.state("effective")
    assert mem.unstable_arrays == [Coord.synapse_array(7, 0), Coord.synapse_array(8, 1)]
    assert state_digest(ind) == "a4062380d40b0471dd8b3afabaa758168a900fe8dfa46178ec373fc9555476be"
    assert state_digest(eff) == "91f2b31d079b02b3b9a01b0dab4e86d655ba0cd05c1ebf73cd392a1624565f93"
    rows = {r.resource: (r.individual, r.effective)
            for r in exclusion_report(SMALL, ind, eff) if r.individual or r.effective}
    assert rows == {"jtag_link": (4, 7), "highspeed_link": (2, 9), "neuron": (0, 3200),
                    "merger": (1, 1), "synapse_array": (2, 2), "synapse_row": (448, 448),
                    "synapse_driver": (221, 221), "synapse": (112672, 112672),
                    "ext_merger": (0, 50), "repeater": (104, 710), "bus": (0, 2885),
                    "switch": (23, 23)}


def test_square_reticles_commission():
    # 2x2 reticles: the group size follows the reticle, 4 groups of 4 dies
    square = TopologyConfig(reticle_rows=(1, 2, 1), reticle_shape=(2, 2))
    rates = DefectRates(jtag=0.1, highspeed=0.1, fg_controller=0.05, repeater=0.01,
                        synapse_driver=1e-3, merger_stuck=0.02, fg_block_stuck=0.02)
    defects = random_defects(5, square, rates)
    assert len(defects.defects) > 0
    db, mem = commission(build_wafer(5, square, defects=defects))
    assert (square.n_hicanns, square.group_size) == (16, 4)
    ind, eff = db.state("individual"), db.state("effective")
    assert eff.issuperset(ind)
    assert mem.full_passes + mem.reduced_passes + mem.skipped == 16
    rows = {r.resource: r for r in exclusion_report(square, ind, eff)}
    assert rows["jtag_link"].components == 16


# ---- whole-wafer memory test pins ------------------------------------------

DENSE_RATES = dataclasses.replace(CLOSURE_RATES, synapse_unstable=1e-7)


def dense_defects():
    # the commission_dense bench set: every unstable cell flips on every rewrite
    return DefectSet([dataclasses.replace(d, flip_probability=1.0)
                      if d.type is DefectType.MEMORY_UNSTABLE else d
                      for d in random_defects(0, CFG, DENSE_RATES)])


PINNED_WAFERS = {
    "golden": lambda: build_wafer(4242, defects=golden_defect_set()),
    "dense": lambda: build_wafer(1, CFG, defects=dense_defects()),
    "reduced": lambda: build_wafer(5, SMALL, defects=random_defects(5, SMALL, SMALL_RATES)),
}


def region_bytes(*sizes):
    return list(zip(CFG.memory_map(), sizes))


# every MemoryTestResult field: (full, reduced, skipped) passes, duration_s
# as float.hex, bytes_by_region in region order, the number and the sha256 of
# the discovered coordinates' JSON, and the unstable arrays
MEMORY_PINS = {
    "golden": ((371, 1, 12), "0x1.1800000000000p+9",
               region_bytes(41789440, 238080, 357120, 326480, 11130, 11872, 5936,
                            379904, 1484, 379904),
               188, "d91b9429671896743a09faae83331fe686317513da6667296604fe6144f810b0", []),
    "dense": ((361, 18, 5), "0x1.1800000000000p+9",
              region_bytes(40663040, 242560, 363840, 317680, 10830, 11552, 5776,
                           369664, 1444, 369664),
              259, "e6eb2cdcf473c14132ecbb8f850fb05bdc78cba4b830c76921afe4c2e7417cc4",
              [(75, 0), (173, 1), (210, 0), (235, 0), (255, 0), (360, 0)]),
    "reduced": ((26, 2, 4), "0x1.eaf4898d5f85cp+8",
                region_bytes(2928640, 17920, 26880, 22880, 780, 832, 416, 26624, 104, 26624),
                166, "770495d5093feb59a74e2c0c5f71fd32456e0b9cf0fdb8b5c4e7fc90144d226d",
                [(7, 0), (8, 1)]),
}


@pytest.mark.parametrize("name", PINNED_WAFERS)
def test_memory_test_result_pinned(name):
    passes, duration, by_region, n_found, found_digest, unstable = MEMORY_PINS[name]
    _, mem = commission(PINNED_WAFERS[name]())
    assert (mem.full_passes, mem.reduced_passes, mem.skipped) == passes
    assert mem.duration_s.hex() == duration
    assert list(mem.bytes_by_region.items()) == by_region
    assert mem.bytes_tested == sum(b for _, b in by_region)
    assert len(mem.discovered) == n_found
    assert hashlib.sha256(json.dumps([c.to_json() for c in mem.discovered]).encode()) \
        .hexdigest() == found_digest
    assert mem.unstable_arrays == [Coord.synapse_array(h, a) for h, a in unstable]


@pytest.mark.parametrize("name", PINNED_WAFERS)
def test_defect_order_does_not_change_commissioning(name):
    wafer = PINNED_WAFERS[name]()
    db, mem = commission(wafer)
    shuffled = list(wafer.defects)
    random.Random(0).shuffle(shuffled)
    wafer.defects = DefectSet(shuffled)
    db_shuffled, mem_shuffled = commission(wafer)
    assert mem_shuffled == mem
    for state in ("individual", "effective"):
        assert state_digest(db_shuffled.state(state)) == state_digest(db.state(state))


def test_a_defect_added_to_a_built_wafer_is_checked():
    # a negative hicann index would otherwise kill die 381 without a word
    w = build_wafer(1, defects=DefectSet([Defect(DefectType.JTAG_DEAD, Coord.hicann_(5))]))
    w.defects.add(Defect(DefectType.JTAG_DEAD, Coord.hicann_(-3)))
    with pytest.raises(ValueError, match=r"defect jtag_dead: hicann\[-3\]: index 0"):
        commission(w)


def test_a_reassigned_defect_set_is_checked():
    # the first bad defect is named; the memory test would raise IndexError
    w = build_wafer(1)
    w.defects = DefectSet([Defect(DefectType.JTAG_DEAD, Coord.hicann_(5)),
                           Defect(DefectType.REPEATER_BROKEN, Coord.repeater(400, 5)),
                           Defect(DefectType.SWITCH_BROKEN, Coord(Kind.SWITCH, (3, 10 ** 6)))])
    with pytest.raises(ValueError, match=r"defect repeater_broken: repeater\[400,5\]"):
        commission(w)


@pytest.mark.parametrize("name", ["golden", "reduced"])
def test_closure_is_idempotent(name):
    # closing the effective state again changes no byte, and no individual
    # exclusion is lost on the way
    wafer = PINNED_WAFERS[name]()
    db, _ = commission(wafer)
    ind, eff = db.state("individual"), db.state("effective")
    assert effective_exclusion(wafer.topology, eff).to_json() == eff.to_json()
    for kind in ind.kinds():
        excluded = np.flatnonzero(ind.read_mask(kind))
        assert eff.read_mask(kind).reshape(-1)[excluded].all(), kind


# ---- analog readout test ---------------------------------------------------


def test_analog_readout_defect_free_passes():
    assert analog_readout_test(wafer_with(seed=7)).all()


def test_analog_readout_flags_noisy_adc():
    noisy = dataclasses.replace(VariabilityConfig(), adc_noise_sigma=0.01)
    ok = analog_readout_test(build_wafer(7, variability=noisy))
    assert not ok.any()


def test_analog_readout_flags_a_shifted_readout_chain():
    # on an otherwise ideal wafer a die passes iff its readout shift stays
    # within the mean tolerance (the nearest die sits 0.26 mV from it)
    var = dataclasses.replace(VariabilityConfig().zeroed(), readout_shift_sigma=0.1)
    w = build_wafer(7, variability=var)
    ok = analog_readout_test(w)
    shift = np.array([true_parameter_array(w, h, "readout_shift")[0]
                      for h in range(CFG.n_hicanns)])
    assert np.array_equal(ok, np.abs(shift) <= READOUT_MEAN_TOL)
    assert 0 < ok.sum() < CFG.n_hicanns


def test_analog_readout_passes_on_a_smaller_dac():
    # the readout levels are reference-DAC codes, driven as the same
    # fraction of a 9-bit DAC
    small = TopologyConfig(reticle_rows=(1, 2, 1), dac_max=511)
    assert analog_readout_test(build_wafer(3, small)).all()


def test_analog_readout_needs_output_and_link():
    db = AvailabilityDb(CFG)
    ind = db.ensure("individual")
    ind.exclude(jtag(5))
    ind.exclude(Coord(Kind.ANALOG_OUT, (9, 0)))
    ind.exclude(Coord(Kind.ANALOG_OUT, (9, 1)))
    ind.exclude(Coord(Kind.ANALOG_OUT, (10, 0)))  # second output still works
    ok = analog_readout_test(wafer_with(seed=7), db)
    assert not ok[5] and not ok[9]
    assert ok[10] and ok[0]


# ---- pipeline + report -----------------------------------------------------


def test_commission_pipeline_builds_both_states():
    w = wafer_with([Defect(DefectType.REPEATER_BROKEN, Coord.repeater(33, 50))])
    db, res = commission(w)
    assert db.names() == ["effective", "individual"]
    assert db.state("effective").issuperset(db.state("individual"))
    assert not db.state("effective").is_usable(Coord(Kind.BUS, (33, 50)))


def test_report_reference_totals():
    w = wafer_with()
    db, _ = commission(w)
    rows = {r.resource: r for r in
            exclusion_report(CFG, db.state("individual"), db.state("effective"))}
    assert rows["jtag_link"].components == 384
    assert rows["highspeed_link"].tested == 368
    assert rows["ext_merger"].components == 2984
    assert rows["bus"].components == 119360
    assert rows["repeater"].components == 119360
    assert rows["switch"].components == 2864640
    assert rows["synapse"].components == 40099840
    assert rows["synapse_driver"].components == 78320
    assert rows["synapse_row"].components == 159488
    assert rows["fg_block"].components == 1492
    assert rows["merger"].components == 5340
    assert rows["synapse_array"].components == 712
    assert rows["analog_out"].components == 712
    assert rows["highspeed_link"].effective == 16  # by design
    assert f"{rows['highspeed_link'].effective_pct:.2f}" == "4.17"


def test_report_csv(tmp_path):
    w = wafer_with()
    db, _ = commission(w)
    rows = exclusion_report(CFG, db.state("individual"), db.state("effective"))
    path = tmp_path / "report.csv"
    write_report_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ("resource,components,tested,individual,individual_pct,"
                        "effective,effective_pct")
    assert lines[1] == "jtag_link,384,384,0,0.00,0,0.00"
    assert lines[2] == "highspeed_link,384,368,0,0.00,16,4.17"
