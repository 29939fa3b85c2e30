import hashlib
import json

import pytest

from waferforge.availability import AvailabilityDb
from waferforge.commissioning import (comm_test, commission, exclusion_report,
                                      individual_from_defects, memory_test)
from waferforge.defects import DefectType
from waferforge.scenarios import (golden_defect_set, golden_defects_path,
                                  jtag_fault_sample, load_golden_defects)
from waferforge.topology import Coord, Kind, TopologyConfig
from waferforge.wafer import build_wafer

CFG = TopologyConfig()


def of_type(ds, t):
    return [d for d in ds if d.type is t]


def test_golden_composition():
    ds = golden_defect_set()
    by_type = {t: len(of_type(ds, t)) for t in DefectType if of_type(ds, t)}
    assert by_type == {
        DefectType.JTAG_DEAD: 12,
        DefectType.HIGHSPEED_DEAD: 12,
        DefectType.FG_CONTROLLER_BROKEN: 1,
        DefectType.REPEATER_BROKEN: 187,
    }
    assert len(ds.defects) == 212
    # 11 of the 12 failed high-speed links sit on dies that are also
    # unreachable over the control link; exactly one is a genuine fault
    jtag_dies = {d.coord.hicann for d in of_type(ds, DefectType.JTAG_DEAD)}
    hs_dies = {d.coord.hicann for d in of_type(ds, DefectType.HIGHSPEED_DEAD)}
    assert len(hs_dies & jtag_dies) == 11
    assert len(hs_dies - jtag_dies) == 1


def test_golden_placement_needs_the_default_layout():
    # a reduced wafer cannot hold the 183 repeater singles
    with pytest.raises(ValueError, match="default wafer layout"):
        golden_defect_set(TopologyConfig(reticle_rows=(1, 2, 1)))


def test_shipped_file_matches_generator():
    assert load_golden_defects().to_json() == golden_defect_set().to_json()
    assert golden_defects_path().name == "golden_defects.json"


def test_golden_repeater_placement():
    ds = golden_defect_set()
    per_block = {}
    for c in (d.coord for d in of_type(ds, DefectType.REPEATER_BROKEN)):
        per_block.setdefault((c.hicann, c.indices[1] // 40), []).append(c)
    pairs = {k: v for k, v in per_block.items() if len(v) > 1}
    # exactly two blocks take a second hit and get written off whole
    assert {k: len(v) for k, v in pairs.items()} == {
        (CFG.hicann_at(20, 0), 0): 2,
        (CFG.hicann_at(10, 3), 4): 2,
    }
    singles = [v[0] for v in per_block.values() if len(v) == 1]
    assert len(singles) == 183
    assert len({c.hicann for c in singles}) == 183  # spread over distinct dies


def test_golden_commissioning_counts():
    w = build_wafer(4242, defects=golden_defect_set())
    db = AvailabilityDb(CFG)
    res = comm_test(w, db)
    assert res.jtag_ok.sum() == 372
    assert res.highspeed_ok.sum() == 356
    mem = memory_test(w, db)
    assert (mem.full_passes, mem.reduced_passes, mem.skipped) == (371, 1, 12)
    assert mem.bytes_tested == 371 * 117250 + 1600 == 43501350
    assert mem.duration_s == 560.0

    ind = db.state("individual")
    assert ind.count_excluded(Kind.JTAG_LINK) == 12
    assert ind.count_excluded(Kind.HIGHSPEED_LINK) == 12
    assert ind.count_excluded(Kind.HICANN) == 1
    # repeaters on unreachable dies cannot be tested, yet none sit there
    assert ind.count_excluded(Kind.REPEATER) == 187


def test_golden_pipeline_sees_every_defect():
    # nothing in this scenario hides behind a dead control link except the
    # links themselves, so the censored pipeline equals perfect knowledge
    w = build_wafer(4242, defects=golden_defect_set())
    db, _ = commission(w)
    assert db.state("individual") == individual_from_defects(CFG, golden_defect_set())


def test_golden_effective_counts():
    w = build_wafer(4242, defects=golden_defect_set())
    db, _ = commission(w)
    eff = db.state("effective")
    counts = {k.value: eff.count_excluded(k) for k in eff.kinds()}
    assert counts == {
        "hicann": 13,
        "jtag_link": 13,
        "highspeed_link": 30,
        "neuron": 15360,
        "ext_merger": 240,
        "bus": 5346,
        "repeater": 263,
        "repeater_block": 2,
    }


def test_golden_states_byte_identical():
    # sha256 of json.dumps(to_json()), recorded from the coordinate-set
    # states the masks replaced
    db, _ = commission(build_wafer(4242, defects=golden_defect_set()))
    digests = [hashlib.sha256(json.dumps(db.state(name).to_json()).encode()).hexdigest()
               for name in ("individual", "effective")]
    assert digests == [
        "8c57b25ab218577cbb30e39047276c221caef1105d453da1f9420c7bc3161c3a",
        "f37bc722a8ed305ed41abfdf294deab1c4ae1954cf8424848c46576d71f87d5e",
    ]


def test_golden_report_rows():
    w = build_wafer(4242, defects=golden_defect_set())
    db, _ = commission(w)
    rows = {r.resource: r for r in
            exclusion_report(CFG, db.state("individual"), db.state("effective"))}

    r = rows["jtag_link"]
    assert (r.individual, r.effective) == (12, 13)
    assert f"{r.individual_pct:.2f}" == "3.12"
    assert f"{r.effective_pct:.2f}" == "3.39"

    r = rows["highspeed_link"]
    assert (r.tested, r.individual, r.effective) == (368, 12, 30)
    assert f"{r.individual_pct:.2f}" == "3.26"
    assert f"{r.effective_pct:.2f}" == "7.81"

    r = rows["ext_merger"]
    assert (r.components, r.effective) == (2984, 144)
    assert f"{r.effective_pct:.2f}" == "4.83"

    r = rows["bus"]
    assert (r.components, r.individual, r.effective) == (119360, 0, 2626)
    assert f"{r.effective_pct:.2f}" == "2.20"

    r = rows["repeater"]
    assert (r.individual, r.effective) == (187, 263)
    assert f"{r.individual_pct:.2f}" == "0.16"
    assert f"{r.effective_pct:.2f}" == "0.22"


def test_jtag_sample_percentage():
    ds = jtag_fault_sample(n=11)
    assert len(ds.defects) == 11
    w = build_wafer(99, defects=ds)
    db, _ = commission(w)
    rows = {r.resource: r for r in
            exclusion_report(CFG, db.state("individual"), db.state("effective"))}
    assert f"{rows['jtag_link'].individual_pct:.2f}" == "2.86"
