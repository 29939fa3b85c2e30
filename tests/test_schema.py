import pytest

from waferforge.availability import AvailabilityState
from waferforge.calibration import CalibrationDb, CalibrationEntry
from waferforge.defects import DefectSet
from waferforge.topology import Coord, TopologyConfig
from waferforge.wafer import WaferModel, build_wafer

CFG = TopologyConfig()


def _calibration_db():
    db = CalibrationDb(3)
    db.add(CalibrationEntry(Coord.neuron(0, 8), "e_leak", "linear",
                            (1.0e-3, 0.2), 0.5, True))
    return db


# store -> (a valid document, its loader)
STORES = {
    "wafer": (lambda: build_wafer(3).to_json(), WaferModel.from_json),
    "defects": (lambda: DefectSet([]).to_json(), DefectSet.from_json),
    "availability": (lambda: AvailabilityState(CFG, [Coord.neuron(3, 4)]).to_json(),
                     lambda d: AvailabilityState.from_json(d, CFG)),
    "calibration": (lambda: _calibration_db().to_json(), CalibrationDb.from_json),
}


@pytest.mark.parametrize("store", sorted(STORES))
def test_store_schema_check(store):
    make, load = STORES[store]
    data = make()
    name, major = data["schema"].split("/")
    assert major == "1"
    # any minor version of the same major loads, and loads the same document
    assert load({**data, "schema": f"{name}/1.7"}).to_json() == data
    for bad in (None, 1, "", name, f"{name}/2", f"{name}/2.0", f"{name}/10",
                "other.store/1"):
        with pytest.raises(ValueError, match="schema"):
            load({**data, "schema": bad})
