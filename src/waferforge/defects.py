"""Defect sets: injected hardware faults.

A defect set is part of a wafer's definition. Commissioning never sees the
set directly; it can only observe defects through the tests it runs
(communication, memory, analog readout), which is what the availability
database is built from.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .topology import Coord, TopologyConfig, check_schema

SCHEMA = "waferforge.defects/1"


class DefectType(enum.Enum):
    JTAG_DEAD = "jtag_dead"
    HIGHSPEED_DEAD = "highspeed_dead"
    MEMORY_STUCK = "memory_stuck"
    MEMORY_UNSTABLE = "memory_unstable"
    FG_CONTROLLER_BROKEN = "fg_controller_broken"
    REPEATER_BROKEN = "repeater_broken"
    SYNAPSE_DRIVER_BROKEN = "synapse_driver_broken"
    SWITCH_BROKEN = "switch_broken"


@dataclass(frozen=True)
class Defect:
    type: DefectType
    coord: Coord
    pattern: int | None = None  # stuck bit pattern
    flip_probability: float | None = None  # unstable cell

    def to_json(self) -> list:
        return [self.type.value, self.coord.to_json(), self.pattern, self.flip_probability]

    @classmethod
    def from_json(cls, data) -> "Defect":
        return cls(DefectType(data[0]), Coord.from_json(data[1]), data[2], data[3])


@dataclass
class DefectRates:
    """Per-unit fault probabilities used by the random generator."""

    jtag: float = 0.0
    highspeed: float = 0.0
    fg_controller: float = 0.0
    repeater: float = 0.0
    switch: float = 0.0
    synapse_driver: float = 0.0
    synapse_stuck: float = 0.0
    synapse_unstable: float = 0.0
    merger_stuck: float = 0.0
    fg_block_stuck: float = 0.0

    def to_json(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "DefectRates":
        return cls(**data)


@dataclass
class DefectSet:
    defects: list[Defect] = field(default_factory=list)

    def __iter__(self):
        return iter(self.defects)

    def __len__(self):
        return len(self.defects)

    def add(self, defect: Defect) -> None:
        self.defects.append(defect)

    def of_type(self, t: DefectType) -> list[Defect]:
        return [d for d in self.defects if d.type is t]

    def hicanns_with(self, t: DefectType) -> set[int]:
        return {d.coord.hicann for d in self.of_type(t)}

    def coords_of(self, t: DefectType) -> set[Coord]:
        return {d.coord for d in self.of_type(t)}

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "defects": [d.to_json() for d in sorted(self.defects,
                                                    key=lambda d: (d.type.value, d.coord.sort_key()))],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DefectSet":
        check_schema(data.get("schema", SCHEMA), SCHEMA)
        return cls([Defect.from_json(d) for d in data["defects"]])

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "DefectSet":
        with open(path) as f:
            return cls.from_json(json.load(f))


def _sample_indices(gen: np.random.Generator, n_units: int, rate: float) -> np.ndarray:
    if rate <= 0.0 or n_units == 0:
        return np.empty(0, dtype=np.int64)
    count = gen.binomial(n_units, min(rate, 1.0))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(gen.choice(n_units, size=count, replace=False))


def random_defects(seed: int, cfg: TopologyConfig, rates: DefectRates) -> DefectSet:
    """Draw a defect set; deterministic in (seed, cfg, rates)."""
    ds = DefectSet()
    H = cfg.n_hicanns

    def per_hicann(rate, token, dtype):
        gen = rng.stream(seed, "defects", token)
        for h in _sample_indices(gen, H, rate):
            ds.add(Defect(dtype, Coord.hicann_(int(h))))

    per_hicann(rates.jtag, "jtag", DefectType.JTAG_DEAD)
    per_hicann(rates.highspeed, "highspeed", DefectType.HIGHSPEED_DEAD)
    per_hicann(rates.fg_controller, "fg_controller", DefectType.FG_CONTROLLER_BROKEN)

    gen = rng.stream(seed, "defects", "repeater")
    n = H * cfg.buses_per_hicann
    for i in _sample_indices(gen, n, rates.repeater):
        ds.add(Defect(DefectType.REPEATER_BROKEN,
                      Coord.repeater(int(i) // cfg.buses_per_hicann,
                                     int(i) % cfg.buses_per_hicann)))

    gen = rng.stream(seed, "defects", "switch")
    n = H * cfg.switches_per_hicann
    for i in _sample_indices(gen, n, rates.switch):
        ds.add(Defect(DefectType.SWITCH_BROKEN,
                      Coord.switch(int(i) // cfg.switches_per_hicann,
                                   int(i) % cfg.switches_per_hicann)))

    gen = rng.stream(seed, "defects", "driver")
    per_h = cfg.arrays_per_hicann * cfg.drivers_per_array
    for i in _sample_indices(gen, H * per_h, rates.synapse_driver):
        h, rest = divmod(int(i), per_h)
        ds.add(Defect(DefectType.SYNAPSE_DRIVER_BROKEN,
                      Coord.synapse_driver(h, rest // cfg.drivers_per_array,
                                           rest % cfg.drivers_per_array)))

    def synapse_coord(i: int) -> Coord:
        per_h = cfg.synapses_per_hicann
        h, rest = divmod(int(i), per_h)
        per_a = cfg.driven_rows_per_array * cfg.columns_per_array
        a, rest = divmod(rest, per_a)
        r, c = divmod(rest, cfg.columns_per_array)
        return Coord.synapse(h, a, r, c)

    gen = rng.stream(seed, "defects", "synapse_stuck")
    for i in _sample_indices(gen, H * cfg.synapses_per_hicann, rates.synapse_stuck):
        ds.add(Defect(DefectType.MEMORY_STUCK, synapse_coord(i),
                      pattern=int(gen.integers(0, 256))))

    gen = rng.stream(seed, "defects", "synapse_unstable")
    for i in _sample_indices(gen, H * cfg.synapses_per_hicann, rates.synapse_unstable):
        ds.add(Defect(DefectType.MEMORY_UNSTABLE, synapse_coord(i),
                      flip_probability=float(gen.uniform(0.05, 0.5))))

    gen = rng.stream(seed, "defects", "merger_stuck")
    for i in _sample_indices(gen, H * cfg.mergers_per_hicann, rates.merger_stuck):
        ds.add(Defect(DefectType.MEMORY_STUCK,
                      Coord.merger(int(i) // cfg.mergers_per_hicann,
                                   int(i) % cfg.mergers_per_hicann),
                      pattern=int(gen.integers(0, 256))))

    gen = rng.stream(seed, "defects", "fg_block_stuck")
    for i in _sample_indices(gen, H * cfg.fg_blocks_per_hicann, rates.fg_block_stuck):
        ds.add(Defect(DefectType.MEMORY_STUCK,
                      Coord.fg_block(int(i) // cfg.fg_blocks_per_hicann,
                                     int(i) % cfg.fg_blocks_per_hicann),
                      pattern=int(gen.integers(0, 256))))

    return ds
