"""Defect sets: injected hardware faults.

A defect set is part of a wafer's definition. Commissioning never sees the
set directly; it can only observe defects through the tests it runs
(communication, memory, analog readout), which is what the availability
database is built from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .topology import Coord, Kind, TopologyConfig, check_schema, validate_coord

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

    __hash__ = object.__hash__  # identity, as for Kind


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


def check_defects(cfg: TopologyConfig, defects) -> None:
    """Raise ValueError naming the first defect whose coordinate lies
    outside the topology. Each kind's coordinates are tested at once, one
    index column at a time against ``cfg.index_shapes``; only a set that
    fails is searched for its first bad defect."""
    defects = list(defects)
    by_kind: dict[Kind, list[tuple[int, ...]]] = {}
    for d in defects:
        by_kind.setdefault(d.coord.kind, []).append(d.coord.indices)
    for kind, indices in by_kind.items():
        shape = cfg.index_shapes[kind]
        if set(map(len, indices)) != {len(shape)} or not all(
                min(col) >= 0 and max(col) < b for col, b in zip(zip(*indices), shape)):
            break
    else:
        return
    for d in defects:
        try:
            validate_coord(cfg, d.coord)
        except ValueError as e:
            raise ValueError(f"defect {d.type.value}: {e}") from None


def _sample_indices(gen: np.random.Generator, n_units: int, rate: float) -> np.ndarray:
    if rate <= 0.0 or n_units == 0:
        return np.empty(0, dtype=np.int64)
    count = gen.binomial(n_units, min(rate, 1.0))
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(gen.choice(n_units, size=count, replace=False))


# random defect kinds in draw order: (rate field, stream token, defect type,
# kind of the faulty component)
RANDOM_KINDS = (
    ("jtag", "jtag", DefectType.JTAG_DEAD, Kind.HICANN),
    ("highspeed", "highspeed", DefectType.HIGHSPEED_DEAD, Kind.HICANN),
    ("fg_controller", "fg_controller", DefectType.FG_CONTROLLER_BROKEN, Kind.HICANN),
    ("repeater", "repeater", DefectType.REPEATER_BROKEN, Kind.REPEATER),
    ("switch", "switch", DefectType.SWITCH_BROKEN, Kind.SWITCH),
    ("synapse_driver", "driver", DefectType.SYNAPSE_DRIVER_BROKEN, Kind.SYNAPSE_DRIVER),
    ("synapse_stuck", "synapse_stuck", DefectType.MEMORY_STUCK, Kind.SYNAPSE),
    ("synapse_unstable", "synapse_unstable", DefectType.MEMORY_UNSTABLE, Kind.SYNAPSE),
    ("merger_stuck", "merger_stuck", DefectType.MEMORY_STUCK, Kind.MERGER),
    ("fg_block_stuck", "fg_block_stuck", DefectType.MEMORY_STUCK, Kind.FG_BLOCK),
)


def random_defects(seed: int, cfg: TopologyConfig, rates: DefectRates) -> DefectSet:
    """Draw a defect set; deterministic in (seed, cfg, rates).

    Each kind draws its faulty components from its own stream, then, from
    the same stream and in component order, the stuck pattern or flip
    probability of each."""
    ds = DefectSet()
    for field_name, token, dtype, kind in RANDOM_KINDS:
        gen = rng.stream(seed, "defects", token)
        shape = cfg.index_shapes[kind]
        for i in _sample_indices(gen, int(np.prod(shape)), getattr(rates, field_name)):
            stuck = dtype is DefectType.MEMORY_STUCK
            unstable = dtype is DefectType.MEMORY_UNSTABLE
            ds.add(Defect(dtype, Coord(kind, np.unravel_index(i, shape)),
                          pattern=int(gen.integers(0, 256)) if stuck else None,
                          flip_probability=float(gen.uniform(0.05, 0.5)) if unstable else None))
    return ds
