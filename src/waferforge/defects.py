"""Defect sets: injected hardware faults.

A defect set is part of a wafer's definition. Commissioning never sees the
set directly; it can only observe defects through the tests it runs
(communication and memory), which is what the availability database is
built from. It reads the set through ``DefectSet.table``: one row per
defect, with the defect's type, its kind and where it sits in that kind's
mask as integer columns, validated against the topology when built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .topology import (KIND_CODE, KINDS, Coord, Kind, TopologyConfig, check_schema,
                       validate_coord)

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


# type code: a type's position in ``DefectType``
TYPE_CODE = {t: i for i, t in enumerate(DefectType)}


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


@dataclass(frozen=True, eq=False)
class DefectTable:
    """A defect set as columns on one topology: row i describes defect i.

    ``type`` holds each defect's ``TYPE_CODE``, ``kind`` its coordinate's
    ``KIND_CODE``, ``hicann`` its die and ``flat`` its position in the
    kind's C-ordered mask (``np.ravel_multi_index`` of its indices), so
    ``flat`` orders the defects of one kind as ``Coord.sort_key`` does.
    ``defects`` is the list it was built from.
    """

    topology: TopologyConfig
    defects: tuple[Defect, ...]
    type: np.ndarray
    kind: np.ndarray
    hicann: np.ndarray
    flat: np.ndarray

    def is_type(self, t: DefectType) -> np.ndarray:
        return self.type == TYPE_CODE[t]


@dataclass
class DefectSet:
    defects: list[Defect] = field(default_factory=list)
    _table: DefectTable | None = field(default=None, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.defects)

    def __len__(self):
        return len(self.defects)

    def add(self, defect: Defect) -> None:
        self.defects.append(defect)

    def table(self, cfg: TopologyConfig) -> DefectTable:
        """The set's ``DefectTable`` on ``cfg``, built and validated on the
        first call and again whenever the list differs from the one it was
        built from (an ``add``, an item replaced, a new list).

        Raises ValueError naming the first defect whose coordinate lies
        outside the topology."""
        defects = tuple(self.defects)
        t = self._table
        if t is None or t.defects != defects or not (t.topology is cfg or t.topology == cfg):
            t = self._table = _build_table(cfg, defects)
        return t

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


def _build_table(cfg: TopologyConfig, defects: tuple[Defect, ...]) -> DefectTable:
    """Each kind's coordinates are placed at once by ``np.ravel_multi_index``;
    only a set it refuses is searched for its first bad defect."""
    n = len(defects)
    types = np.fromiter((TYPE_CODE[d.type] for d in defects), dtype=np.int64, count=n)
    kind = np.fromiter((KIND_CODE[d.coord.kind] for d in defects), dtype=np.int64, count=n)
    hicann, flat = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    try:
        for code in set(kind.tolist()):
            shape = cfg.index_shapes[KINDS[code]]
            at = np.flatnonzero(kind == code)
            indices = np.array([defects[i].coord.indices for i in at.tolist()], dtype=np.int64)
            flat[at] = np.ravel_multi_index(indices.T, shape)
            hicann[at] = flat[at] // math.prod(shape[1:])
    except ValueError:
        for d in defects:
            try:
                validate_coord(cfg, d.coord)
            except ValueError as e:
                raise ValueError(f"defect {d.type.value}: {e}") from None
        raise
    for column in (types, kind, hicann, flat):  # shared by every caller of table()
        column.setflags(write=False)
    return DefectTable(cfg, defects, types, kind, hicann, flat)


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
