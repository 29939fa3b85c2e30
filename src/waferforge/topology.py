"""Static layout of a virtual wafer-scale neuromorphic system.

One wafer module carries 384 identical ASICs ("hicanns") arranged on a round
wafer as 48 reticle groups of 8. Each hicann provides 512 neuron circuits, two
synapse arrays, a floating-gate parameter memory, an event-merger tree and an
on-wafer bus/repeater/switch routing fabric. This module defines the
coordinate system, the counting arithmetic, the wafer grid and the fabric
wiring pattern; it holds no state.

Fabric model
------------
The routing fabric's wiring pattern is stated here; availability sizes its
per-kind masks from the counts, and no closure rule reads an individual
switch, so switches are not mapped to the bus pairs they join:

* 320 buses per hicann = 4 border groups (N, E, S, W) x 80 lanes. Bus ``b``
  belongs to group ``b // 80`` with lane ``b % 80``.
* Repeater ``i`` serves bus ``i`` and regenerates the signal across the
  hicann's border in its group's direction: lane ``k`` of group N pairs with
  lane ``k`` of group S on the northern neighbor, and so on. Repeaters come in
  8 blocks of 40 (blocks ``2d`` and ``2d+1`` cover lanes 0-39 and 40-79 of
  direction ``d``).
* 7680 switches per hicann: 2400 crossbar switches join buses of different
  groups whose lanes agree modulo 16; 5280 select switches join synapse driver
  ``D`` (0..219) to the 24 buses ``(7*D + 13*t) % 320``, ``t`` in 0..23.
* Spike sources leave a hicann on 8 sending channels. Circuit ``n`` sends on
  channel ``n // neuron_block_size % 8``: neuron block ``b`` feeds leaf merger
  ``b % 8``, so on the reference module (64-circuit blocks) every block has a
  channel of its own. Background generator ``c`` feeds leaf merger ``c`` too,
  and channel ``c`` is shared with external-input merger ``c``. Channel ``c``
  injects onto bus ``40*c`` and, as a fallback, onto the opposite-group bus
  ``(40*c + 160) % 320``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "Kind",
    "Direction",
    "Coord",
    "TopologyConfig",
    "resource_count",
]


class Kind(enum.Enum):
    """Resource kinds with a dense per-hicann enumeration."""

    HICANN = "hicann"
    JTAG_LINK = "jtag_link"
    HIGHSPEED_LINK = "highspeed_link"
    NEURON = "neuron"
    SYNAPSE_ARRAY = "synapse_array"
    SYNAPSE_ROW = "synapse_row"
    SYNAPSE_DRIVER = "synapse_driver"
    SYNAPSE = "synapse"
    FG_BLOCK = "fg_block"
    EXT_MERGER = "ext_merger"
    BG_GEN = "bg_gen"
    MERGER = "merger"
    ANALOG_OUT = "analog_out"
    BUS = "bus"
    REPEATER = "repeater"
    REPEATER_BLOCK = "repeater_block"
    SWITCH = "switch"

    # members are singletons: Enum's own hash of the name runs Python code
    __hash__ = object.__hash__


# kind code: a kind's position in ``Kind``, the first part of ``Coord.sort_key``
KINDS = tuple(Kind)  # by kind code
KIND_CODE = {k: i for i, k in enumerate(KINDS)}


class Direction(enum.IntEnum):
    N = 0
    E = 1
    S = 2
    W = 3

    @property
    def opposite(self) -> "Direction":
        return Direction((self + 2) % 4)

    @property
    def dxdy(self) -> tuple[int, int]:
        return ((0, -1), (1, 0), (0, 1), (-1, 0))[self]


@dataclass(frozen=True)
class Coord:
    """Typed coordinate: a resource kind plus its index tuple.

    ``TopologyConfig.index_shapes`` gives each kind's index layout and
    bounds; the first index is the hicann.
    """

    kind: Kind
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    @property
    def hicann(self) -> int:
        return self.indices[0]

    def sort_key(self) -> tuple:
        return (KIND_CODE[self.kind], self.indices)

    def __lt__(self, other: "Coord") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"{self.kind.value}[{','.join(str(i) for i in self.indices)}]"

    def to_json(self) -> list:
        return [self.kind.value, *self.indices]

    @classmethod
    def from_json(cls, data) -> "Coord":
        return cls(Kind(data[0]), tuple(data[1:]))

    # dense constructors
    @classmethod
    def hicann_(cls, h):
        return cls(Kind.HICANN, (h,))

    @classmethod
    def neuron(cls, h, n):
        return cls(Kind.NEURON, (h, n))

    @classmethod
    def synapse_array(cls, h, a):
        return cls(Kind.SYNAPSE_ARRAY, (h, a))

    @classmethod
    def synapse_row(cls, h, a, r):
        return cls(Kind.SYNAPSE_ROW, (h, a, r))

    @classmethod
    def synapse_driver(cls, h, a, d):
        return cls(Kind.SYNAPSE_DRIVER, (h, a, d))

    @classmethod
    def synapse(cls, h, a, r, c):
        return cls(Kind.SYNAPSE, (h, a, r, c))

    @classmethod
    def fg_block(cls, h, b):
        return cls(Kind.FG_BLOCK, (h, b))

    @classmethod
    def repeater(cls, h, r):
        return cls(Kind.REPEATER, (h, r))


@dataclass(frozen=True)
class TopologyConfig:
    """Counts and layout of one wafer module.

    Defaults describe the reference module. The fields are the counts that can be set,
    so reduced systems can be modeled; the group size, FG columns and merger-tree size
    are derived from them. ``reticle_rows`` gives the number of reticles per reticle row
    on the (round) wafer; each reticle is a ``reticle_shape`` block of hicanns and one
    hicann group. ``no_highspeed_groups`` are the central groups wired without a high-speed
    connection by design. ``edge_hicanns`` are the dies adjacent to unconnected edge dies
    from an earlier post-processing version; their off-grid bus groups are excluded during
    commissioning. The default (``None``) resolves to the bottom grid row.
    """

    reticle_rows: tuple[int, ...] = (3, 5, 7, 9, 9, 7, 5, 3)
    reticle_shape: tuple[int, int] = (4, 2)  # hicanns per reticle: 4 wide, 2 tall
    neurons_per_hicann: int = 512
    neuron_block_size: int = 64
    arrays_per_hicann: int = 2
    rows_per_array: int = 224
    driven_rows_per_array: int = 220
    columns_per_array: int = 256
    fg_blocks_per_hicann: int = 4
    fg_rows: int = 24
    ext_mergers_per_hicann: int = 8
    bg_gens_per_hicann: int = 8
    analog_outs_per_hicann: int = 2
    bus_groups: int = 4
    lanes_per_group: int = 80
    repeater_blocks_per_hicann: int = 8
    crossbar_lane_modulus: int = 16
    select_fanin: int = 24
    no_highspeed_groups: tuple[int, ...] = (19, 28)
    edge_hicanns: tuple[int, ...] | None = None
    dac_max: int = 1023
    dac_current_max: float = 2.5e-6  # A at full scale
    dac_voltage_max: float = 1.8  # V at full scale
    speedup: float = 1.0e4

    def __post_init__(self):
        # every circuit has its column in exactly one FG block
        if not (self.fg_blocks_per_hicann > 0
                and self.neurons_per_hicann % self.fg_blocks_per_hicann == 0):
            raise ValueError(
                f"fg_blocks_per_hicann={self.fg_blocks_per_hicann} must be positive "
                f"and divide neurons_per_hicann={self.neurons_per_hicann}")
        if self.edge_hicanns is None:
            ids = tuple(sorted(h for h, (x, y) in enumerate(_grid(self).xy)
                               if y == _grid(self).height - 1))
            object.__setattr__(self, "edge_hicanns", ids)
        else:
            object.__setattr__(self, "edge_hicanns", tuple(sorted(self.edge_hicanns)))

    def __getstate__(self) -> dict:
        # the fields only: derived values are cached on first use, and a
        # cached MappingProxyType (index_shapes) cannot be pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # ---- derived counts -------------------------------------------------
    @cached_property
    def group_size(self) -> int:
        """Hicanns per group: one group per reticle."""
        return math.prod(self.reticle_shape)

    @cached_property
    def neurons_per_fg_block(self) -> int:
        """Neuron circuits served by one FG block, one column each."""
        return self.neurons_per_hicann // self.fg_blocks_per_hicann

    @property
    def fg_columns(self) -> int:
        """FG columns per block: column 0 holds block-shared parameters."""
        return 1 + self.neurons_per_fg_block

    @property
    def mergers_per_hicann(self) -> int:
        """Nodes of the binary merger tree over the leaf mergers."""
        return 2 * self.ext_mergers_per_hicann - 1

    @property
    def n_groups(self) -> int:
        return sum(self.reticle_rows)

    @property
    def n_hicanns(self) -> int:
        return self.n_groups * self.group_size

    @property
    def drivers_per_array(self) -> int:
        return self.driven_rows_per_array // 2

    @property
    def synapses_per_hicann(self) -> int:
        return self.arrays_per_hicann * self.driven_rows_per_array * self.columns_per_array

    @property
    def buses_per_hicann(self) -> int:
        return self.bus_groups * self.lanes_per_group

    @property
    def repeaters_per_block(self) -> int:
        return self.buses_per_hicann // self.repeater_blocks_per_hicann

    @property
    def switches_per_hicann(self) -> int:
        per_pair = self.lanes_per_group * (self.lanes_per_group // self.crossbar_lane_modulus)
        n_pairs = self.bus_groups * (self.bus_groups - 1) // 2
        crossbar = n_pairs * per_pair
        select = self.arrays_per_hicann * self.drivers_per_array * self.select_fanin
        return crossbar + select

    @cached_property
    def index_shapes(self) -> MappingProxyType[Kind, tuple[int, ...]]:
        """Index bounds of every kind's coordinates, hicann axis first."""
        H = self.n_hicanns
        per_array = (H, self.arrays_per_hicann)
        return MappingProxyType({
            Kind.HICANN: (H,),
            Kind.JTAG_LINK: (H,),
            Kind.HIGHSPEED_LINK: (H,),
            Kind.NEURON: (H, self.neurons_per_hicann),
            Kind.SYNAPSE_ARRAY: per_array,
            Kind.SYNAPSE_ROW: (*per_array, self.rows_per_array),
            Kind.SYNAPSE_DRIVER: (*per_array, self.drivers_per_array),
            Kind.SYNAPSE: (*per_array, self.driven_rows_per_array, self.columns_per_array),
            Kind.FG_BLOCK: (H, self.fg_blocks_per_hicann),
            Kind.EXT_MERGER: (H, self.ext_mergers_per_hicann),
            Kind.BG_GEN: (H, self.bg_gens_per_hicann),
            Kind.MERGER: (H, self.mergers_per_hicann),
            Kind.ANALOG_OUT: (H, self.analog_outs_per_hicann),
            Kind.BUS: (H, self.buses_per_hicann),
            Kind.REPEATER: (H, self.buses_per_hicann),
            Kind.REPEATER_BLOCK: (H, self.repeater_blocks_per_hicann),
            Kind.SWITCH: (H, self.switches_per_hicann),
        })

    def units_per_hicann(self, kind: Kind) -> int:
        return math.prod(self.index_shapes[kind][1:])

    # ---- grid ------------------------------------------------------------
    @property
    def grid_width(self) -> int:
        return max(self.reticle_rows) * self.reticle_shape[0]

    @property
    def grid_height(self) -> int:
        return len(self.reticle_rows) * self.reticle_shape[1]

    def hicann_xy(self, h: int) -> tuple[int, int]:
        """Grid position of a hicann (x to the east, y to the south)."""
        return _grid(self).xy[h]

    def hicann_at(self, x: int, y: int) -> int | None:
        return _grid(self).by_xy.get((x, y))

    def neighbor(self, h: int, direction: Direction) -> int | None:
        n = int(_grid(self).neighbor_table[h, direction])
        return None if n < 0 else n

    def neighbors(self, h: int) -> dict[Direction, int]:
        out = {}
        for d in Direction:
            n = self.neighbor(h, d)
            if n is not None:
                out[d] = n
        return out

    def neighbor_table(self) -> np.ndarray:
        """Read-only ``(n_hicanns, 4)`` neighbor ids by ``Direction``, -1 off-grid."""
        return _grid(self).neighbor_table

    def no_highspeed_hicanns(self) -> tuple[int, ...]:
        return self._no_highspeed_hicanns

    @cached_property
    def _no_highspeed_hicanns(self) -> tuple[int, ...]:
        return tuple(h for h in range(self.n_hicanns)
                     if h // self.group_size in self.no_highspeed_groups)

    # ---- fabric: the wiring pattern of the module docstring ---------------
    def bus_direction(self, b: int) -> Direction:
        return Direction(b // self.lanes_per_group)

    def bus_lane(self, b: int) -> int:
        return b % self.lanes_per_group

    def bus_partner(self, h: int, b: int) -> tuple[int, int] | None:
        """Bus on the neighboring hicann that repeater ``b`` of ``h`` drives."""
        d = self.bus_direction(b)
        n = self.neighbor(h, d)
        if n is None:
            return None
        return n, d.opposite * self.lanes_per_group + self.bus_lane(b)

    def crossbar_partners(self, b: int) -> list[int]:
        """Buses of other groups reachable from ``b`` through one switch."""
        lane, grp = self.bus_lane(b), b // self.lanes_per_group
        m = self.crossbar_lane_modulus
        out = []
        for g in range(self.bus_groups):
            if g == grp:
                continue
            out.extend(g * self.lanes_per_group + l
                       for l in range(lane % m, self.lanes_per_group, m))
        return out

    def select_buses(self, driver_flat: int) -> list[int]:
        """Buses a synapse driver (flat index ``a*drivers + d``) can listen to."""
        n = self.buses_per_hicann
        return [(7 * driver_flat + 13 * t) % n for t in range(self.select_fanin)]

    def drivers_on_bus(self, b: int) -> list[int]:
        """Flat driver indices selectable from bus ``b``, ascending: the
        inverse of :meth:`select_buses`."""
        n_drivers = self.arrays_per_hicann * self.drivers_per_array
        return [d for d in range(n_drivers) if b in self.select_buses(d)]

    def injection_buses(self, channel: int) -> tuple[int, int]:
        """Primary and fallback buses a sending channel can drive."""
        primary = (self.buses_per_hicann // self.ext_mergers_per_hicann) * channel
        half = self.bus_groups // 2 * self.lanes_per_group
        return primary, (primary + half) % self.buses_per_hicann

    def channel_of_neuron(self, n: int) -> int:
        """The sending channel of circuit ``n`` (see the module docstring)."""
        return n // self.neuron_block_size % self.ext_mergers_per_hicann

    def leaf_merger(self, channel: int) -> int:
        return channel

    # ---- memory ----------------------------------------------------------
    def memory_map(self) -> dict[str, int]:
        """Per-hicann digital memory regions and their size in bytes."""
        return {
            "synapse_array": self.synapses_per_hicann,  # 1 byte: 4-bit weight + 4-bit decoder
            "repeater_sram": self.buses_per_hicann * 2,
            "switch_config": -(-self.switches_per_hicann // 8),
            "driver_config": self.arrays_per_hicann * self.drivers_per_array * 4,
            "merger_config": self.mergers_per_hicann * 2,
            "bg_config": self.bg_gens_per_hicann * 4,
            "ext_merger_config": self.ext_mergers_per_hicann * 2,
            "fg_controller_sram": self.fg_blocks_per_hicann * 256,
            "analog_out_config": self.analog_outs_per_hicann * 2,
            "neuron_builder_sram": self.neurons_per_hicann * 2,
        }

    def routing_regions(self) -> tuple[str, ...]:
        """Regions covered by the reduced test on route-through-only hicanns."""
        return ("repeater_sram", "switch_config")

    # ---- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        from dataclasses import asdict

        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    @classmethod
    def from_json(cls, data: dict) -> "TopologyConfig":
        kwargs = dict(data)
        for k in ("reticle_rows", "reticle_shape", "no_highspeed_groups", "edge_hicanns"):
            if k in kwargs and kwargs[k] is not None:
                kwargs[k] = tuple(kwargs[k])
        return cls(**kwargs)


class _Grid:
    """Precomputed hicann grid: reticles laid out row-major and centered."""

    def __init__(self, cfg: TopologyConfig):
        rw, rh = cfg.reticle_shape
        max_cols = max(cfg.reticle_rows)
        self.height = len(cfg.reticle_rows) * rh
        self.xy: list[tuple[int, int]] = []
        for ry, ncols in enumerate(cfg.reticle_rows):
            offset = (max_cols - ncols) // 2
            for rx in range(offset, offset + ncols):
                for local in range(rw * rh):
                    lx, ly = local % rw, local // rw
                    self.xy.append((rx * rw + lx, ry * rh + ly))
        self.by_xy = {xy: h for h, xy in enumerate(self.xy)}
        self.neighbor_table = np.array(
            [[self.by_xy.get((x + d.dxdy[0], y + d.dxdy[1]), -1) for d in Direction]
             for x, y in self.xy], dtype=np.int64)
        self.neighbor_table.setflags(write=False)


@lru_cache(maxsize=8)
def _grid_cached(key: tuple) -> _Grid:
    return _Grid(TopologyConfig(reticle_rows=key[0], reticle_shape=key[1], edge_hicanns=()))


def _grid(cfg: TopologyConfig) -> _Grid:
    return _grid_cached((cfg.reticle_rows, cfg.reticle_shape))


def resource_count(cfg: TopologyConfig, kind: Kind, subset_size: int) -> int:
    """Number of ``kind`` resources on ``subset_size`` hicanns: the
    per-hicann units times the subset size (one unit per hicann for
    ``HICANN``)."""
    if subset_size < 0:
        raise ValueError("subset_size must be non-negative")
    return cfg.units_per_hicann(kind) * subset_size


def validate_coord(cfg: TopologyConfig, coord: Coord) -> None:
    """Raise ValueError if the coordinate is outside the configured ranges."""
    idx, bounds = coord.indices, cfg.index_shapes[coord.kind]
    if len(idx) != len(bounds):
        raise ValueError(f"{coord}: expected {len(bounds)} indices")
    for i, (v, b) in enumerate(zip(idx, bounds)):
        if not 0 <= v < b:
            raise ValueError(f"{coord}: index {i} out of range (0..{b - 1})")


def check_schema(schema, expected: str) -> None:
    """Raise ValueError unless ``schema`` names the store and major version
    of ``expected`` ("name/major[.minor]"); any minor version is accepted."""
    name, _, version = expected.partition("/")
    if not (isinstance(schema, str) and schema.partition("/")[0] == name
            and schema.partition("/")[2].split(".")[0] == version):
        raise ValueError(f"unexpected schema {schema!r}")
