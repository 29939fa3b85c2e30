"""Digital commissioning tests and the individual → effective closure.

The pipeline runs in three stages: ``comm_test`` probes the control (JTAG)
and high-speed links, ``memory_test`` write/read-tests every reachable
memory-mapped register (with a same-value stability phase per synapse
array), and ``effective_exclusion`` closes the discovered individual
failures over the hardware dependencies. Reports compare both states
against component totals: the paper's reference subsets on the reference
module, each topology's own design counts on any other.

The tests read the wafer's defects through its ``DefectTable`` (one row
per defect, integer columns), which building the wafer validated: each
test classifies the rows with array masks over those columns, and only
the cells that need random draws are visited one by one. ``_excluded_unit``
is the one mapping from a defect to the component it takes out.

The memory test keys its random values per cell: a stuck cell's writes
come from the stream ``("memtest", cell)``, an unstable cell's rewrites
from ``("stability", cell)``. It draws the raw Philox words of all the
cells it decides in one ``rng.stream_words`` call and decides them in one
array pass. These are the values ``Generator.integers(0, 256)`` and
``Generator.random`` draw from the same streams: for a range of 256,
Lemire's method keeps the top byte of each 32-bit half of a word, low
half first, and never rejects, since its threshold ``(2**32 - 256) % 256``
is 0; a uniform is ``(w >> 11) * 2**-53``.

Closure rules, applied in dependency order:
  R3  broken FG controller => whole hicann out, treated like a dead JTAG link
  R1  >1 broken repeater in one block => the whole block is untrustworthy
  R4  no high-speed link (by design, failed or unreachable) => no neurons,
      no external-input mergers on that hicann
  R6  edge dies face unconnected neighbors; off-grid bus groups are dead
  R2  a bus is unusable if its own repeater is out, or the facing repeater
      on the neighbor is out, or the facing hicann is unreachable (a dead
      hicann's own buses stay unlisted: there is no controller to see them,
      and reports only count resources of reachable dies)
  R5  a neuron or ext merger with no usable injection bus (and, for
      neurons, leaf merger) has no route into the fabric
Every rule is an expression over the states' per-kind masks. R2 reads
nothing that R5 writes, so one R2 then R5 pass reaches the fixed point. The
closure is monotone in its input and idempotent, which the property tests
rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng
from .availability import AvailabilityDb, AvailabilityState
from .defects import DefectSet, DefectTable, DefectType
from .topology import (KIND_CODE, KINDS, Coord, Direction, Kind, TopologyConfig,
                       resource_count)
from .wafer import WaferModel

FULL_TEST_SECONDS = 70.0  # reported per-hicann cost of the full pass

# memory test: random writes per register, and same-value rewrites in the
# stability phase (a cell flipping with probability p escapes with (1-p)^reps)
WRITES_PER_CELL = 10
STABILITY_REPS = 10

# memory region each register-backed component lives in (discovery scope)
REGION_OF_KIND = {
    Kind.SYNAPSE: "synapse_array",
    Kind.SYNAPSE_ROW: "driver_config",
    Kind.SYNAPSE_DRIVER: "driver_config",
    Kind.FG_BLOCK: "fg_controller_sram",
    Kind.HICANN: "fg_controller_sram",  # controller fault shows on its SRAM
    Kind.MERGER: "merger_config",
    Kind.EXT_MERGER: "ext_merger_config",
    Kind.BG_GEN: "bg_config",
    Kind.ANALOG_OUT: "analog_out_config",
    Kind.REPEATER: "repeater_sram",
    Kind.SWITCH: "switch_config",
    Kind.NEURON: "neuron_builder_sram",
}

# by kind code: a kind's memory region, and whether that is the FG controller SRAM
_REGION = [REGION_OF_KIND.get(k) for k in KINDS]
_IN_CONTROLLER = np.array([r == "fg_controller_sram" for r in _REGION])

# the paper's subsets of the reference module that its totals are quoted against
REPORT_REFERENCE = {
    "infrastructure_hicanns": 373,  # jtag-reachable dies carrying routing fabric
    "experiment_hicanns": 356,  # dies with a working high-speed link
}

_INFRA_KINDS = (Kind.FG_BLOCK, Kind.EXT_MERGER, Kind.REPEATER, Kind.BUS, Kind.SWITCH)
_EXPERIMENT_KINDS = (Kind.NEURON, Kind.MERGER, Kind.BG_GEN, Kind.ANALOG_OUT,
                     Kind.SYNAPSE_ARRAY, Kind.SYNAPSE_ROW, Kind.SYNAPSE_DRIVER,
                     Kind.SYNAPSE)


# ---------------------------------------------------------------------------
# communication test


@dataclass
class CommResult:
    jtag_ok: np.ndarray
    highspeed_ok: np.ndarray


def comm_test(wafer: WaferModel, db: AvailabilityDb | None = None) -> CommResult:
    """Probe JTAG and high-speed links of every hicann.

    The two probes are independent: the high-speed link is exercised from
    the host side, so a failed link on a JTAG-dead die is still observed.
    ``highspeed_ok`` is false for the by-design unbonded center groups as
    well, but only genuine failures are recorded as individual exclusions.
    """
    cfg = wafer.topology
    tab = wafer.defects.table(cfg)
    jtag_ok = np.ones(cfg.n_hicanns, dtype=bool)
    highspeed_ok = np.ones(cfg.n_hicanns, dtype=bool)
    highspeed_ok[list(cfg.no_highspeed_hicanns())] = False
    jtag_ok[tab.hicann[tab.is_type(DefectType.JTAG_DEAD)]] = False
    failed = tab.hicann[tab.is_type(DefectType.HIGHSPEED_DEAD)]  # genuine failures
    highspeed_ok[failed] = False
    if db is not None:
        db.ensure("individual").exclude_many(
            [Coord(Kind.JTAG_LINK, (h,)) for h in np.flatnonzero(~jtag_ok).tolist()]
            + [Coord(Kind.HIGHSPEED_LINK, (h,)) for h in failed.tolist()])
    return CommResult(jtag_ok, highspeed_ok)


# ---------------------------------------------------------------------------
# memory test


@dataclass
class StabilityResult:
    coord: Coord
    stable: bool
    unstable_cells: list[Coord] = field(default_factory=list)


def _write_values(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` values ``Generator.integers(0, 256)`` draws from each
    row of raw words: the top byte of each 32-bit half, low half first."""
    halves = np.stack((words >> 24 & 0xFF, words >> 56), axis=-1)
    return halves.reshape(len(words), 2 * words.shape[1])[:, :n]


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random`` draws from raw words: ``(w >> 11) * 2**-53``."""
    return (words >> 11) * 2.0 ** -53


def _flips(words: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Which unstable cells flip within ``STABILITY_REPS`` same-value
    rewrites, cell i with probability ``p[i]`` on row i of at least
    ``STABILITY_REPS`` raw words."""
    return np.any(_uniforms(words[:, :STABILITY_REPS]) < p[:, None], axis=1)


def stability_test(wafer: WaferModel, array: Coord) -> StabilityResult:
    """Rewrite every register of one synapse array ``STABILITY_REPS`` times
    with the same value.

    Draws are keyed per cell, so the result matches the stability phase of
    ``memory_test`` and does not depend on visit order.
    """
    if array.kind is not Kind.SYNAPSE_ARRAY:
        raise ValueError(f"expected a synapse array coordinate, got {array}")
    cfg = wafer.topology
    tab = wafer.defects.table(cfg)
    kind, flat = _excluded_unit(cfg, tab)
    # the unstable synapses of the array, in Coord order
    at = np.flatnonzero((tab.kind == KIND_CODE[Kind.SYNAPSE])
                        & (kind == KIND_CODE[Kind.SYNAPSE_ARRAY]) & (flat == np.ravel_multi_index(
                            array.indices, cfg.index_shapes[Kind.SYNAPSE_ARRAY])))
    cells = [tab.defects[i] for i in sorted(at.tolist(), key=tab.flat.__getitem__)]
    words = rng.stream_words(wafer.master_seed,
                             [("stability", str(d.coord)) for d in cells], STABILITY_REPS)
    flips = _flips(words, np.array([d.flip_probability for d in cells], dtype=float))
    bad = [d.coord for d, f in zip(cells, flips.tolist()) if f]
    return StabilityResult(array, not bad, bad)


def array_exclusion(cfg: TopologyConfig, h: int, a: int) -> list[Coord]:
    """Everything that goes when one synapse array is written off, as coordinates.

    ``write_off_arrays`` applies the same exclusions to a state as mask slices.
    """
    out = [Coord.synapse_array(h, a)]
    out += [Coord.synapse_row(h, a, r) for r in range(cfg.rows_per_array)]
    out += [Coord.synapse_driver(h, a, d) for d in range(cfg.drivers_per_array)]
    out += [Coord.synapse(h, a, r, c)
            for r in range(cfg.driven_rows_per_array)
            for c in range(cfg.columns_per_array)]
    return out


def write_off_arrays(state: AvailabilityState, arrays: list[Coord]) -> None:
    """Exclude each synapse array of ``arrays`` with all its rows, drivers
    and synapses, each kind's blocks in one write."""
    state.exclude_many(arrays)
    leading = [a.indices for a in arrays]
    for kind in (Kind.SYNAPSE_ROW, Kind.SYNAPSE_DRIVER, Kind.SYNAPSE):
        state.exclude_blocks(kind, leading)


def _excluded_unit(cfg: TopologyConfig, tab: DefectTable) -> tuple[np.ndarray, np.ndarray]:
    """Kind code and flat mask index of the component each defect of
    ``tab`` takes out. A dead link takes its link, an unstable synapse its
    whole array (``write_off_arrays``), any other fault the component
    carrying the failing register; a fault in the FG controller SRAM
    corrupts programming sequences for the whole die."""
    kind, flat = tab.kind.copy(), tab.flat.copy()
    for at, unit, index in (
            (_IN_CONTROLLER[tab.kind], Kind.HICANN, tab.hicann),
            (tab.is_type(DefectType.JTAG_DEAD), Kind.JTAG_LINK, tab.hicann),
            (tab.is_type(DefectType.HIGHSPEED_DEAD), Kind.HIGHSPEED_LINK, tab.hicann),
            (tab.is_type(DefectType.MEMORY_UNSTABLE) & (tab.kind == KIND_CODE[Kind.SYNAPSE]),
             Kind.SYNAPSE_ARRAY, tab.flat // math.prod(cfg.index_shapes[Kind.SYNAPSE][2:]))):
        kind[at], flat[at] = KIND_CODE[unit], index[at]
    return kind, flat


def _unit_coords(cfg: TopologyConfig, tab: DefectTable, rows: np.ndarray,
                 kind: np.ndarray, flat: np.ndarray) -> list[Coord]:
    """Coordinates of the components ``(kind, flat)`` that the defects
    ``rows`` of ``tab`` take out, in Coord order: a defect's own coordinate
    where it is its component."""
    own = (kind == tab.kind).tolist()
    kind, flat = kind.tolist(), flat.tolist()
    return [tab.defects[i].coord if own[i] else Coord(KINDS[kind[i]], np.unravel_index(
        flat[i], cfg.index_shapes[KINDS[kind[i]]]))
        for i in sorted(rows.tolist(), key=lambda i: (kind[i], flat[i]))]


@dataclass
class MemoryTestResult:
    bytes_tested: int
    bytes_by_region: dict[str, int]
    duration_s: float  # reported, groups run in parallel
    full_passes: int
    reduced_passes: int
    skipped: int
    discovered: list[Coord]  # failing units, without the contents of unstable arrays
    unstable_arrays: list[Coord]  # written off whole, see write_off_arrays


def memory_test(wafer: WaferModel, db: AvailabilityDb) -> MemoryTestResult:
    """Write/read-test all reachable registers with seeded random values.

    Hicanns whose high-speed link failed the communication test are only
    reachable over the slow control link and get the reduced routing test;
    by-design unbonded dies still get the full pass, their routing fabric
    stays in service. Passes and skips come from the individual link masks.
    One die takes a reported 70 s; groups run in parallel, dies within a
    group in sequence, their seconds added in member order.

    Array masks over the wafer's ``DefectTable`` pick the defects the test
    reaches (per-kind region lookups, the link masks at each defect's die)
    and split them into faults found outright; stuck cells and unstable
    cells outside synapse arrays, whose words one ``rng.stream_words`` call
    draws and one array pass decides; and synapse arrays holding an
    unstable cell, each rewritten by ``stability_test``. All random draws
    are keyed by cell coordinate, so the outcome is independent of visit
    order. The unstable arrays are written off in one pass per kind, then
    the discovered exclusions merge in coordinate order.
    """
    cfg = wafer.topology
    tab = wafer.defects.table(cfg)
    ind = db.ensure("individual")
    mm = cfg.memory_map()
    routing = cfg.routing_regions()
    full_bytes = sum(mm.values())
    reduced_bytes = sum(mm[r] for r in routing)

    no_jtag = ind.read_mask(Kind.JTAG_LINK)
    no_highspeed = ind.read_mask(Kind.HIGHSPEED_LINK)
    reduced = no_highspeed & ~no_jtag
    skipped = int(np.count_nonzero(no_jtag))
    reduced_passes = int(np.count_nonzero(reduced))
    full_passes = cfg.n_hicanns - skipped - reduced_passes
    seconds = np.where(no_jtag, 0.0, np.where(
        reduced, FULL_TEST_SECONDS * (reduced_bytes / full_bytes), FULL_TEST_SECONDS))
    # cumsum adds in member order, as the dies of a group run
    group_seconds = np.cumsum(seconds.reshape(cfg.n_groups, cfg.group_size), axis=1)[:, -1]
    duration = float(group_seconds.max(initial=0.0))

    # a defect is tested when its die answers and its kind's region is in
    # the die's pass; link faults are not memory faults
    in_pass = np.where(no_highspeed[tab.hicann],
                       np.array([r in routing for r in _REGION])[tab.kind],
                       np.array([r in mm for r in _REGION])[tab.kind])
    tested = in_pass & ~no_jtag[tab.hicann] & ~(
        tab.is_type(DefectType.JTAG_DEAD) | tab.is_type(DefectType.HIGHSPEED_DEAD))
    stuck = tested & tab.is_type(DefectType.MEMORY_STUCK)
    unstable = tested & tab.is_type(DefectType.MEMORY_UNSTABLE)
    kind, flat = _excluded_unit(cfg, tab)
    # the per-array stability phase covers an unstable synapse
    in_array = unstable & (kind == KIND_CODE[Kind.SYNAPSE_ARRAY])
    seen = tested & ~stuck & ~unstable
    drawn = np.flatnonzero(stuck | unstable & ~in_array)
    if drawn.size:
        is_stuck = stuck[drawn]
        cells = list(zip([tab.defects[i] for i in drawn.tolist()], is_stuck.tolist()))
        words = rng.stream_words(  # two writes per word, one rewrite per word
            wafer.master_seed, [("memtest" if s else "stability", str(d.coord)) for d, s in cells],
            max(-(-WRITES_PER_CELL // 2), STABILITY_REPS))
        # a stuck pattern, or an unstable cell's flip probability
        limit = np.array([d.pattern if s else d.flip_probability for d, s in cells], dtype=float)
        # a stuck cell escapes when every random value lands on its pattern
        seen[drawn] = np.where(
            is_stuck, np.any(_write_values(words, WRITES_PER_CELL) != limit[:, None], axis=1),
            _flips(words, limit))
    shape = cfg.index_shapes[Kind.SYNAPSE_ARRAY]
    # an array without unstable cells reads back stable on every rewrite
    unstable_arrays = [c for c in (Coord(Kind.SYNAPSE_ARRAY, np.unravel_index(a, shape))
                                   for a in sorted(set(flat[in_array].tolist())))
                       if not stability_test(wafer, c).stable]
    found = _unit_coords(cfg, tab, np.flatnonzero(seen), kind, flat)
    write_off_arrays(ind, unstable_arrays)
    ind.exclude_many(found)
    bytes_by_region = {r: mm[r] * (full_passes + (reduced_passes if r in routing else 0))
                       for r in mm}
    return MemoryTestResult(
        bytes_tested=sum(bytes_by_region.values()),
        bytes_by_region=bytes_by_region,
        duration_s=duration,
        full_passes=full_passes,
        reduced_passes=reduced_passes,
        skipped=skipped,
        discovered=found,
        unstable_arrays=unstable_arrays,
    )


# ---------------------------------------------------------------------------
# individual state without test censoring


def individual_from_defects(cfg: TopologyConfig, defects: DefectSet) -> AvailabilityState:
    """Individual state a fully transparent test suite would record.

    The real pipeline cannot see past a dead control link; this translation
    can, which makes it the right input for closure property checks. It
    takes out each defect's ``_excluded_unit``. Where tests can reach,
    ``comm_test`` + ``memory_test`` discover exactly these flags (up to an
    unstable cell that never flips and the astronomically unlikely
    stuck-pattern collision).
    """
    tab = defects.table(cfg)
    kind, flat = _excluded_unit(cfg, tab)
    units = _unit_coords(cfg, tab, np.arange(len(tab.defects)), kind, flat)
    state = AvailabilityState(cfg)
    write_off_arrays(state, [c for c in units if c.kind is Kind.SYNAPSE_ARRAY])
    state.exclude_many(units)
    return state


# ---------------------------------------------------------------------------
# effective exclusion closure


def effective_exclusion(cfg: TopologyConfig, individual: AvailabilityState) -> AvailabilityState:
    """Close individual failures over hardware dependencies (rules R1-R6)."""
    eff = individual.copy()
    mask = eff.mask
    H, G, lanes = cfg.n_hicanns, cfg.bus_groups, cfg.lanes_per_group

    # R3: an unprogrammable die is as good as unreachable
    no_jtag, dead = mask(Kind.JTAG_LINK), mask(Kind.HICANN)
    no_jtag |= dead
    dead |= no_jtag

    # R1: two broken repeaters in one block point at the shared controller;
    # a block's repeaters are consecutive, so flat index // block size is
    # the flat block index
    per_block = cfg.repeaters_per_block
    closed = mask(Kind.REPEATER_BLOCK).reshape(-1)
    broken = np.flatnonzero(eff.read_mask(Kind.REPEATER)) // per_block
    closed[np.bincount(broken, minlength=closed.size) >= 2] = True
    shut = np.flatnonzero(closed)
    if shut.size:
        mask(Kind.REPEATER).reshape(-1, per_block)[shut] = True

    # R4: no high-speed traffic, no experiments on this die
    no_hs = mask(Kind.HIGHSPEED_LINK)
    no_hs |= no_jtag
    no_hs[list(cfg.no_highspeed_hicanns())] = True
    mask(Kind.NEURON)[no_hs] = True
    mask(Kind.EXT_MERGER)[no_hs] = True

    # R6: bus groups facing removed edge dies carry nothing
    nbr = cfg.neighbor_table()  # (H, G): die across each border group
    has_nbr = nbr >= 0
    edge = np.zeros(H, dtype=bool)
    edge[list(cfg.edge_hicanns)] = True
    bus = mask(Kind.BUS).reshape(H, G, lanes)
    bus |= (edge[:, None] & ~has_nbr)[:, :, None]

    # R2: a bus goes with its own repeater, with the facing repeater that
    # drives it from the neighbor, and when it faces an unreachable die
    repeater = eff.read_mask(Kind.REPEATER).reshape(H, G, lanes)
    opposite = [d.opposite for d in Direction]
    facing = repeater[nbr, opposite] | no_jtag[nbr][:, :, None]
    bus |= repeater | (has_nbr[:, :, None] & facing)

    # R5: no injection route, no traffic from this unit
    channels = range(cfg.ext_mergers_per_hicann)
    injection = np.array([cfg.injection_buses(ch) for ch in channels])
    no_route = mask(Kind.BUS)[:, injection].all(axis=-1)  # (H, channels)
    ext = mask(Kind.EXT_MERGER)
    ext |= no_route
    stranded = no_route | eff.read_mask(Kind.MERGER)[:, [cfg.leaf_merger(ch) for ch in channels]]
    # each neuron block takes its channel's flag and each circuit its block's;
    # a gather over (dies, circuits) takes about 8x as long on the reference wafer
    blocks = range(0, cfg.neurons_per_hicann, cfg.neuron_block_size)
    stranded = stranded[:, [cfg.channel_of_neuron(n) for n in blocks]]
    mask(Kind.NEURON)[:] |= np.repeat(stranded, cfg.neuron_block_size,
                                      axis=1)[:, :cfg.neurons_per_hicann]
    return eff


def commission(wafer: WaferModel,
               db: AvailabilityDb | None = None) -> tuple[AvailabilityDb, MemoryTestResult]:
    """Full pipeline: comm test, memory test, closure into "effective".

    The defect set is checked against the topology again, which rebuilds
    its table only if the set changed since the wafer was built."""
    wafer.defects.table(wafer.topology)
    if db is None:
        db = AvailabilityDb(wafer.topology)
    comm_test(wafer, db)
    mem = memory_test(wafer, db)
    db.set_state("effective", effective_exclusion(wafer.topology, db.state("individual")))
    return db, mem


# ---------------------------------------------------------------------------
# exclusion report


@dataclass
class ReportRow:
    resource: str
    components: int  # reference total the effective percentage is quoted against
    tested: int  # denominator of the individual percentage
    individual: int
    individual_pct: float
    effective: int
    effective_pct: float


def exclusion_report(cfg: TopologyConfig, individual: AvailabilityState,
                     effective: AvailabilityState) -> list[ReportRow]:
    """Per-resource exclusion counts and percentages.

    Sub-hicann resources are counted on dies whose control link passed the
    individual tests (nobody can enumerate components behind a dead link)
    and quoted against fixed totals, so numbers stay comparable between
    wafers of one topology. The reference module (``TopologyConfig()``) is
    quoted against the paper's ``REPORT_REFERENCE`` subsets, 373 dies for
    infrastructure and 356 for experiments. Any other topology is quoted
    against its own design counts: every die for infrastructure, and every
    die with a high-speed link by design for experiments.
    """
    H = cfg.n_hicanns
    unreachable = np.flatnonzero(individual.read_mask(Kind.JTAG_LINK))

    def counted(state: AvailabilityState, kind: Kind, reachable_only: bool) -> int:
        n = state.count_excluded(kind)
        # a kind without exclusions has none on the unreachable dies either
        return n - state.count_excluded(kind, unreachable) if reachable_only and n else n

    def row(resource, kind, components, tested, reachable_only=False) -> ReportRow:
        ind = counted(individual, kind, reachable_only)
        eff = counted(effective, kind, reachable_only)
        return ReportRow(resource, components, tested, ind,
                         100.0 * ind / tested, eff, 100.0 * eff / components)

    hs_tested = H - len(cfg.no_highspeed_hicanns())
    rows = [
        row("jtag_link", kind=Kind.JTAG_LINK, components=H, tested=H),
        row("highspeed_link", kind=Kind.HIGHSPEED_LINK, components=H, tested=hs_tested),
    ]
    dies = ((REPORT_REFERENCE["experiment_hicanns"], REPORT_REFERENCE["infrastructure_hicanns"])
            if _is_reference(cfg) else (hs_tested, H))
    for kinds, n_dies in zip((_EXPERIMENT_KINDS, _INFRA_KINDS), dies):
        for kind in kinds:
            n = resource_count(cfg, kind, n_dies)
            rows.append(row(kind.value, kind, n, n, reachable_only=True))
    return rows


@lru_cache(maxsize=8)
def _is_reference(cfg: TopologyConfig) -> bool:
    return cfg == TopologyConfig()


def write_report_csv(path, rows: list[ReportRow]) -> None:
    with open(path, "w") as f:
        f.write("resource,components,tested,individual,individual_pct,"
                "effective,effective_pct\n")
        for r in rows:
            f.write(f"{r.resource},{r.components},{r.tested},{r.individual},"
                    f"{r.individual_pct:.2f},{r.effective},{r.effective_pct:.2f}\n")
