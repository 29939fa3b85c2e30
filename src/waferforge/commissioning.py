"""Digital commissioning tests and the individual → effective closure.

The pipeline runs in three stages: ``comm_test`` probes the control (JTAG)
and high-speed links, ``memory_test`` write/read-tests every reachable
memory-mapped register (with a same-value stability phase per synapse
array), and ``effective_exclusion`` closes the discovered individual
failures over the hardware dependencies. Reports compare both states
against fixed reference component totals.

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

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .availability import AvailabilityDb, AvailabilityState
from .defects import DefectType, check_defects
from .topology import Coord, Direction, Kind, TopologyConfig, resource_count
from .wafer import (WaferModel, adc_readout, dac_to_volts, from_reference_dac,
                    program_floating_gates, true_parameter)

FULL_TEST_SECONDS = 70.0  # reported per-hicann cost of the full pass

# memory test: random writes per register, and same-value rewrites in the
# stability phase (a cell flipping with probability p escapes with (1-p)^reps)
WRITES_PER_CELL = 10
STABILITY_REPS = 10

# analog readout test: two FG levels in reference-DAC codes, each digitized as
# READOUT_SAMPLES samples; the mean must match within READOUT_MEAN_TOL volts
# (after the 1:2 divider) and the sample noise stay below READOUT_NOISE_TOL
READOUT_LEVELS = (284, 682)
READOUT_SAMPLES = 64
READOUT_MEAN_TOL = 0.15
READOUT_NOISE_TOL = 0.003

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

# fixed reference subsets the documented component totals are quoted against
REPORT_REFERENCE = {
    "infrastructure_hicanns": 373,  # jtag-reachable dies carrying routing fabric
    "experiment_hicanns": 356,  # dies with a working high-speed link
}

_INFRA_KINDS = (Kind.FG_BLOCK, Kind.EXT_MERGER, Kind.REPEATER, Kind.BUS, Kind.SWITCH)
_EXPERIMENT_KINDS = (Kind.NEURON, Kind.MERGER, Kind.BG_GEN, Kind.ANALOG_OUT,
                     Kind.SYNAPSE_ARRAY, Kind.SYNAPSE_ROW, Kind.SYNAPSE_DRIVER,
                     Kind.SYNAPSE)


def _jtag(h: int) -> Coord:
    return Coord(Kind.JTAG_LINK, (h,))


def _highspeed(h: int) -> Coord:
    return Coord(Kind.HIGHSPEED_LINK, (h,))


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
    jtag_ok = np.ones(cfg.n_hicanns, dtype=bool)
    highspeed_ok = np.ones(cfg.n_hicanns, dtype=bool)
    highspeed_ok[list(cfg.no_highspeed_hicanns())] = False
    failed = []  # genuine high-speed failures
    for d in wafer.defects:
        if d.type is DefectType.JTAG_DEAD:
            jtag_ok[d.coord.hicann] = False
        elif d.type is DefectType.HIGHSPEED_DEAD:
            highspeed_ok[d.coord.hicann] = False
            failed.append(_highspeed(d.coord.hicann))
    if db is not None:
        db.ensure("individual").exclude_many(
            [_jtag(h) for h in np.flatnonzero(~jtag_ok).tolist()] + failed)
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
    h, a = array.indices
    cells = [d for d in wafer.defects.of_type(DefectType.MEMORY_UNSTABLE)
             if d.coord.kind is Kind.SYNAPSE and d.coord.indices[:2] == (h, a)]
    words = rng.stream_words(wafer.master_seed,
                             [("stability", str(d.coord)) for d in cells], STABILITY_REPS)
    flips = _flips(words, np.array([d.flip_probability for d in cells], dtype=float))
    bad = sorted((d.coord for d, f in zip(cells, flips.tolist()) if f), key=Coord.sort_key)
    return StabilityResult(array, not bad, bad)


def array_exclusion(cfg: TopologyConfig, h: int, a: int) -> list[Coord]:
    """Everything that goes when one synapse array is written off, as coordinates.

    ``write_off_array`` applies the same exclusions to a state as mask slices.
    """
    out = [Coord.synapse_array(h, a)]
    out += [Coord.synapse_row(h, a, r) for r in range(cfg.rows_per_array)]
    out += [Coord.synapse_driver(h, a, d) for d in range(cfg.drivers_per_array)]
    out += [Coord.synapse(h, a, r, c)
            for r in range(cfg.driven_rows_per_array)
            for c in range(cfg.columns_per_array)]
    return out


def write_off_array(state: AvailabilityState, h: int, a: int) -> None:
    """Exclude synapse array ``(h, a)`` with all its rows, drivers and synapses."""
    state.exclude(Coord.synapse_array(h, a))
    for kind in (Kind.SYNAPSE_ROW, Kind.SYNAPSE_DRIVER, Kind.SYNAPSE):
        state.exclude_block(kind, (h, a))


def _excluded_unit(d) -> Coord:
    # the component carrying the failing register goes; a fault in the FG
    # controller SRAM corrupts programming sequences for the whole die
    if REGION_OF_KIND[d.coord.kind] == "fg_controller_sram":
        return Coord.hicann_(d.coord.hicann)
    return d.coord


@dataclass
class MemoryTestResult:
    bytes_tested: int
    bytes_by_region: dict[str, int]
    duration_s: float  # reported, groups run in parallel
    full_passes: int
    reduced_passes: int
    skipped: int
    discovered: list[Coord]  # failing units, without the contents of unstable arrays
    unstable_arrays: list[Coord]  # written off whole, see write_off_array


def memory_test(wafer: WaferModel, db: AvailabilityDb) -> MemoryTestResult:
    """Write/read-test all reachable registers with seeded random values.

    Hicanns whose high-speed link failed the communication test are only
    reachable over the slow control link and get the reduced routing test;
    by-design unbonded dies still get the full pass, their routing fabric
    stays in service. Passes and skips come from the individual link masks.
    One die takes a reported 70 s; groups run in parallel, dies within a
    group in sequence, their seconds added in member order. One pass over
    the defect set classifies the defects and collects the stuck cells and
    the unstable cells outside synapse arrays; one ``rng.stream_words``
    call draws their words and one array pass decides them. All random
    draws are keyed by cell coordinate, so the outcome is independent of
    visit order; discovered exclusions merge in coordinate order.
    """
    cfg = wafer.topology
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

    no_jtag, no_highspeed = no_jtag.tolist(), no_highspeed.tolist()
    found: list[Coord] = []
    drawn = []  # stuck cells and unstable non-synapse cells, decided by their draws
    suspect: set[Coord] = set()  # arrays holding an unstable cell
    for d in wafer.defects:
        if d.type is DefectType.JTAG_DEAD or d.type is DefectType.HIGHSPEED_DEAD:
            continue  # link faults, not memory faults
        h = d.coord.hicann
        if no_jtag[h] or REGION_OF_KIND.get(d.coord.kind) not in (
                routing if no_highspeed[h] else mm):
            continue
        if d.type is DefectType.MEMORY_STUCK:
            drawn.append(d)
        elif d.type is DefectType.MEMORY_UNSTABLE:
            if d.coord.kind is Kind.SYNAPSE:
                # the per-array stability phase below covers it
                suspect.add(Coord.synapse_array(*d.coord.indices[:2]))
            else:
                drawn.append(d)
        else:
            found.append(_excluded_unit(d))
    if drawn:
        stuck = [d.type is DefectType.MEMORY_STUCK for d in drawn]
        words = rng.stream_words(  # two writes per word, one rewrite per word
            wafer.master_seed,
            [("memtest" if s else "stability", str(d.coord)) for d, s in zip(drawn, stuck)],
            max(-(-WRITES_PER_CELL // 2), STABILITY_REPS))
        # a stuck pattern, or an unstable cell's flip probability
        limit = np.array([d.pattern if s else d.flip_probability
                          for d, s in zip(drawn, stuck)], dtype=float)
        # a stuck cell escapes when every random value lands on its pattern
        seen = np.where(stuck,
                        np.any(_write_values(words, WRITES_PER_CELL) != limit[:, None], axis=1),
                        _flips(words, limit))
        found += [_excluded_unit(d) for d, s in zip(drawn, seen.tolist()) if s]

    # an array without unstable cells reads back stable on every rewrite
    unstable = sorted((c for c in suspect
                       if not stability_test(wafer, c).stable),
                      key=Coord.sort_key)
    found.sort(key=Coord.sort_key)
    ind.exclude_many(found)
    for array in unstable:
        write_off_array(ind, *array.indices)
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
        unstable_arrays=unstable,
    )


# ---------------------------------------------------------------------------
# analog readout test


def analog_readout_test(wafer: WaferModel, db: AvailabilityDb | None = None) -> np.ndarray:
    """Drive the ``READOUT_LEVELS`` onto the readout chain and digitize them.

    Pass iff, for both levels, the mean reading matches the programmed
    level within ``READOUT_MEAN_TOL`` (the tolerance absorbs cell variation
    and readout shift) and the sample noise stays below
    ``READOUT_NOISE_TOL``. Unreachable dies and dies without a
    usable analog output fail.

    Each die is judged by circuit 0's readout chain alone: the model gives
    every circuit its own readout shift, but only circuit 0's is read, so a
    die passes when circuit 0's shift is within tolerance, whatever its
    other circuits read.
    """
    cfg = wafer.topology
    ind = db.state("individual") if db is not None and db.has_state("individual") \
        else AvailabilityState(cfg)
    # reachable, programmable and with at least one usable analog output
    ok = ~(ind.read_mask(Kind.JTAG_LINK) | ind.read_mask(Kind.HICANN)
           | ind.read_mask(Kind.ANALOG_OUT).all(axis=1))
    for h in np.flatnonzero(ok).tolist():
        for level in from_reference_dac(cfg, READOUT_LEVELS):
            program_floating_gates(wafer, h, {"e_leak": level})
            v = true_parameter(wafer, Coord.neuron(h, 0), "e_leak")
            reading = adc_readout(wafer, h, [0], np.full((1, READOUT_SAMPLES), v),
                                  token=("analog_level", level))
            if abs(float(reading.mean()) * wafer.variability.adc_divider
                   - dac_to_volts(cfg, level)) > READOUT_MEAN_TOL:
                ok[h] = False
            if float(reading.std()) > READOUT_NOISE_TOL:
                ok[h] = False
    return ok


# ---------------------------------------------------------------------------
# individual state without test censoring


def individual_from_defects(cfg: TopologyConfig, defects) -> AvailabilityState:
    """Individual state a fully transparent test suite would record.

    The real pipeline cannot see past a dead control link; this translation
    can, which makes it the right input for closure property checks. Where
    tests can reach, ``comm_test`` + ``memory_test`` discover exactly these
    flags (up to the astronomically unlikely stuck-pattern collision).
    """
    state = AvailabilityState(cfg)
    for d in defects:
        if d.type is DefectType.JTAG_DEAD:
            state.exclude(_jtag(d.coord.hicann))
        elif d.type is DefectType.HIGHSPEED_DEAD:
            state.exclude(_highspeed(d.coord.hicann))
        elif d.type is DefectType.MEMORY_UNSTABLE and d.coord.kind is Kind.SYNAPSE:
            write_off_array(state, *d.coord.indices[:2])
        else:
            state.exclude(_excluded_unit(d))
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

    The defect set is checked against the topology again: it may have
    changed since the wafer was built."""
    check_defects(wafer.topology, wafer.defects)
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
    and quoted against the fixed reference totals, so numbers stay
    comparable between wafers.
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
    for kind in _EXPERIMENT_KINDS:
        n = resource_count(cfg, kind, REPORT_REFERENCE["experiment_hicanns"])
        rows.append(row(kind.value, kind, n, n, reachable_only=True))
    for kind in _INFRA_KINDS:
        n = resource_count(cfg, kind, REPORT_REFERENCE["infrastructure_hicanns"])
        rows.append(row(kind.value, kind, n, n, reachable_only=True))
    return rows


def write_report_csv(path, rows: list[ReportRow]) -> None:
    with open(path, "w") as f:
        f.write("resource,components,tested,individual,individual_pct,"
                "effective,effective_pct\n")
        for r in rows:
            f.write(f"{r.resource},{r.components},{r.tested},{r.individual},"
                    f"{r.individual_pct:.2f},{r.effective},{r.effective_pct:.2f}\n")
