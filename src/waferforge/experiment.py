"""Configured experiments against the virtual wafer.

An experiment is described by per-HICANN digital settings (:class:`HicannConfig`),
an external stimulus (spike events on named input channels), a duration in
biological seconds, and a recording set of at most 12 neurons (the analog
readout system samples 12 membrane traces per wafer).

Event addressing follows the synapse-array memory layout: a synapse driver
row listens to one input channel, and each synapse stores a 4-bit weight plus
a 4-bit source address, so a channel distinguishes at most 16 sources. Placed
neurons broadcast their spikes on a channel/address pair (``EmitterSpec``);
external stimuli inject events on channels directly.

``prepare`` compiles the network against the floating-gate state of the
moment and builds its event queues, trace selection and initial voltages.
``simulate_batch`` integrates prepared runs of one duration and step and
returns one ``SimResult`` per run. It decides per run, from properties of the
run alone: a run that provably cannot spike and whose events are sparse
(every single-PSP calibration run) is solved by ``integrate_scan`` on its
own; the other runs are integrated together as one block-diagonal network by
``integrate``, whose per-unit updates are elementwise. So a run's result does
not depend on its batch: a calibration sweep can program and prepare all its
points, then integrate them together. ``simulate`` is the batch of one.

``readout`` digitizes up to 12 stored traces through the ADC chain;
``run_experiment`` is the one-shot combination. Splitting integration from
readout lets a measurement schedule reuse one integration for several 12-trace
readout batches, exactly like re-running a deterministic hardware experiment
with a different analog-output multiplexer setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import (EngineResult, EventQueue, SynapticMatrix, UnitParams,
                       cannot_spike, integrate, integrate_scan)
from .topology import Coord
from .wafer import (WaferModel, adc_readout, conductance_step_array,
                    efficacy_arrays, true_parameter_array)

DEFAULT_DT = 1e-4  # biological seconds per integration step
ADDRESS_BITS = 4
READOUT_TRACES = 12  # membrane traces the analog readout samples at once
SCAN_MIN_SEGMENT = 8  # mean steps between event boundaries of a scanned run


class RecordingLimitError(ValueError):
    """More simultaneous membrane recordings requested than the readout has."""


class UnusableComponentError(ValueError):
    """A referenced component is excluded in the availability state."""


@dataclass
class RowSpec:
    """One driven synapse-driver row: row id is global (array = row // 220)."""

    row: int
    sign: str  # "x" (excitatory side) or "i" (inhibitory side)
    source: str  # input channel label
    gmax_div: int = 11
    vgmax_sel: int = 0


@dataclass
class SynapseSpec:
    row: int
    col: int  # column within the row's array
    weight: int  # 4-bit
    address: int  # 4-bit source address on the row's channel


@dataclass
class EmitterSpec:
    """Broadcast a circuit's spikes as events on (channel, address)."""

    circuit: int
    channel: str
    address: int


@dataclass
class HicannConfig:
    hicann: int
    enabled: list[int] = field(default_factory=list)
    # interconnected membranes; first circuit of each group is the head that
    # provides threshold/reset/refractory and the synaptic input stage
    membrane_groups: list[list[int]] = field(default_factory=list)
    rows: list[RowSpec] = field(default_factory=list)
    synapses: list[SynapseSpec] = field(default_factory=list)
    emitters: list[EmitterSpec] = field(default_factory=list)


@dataclass
class CompiledNetwork:
    params: UnitParams
    unit_head: list[Coord]
    unit_members: list[list[Coord]]
    unit_of: dict[Coord, int]
    recurrent_x: SynapticMatrix | None
    recurrent_i: SynapticMatrix | None
    # (channel, address) -> list of (unit, sign, conductance amount)
    listeners: dict[tuple[str, int], list[tuple[int, str, float]]]


def _validate_config(wafer: WaferModel, cfg: HicannConfig) -> None:
    top = wafer.topology
    n_rows = top.arrays_per_hicann * top.driven_rows_per_array
    if not 0 <= cfg.hicann < top.n_hicanns:
        raise ValueError(f"hicann {cfg.hicann} out of range")
    if len(set(cfg.enabled)) != len(cfg.enabled):
        raise ValueError("duplicate enabled circuits")
    enabled = set(cfg.enabled)
    for c in cfg.enabled:
        if not 0 <= c < top.neurons_per_hicann:
            raise ValueError(f"circuit {c} out of range")
    seen: set[int] = set()
    for group in cfg.membrane_groups:
        if not group or not set(group) <= enabled:
            raise ValueError("membrane group must consist of enabled circuits")
        if set(group) & seen:
            raise ValueError("circuit in more than one membrane group")
        seen |= set(group)
    rows = {}
    for r in cfg.rows:
        if not 0 <= r.row < n_rows:
            raise ValueError(f"row {r.row} out of range")
        if r.row in rows:
            raise ValueError(f"row {r.row} configured twice")
        if r.sign not in ("x", "i"):
            raise ValueError("row sign must be 'x' or 'i'")
        if r.gmax_div < 1:
            raise ValueError("gmax_div must be >= 1")
        if not 0 <= r.vgmax_sel < wafer.topology.vgmax_palette_size:
            raise ValueError("vgmax_sel out of range")
        rows[r.row] = r
    for s in cfg.synapses:
        if s.row not in rows:
            raise ValueError(f"synapse references unconfigured row {s.row}")
        if not 0 <= s.col < top.columns_per_array:
            raise ValueError("synapse column out of range")
        if not 0 <= s.weight < 16:
            raise ValueError("weight must be 4-bit")
        if not 0 <= s.address < 2 ** ADDRESS_BITS:
            raise ValueError("address must be 4-bit")
    for e in cfg.emitters:
        if e.circuit not in enabled:
            raise ValueError("emitter circuit not enabled")
        if not 0 <= e.address < 2 ** ADDRESS_BITS:
            raise ValueError("address must be 4-bit")


def _check_usable(availability, coord: Coord) -> None:
    if availability is not None and not availability.is_usable(coord):
        raise UnusableComponentError(f"{coord} is excluded")


def compile_network(wafer: WaferModel, configs, availability=None) -> CompiledNetwork:
    if isinstance(configs, HicannConfig):
        configs = [configs]
    top = wafer.topology
    var = wafer.variability

    unit_head: list[Coord] = []
    unit_members: list[list[Coord]] = []
    unit_of: dict[Coord, int] = {}
    per_unit: dict[str, list[float]] = {k: [] for k in (
        "capacitance", "g_leak", "g_leak_e", "v_threshold", "v_reset",
        "tau_ref", "e_synx", "e_syni", "tau_synx", "tau_syni",
        "g_base_x", "g_base_i", "i_sat")}
    listeners: dict[tuple[str, int], list[tuple[int, str, float]]] = {}
    emit_all: list[tuple[Coord, str, int]] = []

    for cfg in configs:
        _validate_config(wafer, cfg)
        h = cfg.hicann
        e_l = true_parameter_array(wafer, h, "e_leak")
        g_l = true_parameter_array(wafer, h, "g_leak")
        v_th = true_parameter_array(wafer, h, "v_threshold")
        v_rst = true_parameter_array(wafer, h, "v_reset")
        t_ref = true_parameter_array(wafer, h, "tau_ref")
        e_sx = true_parameter_array(wafer, h, "e_synx")
        e_si = true_parameter_array(wafer, h, "e_syni")
        t_sx = true_parameter_array(wafer, h, "tau_synx")
        t_si = true_parameter_array(wafer, h, "tau_syni")
        gp_x, eff_x = efficacy_arrays(wafer, h, "x")
        gp_i, eff_i = efficacy_arrays(wafer, h, "i")

        grouped = {c for g in cfg.membrane_groups for c in g}
        groups = list(cfg.membrane_groups) \
            + [[c] for c in sorted(cfg.enabled) if c not in grouped]
        for group in groups:
            head = group[0]
            coord = Coord.neuron(h, head)
            _check_usable(availability, coord)
            u = len(unit_head)
            unit_head.append(coord)
            unit_members.append([Coord.neuron(h, c) for c in group])
            for c in group:
                _check_usable(availability, Coord.neuron(h, c))
                unit_of[Coord.neuron(h, c)] = u
            mem = np.asarray(group, dtype=int)
            per_unit["capacitance"].append(var.membrane_capacitance * len(group))
            per_unit["g_leak"].append(float(g_l[mem].sum()))
            per_unit["g_leak_e"].append(float((g_l[mem] * e_l[mem]).sum()))
            per_unit["v_threshold"].append(float(v_th[head]))
            per_unit["v_reset"].append(float(v_rst[head]))
            per_unit["tau_ref"].append(float(t_ref[head]))
            per_unit["e_synx"].append(float(e_sx[head]))
            per_unit["e_syni"].append(float(e_si[head]))
            per_unit["tau_synx"].append(float(t_sx[head]))
            per_unit["tau_syni"].append(float(t_si[head]))
            per_unit["g_base_x"].append(float(gp_x[mem].sum()))
            per_unit["g_base_i"].append(float(gp_i[mem].sum()))
            sat = var.ota_saturation_current
            per_unit["i_sat"].append(np.inf if sat is None else sat * len(group))

        rows = {r.row: r for r in cfg.rows}
        if cfg.synapses:
            syn_rows = [rows[s.row] for s in cfg.synapses]
            cols = np.array([s.col for s in cfg.synapses])
            arrays = np.array([s.row // top.driven_rows_per_array
                               for s in cfg.synapses])
            circuits = arrays * top.columns_per_array + cols
            weights = np.array([s.weight for s in cfg.synapses])
            divs = np.array([r.gmax_div for r in syn_rows], dtype=float)
            sels = np.array([r.vgmax_sel for r in syn_rows])
            steps = conductance_step_array(wafer, h, circuits, weights, divs, sels)
            for s, r, c, step in zip(cfg.synapses, syn_rows, circuits, steps):
                coord = Coord.neuron(h, int(c))
                if coord not in unit_of:
                    raise ValueError(
                        f"synapse targets disabled circuit {int(c)} on hicann {h}")
                eff = eff_x[c] if r.sign == "x" else eff_i[c]
                listeners.setdefault((r.source, s.address), []).append(
                    (unit_of[coord], r.sign, float(step * eff)))

        for e in cfg.emitters:
            emit_all.append((Coord.neuron(h, e.circuit), e.channel, e.address))

    n = len(unit_head)
    params = UnitParams(**{k: np.asarray(v, dtype=float)
                           for k, v in per_unit.items()})

    trip_x: list[tuple[int, int, float]] = []
    trip_i: list[tuple[int, int, float]] = []
    for coord, channel, address in emit_all:
        pre = unit_of[coord]
        for unit, sign, amount in listeners.get((channel, address), ()):
            (trip_x if sign == "x" else trip_i).append((pre, unit, amount))
    rec_x = rec_i = None
    if trip_x:
        pre, post, amt = zip(*trip_x)
        rec_x = SynapticMatrix.from_triplets(n, pre, post, amt)
    if trip_i:
        pre, post, amt = zip(*trip_i)
        rec_i = SynapticMatrix.from_triplets(n, pre, post, amt)

    return CompiledNetwork(params=params, unit_head=unit_head,
                           unit_members=unit_members, unit_of=unit_of,
                           recurrent_x=rec_x, recurrent_i=rec_i,
                           listeners=listeners)


def _normalize_stimulus(stimulus):
    """Accept (source, t) with source=(channel, address), or flat triples."""
    events = []
    for item in stimulus or ():
        if len(item) == 2:
            (channel, address), t = item
        else:
            channel, address, t = item
        events.append((str(channel), int(address), float(t)))
    return events


@dataclass
class SimResult:
    compiled: CompiledNetwork
    engine: EngineResult
    duration: float
    dt: float
    trace_units: np.ndarray

    def raster(self) -> dict[Coord, np.ndarray]:
        return {head: self.engine.spikes_of(u)
                for u, head in enumerate(self.compiled.unit_head)}


def resting_potential(params: UnitParams) -> np.ndarray:
    """Settled membrane voltage per unit (leak and permanent conductances)."""
    g = params.g_leak + params.g_base_x + params.g_base_i
    num = params.g_leak_e + params.g_base_x * params.e_synx \
        + params.g_base_i * params.e_syni
    return np.where(g > 0.0, num / np.where(g > 0.0, g, 1.0), params.v_reset)


@dataclass
class PreparedRun:
    """A compiled network with its inputs, ready to integrate."""

    compiled: CompiledNetwork
    duration: float
    dt: float
    events_x: EventQueue
    events_i: EventQueue
    trace_units: np.ndarray
    v0: np.ndarray


def prepare(wafer: WaferModel, configs, stimulus, duration_bio: float, *,
            dt: float = DEFAULT_DT, trace_circuits="all",
            availability=None, v_init="reset") -> PreparedRun:
    """Compile the configured network against the current FG state.

    ``trace_circuits`` limits membrane-trace storage (not the physics) to the
    units containing the given neuron coords; pass "all" to keep every unit.
    ``v_init`` is "reset" (power-on state), "rest" (membranes settled before
    the experiment starts, as on continuously running hardware), or an array.
    """
    net = compile_network(wafer, configs, availability)
    times, units, amounts, sides = [], [], [], []
    for channel, address, t in _normalize_stimulus(stimulus):
        for unit, sign, amount in net.listeners.get((channel, address), ()):
            times.append(t)
            units.append(unit)
            amounts.append(amount)
            sides.append(sign)
    sides = np.asarray(sides, dtype=object)
    ev = {}
    for sign in ("x", "i"):
        m = sides == sign if len(sides) else np.zeros(0, dtype=bool)
        ev[sign] = EventQueue.from_times(
            np.asarray(times, dtype=float)[m] if len(sides) else [],
            np.asarray(units, dtype=np.int64)[m] if len(sides) else [],
            np.asarray(amounts, dtype=float)[m] if len(sides) else [], dt)

    n = net.params.n_units
    if trace_circuits == "all":
        trace_units = np.arange(n, dtype=np.int64)
    else:
        idx = set()
        for c in trace_circuits:
            if c not in net.unit_of:
                raise ValueError(f"{c} was not part of the simulation")
            idx.add(net.unit_of[c])
        trace_units = np.asarray(sorted(idx), dtype=np.int64)

    if isinstance(v_init, str):
        if v_init == "rest":
            v0 = resting_potential(net.params)
        elif v_init == "reset":
            v0 = net.params.v_reset.copy()
        else:
            raise ValueError(f"unknown v_init {v_init!r}")
    else:
        v0 = np.broadcast_to(np.asarray(v_init, dtype=float), (n,)).copy()
    return PreparedRun(compiled=net, duration=duration_bio, dt=dt,
                       events_x=ev["x"], events_i=ev["i"],
                       trace_units=trace_units, v0=v0)


def _stack_events(queues, starts) -> EventQueue:
    return EventQueue.from_boundaries(
        np.concatenate([q.boundary for q in queues]),
        np.concatenate([q.unit + s for q, s in zip(queues, starts)]),
        np.concatenate([q.amount for q in queues]))


def _stack_matrices(matrices, starts, n: int) -> SynapticMatrix | None:
    """Block-diagonal union of per-run matrices (None = no connections)."""
    pre, post, amount = [], [], []
    for m, lo in zip(matrices, starts):
        if m is not None:
            pre.append(np.repeat(np.arange(m.n_units), np.diff(m.indptr)) + lo)
            post.append(m.targets + lo)
            amount.append(m.amounts)
    if not pre:
        return None
    return SynapticMatrix.from_triplets(n, np.concatenate(pre),
                                        np.concatenate(post),
                                        np.concatenate(amount))


def _scanned(run: PreparedRun, n_steps: int) -> bool:
    """Whether a run goes through ``integrate_scan`` rather than the loop.

    Only properties of the run decide: it has no recurrent connection,
    ``cannot_spike`` holds, and its event boundaries leave segments of at
    least ``SCAN_MIN_SEGMENT`` steps on average (a run without events keeps
    ``integrate``'s constant path).
    """
    net = run.compiled
    if any(m is not None and m.n_connections
           for m in (net.recurrent_x, net.recurrent_i)):
        return False
    bounds = np.concatenate([run.events_x.boundary, run.events_i.boundary])
    landing = np.unique(np.maximum(bounds[bounds < n_steps], 0))
    return (0 < landing.shape[0] * SCAN_MIN_SEGMENT <= n_steps
            and cannot_spike(net.params, run.v0, run.dt, n_steps,
                             run.events_x, run.events_i))


def _integrate_stacked(runs, duration: float, dt: float) -> EngineResult:
    """Integrate runs as one block-diagonal network (one ``integrate`` call)."""
    starts = np.cumsum([0] + [r.compiled.params.n_units for r in runs])
    n = int(starts[-1])
    params = UnitParams(**{f.name: np.concatenate(
        [getattr(r.compiled.params, f.name) for r in runs])
        for f in fields(UnitParams)})
    return integrate(
        params, duration, dt,
        events_x=_stack_events([r.events_x for r in runs], starts),
        events_i=_stack_events([r.events_i for r in runs], starts),
        recurrent_x=_stack_matrices([r.compiled.recurrent_x for r in runs],
                                    starts, n),
        recurrent_i=_stack_matrices([r.compiled.recurrent_i for r in runs],
                                    starts, n),
        record_units=np.concatenate([r.trace_units + s
                                     for r, s in zip(runs, starts)]),
        v_init=np.concatenate([r.v0 for r in runs]))


def simulate_batch(runs) -> list[SimResult]:
    """Integrate prepared runs of one duration and step.

    Runs that ``_scanned`` selects are integrated one at a time by
    ``integrate_scan``; the others become one block-diagonal network for
    ``integrate``: unit parameters are concatenated, event, connection and
    trace units are offset, and the result is split back. Either way each
    ``SimResult``'s unit numbering is the run's own, and its trace rows are
    views into one trace array of the batch.
    """
    runs = list(runs)
    duration, dt = runs[0].duration, runs[0].dt
    if any(r.duration != duration or r.dt != dt for r in runs):
        raise ValueError("runs in one batch must share duration and dt")
    n_steps = int(round(duration / dt))
    scanned = [_scanned(r, n_steps) for r in runs]
    looped = [r for r, s in zip(runs, scanned) if not s]
    stacked = _integrate_stacked(looped, duration, dt) if looped else None
    if not any(scanned):
        traces = stacked.v
    else:
        traces = np.empty((sum(r.trace_units.shape[0] for r in runs),
                           n_steps + 1))

    out = []
    row = lo = s_row = 0  # lo, s_row: unit and trace row in the loop's network
    for r, scan in zip(runs, scanned):
        rows = r.trace_units.shape[0]
        v = traces[row:row + rows]
        if scan:
            part = integrate_scan(r.compiled.params, duration, dt,
                                  events_x=r.events_x, events_i=r.events_i,
                                  record_units=r.trace_units, v_init=r.v0,
                                  out=v)
        else:
            if traces is not stacked.v:
                v[:] = stacked.v[s_row:s_row + rows]
            hi = lo + r.compiled.params.n_units
            own = (stacked.spike_units >= lo) & (stacked.spike_units < hi)
            part = EngineResult(dt=dt, n_steps=n_steps,
                                record_units=r.trace_units, t=stacked.t, v=v,
                                spike_units=stacked.spike_units[own] - lo,
                                spike_times=stacked.spike_times[own])
            lo, s_row = hi, s_row + rows
        row += rows
        out.append(SimResult(compiled=r.compiled, engine=part,
                             duration=duration, dt=dt,
                             trace_units=r.trace_units))
    return out


def simulate(wafer: WaferModel, configs, stimulus, duration_bio: float, *,
             dt: float = DEFAULT_DT, trace_circuits="all",
             availability=None, v_init="reset") -> SimResult:
    """Integrate the configured network once (see ``prepare``)."""
    return simulate_batch([prepare(
        wafer, configs, stimulus, duration_bio, dt=dt,
        trace_circuits=trace_circuits, availability=availability,
        v_init=v_init)])[0]


@dataclass
class ExperimentResult:
    duration: float
    adc_dt: float
    t: np.ndarray  # ADC sample times, biological seconds
    traces: dict[Coord, np.ndarray]  # quantized readings, ADC volts
    raster: dict[Coord, np.ndarray]  # spike times per unit head
    group_stats: dict | None = None


def readout(wafer: WaferModel, sim: SimResult, record, token=0) -> ExperimentResult:
    """Digitize up to 12 membrane traces of a finished simulation."""
    record = list(record)
    if len(record) > READOUT_TRACES:
        raise RecordingLimitError(f"{len(record)} recordings requested, "
                                  f"readout supports {READOUT_TRACES}")
    adc_dt = wafer.topology.speedup / wafer.variability.adc_sample_rate_hw
    n_samples = int(np.floor(sim.duration / adc_dt)) + 1
    t_adc = np.arange(n_samples) * adc_dt

    row_of_unit = {int(u): i for i, u in enumerate(sim.trace_units)}
    by_hicann: dict[int, list[Coord]] = {}
    for coord in record:
        if coord not in sim.compiled.unit_of:
            raise ValueError(f"{coord} was not part of the simulation")
        by_hicann.setdefault(coord.indices[0], []).append(coord)

    traces: dict[Coord, np.ndarray] = {}
    for h in sorted(by_hicann):
        coords = by_hicann[h]
        raw = np.empty((len(coords), n_samples))
        for i, coord in enumerate(coords):
            u = sim.compiled.unit_of[coord]
            if u not in row_of_unit:
                raise ValueError(f"no trace stored for {coord}")
            raw[i] = np.interp(t_adc, sim.engine.t, sim.engine.v[row_of_unit[u]])
        circuits = [c.indices[1] for c in coords]
        quantized = adc_readout(wafer, h, circuits, raw, token)
        for coord, q in zip(coords, quantized):
            traces[coord] = q

    return ExperimentResult(duration=sim.duration, adc_dt=adc_dt, t=t_adc,
                            traces=traces, raster=sim.raster())


def run_experiment(wafer: WaferModel, configs, stimulus, duration_bio: float,
                   record, *, dt: float = DEFAULT_DT, token=0,
                   availability=None, v_init="reset") -> ExperimentResult:
    """One-shot experiment: integrate, then read out ``record`` (≤ 12)."""
    record = list(record)
    if len(record) > READOUT_TRACES:
        raise RecordingLimitError(f"{len(record)} recordings requested, "
                                  f"readout supports {READOUT_TRACES}")
    sim = simulate(wafer, configs, stimulus, duration_bio, dt=dt,
                   trace_circuits=record, availability=availability,
                   v_init=v_init)
    return readout(wafer, sim, record, token)


def write_trace_csv(path, result: ExperimentResult, coord: Coord) -> None:
    data = np.column_stack([result.t, result.traces[coord]])
    header = "time_bio_s,volts"
    np.savetxt(path, data, delimiter=",", header=header, comments="")
