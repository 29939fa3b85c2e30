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
returns one ``SimResult`` per run. A run that ``dynamics.scannable`` accepts
(every single-PSP calibration run) is solved alone by ``integrate_scan``,
whose bytes would otherwise depend on its batch-mates; the other runs
become one block-diagonal network and one ``integrate`` call, whose solvers
update each unit elementwise (``dynamics`` says which solver a run gets).
So a run's result does not depend on its batch: a calibration sweep can
program and prepare all its points, then integrate them together.
``simulate`` is the batch of one.

Units are keyed by index arrays (``CompiledNetwork.unit_hicann``,
``unit_head``, ``unit_of``; ``SimResult.trains``). ``Coord``s appear only at
the boundary: ``record``, ``trace_circuits``, ``raster()``, ``traces`` and
error messages.

``readout`` digitizes up to 12 stored traces through the ADC chain;
``run_experiment`` is the one-shot combination and also returns the spike
raster. Splitting integration from readout lets a measurement schedule
reuse one integration for several 12-trace readout batches, exactly like
re-running a deterministic hardware experiment with a different analog-output
multiplexer setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import (EngineResult, EventQueue, SynapticMatrix, UnitParams, _as_f64,
                       integrate, integrate_scan, resting_potential, scannable)
from .topology import Coord, Kind
from .wafer import (VGMAX_PALETTE, WaferModel, adc_readout, adc_sample_period,
                    conductance_step_array, efficacy_arrays, true_parameter_array)

# biological seconds per integration step, every calibration run's too; a
# finer step bought the PSP fits nothing: the ADC sampling grid, not the
# solver, limits the fast end of the time-constant extraction
DEFAULT_DT = 1e-4
ADDRESS_BITS = 4
READOUT_TRACES = 12  # membrane traces the analog readout samples at once


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


class Listeners(NamedTuple):
    """The synapses one (channel, address) reaches, in configuration order."""
    unit: np.ndarray  # int64
    is_x: np.ndarray  # bool: excitatory side
    amount: np.ndarray  # conductance amount


_NO_LISTENERS = Listeners(np.empty(0, np.int64), np.empty(0, bool), np.empty(0))


@dataclass
class CompiledNetwork:
    params: UnitParams
    unit_hicann: np.ndarray  # per unit: its hicann
    unit_head: np.ndarray  # per unit: its head circuit
    unit_of: dict[int, np.ndarray]  # hicann -> unit per circuit, -1 if not enabled
    recurrent_x: SynapticMatrix | None
    recurrent_i: SynapticMatrix | None
    listeners: dict[tuple[str, int], Listeners]

    def unit(self, coord: Coord) -> int:
        """The unit a neuron coordinate belongs to."""
        n = coord.indices[-1]
        units = self.unit_of.get(coord.indices[0], ()) if coord.kind == Kind.NEURON else ()
        if not 0 <= n < len(units) or units[n] < 0:
            raise ValueError(f"{coord} was not part of the simulation")
        return int(units[n])


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
        for c in group:
            if c in seen:
                raise ValueError(f"circuit {c} is listed twice in the membrane groups")
            seen.add(c)
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
        if not 0 <= r.vgmax_sel < VGMAX_PALETTE:
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


def _group_sums(x: np.ndarray, groups, heads: np.ndarray) -> np.ndarray:
    """``x[group].sum()`` per membrane group (a group of one is its head)."""
    out = x[heads]
    for i, group in enumerate(groups):
        if len(group) > 1:
            out[i] = x[group].sum()
    return out


def compile_network(wafer: WaferModel, configs, availability=None) -> CompiledNetwork:
    if isinstance(configs, HicannConfig):
        configs = [configs]
    top = wafer.topology
    var = wafer.variability
    sat = var.ota_saturation_current

    unit_of: dict[int, np.ndarray] = {}
    columns: list[dict[str, np.ndarray]] = []  # per config: unit columns
    # (channel, address) -> list of (unit, is_x, conductance amount)
    listeners: dict[tuple[str, int], list[tuple[int, bool, float]]] = {}
    emitters: list[tuple[int, EmitterSpec]] = []
    n = 0

    for cfg in configs:
        _validate_config(wafer, cfg)
        h = cfg.hicann
        grouped = {c for g in cfg.membrane_groups for c in g}
        groups = list(cfg.membrane_groups) \
            + [[c] for c in sorted(cfg.enabled) if c not in grouped]
        heads = np.array([g[0] for g in groups], dtype=np.int64)
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        members = np.array([c for g in groups for c in g], dtype=np.int64)
        if availability is not None:
            bad = availability.read_mask(Kind.NEURON)[h, members]
            if bad.any():
                first = Coord.neuron(h, int(members[np.argmax(bad)]))
                raise UnusableComponentError(f"{first} is excluded")
        units = unit_of.setdefault(
            h, np.full(top.neurons_per_hicann, -1, dtype=np.int64))
        units[members] = n + np.repeat(np.arange(len(groups)), sizes)
        n += len(groups)

        g_l = true_parameter_array(wafer, h, "g_leak")
        gp_x, eff_x = efficacy_arrays(wafer, h, "x")
        gp_i, eff_i = efficacy_arrays(wafer, h, "i")
        col = {name: true_parameter_array(wafer, h, name)[heads] for name in (
            "v_threshold", "v_reset", "tau_ref", "e_synx", "e_syni",
            "tau_synx", "tau_syni")}
        col.update(
            hicann=np.full(len(groups), h, dtype=np.int64), head=heads,
            capacitance=var.membrane_capacitance * sizes,
            g_leak=_group_sums(g_l, groups, heads),
            g_leak_e=_group_sums(g_l * true_parameter_array(wafer, h, "e_leak"),
                                 groups, heads),
            g_base_x=_group_sums(gp_x, groups, heads),
            g_base_i=_group_sums(gp_i, groups, heads),
            i_sat=np.full(len(groups), np.inf) if sat is None else sat * sizes)
        columns.append(col)

        rows = {r.row: r for r in cfg.rows}
        if cfg.synapses:
            syn_rows = [rows[s.row] for s in cfg.synapses]
            cols = np.array([s.col for s in cfg.synapses])
            arrays = np.array([s.row // top.driven_rows_per_array
                               for s in cfg.synapses])
            circuits = arrays * top.columns_per_array + cols
            targets = units[circuits]
            if (targets < 0).any():
                raise ValueError(
                    f"synapse targets disabled circuit "
                    f"{int(circuits[np.argmax(targets < 0)])} on hicann {h}")
            weights = np.array([s.weight for s in cfg.synapses])
            divs = np.array([r.gmax_div for r in syn_rows], dtype=float)
            sels = np.array([r.vgmax_sel for r in syn_rows])
            steps = conductance_step_array(wafer, h, circuits, weights, divs, sels)
            for s, r, c, u, step in zip(cfg.synapses, syn_rows, circuits,
                                        targets, steps):
                eff = eff_x[c] if r.sign == "x" else eff_i[c]
                listeners.setdefault((r.source, s.address), []).append(
                    (int(u), r.sign == "x", float(step * eff)))

        emitters += [(h, e) for e in cfg.emitters]

    def stacked(name, dtype=float):
        return np.concatenate([np.empty(0, dtype)] + [c[name] for c in columns])

    params = UnitParams(**{f.name: stacked(f.name) for f in fields(UnitParams)})

    listeners = {key: Listeners(np.array([u for u, _, _ in ls], dtype=np.int64),
                                np.array([x for _, x, _ in ls], dtype=bool),
                                np.array([a for _, _, a in ls], dtype=float))
                 for key, ls in listeners.items()}
    fed = [(int(unit_of[h][e.circuit]),
            listeners.get((e.channel, e.address), _NO_LISTENERS)) for h, e in emitters]
    pre = np.repeat(np.array([u for u, _ in fed], dtype=np.int64),
                    [ls.unit.shape[0] for _, ls in fed])
    post, is_x, amount = _concat_listeners([ls for _, ls in fed])
    rec = {sign: SynapticMatrix.from_triplets(n, pre[m], post[m], amount[m])
           if m.any() else None for sign, m in (("x", is_x), ("i", ~is_x))}

    return CompiledNetwork(params=params, unit_hicann=stacked("hicann", np.int64),
                           unit_head=stacked("head", np.int64), unit_of=unit_of,
                           recurrent_x=rec["x"], recurrent_i=rec["i"],
                           listeners=listeners)


def _concat_listeners(lists) -> Listeners:
    """Listener arrays one after another."""
    return Listeners(*(np.concatenate(cols) for cols in zip(_NO_LISTENERS, *lists)))


@dataclass
class SimResult:
    compiled: CompiledNetwork
    engine: EngineResult
    duration: float

    @cached_property
    def trains(self) -> list[np.ndarray]:
        """Spike times of each unit, in raster order."""
        units = self.engine.spike_units
        order = np.argsort(units, kind="stable")
        ends = np.searchsorted(units[order],
                               np.arange(1, self.compiled.params.n_units))
        return np.split(self.engine.spike_times[order], ends)

    @cached_property
    def trace_row(self) -> dict[int, int]:
        """Row of ``engine.v`` that holds each recorded unit's trace."""
        return {u: row for row, u in enumerate(self.engine.record_units.tolist())}

    def raster(self) -> dict[Coord, np.ndarray]:
        """Spike times per unit head."""
        net = self.compiled
        return {Coord.neuron(int(h), int(n)): ts for h, n, ts
                in zip(net.unit_hicann, net.unit_head, self.trains)}


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

    ``stimulus`` holds ``((channel, address), t)`` pairs or
    ``(channel, address, t)`` triples. ``trace_circuits`` limits
    membrane-trace storage (not the physics) to the units containing the
    given neuron coords; pass "all" to keep every unit.
    ``v_init`` is "reset" (power-on state), "rest" (membranes settled before
    the experiment starts, as on continuously running hardware), or an array.
    """
    net = compile_network(wafer, configs, availability)
    lists, times = [], []
    for item in stimulus or ():
        (channel, address), t = (item[:2], item[2]) if len(item) == 3 else item
        lists.append(net.listeners.get((str(channel), int(address)), _NO_LISTENERS))
        times.append(t)
    units, is_x, amounts = _concat_listeners(lists)
    times = np.repeat(np.array(times, dtype=float), [ls.unit.shape[0] for ls in lists])
    ev = {sign: EventQueue.from_times(times[m], units[m], amounts[m], dt)
          for sign, m in (("x", is_x), ("i", ~is_x))}

    n = net.params.n_units
    if trace_circuits == "all":
        trace_units = np.arange(n, dtype=np.int64)
    else:
        trace_units = np.asarray(sorted({net.unit(c) for c in trace_circuits}),
                                 dtype=np.int64)

    if isinstance(v_init, str):
        if v_init == "rest":
            v0 = resting_potential(net.params)
        elif v_init == "reset":
            v0 = net.params.v_reset.copy()
        else:
            raise ValueError(f"unknown v_init {v_init!r}")
    else:
        v0 = _as_f64(v_init, n)
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


def _integrate_stacked(runs, duration: float, dt: float) -> EngineResult:
    """Integrate runs as one block-diagonal network in one ``integrate``
    call: unit parameters concatenated, event, connection and trace units
    offset."""
    starts = np.cumsum([0] + [r.compiled.params.n_units for r in runs])
    n = int(starts[-1])
    params = UnitParams(**{f.name: np.concatenate(
        [getattr(r.compiled.params, f.name) for r in runs])
        for f in fields(UnitParams)})
    return integrate(
        params, duration, dt,
        events_x=_stack_events([r.events_x for r in runs], starts),
        events_i=_stack_events([r.events_i for r in runs], starts),
        recurrent_x=_stack_matrices([r.compiled.recurrent_x for r in runs], starts, n),
        recurrent_i=_stack_matrices([r.compiled.recurrent_i for r in runs], starts, n),
        record_units=np.concatenate([r.trace_units + s for r, s in zip(runs, starts)]),
        v_init=np.concatenate([r.v0 for r in runs]))


def simulate_batch(runs) -> list[SimResult]:
    """Integrate prepared runs of one duration and step.

    Each run that ``scannable`` accepts goes through ``integrate_scan`` on
    its own; the others through ``_integrate_stacked``. Each ``SimResult``
    holds its solver's own result in the run's own unit numbering: a
    scanned run's trace array is the one ``integrate_scan`` built, and a
    stacked run's rows and raster are cut from the network's result (its
    rows are views of the network's trace array).
    """
    runs = list(runs)
    if not runs:
        return []
    duration, dt = runs[0].duration, runs[0].dt
    if any(r.duration != duration or r.dt != dt for r in runs):
        raise ValueError("runs in one batch must share duration and dt")
    n_steps = int(round(duration / dt))
    scanned = [scannable(r.compiled.params, r.v0, dt, n_steps, r.events_x,
                         r.events_i, r.compiled.recurrent_x, r.compiled.recurrent_i)
               for r in runs]
    stacked = [r for r, s in zip(runs, scanned) if not s]
    network = _integrate_stacked(stacked, duration, dt) if stacked else None

    out = []
    lo = row = 0  # the next stacked run's first unit and trace row
    for r, scan in zip(runs, scanned):
        if scan:
            engine = integrate_scan(r.compiled.params, duration, dt,
                                    events_x=r.events_x, events_i=r.events_i,
                                    record_units=r.trace_units, v_init=r.v0)
        else:
            hi, rows = lo + r.compiled.params.n_units, row + r.trace_units.shape[0]
            own = (network.spike_units >= lo) & (network.spike_units < hi)
            engine = EngineResult(dt=dt, n_steps=n_steps,
                                  record_units=r.trace_units, t=network.t,
                                  v=network.v[row:rows],
                                  spike_units=network.spike_units[own] - lo,
                                  spike_times=network.spike_times[own])
            lo, row = hi, rows
        out.append(SimResult(compiled=r.compiled, engine=engine,
                             duration=duration))
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
    # spike times per unit head; filled by run_experiment, not by readout
    raster: dict[Coord, np.ndarray] = field(default_factory=dict)


def _recordings(record) -> list:
    """``record`` as a list, if the readout can sample that many traces."""
    record = list(record)
    if len(record) > READOUT_TRACES:
        raise RecordingLimitError(f"{len(record)} recordings requested, "
                                  f"readout supports {READOUT_TRACES}")
    return record


def readout(wafer: WaferModel, sim: SimResult, record, token=0) -> ExperimentResult:
    """Digitize up to 12 membrane traces of a finished simulation."""
    record = _recordings(record)
    adc_dt = adc_sample_period(wafer)
    n_samples = int(np.floor(sim.duration / adc_dt)) + 1
    t_adc = np.arange(n_samples) * adc_dt

    by_hicann: dict[int, list[tuple[Coord, int]]] = {}
    for coord in record:
        by_hicann.setdefault(coord.indices[0], []).append(
            (coord, sim.compiled.unit(coord)))

    traces: dict[Coord, np.ndarray] = {}
    for h in sorted(by_hicann):
        pairs = by_hicann[h]
        raw = np.empty((len(pairs), n_samples))
        for i, (coord, u) in enumerate(pairs):
            row = sim.trace_row.get(u)
            if row is None:
                raise ValueError(f"no trace stored for {coord}")
            raw[i] = np.interp(t_adc, sim.engine.t, sim.engine.v[row])
        circuits = [c.indices[1] for c, _ in pairs]
        quantized = adc_readout(wafer, h, circuits, raw, token)
        traces.update(zip((c for c, _ in pairs), quantized))

    return ExperimentResult(duration=sim.duration, adc_dt=adc_dt, t=t_adc,
                            traces=traces)


def run_experiment(wafer: WaferModel, configs, stimulus, duration_bio: float,
                   record, *, dt: float = DEFAULT_DT, token=0,
                   availability=None, v_init="reset") -> ExperimentResult:
    """One-shot experiment: integrate, then read out ``record`` (≤ 12)."""
    record = _recordings(record)  # refused before integrating
    sim = simulate(wafer, configs, stimulus, duration_bio, dt=dt,
                   trace_circuits=record, availability=availability,
                   v_init=v_init)
    result = readout(wafer, sim, record, token)
    result.raster = sim.raster()
    return result


def write_trace_csv(path, result: ExperimentResult, coord: Coord) -> None:
    data = np.column_stack([result.t, result.traces[coord]])
    header = "time_bio_s,volts"
    np.savetxt(path, data, delimiter=",", header=header, comments="")
