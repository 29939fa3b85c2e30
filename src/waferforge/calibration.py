"""Measurement-driven calibration of the analog neuron circuits.

Every analog parameter reaches the neuron through an uncharacterized
transfer (voltage gain/offset, current-to-time laws, amplifier bias
points), so each circuit gets a measured transfer model instead of the
design equation. The ops in this module each run one sweep: program the
floating gates, run the network, digitize traces or collect spikes,
reduce to an observable, and fit a small model per circuit. ``OPS``
declares each op once, in the order ``calibrate_hicann`` runs them, and
names its body: the private function that measures and fits the op over a
scope and returns its entry rows. One driver, ``_calibrate``, runs every
op: each public op function is one call to it, which takes the op's scope,
runs the body and stores the rows. ``CALIBRATION_ORDER``, ``REQUIRES`` and
``DEFAULT_PLANS`` come from ``OPS``.

Sweep plans and ``BASE_SETTINGS`` are codes of the reference module's DAC
(``wafer.REFERENCE_DAC_MAX``); every op rescales them to the topology's DAC. A
cell's layout, block sharing and nominal unit come from ``wafer.FG_CELLS``
and the cell behind each time constant from ``wafer.CONTROL_CELL``.

Measurements respect the instrument limits: at most 12 traces per
readout pass (one simulation is digitized in as many passes as needed)
and repeated stimulus presentations are averaged on the ADC grid before
fitting. A PSP is fitted with its onset pinned to the integration
boundary that delivers the stimulus spike, which the op knows from its
schedule. ADC noise is keyed per circuit and every line is fitted per
row, so an entry depends on the rest of an op's scope only where the op
measures against it: readout_shift (readout group), v_reset (FG block).
``calibrate_hicann`` splits each op's scope along those groups and runs
the parts in forked worker processes. An op's FG writes are the same for
any scope, so every part makes the same writes and a worker sends back
its entries only.
An op raises CalibrationOrderError unless the ops it requires ran first
(e.g. refractory times need reset, threshold and leak).

Sweeps whose points store few or no traces (the rest sweeps of e_leak,
e_syni and v_convoffx/i; each i_pulse repetition) integrate once per
sweep pass: every point is programmed and prepared in the usual write
order, all points run as one block-diagonal network, and each point is
read out under its own noise token, so the results are those of one
integration per point. The PSP sweeps (i_gl, v_syntcx/i, e_synx) and
the spiking sweeps (v_reset, v_threshold) keep one integration per point
and reduce each point before the next runs: their full-length traces
would make a batched sweep hold K times the memory of one point. A PSP
point's threshold sits above every reversal potential, so it cannot
spike and ``simulate_batch`` solves it as a prefix scan instead of a
step loop.

Results live in a CalibrationDb: one entry per (coordinate, parameter)
with the model name, coefficients, a reduced chi-square and a validity
flag. v_reset's entry is keyed by the circuit's FG block, every other
entry by the circuit itself (`_entry_coord`). `to_hardware` inverts
entries into DAC values for target voltages (hardware volts) and time
constants (biological seconds), clamping to the DAC range and reporting
it. `calibration_exclusion` folds circuits that failed any step back
into the availability states.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass, field
from typing import BinaryIO, Callable

import numpy as np

from .availability import AvailabilityDb
from .commissioning import effective_exclusion
from .dynamics import EventQueue
from .experiment import (DEFAULT_DT, READOUT_TRACES, HicannConfig, RowSpec,
                         SynapseSpec, prepare, readout, simulate, simulate_batch)
from .fitting import fit_linear, fit_psp_batch, fit_softplus
from .psp import psp_model_batch, smooth3
from .topology import Coord, Kind, TopologyConfig, check_schema
from .wafer import (CONTROL_CELL, FG_CELLS, WaferModel, adc_sample_period, cell_index,
                    dac_to_unit, from_reference_dac, inverse_softplus_tau,
                    program_floating_gates, softplus_tau)

SCHEMA = "waferforge.calibration/1"

# v_convoff: one grid step below the transition already leaks >100 mV, so
# the rest tolerance only has to clear the write/readout noise of two points
CONVOFF_TOL = 2.5e-2
CONVOFF_MARGIN_STEPS = 1

# digital weight of the single synapse behind each e_synx PSP
E_SYNX_WEIGHT = 9

# every PSP sweep drives its synapses at this gmax divisor and vgmax palette
# entry, with the stimulus spike of each presentation half an integration
# step past PSP_SPIKE_AT into its window
PSP_GMAX_DIV = 11
PSP_VGMAX_SEL = 0
PSP_SPIKE_AT = 0.01

# a fit whose reduced chi-square reaches this limit is not valid, and
# calibration_exclusion drops any circuit whose entries reach it
RED_CHI2_MAX = 10.0

# full floating-gate context written before every sweep, in reference-DAC
# codes; per-plan settings override individual cells. v_convoff* high =
# input amplifiers off.
BASE_SETTINGS = {
    "e_leak": 455, "v_threshold": 1023, "e_synx": 796, "e_syni": 114,
    "v_syntcx": 625, "v_syntci": 625, "v_convoffx": 1023, "v_convoffi": 1023,
    "i_gl": 400, "i_pulse": 1023, "v_reset": 355,
    "vgmax": (800, 800, 800, 800),
}


class CalibrationOrderError(RuntimeError):
    """An op ran before the entries it builds on existed."""


class RangeError(ValueError):
    """A target cannot be expressed through the calibrated model."""


@dataclass
class CalibrationEntry:
    coord: Coord
    parameter: str
    model: str  # constant | linear | reciprocal | softplus
    coeffs: tuple
    red_chi2: float
    valid: bool

    def to_json(self) -> dict:
        return {"coord": self.coord.to_json(),
                "parameter": self.parameter, "model": self.model,
                "coeffs": [float(c) for c in self.coeffs],
                "red_chi2": float(self.red_chi2), "valid": bool(self.valid)}

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationEntry":
        """Refuse an entry that no op writes: an unknown parameter, another
        model than its op's, or a coordinate of another kind than
        :func:`_entry_coord`'s."""
        param, model = data["parameter"], data["model"]
        if data["coord"] is None:
            raise ValueError(f"{param!r} entry without a coordinate")
        if param not in _OP:
            raise ValueError(f"unknown calibration parameter {param!r}")
        if model != _OP[param].model:
            raise ValueError(f"{param!r} entry with model {model!r}, "
                             f"not {_OP[param].model!r}")
        coord = Coord.from_json(data["coord"])
        kind = Kind.FG_BLOCK if _block_keyed(param) else Kind.NEURON
        if coord.kind != kind:
            raise ValueError(f"{param!r} entry at {coord}, not at a {kind.value}")
        return cls(coord, param, model, tuple(data["coeffs"]), data["red_chi2"],
                   data["valid"])


@dataclass
class SweepPlan:
    """One calibration sweep: FG points, fixed context and timing."""

    parameter: str
    dac_values: tuple
    settings: dict = field(default_factory=dict)
    duration: float = 0.05  # biological seconds per run
    repetitions: int = 1  # full FG rewrites per sweep point
    presentations: int = 1  # averaged stimulus windows (PSP sweeps)
    window: float = 0.0  # seconds per presentation (PSP sweeps)
    aux_values: tuple = ()  # secondary sweep axis where an op needs one


@dataclass(frozen=True)
class CalibrationOp:
    """One calibration op, declared once in ``OPS``."""

    name: str  # names its entries, and its plan's parameter
    function: str  # the public function that runs it
    arg: str | None  # passed to ``function`` after ``h``, unless None
    requires: tuple  # ops whose valid entries a circuit needs first
    model: str  # of its entries: constant | linear | reciprocal | softplus
    plan: SweepPlan
    # measures and fits the op: (wafer, db, h, op, scope, plan, availability)
    # -> its entry rows (indices, coeffs, red_chi2, valid), which _calibrate stores
    body: Callable
    invertible: bool = True  # whether to_hardware inverts its entries


class CalibrationDb:
    """Fitted transfer models of one wafer, keyed (coordinate, parameter)."""

    def __init__(self, master_seed: int | None = None):
        self.master_seed = master_seed
        self._entries: dict[tuple, CalibrationEntry] = {}

    def add(self, entry: CalibrationEntry) -> None:
        self._entries[(entry.coord, entry.parameter)] = entry

    def has(self, coord: Coord, parameter: str) -> bool:
        """Whether a valid entry exists."""
        e = self._entries.get((coord, parameter))
        return e is not None and e.valid

    def entry(self, coord: Coord, parameter: str) -> CalibrationEntry:
        key = (coord, parameter)
        if key not in self._entries:
            raise KeyError(f"no calibration of {parameter!r} for {coord}")
        return self._entries[key]

    def coeffs(self, coord: Coord, parameter: str) -> tuple:
        return self.entry(coord, parameter).coeffs

    def entries(self, parameter: str | None = None) -> list[CalibrationEntry]:
        out = [e for e in self._entries.values()
               if parameter is None or e.parameter == parameter]
        return sorted(out, key=lambda e: (e.parameter, e.coord.sort_key()))

    def __len__(self) -> int:
        return len(self._entries)

    def to_json(self) -> dict:
        return {"schema": SCHEMA, "master_seed": self.master_seed,
                "entries": [e.to_json() for e in self.entries()]}

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationDb":
        check_schema(data.get("schema"), SCHEMA)
        db = cls(data.get("master_seed"))
        for e in data["entries"]:
            db.add(CalibrationEntry.from_json(e))
        return db

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=1, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "CalibrationDb":
        with open(path) as f:
            return cls.from_json(json.load(f))


# ---------------------------------------------------------------------------
# measurement scaffolding

def _bind(db: CalibrationDb, wafer: WaferModel) -> None:
    if db.master_seed is None:
        db.master_seed = wafer.master_seed
    elif db.master_seed != wafer.master_seed:
        raise ValueError("calibration database belongs to a different wafer")


def _op_scope(wafer: WaferModel, db: CalibrationDb, h: int, parameter: str,
              availability, neurons) -> tuple[SweepPlan, list[int]]:
    """An op's plan, rescaled to the topology's DAC, and the circuits it
    calibrates: those of ``neurons``
    (default: all) that ``availability`` keeps usable and that hold every
    valid prerequisite entry."""
    cfg = wafer.topology
    scope = _circuits(cfg, neurons)
    if availability is not None:
        scope = scope[~availability.read_mask(Kind.NEURON)[h, scope]]
    op = _OP[parameter]
    kept = scope
    for req in op.requires:
        has = [db.has(_entry_coord(cfg, h, n, req), req) for n in kept.tolist()]
        kept = kept[np.array(has, dtype=bool)]
    if scope.size and not kept.size:
        raise CalibrationOrderError(
            f"{parameter!r} needs valid "
            f"{', '.join(op.requires)} entries first")
    return _rescaled(cfg, op.plan), kept.tolist()


def _circuits(cfg: TopologyConfig, neurons) -> np.ndarray:
    """``neurons`` (default: all) as circuit indices of a hicann; raises
    ValueError for one outside it."""
    scope = np.arange(cfg.neurons_per_hicann) if neurons is None \
        else np.fromiter(neurons, dtype=np.int64)
    if np.any((scope < 0) | (scope >= cfg.neurons_per_hicann)):
        raise ValueError(f"circuits of a hicann are 0..{cfg.neurons_per_hicann - 1}")
    return scope


def _rescaled(cfg: TopologyConfig, plan: SweepPlan) -> SweepPlan:
    """``plan`` with every DAC code rescaled to the topology's DAC."""
    return dataclasses.replace(
        plan, dac_values=from_reference_dac(cfg, plan.dac_values),
        aux_values=from_reference_dac(cfg, plan.aux_values),
        settings={k: from_reference_dac(cfg, v) for k, v in plan.settings.items()})


def _write_sigma(cfg: TopologyConfig) -> float:
    """Per-point voltage error of a sweep: every point costs one FG write
    cycle, whose ~2 LSB of noise on the cell dominates the budget."""
    return 2.0 * cfg.dac_voltage_max / cfg.dac_max


def _offsets(db: CalibrationDb, h: int, circuits) -> np.ndarray:
    return np.array([db.coeffs(Coord.neuron(h, n), "readout_shift")[0] for n in circuits])


def _read_corrected(wafer: WaferModel, sim, h: int, circuits, offsets,
                    token) -> np.ndarray:
    """Digitized membrane traces in membrane volts, readout shift removed."""
    coords = [Coord.neuron(h, n) for n in circuits]
    n_samples = int(np.floor(sim.duration / adc_sample_period(wafer))) + 1
    out = np.empty((len(coords), n_samples))
    for b in range(0, len(coords), READOUT_TRACES):
        block = coords[b:b + READOUT_TRACES]
        traces = readout(wafer, sim, block, token=token).traces
        out[b:b + len(block)] = [traces[c] for c in block]
    out *= wafer.variability.adc_divider
    if offsets is not None:
        out -= np.asarray(offsets)[:, None]
    return out


def _program_context(wafer: WaferModel, h: int, plan: SweepPlan,
                     extra: dict) -> None:
    """Write the base context, then the rescaled ``plan``'s settings, then
    ``extra`` (topology codes)."""
    values = {k: from_reference_dac(wafer.topology, v) for k, v in BASE_SETTINGS.items()}
    values.update(plan.settings)
    values.update(extra)
    program_floating_gates(wafer, h, values)


def _standalone_config(h: int, circuits, rows=(), synapses=()) -> HicannConfig:
    return HicannConfig(hicann=h, enabled=list(circuits), rows=list(rows),
                        synapses=list(synapses))


def _rest_sweep(wafer, db, h, circuits, plan, *, sign=None,
                stimulus=(), tail=0.5, availability=None) -> np.ndarray:
    """Resting potential per (sweep point, circuit), corrected volts.

    With ``sign``, each circuit receives ``stimulus`` through one synapse of
    that sign at full weight (15) and the smallest gmax divisor.
    """
    offsets = _offsets(db, h, circuits)
    cfg = _standalone_config(h, circuits) if sign is None else \
        _standalone_config(h, circuits, rows=_psp_rows(wafer, sign, 1, 0),
                           synapses=_psp_synapses(wafer, circuits, 15))
    runs = []
    for dac in plan.dac_values:
        _program_context(wafer, h, plan, {plan.parameter: dac})
        runs.append(prepare(wafer, [cfg], stimulus, plan.duration,
                            v_init="rest", availability=availability))
    rests = np.empty((len(plan.dac_values), len(circuits)))
    for k, sim in enumerate(simulate_batch(runs)):
        v = _read_corrected(wafer, sim, h, circuits, offsets,
                            (plan.parameter, k))
        rests[k] = v[:, int(v.shape[1] * (1.0 - tail)):].mean(axis=1)
    return rests


def _psp_rows(wafer, sign, gmax_div, vgmax_sel):
    rpa = wafer.topology.driven_rows_per_array
    return [RowSpec(row=a * rpa, sign=sign, source="cal", gmax_div=gmax_div,
                    vgmax_sel=vgmax_sel) for a in range(
                        wafer.topology.arrays_per_hicann)]


def _psp_synapses(wafer, circuits, weight):
    cols = wafer.topology.columns_per_array
    rpa = wafer.topology.driven_rows_per_array
    return [SynapseSpec(row=(n // cols) * rpa, col=n % cols, weight=weight,
                        address=0) for n in circuits]


def _psp_windows(wafer, db, h, circuits, plan, extra, *, token, sign="x", weight=12,
                 availability=None):
    """Averaged single-PSP windows: (window time base, traces (n, S), PSP
    onset in a window: the boundary ``EventQueue.from_times`` delivers the
    spike at). Each spike sits half a step past a boundary, so no rounding
    moves it; presentations at different offsets would blur the average."""
    dt = adc_sample_period(wafer)
    steps, s = plan.window / DEFAULT_DT, plan.window / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("presentation window must be whole integration steps")
    if abs(s - round(s)) > 1e-9:
        raise ValueError("presentation window must align with the ADC grid")
    steps, s = int(round(steps)), int(round(s))
    k = np.arange(plan.presentations)
    times = (round(PSP_SPIKE_AT / DEFAULT_DT) + k * steps + 0.5) * DEFAULT_DT
    # presentation k sits k * steps boundaries after the first, so it lands
    # at the first one's offset of its window
    onset_step = EventQueue.from_times(times[:1], [0], [1.0], DEFAULT_DT).boundary[0]
    offsets = _offsets(db, h, circuits)
    _program_context(wafer, h, plan, extra)
    cfg = _standalone_config(h, circuits,
                             rows=_psp_rows(wafer, sign, PSP_GMAX_DIV, PSP_VGMAX_SEL),
                             synapses=_psp_synapses(wafer, circuits, weight))
    stimulus = [("cal", 0, float(t)) for t in times]
    sim = simulate(wafer, [cfg], stimulus, plan.presentations * plan.window,
                   v_init="rest", availability=availability)
    v = _read_corrected(wafer, sim, h, circuits, offsets, token)
    v = v[:, :plan.presentations * s]
    v = v.reshape(len(circuits), plan.presentations, s).mean(axis=1)
    return np.arange(s) * dt, v, onset_step * DEFAULT_DT


def _block_keyed(parameter: str) -> bool:
    """Whether ``parameter`` is a cell its FG block shares, so that its
    entries are keyed by block."""
    return parameter in FG_CELLS and FG_CELLS[parameter].shared


def _entry_coord(cfg: TopologyConfig, h: int, n: int, parameter: str) -> Coord:
    """The coordinate holding circuit ``n``'s ``parameter`` entry: the FG
    block for a cell the block shares, the circuit itself otherwise."""
    if _block_keyed(parameter):
        return Coord.fg_block(h, n // cfg.neurons_per_fg_block)
    return Coord.neuron(h, n)


def _add_entries(db, h, op, indices, coeff_rows, red, valid):
    """Store one entry of ``op`` per circuit of ``indices`` on hicann ``h``
    (per FG block for a block-keyed op)."""
    coord = Coord.fg_block if _block_keyed(op.name) else Coord.neuron
    red = np.broadcast_to(np.asarray(red, dtype=float), (len(indices),))
    valid = np.broadcast_to(np.asarray(valid, dtype=bool), (len(indices),))
    entries = [CalibrationEntry(coord(h, n), op.name, op.model,
                                tuple(float(v) for v in np.atleast_1d(coeff_rows[i])),
                                float(red[i]), bool(valid[i]))
               for i, n in enumerate(indices)]
    for e in entries:
        db.add(e)
    return entries


def _line_fit(indices, plan, y, sigma, ok=True):
    """Entry rows of one line per row of ``y`` (n, points) against the
    plan's DAC codes.

    A line is valid if ``ok`` holds, it rises, its reduced chi-square is
    below RED_CHI2_MAX and every point is finite. Non-finite coefficients
    are stored as numbers and a NaN chi-square as inf.
    """
    slope, icpt, red = fit_linear(np.array(plan.dac_values, float), y, sigma=sigma)
    valid = ok & (slope > 0) & (red < RED_CHI2_MAX) & np.isfinite(y).all(axis=1)
    return (indices, np.column_stack([np.nan_to_num(slope), np.nan_to_num(icpt)]),
            np.nan_to_num(red, nan=np.inf, posinf=np.inf), valid)


# ---------------------------------------------------------------------------
# per-parameter ops: each public function is one _calibrate call, which runs
# the body that its OPS record names

def calibrate_readout_shift(wafer: WaferModel, db: CalibrationDb, h: int, *,
                            availability=None, neurons=None):
    """Offset of each circuit's readout chain.

    All circuits of a neuron block are shorted into one membrane, so every
    member reads the same physical voltage; per-circuit deviations from
    the block mean are pure readout offsets (up to the unknowable common
    mode of each block).
    """
    return _calibrate(wafer, db, h, "calibrate_readout_shift", None, availability, neurons)


def _calibrate_readout_shift(wafer, db, h, op, scope, plan, availability):
    groups: dict[int, list[int]] = {}
    for n in scope:
        groups.setdefault(n // wafer.topology.neuron_block_size, []).append(n)
    _program_context(wafer, h, plan, {"e_leak": plan.dac_values[0]})
    cfg = HicannConfig(hicann=h, enabled=scope,
                       membrane_groups=[g for g in groups.values()])
    sim = simulate(wafer, [cfg], (), plan.duration, v_init="rest",
                   availability=availability)
    v = _read_corrected(wafer, sim, h, scope, None, (op.name,))
    m = v[:, int(v.shape[1] * 0.4):].mean(axis=1)
    offsets = np.empty(len(scope))
    pos = {n: i for i, n in enumerate(scope)}
    for members in groups.values():
        idx = [pos[n] for n in members]
        offsets[idx] = m[idx] - m[idx].mean()
    return scope, offsets[:, None], 0.0, True


def calibrate_voltage(wafer: WaferModel, db: CalibrationDb, h: int,
                      parameter: str, *, availability=None, neurons=None):
    """Linear DAC-to-volts models from direct observables.

    e_leak reads the resting potential. e_syni rails the membrane onto
    the inhibitory reversal with a strong regular spike train (the input
    amplifier saturates, so the rest settles next to the reversal
    itself). v_threshold extrapolates each spike's last clean pre-reset
    samples to the digital spike time. v_reset takes the trace median
    (the reset plateau dominates a refractory-heavy cycle) and fits per
    FG block, since the cell is shared.
    """
    return _calibrate(wafer, db, h, "calibrate_voltage", parameter, availability, neurons)


def _spiking_sweep(wafer, db, h, scope, plan, *, availability):
    """Yield (k, corrected traces, spike rasters) one sweep point at a time.

    Each point is programmed and integrated only when the caller asks for
    it, so the caller reduces one point before the next one runs.
    """
    offsets = _offsets(db, h, scope)
    cfg = _standalone_config(h, scope)
    for k, dac in enumerate(plan.dac_values):
        _program_context(wafer, h, plan, {plan.parameter: dac})
        sim = simulate(wafer, [cfg], (), plan.duration, v_init="rest",
                       availability=availability)
        yield (k, _read_corrected(wafer, sim, h, scope, offsets,
                                  (plan.parameter, k)),
               [sim.trains[u] for u in sim.compiled.unit_of[h][scope]])


def _calibrate_v_reset(wafer, db, h, op, scope, plan, availability):
    plateau = np.full((len(plan.dac_values), len(scope)), np.nan)
    for k, v, rasters in _spiking_sweep(wafer, db, h, scope, plan,
                                        availability=availability):
        med = np.median(v, axis=1)
        counts = np.array([len(ts) for ts in rasters])
        plateau[k, counts >= 5] = med[counts >= 5]

    blocks, member = np.unique(np.asarray(scope) // wafer.topology.neurons_per_fg_block,
                               return_inverse=True)
    total, count = np.zeros((2, len(blocks), len(plan.dac_values)))
    np.add.at(total, member, np.nan_to_num(plateau.T))
    np.add.at(count, member, ~np.isnan(plateau.T))
    with np.errstate(invalid="ignore"):
        y = total / count  # each block's mean plateau, NaN if none spiked
    return _line_fit(blocks, plan, y, float(np.hypot(_write_sigma(wafer.topology), 2.5e-3)))


def _calibrate_v_threshold(wafer, db, h, op, scope, plan, availability):
    dt_adc = adc_sample_period(wafer)
    peaks = np.full((len(plan.dac_values), len(scope)), np.nan)
    for k, v, rasters in _spiking_sweep(wafer, db, h, scope, plan,
                                        availability=availability):
        t_adc = np.arange(v.shape[1]) * dt_adc
        for i in range(len(scope)):
            ts = rasters[i][2:]  # skip the settling spikes
            ks = np.searchsorted(t_adc, ts - DEFAULT_DT) - 1
            good = ks >= 2
            ks, tsg = ks[good], ts[good]
            if ks.size < 3:
                continue
            d = tsg - t_adc[ks]
            vk, vk1, vk2 = v[i, ks], v[i, ks - 1], v[i, ks - 2]
            slope = (vk - vk1) / dt_adc
            curv = (vk - 2 * vk1 + vk2) / dt_adc ** 2
            # extrapolate the last clean samples to the digital spike time
            peaks[k, i] = np.mean(vk + slope * d + 0.5 * curv * d * d)

    return _line_fit(scope, plan, peaks.T, float(np.hypot(_write_sigma(wafer.topology), 1.5e-3)))


def _calibrate_e_leak(wafer, db, h, op, scope, plan, availability):
    rests = _rest_sweep(wafer, db, h, scope, plan, availability=availability)
    return _line_fit(scope, plan, rests.T, _write_sigma(wafer.topology))


def _calibrate_e_syni(wafer, db, h, op, scope, plan, availability):
    # the rest under a regular 4 kHz train
    stim = [("cal", 0, t) for t in np.arange(5e-4, plan.duration, 1 / 4000.0)]
    rests = _rest_sweep(wafer, db, h, scope, plan, sign="i", stimulus=stim, tail=0.33,
                        availability=availability)
    return _line_fit(scope, plan, rests.T, _write_sigma(wafer.topology))


def calibrate_i_pulse(wafer: WaferModel, db: CalibrationDb, h: int, *,
                      availability=None, neurons=None):
    """Refractory time vs pulse current, fitted as tau = (1/I - c0)/c1.

    The refractory part of a spike cycle is the inter-spike interval
    minus the interval at maximum pulse current (where the circuit's
    dead time is negligible); the subtraction removes the rise time,
    which is identical across the sweep. The maximum-current point
    anchors each rewrite repetition and is excluded from the fit.
    """
    return _calibrate(wafer, db, h, "calibrate_i_pulse", None, availability, neurons)


def _calibrate_i_pulse(wafer, db, h, op, scope, plan, availability):
    anchor = int(np.argmax(plan.dac_values))
    cfg = _standalone_config(h, scope)
    taus, x = [], []
    for rep in range(plan.repetitions):
        runs = []
        for k, dac in enumerate(plan.dac_values):
            if k == 0:
                _program_context(wafer, h, plan, {op.name: dac})
            else:  # only the swept cells move within one repetition
                program_floating_gates(wafer, h, {op.name: dac})
            runs.append(prepare(wafer, [cfg], (), plan.duration, v_init="rest",
                                trace_circuits=[], availability=availability))
        isis = np.full((len(plan.dac_values), len(scope)), np.nan)
        for k, sim in enumerate(simulate_batch(runs)):
            for i, u in enumerate(sim.compiled.unit_of[h][scope]):
                ts = sim.trains[u]
                if ts.size >= 6:
                    isis[k, i] = np.diff(ts).mean()
        ref = isis[anchor]
        for k, dac in enumerate(plan.dac_values):
            if k == anchor:
                continue
            taus.append(isis[k] - ref)
            x.append(1.0 / dac_to_unit(wafer.topology, op.name, dac))
    y = np.stack(taus, axis=1)  # (n, points)
    x = np.array(x)
    # budget: release quantisation plus FG write noise on the current cell
    slope, icpt, red = fit_linear(x, y, sigma=1e-4)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = 1.0 / slope
        c0 = -icpt * c1
    valid = (slope > 0) & (red < RED_CHI2_MAX) & ~np.isnan(y).any(axis=1)
    coeffs = np.column_stack([np.nan_to_num(c0), np.nan_to_num(c1)])
    return scope, coeffs, np.nan_to_num(red, nan=np.inf), valid


def calibrate_v_convoff(wafer: WaferModel, db: CalibrationDb, h: int,
                        side: str, *, availability=None, neurons=None):
    """Input-amplifier bias: first DAC whose rest matches the top of the
    sweep, i.e. the permanent leak through the amplifier has vanished.

    The stored programming value sits ``CONVOFF_MARGIN_STEPS`` grid points
    above the detected transition so that FG write noise cannot push a
    circuit back below it. Entry coefficients: (programming DAC, transition DAC).
    """
    return _calibrate(wafer, db, h, "calibrate_v_convoff", side, availability, neurons)


def _calibrate_v_convoff(wafer, db, h, op, scope, plan, availability):
    rests = _rest_sweep(wafer, db, h, scope, plan, availability=availability)
    ok = np.abs(rests - rests[-1]) < CONVOFF_TOL
    sustained = np.flip(np.logical_and.accumulate(np.flip(ok, 0), 0), 0)
    idx = np.argmax(sustained, axis=0)
    valid = idx <= len(plan.dac_values) - 2  # the top point alone proves nothing
    dacs = np.array(plan.dac_values, float)
    prog = dacs[np.minimum(idx + CONVOFF_MARGIN_STEPS, len(dacs) - 1)]
    return scope, np.column_stack([prog, dacs[idx]]), 0.0, valid


def _convoff_array(wafer, db, h, parameter, scope):
    """Programming points of the valid entries in ``scope``, the DAC ceiling
    (amplifier off) for every other circuit."""
    cfg = wafer.topology
    out = np.full(cfg.neurons_per_hicann, float(cfg.dac_max))
    for n in scope:
        if db.has(Coord.neuron(h, n), parameter):
            out[n] = db.coeffs(Coord.neuron(h, n), parameter)[0]
    return out


def _input_amplifier(wafer, db, h, op) -> tuple[str, dict]:
    """The side of the input amplifier ``op`` requires calibrated, and the
    FG context that programs that amplifier from every valid entry of the
    hicann, so that the write is the same for any scope of ``op``."""
    convoff = next(r for r in op.requires if r in _CONVOFF_OPS)
    return _OP[convoff].arg, {convoff: _convoff_array(
        wafer, db, h, convoff, range(wafer.topology.neurons_per_hicann))}


def calibrate_tau(wafer: WaferModel, db: CalibrationDb, h: int,
                  parameter: str, *, availability=None, neurons=None):
    """Softplus time-constant laws from single-PSP shape fits.

    i_gl sweeps the leak current and takes the larger PSP time constant
    (the membrane; the synaptic constant is pinned far below it).
    v_syntcx/i sweep the synaptic bias and take the smaller one. The law
    is fitted against the nominal DAC transfer of the swept cell (uA for
    i_gl, volts for v_syntc), so inversion needs no second hop.
    """
    return _calibrate(wafer, db, h, "calibrate_tau", parameter, availability, neurons)


def _calibrate_tau(wafer, db, h, op, scope, plan, availability):
    side, extra_conv = _input_amplifier(wafer, db, h, op)
    take_larger = op.name == CONTROL_CELL["tau_mem"]

    n_points = len(plan.dac_values)
    for k, dac in enumerate(plan.dac_values):
        extra = {plan.parameter: dac, **extra_conv}
        t_win, v, onset = _psp_windows(wafer, db, h, scope, plan, extra,
                                       sign=side, token=(op.name, k),
                                       availability=availability)
        if k == 0:
            windows = np.empty((n_points,) + v.shape)
        windows[k] = v
    # one fit for every sweep point: row k * len(scope) + i is point k of
    # circuit i
    params, _, ok = fit_psp_batch(t_win, windows.reshape(-1, t_win.size), onset)
    params = params.reshape(n_points, len(scope), -1)
    ok = ok.reshape(n_points, len(scope))
    taus = np.where(ok, params[:, :, 2 if take_larger else 3], np.nan)
    fit_ok = ok.all(axis=0)
    worst_mis = np.zeros(len(scope))
    for v, params_k in zip(windows, params):
        worst_mis = np.maximum(worst_mis, _rel_misfit(t_win, v, params_k))

    x = dac_to_unit(wafer.topology, op.name, np.array(plan.dac_values, float))
    # error budget: ~5 % relative tau extraction error per sweep point (the
    # fast end is ADC-grid limited and scatters well beyond the slow end)
    with np.errstate(all="ignore"):
        tau_scale = np.nan_to_num(np.nanmedian(taus.T, axis=1), nan=1.0)
    coeffs, red_sp, ok_sp = fit_softplus(
        x, taus.T, sigma=np.maximum(0.05 * tau_scale, 1e-9))
    # a circuit without one finite (tau, curve) point stays invalid
    with np.errstate(invalid="ignore"):
        curve = np.stack([softplus_tau(x, *c) for c in coeffs])
        sq = (taus.T / curve - 1.0) ** 2
    seen = np.isfinite(sq).any(axis=1)
    curve_mis = np.full(len(scope), np.nan)
    curve_mis[seen] = np.sqrt(np.nanmean(sq[seen], axis=1))
    valid = (fit_ok & ok_sp & (red_sp < RED_CHI2_MAX) & (worst_mis < 0.20)
             & (curve_mis < 0.15))
    return scope, np.nan_to_num(coeffs), np.nan_to_num(red_sp, nan=np.inf), valid


def _rel_misfit(t_win, v, params) -> np.ndarray:
    """PSP fit residual relative to the fitted height (saturation marker)."""
    model = psp_model_batch(t_win, params)
    with np.errstate(invalid="ignore"):
        rms = np.sqrt(np.nanmean((v - model) ** 2, axis=1))
    return rms / np.maximum(np.abs(params[:, 1]), 1e-12)


def _window_peak_heights(t_win, v, spike_at):
    """Signed PSP peak height and baseline per averaged window."""
    base_n = max(int(np.searchsorted(t_win, spike_at)) - 2, 4)
    base = v[:, :base_n].mean(axis=1)
    dev = smooth3(v - base[:, None])
    k = np.argmax(np.abs(dev[:, base_n:]), axis=1) + base_n
    h = dev[np.arange(v.shape[0]), k]
    return h, base


def calibrate_e_synx(wafer: WaferModel, db: CalibrationDb, h: int, *,
                     availability=None, neurons=None):
    """Excitatory reversal potential, measured indirectly.

    Reading the reversal directly (input amplifier forced open) clips at
    the amplifier's current limit well below the actual reversal, so the
    op instead measures PSP height at several resting potentials and
    extrapolates the height to zero: the rest where a PSP vanishes IS
    the reversal. One linear DAC model per circuit over the main sweep.
    """
    return _calibrate(wafer, db, h, "calibrate_e_synx", None, availability, neurons)


def _calibrate_e_synx(wafer, db, h, op, scope, plan, availability):
    side, extra_conv = _input_amplifier(wafer, db, h, op)
    roots = np.empty((len(plan.dac_values), len(scope)))
    slopes_ok = np.ones(len(scope), dtype=bool)
    for k, dac in enumerate(plan.dac_values):
        hs = np.empty((len(plan.aux_values), len(scope)))
        vr = np.empty_like(hs)
        for j, rest_dac in enumerate(plan.aux_values):
            t_win, v, _ = _psp_windows(wafer, db, h, scope, plan,
                                       {op.name: dac, "e_leak": rest_dac,
                                        **extra_conv},
                                       sign=side, weight=E_SYNX_WEIGHT,
                                       token=(op.name, k, j),
                                       availability=availability)
            hs[j], vr[j] = _window_peak_heights(t_win, v, PSP_SPIKE_AT)
        slope, icpt, _ = fit_linear(vr.T, hs.T)
        slopes_ok &= slope < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            roots[k] = -icpt / slope

    return _line_fit(scope, plan, roots.T, 8e-3, ok=slopes_ok)


# every op, in the order calibrate_hicann runs them
OPS = (
    # per-circuit offset of the analog readout chain
    CalibrationOp("readout_shift", "calibrate_readout_shift", None, (), "constant",
                  SweepPlan("readout_shift", (455,), duration=0.04),
                  _calibrate_readout_shift, invertible=False),
    # reset plateau (median of a refractory-dominated trace) vs DAC, per FG block
    CalibrationOp("v_reset", "calibrate_voltage", "v_reset", ("readout_shift",), "linear",
                  SweepPlan("v_reset", (150, 280, 410, 540),
                            {"e_leak": 940, "v_threshold": 620, "i_pulse": 100,
                             "i_gl": 400}, duration=0.5), _calibrate_v_reset),
    # spike peak voltage vs DAC
    CalibrationOp("v_threshold", "calibrate_voltage", "v_threshold", ("readout_shift",),
                  "linear", SweepPlan("v_threshold", (400, 520, 640, 760, 880),
                                      {"e_leak": 1023, "v_reset": 220, "i_pulse": 341,
                                       "i_gl": 400}, duration=0.4), _calibrate_v_threshold),
    # resting potential vs DAC
    CalibrationOp("e_leak", "calibrate_voltage", "e_leak", ("readout_shift",), "linear",
                  SweepPlan("e_leak", (398, 512, 625), {}, duration=0.05), _calibrate_e_leak),
    # rest railed onto the reversal by strong regular bombardment vs DAC
    CalibrationOp("e_syni", "calibrate_voltage", "e_syni", ("readout_shift",), "linear",
                  SweepPlan("e_syni", (100, 200, 300),
                            {"e_leak": 313, "i_gl": 30, "v_syntci": 170,
                             "v_convoffi": 511, "vgmax": (1023, 1023, 1023, 1023)},
                            duration=0.12), _calibrate_e_syni),
    # refractory time vs pulse current
    CalibrationOp("i_pulse", "calibrate_i_pulse", None,
                  ("readout_shift", "v_reset", "v_threshold", "e_leak"), "reciprocal",
                  SweepPlan("i_pulse", (136, 170, 227, 341, 546, 728, 1023),
                            {"e_leak": 910, "v_threshold": 550, "v_reset": 355,
                             "i_gl": 400}, duration=0.5, repetitions=4), _calibrate_i_pulse),
    # first DAC past the excitatory input amplifier's transition
    CalibrationOp("v_convoffx", "calibrate_v_convoff", "x", ("readout_shift", "e_leak"),
                  "constant", SweepPlan(
                      "v_convoffx", tuple(int(round(k * 1023 / 24)) for k in range(25)),
                      {"e_leak": 512, "e_synx": 796, "i_gl": 400}, duration=0.04),
                  _calibrate_v_convoff),
    # the same for the inhibitory input amplifier
    CalibrationOp("v_convoffi", "calibrate_v_convoff", "i", ("readout_shift", "e_leak"),
                  "constant", SweepPlan(
                      "v_convoffi", tuple(int(round(k * 1023 / 24)) for k in range(25)),
                      {"e_leak": 512, "e_syni": 114, "i_gl": 400}, duration=0.04),
                  _calibrate_v_convoff),
    # membrane time constant vs leak current (uA)
    CalibrationOp("i_gl", "calibrate_tau", "i_gl", ("readout_shift", "e_leak", "v_convoffx"),
                  "softplus", SweepPlan("i_gl", (82, 123, 164, 205, 246, 307, 368, 430),
                                        {"e_leak": 455, "v_syntcx": 625, "e_synx": 796},
                                        presentations=6, window=0.08), _calibrate_tau),
    # excitatory synaptic time constant vs bias voltage (V)
    CalibrationOp("v_syntcx", "calibrate_tau", "v_syntcx",
                  ("readout_shift", "e_leak", "v_convoffx", "i_gl"), "softplus",
                  SweepPlan("v_syntcx", (341, 398, 455, 512, 568, 625, 682, 739, 796, 853),
                            {"e_leak": 455, "i_gl": 123, "e_synx": 796},
                            presentations=6, window=0.07), _calibrate_tau),
    # inhibitory synaptic time constant vs bias voltage (V)
    CalibrationOp("v_syntci", "calibrate_tau", "v_syntci",
                  ("readout_shift", "e_leak", "v_convoffi", "i_gl"), "softplus",
                  SweepPlan("v_syntci", (341, 398, 455, 512, 568, 625, 682, 739, 796, 853),
                            {"e_leak": 455, "i_gl": 123, "e_syni": 114},
                            presentations=6, window=0.07), _calibrate_tau),
    # reversal vs DAC: PSP height vs measured rest, extrapolated to zero height
    CalibrationOp("e_synx", "calibrate_e_synx", None,
                  ("readout_shift", "e_leak", "v_convoffx", "i_gl", "v_syntcx"), "linear",
                  SweepPlan("e_synx", (682, 739, 796, 853), {"i_gl": 123, "v_syntcx": 454},
                            presentations=8, window=0.06, aux_values=(341, 398, 455, 512)),
                  _calibrate_e_synx),
)
_OP = {op.name: op for op in OPS}
CALIBRATION_ORDER = tuple(_OP)
REQUIRES = {op.name: op.requires for op in OPS}
DEFAULT_PLANS = {op.name: op.plan for op in OPS}
# the input-amplifier ops; a cell without a valid entry sits at the DAC ceiling (off)
_CONVOFF_OPS = tuple(op.name for op in OPS if op.function == "calibrate_v_convoff")

# target name -> the calibrated parameter, which names its DB entry and the FG
# cell that realizes it: a time constant's control cell, or an invertible op
_TAU_OF_CELL = {cell: tau for tau, cell in CONTROL_CELL.items()}
_TARGET_MAP = {_TAU_OF_CELL.get(op.name, op.name): op.name for op in OPS if op.invertible}


def _calibrate(wafer, db, h, function, arg, availability, neurons) -> list[CalibrationEntry]:
    """Run the op that public ``function`` runs when called with ``arg``:
    its body measures and fits the op's scope (see :func:`_op_scope`), whose
    entry rows are stored in ``db`` and returned. An empty scope measures
    nothing."""
    op = next((op for op in OPS if op.function == function and op.arg == arg), None)
    if op is None:
        raise ValueError(f"{function} runs no calibration op for {arg!r}")
    plan, scope = _op_scope(wafer, db, h, op.name, availability, neurons)
    if not scope:
        return []
    return _add_entries(db, h, op, *op.body(wafer, db, h, op, scope, plan, availability))


# ---------------------------------------------------------------------------
# orchestration, inversion, exclusion

def calibrate_hicann(wafer: WaferModel, db: CalibrationDb | None, h: int, *,
                     availability=None, neurons=None) -> CalibrationDb:
    """Run the full per-hicann suite in dependency order.

    Each op's eligible circuits are split, in ascending order, into at
    most one part per CPU this process may run on. A part is a whole number
    of split units, each ``lcm(neurons_per_fg_block, neuron_block_size)``
    consecutive circuits, so every FG block (v_reset) and readout group
    (readout_shift) lies in one part. The first part runs in this process,
    straight into ``db``; each other part runs in a forked worker, which
    sends back its entries only, and they are added to ``db`` in part order.
    The split falls back to one part in this process when the affinity set
    has one CPU, when ``os.fork`` or ``os.sched_getaffinity`` is missing, or
    while another thread is alive (a forked child gets none of its threads
    but every lock they hold).

    A circuit's entries do not depend on the other circuits of its part,
    and every part makes the same FG writes: an op writes the same values
    for any scope, the input amplifiers from every valid v_convoff entry of
    the hicann. So the DB, its insertion order and the hicann's FG state
    are the same, byte for byte, for any worker count.
    """
    db = db if db is not None else CalibrationDb()
    _bind(db, wafer)
    workers = _worker_count()
    for op in CALIBRATION_ORDER:
        _, eligible = _op_scope(wafer, db, h, op, availability, neurons)
        if eligible:
            _run_parts(wafer, db, h, op, availability,
                       _split_scope(wafer.topology, eligible, workers))
    return db


def _worker_count() -> int:
    """Parts an op may be split into: the CPUs of this process's affinity
    set, or 1 where forking is unavailable or another thread is alive."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _split_scope(cfg: TopologyConfig, circuits: list, parts: int) -> list[list]:
    """``circuits`` in ascending order, cut into at most ``parts`` non-empty
    parts of whole split units."""
    size = math.lcm(cfg.neurons_per_fg_block, cfg.neuron_block_size)
    circuits = np.sort(circuits)
    _, first = np.unique(circuits // size, return_index=True)
    cuts = [g[0] for g in np.array_split(first, min(parts, len(first)))[1:]]
    return [part.tolist() for part in np.split(circuits, cuts)]


def _run_op(wafer, db, h, op, availability, neurons) -> list[CalibrationEntry]:
    """Run calibration op ``op`` through its public function, looked up in
    the module at call time so that a wrapper set on the module runs."""
    rec = _OP[op]
    args = () if rec.arg is None else (rec.arg,)
    return globals()[rec.function](wafer, db, h, *args, availability=availability,
                                   neurons=neurons)


@dataclass
class _Worker:
    """A forked worker running one part of an op."""

    pid: int
    pipe: BinaryIO  # read end of the pipe the worker writes its result to
    status: int | None = None  # wait status, once reaped


def _run_parts(wafer, db, h, op, availability, parts) -> None:
    """Run ``op`` on each part, the first in this process straight into
    ``db`` and the others in forked workers, whose entries are added to
    ``db`` in part order. No worker outlives the call."""
    workers = []
    try:
        for part in parts[1:]:
            workers.append(_fork(wafer, db, h, op, availability, part))
        _run_op(wafer, db, h, op, availability, parts[0])
        for w in workers:
            for e in _result(w):
                db.add(e)
    finally:
        for w in workers:
            w.pipe.close()
            if w.status is None:  # not reaped, so the pid is still this worker's
                os.kill(w.pid, signal.SIGKILL)
                _, w.status = os.waitpid(w.pid, 0)


def _fork(wafer, db, h, op, availability, part) -> _Worker:
    """Start a worker that runs ``part`` into its own copy of ``db`` and
    writes to a pipe its pickled entries, or the exception it raised with
    its traceback text. A worker that cannot pickle what it has to send
    exits without a result."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return _Worker(pid, os.fdopen(read, "rb"))
    code = 1
    try:  # in the worker: whatever happens, leave through os._exit
        os.close(read)
        try:
            data = pickle.dumps((None, _run_op(wafer, db, h, op, availability, part)))
        except Exception as exc:  # sent to the caller, who raises it
            data = pickle.dumps((exc, traceback.format_exc()))
        with os.fdopen(write, "wb") as f:
            f.write(data)
        code = 0
    finally:
        os._exit(code)


def _result(w: _Worker) -> list[CalibrationEntry]:
    """Wait for worker ``w`` and return its entries; raise what it raised."""
    data = w.pipe.read()
    _, w.status = os.waitpid(w.pid, 0)
    if not data:
        raise RuntimeError(f"calibration worker {w.pid} exited without a result "
                           f"(wait status {w.status})")
    exc, result = pickle.loads(data)
    if exc is not None:
        raise exc from RuntimeError("in a calibration worker:\n" + result)
    return result


@dataclass
class HardwareValues:
    dacs: dict
    clamped: tuple


def to_hardware(cfg: TopologyConfig, db: CalibrationDb, neuron: Coord,
                targets: dict) -> HardwareValues:
    """Invert calibrated models into DAC values for one circuit, ``neuron``.

    Voltage targets are hardware volts, time constants biological
    seconds. v_convoffx/i take no target value (pass None). Values
    outside the DAC range are clamped and reported in ``clamped``;
    targets that no model can express raise RangeError.
    """
    if neuron.kind != Kind.NEURON:
        raise ValueError(f"{neuron} is not a neuron circuit")
    dacs, clamped = {}, []
    for name, target in targets.items():
        param = _target_param(name)
        coord = _entry_coord(cfg, *neuron.indices, param)
        entry = db.entry(coord, param)
        if not entry.valid:
            raise RangeError(f"no valid {param!r} calibration for {coord}")

        if entry.model == "constant":
            raw = entry.coeffs[0]
        elif entry.model == "linear":
            slope, icpt = entry.coeffs[:2]
            raw = (target - icpt) / slope
        elif entry.model == "reciprocal":
            c0, c1 = entry.coeffs[:2]
            i_ua = 1.0 / (c0 + c1 * max(float(target), 0.0))
            raw = i_ua / dac_to_unit(cfg, param, 1.0)
        elif entry.model == "softplus":
            a, b, c, offset = entry.coeffs[:4]
            if target <= offset:
                raise RangeError(
                    f"{name} target {target} below the attainable range")
            x = inverse_softplus_tau(float(target), a, b, c, offset)
            raw = x / dac_to_unit(cfg, param, 1.0)
        else:
            raise RangeError(f"no hardware inversion for {param!r}")

        dac = int(round(raw))
        if dac < 0 or dac > cfg.dac_max:
            clamped.append(name)
            dac = min(max(dac, 0), cfg.dac_max)
        dacs[param] = dac
    return HardwareValues(dacs=dacs, clamped=tuple(clamped))


def _target_param(name: str) -> str:
    """The calibrated parameter that realizes target ``name``."""
    if name not in _TARGET_MAP:
        raise RangeError(f"unknown calibration target {name!r}")
    return _TARGET_MAP[name]


def apply_calibration(wafer: WaferModel, db: CalibrationDb, h: int,
                      targets: dict, *, neurons=None) -> dict:
    """Program one hicann so every circuit realizes the shared targets.

    Adds the calibrated v_convoff programming point automatically when
    entries exist. Circuits without a valid model for some target fall
    back to the nominal transfer (for v_convoffx/i, the DAC ceiling:
    amplifier off); both fallbacks and clamps are reported, not raised. A
    circuit outside the hicann raises ValueError, an unknown target
    RangeError, before any cell is written.
    """
    cfg = wafer.topology
    scope = _circuits(cfg, neurons).tolist()
    values: dict[str, np.ndarray] = {}
    report = {"clamped": [], "fallback": []}
    for name, target in targets.items():
        param = _target_param(name)
        values[param] = np.full(cell_index(cfg, param)[0].shape,
                                _nominal_dac(cfg, name, target))
    seen = set()
    for n in scope:
        for name, target in targets.items():
            param = _TARGET_MAP[name]
            coord = _entry_coord(cfg, h, n, param)
            if (coord, name) in seen:  # a block's v_reset goes once
                continue
            seen.add((coord, name))
            try:
                hw = to_hardware(cfg, db, Coord.neuron(h, n), {name: target})
                values[param][coord.indices[1]] = hw.dacs[param]
                if hw.clamped:
                    report["clamped"].append((coord, name))
            except (KeyError, RangeError):
                report["fallback"].append((coord, name))
    for param in _CONVOFF_OPS:
        if param not in values and any(db.has(Coord.neuron(h, n), param)
                                       for n in scope):
            values[param] = _convoff_array(wafer, db, h, param, scope)

    program_floating_gates(wafer, h, values)
    return report


def _nominal_dac(cfg: TopologyConfig, name: str, target) -> float:
    if name in _CONVOFF_OPS:  # input amplifier off
        return float(cfg.dac_max)
    if name in CONTROL_CELL:
        # no nominal inversion for the time-constant laws: mid-range
        return (cfg.dac_max + 1) / 2
    return min(max(float(target) / dac_to_unit(cfg, name, 1.0), 0.0),
               float(cfg.dac_max))


def calibration_exclusion(av_db: AvailabilityDb,
                          calib_db: CalibrationDb) -> list[Coord]:
    """Fold calibration failures into the availability states.

    A circuit stays usable only if every entry touching it (its own and
    its FG block's) is valid with a reduced chi-square below
    ``RED_CHI2_MAX``. Newly excluded circuits join the individual state and the
    effective state is recomputed through the design rules.
    """
    cfg = av_db.topology
    entries = calib_db.entries()
    bad = {e.coord for e in entries if not (e.valid and e.red_chi2 < RED_CHI2_MAX)}
    circuits = {e.coord for e in entries if e.coord.kind == Kind.NEURON}
    excluded = sorted(c for c in circuits if c in bad
                      or _entry_coord(cfg, *c.indices, "v_reset") in bad)

    individual = av_db.ensure("individual")
    individual.exclude_many(excluded)
    av_db.set_state("effective", effective_exclusion(cfg, individual))
    return excluded
