"""Measurement-driven calibration of the analog neuron circuits.

Every analog parameter reaches the neuron through an uncharacterized
transfer (voltage gain/offset, current-to-time laws, amplifier bias
points), so each circuit gets a measured transfer model instead of the
design equation. The ops in this module each run one sweep: program the
floating gates, run the network, digitize traces or collect spikes,
reduce to an observable, and fit a small model per circuit:

  readout_shift  constant    per-circuit offset of the analog readout chain
  v_reset        linear      per FG block (the cell is shared by 128 circuits)
  v_threshold    linear      spike peak voltage vs DAC
  e_leak         linear      resting potential vs DAC
  e_syni         linear      saturation-railed rest under bombardment vs DAC
  i_pulse        reciprocal  refractory time vs pulse current
  v_convoffx/i   constant    first DAC past the input-amplifier transition
  i_gl           softplus    membrane time constant vs leak current (uA)
  v_syntcx/i     softplus    synaptic time constant vs bias voltage (V)
  e_synx         linear      reversal from PSP-height extrapolation vs DAC

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
the parts in forked worker processes.
An op raises CalibrationOrderError unless the ops it depends on ran first
(``REQUIRES``: e.g. refractory times need reset, threshold and leak).

Sweeps whose points store few or no traces (the rest sweeps of e_leak,
e_syni, v_convoffx/i and the direct reversal readout; each i_pulse
repetition) integrate once per sweep pass: every point is programmed and
prepared in the usual write order, all points run as one block-diagonal
network, and each point is read out under its own noise token, so the
results are those of one integration per point. The PSP sweeps (i_gl,
v_syntcx/i, e_synx) and the spiking sweeps (v_reset, v_threshold) keep
one integration per point and reduce each point before the next runs:
their full-length traces would make a batched sweep hold K times the
memory of one point. A PSP point's threshold sits above every reversal
potential, so it cannot spike and ``simulate_batch`` solves it as a
prefix scan instead of a step loop.

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
from typing import BinaryIO

import numpy as np

from .availability import AvailabilityDb
from .commissioning import effective_exclusion
from .dynamics import EventQueue
from .experiment import (READOUT_TRACES, HicannConfig, RowSpec, SynapseSpec,
                         prepare, readout, simulate, simulate_batch)
from .fitting import fit_linear, fit_psp_batch, fit_softplus
from .psp import psp_model_batch, smooth3
from .topology import Coord, Kind, TopologyConfig, check_schema
from .wafer import (CONTROL_CELL, FG_CELLS, WaferModel, adc_sample_period, cell_index,
                    dac_to_unit, from_reference_dac, inverse_softplus_tau,
                    program_floating_gates, softplus_tau)

SCHEMA = "waferforge.calibration/1"

# integration step for PSP-shape measurements; a finer step was tried and
# bought nothing — the ADC sampling grid, not the solver, limits the fast
# end of the time-constant extraction
PSP_DT = 1e-4

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

# prerequisite entries a circuit must hold before an op may use it, with the
# ops in the order calibrate_hicann runs them
REQUIRES = {
    "readout_shift": (),
    "v_reset": ("readout_shift",),
    "v_threshold": ("readout_shift",),
    "e_leak": ("readout_shift",),
    "e_syni": ("readout_shift",),
    "i_pulse": ("readout_shift", "v_reset", "v_threshold", "e_leak"),
    "v_convoffx": ("readout_shift", "e_leak"),
    "v_convoffi": ("readout_shift", "e_leak"),
    "i_gl": ("readout_shift", "e_leak", "v_convoffx"),
    "v_syntcx": ("readout_shift", "e_leak", "v_convoffx", "i_gl"),
    "v_syntci": ("readout_shift", "e_leak", "v_convoffi", "i_gl"),
    "e_synx": ("readout_shift", "e_leak", "v_convoffx", "i_gl", "v_syntcx"),
}
CALIBRATION_ORDER = tuple(REQUIRES)

# target name -> the calibrated parameter, which names both its DB entry and
# the floating-gate cell that realizes it
_TARGET_MAP = {**{p: p for p in ("e_leak", "v_threshold", "e_synx", "e_syni",
                                 "v_reset", "v_convoffx", "v_convoffi")},
               **CONTROL_CELL}

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
        if data["coord"] is None:
            raise ValueError(f"{data['parameter']!r} entry without a coordinate")
        return cls(Coord.from_json(data["coord"]), data["parameter"], data["model"],
                   tuple(data["coeffs"]), data["red_chi2"], data["valid"])


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


DEFAULT_PLANS = {
    "readout_shift": SweepPlan("readout_shift", (455,), duration=0.04),
    # refractory-dominated spiking: the trace median sits on the reset plateau
    "v_reset": SweepPlan("v_reset", (150, 280, 410, 540),
                         {"e_leak": 940, "v_threshold": 620, "i_pulse": 100,
                          "i_gl": 400}, duration=0.5),
    "v_threshold": SweepPlan("v_threshold", (400, 520, 640, 760, 880),
                             {"e_leak": 1023, "v_reset": 220, "i_pulse": 341,
                              "i_gl": 400}, duration=0.4),
    "e_leak": SweepPlan("e_leak", (398, 512, 625), {}, duration=0.05),
    # strong regular bombardment rails the membrane onto the reversal
    "e_syni": SweepPlan("e_syni", (100, 200, 300),
                        {"e_leak": 313, "i_gl": 30, "v_syntci": 170,
                         "v_convoffi": 511, "vgmax": (1023, 1023, 1023, 1023)},
                        duration=0.12),
    "i_pulse": SweepPlan("i_pulse", (136, 170, 227, 341, 546, 728, 1023),
                         {"e_leak": 910, "v_threshold": 550, "v_reset": 355,
                          "i_gl": 400}, duration=0.5, repetitions=4),
    "v_convoffx": SweepPlan(
        "v_convoffx", tuple(int(round(k * 1023 / 24)) for k in range(25)),
        {"e_leak": 512, "e_synx": 796, "i_gl": 400}, duration=0.04),
    "v_convoffi": SweepPlan(
        "v_convoffi", tuple(int(round(k * 1023 / 24)) for k in range(25)),
        {"e_leak": 512, "e_syni": 114, "i_gl": 400}, duration=0.04),
    "i_gl": SweepPlan("i_gl", (82, 123, 164, 205, 246, 307, 368, 430),
                      {"e_leak": 455, "v_syntcx": 625, "e_synx": 796},
                      presentations=6, window=0.08),
    "v_syntcx": SweepPlan("v_syntcx", (341, 398, 455, 512, 568, 625, 682,
                                       739, 796, 853),
                          {"e_leak": 455, "i_gl": 123, "e_synx": 796},
                          presentations=6, window=0.07),
    "v_syntci": SweepPlan("v_syntci", (341, 398, 455, 512, 568, 625, 682,
                                       739, 796, 853),
                          {"e_leak": 455, "i_gl": 123, "e_syni": 114},
                          presentations=6, window=0.07),
    # PSP height vs measured rest, extrapolated to the zero crossing
    "e_synx": SweepPlan("e_synx", (682, 739, 796, 853),
                        {"i_gl": 123, "v_syntcx": 454},
                        presentations=8, window=0.06,
                        aux_values=(341, 398, 455, 512)),
}


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
    scope = np.arange(cfg.neurons_per_hicann) if neurons is None \
        else np.fromiter(neurons, dtype=np.int64)
    if np.any((scope < 0) | (scope >= cfg.neurons_per_hicann)):
        raise ValueError(f"circuits of a hicann are 0..{cfg.neurons_per_hicann - 1}")
    if availability is not None:
        scope = scope[~availability.read_mask(Kind.NEURON)[h, scope]]
    kept = scope
    for req in REQUIRES[parameter]:
        entries = _hicann_entries(db, h, req)
        at = kept // cfg.neurons_per_fg_block if _block_keyed(req) else kept
        kept = kept[np.array([i in entries and entries[i].valid for i in at.tolist()],
                             dtype=bool)]
    if scope.size and not kept.size:
        raise CalibrationOrderError(
            f"{parameter!r} needs valid "
            f"{', '.join(REQUIRES[parameter])} entries first")
    return _rescaled(cfg, DEFAULT_PLANS[parameter]), kept.tolist()


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


def _hicann_entries(db: CalibrationDb, h: int,
                    parameter: str) -> dict[int, CalibrationEntry]:
    """``parameter``'s entries on hicann ``h``, keyed by circuit, or by FG
    block for a block-keyed parameter."""
    return {c.indices[1]: e for (c, p), e in db._entries.items()
            if p == parameter and c.indices[0] == h}


def _offsets(db: CalibrationDb, h: int, circuits) -> np.ndarray:
    shift = _hicann_entries(db, h, "readout_shift")
    for n in circuits:
        if n not in shift:
            raise KeyError(f"no calibration of 'readout_shift' for {Coord.neuron(h, n)}")
    return np.array([shift[n].coeffs[0] for n in circuits])


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


def _psp_windows(wafer, db, h, circuits, plan, extra, *, sign="x", weight=12,
                 token=(), availability=None):
    """Averaged single-PSP windows: (window time base, traces (n, S), PSP
    onset in a window: the boundary ``EventQueue.from_times`` delivers the
    spike at). Each spike sits half a step past a boundary, so no rounding
    moves it; presentations at different offsets would blur the average."""
    dt = adc_sample_period(wafer)
    steps, s = plan.window / PSP_DT, plan.window / dt
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("presentation window must be whole integration steps")
    if abs(s - round(s)) > 1e-9:
        raise ValueError("presentation window must align with the ADC grid")
    steps, s = int(round(steps)), int(round(s))
    k = np.arange(plan.presentations)
    times = (round(PSP_SPIKE_AT / PSP_DT) + k * steps + 0.5) * PSP_DT
    onset_step = EventQueue.from_times(times, k, np.ones(k.size), PSP_DT).boundary \
        - k * steps
    if np.any(onset_step != onset_step[0]):
        raise ValueError("PSP presentations land at different window offsets")
    offsets = _offsets(db, h, circuits)
    _program_context(wafer, h, plan, extra)
    cfg = _standalone_config(h, circuits,
                             rows=_psp_rows(wafer, sign, PSP_GMAX_DIV, PSP_VGMAX_SEL),
                             synapses=_psp_synapses(wafer, circuits, weight))
    stimulus = [("cal", 0, float(t)) for t in times]
    sim = simulate(wafer, [cfg], stimulus, plan.presentations * plan.window,
                   dt=PSP_DT, v_init="rest", availability=availability)
    v = _read_corrected(wafer, sim, h, circuits, offsets, token)
    v = v[:, :plan.presentations * s]
    v = v.reshape(len(circuits), plan.presentations, s).mean(axis=1)
    return np.arange(s) * dt, v, onset_step[0] * PSP_DT


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


def _add_entries(db, h, indices, parameter, model, coeff_rows, red, valid):
    """Store one entry per circuit of ``indices`` on hicann ``h`` (per FG
    block for a block-keyed parameter)."""
    coord = Coord.fg_block if _block_keyed(parameter) else Coord.neuron
    red = np.broadcast_to(np.asarray(red, dtype=float), (len(indices),))
    valid = np.broadcast_to(np.asarray(valid, dtype=bool), (len(indices),))
    entries = [CalibrationEntry(coord(h, n), parameter, model,
                                tuple(float(v) for v in np.atleast_1d(coeff_rows[i])),
                                float(red[i]), bool(valid[i]))
               for i, n in enumerate(indices)]
    for e in entries:
        db.add(e)
    return entries


def _linear_entries(db, h, indices, parameter, x, y, sigma, ok=True):
    """Fit one line per row of ``y`` (n, points) against ``x`` and store it.

    A line is valid if ``ok`` holds, it rises, its reduced chi-square is
    below RED_CHI2_MAX and every point is finite. Non-finite coefficients
    are stored as numbers and a NaN chi-square as inf.
    """
    slope, icpt, red = fit_linear(x, y, sigma=sigma)
    valid = ok & (slope > 0) & (red < RED_CHI2_MAX) & np.isfinite(y).all(axis=1)
    coeffs = np.column_stack([np.nan_to_num(slope), np.nan_to_num(icpt)])
    return _add_entries(db, h, indices, parameter, "linear", coeffs,
                        np.nan_to_num(red, nan=np.inf, posinf=np.inf), valid)


# ---------------------------------------------------------------------------
# per-parameter ops

def calibrate_readout_shift(wafer: WaferModel, db: CalibrationDb, h: int, *,
                            availability=None, neurons=None):
    """Offset of each circuit's readout chain.

    All circuits of a neuron block are shorted into one membrane, so every
    member reads the same physical voltage; per-circuit deviations from
    the block mean are pure readout offsets (up to the unknowable common
    mode of each block).
    """
    plan, scope = _op_scope(wafer, db, h, "readout_shift", availability,
                            neurons)
    if not scope:
        return []
    groups: dict[int, list[int]] = {}
    for n in scope:
        groups.setdefault(wafer.topology.channel_of_neuron(n), []).append(n)
    _program_context(wafer, h, plan, {"e_leak": plan.dac_values[0]})
    cfg = HicannConfig(hicann=h, enabled=scope,
                       membrane_groups=[g for g in groups.values()])
    sim = simulate(wafer, [cfg], (), plan.duration, v_init="rest",
                   availability=availability)
    v = _read_corrected(wafer, sim, h, scope, None, ("readout_shift",))
    m = v[:, int(v.shape[1] * 0.4):].mean(axis=1)
    offsets = np.empty(len(scope))
    pos = {n: i for i, n in enumerate(scope)}
    for members in groups.values():
        idx = [pos[n] for n in members]
        offsets[idx] = m[idx] - m[idx].mean()
    return _add_entries(db, h, scope, "readout_shift", "constant",
                        offsets[:, None], 0.0, True)


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
    if parameter not in ("e_leak", "e_syni", "v_threshold", "v_reset"):
        raise ValueError(f"not a direct voltage parameter: {parameter!r}")
    plan, scope = _op_scope(wafer, db, h, parameter, availability, neurons)
    if not scope:
        return []
    if parameter == "v_threshold":
        return _calibrate_v_threshold(wafer, db, h, scope, plan, availability)
    if parameter == "v_reset":
        return _calibrate_v_reset(wafer, db, h, scope, plan, availability)
    if parameter == "e_leak":
        rests = _rest_sweep(wafer, db, h, scope, plan, availability=availability)
    else:  # e_syni under a regular 4 kHz train
        stim = [("cal", 0, t) for t in np.arange(5e-4, plan.duration, 1 / 4000.0)]
        rests = _rest_sweep(wafer, db, h, scope, plan, sign="i",
                            stimulus=stim, tail=0.33, availability=availability)
    return _linear_entries(db, h, scope, parameter,
                           np.array(plan.dac_values, float), rests.T,
                           _write_sigma(wafer.topology))


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


def _calibrate_v_reset(wafer, db, h, scope, plan, availability):
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
    return _linear_entries(db, h, blocks, "v_reset", np.array(plan.dac_values, float), y,
                           float(np.hypot(_write_sigma(wafer.topology), 2.5e-3)))


def _calibrate_v_threshold(wafer, db, h, scope, plan, availability):
    from .experiment import DEFAULT_DT

    dt_adc = adc_sample_period(wafer)
    peaks = np.full((len(plan.dac_values), len(scope)), np.nan)
    for k, v, rasters in _spiking_sweep(wafer, db, h, scope, plan,
                                        availability=availability):
        t_adc = np.arange(v.shape[1]) * dt_adc
        for i in range(len(scope)):
            ts = rasters[i]
            if len(ts) < 5:
                continue
            ts = ts[2:]  # skip the settling spikes
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

    return _linear_entries(db, h, scope, "v_threshold",
                           np.array(plan.dac_values, float), peaks.T,
                           float(np.hypot(_write_sigma(wafer.topology), 1.5e-3)))


def calibrate_i_pulse(wafer: WaferModel, db: CalibrationDb, h: int, *,
                      availability=None, neurons=None):
    """Refractory time vs pulse current, fitted as tau = (1/I - c0)/c1.

    The refractory part of a spike cycle is the inter-spike interval
    minus the interval at maximum pulse current (where the circuit's
    dead time is negligible); the subtraction removes the rise time,
    which is identical across the sweep. The maximum-current point
    anchors each rewrite repetition and is excluded from the fit.
    """
    plan, scope = _op_scope(wafer, db, h, "i_pulse", availability, neurons)
    if not scope:
        return []
    anchor = int(np.argmax(plan.dac_values))
    cfg = _standalone_config(h, scope)
    taus, x = [], []
    for rep in range(plan.repetitions):
        runs = []
        for k, dac in enumerate(plan.dac_values):
            if k == 0:
                _program_context(wafer, h, plan, {"i_pulse": dac})
            else:  # only the swept cells move within one repetition
                program_floating_gates(wafer, h, {"i_pulse": dac})
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
            x.append(1.0 / dac_to_unit(wafer.topology, "i_pulse", dac))
    y = np.stack(taus, axis=1)  # (n, points)
    x = np.array(x)
    # budget: release quantisation plus FG write noise on the current cell
    slope, icpt, red = fit_linear(x, y, sigma=1e-4)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = 1.0 / slope
        c0 = -icpt * c1
    valid = (slope > 0) & (red < RED_CHI2_MAX) & ~np.isnan(y).any(axis=1)
    coeffs = np.column_stack([np.nan_to_num(c0), np.nan_to_num(c1)])
    return _add_entries(db, h, scope, "i_pulse", "reciprocal", coeffs,
                        np.nan_to_num(red, nan=np.inf), valid)


def calibrate_v_convoff(wafer: WaferModel, db: CalibrationDb, h: int,
                        side: str, *, availability=None, neurons=None):
    """Input-amplifier bias: first DAC whose rest matches the top of the
    sweep, i.e. the permanent leak through the amplifier has vanished.

    The stored programming value sits ``CONVOFF_MARGIN_STEPS`` grid points
    above the detected transition so that FG write noise cannot push a
    circuit back below it. Entry coefficients: (programming DAC, transition DAC).
    """
    parameter = "v_convoffx" if side == "x" else "v_convoffi"
    plan, scope = _op_scope(wafer, db, h, parameter, availability, neurons)
    if not scope:
        return []
    rests = _rest_sweep(wafer, db, h, scope, plan, availability=availability)
    ok = np.abs(rests - rests[-1]) < CONVOFF_TOL
    sustained = np.flip(np.logical_and.accumulate(np.flip(ok, 0), 0), 0)
    idx = np.argmax(sustained, axis=0)
    valid = idx <= len(plan.dac_values) - 2  # the top point alone proves nothing
    dacs = np.array(plan.dac_values, float)
    prog = dacs[np.minimum(idx + CONVOFF_MARGIN_STEPS, len(dacs) - 1)]
    return _add_entries(db, h, scope, parameter, "constant",
                        np.column_stack([prog, dacs[idx]]), 0.0, valid)


def _convoff_array(wafer, db, h, parameter, scope):
    """Programming points of the valid entries in ``scope``, the DAC ceiling
    (amplifier off) for every other circuit."""
    cfg = wafer.topology
    out = np.full(cfg.neurons_per_hicann, float(cfg.dac_max))
    entries = _hicann_entries(db, h, parameter)
    for n in scope:
        if n in entries and entries[n].valid:
            out[n] = entries[n].coeffs[0]
    return out


def calibrate_tau(wafer: WaferModel, db: CalibrationDb, h: int,
                  parameter: str, *, availability=None, neurons=None):
    """Softplus time-constant laws from single-PSP shape fits.

    i_gl sweeps the leak current and takes the larger PSP time constant
    (the membrane; the synaptic constant is pinned far below it).
    v_syntcx/i sweep the synaptic bias and take the smaller one. The law
    is fitted against the nominal DAC transfer of the swept cell (uA for
    i_gl, volts for v_syntc), so inversion needs no second hop.
    """
    if parameter not in ("i_gl", "v_syntcx", "v_syntci"):
        raise ValueError(f"not a time-constant parameter: {parameter!r}")
    plan, scope = _op_scope(wafer, db, h, parameter, availability, neurons)
    if not scope:
        return []
    side = "i" if parameter == "v_syntci" else "x"
    convoff = "v_convoffi" if side == "i" else "v_convoffx"
    extra_conv = {convoff: _convoff_array(wafer, db, h, convoff, scope)}
    take_larger = parameter == CONTROL_CELL["tau_mem"]

    n_points = len(plan.dac_values)
    for k, dac in enumerate(plan.dac_values):
        extra = {plan.parameter: dac, **extra_conv}
        t_win, v, onset = _psp_windows(wafer, db, h, scope, plan, extra,
                                       sign=side, token=(parameter, k),
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

    x = dac_to_unit(wafer.topology, parameter, np.array(plan.dac_values, float))
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
    valid = fit_ok & ok_sp & (worst_mis < 0.20) & (curve_mis < 0.15)
    return _add_entries(db, h, scope, parameter, "softplus", np.nan_to_num(coeffs),
                        np.nan_to_num(red_sp, nan=np.inf), valid)


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
    plan, scope = _op_scope(wafer, db, h, "e_synx", availability, neurons)
    if not scope:
        return []
    extra_conv = {"v_convoffx": _convoff_array(wafer, db, h, "v_convoffx",
                                               scope)}
    roots = np.empty((len(plan.dac_values), len(scope)))
    slopes_ok = np.ones(len(scope), dtype=bool)
    for k, dac in enumerate(plan.dac_values):
        hs = np.empty((len(plan.aux_values), len(scope)))
        vr = np.empty_like(hs)
        for j, rest_dac in enumerate(plan.aux_values):
            t_win, v, _ = _psp_windows(wafer, db, h, scope, plan,
                                       {"e_synx": dac, "e_leak": rest_dac,
                                        **extra_conv},
                                       weight=E_SYNX_WEIGHT,
                                       token=("e_synx", k, j),
                                       availability=availability)
            hs[j], vr[j] = _window_peak_heights(t_win, v, PSP_SPIKE_AT)
        slope, icpt, _ = fit_linear(vr.T, hs.T)
        slopes_ok &= slope < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            roots[k] = -icpt / slope

    return _linear_entries(db, h, scope, "e_synx",
                           np.array(plan.dac_values, float), roots.T, 8e-3,
                           ok=slopes_ok)


def direct_reversal_readout(wafer: WaferModel, db: CalibrationDb, h: int,
                            circuits, *, availability=None) -> np.ndarray:
    """Rest with the excitatory amplifier forced permanently open.

    The membrane settles where the amplifier's limited current balances
    the leak -- below the true reversal. Kept as the reference the
    indirect estimate is compared against.
    """
    plan = _rescaled(wafer.topology, SweepPlan(
        "v_convoffx", (0,), {"e_leak": 455, "i_gl": 123, "e_synx": 853},
        duration=0.08))
    return _rest_sweep(wafer, db, h, list(circuits), plan, tail=0.3,
                       availability=availability)[0]


# ---------------------------------------------------------------------------
# orchestration, inversion, exclusion

def calibrate_hicann(wafer: WaferModel, db: CalibrationDb | None, h: int, *,
                     availability=None, neurons=None) -> CalibrationDb:
    """Run the full per-hicann suite in dependency order.

    Each op's eligible circuits are split into at most one part per CPU
    this process may run on. A part is a whole number of split units, each
    ``lcm(neurons_per_fg_block, neuron_block_size)`` consecutive circuits,
    so every FG block (v_reset) and readout group (readout_shift) lies in
    one part. The first part runs in this process, which so makes every FG
    write of a serial run; each other part runs in a forked worker, which
    sends back its entries and the cells of its FG blocks. The split falls
    back to one part in this process when the affinity set has one CPU,
    when ``os.fork`` or ``os.sched_getaffinity`` is missing, or while
    another thread is alive (a forked child gets none of its threads but
    every lock they hold).

    A circuit's entries do not depend on the other circuits of its part,
    and an op writes the same FG values for any scope except the v_convoff
    points of the circuits in it, which lie in the part's own blocks. So
    the DB and the hicann's FG state are the same, byte for byte, for any
    worker count.
    """
    db = db if db is not None else CalibrationDb()
    _bind(db, wafer)
    workers = _worker_count()
    for op in CALIBRATION_ORDER:
        _, eligible = _op_scope(wafer, db, h, op, availability, neurons)
        if eligible:
            _run_parts(wafer, db, h, op, availability, eligible,
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
    """``circuits`` in at most ``parts`` non-empty parts of whole split units,
    each part in the order of ``circuits``."""
    size = math.lcm(cfg.neurons_per_fg_block, cfg.neuron_block_size)
    units = sorted({n // size for n in circuits})
    groups = np.array_split(units, min(parts, len(units)))
    part_of = {u: i for i, group in enumerate(groups) for u in group.tolist()}
    out = [[] for _ in groups]
    for n in circuits:
        out[part_of[n // size]].append(n)
    return out


def _run_op(wafer, db, h, op, availability, neurons) -> list[CalibrationEntry]:
    """Run calibration op ``op`` through its public function."""
    kw = dict(availability=availability, neurons=neurons)
    if op == "readout_shift":
        return calibrate_readout_shift(wafer, db, h, **kw)
    if op in ("v_reset", "v_threshold", "e_leak", "e_syni"):
        return calibrate_voltage(wafer, db, h, op, **kw)
    if op == "i_pulse":
        return calibrate_i_pulse(wafer, db, h, **kw)
    if op in ("v_convoffx", "v_convoffi"):
        return calibrate_v_convoff(wafer, db, h, op[-1], **kw)
    if op in ("i_gl", "v_syntcx", "v_syntci"):
        return calibrate_tau(wafer, db, h, op, **kw)
    return calibrate_e_synx(wafer, db, h, **kw)


def _run_part(wafer, db, h, op, availability, part) -> list[CalibrationEntry]:
    """``op``'s entries for the circuits of ``part``, measured against the
    entries of ``db`` but not added to it."""
    view = CalibrationDb(db.master_seed)
    view._entries = dict(db._entries)
    return _run_op(wafer, view, h, op, availability, part)


@dataclass
class _Worker:
    """A forked worker running one part of an op."""

    pid: int
    pipe: BinaryIO  # read end of the pipe the worker writes its result to
    status: int | None = None  # wait status, once reaped


def _run_parts(wafer, db, h, op, availability, eligible, parts) -> None:
    """Run ``op`` on each part of ``eligible``, the first in this process and
    the others in forked workers, and add every entry to ``db`` in the order
    a serial run adds them. No worker outlives the call."""
    workers = []
    try:
        for part in parts[1:]:
            workers.append(_fork(wafer, db, h, op, availability, part))
        entries = _run_part(wafer, db, h, op, availability, parts[0])
        st = wafer.fg_state(h)
        for w in workers:
            got, blocks, d_set, d_eff, written = _result(w)
            entries += got
            st.d_set[blocks], st.d_eff[blocks], st.written[blocks] = d_set, d_eff, written
    finally:
        for w in workers:
            w.pipe.close()
            if w.status is None:  # not reaped, so the pid is still this worker's
                os.kill(w.pid, signal.SIGKILL)
                _, w.status = os.waitpid(w.pid, 0)
    if _block_keyed(op):  # a serial run adds its blocks in order
        entries.sort(key=lambda e: e.coord.indices[1])
    else:
        pos = {n: i for i, n in enumerate(eligible)}
        entries.sort(key=lambda e: pos[e.coord.indices[1]])
    for e in entries:
        db.add(e)


def _fork(wafer, db, h, op, availability, part) -> _Worker:
    """Start a worker that runs ``part`` and writes to a pipe its pickled
    result, or the exception it raised with its traceback text. A worker
    that cannot pickle what it has to send exits without a result."""
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
            entries = _run_part(wafer, db, h, op, availability, part)
            st = wafer.fg_state(h)
            blocks = np.unique(np.asarray(part) // wafer.topology.neurons_per_fg_block)
            data = pickle.dumps((None, (entries, blocks, st.d_set[blocks],
                                        st.d_eff[blocks], st.written[blocks])))
        except Exception as exc:  # sent to the caller, who raises it
            data = pickle.dumps((exc, traceback.format_exc()))
        with os.fdopen(write, "wb") as f:
            f.write(data)
        code = 0
    finally:
        os._exit(code)


def _result(w: _Worker) -> tuple:
    """Wait for worker ``w`` and return its result; raise what it raised."""
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
    """Invert calibrated models into DAC values for one circuit.

    Voltage targets are hardware volts, time constants biological
    seconds. v_convoffx/i take no target value (pass None). Values
    outside the DAC range are clamped and reported in ``clamped``;
    targets that no model can express raise RangeError.
    """
    dacs, clamped = {}, []
    for name, target in targets.items():
        if name not in _TARGET_MAP:
            raise RangeError(f"unknown calibration target {name!r}")
        param = _TARGET_MAP[name]
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


def apply_calibration(wafer: WaferModel, db: CalibrationDb, h: int,
                      targets: dict, *, neurons=None) -> dict:
    """Program one hicann so every circuit realizes the shared targets.

    Adds the calibrated v_convoff programming point automatically when
    entries exist. Circuits without a valid model for some target fall
    back to the nominal transfer (for v_convoffx/i, the DAC ceiling:
    amplifier off); both fallbacks and clamps are reported, not raised.
    """
    cfg = wafer.topology
    scope = list(range(cfg.neurons_per_hicann)) if neurons is None \
        else list(neurons)
    values: dict[str, np.ndarray] = {}
    report = {"clamped": [], "fallback": []}
    for name, target in targets.items():
        param = _TARGET_MAP[name]
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
    for param in ("v_convoffx", "v_convoffi"):
        if param not in values and any(db.has(Coord.neuron(h, n), param)
                                       for n in scope):
            values[param] = _convoff_array(wafer, db, h, param, scope)

    program_floating_gates(wafer, h, values)
    return report


def _nominal_dac(cfg: TopologyConfig, name: str, target) -> float:
    if name in ("v_convoffx", "v_convoffi"):  # input amplifier off
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
