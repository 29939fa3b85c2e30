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
  weight         weight      wafer-wide conductance-per-capacitance model

Measurements respect the instrument limits: at most 12 traces per
readout pass (one simulation is digitized in as many passes as needed)
and repeated stimulus presentations are averaged on the ADC grid before
fitting. Ops must run in dependency order -- e.g. refractory times need
calibrated reset/threshold/leak voltages first; violating the order
raises CalibrationOrderError.

Results live in a CalibrationDb: one entry per (coordinate, parameter)
with the model name, coefficients, a reduced chi-square and a validity
flag. `to_hardware` inverts entries into DAC values for target voltages
(hardware volts) and time constants (biological seconds), clamping to
the DAC range and reporting it. `calibration_exclusion` folds circuits
that failed any step back into the availability states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .availability import AvailabilityDb
from .commissioning import effective_exclusion
from .experiment import HicannConfig, RowSpec, SynapseSpec, readout, simulate
from .fitting import estimate_noise, fit_linear, fit_psp_batch, fit_softplus
from .psp import is_alpha, peak_factor, psp_model_batch, smooth3
from .topology import Coord, Kind, TopologyConfig
from .wafer import (WaferModel, dac_to_ua, dac_to_volts, inverse_softplus_tau,
                    program_floating_gates, softplus_tau)

SCHEMA = "waferforge.calibration/1"

# integration step for PSP-shape measurements; a finer step was tried and
# bought nothing — the ADC sampling grid, not the solver, limits the fast
# end of the time-constant extraction
PSP_DT = 1e-4

# every sweep point costs one FG write cycle, so ~2 LSB of write noise on
# the cell dominates the per-point error budget of any voltage measurement
WRITE_SIGMA = 2.0 * 1.8 / 1023

CALIBRATION_ORDER = (
    "readout_shift", "v_reset", "v_threshold", "e_leak", "e_syni", "i_pulse",
    "v_convoffx", "v_convoffi", "i_gl", "v_syntcx", "v_syntci", "e_synx",
    "weight",
)

# prerequisite entries a circuit must hold before an op may use it
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
    "weight": ("readout_shift", "e_leak", "v_convoffx", "i_gl", "v_syntcx",
               "e_synx"),
}

# target name -> (entry parameter, floating-gate parameter)
_TARGET_MAP = {
    "e_leak": ("e_leak", "e_leak"),
    "v_threshold": ("v_threshold", "v_threshold"),
    "e_synx": ("e_synx", "e_synx"),
    "e_syni": ("e_syni", "e_syni"),
    "v_reset": ("v_reset", "v_reset"),
    "tau_ref": ("i_pulse", "i_pulse"),
    "tau_mem": ("i_gl", "i_gl"),
    "tau_synx": ("v_syntcx", "v_syntcx"),
    "tau_syni": ("v_syntci", "v_syntci"),
    "v_convoffx": ("v_convoffx", "v_convoffx"),
    "v_convoffi": ("v_convoffi", "v_convoffi"),
}

# full floating-gate context written before every sweep; per-plan settings
# override individual cells. v_convoff* high = input amplifiers off.
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
    coord: Coord | None  # None = wafer-wide entry
    parameter: str
    model: str  # constant | linear | reciprocal | softplus | weight
    coeffs: tuple
    red_chi2: float
    valid: bool

    def to_json(self) -> dict:
        return {"coord": None if self.coord is None else self.coord.to_json(),
                "parameter": self.parameter, "model": self.model,
                "coeffs": [float(c) for c in self.coeffs],
                "red_chi2": float(self.red_chi2), "valid": bool(self.valid)}

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationEntry":
        coord = None if data["coord"] is None else Coord.from_json(data["coord"])
        return cls(coord, data["parameter"], data["model"],
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
    "weight": SweepPlan("weight", tuple(range(16)),
                        {"e_leak": 455, "e_synx": 853, "i_gl": 123,
                         "v_syntcx": 625,
                         "vgmax": (228, 455, 682, 909)},
                        presentations=8, window=0.08,
                        aux_values=(1, 3, 7, 11)),
}


class CalibrationDb:
    """Fitted transfer models of one wafer, keyed (coordinate, parameter)."""

    def __init__(self, master_seed: int | None = None):
        self.master_seed = master_seed
        self._entries: dict[tuple, CalibrationEntry] = {}

    @staticmethod
    def _key(coord: Coord | None, parameter: str) -> tuple:
        loc = None if coord is None else (coord.kind.value, coord.indices)
        return (loc, parameter)

    def add(self, entry: CalibrationEntry) -> None:
        self._entries[self._key(entry.coord, entry.parameter)] = entry

    def has(self, coord: Coord | None, parameter: str,
            valid_only: bool = True) -> bool:
        e = self._entries.get(self._key(coord, parameter))
        return e is not None and (e.valid or not valid_only)

    def entry(self, coord: Coord | None, parameter: str) -> CalibrationEntry:
        key = self._key(coord, parameter)
        if key not in self._entries:
            raise KeyError(f"no calibration of {parameter!r} for {coord}")
        return self._entries[key]

    def coeffs(self, coord: Coord | None, parameter: str) -> tuple:
        return self.entry(coord, parameter).coeffs

    def entries(self, parameter: str | None = None) -> list[CalibrationEntry]:
        out = [e for e in self._entries.values()
               if parameter is None or e.parameter == parameter]
        return sorted(out, key=_entry_sort_key)

    def invalid_entries(self) -> list[CalibrationEntry]:
        return [e for e in self.entries() if not e.valid]

    def __len__(self) -> int:
        return len(self._entries)

    def to_json(self) -> dict:
        return {"schema": SCHEMA, "master_seed": self.master_seed,
                "entries": [e.to_json() for e in self.entries()]}

    @classmethod
    def from_json(cls, data: dict) -> "CalibrationDb":
        if data.get("schema") != SCHEMA:
            raise ValueError(f"unexpected schema {data.get('schema')!r}")
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


def _entry_sort_key(e: CalibrationEntry):
    coord = (-1, ()) if e.coord is None else (0,) + e.coord.sort_key()
    return (e.parameter, coord)


# ---------------------------------------------------------------------------
# measurement scaffolding

def _bind(db: CalibrationDb, wafer: WaferModel) -> None:
    if db.master_seed is None:
        db.master_seed = wafer.master_seed
    elif db.master_seed != wafer.master_seed:
        raise ValueError("calibration database belongs to a different wafer")


def _scope(wafer: WaferModel, h: int, availability, neurons) -> list[int]:
    if neurons is None:
        neurons = range(wafer.topology.neurons_per_hicann)
    if availability is None:
        return list(neurons)
    return [n for n in neurons
            if availability.is_usable(Coord.neuron(h, n))]


def _with_prereqs(db: CalibrationDb, h: int, scope, parameter: str,
                  cfg: TopologyConfig) -> list[int]:
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    kept = []
    for n in scope:
        ok = True
        for req in REQUIRES[parameter]:
            coord = Coord.fg_block(h, n // per_block) if req == "v_reset" \
                else Coord.neuron(h, n)
            if not db.has(coord, req):
                ok = False
                break
        if ok:
            kept.append(n)
    if scope and not kept:
        raise CalibrationOrderError(
            f"{parameter!r} needs valid "
            f"{', '.join(REQUIRES[parameter])} entries first")
    return kept


def _offsets(db: CalibrationDb, h: int, circuits) -> np.ndarray:
    return np.array([db.coeffs(Coord.neuron(h, n), "readout_shift")[0]
                     for n in circuits])


def _adc_dt(wafer: WaferModel) -> float:
    return wafer.topology.speedup / wafer.variability.adc_sample_rate_hw


def _read_corrected(wafer: WaferModel, sim, h: int, circuits, offsets,
                    token) -> np.ndarray:
    """Digitized membrane traces in membrane volts, readout shift removed."""
    coords = [Coord.neuron(h, n) for n in circuits]
    n_samples = int(np.floor(sim.duration / _adc_dt(wafer))) + 1
    out = np.empty((len(coords), n_samples))
    for b in range(0, len(coords), 12):
        res = readout(wafer, sim, coords[b:b + 12], token=(token, b // 12))
        for i, c in enumerate(coords[b:b + 12]):
            out[b + i] = res.traces[c]
    out *= wafer.variability.adc_divider
    if offsets is not None:
        out -= np.asarray(offsets)[:, None]
    return out


def _program_context(wafer: WaferModel, h: int, plan: SweepPlan,
                     extra: dict) -> None:
    values = dict(BASE_SETTINGS)
    values.update(plan.settings)
    values.update(extra)
    program_floating_gates(wafer, h, values)


def _standalone_config(h: int, circuits, rows=(), synapses=()) -> HicannConfig:
    return HicannConfig(hicann=h, enabled=list(circuits), rows=list(rows),
                        synapses=list(synapses))


def _rest_sweep(wafer, db, h, circuits, plan, *, side_rows=None,
                stimulus=(), tail=0.5, v_convoff_extra=None,
                availability=None) -> np.ndarray:
    """Resting potential per (sweep point, circuit), corrected volts."""
    offsets = _offsets(db, h, circuits)
    cfg = _standalone_config(h, circuits, rows=side_rows or [],
                             synapses=_one_synapse_per_circuit(
                                 wafer, circuits, side_rows) if side_rows else [])
    rests = np.empty((len(plan.dac_values), len(circuits)))
    for k, dac in enumerate(plan.dac_values):
        extra = {plan.parameter: dac}
        if v_convoff_extra:
            extra.update(v_convoff_extra)
        _program_context(wafer, h, plan, extra)
        sim = simulate(wafer, [cfg], stimulus, plan.duration, v_init="rest",
                       availability=availability)
        v = _read_corrected(wafer, sim, h, circuits, offsets,
                            (plan.parameter, k))
        rests[k] = v[:, int(v.shape[1] * (1.0 - tail)):].mean(axis=1)
    return rests


def _one_synapse_per_circuit(wafer, circuits, rows):
    cols = wafer.topology.columns_per_array
    per_row = {r.row // wafer.topology.driven_rows_per_array: r.row
               for r in rows}
    return [SynapseSpec(row=per_row[n // cols], col=n % cols, weight=15,
                        address=0) for n in circuits]


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
                 gmax_div=11, vgmax_sel=0, spike_at=0.01, token=(),
                 availability=None):
    """Averaged single-PSP windows: (window time base, traces (n, S))."""
    offsets = _offsets(db, h, circuits)
    _program_context(wafer, h, plan, extra)
    cfg = _standalone_config(h, circuits,
                             rows=_psp_rows(wafer, sign, gmax_div, vgmax_sel),
                             synapses=_psp_synapses(wafer, circuits, weight))
    stimulus = [("cal", 0, spike_at + k * plan.window)
                for k in range(plan.presentations)]
    sim = simulate(wafer, [cfg], stimulus, plan.presentations * plan.window,
                   dt=PSP_DT, v_init="rest", availability=availability)
    v = _read_corrected(wafer, sim, h, circuits, offsets, token)
    dt = _adc_dt(wafer)
    s = plan.window / dt
    if abs(s - round(s)) > 1e-9:
        raise ValueError("presentation window must align with the ADC grid")
    s = int(round(s))
    v = v[:, :plan.presentations * s]
    v = v.reshape(len(circuits), plan.presentations, s).mean(axis=1)
    return np.arange(s) * dt, v


def _add_entries(db, h, circuits, parameter, model, coeff_rows, red, valid):
    entries = []
    red = np.broadcast_to(np.asarray(red, dtype=float), (len(circuits),))
    valid = np.broadcast_to(np.asarray(valid, dtype=bool), (len(circuits),))
    for i, n in enumerate(circuits):
        e = CalibrationEntry(Coord.neuron(h, n), parameter, model,
                             tuple(float(c) for c in np.atleast_1d(coeff_rows[i])),
                             float(red[i]), bool(valid[i]))
        db.add(e)
        entries.append(e)
    return entries


# ---------------------------------------------------------------------------
# per-parameter ops

def calibrate_readout_shift(wafer: WaferModel, db: CalibrationDb, h: int, *,
                            availability=None, neurons=None,
                            plan: SweepPlan | None = None):
    """Offset of each circuit's readout chain.

    All circuits of a 64-block are shorted into one membrane, so every
    member reads the same physical voltage; per-circuit deviations from
    the block mean are pure readout offsets (up to the unknowable common
    mode of each block).
    """
    plan = plan or DEFAULT_PLANS["readout_shift"]
    scope = _scope(wafer, h, availability, neurons)
    if not scope:
        return []
    groups: dict[int, list[int]] = {}
    for n in scope:
        groups.setdefault(n // 64, []).append(n)
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
                      parameter: str, *, availability=None, neurons=None,
                      plan: SweepPlan | None = None, invalid_max=10.0):
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
    plan = plan or DEFAULT_PLANS[parameter]
    scope = _scope(wafer, h, availability, neurons)
    scope = _with_prereqs(db, h, scope, parameter, wafer.topology)
    if not scope:
        return []
    if parameter == "e_leak":
        rests = _rest_sweep(wafer, db, h, scope, plan, availability=availability)
        slope, icpt, red = fit_linear(np.array(plan.dac_values, float), rests.T,
                                      sigma=WRITE_SIGMA)
        valid = (slope > 0) & (red < invalid_max)
        return _add_entries(db, h, scope, parameter, "linear",
                            np.column_stack([slope, icpt]), red, valid)
    if parameter == "e_syni":
        rate = 4000.0
        stim = [("cal", 0, t) for t in np.arange(5e-4, plan.duration, 1 / rate)]
        rows = [RowSpec(row=a * wafer.topology.driven_rows_per_array, sign="i",
                        source="cal", gmax_div=1, vgmax_sel=0)
                for a in range(wafer.topology.arrays_per_hicann)]
        rests = _rest_sweep(wafer, db, h, scope, plan, side_rows=rows,
                            stimulus=stim, tail=0.33, availability=availability)
        slope, icpt, red = fit_linear(np.array(plan.dac_values, float), rests.T,
                                      sigma=WRITE_SIGMA)
        valid = (slope > 0) & (red < invalid_max)
        return _add_entries(db, h, scope, parameter, "linear",
                            np.column_stack([slope, icpt]), red, valid)
    if parameter == "v_threshold":
        return _calibrate_v_threshold(wafer, db, h, scope, plan, invalid_max,
                                      availability)
    return _calibrate_v_reset(wafer, db, h, scope, plan, invalid_max,
                              availability)


def _spiking_sweep(wafer, db, h, scope, plan, *, keep_traces, availability):
    """Per sweep point: corrected traces (or None) and spike rasters."""
    offsets = _offsets(db, h, scope)
    cfg = _standalone_config(h, scope)
    traces, rasters = [], []
    for k, dac in enumerate(plan.dac_values):
        _program_context(wafer, h, plan, {plan.parameter: dac})
        sim = simulate(wafer, [cfg], (), plan.duration, v_init="rest",
                       trace_circuits="all" if keep_traces else [],
                       availability=availability)
        raster = sim.raster()
        rasters.append([raster[Coord.neuron(h, n)] for n in scope])
        if keep_traces:
            traces.append(_read_corrected(wafer, sim, h, scope, offsets,
                                          (plan.parameter, k)))
    return traces, rasters


def _calibrate_v_reset(wafer, db, h, scope, plan, invalid_max, availability):
    cfg = wafer.topology
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    traces, rasters = _spiking_sweep(wafer, db, h, scope, plan,
                                     keep_traces=True, availability=availability)
    plateau = np.full((len(plan.dac_values), len(scope)), np.nan)
    for k, v in enumerate(traces):
        med = np.median(v, axis=1)
        counts = np.array([len(ts) for ts in rasters[k]])
        plateau[k, counts >= 5] = med[counts >= 5]

    entries = []
    blocks = sorted({n // per_block for n in scope})
    x = np.array(plan.dac_values, float)
    for b in blocks:
        sel = [i for i, n in enumerate(scope) if n // per_block == b]
        cnt = np.sum(~np.isnan(plateau[:, sel]), axis=1)
        y = np.where(cnt > 0, np.nansum(plateau[:, sel], axis=1)
                     / np.maximum(cnt, 1), np.nan)
        if np.isnan(y).any():
            e = CalibrationEntry(Coord.fg_block(h, b), "v_reset", "linear",
                                 (0.0, 0.0), float("inf"), False)
        else:
            slope, icpt, red = fit_linear(x, y, sigma=float(np.hypot(
                WRITE_SIGMA, 2.5e-3)))
            e = CalibrationEntry(Coord.fg_block(h, b), "v_reset", "linear",
                                 (float(slope), float(icpt)), float(red),
                                 bool(slope > 0 and red < invalid_max))
        db.add(e)
        entries.append(e)
    return entries


def _calibrate_v_threshold(wafer, db, h, scope, plan, invalid_max,
                           availability):
    from .experiment import DEFAULT_DT

    traces, rasters = _spiking_sweep(wafer, db, h, scope, plan,
                                     keep_traces=True, availability=availability)
    dt_adc = _adc_dt(wafer)
    peaks = np.full((len(plan.dac_values), len(scope)), np.nan)
    for k, v in enumerate(traces):
        t_adc = np.arange(v.shape[1]) * dt_adc
        for i in range(len(scope)):
            ts = rasters[k][i]
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

    x = np.array(plan.dac_values, float)
    slope, icpt, red = fit_linear(x, peaks.T,
                                  sigma=float(np.hypot(WRITE_SIGMA, 1.5e-3)))
    valid = (slope > 0) & (red < invalid_max) & ~np.isnan(peaks).any(axis=0)
    coeffs = np.column_stack([np.nan_to_num(slope), np.nan_to_num(icpt)])
    red = np.nan_to_num(red, nan=np.inf, posinf=np.inf)
    return _add_entries(db, h, scope, "v_threshold", "linear", coeffs, red,
                        valid)


def calibrate_i_pulse(wafer: WaferModel, db: CalibrationDb, h: int, *,
                      availability=None, neurons=None,
                      plan: SweepPlan | None = None, invalid_max=10.0):
    """Refractory time vs pulse current, fitted as tau = (1/I - c0)/c1.

    The refractory part of a spike cycle is the inter-spike interval
    minus the interval at maximum pulse current (where the circuit's
    dead time is negligible); the subtraction removes the rise time,
    which is identical across the sweep. The maximum-current point
    anchors each rewrite repetition and is excluded from the fit.
    """
    plan = plan or DEFAULT_PLANS["i_pulse"]
    scope = _scope(wafer, h, availability, neurons)
    scope = _with_prereqs(db, h, scope, "i_pulse", wafer.topology)
    if not scope:
        return []
    anchor = int(np.argmax(plan.dac_values))
    cfg = _standalone_config(h, scope)
    taus, counts = [], []
    x = []
    for rep in range(plan.repetitions):
        isis = np.full((len(plan.dac_values), len(scope)), np.nan)
        for k, dac in enumerate(plan.dac_values):
            if k == 0:
                _program_context(wafer, h, plan, {"i_pulse": dac})
            else:  # only the swept cells move within one repetition
                program_floating_gates(wafer, h, {"i_pulse": dac})
            sim = simulate(wafer, [cfg], (), plan.duration, v_init="rest",
                           trace_circuits=[], availability=availability)
            raster = sim.raster()
            for i, n in enumerate(scope):
                ts = raster[Coord.neuron(h, n)]
                if ts.size >= 6:
                    isis[k, i] = np.diff(ts).mean()
        ref = isis[anchor]
        for k, dac in enumerate(plan.dac_values):
            if k == anchor:
                continue
            taus.append(isis[k] - ref)
            x.append(1.0 / dac_to_ua(wafer.topology, dac))
    y = np.stack(taus, axis=1)  # (n, points)
    x = np.array(x)
    # budget: release quantisation plus FG write noise on the current cell
    slope, icpt, red = fit_linear(x, y, sigma=1e-4)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = 1.0 / slope
        c0 = -icpt * c1
    valid = (slope > 0) & (red < invalid_max) & ~np.isnan(y).any(axis=1)
    coeffs = np.column_stack([np.nan_to_num(c0), np.nan_to_num(c1)])
    return _add_entries(db, h, scope, "i_pulse", "reciprocal", coeffs,
                        np.nan_to_num(red, nan=np.inf), valid)


def calibrate_v_convoff(wafer: WaferModel, db: CalibrationDb, h: int,
                        side: str, *, availability=None, neurons=None,
                        plan: SweepPlan | None = None, tol=2.5e-2,
                        margin_steps: int = 1):
    """Input-amplifier bias: first DAC whose rest matches the top of the
    sweep, i.e. the permanent leak through the amplifier has vanished.

    The stored programming value sits ``margin_steps`` grid points above
    the detected transition so that FG write noise cannot push a circuit
    back below it. Entry coefficients: (programming DAC, transition DAC).
    """
    parameter = "v_convoffx" if side == "x" else "v_convoffi"
    plan = plan or DEFAULT_PLANS[parameter]
    scope = _scope(wafer, h, availability, neurons)
    scope = _with_prereqs(db, h, scope, parameter, wafer.topology)
    if not scope:
        return []
    rests = _rest_sweep(wafer, db, h, scope, plan, availability=availability)
    # one grid step below the transition already leaks >100 mV, so the
    # tolerance only has to clear the write/readout noise of two points
    shift = np.abs(rests - rests[-1])
    ok = shift < tol
    sustained = np.flip(np.logical_and.accumulate(np.flip(ok, 0), 0), 0)
    idx = np.argmax(sustained, axis=0)
    valid = idx <= len(plan.dac_values) - 2  # the top point alone proves nothing
    dacs = np.array(plan.dac_values)
    entries = []
    for i, n in enumerate(scope):
        trans = int(dacs[idx[i]])
        prog = int(dacs[min(idx[i] + margin_steps, len(dacs) - 1)])
        e = CalibrationEntry(Coord.neuron(h, n), parameter, "constant",
                             (float(prog), float(trans)), 0.0, bool(valid[i]))
        db.add(e)
        entries.append(e)
    return entries


def _convoff_array(wafer, db, h, parameter, scope):
    out = np.full(wafer.topology.neurons_per_hicann, 1023.0)
    for n in scope:
        out[n] = db.coeffs(Coord.neuron(h, n), parameter)[0]
    return out


def calibrate_tau(wafer: WaferModel, db: CalibrationDb, h: int,
                  parameter: str, *, availability=None, neurons=None,
                  plan: SweepPlan | None = None, invalid_max=10.0):
    """Softplus time-constant laws from single-PSP shape fits.

    i_gl sweeps the leak current and takes the larger PSP time constant
    (the membrane; the synaptic constant is pinned far below it).
    v_syntcx/i sweep the synaptic bias and take the smaller one. The law
    is fitted against the nominal DAC transfer of the swept cell (uA for
    i_gl, volts for v_syntc), so inversion needs no second hop.
    """
    if parameter not in ("i_gl", "v_syntcx", "v_syntci"):
        raise ValueError(f"not a time-constant parameter: {parameter!r}")
    plan = plan or DEFAULT_PLANS[parameter]
    scope = _scope(wafer, h, availability, neurons)
    scope = _with_prereqs(db, h, scope, parameter, wafer.topology)
    if not scope:
        return []
    side = "i" if parameter == "v_syntci" else "x"
    convoff = "v_convoffi" if side == "i" else "v_convoffx"
    extra_conv = {convoff: _convoff_array(wafer, db, h, convoff, scope)}
    take_larger = parameter == "i_gl"

    taus = np.full((len(plan.dac_values), len(scope)), np.nan)
    fit_ok = np.ones(len(scope), dtype=bool)
    worst_mis = np.zeros(len(scope))
    for k, dac in enumerate(plan.dac_values):
        extra = {plan.parameter: dac, **extra_conv}
        t_win, v = _psp_windows(wafer, db, h, scope, plan, extra, sign=side,
                                token=(parameter, k), availability=availability)
        params, _, ok = fit_psp_batch(t_win, v)
        taus[k] = np.where(ok, params[:, 2 if take_larger else 3], np.nan)
        fit_ok &= ok
        worst_mis = np.maximum(worst_mis, _rel_misfit(t_win, v, params))

    if parameter == "i_gl":
        x = np.array([dac_to_ua(wafer.topology, d) for d in plan.dac_values])
    else:
        x = np.array([dac_to_volts(wafer.topology, d) for d in plan.dac_values])
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
    return _add_entries(db, h, scope, parameter, "softplus",
                        np.nan_to_num(coeffs), np.nan_to_num(red_sp, nan=np.inf),
                        valid)


def _rel_misfit(t_win, v, params) -> np.ndarray:
    """PSP fit residual relative to the fitted height (saturation marker)."""
    model = psp_model_batch(t_win, params)
    with np.errstate(invalid="ignore"):
        rms = np.sqrt(np.nanmean((v - model) ** 2, axis=1))
    return rms / np.maximum(np.abs(params[:, 1]), 1e-12)


def _ratio_tau_pf(tau1, tau2):
    """Batched (tau1 - tau2) / peak_factor; equal constants -> tau * e."""
    with np.errstate(all="ignore"):
        out = (tau1 - tau2) / peak_factor(tau1, tau2)
    return np.where(is_alpha(tau1, tau2), tau1 * np.e, out)


def _linfit_rows(x: np.ndarray, y: np.ndarray):
    """Row-wise least squares where each row has its own x."""
    xm = x.mean(axis=1, keepdims=True)
    ym = y.mean(axis=1, keepdims=True)
    var = ((x - xm) ** 2).sum(axis=1)
    cov = ((x - xm) * (y - ym)).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = cov / var
    icpt = ym[:, 0] - slope * xm[:, 0]
    return slope, icpt


def _window_peak_heights(t_win, v, spike_at):
    """Signed PSP peak height and baseline per averaged window."""
    base_n = max(int(np.searchsorted(t_win, spike_at)) - 2, 4)
    base = v[:, :base_n].mean(axis=1)
    dev = smooth3(v - base[:, None])
    k = np.argmax(np.abs(dev[:, base_n:]), axis=1) + base_n
    h = dev[np.arange(v.shape[0]), k]
    return h, base


def calibrate_e_synx(wafer: WaferModel, db: CalibrationDb, h: int, *,
                     availability=None, neurons=None,
                     plan: SweepPlan | None = None, invalid_max=10.0,
                     weight=9):
    """Excitatory reversal potential, measured indirectly.

    Reading the reversal directly (input amplifier forced open) clips at
    the amplifier's current limit well below the actual reversal, so the
    op instead measures PSP height at several resting potentials and
    extrapolates the height to zero: the rest where a PSP vanishes IS
    the reversal. One linear DAC model per circuit over the main sweep.
    """
    plan = plan or DEFAULT_PLANS["e_synx"]
    scope = _scope(wafer, h, availability, neurons)
    scope = _with_prereqs(db, h, scope, "e_synx", wafer.topology)
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
            t_win, v = _psp_windows(wafer, db, h, scope, plan,
                                    {"e_synx": dac, "e_leak": rest_dac,
                                     **extra_conv},
                                    weight=weight, token=("e_synx", k, j),
                                    availability=availability)
            hs[j], vr[j] = _window_peak_heights(t_win, v, 0.01)
        slope, icpt = _linfit_rows(vr.T, hs.T)
        slopes_ok &= slope < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            roots[k] = -icpt / slope

    x = np.array(plan.dac_values, float)
    slope, icpt, red = fit_linear(x, roots.T, sigma=8e-3)
    valid = slopes_ok & (slope > 0) & (red < invalid_max) \
        & np.isfinite(roots).all(axis=0)
    coeffs = np.column_stack([np.nan_to_num(slope), np.nan_to_num(icpt)])
    return _add_entries(db, h, scope, "e_synx", "linear", coeffs,
                        np.nan_to_num(red, nan=np.inf), valid)


def direct_reversal_readout(wafer: WaferModel, db: CalibrationDb, h: int,
                            circuits, *, availability=None) -> np.ndarray:
    """Rest with the excitatory amplifier forced permanently open.

    The membrane settles where the amplifier's limited current balances
    the leak -- below the true reversal. Kept as the reference the
    indirect estimate is compared against.
    """
    plan = SweepPlan("v_convoffx", (0,), {"e_leak": 455, "i_gl": 123,
                                          "e_synx": 853}, duration=0.08)
    return _rest_sweep(wafer, db, h, list(circuits), plan, tail=0.3,
                       availability=availability)[0]


# ---------------------------------------------------------------------------
# synaptic weight model (wafer-wide)

@dataclass
class WeightFit:
    entry: CalibrationEntry
    per_neuron: dict  # Coord -> coeffs tuple
    samples: dict  # arrays: neuron, weight, gmax_div, vgmax_sel, y, kept


def _weight_windows(wafer, db, neurons, plan, weight, gmax_div, vgmax_sel,
                    token, availability=None, program=True):
    """One PSP window per sampled neuron for one digital setting."""
    by_h: dict[int, list[int]] = {}
    for c in neurons:
        by_h.setdefault(c.indices[0], []).append(c.indices[1])
    configs = []
    for h, circuits in sorted(by_h.items()):
        if program:
            # without the calibrated amplifier bias the efficacy is ~zero
            _program_context(wafer, h, plan, {
                "v_convoffx": _convoff_array(wafer, db, h, "v_convoffx",
                                             circuits)})
        configs.append(_standalone_config(
            h, circuits, rows=_psp_rows(wafer, "x", gmax_div, vgmax_sel),
            synapses=_psp_synapses(wafer, circuits, weight)))
    stimulus = [("cal", 0, 0.01 + k * plan.window)
                for k in range(plan.presentations)]
    sim = simulate(wafer, configs, stimulus, plan.presentations * plan.window,
                   dt=PSP_DT, v_init="rest", availability=availability)
    dt = _adc_dt(wafer)
    s = int(round(plan.window / dt))
    rows = []
    for h, circuits in sorted(by_h.items()):
        offs = _offsets(db, h, circuits)
        v = _read_corrected(wafer, sim, h, circuits, offs, token + (h,))
        rows.append(v[:, :plan.presentations * s]
                    .reshape(len(circuits), plan.presentations, s).mean(axis=1))
    order = [c for h, circuits in sorted(by_h.items())
             for c in (Coord.neuron(h, n) for n in circuits)]
    v = np.vstack(rows)
    idx = [order.index(c) for c in neurons]
    return np.arange(s) * dt, v[idx]


def _conductance_samples(wafer, db, neurons, plan, combos, *,
                         availability=None, token_prefix=(), program=True):
    """Per (neuron, combo): conductance step / capacitance from PSP fits."""
    e_syn_volts = np.array([_linear_volts(db, c, "e_synx",
                                          plan.settings.get("e_synx", 853))
                            for c in neurons])
    var = wafer.variability
    lsb = var.adc_fullscale / (2 ** var.adc_bits - 1) * var.adc_divider
    y = np.full((len(neurons), len(combos)), np.nan)
    misfit = np.full_like(y, np.inf)
    for j, (w, d, s) in enumerate(combos):
        t_win, v = _weight_windows(wafer, db, neurons, plan, w, d, s,
                                   token_prefix + (j,), availability,
                                   program=program)
        params, _, ok = fit_psp_batch(t_win, v)
        hgt, tau1, tau2, base = (params[:, 1], params[:, 2], params[:, 3],
                                 params[:, 4])
        with np.errstate(divide="ignore", invalid="ignore"):
            val = hgt * _ratio_tau_pf(tau1, tau2) \
                / ((e_syn_volts - base) * tau1 * tau2)
        # a quantization staircase can masquerade as a clean tiny PSP, so
        # the height must clear both the noise and a few ADC codes
        tall = np.abs(hgt) > np.maximum(4.0 * estimate_noise(v), 5.0 * lsb)
        good = ok & tall & np.isfinite(val) & (val > 0)
        y[good, j] = val[good]
        misfit[:, j] = _rel_misfit(t_win, v, params)
    return y, misfit


def _linear_volts(db, coord, parameter, dac):
    slope, icpt = db.coeffs(coord, parameter)[:2]
    return slope * dac + icpt


def _weight_design(combos, vg_volts):
    w = np.array([c[0] for c in combos], float)
    d = np.array([c[1] for c in combos], float)
    vg = np.array([vg_volts[c[2]] for c in combos])
    wi = w.astype(int)
    return np.column_stack([w * vg / d, np.ones_like(w),
                            (wi & 1), (wi >> 1) & 1, (wi >> 2) & 1,
                            (wi >> 3) & 1]).astype(float)


def calibrate_weights(wafer: WaferModel, db: CalibrationDb,
                      sample_neurons, *, availability=None,
                      plan: SweepPlan | None = None, saturated_misfit=0.15,
                      drive_window=(0.5, 1.55), robust_rounds=2) -> WeightFit:
    """Wafer-wide synaptic weight model from sampled circuits.

    The observable is the conductance step per membrane capacitance,
    extracted from each PSP fit as h*(tau_m - tau_s) / ((E_rev - V_rest)
    * tau_m * tau_s * peak_factor). The model is linear in the digital
    settings: y = A*(w*Vgmax/div) + A*(i0 + i1*w1 + i2*w2 + i4*w4 +
    i8*w8), with one parasitic charge-injection term per weight bit.
    Saturated samples (amplifier current limit) are dropped by fit
    quality and by residual trimming before the final least squares.
    """
    plan = plan or DEFAULT_PLANS["weight"]
    _bind(db, wafer)
    neurons = list(sample_neurons)
    vgmax = plan.settings.get("vgmax", BASE_SETTINGS["vgmax"])
    cfg = wafer.topology
    vg_volts = [dac_to_volts(cfg, v) for v in vgmax]
    # drives outside the window either sink below the ADC floor or push the
    # input amplifier into its current limit (a capped PSP still *fits* well,
    # so saturation has to be excluded by construction, not by fit quality)
    combos = [(w, d, s) for s in range(len(vgmax)) for d in plan.aux_values
              for w in plan.dac_values
              if drive_window[0] <= w * vg_volts[s] / d <= drive_window[1]]
    if not combos:
        raise ValueError("drive window excludes every weight combination")
    y, misfit = _conductance_samples(wafer, db, neurons, plan, combos,
                                     availability=availability,
                                     token_prefix=("weight",))
    X = _weight_design(combos, vg_volts)

    flat_x = np.tile(X, (len(neurons), 1))
    flat_y = y.reshape(-1)
    kept = np.isfinite(flat_y) & (misfit.reshape(-1) < saturated_misfit)
    if kept.sum() < 10:
        raise RuntimeError("too few unsaturated weight samples")
    coeffs, *_ = np.linalg.lstsq(flat_x[kept], flat_y[kept], rcond=None)
    for _ in range(robust_rounds):
        resid = flat_y - flat_x @ coeffs
        scale = 1.4826 * np.median(np.abs(resid[kept]))
        kept = kept & (np.abs(resid) < 3.5 * max(scale, 1e-12))
        coeffs, *_ = np.linalg.lstsq(flat_x[kept], flat_y[kept], rcond=None)
    resid = flat_y[kept] - flat_x[kept] @ coeffs
    rel_rms = float(np.sqrt(np.mean(resid ** 2)) /
                    max(np.abs(flat_y[kept]).mean(), 1e-30))
    a = coeffs[0]
    entry = CalibrationEntry(None, "weight", "weight",
                             (float(a), *(float(c / a) for c in coeffs[1:])),
                             rel_rms, bool(a > 0))
    db.add(entry)

    per_neuron = {}
    for i, c in enumerate(neurons):
        rows = kept.reshape(len(neurons), -1)[i]
        if rows.sum() >= 8:
            ci, *_ = np.linalg.lstsq(X[rows], y[i, rows], rcond=None)
            if ci[0] > 0:
                per_neuron[c] = (float(ci[0]),
                                 *(float(v / ci[0]) for v in ci[1:]))
    samples = {"neuron": np.repeat(np.arange(len(neurons)), len(combos)),
               "weight": np.array([c[0] for c in combos] * len(neurons)),
               "gmax_div": np.array([c[1] for c in combos] * len(neurons)),
               "vgmax_sel": np.array([c[2] for c in combos] * len(neurons)),
               "y": flat_y, "kept": kept.reshape(len(neurons), -1)}
    return WeightFit(entry=entry, per_neuron=per_neuron, samples=samples)


def weight_rewrite_spread(wafer: WaferModel, db: CalibrationDb, neuron: Coord,
                          *, weight=9, gmax_div=7, vgmax_sel=2, reps=8,
                          rewrite=True, availability=None) -> np.ndarray:
    """Repeated conductance samples of one synapse setting.

    With ``rewrite`` the floating gates are reprogrammed before every
    repetition, so the spread contains the write noise of the analog
    storage; without it only the measurement noise remains.
    """
    plan = DEFAULT_PLANS["weight"]
    h, n = neuron.indices
    conv = {"v_convoffx": _convoff_array(wafer, db, h, "v_convoffx", [n])}
    out = np.empty(reps)
    for r in range(reps):
        if rewrite or r == 0:
            _program_context(wafer, h, plan, conv)
        y, _ = _conductance_samples(
            wafer, db, [neuron], plan, [(weight, gmax_div, vgmax_sel)],
            availability=availability, token_prefix=("rewrite", r),
            program=False)
        out[r] = y[0, 0]
    return out


# ---------------------------------------------------------------------------
# orchestration, inversion, exclusion

def calibrate_hicann(wafer: WaferModel, db: CalibrationDb | None, h: int, *,
                     availability=None, neurons=None, plans=None,
                     invalid_max=10.0) -> CalibrationDb:
    """Run the full per-hicann suite in dependency order."""
    db = db if db is not None else CalibrationDb()
    _bind(db, wafer)
    plans = plans or {}
    kw = dict(availability=availability, neurons=neurons)

    calibrate_readout_shift(wafer, db, h, plan=plans.get("readout_shift"), **kw)
    for p in ("v_reset", "v_threshold", "e_leak", "e_syni"):
        calibrate_voltage(wafer, db, h, p, plan=plans.get(p),
                          invalid_max=invalid_max, **kw)
    calibrate_i_pulse(wafer, db, h, plan=plans.get("i_pulse"),
                      invalid_max=invalid_max, **kw)
    for side in ("x", "i"):
        calibrate_v_convoff(wafer, db, h, side,
                            plan=plans.get(f"v_convoff{side}"), **kw)
    for p in ("i_gl", "v_syntcx", "v_syntci"):
        calibrate_tau(wafer, db, h, p, plan=plans.get(p),
                      invalid_max=invalid_max, **kw)
    calibrate_e_synx(wafer, db, h, plan=plans.get("e_synx"),
                     invalid_max=invalid_max, **kw)
    return db


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
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    dacs, clamped = {}, []
    for name, target in targets.items():
        if name not in _TARGET_MAP:
            raise RangeError(f"unknown calibration target {name!r}")
        entry_param, fg_name = _TARGET_MAP[name]
        coord = neuron
        if entry_param == "v_reset":
            coord = Coord.fg_block(neuron.indices[0],
                                   neuron.indices[1] // per_block)
        entry = db.entry(coord, entry_param)
        if not entry.valid:
            raise RangeError(f"no valid {entry_param!r} calibration for {coord}")

        if entry.model == "constant":
            raw = entry.coeffs[0]
        elif entry.model == "linear":
            slope, icpt = entry.coeffs[:2]
            raw = (target - icpt) / slope
        elif entry.model == "reciprocal":
            c0, c1 = entry.coeffs[:2]
            i_ua = 1.0 / (c0 + c1 * max(float(target), 0.0))
            raw = i_ua / dac_to_ua(cfg, 1.0)
        elif entry.model == "softplus":
            a, b, c, offset = entry.coeffs[:4]
            if target <= offset:
                raise RangeError(
                    f"{name} target {target} below the attainable range")
            x = inverse_softplus_tau(float(target), a, b, c, offset)
            unit = dac_to_ua(cfg, 1.0) if entry_param == "i_gl" \
                else dac_to_volts(cfg, 1.0)
            raw = x / unit
        else:
            raise RangeError(f"no hardware inversion for {entry_param!r}")

        dac = int(round(raw))
        if dac < 0 or dac > cfg.dac_max:
            clamped.append(name)
            dac = min(max(dac, 0), cfg.dac_max)
        dacs[fg_name] = dac
    return HardwareValues(dacs=dacs, clamped=tuple(clamped))


def apply_calibration(wafer: WaferModel, db: CalibrationDb, h: int,
                      targets: dict, *, neurons=None) -> dict:
    """Program one hicann so every circuit realizes the shared targets.

    Adds the calibrated v_convoff programming point automatically when
    entries exist. Circuits without a valid model for some target fall
    back to the nominal transfer; both fallbacks and clamps are
    reported, not raised.
    """
    cfg = wafer.topology
    scope = list(range(cfg.neurons_per_hicann)) if neurons is None \
        else list(neurons)
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    values: dict[str, np.ndarray] = {}
    report = {"clamped": [], "fallback": []}

    per_neuron_targets = {k: v for k, v in targets.items() if k != "v_reset"}
    for name in per_neuron_targets:
        _, fg = _TARGET_MAP[name]
        values[fg] = np.full(cfg.neurons_per_hicann,
                             _nominal_dac(cfg, name, targets[name]), float)
    for n in scope:
        coord = Coord.neuron(h, n)
        for name, target in per_neuron_targets.items():
            _, fg = _TARGET_MAP[name]
            try:
                hw = to_hardware(cfg, db, coord, {name: target})
                values[fg][n] = hw.dacs[fg]
                if hw.clamped:
                    report["clamped"].append((coord, name))
            except (KeyError, RangeError):
                report["fallback"].append((coord, name))
    for side in ("x", "i"):
        param = f"v_convoff{side}"
        if param in per_neuron_targets:
            continue
        arr = np.full(cfg.neurons_per_hicann, 1023.0)
        present = False
        for n in scope:
            if db.has(Coord.neuron(h, n), param):
                arr[n] = db.coeffs(Coord.neuron(h, n), param)[0]
                present = True
        if present:
            values[param] = arr

    if "v_reset" in targets:
        arr = np.full(cfg.fg_blocks_per_hicann,
                      _nominal_dac(cfg, "v_reset", targets["v_reset"]), float)
        for b in sorted({n // per_block for n in scope}):
            try:
                hw = to_hardware(cfg, db, Coord.neuron(h, b * per_block),
                                 {"v_reset": targets["v_reset"]})
                arr[b] = hw.dacs["v_reset"]
                if hw.clamped:
                    report["clamped"].append((Coord.fg_block(h, b), "v_reset"))
            except (KeyError, RangeError):
                report["fallback"].append((Coord.fg_block(h, b), "v_reset"))
        values["v_reset"] = arr

    program_floating_gates(wafer, h, values)
    return report


def _nominal_dac(cfg: TopologyConfig, name: str, target) -> float:
    if name in ("tau_ref", "tau_mem", "tau_synx", "tau_syni"):
        return 512.0  # no nominal inversion for the time-constant laws
    return min(max(float(target) / dac_to_volts(cfg, 1.0), 0.0),
               float(cfg.dac_max))


def calibration_exclusion(av_db: AvailabilityDb, calib_db: CalibrationDb, *,
                          red_chi2_max: float = 10.0) -> list[Coord]:
    """Fold calibration failures into the availability states.

    A circuit stays usable only if every entry touching it (its own and
    its FG block's) is valid with a reduced chi-square below the
    threshold. Newly excluded circuits join the individual state and the
    effective state is recomputed through the design rules.
    """
    cfg = av_db.topology
    per_block = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    bad_blocks = set()
    verdict: dict[Coord, bool] = {}
    for e in calib_db.entries():
        if e.coord is None:
            continue
        ok = e.valid and e.red_chi2 < red_chi2_max
        if e.coord.kind == Kind.FG_BLOCK:
            if not ok:
                bad_blocks.add(e.coord)
        elif e.coord.kind == Kind.NEURON:
            verdict[e.coord] = verdict.get(e.coord, True) and ok
    excluded = []
    for coord, ok in verdict.items():
        h, n = coord.indices
        if Coord.fg_block(h, n // per_block) in bad_blocks:
            ok = False
        if not ok:
            excluded.append(coord)
    excluded.sort()

    individual = av_db.ensure("individual")
    individual.exclude_many(excluded)
    av_db.set_state("effective", effective_exclusion(cfg, individual))
    return excluded
