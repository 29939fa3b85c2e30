"""Ground-truth wafer model: hidden coefficients, floating gates, ADC.

A :class:`WaferModel` is fully defined by ``(master_seed, topology,
variability, defects)``. The hidden per-circuit coefficients are re-derived
from the seed on demand and are never serialized; test oracles may query them
through :func:`true_parameter_array`, calibration code must not.

Floating-gate programming is noisy: each write lands within a few DAC steps
of the requested value and two consecutive writes of the same value differ.
The analog membrane readout passes through a per-circuit voltage shift, a 1:2
divider and a 12-bit ADC with input-referred noise, so a 1.8 V membrane reads
as 0.9 V at full code.

Analog parameters live in floating-gate (FG) cells. In each FG block column
0 is shared by the block and columns 1.. belong to one circuit each.
``FG_CELLS`` gives every cell's row, whether its block shares it and the
unit of its nominal DAC transfer; ``CONTROL_CELL`` names the cell that sets
each time constant; ``cell_index`` locates a cell's values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import rng
from .defects import DefectSet
from .topology import Coord, Kind, TopologyConfig, check_schema, validate_coord
from .variability import SoftplusLaw, VariabilityConfig

SCHEMA = "waferforge.wafer/1"

VGMAX_PALETTE = 4  # shared conductance-scale (vgmax) cells per FG block
REFERENCE_DAC_MAX = 1023  # plans and test levels are codes of this DAC


class FgCell(NamedTuple):
    row: int
    shared: bool  # one cell per FG block (column 0) instead of per circuit
    unit: str  # of the nominal DAC transfer: "V" or "uA"


FG_CELLS = {
    "e_leak": FgCell(0, False, "V"),
    "v_threshold": FgCell(1, False, "V"),
    "e_synx": FgCell(2, False, "V"),
    "e_syni": FgCell(3, False, "V"),
    "v_syntcx": FgCell(4, False, "V"),
    "v_syntci": FgCell(5, False, "V"),
    "v_convoffx": FgCell(6, False, "V"),
    "v_convoffi": FgCell(7, False, "V"),
    "i_gl": FgCell(8, False, "uA"),
    "i_pulse": FgCell(9, False, "uA"),
    "v_reset": FgCell(0, True, "V"),
    **{f"vgmax{p}": FgCell(1 + p, True, "V") for p in range(VGMAX_PALETTE)},
}

# time-constant parameter -> the cell whose current or voltage sets it
CONTROL_CELL = {"tau_ref": "i_pulse", "tau_mem": "i_gl",
                "tau_synx": "v_syntcx", "tau_syni": "v_syntci"}


def softplus_tau(x, a, b, c, offset):
    """tau(x) = a * softplus(c * (b - x)) / c + offset."""
    return a * np.logaddexp(0.0, c * (b - x)) / c + offset


def inverse_softplus_tau(tau, a, b, c, offset):
    """Control value x achieving tau; requires tau > offset."""
    s = (tau - offset) * c / a
    return b - np.log(np.expm1(s)) / c


@dataclass
class FgState:
    """Digital set values and analog effective values of one hicann's cells."""

    d_set: np.ndarray  # (blocks, rows, cols) int32
    d_eff: np.ndarray  # (blocks, rows, cols) float64
    written: np.ndarray  # bool mask
    write_cycle: int = 0

    @classmethod
    def blank(cls, cfg: TopologyConfig) -> "FgState":
        shape = (cfg.fg_blocks_per_hicann, cfg.fg_rows, cfg.fg_columns)
        return cls(np.zeros(shape, dtype=np.int32), np.zeros(shape), np.zeros(shape, dtype=bool))


class HicannTruth:
    """Hidden coefficients of one hicann, drawn once from the master seed."""

    def __init__(self, seed: int, h: int, var: VariabilityConfig, cfg: TopologyConfig):
        N = cfg.neurons_per_hicann
        B = cfg.fg_blocks_per_hicann
        P = VGMAX_PALETTE

        def draw(name, shape, mean, sigma):
            z = rng.stream(seed, "truth", h, name).standard_normal(shape)
            return mean + sigma * z

        def draw_rel(name, shape, mean, rel):
            return draw(name, shape, mean, abs(mean) * rel)

        # affine cells: value = gain * nominal volts + offset, per circuit or
        # per FG block like the cell itself
        self.gain = {}
        self.offset = {}
        for p in ("e_leak", "v_threshold", "e_synx", "e_syni",
                  "v_convoffx", "v_convoffi", "v_reset"):
            shape = B if FG_CELLS[p].shared else N
            self.gain[p] = draw(p + "_gain", shape, 1.0, var.fp_gain_sigma)
            self.offset[p] = draw(p + "_offset", shape, 0.0, var.fp_offset_sigma_voltage)
        # the vgmax palette draws one (blocks, palette) stream per coefficient
        vg_gain = draw("vgmax_gain", (B, P), 1.0, var.fp_gain_sigma)
        vg_offset = draw("vgmax_offset", (B, P), 0.0, var.fp_offset_sigma_voltage)
        for p in range(P):
            self.gain[f"vgmax{p}"] = vg_gain[:, p]
            self.offset[f"vgmax{p}"] = vg_offset[:, p]
        self.readout_shift = draw("readout_shift", N, 0.0, var.readout_shift_sigma)

        self.tau_ref_c0 = draw_rel("tau_ref_c0", N, var.tau_ref_c0_mean, var.tau_ref_rel_sigma)
        self.tau_ref_c1 = draw_rel("tau_ref_c1", N, var.tau_ref_c1_mean, var.tau_ref_rel_sigma)

        def law_draws(prefix, law: SoftplusLaw, rel, off_rel):
            return (
                draw_rel(prefix + "_a", N, law.a, rel),
                draw_rel(prefix + "_b", N, law.b, rel),
                draw_rel(prefix + "_c", N, law.c, rel),
                draw_rel(prefix + "_offset", N, law.offset, off_rel),
            )

        # softplus time-constant laws (a, b, c, offset) over the control cell
        self.laws = {
            "tau_mem": law_draws("tau_mem", var.tau_mem_law,
                                 var.tau_mem_rel_sigma, var.tau_mem_offset_rel_sigma),
            "tau_synx": law_draws("tau_synx", var.tau_syn_law,
                                  var.tau_syn_rel_sigma, var.tau_syn_offset_rel_sigma),
            "tau_syni": law_draws("tau_syni", var.tau_syn_law,
                                  var.tau_syn_rel_sigma, var.tau_syn_offset_rel_sigma),
        }

        self.weight_scale = np.maximum(
            draw_rel("weight_scale", N, var.weight_scale_mean, var.weight_scale_rel_sigma),
            var.weight_scale_mean * 0.05)
        self.parasitics = np.stack([
            draw_rel(f"parasitic_{b}", N, m, var.weight_parasitic_rel_sigma)
            for b, m in zip((0, 1, 2, 4, 8), var.weight_parasitic_means)
        ])  # rows: constant, bit1, bit2, bit4, bit8


@dataclass
class WaferModel:
    master_seed: int
    topology: TopologyConfig
    variability: VariabilityConfig
    defects: DefectSet
    fg: dict[int, FgState] = field(default_factory=dict)
    _truth: dict[int, HicannTruth] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # a defect outside the topology is refused here, not as an
        # IndexError deep inside commissioning, whose tests read the table built here
        self.defects.table(self.topology)

    def truth(self, h: int) -> HicannTruth:
        if h not in self._truth:
            validate_coord(self.topology, Coord.hicann_(h))
            self._truth[h] = HicannTruth(self.master_seed, h, self.variability, self.topology)
        return self._truth[h]

    def fg_state(self, h: int) -> FgState:
        if h not in self.fg:
            validate_coord(self.topology, Coord.hicann_(h))
            self.fg[h] = FgState.blank(self.topology)
        return self.fg[h]

    # ---- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        fg = {}
        for h, st in sorted(self.fg.items()):
            if st.write_cycle == 0:
                continue
            fg[str(h)] = {
                "d_set": st.d_set.tolist(),
                "d_eff": st.d_eff.tolist(),
                "written": st.written.astype(int).tolist(),
                "write_cycle": st.write_cycle,
            }
        return {
            "schema": SCHEMA,
            "master_seed": self.master_seed,
            "topology": self.topology.to_json(),
            "variability": self.variability.to_json(),
            "defects": self.defects.to_json(),
            "fg": fg,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WaferModel":
        check_schema(data.get("schema"), SCHEMA)
        wafer = cls(
            master_seed=int(data["master_seed"]),
            topology=TopologyConfig.from_json(data["topology"]),
            variability=VariabilityConfig.from_json(data["variability"]),
            defects=DefectSet.from_json(data["defects"]),
        )
        shape = FgState.blank(wafer.topology).d_set.shape
        for h, st in data.get("fg", {}).items():
            fg = FgState(
                d_set=np.array(st["d_set"], dtype=np.int32),
                d_eff=np.array(st["d_eff"], dtype=float),
                written=np.array(st["written"], dtype=bool),
                write_cycle=int(st["write_cycle"]),
            )
            for name in ("d_set", "d_eff", "written"):
                if getattr(fg, name).shape != shape:
                    raise ValueError(f"fg state of hicann {h}: {name} has shape "
                                     f"{getattr(fg, name).shape}, expected {shape}")
            validate_coord(wafer.topology, Coord.hicann_(int(h)))
            wafer.fg[int(h)] = fg
        return wafer

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "WaferModel":
        with open(path) as f:
            return cls.from_json(json.load(f))


def build_wafer(master_seed: int,
                topology: TopologyConfig | None = None,
                variability: VariabilityConfig | None = None,
                defects: DefectSet | None = None) -> WaferModel:
    return WaferModel(
        master_seed=int(master_seed),
        topology=topology or TopologyConfig(),
        variability=variability or VariabilityConfig(),
        defects=defects or DefectSet(),
    )


@lru_cache(maxsize=64)
def cell_index(cfg: TopologyConfig, name: str) -> tuple:
    """(block, row, column) index of cell ``name``'s values in an FG state:
    one entry per circuit, or one per FG block for a shared cell. The index
    arrays are cached and read-only."""
    if name not in FG_CELLS:
        raise ValueError(f"unknown floating-gate parameter {name!r}")
    row, shared, _ = FG_CELLS[name]
    if shared:
        blocks, cols = np.arange(cfg.fg_blocks_per_hicann), np.zeros(cfg.fg_blocks_per_hicann, int)
    else:
        blocks, cols = np.divmod(np.arange(cfg.neurons_per_hicann), cfg.neurons_per_fg_block)
        cols += 1
    blocks.flags.writeable = cols.flags.writeable = False
    return blocks, row, cols


def program_floating_gates(wafer: WaferModel, h: int, values: dict) -> None:
    """Write floating-gate cells on hicann ``h``.

    ``values`` maps cell names to DAC values, a scalar or one value per
    cell entry (per circuit, or per block for the shared cells); ``vgmax``
    takes the whole palette as a (blocks, palette) or (palette,) array.
    Every write is one noisy programming cycle for the whole hicann;
    unwritten cells keep their previous effective value.
    """
    cfg = wafer.topology
    st = wafer.fg_state(h)
    if "vgmax" in values:
        values = dict(values)
        palette = np.broadcast_to(np.asarray(values.pop("vgmax"), dtype=float),
                                  (cfg.fg_blocks_per_hicann, VGMAX_PALETTE))
        values.update({f"vgmax{p}": palette[:, p] for p in range(VGMAX_PALETTE)})

    target = st.d_set.copy()
    mask = np.zeros_like(st.written)
    for name, val in values.items():
        idx = cell_index(cfg, name)
        target[idx] = np.round(np.broadcast_to(np.asarray(val, dtype=float), idx[0].shape))
        mask[idx] = True

    bad = (target < 0) | (target > cfg.dac_max)
    if np.any(bad & mask):
        raise ValueError(f"DAC value out of range 0..{cfg.dac_max}")

    st.write_cycle += 1
    noise = rng.stream(wafer.master_seed, "fgwrite", h, st.write_cycle) \
        .standard_normal(st.d_set.shape) * wafer.variability.fg_write_sigma
    eff = np.clip(np.round(target + noise), 0, cfg.dac_max)
    st.d_set[mask] = target[mask]
    st.d_eff[mask] = eff[mask]
    st.written |= mask


def fg_dac_array(wafer: WaferModel, h: int, name: str) -> np.ndarray:
    """Effective (post write noise) DAC values of cell ``name``, per circuit
    or per block for shared cells."""
    return wafer.fg_state(h).d_eff[cell_index(wafer.topology, name)]


def from_reference_dac(cfg: TopologyConfig, value):
    """Reference-DAC code(s), an int or nested tuples, as codes of the topology's DAC."""
    if isinstance(value, tuple):
        return tuple(from_reference_dac(cfg, v) for v in value)
    return int(round(value * cfg.dac_max / REFERENCE_DAC_MAX))


def dac_to_volts(cfg: TopologyConfig, d) -> np.ndarray | float:
    return np.asarray(d) / cfg.dac_max * cfg.dac_voltage_max


def dac_to_ua(cfg: TopologyConfig, d) -> np.ndarray | float:
    return np.asarray(d) / cfg.dac_max * (cfg.dac_current_max * 1e6)


def dac_to_unit(cfg: TopologyConfig, name: str, d) -> np.ndarray | float:
    """Nominal DAC transfer of cell ``name``, in the cell's unit."""
    if FG_CELLS[name].unit == "uA":
        return dac_to_ua(cfg, d)
    return dac_to_volts(cfg, d)


def true_parameter_array(wafer: WaferModel, h: int, name: str,
                         d_eff=None) -> np.ndarray:
    """Per-neuron physical values (512,), optionally at overridden DAC values.

    ``d_eff`` may be a scalar or an array broadcastable to the controlling
    cell's layout (per neuron, or per block for shared cells).
    """
    cfg, tr = wafer.topology, wafer.truth(h)
    if name == "readout_shift":
        return tr.readout_shift.copy()
    if name == "g_leak":
        return wafer.variability.membrane_capacitance \
            / true_parameter_array(wafer, h, "tau_mem", d_eff)
    if name not in tr.gain and name not in CONTROL_CELL:
        raise ValueError(f"unknown parameter {name!r}")
    cell = CONTROL_CELL.get(name, name)
    idx = cell_index(cfg, cell)
    d = wafer.fg_state(h).d_eff[idx] if d_eff is None else np.asarray(d_eff, dtype=float)
    x = dac_to_unit(cfg, cell, np.broadcast_to(d, idx[0].shape))
    if name == "tau_ref":  # tau = (1/I - c0) / c1, floored at zero
        return np.maximum((1.0 / np.maximum(x, 1e-9) - tr.tau_ref_c0) / tr.tau_ref_c1, 0.0)
    if name in tr.laws:
        return softplus_tau(x, *tr.laws[name])
    v = tr.gain[name] * x + tr.offset[name]
    if FG_CELLS[name].shared:  # every circuit of a block sees its block's cell
        v = v[np.arange(cfg.neurons_per_hicann) // cfg.neurons_per_fg_block]
    return v


def conductance_step_array(wafer: WaferModel, h: int, circuits, weights,
                           gmax_div, vgmax_sel) -> np.ndarray:
    """Synaptic conductance steps (S) for arrays of synapse settings."""
    tr = wafer.truth(h)
    circuits = np.asarray(circuits, dtype=int)
    weights = np.asarray(weights, dtype=int)
    gmax_div = np.broadcast_to(np.asarray(gmax_div, dtype=float), circuits.shape)
    vgmax_sel = np.broadcast_to(np.asarray(vgmax_sel, dtype=int), circuits.shape)
    vg = np.empty(circuits.shape)
    for p in range(VGMAX_PALETTE):
        m = vgmax_sel == p
        if m.any():
            vg[m] = true_parameter_array(wafer, h, f"vgmax{p}")[circuits[m]]
    bits = np.stack([np.ones(weights.shape, dtype=float),
                     (weights & 1).astype(float), ((weights >> 1) & 1).astype(float),
                     ((weights >> 2) & 1).astype(float), ((weights >> 3) & 1).astype(float)])
    parasitic = np.einsum("bn,bn->n", tr.parasitics[:, circuits], bits)
    # a palette voltage below zero (an unprogrammed cell) drives no current
    drive = weights * np.maximum(vg, 0.0) / gmax_div + parasitic
    return tr.weight_scale[circuits] * drive


def efficacy_arrays(wafer: WaferModel, h: int, side: str) -> tuple[np.ndarray, np.ndarray]:
    """(permanent leak conductance, efficacy factor) per neuron circuit.

    Below the transition point of the effective ``v_convoff`` voltage the
    input amplifier conducts permanently toward its reversal potential; above
    it the synaptic drive weakens linearly. The per-circuit spread enters
    through the v_convoff voltage transfer (gain/offset), so the transition
    sits at a different DAC value on every circuit.
    """
    var = wafer.variability
    name = "v_convoffx" if side == "x" else "v_convoffi"
    v = true_parameter_array(wafer, h, name)
    mid = var.vconvoff_mid_mean
    g_perm = var.vconvoff_leak_scale * np.maximum(0.0, mid - v)
    efficacy = np.maximum(0.0, 1.0 - var.vconvoff_efficacy_slope
                          * np.maximum(0.0, v - mid))
    return g_perm, efficacy


def adc_sample_period(wafer: WaferModel) -> float:
    """Biological seconds between two ADC samples."""
    return wafer.topology.speedup / wafer.variability.adc_sample_rate_hw


def adc_readout(wafer: WaferModel, h: int, circuits, samples: np.ndarray,
                token) -> np.ndarray:
    """Digitize membrane samples as the analog readout chain sees them.

    ``samples`` has shape (len(circuits), T) in membrane volts. The chain
    applies the per-circuit readout shift, the 1:2 divider and quantizes to
    ``adc_bits`` over the full scale; the return value is in ADC volts
    (full scale 0.9 V). Each row's noise is keyed by ``(token, circuit)``: a
    new token re-draws it, the other circuits read with it never change it.
    """
    var, tr = wafer.variability, wafer.truth(h)
    circuits = np.asarray(circuits, dtype=int)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    top = 2 ** var.adc_bits - 1
    v = samples + tr.readout_shift[circuits][:, None]
    v /= var.adc_divider
    if var.adc_noise_sigma > 0.0:
        noise = rng.stream_normals(wafer.master_seed,
                                   [("adc", h, token, c) for c in circuits.tolist()],
                                   v.shape[1])
        noise *= var.adc_noise_sigma
        v += noise
    v /= var.adc_fullscale
    v *= top
    np.rint(v, out=v)
    np.clip(v, 0, top, out=v)
    v *= var.adc_fullscale / top
    return v
