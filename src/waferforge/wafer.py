"""Ground-truth wafer model: hidden coefficients, floating gates, ADC.

A :class:`WaferModel` is fully defined by ``(master_seed, topology,
variability, defects)``. The hidden per-circuit coefficients are re-derived
from the seed on demand and are never serialized; test oracles may query them
through :func:`true_parameter`, calibration code must not.

Floating-gate programming is noisy: each write lands within a few DAC steps
of the requested value and two consecutive writes of the same value differ.
The analog membrane readout passes through a per-circuit voltage shift, a 1:2
divider and a 12-bit ADC with input-referred noise, so a 1.8 V membrane reads
as 0.9 V at full code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .defects import DefectSet
from .topology import Coord, Kind, TopologyConfig, check_schema
from .variability import SoftplusLaw, VariabilityConfig

SCHEMA = "waferforge.wafer/1"

# floating-gate cell layout: per block 24 rows x 129 columns; column 0 holds
# block-shared parameters, columns 1..128 the per-neuron parameters
NEURON_FG_ROWS = {
    "e_leak": 0,
    "v_threshold": 1,
    "e_synx": 2,
    "e_syni": 3,
    "v_syntcx": 4,
    "v_syntci": 5,
    "v_convoffx": 6,
    "v_convoffi": 7,
    "i_gl": 8,
    "i_pulse": 9,
}
SHARED_FG_ROWS = {
    "v_reset": 0,
    "vgmax0": 1,
    "vgmax1": 2,
    "vgmax2": 3,
    "vgmax3": 4,
}


def softplus(x: np.ndarray | float) -> np.ndarray | float:
    return np.logaddexp(0.0, x)


def softplus_tau(x, a, b, c, offset):
    """tau(x) = a * softplus(c * (b - x)) / c + offset."""
    return a * softplus(c * (b - x)) / c + offset


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
        P = cfg.vgmax_palette_size

        def draw(name, shape, mean, sigma):
            z = rng.stream(seed, "truth", h, name).standard_normal(shape)
            return mean + sigma * z

        def draw_rel(name, shape, mean, rel):
            return draw(name, shape, mean, abs(mean) * rel)

        self.gain = {}
        self.offset = {}
        for p in ("e_leak", "v_threshold", "e_synx", "e_syni",
                  "v_convoffx", "v_convoffi"):
            self.gain[p] = draw(p + "_gain", N, 1.0, var.fp_gain_sigma)
            self.offset[p] = draw(p + "_offset", N, 0.0, var.fp_offset_sigma_voltage)
        self.v_reset_gain = draw("v_reset_gain", B, 1.0, var.fp_gain_sigma)
        self.v_reset_offset = draw("v_reset_offset", B, 0.0, var.fp_offset_sigma_voltage)
        self.vgmax_gain = draw("vgmax_gain", (B, P), 1.0, var.fp_gain_sigma)
        self.vgmax_offset = draw("vgmax_offset", (B, P), 0.0, var.fp_offset_sigma_voltage)
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

        self.tau_mem_law = law_draws("tau_mem", var.tau_mem_law,
                                     var.tau_mem_rel_sigma, var.tau_mem_offset_rel_sigma)
        self.tau_synx_law = law_draws("tau_synx", var.tau_syn_law,
                                      var.tau_syn_rel_sigma, var.tau_syn_offset_rel_sigma)
        self.tau_syni_law = law_draws("tau_syni", var.tau_syn_law,
                                      var.tau_syn_rel_sigma, var.tau_syn_offset_rel_sigma)

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

    def truth(self, h: int) -> HicannTruth:
        if h not in self._truth:
            self._truth[h] = HicannTruth(self.master_seed, h, self.variability, self.topology)
        return self._truth[h]

    def fg_state(self, h: int) -> FgState:
        if h not in self.fg:
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
        for h, st in data.get("fg", {}).items():
            wafer.fg[int(h)] = FgState(
                d_set=np.array(st["d_set"], dtype=np.int32),
                d_eff=np.array(st["d_eff"], dtype=float),
                written=np.array(st["written"], dtype=bool),
                write_cycle=int(st["write_cycle"]),
            )
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


def program_floating_gates(wafer: WaferModel, h: int, values: dict) -> None:
    """Write floating-gate cells on hicann ``h``.

    ``values`` maps parameter names to DAC values: per-neuron parameters
    (``e_leak`` ... ``i_pulse``) take a scalar or an array of length 512,
    ``v_reset`` a scalar or per-block array of length 4, ``vgmax`` a (4, 4)
    or (4,) palette. Every write is one noisy programming cycle for the
    whole hicann; unwritten cells keep their previous effective value.
    """
    cfg = wafer.topology
    st = wafer.fg_state(h)
    N = cfg.neurons_per_hicann
    per_block = N // cfg.fg_blocks_per_hicann

    target = st.d_set.copy()
    mask = np.zeros_like(st.written)
    for name, val in values.items():
        if name in NEURON_FG_ROWS:
            row = NEURON_FG_ROWS[name]
            arr = np.broadcast_to(np.asarray(val, dtype=float), (N,))
            for b in range(cfg.fg_blocks_per_hicann):
                cols = np.arange(per_block) + 1
                target[b, row, cols] = np.round(arr[b * per_block:(b + 1) * per_block])
                mask[b, row, cols] = True
        elif name == "v_reset":
            row = SHARED_FG_ROWS["v_reset"]
            arr = np.broadcast_to(np.asarray(val, dtype=float), (cfg.fg_blocks_per_hicann,))
            target[:, row, 0] = np.round(arr)
            mask[:, row, 0] = True
        elif name == "vgmax":
            arr = np.asarray(val, dtype=float)
            if arr.ndim == 1:
                arr = np.broadcast_to(arr, (cfg.fg_blocks_per_hicann, cfg.vgmax_palette_size))
            for p in range(cfg.vgmax_palette_size):
                row = SHARED_FG_ROWS[f"vgmax{p}"]
                target[:, row, 0] = np.round(arr[:, p])
                mask[:, row, 0] = True
        else:
            raise ValueError(f"unknown floating-gate parameter {name!r}")

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


def _neuron_cell(cfg: TopologyConfig, n: int) -> tuple[int, int]:
    return n // (cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann), \
        1 + n % (cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann)


def _neuron_cell_arrays(cfg: TopologyConfig) -> tuple[np.ndarray, np.ndarray]:
    per = cfg.neurons_per_hicann // cfg.fg_blocks_per_hicann
    n = np.arange(cfg.neurons_per_hicann)
    return n // per, 1 + n % per


def fg_dac(wafer: WaferModel, h: int, name: str, n: int | None = None) -> float:
    """Effective (post write noise) DAC value of one cell."""
    cfg = wafer.topology
    st = wafer.fg_state(h)
    if name in NEURON_FG_ROWS:
        b, col = _neuron_cell(cfg, n)
        return float(st.d_eff[b, NEURON_FG_ROWS[name], col])
    if name in SHARED_FG_ROWS:
        return float(st.d_eff[n if n is not None else 0, SHARED_FG_ROWS[name], 0])
    raise ValueError(f"unknown floating-gate parameter {name!r}")


def fg_dac_array(wafer: WaferModel, h: int, name: str) -> np.ndarray:
    """Effective DAC values: per neuron (512,) or per block for shared cells."""
    cfg = wafer.topology
    st = wafer.fg_state(h)
    if name in NEURON_FG_ROWS:
        b, col = _neuron_cell_arrays(cfg)
        return st.d_eff[b, NEURON_FG_ROWS[name], col]
    if name in SHARED_FG_ROWS:
        return st.d_eff[:, SHARED_FG_ROWS[name], 0]
    raise ValueError(f"unknown floating-gate parameter {name!r}")


def dac_to_volts(cfg: TopologyConfig, d) -> np.ndarray | float:
    return np.asarray(d) / cfg.dac_max * cfg.dac_voltage_max


def dac_to_ua(cfg: TopologyConfig, d) -> np.ndarray | float:
    return np.asarray(d) / cfg.dac_max * (cfg.dac_current_max * 1e6)


def tau_ref_from_current(i_ua, c0, c1):
    i = np.maximum(np.asarray(i_ua, dtype=float), 1e-9)
    return np.maximum((1.0 / i - c0) / c1, 0.0)


def true_parameter_array(wafer: WaferModel, h: int, name: str,
                         d_eff=None) -> np.ndarray:
    """Per-neuron physical values (512,), optionally at overridden DAC values.

    ``d_eff`` may be a scalar or an array broadcastable to the parameter's
    cell layout (per neuron, or per block for shared parameters).
    """
    cfg, tr = wafer.topology, wafer.truth(h)
    blocks, _ = _neuron_cell_arrays(cfg)

    def cells(cell_name):
        if d_eff is not None:
            return np.asarray(d_eff, dtype=float)
        return fg_dac_array(wafer, h, cell_name)

    if name in ("e_leak", "v_threshold", "e_synx", "e_syni",
                "v_convoffx", "v_convoffi"):
        v = dac_to_volts(cfg, np.broadcast_to(cells(name), blocks.shape))
        return tr.gain[name] * v + tr.offset[name]
    if name == "v_reset":
        v = dac_to_volts(cfg, np.broadcast_to(cells("v_reset"),
                                              (cfg.fg_blocks_per_hicann,)))
        return (tr.v_reset_gain * v + tr.v_reset_offset)[blocks]
    if name == "readout_shift":
        return tr.readout_shift.copy()
    if name == "tau_ref":
        i = dac_to_ua(cfg, np.broadcast_to(cells("i_pulse"), blocks.shape))
        return tau_ref_from_current(i, tr.tau_ref_c0, tr.tau_ref_c1)
    if name == "tau_mem":
        i = dac_to_ua(cfg, np.broadcast_to(cells("i_gl"), blocks.shape))
        a, b, c, off = tr.tau_mem_law
        return softplus_tau(i, a, b, c, off)
    if name == "g_leak":
        return wafer.variability.membrane_capacitance \
            / true_parameter_array(wafer, h, "tau_mem", d_eff)
    if name in ("tau_synx", "tau_syni"):
        cell_name = "v_syntcx" if name.endswith("x") else "v_syntci"
        v = dac_to_volts(cfg, np.broadcast_to(cells(cell_name), blocks.shape))
        law = tr.tau_synx_law if name.endswith("x") else tr.tau_syni_law
        a, b, c, off = law
        return softplus_tau(v, a, b, c, off)
    if name in ("vgmax0", "vgmax1", "vgmax2", "vgmax3"):
        p = int(name[-1])
        v = dac_to_volts(cfg, np.broadcast_to(cells(name),
                                              (cfg.fg_blocks_per_hicann,)))
        return (tr.vgmax_gain[:, p] * v + tr.vgmax_offset[:, p])[blocks]
    raise ValueError(f"unknown parameter {name!r}")


def true_parameter(wafer: WaferModel, coord: Coord, name: str,
                   d_eff: float | None = None) -> float:
    """Physical value of a parameter given the current floating-gate state.

    ``d_eff`` overrides the stored effective DAC value of the controlling
    cell (useful to evaluate the transfer function at a hypothetical point).
    Oracle access for tests and reporting; calibration code must observe the
    wafer through experiments instead.
    """
    if coord.kind is not Kind.NEURON:
        raise ValueError("true_parameter expects a neuron coordinate")
    h, n = coord.indices
    return float(true_parameter_array(wafer, h, name, d_eff)[n])


def conductance_step_array(wafer: WaferModel, h: int, circuits, weights,
                           gmax_div, vgmax_sel) -> np.ndarray:
    """Synaptic conductance steps (S) for arrays of synapse settings."""
    tr = wafer.truth(h)
    circuits = np.asarray(circuits, dtype=int)
    weights = np.asarray(weights, dtype=int)
    gmax_div = np.broadcast_to(np.asarray(gmax_div, dtype=float), circuits.shape)
    vgmax_sel = np.broadcast_to(np.asarray(vgmax_sel, dtype=int), circuits.shape)
    vg = np.empty(circuits.shape)
    for p in range(wafer.topology.vgmax_palette_size):
        m = vgmax_sel == p
        if m.any():
            vg[m] = true_parameter_array(wafer, h, f"vgmax{p}")[circuits[m]]
    bits = np.stack([np.ones(weights.shape, dtype=float),
                     (weights & 1).astype(float), ((weights >> 1) & 1).astype(float),
                     ((weights >> 2) & 1).astype(float), ((weights >> 3) & 1).astype(float)])
    parasitic = np.einsum("bn,bn->n", tr.parasitics[:, circuits], bits)
    drive = weights * vg / gmax_div + parasitic
    return tr.weight_scale[circuits] * drive


def true_conductance_step(wafer: WaferModel, h: int, n: int, weight: int,
                          gmax_div: int, vgmax_sel: int) -> float:
    """Synaptic conductance step (S) seen by neuron circuit ``n`` for one
    incoming spike through a synapse with the given digital settings."""
    return float(conductance_step_array(wafer, h, [n], [weight],
                                        [gmax_div], [vgmax_sel])[0])


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


def synaptic_efficacy(wafer: WaferModel, h: int, n: int, side: str) -> tuple[float, float]:
    """Scalar view of :func:`efficacy_arrays` for one circuit."""
    g_perm, eff = efficacy_arrays(wafer, h, side)
    return float(g_perm[n]), float(eff[n])


def adc_readout(wafer: WaferModel, h: int, circuits, samples: np.ndarray,
                token) -> np.ndarray:
    """Digitize membrane samples as the analog readout chain sees them.

    ``samples`` has shape (len(circuits), T) in membrane volts. The chain
    applies the per-circuit readout shift, the 1:2 divider and quantizes to
    ``adc_bits`` over the full scale; the return value is in ADC volts
    (full scale 0.9 V). ``token`` keys the noise stream so repeated readouts
    of the same trace differ realistically.
    """
    var, tr = wafer.variability, wafer.truth(h)
    circuits = np.asarray(circuits, dtype=int)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    shift = tr.readout_shift[circuits][:, None]
    v = (samples + shift) / var.adc_divider
    if var.adc_noise_sigma > 0.0:
        noise = rng.stream(wafer.master_seed, "adc", h, token) \
            .standard_normal(v.shape) * var.adc_noise_sigma
        v = v + noise
    codes = np.clip(np.rint(v / var.adc_fullscale * (2 ** var.adc_bits - 1)),
                    0, 2 ** var.adc_bits - 1)
    return codes * (var.adc_fullscale / (2 ** var.adc_bits - 1))
