"""Fixed-pattern variability of the analog hardware.

Every analog circuit on the wafer deviates from its design value in a way
that is fixed at production time. The ground-truth model draws one set of
per-circuit coefficients from these distributions (deterministically from the
master seed) and keeps them hidden from calibration code: calibration may
only observe the wafer through experiments and the ADC.

Transfer-function models:

* Voltage parameters (leak/threshold/reversal potentials, reset): the
  floating-gate cell value ``d`` (0..1023) maps to
  ``gain * (d / 1023 * 1.8 V) + offset`` with per-circuit gain ~ N(1, sigma)
  and offset ~ N(0, sigma). Reset voltage and the conductance-scale palette
  are shared per 128-neuron floating-gate block.
* Refractory current: ``tau_ref(I) = max(0, (1/I - c0) / c1)`` with I in uA;
  only part of the DAC range maps onto useful refractory times, so the
  sensitivity is strongly asymmetric across the range.
* Membrane and synaptic time constants: softplus laws
  ``tau(x) = a * log(1 + exp(c * (b - x))) / c + offset`` in the controlling
  quantity (leak current I_gl in uA, synaptic-time voltage in V).
* Synaptic conductance step: ``A * (w * V_gmax / gmax_div + i0 + i1*w1 +
  i2*w2 + i4*w4 + i8*w8)`` where ``w_b`` are the bits of the 4-bit weight and
  the ``i`` terms are parasitic contributions of the weight bit circuits.
* Synaptic input offset (``v_convoff``): below a per-circuit transition point
  the input amplifier leaks permanently onto the membrane; above it the
  synaptic efficacy degrades linearly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace


@dataclass(frozen=True)
class SoftplusLaw:
    """Mean coefficients of ``tau(x) = a*softplus(c*(b-x))/c + offset``."""

    a: float
    b: float
    c: float
    offset: float

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.offset))


@dataclass(frozen=True)
class VariabilityConfig:
    """Means and spreads of the hidden transfer-function coefficients.

    All sigmas can be set to zero to obtain an ideal, noise-free wafer (used
    heavily in tests: with zero sigmas every measurement is exact).
    """

    # fixed-pattern spread of the voltage-parameter transfer (gain, offset)
    fp_gain_sigma: float = 0.02
    fp_offset_sigma_voltage: float = 0.020  # V

    # readout chain
    readout_shift_sigma: float = 0.005  # V
    adc_noise_sigma: float = 0.001  # V
    adc_bits: int = 12
    adc_fullscale: float = 0.9  # V after the 1:2 divider
    adc_divider: float = 2.0
    adc_sample_rate_hw: float = 9.6e7  # samples per hardware second

    # floating-gate write noise (DAC LSB)
    fg_write_sigma: float = 2.0

    # refractory-current law: tau = max(0, (1/I - c0)/c1), I in uA, tau in bio s.
    # c0 mean sits above 1/I_max = 0.4 so full-scale current pins tau_ref to
    # exactly zero on every circuit (the floor defines the minimum).
    tau_ref_c0_mean: float = 0.5
    tau_ref_c1_mean: float = 250.0
    tau_ref_rel_sigma: float = 0.05

    # membrane time constant vs leak current I_gl (uA)
    tau_mem_law: SoftplusLaw = SoftplusLaw(a=0.05, b=0.5, c=10.0, offset=0.003)
    tau_mem_rel_sigma: float = 0.05
    tau_mem_offset_rel_sigma: float = 0.10

    # synaptic time constant vs control voltage (V)
    tau_syn_law: SoftplusLaw = SoftplusLaw(a=0.01, b=1.0, c=12.0, offset=0.0005)
    tau_syn_rel_sigma: float = 0.05
    tau_syn_offset_rel_sigma: float = 0.10

    # synaptic conductance step
    weight_scale_mean: float = 4.0e-11  # S per volt of (w * V_gmax / div)
    weight_scale_rel_sigma: float = 0.15
    weight_parasitic_means: tuple[float, ...] = (0.02, 0.005, 0.008, 0.012, 0.02)
    weight_parasitic_rel_sigma: float = 0.20

    # synaptic input offset transition (per-circuit spread enters through the
    # v_convoff voltage gain/offset pair, not through the midpoint itself)
    vconvoff_mid_mean: float = 0.9  # V
    vconvoff_leak_scale: float = 2.0e-9  # S per volt below transition
    vconvoff_efficacy_slope: float = 1.1  # fractional loss per volt above transition

    # synaptic-input amplifier saturation (bio-domain current clamp)
    ota_saturation_current: float | None = 5.0e-11  # A

    # membrane capacitance (big capacitor setting)
    membrane_capacitance: float = 2.16e-12  # F

    def zeroed(self) -> "VariabilityConfig":
        """Copy with every random spread set to zero (ideal wafer)."""
        return replace(self, **{f.name: 0.0 for f in fields(self) if "sigma" in f.name})

    def to_json(self) -> dict:
        d = asdict(self)
        d["tau_mem_law"] = list(asdict(self.tau_mem_law).values())
        d["tau_syn_law"] = list(asdict(self.tau_syn_law).values())
        d["weight_parasitic_means"] = list(self.weight_parasitic_means)
        return d

    @classmethod
    def from_json(cls, data: dict) -> "VariabilityConfig":
        kwargs = dict(data)
        kwargs["tau_mem_law"] = SoftplusLaw(*kwargs["tau_mem_law"])
        kwargs["tau_syn_law"] = SoftplusLaw(*kwargs["tau_syn_law"])
        kwargs["weight_parasitic_means"] = tuple(kwargs["weight_parasitic_means"])
        return cls(**kwargs)
