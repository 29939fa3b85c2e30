"""Probes on waferforge's layers and the per-layer metrics built from them.

Every metric is reported per timed operation (one wafer commissioned and
reported, or one ``calibrate_hicann`` call), so counts repeat exactly
between runs of the same inputs. The two set-up layers (defect generation,
the golden scenario) are reported per set-up instead. A ratio whose base
is 0 on a workload (no PSP fits while commissioning) reads 0.
"""

from __future__ import annotations

from tracer import Probe, Stats

CALIBRATION_OPS = ("readout_shift", "v_reset", "v_threshold", "e_leak", "e_syni",
                   "i_pulse", "v_convoffx", "v_convoffi", "i_gl", "v_syntcx",
                   "v_syntci", "e_synx")
WARNING_LAYERS = ("dynamics", "experiment", "fitting", "wafer", "calibration",
                  "commissioning", "availability", "other")

CAL = "waferforge.calibration"
COMM = "waferforge.commissioning"
STATE = "waferforge.availability:AvailabilityState"


def _op_key(args, kwargs):
    return f"calibration.{args[3]}"  # calibrate_voltage / calibrate_tau parameter


def _convoff_key(args, kwargs):
    return f"calibration.v_convoff{args[3]}"  # side "x" or "i"


_CAL_COUNTERS = {
    "valid": lambda a, k, r: sum(1 for e in r if e.valid),
    "attempted": lambda a, k, r: len(r),
}

PROBES = [
    Probe("dynamics", "integrate", ("waferforge.experiment",), {
        "steps": lambda a, k, r: r.n_steps,
        "unit_steps": lambda a, k, r: r.n_steps * a[0].n_units,
    }),
    Probe("experiment", "simulate", (CAL,)),
    Probe("experiment", "readout", (CAL,), {"traces": lambda a, k, r: len(a[2])}),
    Probe("fitting", "fit_psp_batch", (CAL,), {
        "traces": lambda a, k, r: r[0].shape[0],
        "converged": lambda a, k, r: r[2].sum(),
    }),
    Probe("fitting", "psp_model_batch", ("waferforge.fitting", CAL)),
    Probe("fitting", "fit_softplus", (CAL,)),
    Probe("fitting", "fit_linear", (CAL,)),
    Probe("wafer", "program_floating_gates", (CAL, COMM)),
    Probe("calibration", "calibrate_hicann", (CAL,)),
    Probe("calibration", "calibrate_readout_shift", (CAL,), _CAL_COUNTERS,
          key=lambda a, k: "calibration.readout_shift"),
    Probe("calibration", "calibrate_voltage", (CAL,), _CAL_COUNTERS, key=_op_key),
    Probe("calibration", "calibrate_i_pulse", (CAL,), _CAL_COUNTERS,
          key=lambda a, k: "calibration.i_pulse"),
    Probe("calibration", "calibrate_v_convoff", (CAL,), _CAL_COUNTERS, key=_convoff_key),
    Probe("calibration", "calibrate_tau", (CAL,), _CAL_COUNTERS, key=_op_key),
    Probe("calibration", "calibrate_e_synx", (CAL,), _CAL_COUNTERS,
          key=lambda a, k: "calibration.e_synx"),
    Probe("commissioning", "commission", (COMM,), {
        "individual": lambda a, k, r: len(r[0].state("individual")),
        "effective": lambda a, k, r: len(r[0].state("effective")),
    }),
    Probe("commissioning", "comm_test", (COMM,)),
    Probe("commissioning", "memory_test", (COMM,),
          {"hw_s": lambda a, k, r: r.duration_s}),
    Probe("commissioning", "stability_test", (COMM,)),
    Probe("commissioning", "array_exclusion", (COMM,),
          {"coords": lambda a, k, r: len(r)}),
    Probe("commissioning", "effective_exclusion", (COMM,)),
    Probe("commissioning", "exclusion_report", (COMM,)),
    # exclude_many shares the key, so the excludes it makes count once
    Probe("availability", "exclude", (STATE,), {"coords": lambda a, k, r: 1}),
    Probe("availability", "exclude_many", (STATE,),
          {"coords": lambda a, k, r: len(a[1])}, key=lambda a, k: "availability.exclude"),
    Probe("availability", "is_usable", (STATE,)),
    Probe("defects", "random_defects", ("waferforge.defects",)),
    Probe("scenarios", "golden_defect_set", ("waferforge.scenarios",)),
]

# metric -> (stats source, key, quantity); quantity is "calls", "s",
# "self_s" or a counter name
_PLAIN = {
    "dynamics.integrate.calls": ("op", "dynamics.integrate", "calls"),
    "dynamics.integrate.steps": ("op", "dynamics.integrate", "steps"),
    "dynamics.integrate.unit_steps": ("op", "dynamics.integrate", "unit_steps"),
    "dynamics.integrate.s": ("op", "dynamics.integrate", "s"),
    "experiment.simulate.self_s": ("op", "experiment.simulate", "self_s"),
    "experiment.readout.passes": ("op", "experiment.readout", "calls"),
    "experiment.readout.traces": ("op", "experiment.readout", "traces"),
    "experiment.readout.s": ("op", "experiment.readout", "s"),
    "fitting.fit_psp_batch.calls": ("op", "fitting.fit_psp_batch", "calls"),
    "fitting.fit_psp_batch.traces": ("op", "fitting.fit_psp_batch", "traces"),
    "fitting.fit_psp_batch.s": ("op", "fitting.fit_psp_batch", "s"),
    "fitting.psp_model_batch.calls": ("op", "fitting.psp_model_batch", "calls"),
    "fitting.fit_softplus.s": ("op", "fitting.fit_softplus", "s"),
    "fitting.fit_linear.s": ("op", "fitting.fit_linear", "s"),
    "wafer.program_floating_gates.calls": ("op", "wafer.program_floating_gates", "calls"),
    "wafer.program_floating_gates.s": ("op", "wafer.program_floating_gates", "s"),
    "commissioning.comm_test.s": ("op", "commissioning.comm_test", "s"),
    "commissioning.memory_test.s": ("op", "commissioning.memory_test", "s"),
    "commissioning.memory_test.hw_s": ("op", "commissioning.memory_test", "hw_s"),
    "commissioning.stability_test.calls": ("op", "commissioning.stability_test", "calls"),
    "commissioning.array_exclusion.calls": ("op", "commissioning.array_exclusion", "calls"),
    "commissioning.array_exclusion.coords": ("op", "commissioning.array_exclusion", "coords"),
    "commissioning.effective_exclusion.s": ("op", "commissioning.effective_exclusion", "s"),
    "commissioning.exclusion_report.s": ("op", "commissioning.exclusion_report", "s"),
    "availability.exclude.coords": ("op", "availability.exclude", "coords"),
    "availability.is_usable.calls": ("op", "availability.is_usable", "calls"),
    "availability.excluded.individual": ("op", "commissioning.commission", "individual"),
    "availability.excluded.effective": ("op", "commissioning.commission", "effective"),
    "defects.random_defects.s": ("setup", "defects.random_defects", "s"),
    "scenarios.golden_defect_set.s": ("setup", "scenarios.golden_defect_set", "s"),
}
for _op in CALIBRATION_OPS:
    for _q in ("s", "valid", "attempted"):
        _PLAIN[f"calibration.{_op}.{_q}"] = ("op", f"calibration.{_op}", _q)

# ratios: metric -> (numerator metric, denominator metric, scale)
_RATIOS = {
    "dynamics.integrate.us_per_step": ("dynamics.integrate.s", "dynamics.integrate.steps", 1e6),
    "fitting.fit_psp_batch.traces_per_s": ("fitting.fit_psp_batch.traces",
                                           "fitting.fit_psp_batch.s", 1.0),
}

# the probe whose disappearance makes a metric absent
_PROBE_OF_KEY = {f"calibration.{op}": "calibration.calibrate_voltage"
                 for op in ("v_reset", "v_threshold", "e_leak", "e_syni")}
_PROBE_OF_KEY.update({f"calibration.{op}": "calibration.calibrate_tau"
                      for op in ("i_gl", "v_syntcx", "v_syntci")})
_PROBE_OF_KEY.update({f"calibration.v_convoff{s}": "calibration.calibrate_v_convoff"
                      for s in "xi"})
_PROBE_OF_KEY.update({f"calibration.{op}": f"calibration.calibrate_{op}"
                      for op in ("readout_shift", "i_pulse", "e_synx")})


def _unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in ("s", "self_s", "hw_s"):
        return "s"
    return {"us_per_step": "us", "traces_per_s": "1/s", "converged_frac": "ratio"}.get(
        last, "count")


def layer_metrics(op: Stats, n_ops: int, setup: Stats, n_setups: int,
                  missing: set[str], absent: set[str]) -> tuple[dict, list[str]]:
    """Per-op (or per-set-up) layer metrics and the names reported absent."""
    sources = {"op": (op, max(n_ops, 1)), "setup": (setup, max(n_setups, 1))}
    values: dict[str, float] = {}
    gone: list[str] = []
    for metric, (src, key, qty) in _PLAIN.items():
        stats, n = sources[src]
        if _PROBE_OF_KEY.get(key, key) in missing or f"{key}.{qty}" in absent:
            gone.append(metric)
            continue
        values[metric] = stats.get(key, qty) / n
    for metric, (num, den, scale) in _RATIOS.items():
        if num in values and den in values:
            values[metric] = scale * values[num] / values[den] if values[den] else 0.0
        else:
            gone.append(metric)
    if "fitting.fit_psp_batch" in missing or "fitting.fit_psp_batch.converged" in absent \
            or "fitting.fit_psp_batch.traces" in absent:
        gone.append("fitting.fit_psp_batch.converged_frac")
    else:
        traces = op.get("fitting.fit_psp_batch", "traces")
        values["fitting.fit_psp_batch.converged_frac"] = \
            op.get("fitting.fit_psp_batch", "converged") / traces if traces else 0.0
    for layer in WARNING_LAYERS:
        values[f"warnings.numpy_runtime.{layer}"] = op.warnings.get(layer, 0) / max(n_ops, 1)
    return {m: {"value": v, "unit": _unit(m)} for m, v in values.items()}, gone
