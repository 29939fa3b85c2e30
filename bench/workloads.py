"""The benchmark's workloads: set-up, the timed operation and its output check.

Each workload runs one operation per repetition. ``setup`` builds that
repetition's inputs from scratch, outside the op's timing (``setup_s`` times
it in fresh interpreters); ``op`` is the timed call into waferforge's public
entry points; ``check`` returns the problems found in the op's output (empty
when it is correct). Traced names are called through their module
(``commissioning.commission``) so that the tracer's probes see them.

The wafer of repetition ``r`` has master seed ``seed + 1000 * r``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from waferforge import calibration, commissioning, defects, scenarios
from waferforge.defects import DefectRates, DefectSet, DefectType
from waferforge.topology import Coord, Kind, TopologyConfig
from waferforge.variability import VariabilityConfig
from waferforge.wafer import build_wafer, true_parameter_array


def wafer_seed(seed: int, rep: int) -> int:
    return seed + 1000 * rep


def _report_counts(rows) -> dict:
    """(individual, effective) counts of the report rows that are not 0."""
    return {r.resource: [r.individual, r.effective] for r in rows
            if r.individual or r.effective}


# ---------------------------------------------------------------------------
# commissioning


class Commission:
    """One op: ``commission()`` then ``exclusion_report()`` on a fresh wafer."""

    op_metric = "wafer_s"

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = TopologyConfig()

    def defect_set(self) -> DefectSet:
        raise NotImplementedError

    def setup(self, rep: int):
        return build_wafer(wafer_seed(self.seed, rep), self.cfg, defects=self.defect_set())

    def op(self, wafer):
        db, mem = commissioning.commission(wafer)
        rows = commissioning.exclusion_report(self.cfg, db.state("individual"),
                                              db.state("effective"))
        return db, mem, rows


class CommissionGolden(Commission):
    name = "commission_golden"
    why = ("the paper's reference defect set with an exactly known outcome; time is closure "
           "reads over ~21 k excluded coordinates, no fitting or integration")

    # effective exclusions per kind of the golden scenario, and the report's
    # (individual, effective) counts per resource
    EFFECTIVE = {"hicann": 13, "jtag_link": 13, "highspeed_link": 30, "neuron": 15360,
                 "ext_merger": 240, "bus": 5346, "repeater": 263, "repeater_block": 2}
    REPORT = {"jtag_link": [12, 13], "highspeed_link": [12, 30], "neuron": [0, 9216],
              "ext_merger": [0, 144], "repeater": [187, 263], "bus": [0, 2626]}

    def defect_set(self) -> DefectSet:
        return scenarios.golden_defect_set(self.cfg)

    def check(self, wafer, result) -> list[str]:
        db, _, rows = result
        counts = _kind_counts(db.state("effective"))
        problems = []
        if counts != self.EFFECTIVE:
            problems.append(f"effective counts {counts} != {self.EFFECTIVE}")
        report = _report_counts(rows)
        if report != self.REPORT:
            problems.append(f"report counts {report} != {self.REPORT}")
        return problems


class CommissionDense(Commission):
    name = "commission_dense"
    why = ("same availability layer, write-heavy: 6 unstable synapse arrays put 340 k "
           "coordinates through exclude_many and the report")

    DEFECT_SEED = 0
    # the closure property test's rates plus unstable synapse cells
    RATES = DefectRates(jtag=0.02, highspeed=0.03, fg_controller=0.004, repeater=0.001,
                        switch=3e-5, synapse_driver=1e-4, synapse_stuck=1e-6,
                        merger_stuck=3e-4, fg_block_stuck=3e-4, synapse_unstable=1e-7)
    # sha256 of the individual and effective AvailabilityState.to_json(),
    # their exclusions per kind and the report's (individual, effective) rows
    DIGEST = "96465270f3c49363a78d60a9ef56d7f56bd723761904dbc15564c3a0c51a830d"
    INDIVIDUAL = {"hicann": 1, "jtag_link": 5, "highspeed_link": 18, "synapse_array": 6,
                  "synapse_row": 1344, "synapse_driver": 664, "synapse": 337969,
                  "merger": 1, "repeater": 125, "switch": 77}
    EFFECTIVE = {"hicann": 6, "jtag_link": 6, "highspeed_link": 39, "neuron": 20288,
                 "synapse_array": 6, "synapse_row": 1344, "synapse_driver": 664,
                 "synapse": 337969, "ext_merger": 316, "merger": 1, "bus": 3234,
                 "repeater": 239, "repeater_block": 3, "switch": 77}
    REPORT = {"jtag_link": [5, 6], "highspeed_link": [18, 39], "neuron": [0, 17728],
              "merger": [1, 1], "synapse_array": [6, 6], "synapse_row": [1344, 1344],
              "synapse_driver": [664, 664], "synapse": [337969, 337969],
              "ext_merger": [0, 276], "repeater": [125, 239], "bus": [0, 3194],
              "switch": [77, 77]}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.digest_checked = False

    def defect_set(self) -> DefectSet:
        drawn = defects.random_defects(self.DEFECT_SEED, self.cfg, self.RATES)
        # an unstable cell that flips on every rewrite is found on every
        # wafer, so the outcome, and the work, is the same for every seed
        return DefectSet([dataclasses.replace(d, flip_probability=1.0)
                          if d.type is DefectType.MEMORY_UNSTABLE else d for d in drawn])

    def check(self, wafer, result) -> list[str]:
        """Exact counts on every op; the JSON digest, which costs more than
        the op itself, on the first op of the run."""
        db, _, rows = result
        ind, eff = db.state("individual"), db.state("effective")
        problems = []
        if not eff.issuperset(ind):
            problems.append("effective state does not contain the individual state")
        for name, state, want in (("individual", ind, self.INDIVIDUAL),
                                  ("effective", eff, self.EFFECTIVE)):
            got = _kind_counts(state)
            if got != want:
                problems.append(f"{name} counts {got} != {want}")
        report = _report_counts(rows)
        if report != self.REPORT:
            problems.append(f"report counts {report} != {self.REPORT}")
        if not self.digest_checked:
            self.digest_checked = True
            got = state_digest(db)
            if got != self.DIGEST:
                problems.append(f"availability digest {got} != {self.DIGEST}")
        return problems


def _kind_counts(state) -> dict:
    return {k.value: state.count_excluded(k) for k in Kind if state.count_excluded(k)}


def state_digest(db) -> str:
    data = {name: db.state(name).to_json() for name in ("individual", "effective")}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# calibration

# the ops calibrate_hicann runs; the wafer-wide weight model is separate
HICANN_OPS = tuple(op for op in calibration.CALIBRATION_ORDER if op != "weight")

# to_hardware target -> (oracle parameter, calibrated FG parameter)
TARGETS = {
    "e_leak": ("e_leak", "e_leak"),
    "v_threshold": ("v_threshold", "v_threshold"),
    "e_syni": ("e_syni", "e_syni"),
    "e_synx": ("e_synx", "e_synx"),
    "v_reset": ("v_reset", "v_reset"),
    "tau_ref": ("tau_ref", "i_pulse"),
    "tau_mem": ("tau_mem", "i_gl"),
    "tau_synx": ("tau_synx", "v_syntcx"),
    "tau_syni": ("tau_syni", "v_syntci"),
}


class CalibrateHicann:
    """One op: ``calibrate_hicann()`` of hicann 0 over a strided circuit scope.

    Calibration rewrites the floating gates, so every repetition sets up a
    fresh defect-free wafer, its hidden truth and its commissioning.
    """

    name = "calibrate_hicann"
    why = ("per-hicann calibration of every 8th circuit: PSP fitting and integration, "
           "which commissioning never runs")
    op_metric = "calibrate_s"
    HICANN = 0
    SCOPE = range(0, 512, 8)

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = TopologyConfig()
        ideal = build_wafer(0, self.cfg, variability=VariabilityConfig().zeroed())
        # one target per invertible parameter: the design value at the
        # middle of the parameter's default sweep
        self.targets = {}
        for target, (oracle, param) in TARGETS.items():
            dacs = calibration.DEFAULT_PLANS[param].dac_values
            mid = 0.5 * (min(dacs) + max(dacs))
            self.targets[target] = float(true_parameter_array(ideal, 0, oracle, d_eff=mid)[0])

    def setup(self, rep: int):
        wafer = build_wafer(wafer_seed(self.seed, rep), self.cfg)
        wafer.truth(self.HICANN)
        av_db, _ = commissioning.commission(wafer)
        return wafer, av_db.state("effective")

    def op(self, ctx):
        wafer, availability = ctx
        return calibration.calibrate_hicann(wafer, None, self.HICANN,
                                            availability=availability,
                                            neurons=self.SCOPE)

    def check(self, ctx, db) -> list[str]:
        """Every circuit eligible for an op got an entry; valid ones are finite."""
        _, availability = ctx
        h = self.HICANN
        per_block = self.cfg.neurons_per_hicann // self.cfg.fg_blocks_per_hicann
        scope = [n for n in self.SCOPE if availability.is_usable(Coord.neuron(h, n))]
        problems = []
        for op in HICANN_OPS:
            eligible = [n for n in scope if all(
                db.has(Coord.fg_block(h, n // per_block) if req == "v_reset"
                       else Coord.neuron(h, n), req)
                for req in calibration.REQUIRES[op])]
            if op == "v_reset":
                want = {Coord.fg_block(h, b) for b in {n // per_block for n in eligible}}
            else:
                want = {Coord.neuron(h, n) for n in eligible}
            entries = db.entries(op)
            if {e.coord for e in entries} != want:
                problems.append(f"{op}: {len(entries)} entries for {len(want)} eligible")
            bad = [e for e in entries if e.valid and not all(map(math.isfinite, e.coeffs))]
            if bad:
                problems.append(f"{op}: {len(bad)} valid entries with non-finite coefficients")
        return problems

    def quality(self, ctx, db) -> dict:
        """Valid fraction and relative rms error of to_hardware against the oracle.

        Scored against the simulator's own hidden truth; the model has no
        real-hardware reference, so the figure is unvalidated.
        """
        wafer, _ = ctx
        h = self.HICANN
        per_block = self.cfg.neurons_per_hicann // self.cfg.fg_blocks_per_hicann
        entries = db.entries()
        valid = sum(1 for e in entries if e.valid)
        errors: dict[str, list[float]] = {}
        unreachable = 0
        for target, (oracle, param) in TARGETS.items():
            goal = self.targets[target]
            errs = errors.setdefault(target, [])
            for e in db.entries(param):
                if not e.valid:
                    continue
                n = e.coord.indices[1] * (per_block if e.coord.kind is Kind.FG_BLOCK else 1)
                try:
                    dac = calibration.to_hardware(self.cfg, db, Coord.neuron(h, n),
                                                  {target: goal}).dacs[param]
                except calibration.RangeError:
                    unreachable += 1
                    continue
                got = true_parameter_array(wafer, h, oracle, d_eff=dac)[n]
                errs.append(got / goal - 1.0)
        pooled = np.concatenate([np.asarray(v) for v in errors.values()])
        return {
            "calib_valid_frac": valid / len(entries) if entries else 0.0,
            "calib_target_err": float(np.sqrt(np.mean(pooled ** 2))) if pooled.size else 0.0,
            "target_err_by_parameter": {k: round(float(np.sqrt(np.mean(np.square(v)))), 5)
                                        for k, v in errors.items() if v},
            "targets": self.targets,
            "unreachable_targets": unreachable,
            "valid_by_op": {op: sum(1 for e in db.entries(op) if e.valid)
                            for op in HICANN_OPS},
            "db_digest": hashlib.sha256(
                json.dumps(db.to_json(), sort_keys=True).encode()).hexdigest(),
        }


WORKLOADS = {w.name: w for w in (CommissionGolden, CommissionDense, CalibrateHicann)}
DEFAULT_SEEDS = {"commission_golden": 0, "commission_dense": 0, "calibrate_hicann": 3}
