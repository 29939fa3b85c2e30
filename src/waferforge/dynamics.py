"""Conductance-based LIF integration engine (biological time domain).

Exponential-Euler scheme with per-step frozen conductances:

* synaptic conductances decay exponentially between steps and jump by the
  synaptic step amount at the first sample boundary strictly after each
  event;
* the membrane update over one step treats all conductances as constant,
  which makes the update exact for the frozen values:
  ``V' = V_inf + (V - V_inf) * exp(-dt * g_tot / C)``;
* a synaptic side whose linear current would exceed the amplifier
  saturation limit contributes a constant current of that magnitude instead
  of a conductance for the step, and can then at most drive the membrane to
  its own reversal potential;
* threshold crossings are located by linear interpolation inside the step;
  the membrane is clamped to the reset voltage until the first boundary at
  or after ``t_spike + tau_ref``;
* spike delivery (external or recurrent) happens at the first boundary
  strictly after the source spike, i.e. with less than one step of latency.

A simulation "unit" is one membrane: either a single neuron circuit or a
group of interconnected circuits whose leak terms are summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _as_f64(x, n: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(x, dtype=float), (n,)).copy()


@dataclass
class UnitParams:
    """Per-unit physical parameters, each an array of shape (n_units,).

    ``g_leak_e`` is the sum of ``g_leak_i * E_leak_i`` over member circuits,
    so that interconnected membranes rest at the conductance-weighted mean of
    their leak potentials.
    """

    capacitance: np.ndarray
    g_leak: np.ndarray
    g_leak_e: np.ndarray
    v_threshold: np.ndarray
    v_reset: np.ndarray
    tau_ref: np.ndarray
    e_synx: np.ndarray
    e_syni: np.ndarray
    tau_synx: np.ndarray
    tau_syni: np.ndarray
    g_base_x: np.ndarray
    g_base_i: np.ndarray
    i_sat: np.ndarray

    @classmethod
    def build(cls, n: int, *, capacitance, g_leak, e_leak=None, g_leak_e=None,
              v_threshold=1.0, v_reset=0.4, tau_ref=0.0, e_synx=1.3,
              e_syni=0.2, tau_synx=0.005, tau_syni=0.005, g_base_x=0.0,
              g_base_i=0.0, i_sat=np.inf) -> "UnitParams":
        g_l = _as_f64(g_leak, n)
        if g_leak_e is None:
            if e_leak is None:
                raise ValueError("need e_leak or g_leak_e")
            g_leak_e = g_l * _as_f64(e_leak, n)
        return cls(
            capacitance=_as_f64(capacitance, n),
            g_leak=g_l,
            g_leak_e=_as_f64(g_leak_e, n),
            v_threshold=_as_f64(v_threshold, n),
            v_reset=_as_f64(v_reset, n),
            tau_ref=_as_f64(tau_ref, n),
            e_synx=_as_f64(e_synx, n),
            e_syni=_as_f64(e_syni, n),
            tau_synx=_as_f64(tau_synx, n),
            tau_syni=_as_f64(tau_syni, n),
            g_base_x=_as_f64(g_base_x, n),
            g_base_i=_as_f64(g_base_i, n),
            i_sat=_as_f64(i_sat, n),
        )

    @property
    def n_units(self) -> int:
        return self.capacitance.shape[0]


class SynapticMatrix:
    """Sparse unit-to-unit connections of one sign (CSR by source unit)."""

    def __init__(self, n_units: int, indptr: np.ndarray, targets: np.ndarray,
                 amounts: np.ndarray):
        self.n_units = n_units
        self.indptr = indptr
        self.targets = targets
        self.amounts = amounts

    @classmethod
    def from_triplets(cls, n_units: int, pre, post, amount) -> "SynapticMatrix":
        pre = np.asarray(pre, dtype=np.int64)
        post = np.asarray(post, dtype=np.int64)
        amount = np.asarray(amount, dtype=float)
        if np.any(amount < 0.0):
            raise ValueError("synaptic amounts must be non-negative")
        order = np.lexsort((post, pre))
        pre, post, amount = pre[order], post[order], amount[order]
        indptr = np.zeros(n_units + 1, dtype=np.int64)
        np.add.at(indptr, pre + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_units, indptr, post, amount)

    @property
    def n_connections(self) -> int:
        return int(self.targets.shape[0])

    def accumulate(self, sources: np.ndarray, out: np.ndarray) -> None:
        """out[target] += amount for every connection leaving ``sources``."""
        starts = self.indptr[sources]
        counts = self.indptr[sources + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return
        base = np.repeat(starts, counts)
        offs = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        sel = base + offs
        np.add.at(out, self.targets[sel], self.amounts[sel])


@dataclass
class EventQueue:
    """External conductance increments, pre-bucketed by sample boundary."""

    boundary: np.ndarray  # (n_events,) int64, ascending
    unit: np.ndarray
    amount: np.ndarray

    @classmethod
    def from_times(cls, times, units, amounts, dt: float) -> "EventQueue":
        times = np.asarray(times, dtype=float)
        units = np.asarray(units, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=float)
        if np.any(amounts < 0.0):
            raise ValueError("synaptic amounts must be non-negative")
        boundary = np.floor(times / dt).astype(np.int64) + 1
        return cls.from_boundaries(np.maximum(boundary, 0), units, amounts)

    @classmethod
    def from_boundaries(cls, boundary, units, amounts) -> "EventQueue":
        """Sort by boundary, then unit; events that tie keep their order."""
        order = np.lexsort((units, boundary))
        return cls(boundary[order], units[order], amounts[order])

    @classmethod
    def empty(cls) -> "EventQueue":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                   np.empty(0))


@dataclass
class EngineResult:
    dt: float
    n_steps: int
    record_units: np.ndarray
    t: np.ndarray  # (n_steps + 1,) boundary times
    v: np.ndarray  # (len(record_units), n_steps + 1)
    spike_units: np.ndarray  # time-ordered raster
    spike_times: np.ndarray

    def spikes_of(self, unit: int) -> np.ndarray:
        return self.spike_times[self.spike_units == unit]


def integrate(params: UnitParams, duration: float, dt: float = 1e-4, *,
              events_x: EventQueue | None = None,
              events_i: EventQueue | None = None,
              recurrent_x: SynapticMatrix | None = None,
              recurrent_i: SynapticMatrix | None = None,
              record_units=None, v_init=None) -> EngineResult:
    """Integrate ``duration`` seconds of biological time.

    Unrecorded units are fully simulated; only trace storage is restricted
    to ``record_units`` (default: all units).
    """
    n = params.n_units
    n_steps = int(round(duration / dt))
    if record_units is None:
        record_units = np.arange(n, dtype=np.int64)
    else:
        record_units = np.asarray(record_units, dtype=np.int64)
    events_x = events_x or EventQueue.empty()
    events_i = events_i or EventQueue.empty()

    v = params.v_reset.copy() if v_init is None else _as_f64(v_init, n)
    g_x = np.zeros(n)
    g_i = np.zeros(n)
    pending_x = np.zeros(n)
    pending_i = np.zeros(n)
    refrac_until = np.full(n, -np.inf)

    decay_x = np.exp(-dt / params.tau_synx)
    decay_i = np.exp(-dt / params.tau_syni)
    c = params.capacitance
    has_sat = np.any(np.isfinite(params.i_sat))

    traces = np.empty((record_units.shape[0], n_steps + 1))
    traces[:, 0] = v[record_units]
    spike_unit_chunks: list[np.ndarray] = []
    spike_time_chunks: list[np.ndarray] = []
    px, pi = 0, 0  # event cursors

    for k in range(n_steps):
        t_k = k * dt
        # conductance increments landing on this boundary
        if px < events_x.boundary.shape[0] and events_x.boundary[px] <= k:
            hi = px + np.searchsorted(events_x.boundary[px:], k, side="right")
            np.add.at(g_x, events_x.unit[px:hi], events_x.amount[px:hi])
            px = hi
        if pi < events_i.boundary.shape[0] and events_i.boundary[pi] <= k:
            hi = pi + np.searchsorted(events_i.boundary[pi:], k, side="right")
            np.add.at(g_i, events_i.unit[pi:hi], events_i.amount[pi:hi])
            pi = hi
        if pending_x.any():
            g_x += pending_x
            pending_x[:] = 0.0
        if pending_i.any():
            g_i += pending_i
            pending_i[:] = 0.0

        gx_tot = g_x + params.g_base_x
        gi_tot = g_i + params.g_base_i
        num = params.g_leak_e + gx_tot * params.e_synx + gi_tot * params.e_syni
        g_tot = params.g_leak + gx_tot + gi_tot
        saturated = None
        if has_sat:
            ix_lin = gx_tot * (params.e_synx - v)
            ii_lin = gi_tot * (params.e_syni - v)
            sat_x = np.abs(ix_lin) > params.i_sat
            sat_i = np.abs(ii_lin) > params.i_sat
            if sat_x.any() or sat_i.any():
                saturated = sat_x | sat_i
                adj_num = np.where(sat_x, np.sign(ix_lin) * params.i_sat
                                   - gx_tot * params.e_synx, 0.0)
                adj_num += np.where(sat_i, np.sign(ii_lin) * params.i_sat
                                    - gi_tot * params.e_syni, 0.0)
                num = num + adj_num
                g_tot = g_tot - np.where(sat_x, gx_tot, 0.0) \
                    - np.where(sat_i, gi_tot, 0.0)

        conductive = g_tot > 0.0
        v_inf = num / np.where(conductive, g_tot, 1.0)
        v_new = np.where(
            conductive,
            v_inf + (v - v_inf) * np.exp(-dt * g_tot / c),
            v + dt * num / c,
        )
        if saturated is not None:
            lo = np.minimum(params.e_syni, v)
            hi_b = np.maximum(params.e_synx, v)
            v_new = np.where(saturated, np.clip(v_new, lo, hi_b), v_new)

        active = t_k >= refrac_until
        v_new = np.where(active, v_new, params.v_reset)

        fired = active & (v_new >= params.v_threshold)
        if fired.any():
            idx = np.nonzero(fired)[0]
            dv = v_new[idx] - v[idx]
            frac = np.where(dv > 0.0,
                            (params.v_threshold[idx] - v[idx])
                            / np.where(dv > 0.0, dv, 1.0),
                            1.0)
            t_s = t_k + np.clip(frac, 0.0, 1.0) * dt
            spike_unit_chunks.append(idx)
            spike_time_chunks.append(t_s)
            v_new[idx] = params.v_reset[idx]
            refrac_until[idx] = t_s + params.tau_ref[idx]
            if recurrent_x is not None:
                recurrent_x.accumulate(idx, pending_x)
            if recurrent_i is not None:
                recurrent_i.accumulate(idx, pending_i)

        v = v_new
        g_x *= decay_x
        g_i *= decay_i
        traces[:, k + 1] = v[record_units]

    if spike_unit_chunks:
        units_all = np.concatenate(spike_unit_chunks)
        times_all = np.concatenate(spike_time_chunks)
        del spike_unit_chunks, spike_time_chunks
        order = np.lexsort((units_all, times_all))
        units_all, times_all = units_all[order], times_all[order]
    else:
        units_all = np.empty(0, dtype=np.int64)
        times_all = np.empty(0)

    return EngineResult(
        dt=dt,
        n_steps=n_steps,
        record_units=record_units,
        t=np.arange(n_steps + 1) * dt,
        v=traces,
        spike_units=units_all,
        spike_times=times_all,
    )
