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

``integrate`` does once per run what cannot change during the run. Each
shortcut gives the full per-step expression bit for bit, for any parameter
values, under these conditions:

* a side that no event reaches, with no recurrent connection and a finite
  decay factor, keeps ``g == +0.0``: its total conductance is computed once
  and never decayed;
* such a side's saturation test is skipped when it can fire for no unit:
  each ``i_sat`` is +inf or NaN, or is ``>= 0`` where the side's total
  conductance is zero;
* with both sides static and every ``g_tot`` positive, ``num``, ``g_tot``,
  ``V_inf`` and the propagator ``exp(-dt * g_tot / C)`` are constant: they
  are computed once (exact for constant inputs, Rotter & Diesmann 1999) and
  each step that does not saturate runs in place;
* the refractory clamp is skipped while the latest release time has passed
  (never, once a release time is NaN).

``integrate_scan`` solves a run that provably cannot spike without a step
loop and agrees with ``integrate`` to rounding (about 1e-14 V). The proof,
``cannot_spike``: without recurrent input, with ``g_leak > 0``, permanent
conductances ``>= 0``, positive synaptic time constants and finite
non-negative event amounts, each step that does not saturate moves the
membrane towards ``V_inf``, a convex combination of ``g_leak_e / g_leak``,
``e_synx`` and ``e_syni``, and a saturating step is clipped to
``max(e_synx, v)``. So a threshold above ``max(v0, e_synx, e_syni,
g_leak_e / g_leak)`` by more than the rounding of every step is never
reached. Such a run has no spikes, refractory clamps or recurrent
deliveries; between two event boundaries its conductances decay
geometrically and the membrane update is a linear recurrence, solved in
chunks with cumulative sums in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not np.all(amount >= 0.0):  # also rejects NaN
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

    def __post_init__(self):
        # integrate reads the queue with searchsorted
        if np.any(np.diff(self.boundary) < 0):
            raise ValueError("event boundaries must be ascending")

    @classmethod
    def from_times(cls, times, units, amounts, dt: float) -> "EventQueue":
        times = np.asarray(times, dtype=float)
        units = np.asarray(units, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=float)
        if not np.all(amounts >= 0.0):  # also rejects NaN
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


def _exp_euler(num, g_tot, v, c, dt):
    """One membrane step; a unit without conductance drifts on ``num``."""
    conductive = g_tot > 0.0
    v_inf = num / np.where(conductive, g_tot, 1.0)
    return np.where(
        conductive,
        v_inf + (v - v_inf) * np.exp(-dt * g_tot / c),
        v + dt * num / c,
    )


def _saturated_step(p: UnitParams, gx_tot, gi_tot, num, g_tot, v, dt):
    """One membrane step in which some synaptic side saturates."""
    ix_lin = gx_tot * (p.e_synx - v)
    ii_lin = gi_tot * (p.e_syni - v)
    sat_x = np.abs(ix_lin) > p.i_sat
    sat_i = np.abs(ii_lin) > p.i_sat
    saturated = sat_x | sat_i
    adj_num = np.where(sat_x, np.sign(ix_lin) * p.i_sat - gx_tot * p.e_synx, 0.0)
    adj_num += np.where(sat_i, np.sign(ii_lin) * p.i_sat - gi_tot * p.e_syni, 0.0)
    num = num + adj_num
    g_tot = g_tot - np.where(sat_x, gx_tot, 0.0) - np.where(sat_i, gi_tot, 0.0)
    v_new = _exp_euler(num, g_tot, v, p.capacitance, dt)
    lo = np.minimum(p.e_syni, v)
    hi = np.maximum(p.e_synx, v)
    return np.where(saturated, np.clip(v_new, lo, hi), v_new)


def _first_boundary(q: EventQueue, n_steps: int) -> int:
    return int(q.boundary[0]) if q.boundary.shape[0] else n_steps


def _deliver(q: EventQueue, cursor: int, k: int, g, n_steps: int):
    """Add the events landing by boundary ``k`` to ``g``.

    Returns the new cursor and the next boundary (``n_steps`` when none).
    """
    hi = cursor + int(np.searchsorted(q.boundary[cursor:], k, side="right"))
    np.add.at(g, q.unit[cursor:hi], q.amount[cursor:hi])
    return hi, int(q.boundary[hi]) if hi < q.boundary.shape[0] else n_steps


def _stays_nonnegative(q: EventQueue, decay) -> bool:
    """Whether a side's conductance stays in [0, inf], never NaN."""
    return bool(np.all(q.amount >= 0.0)
                and np.all((decay > 0.0) & (decay < np.inf)))


def _never_saturates(gx_tot, i_sat) -> bool:
    """Whether |gx_tot * (e - v)| > i_sat is false for every membrane v."""
    return bool(np.all(~(i_sat < np.inf) | ((gx_tot == 0.0) & (i_sat >= 0.0))))


def _saturates(g_side, e_side, v, i_sat, tmp, sat) -> bool:
    """Whether |g_side * (e_side - v)| > i_sat for some unit."""
    np.subtract(e_side, v, out=tmp)
    np.multiply(g_side, tmp, out=tmp)
    np.abs(tmp, out=tmp)
    return bool(np.greater(tmp, i_sat, out=sat).any())


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
    p = params
    n = p.n_units
    n_steps = int(round(duration / dt))
    if record_units is None:
        record_units = np.arange(n, dtype=np.int64)
    else:
        record_units = np.asarray(record_units, dtype=np.int64)
    record_all = np.array_equal(record_units, np.arange(n))
    record_any = record_units.shape[0] > 0
    events_x = events_x or EventQueue.empty()
    events_i = events_i or EventQueue.empty()
    # a matrix without connections never delivers anything
    if recurrent_x is not None and not recurrent_x.n_connections:
        recurrent_x = None
    if recurrent_i is not None and not recurrent_i.n_connections:
        recurrent_i = None

    v = p.v_reset.copy() if v_init is None else _as_f64(v_init, n)
    g_x = np.zeros(n)
    g_i = np.zeros(n)
    pending_x = np.zeros(n)
    pending_i = np.zeros(n)
    refrac_until = np.full(n, -np.inf)
    release = -np.inf  # latest release time, NaN once any is NaN

    decay_x = np.exp(-dt / p.tau_synx)
    decay_i = np.exp(-dt / p.tau_syni)
    c = p.capacitance
    has_sat = np.any(np.isfinite(p.i_sat))

    next_x = _first_boundary(events_x, n_steps)
    next_i = _first_boundary(events_i, n_steps)
    # a side that no event reaches, with no recurrent input and a finite
    # decay, keeps g == +0.0 for the whole run
    static_x = (next_x >= n_steps and recurrent_x is None
                and bool(np.all(np.isfinite(decay_x))))
    static_i = (next_i >= n_steps and recurrent_i is None
                and bool(np.all(np.isfinite(decay_i))))

    gx_tot = g_x + p.g_base_x
    gi_tot = g_i + p.g_base_i
    num = p.g_leak_e + gx_tot * p.e_synx + gi_tot * p.e_syni
    g_tot = p.g_leak + gx_tot + gi_tot
    check_x = has_sat and not (static_x and _never_saturates(gx_tot, p.i_sat))
    check_i = has_sat and not (static_i and _never_saturates(gi_tot, p.i_sat))
    static = static_x and static_i
    const = static and bool(np.all(g_tot > 0.0))
    if const:
        v_inf = num / g_tot
        prop = np.exp(-dt * g_tot / c)
        v_next = np.empty(n)
    tmp = np.empty(n)
    sat = np.empty(n, dtype=bool)
    fired = np.empty(n, dtype=bool)

    traces = np.empty((record_units.shape[0], n_steps + 1))
    traces[:, 0] = v[record_units]
    spike_unit_chunks: list[np.ndarray] = []
    spike_time_chunks: list[np.ndarray] = []
    px, pi = 0, 0  # event cursors

    for k in range(n_steps):
        t_k = k * dt
        # conductance increments landing on this boundary
        if k >= next_x:
            px, next_x = _deliver(events_x, px, k, g_x, n_steps)
        if k >= next_i:
            pi, next_i = _deliver(events_i, pi, k, g_i, n_steps)
        if recurrent_x is not None and pending_x.any():
            g_x += pending_x
            pending_x[:] = 0.0
        if recurrent_i is not None and pending_i.any():
            g_i += pending_i
            pending_i[:] = 0.0

        if not static_x:
            gx_tot = g_x + p.g_base_x
        if not static_i:
            gi_tot = g_i + p.g_base_i
        if not static:
            num = p.g_leak_e + gx_tot * p.e_synx + gi_tot * p.e_syni
            g_tot = p.g_leak + gx_tot + gi_tot

        saturated = (
            check_x and _saturates(gx_tot, p.e_synx, v, p.i_sat, tmp, sat)
            or check_i and _saturates(gi_tot, p.e_syni, v, p.i_sat, tmp, sat))
        if saturated:
            v_new = _saturated_step(p, gx_tot, gi_tot, num, g_tot, v, dt)
        elif const:
            v_new = v_next
            np.subtract(v, v_inf, out=v_new)
            np.multiply(v_new, prop, out=v_new)
            np.add(v_inf, v_new, out=v_new)
        else:
            v_new = _exp_euler(num, g_tot, v, c, dt)

        if t_k >= release:  # no unit is refractory
            np.greater_equal(v_new, p.v_threshold, out=fired)
            firing = fired
        else:
            active = t_k >= refrac_until
            v_new = np.where(active, v_new, p.v_reset)
            firing = active & (v_new >= p.v_threshold)
        if firing.any():
            idx = np.nonzero(firing)[0]
            dv = v_new[idx] - v[idx]
            rising = dv > 0.0
            frac = np.where(rising,
                            (p.v_threshold[idx] - v[idx])
                            / np.where(rising, dv, 1.0),
                            1.0)
            t_s = t_k + np.clip(frac, 0.0, 1.0) * dt
            spike_unit_chunks.append(idx)
            spike_time_chunks.append(t_s)
            v_new[idx] = p.v_reset[idx]
            refrac_until[idx] = t_s + p.tau_ref[idx]
            release = float(np.maximum(release, refrac_until[idx].max()))
            if recurrent_x is not None:
                recurrent_x.accumulate(idx, pending_x)
            if recurrent_i is not None:
                recurrent_i.accumulate(idx, pending_i)

        v, v_next = v_new, v
        if not static_x:
            g_x *= decay_x
        if not static_i:
            g_i *= decay_i
        if record_all:
            traces[:, k + 1] = v
        elif record_any:
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


# ---- prefix scan for runs that cannot spike ---------------------------------

_SCAN_SPAN = 64.0  # largest cumulative rate of a chunk: exp(+-64) is far from
                   # overflow and underflow
_SCAN_STEPS = 256  # longest chunk; as fast as any of 32-2048 steps on 64- and
                   # 512-unit PSP runs (shorter chunks pay numpy call overhead,
                   # longer ones fall out of cache)
_SAT_MARGIN = 1e-6  # relative margin of the after-the-fact saturation test


def cannot_spike(params: UnitParams, v0, dt: float, n_steps: int,
                 events_x: EventQueue, events_i: EventQueue) -> bool:
    """Whether a run without recurrent input provably never reaches threshold.

    See the module docstring; the rounding of each step adds at most a few
    ulp of the largest magnitude involved, which the threshold must clear.
    """
    p = params
    v0 = np.asarray(v0, dtype=float)
    finite = (p.capacitance, p.g_leak, p.g_leak_e, p.e_synx, p.e_syni,
              p.g_base_x, p.g_base_i, v0)
    if not (dt > 0.0 and all(np.all(np.isfinite(a)) for a in finite)
            and np.all(p.capacitance > 0.0) and np.all(p.g_leak > 0.0)
            and np.all(p.g_base_x >= 0.0) and np.all(p.g_base_i >= 0.0)
            and np.all(p.tau_synx > 0.0) and np.all(p.tau_syni > 0.0)):
        return False
    # decay factors in (0, 1]: a conductance only decays between events, and
    # it stays below the finite sum of its amounts
    decay_x = np.exp(-dt / p.tau_synx)
    decay_i = np.exp(-dt / p.tau_syni)
    if not (_stays_nonnegative(events_x, decay_x)
            and _stays_nonnegative(events_i, decay_i)
            and np.isfinite(events_x.amount.sum() + events_i.amount.sum())):
        return False
    e_leak = p.g_leak_e / p.g_leak
    top = np.maximum.reduce([v0, p.e_synx, p.e_syni, e_leak])
    scale = np.maximum.reduce([np.abs(v0), np.abs(p.e_synx),
                               np.abs(p.e_syni), np.abs(e_leak)])
    rounding = 16.0 * np.finfo(float).eps * (n_steps + 1) * scale
    return bool(np.all(p.v_threshold > top + rounding))


def _powers(decay, m: int):
    """decay**j and its prefix sums sum_{i<=j} decay**i, j < m, per unit."""
    lam = -np.log(decay)[:, None]
    j = np.arange(m, dtype=float)
    power = np.exp(-lam * j)
    # 1 + d + ... + d**j = expm1(-lam (j + 1)) / expm1(-lam); j + 1 at d == 1
    prefix = np.broadcast_to(j + 1.0, power.shape).copy()
    np.divide(np.expm1(-lam * (j + 1.0)), np.expm1(-lam), out=prefix,
              where=lam > 0.0)
    return power, prefix


def integrate_scan(params: UnitParams, duration: float, dt: float = 1e-4, *,
                   events_x: EventQueue | None = None,
                   events_i: EventQueue | None = None,
                   record_units=None, v_init=None, out=None) -> EngineResult:
    """Integrate a run that ``cannot_spike`` with whole-array prefix scans.

    The result agrees with ``integrate`` of the same run to rounding (about
    1e-14 V) and has an empty raster. Between two event boundaries each
    conductance decays geometrically and the membrane update
    ``V[k+1] = a[k] V[k] + (1 - a[k]) V_inf[k]`` is a linear recurrence,
    solved in chunks with cumulative sums in the log domain (exact for
    piecewise constant inputs, Rotter & Diesmann 1999; Blelloch 1990). A
    chunk's length keeps its cumulative rate within ``_SCAN_SPAN``, so the
    cumulative propagator neither overflows nor underflows, and within
    ``_SCAN_STEPS``, so its temporaries stay small.

    Saturation is tested after the fact on every scanned step with a small
    relative margin; the scan keeps the steps before the first flagged one,
    and ``integrate``'s own expression takes over from there while its exact
    test fires. After a cut the next chunk is at most twice the steps kept,
    so a run that keeps saturating scans about as many steps as it keeps.
    ``out``, if given, receives the traces (shape ``(len(record_units),
    n_steps + 1)``).
    """
    p = params
    n = p.n_units
    n_steps = int(round(duration / dt))
    if record_units is None:
        record_units = np.arange(n, dtype=np.int64)
    else:
        record_units = np.asarray(record_units, dtype=np.int64)
    record_all = np.array_equal(record_units, np.arange(n))
    events_x = events_x or EventQueue.empty()
    events_i = events_i or EventQueue.empty()
    v = p.v_reset.copy() if v_init is None else _as_f64(v_init, n)
    if not cannot_spike(p, v, dt, n_steps, events_x, events_i):
        raise ValueError("the run may spike: integrate it step by step")
    traces = np.empty((record_units.shape[0], n_steps + 1)) if out is None \
        else out
    traces[:, 0] = v[record_units]

    decay_x = np.exp(-dt / p.tau_synx)
    decay_i = np.exp(-dt / p.tau_syni)
    bx, bi = events_x.boundary, events_i.boundary
    live_x = bool(np.any(bx < n_steps))
    live_i = bool(np.any(bi < n_steps))
    has_sat = np.any(np.isfinite(p.i_sat))
    check_x = has_sat and (live_x or not _never_saturates(p.g_base_x, p.i_sat))
    check_i = has_sat and (live_i or not _never_saturates(p.g_base_i, p.i_sat))
    sat_limit = p.i_sat * (1.0 - _SAT_MARGIN)

    # no chunk is longer than the longest stretch between boundaries
    landing = np.unique(np.clip(np.concatenate([bx, bi]), 0, n_steps))
    edges = np.concatenate([[0], landing, [n_steps]])
    longest = int(np.diff(edges).max()) if n_steps else 0
    m_max = max(1, min(longest, _SCAN_STEPS))
    # V_inf - R = (g_x (e_synx - R) + g_i (e_syni - R)) / g_tot, with R the
    # rest of the permanent conductances alone (the loop's V_inf at g == 0)
    g0 = p.g_leak + p.g_base_x + p.g_base_i
    rest = (p.g_leak_e + p.g_base_x * p.e_synx + p.g_base_i * p.e_syni) / g0
    dex = (p.e_synx - rest)[:, None]
    dei = (p.e_syni - rest)[:, None]
    # cumulative rate dt / C * sum_{i<=j} g_tot_i over a chunk's steps j:
    # rc g0 (j + 1) plus each side's g times rc (1 + d + ... + d**j)
    rc = dt / p.capacitance
    cum0 = (rc * g0)[:, None] * np.arange(1, m_max + 1, dtype=float)
    pow_x, pre_x = _powers(decay_x, m_max + 1) if live_x else (None, None)
    pow_i, pre_i = _powers(decay_i, m_max + 1) if live_i else (None, None)
    if live_x:
        pre_x *= rc[:, None]
    if live_i:
        pre_i *= rc[:, None]

    g_x = np.zeros(n)
    g_i = np.zeros(n)
    tmp = np.empty(n)
    sat = np.empty(n, dtype=bool)
    px, pi = 0, 0
    next_x = _first_boundary(events_x, n_steps)
    next_i = _first_boundary(events_i, n_steps)
    cap = n_steps
    k = 0
    while k < n_steps:
        if k >= next_x:
            px, next_x = _deliver(events_x, px, k, g_x, n_steps)
        if k >= next_i:
            pi, next_i = _deliver(events_i, pi, k, g_i, n_steps)
        gx_tot = g_x + p.g_base_x
        gi_tot = g_i + p.g_base_i
        saturated = (
            check_x and _saturates(gx_tot, p.e_synx, v, p.i_sat, tmp, sat)
            or check_i and _saturates(gi_tot, p.e_syni, v, p.i_sat, tmp, sat))
        rate = float(np.max(rc * (g0 + g_x + g_i)))  # no later step is faster
        m = min(next_x, next_i, n_steps) - k
        m = min(m, cap, m_max, int(_SCAN_SPAN / rate) if rate > 0.0 else m)
        if saturated or m < 2:  # one step of integrate's expression
            num = p.g_leak_e + gx_tot * p.e_synx + gi_tot * p.e_syni
            g_tot = p.g_leak + gx_tot + gi_tot
            v = _saturated_step(p, gx_tot, gi_tot, num, g_tot, v, dt) \
                if saturated else _exp_euler(num, g_tot, v, p.capacitance, dt)
            g_x *= decay_x
            g_i *= decay_i
            traces[:, k + 1] = v[record_units]
            k += 1
            continue

        # steps k .. k + m - 1: conductances, cumulative rate, V_inf - R
        g_tot, dev, cum = g0[:, None], 0.0, cum0[:, :m]
        gx = gi = None
        if live_x:
            gx = g_x[:, None] * pow_x[:, :m]
            g_tot = g_tot + gx
            dev = gx * dex
            cum = cum + g_x[:, None] * pre_x[:, :m]
        if live_i:
            gi = g_i[:, None] * pow_i[:, :m]
            g_tot = g_tot + gi
            dev = dev + gi * dei
            cum = cum + g_i[:, None] * pre_i[:, :m]
        # V[k+1+j] - R = (V[k] - R + sum_{i<=j} (1 - a_i) dev_i / A_i) A_j
        # with A_j = 1 / w_j = exp(-cum_j) the product of the propagators
        # a_i, and (1 - a_i) / A_i = w_i - w_{i-1}
        w = np.exp(cum)
        vs = np.empty((n, m))
        np.subtract(w[:, 0], 1.0, out=vs[:, 0])
        np.subtract(w[:, 1:], w[:, :-1], out=vs[:, 1:])
        vs *= dev / g_tot
        vs[:, 0] += v - rest
        np.cumsum(vs, axis=1, out=vs)
        vs /= w
        vs += rest[:, None]  # V at steps k + 1 .. k + m

        # keep the steps before the first j >= 1 whose test may fire
        keep = m
        for g_side, e_side, g_base, check in (
                (gx, p.e_synx, p.g_base_x, check_x),
                (gi, p.e_syni, p.g_base_i, check_i)):
            if check:
                g_now = g_base[:, None] if g_side is None \
                    else g_side[:, 1:] + g_base[:, None]
                cur = np.abs(g_now * (e_side[:, None] - vs[:, :-1]))
                hit = np.flatnonzero(np.any(cur > sat_limit[:, None], axis=0))
                if hit.size:
                    keep = min(keep, int(hit[0]) + 1)
        cap = 2 * keep if keep < m else max(cap, 2 * m)

        traces[:, k + 1:k + 1 + keep] = vs[:, :keep] if record_all \
            else vs[record_units, :keep]
        v = vs[:, keep - 1].copy()
        if live_x:
            g_x *= pow_x[:, keep]
        if live_i:
            g_i *= pow_i[:, keep]
        k += keep

    return EngineResult(
        dt=dt,
        n_steps=n_steps,
        record_units=record_units,
        t=np.arange(n_steps + 1) * dt,
        v=traces,
        spike_units=np.empty(0, dtype=np.int64),
        spike_times=np.empty(0),
    )
