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

Every solver reads its run through one preamble (``_preamble``), which
builds one record per synaptic side (``_Side``; excitatory, then
inhibitory) holding its event queue, recurrent matrix, reversal potential,
permanent conductance and decay factor, and the facts derived from them:
whether the side is static (no event before the last step, no recurrent
input and a finite decay factor, so its conductance stays ``+0.0``);
whether it is tested for saturation (some ``i_sat`` is finite, and the
side is live or its permanent conductance can saturate); and its total
conductance at zero synaptic input. It also forms ``num`` and ``g_tot`` at
zero synaptic conductance. The solvers loop over the records, so each
per-side line is written once, and so is the membrane step of the list
above (``_stepper``: the saturation test, then the update it chooses).

Which solver a run gets. ``integrate`` takes any run and chooses from those
facts: a run whose sides are both static and untested and whose every
``g_tot`` is positive has constant inputs and goes to ``_constant``; every
other run is stepped by ``_loop``. The two give the same bytes; the loop is
the reference. ``integrate_scan`` solves a run that ``scannable`` accepts:
no recurrent connection, event boundaries ``_SCAN_MIN_SEGMENT`` steps apart
on average, and ``cannot_spike``. It agrees with the loop to rounding, and
its chunks follow every unit it solves; so a caller solves such a run on
its own, and ``integrate`` never picks the scan.

``_loop``'s shortcuts give the bytes of the full per-step expression:

* a static side's total is computed once and it is not decayed; with both
  sides static, ``num``, ``g_tot``, ``V_inf``, the propagator and the drift
  are computed once too;
* an untested side computes nothing in a saturated step: its masks would be
  all false;
* before the first spike no unit is refractory, so the clamp is skipped.

``_constant``: with constant inputs both conductances stay ``+0.0``, and
``V_inf`` and the propagator ``P = exp(-dt * g_tot / C)`` are the same at
every step (exact for constant inputs, Rotter & Diesmann 1999). The run is
solved one period at a time:

* between spikes a step is ``V' = V_inf + (V - V_inf) * P``, a function of V
  alone; iterating the loop's own expression, vectorised over units, gives
  its values bit for bit;
* a spiking unit is clamped at exactly ``v_reset`` and restarts from it at
  release, so every stretch after a release repeats the same values, the
  same crossing and the same interpolated spike offset bit for bit; only
  the refractory length can change from one spike to the next;
* the release step is the first step k after the spike with
  ``k * dt >= t_spike + tau_ref``, decided by the loop's own comparison of
  the loop's own values (spike times off the grid, Hanuschkin et al. 2010);
* so after its first release a unit's train is periodic until rounding
  moves a release step: each pass takes one exact release, guesses the
  next ``_CYCLES`` cycles to repeat its refractory steps, checks every
  guessed release with those comparisons in whole-array operations and
  resumes from the first one the guess gets wrong;
* a sequence that reaches a bitwise fixed point (``V' == V``) repeats it at
  every later step, so its iteration stops there.

``integrate_scan`` solves a run that provably cannot spike without a step
loop (about 1e-14 V from the loop). The proof, ``cannot_spike``: without
recurrent input, with ``g_leak > 0``, permanent conductances ``>= 0``,
positive synaptic time constants and finite non-negative event amounts,
each step that does not saturate moves the membrane towards ``V_inf``, a
convex combination of ``g_leak_e / g_leak``, ``e_synx`` and ``e_syni``, and
a saturating step is clipped to ``max(e_synx, v)``. So the membrane stays in
the hull of ``v0`` and those potentials (``_hull``), and a threshold above
it by more than the rounding of every step is never reached. A side's
current is at most its conductance times its largest ``|e - V|`` over the
hull, so after a kick it can saturate only until its decaying conductance
falls within a per-unit room: past that horizon no step needs a test.

Each solver returns its own ``EngineResult`` with a trace array of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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


def _propagator(num, g_tot, c, dt):
    """The membrane step ``v -> v'`` for fixed ``num`` and ``g_tot``: to
    ``V_inf`` by the propagator, or drifting on ``num`` for a unit without
    conductance."""
    conductive = g_tot > 0.0
    prop = np.exp(-dt * g_tot / c)
    if conductive.all():
        v_inf = num / g_tot
        return lambda v: v_inf + (v - v_inf) * prop
    v_inf = num / np.where(conductive, g_tot, 1.0)
    drift = dt * num / c
    return lambda v: np.where(conductive, v_inf + (v - v_inf) * prop, v + drift)


def _saturation(g_side, e_side, v, i_sat):
    """Where a side saturates, what it adds to ``num`` there and the
    conductance it takes out of ``g_tot``."""
    i_lin = g_side * (e_side - v)
    sat = np.abs(i_lin) > i_sat
    return (sat, np.where(sat, np.sign(i_lin) * i_sat - g_side * e_side, 0.0),
            np.where(sat, g_side, 0.0))


def _saturated_step(p: UnitParams, sides, totals, num, g_tot, v, dt):
    """One membrane step in which some synaptic side saturates. An untested
    side (``check``) saturates nowhere: it adds ``+0.0`` to ``num`` and
    takes nothing out of ``g_tot``, as its all-false masks would."""
    sat, adj = False, []
    for side, tot in zip(sides, totals):
        hit, a, cut = (_saturation(tot, side.e, v, p.i_sat) if side.check
                       else (False, 0.0, 0.0))
        sat, g_tot = sat | hit, g_tot - cut
        adj.append(a)
    v_new = _propagator(num + (adj[0] + adj[1]), g_tot, p.capacitance, dt)(v)
    lo = np.minimum(p.e_syni, v)
    hi = np.maximum(p.e_synx, v)
    return np.where(sat, np.clip(v_new, lo, hi), v_new)


def _deliver(q: EventQueue, cursor: int, due: int, k: int, g, n_steps: int):
    """Add the events landing by boundary ``k`` to ``g`` once ``k`` reaches
    ``due``, the next boundary with events (0 before the first call).

    Returns the new cursor and next boundary (``n_steps`` when none).
    """
    if k < due:
        return cursor, due
    hi = cursor + int(np.searchsorted(q.boundary[cursor:], k, side="right"))
    np.add.at(g, q.unit[cursor:hi], q.amount[cursor:hi])
    return hi, int(q.boundary[hi]) if hi < q.boundary.shape[0] else n_steps


def _never_saturates(gx_tot, i_sat) -> bool:
    """Whether |gx_tot * (e - v)| > i_sat is false for every membrane v."""
    return bool(np.all(~(i_sat < np.inf) | ((gx_tot == 0.0) & (i_sat >= 0.0))))


def _saturates(g_side, e_side, v, i_sat, tmp, sat) -> bool:
    """Whether |g_side * (e_side - v)| > i_sat for some unit."""
    np.subtract(e_side, v, out=tmp)
    np.multiply(g_side, tmp, out=tmp)
    np.abs(tmp, out=tmp)
    return bool(np.greater(tmp, i_sat, out=sat).any())


def _combine(p: UnitParams, gx_tot, gi_tot):
    """A step's ``num`` and ``g_tot`` from each side's total conductance."""
    return (p.g_leak_e + gx_tot * p.e_synx + gi_tot * p.e_syni,
            p.g_leak + gx_tot + gi_tot)


class _Side(NamedTuple):
    """One synaptic side of a run and its facts (see the module docstring)."""

    events: EventQueue
    recurrent: SynapticMatrix | None  # None: no connection
    e: np.ndarray  # reversal potential
    g_base: np.ndarray  # permanent conductance
    decay: np.ndarray
    static: bool  # the side's conductance stays +0.0
    check: bool  # whether the side is tested for saturation
    total0: np.ndarray  # total conductance at zero synaptic conductance


class _Run(NamedTuple):
    """A run's arguments, defaults filled in, and its sides' records."""

    params: UnitParams
    dt: float
    n_steps: int
    record_units: np.ndarray
    v0: np.ndarray
    sides: tuple[_Side, _Side]  # excitatory, inhibitory
    num0: np.ndarray  # ``num`` and ``g_tot`` at zero synaptic conductance
    g0: np.ndarray

    @property
    def constant(self) -> bool:
        """Whether the run steps with constant inputs (``_constant``)."""
        return (all(s.static and not s.check for s in self.sides)
                and bool(np.all(self.g0 > 0.0)))


def _preamble(params: UnitParams, duration: float, dt: float, events_x=None,
              events_i=None, recurrent_x=None, recurrent_i=None,
              record_units=None, v_init=None) -> _Run:
    """A run with its defaults (every unit recorded, no event or recurrent
    connection, each membrane starting at ``v_reset``) and its sides'
    records (see the module docstring)."""
    p = params
    n = p.n_units
    n_steps = int(round(duration / dt))
    record_units = (np.arange(n, dtype=np.int64) if record_units is None
                    else np.asarray(record_units, dtype=np.int64))
    bad = record_units[(record_units < 0) | (record_units >= n)]
    if bad.size:
        raise ValueError(f"record unit {bad[0]} is not one of units 0..{n - 1}")
    # without a finite i_sat no side is tested, nor is a static side whose
    # permanent conductance cannot saturate
    has_sat = np.any(np.isfinite(p.i_sat))
    sides = []
    for events, recurrent, e, g_base, tau in zip(
            (events_x, events_i), (recurrent_x, recurrent_i),
            (p.e_synx, p.e_syni), (p.g_base_x, p.g_base_i),
            (p.tau_synx, p.tau_syni)):
        events = events or EventQueue.empty()
        decay = np.exp(-dt / tau)  # over one step
        if recurrent is not None and not recurrent.n_connections:
            recurrent = None  # a matrix without connections delivers nothing
        static = (recurrent is None and bool(np.all(events.boundary >= n_steps))
                  and bool(np.all(np.isfinite(decay))))
        check = bool(has_sat and not (static and _never_saturates(g_base, p.i_sat)))
        sides.append(_Side(events, recurrent, e, g_base, decay, static, check,
                           0.0 + g_base))
    return _Run(p, dt, n_steps, record_units,
                p.v_reset.copy() if v_init is None else _as_f64(v_init, n),
                tuple(sides), *_combine(p, *(s.total0 for s in sides)))


def _stepper(run: _Run):
    """The loop's membrane step in two halves, ``test(g, v) -> (totals,
    saturated)`` and ``update(totals, saturated, v) -> v'``, with ``g``
    each side's synaptic conductance.

    ``totals`` are the sides' total conductances; the test needs nothing
    else. A static side's total is its total at zero conductance, and with
    both sides static so are ``num``, ``g_tot``, ``V_inf``, the propagator
    and the drift; an untested side is not tested.
    """
    p, dt, sides = run.params, run.dt, run.sides
    tmp = np.empty(p.n_units)
    sat = np.empty(p.n_units, dtype=bool)
    # with both sides static, the update without saturation is fixed
    free = (_propagator(run.num0, run.g0, p.capacitance, dt)
            if all(s.static for s in sides) else None)

    def test(g, v):
        totals = tuple(s.total0 if s.static else g_s + s.g_base
                       for s, g_s in zip(sides, g))
        return totals, any(s.check and _saturates(tot, s.e, v, p.i_sat, tmp, sat)
                           for s, tot in zip(sides, totals))

    def update(totals, saturated, v):
        if free is not None and not saturated:
            return free(v)
        num, g_tot = (run.num0, run.g0) if free is not None else _combine(p, *totals)
        if saturated:
            return _saturated_step(p, sides, totals, num, g_tot, v, dt)
        return _propagator(num, g_tot, p.capacitance, dt)(v)

    return test, update


def resting_potential(params: UnitParams) -> np.ndarray:
    """Settled membrane voltage per unit: the loop's ``V_inf`` without
    synaptic input (leak and permanent conductances), ``v_reset`` where no
    conductance is left."""
    num, g = _combine(params, 0.0 + params.g_base_x, 0.0 + params.g_base_i)
    return np.where(g > 0.0, num / np.where(g > 0.0, g, 1.0), params.v_reset)


def _spike_offset(v, v_new, v_threshold, dt):
    """Time from a step's start to the crossing interpolated in it."""
    dv = v_new - v
    rising = dv > 0.0
    frac = np.where(rising, (v_threshold - v) / np.where(rising, dv, 1.0), 1.0)
    return np.clip(frac, 0.0, 1.0) * dt


def integrate(params: UnitParams, duration: float, dt: float = 1e-4, *,
              events_x: EventQueue | None = None,
              events_i: EventQueue | None = None,
              recurrent_x: SynapticMatrix | None = None,
              recurrent_i: SynapticMatrix | None = None,
              record_units=None, v_init=None) -> EngineResult:
    """Integrate ``duration`` seconds of biological time: by ``_constant``
    where the run's inputs are constant, by ``_loop`` otherwise.

    Unrecorded units are fully simulated; only trace storage is restricted
    to ``record_units`` (default: all units).
    """
    run = _preamble(params, duration, dt, events_x, events_i, recurrent_x,
                    recurrent_i, record_units, v_init)
    return _constant(run) if run.constant else _loop(run)


def _loop(run: _Run) -> EngineResult:
    """Step ``run`` one step at a time; the other solvers' reference."""
    p, dt, n_steps, record_units = run.params, run.dt, run.n_steps, run.record_units
    sides = run.sides
    n = p.n_units
    v = run.v0
    record_all = np.array_equal(record_units, np.arange(n))

    g = [np.zeros(n) for _ in sides]  # each side's synaptic conductance
    pending = [np.zeros(n) for _ in sides]  # its recurrent input for the next step
    cursors = [(0, 0) for _ in sides]  # its event cursor and next boundary
    refrac_until = np.full(n, -np.inf)
    test, update = _stepper(run)

    traces = np.empty((record_units.shape[0], n_steps + 1))
    traces[:, 0] = v[record_units]
    spike_unit_chunks: list[np.ndarray] = []
    spike_time_chunks: list[np.ndarray] = []
    spiked = False

    for k in range(n_steps):
        t_k = k * dt
        # conductance increments landing on this boundary
        for j, side in enumerate(sides):
            cursors[j] = _deliver(side.events, *cursors[j], k, g[j], n_steps)
            if side.recurrent is not None and pending[j].any():
                g[j] += pending[j]
                pending[j][:] = 0.0

        v_new = update(*test(g, v), v)
        if spiked:  # before the first spike every unit is active
            active = t_k >= refrac_until
            v_new = np.where(active, v_new, p.v_reset)
            firing = active & (v_new >= p.v_threshold)
        else:
            firing = v_new >= p.v_threshold
        if firing.any():
            spiked = True
            idx = np.nonzero(firing)[0]
            t_s = t_k + _spike_offset(v[idx], v_new[idx], p.v_threshold[idx], dt)
            spike_unit_chunks.append(idx)
            spike_time_chunks.append(t_s)
            v_new[idx] = p.v_reset[idx]
            refrac_until[idx] = t_s + p.tau_ref[idx]
            for side, pend in zip(sides, pending):
                if side.recurrent is not None:
                    side.recurrent.accumulate(idx, pend)

        v = v_new
        for side, g_s in zip(sides, g):
            if not side.static:
                g_s *= side.decay
        traces[:, k + 1] = v if record_all else v[record_units]

    return _result(dt, n_steps, record_units, traces, spike_unit_chunks,
                   spike_time_chunks)


def _result(dt, n_steps, record_units, traces, unit_chunks,
            time_chunks) -> EngineResult:
    """The run's result, its raster sorted by time, then unit.

    A unit never spikes twice at one time, so every (time, unit) key is
    unique and any correct sort gives ``np.lexsort``'s bytes. A quicksort on
    time, then one on (run, unit) over the members of runs of equal times,
    takes the place of the two stable sorts ``np.lexsort`` makes.
    """
    if unit_chunks:
        units_all = np.concatenate(unit_chunks)
        times_all = np.concatenate(time_chunks)
        order = np.argsort(times_all)
        times_all = times_all[order]
        tied = times_all[1:] == times_all[:-1]
        if tied.any():
            member = np.zeros(times_all.shape, dtype=bool)
            member[:-1] = tied
            member[1:] |= tied
            member = np.flatnonzero(member)
            run = np.cumsum(np.append(True, ~tied[member[:-1]]))  # numbered in time order
            sub = order[member]
            order[member] = sub[np.argsort(run * (int(units_all.max()) + 1) + units_all[sub])]
        units_all = units_all[order]
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


# ---- runs with constant inputs ---------------------------------------------

_RELAX_STEPS = 32  # steps between the stop tests of ``_relax``; 8 to 128 time
                   # the same on the calibration sweeps, whose relaxations
                   # are a small share of ``_constant``
_CYCLES = 64  # guessed spike cycles per unit checked in one pass, so a
              # pass's arrays have at most this many rows; 32 to 128 time
              # the same on the calibration sweeps


def _relax(v0, v_inf, prop, v_threshold, n_max: int):
    """The loop's update ``v_inf + (v - v_inf) * prop`` iterated from ``v0``.

    Returns ``(seq, cross)``: ``seq[j]`` holds each unit's membrane after j
    steps, and ``cross`` the first j >= 1 at which it reaches threshold (0
    when it does not). Rows past a unit's crossing are not its membrane;
    the other units run until each has settled on a bitwise fixed point,
    which every later row then repeats, or for ``n_max`` steps.
    """
    n = v0.shape[0]
    chunks = [v0[None, :]]
    cross = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    prev = v0
    j = 0
    while j < n_max and not done.all():
        m = min(_RELAX_STEPS, n_max - j)
        block = np.empty((m, n))
        for w in block:
            np.subtract(prev, v_inf, out=w)
            np.multiply(w, prop, out=w)
            np.add(v_inf, w, out=w)
            prev = w
        bits = block.view(np.uint64)
        hit = block >= v_threshold
        same = np.empty_like(hit)
        same[0] = bits[0] == chunks[-1][-1].view(np.uint64)
        np.equal(bits[1:], bits[:-1], out=same[1:])
        first_hit = np.where(hit.any(axis=0), hit.argmax(axis=0), m)
        first_same = np.where(same.any(axis=0), same.argmax(axis=0), m)
        new = ~done & (first_hit < m) & (first_hit <= first_same)
        cross[new] = j + 1 + first_hit[new]
        done |= (first_hit < m) | (first_same < m)
        chunks.append(block)
        j += m
        prev = np.where(cross > 0, v_inf, prev)  # a fixed point of the update
    return np.concatenate(chunks), cross


def _release_step(k, until, dt: float, n_steps: int):
    """The first step k' > k with ``k' * dt >= until``, or ``n_steps``.

    The loop's own comparison decides: ``ceil(until / dt)`` is moved while
    it disagrees, as ``k * dt`` does not decrease with k. A NaN ``until``
    never releases, as in the loop.
    """
    est = np.ceil(np.fmax(np.fmin(until, (n_steps + 1) * dt), 0.0) / dt)
    est = np.minimum(np.maximum(est.astype(np.int64), k + 1), n_steps)
    while True:
        down = (est - 1 > k) & ((est - 1) * dt >= until)
        if not down.any():
            break
        est -= down
    while True:
        up = (est < n_steps) & (est * dt < until)
        if not up.any():
            break
        est += up
    return est


def _constant(run: _Run) -> EngineResult:
    """Solve a run with constant inputs one period at a time (see the
    module docstring): ``_relax`` from ``v0`` and from ``v_reset``, then the
    spike chain vectorised over units, and each recorded row written from
    its spike steps, one row's index at a time, so no temporary has the
    size of the trace array."""
    p, dt, n_steps, record_units = run.params, run.dt, run.n_steps, run.record_units
    n = p.n_units
    # the loop's fixed update; every g_tot is positive
    v_inf = run.num0 / run.g0
    prop = np.exp(-dt * run.g0 / p.capacitance)

    traces = np.empty((record_units.shape[0], n_steps + 1))
    seq, cross = _relax(run.v0, v_inf, prop, p.v_threshold, n_steps)
    # every trace up to its first spike; the steps after it are rewritten
    last = seq.shape[0] - 1
    traces[:, :last + 1] = seq[:, record_units].T
    traces[:, last + 1:] = seq[last, record_units][:, None]
    spiking = np.flatnonzero(cross)
    if not spiking.size:
        return _result(dt, n_steps, record_units, traces, [], [])

    th = p.v_threshold[spiking]
    k = cross[spiking] - 1  # step of each unit's first spike
    offset = _spike_offset(seq[k, spiking], seq[k + 1, spiking], th, dt)
    del seq
    # a released unit restarts from v_reset: every stretch after a release
    # is the same sequence, up to the next crossing
    rel, rel_cross = _relax(p.v_reset[spiking], v_inf[spiking], prop[spiking],
                            th, max(n_steps - int(k.min()) - 1, 1))
    cols = np.arange(spiking.shape[0])
    c = np.maximum(rel_cross, 1)
    rel_offset = _spike_offset(rel[c - 1, cols], rel[c, cols], th, dt)
    # steps from a release to the next spike; none without a crossing
    rise = np.where(rel_cross > 0, c - 1, n_steps)

    live, tau = cols, p.tau_ref[spiking]
    chunks = []  # (positions in ``spiking``, spike steps, times, releases)
    while live.size:
        # the spike at k, its release exact; the cycles after it guessed
        # to repeat its refractory steps, each checked with the loop's
        # comparisons, and kept up to the first the guess gets wrong
        t_s = k * dt + offset
        release = _release_step(k, t_s + tau, dt, n_steps)
        chunks.append((live, k, t_s, release))
        hold = release - k
        period = hold + rise
        first = release + rise
        m = int(np.clip(np.max((n_steps - first) // period) + 1, 1, _CYCLES))
        guess = first + np.arange(m)[:, None] * period
        t_g = guess * dt + rel_offset[live]
        until = t_g + tau
        r_g = np.minimum(guess + hold, n_steps)
        ok = (guess < n_steps) & ((r_g == n_steps) | (r_g * dt >= until)) \
            & ((r_g - 1 == guess) | ((r_g - 1) * dt < until))
        good = np.where(ok.all(axis=0), m, ok.argmin(axis=0))
        taken = np.arange(m)[:, None] < good
        chunks.append((np.broadcast_to(live, taken.shape)[taken], guess[taken],
                       t_g[taken], r_g[taken]))
        k = first + good * period
        keep = k < n_steps
        live, k, tau, rise = live[keep], k[keep], tau[keep], rise[keep]
        offset = rel_offset[live]
    pos, ks, times, releases = (np.concatenate(a) for a in zip(*chunks))

    # each recorded spiking row: after its spike at ks[s], v_reset until the
    # release, then the stretch from v_reset
    pos_of = np.full(n, -1)
    pos_of[spiking] = cols
    row_pos = pos_of[record_units]
    rows = np.flatnonzero(row_pos >= 0)
    if rows.size:
        order = np.argsort(pos, kind="stable")
        bounds = np.searchsorted(pos[order], np.arange(cols.shape[0] + 1))
        ks, releases = ks[order], releases[order]
        # steps from each spike to its unit's next one, or to the end
        seg = np.append(ks[1:] - ks[:-1], 0)
        last = bounds[1:] - 1
        seg[last] = n_steps - ks[last]
        rel_t = np.ascontiguousarray(rel.T)
        top = rel_t.shape[1] - 1
        steps = np.arange(n_steps + 1)
        for row in rows:
            u = row_pos[row]
            lo, hi = bounds[u], bounds[u + 1]
            # the release in force at each step after the first spike
            since = steps[ks[lo] + 1:] - np.repeat(releases[lo:hi], seg[lo:hi])
            np.maximum(since, 0, out=since)
            np.minimum(since, top, out=since)
            traces[row, ks[lo] + 1:] = rel_t[u, since]
    return _result(dt, n_steps, record_units, traces, [spiking[pos]], [times])


# ---- prefix scan for runs that cannot spike ---------------------------------

_SCAN_MIN_SEGMENT = 8  # mean steps between event boundaries of a scanned run
_SCAN_SPAN = 64.0  # largest cumulative rate of a chunk: exp(+-64) is far from
                   # overflow and underflow
_SCAN_STEPS = 256  # longest chunk; as fast as any of 32-2048 steps on 64- and
                   # 512-unit PSP runs (shorter chunks pay numpy call overhead,
                   # longer ones fall out of cache)
_SAT_MARGIN = 1e-6  # relative margin of the after-the-fact saturation test


def _hull(params: UnitParams, v0, dt: float, n_steps: int,
          events_x: EventQueue, events_i: EventQueue):
    """``(lo, hi, slack)`` for a run without recurrent input that provably
    never reaches threshold, None for any other run.

    The membrane stays within ``[lo, hi]`` up to ``slack``, the rounding of
    every step: at most a few ulp of the largest magnitude involved. The
    thresholds lie above ``hi + slack``. See the module docstring.
    """
    p = params
    v0 = np.asarray(v0, dtype=float)
    finite = (p.capacitance, p.g_leak, p.g_leak_e, p.e_synx, p.e_syni,
              p.g_base_x, p.g_base_i, v0)
    if not (dt > 0.0 and all(np.all(np.isfinite(a)) for a in finite)
            and np.all(p.capacitance > 0.0) and np.all(p.g_leak > 0.0)
            and np.all(p.g_base_x >= 0.0) and np.all(p.g_base_i >= 0.0)
            and np.all(p.tau_synx > 0.0) and np.all(p.tau_syni > 0.0)):
        return None
    # decay factors in (0, 1]: a conductance only decays between events, and
    # it stays within [0, the finite sum of its amounts]
    if not (all(np.all(q.amount >= 0.0) for q in (events_x, events_i))
            and all(np.all(np.exp(-dt / tau) > 0.0)
                    for tau in (p.tau_synx, p.tau_syni))
            and np.isfinite(events_x.amount.sum() + events_i.amount.sum())):
        return None
    hull = (v0, p.e_synx, p.e_syni, p.g_leak_e / p.g_leak)
    lo, hi = np.minimum.reduce(hull), np.maximum.reduce(hull)
    slack = 16.0 * np.finfo(float).eps * (n_steps + 1) \
        * np.maximum(np.abs(lo), np.abs(hi))
    return (lo, hi, slack) if np.all(p.v_threshold > hi + slack) else None


def cannot_spike(params: UnitParams, v0, dt: float, n_steps: int,
                 events_x: EventQueue, events_i: EventQueue) -> bool:
    """Whether a run without recurrent input provably never reaches threshold."""
    return _hull(params, v0, dt, n_steps, events_x, events_i) is not None


def scannable(params: UnitParams, v0, dt: float, n_steps: int,
              events_x: EventQueue, events_i: EventQueue,
              recurrent_x: SynapticMatrix | None = None,
              recurrent_i: SynapticMatrix | None = None) -> bool:
    """Whether ``integrate_scan`` takes a run rather than ``integrate``.

    The run has no recurrent connection, its event boundaries leave
    segments of at least ``_SCAN_MIN_SEGMENT`` steps on average (a run
    without events has constant inputs), and it ``cannot_spike``.
    """
    if any(m is not None and m.n_connections for m in (recurrent_x, recurrent_i)):
        return False
    bounds = np.concatenate([events_x.boundary, events_i.boundary])
    landing = np.unique(np.maximum(bounds[bounds < n_steps], 0))
    return (0 < landing.shape[0] * _SCAN_MIN_SEGMENT <= n_steps
            and cannot_spike(params, v0, dt, n_steps, events_x, events_i))


def _powers(decay, m: int, scale):
    """decay**j and ``scale`` times its prefix sums sum_{i<=j} decay**i,
    j < m, per unit."""
    lam = -np.log(decay)[:, None]
    j = np.arange(m, dtype=float)
    power = np.exp(-lam * j)
    # 1 + d + ... + d**j = expm1(-lam (j + 1)) / expm1(-lam); j + 1 at d == 1
    prefix = np.broadcast_to(j + 1.0, power.shape).copy()
    np.divide(np.expm1(-lam * (j + 1.0)), np.expm1(-lam), out=prefix,
              where=lam > 0.0)
    prefix *= scale[:, None]
    return power, prefix


def _horizon(g, log_room, inv_lam, m: int) -> int:
    """The steps 1 .. h of a chunk whose saturation test may fire, h <= m.

    A unit's test cannot fire once ``g d**j <= room``, from ``j = (log g -
    log room) / lam`` on; the horizon tests that j as well, which absorbs
    the rounding of ``d**j``.
    """
    j = np.maximum(g, np.finfo(float).tiny)  # a unit without g never fires
    np.log(j, out=j)
    j -= log_room
    j *= inv_lam
    return min(m, math.ceil(j.max(initial=0.0)))


def integrate_scan(params: UnitParams, duration: float, dt: float = 1e-4, *,
                   events_x: EventQueue | None = None,
                   events_i: EventQueue | None = None,
                   record_units=None, v_init=None) -> EngineResult:
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

    Saturation is tested after the fact, with a small relative margin, on
    the scanned steps before each side's horizon (``_horizon``); the scan
    keeps the steps before the first flagged one, and the loop's own step
    (``_stepper``) takes over from there while its exact test fires. Each
    chunk starts with that exact test, and only a step the loop keeps is
    updated. After a cut the next chunk is at most twice the steps kept, so
    a run that keeps saturating scans about as many steps as it keeps.
    """
    run = _preamble(params, duration, dt, events_x, events_i,
                    record_units=record_units, v_init=v_init)
    p, n_steps, record_units, v = run.params, run.n_steps, run.record_units, run.v0
    sides = run.sides
    n = p.n_units
    hull = _hull(p, v, dt, n_steps, *(s.events for s in sides))
    if hull is None:
        raise ValueError("the run may spike: integrate it step by step")
    lo, hi, slack = hull
    record_all = np.array_equal(record_units, np.arange(n))
    traces = np.empty((record_units.shape[0], n_steps + 1))
    traces[:, 0] = v[record_units]

    test, update = _stepper(run)
    sat_limit = p.i_sat * (1.0 - _SAT_MARGIN)
    # |e - V| stays within a side's distance to the hull V stays in, so a
    # side's test cannot fire once (g d**j + g_base) times that distance is
    # within the limit, i.e. once g d**j <= room; a side without a positive
    # room for every unit, or without decay, is tested on every scanned step
    horizons = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in sides:
            dist = np.maximum(hi - s.e, s.e - lo) + slack
            spare = sat_limit * (1.0 - _SAT_MARGIN) - s.g_base * dist  # room * dist
            lam = -np.log(s.decay)
            horizons.append(
                (np.clip(np.log(spare) - np.log(dist), -1e4, 1e4), 1.0 / lam)
                if np.all(spare > 0.0) and np.all(lam > 0.0) else None)

    # no chunk is longer than the longest stretch between boundaries
    landing = np.unique(np.clip(np.concatenate(
        [s.events.boundary for s in sides]), 0, n_steps))
    edges = np.concatenate([[0], landing, [n_steps]])
    longest = int(np.diff(edges).max()) if n_steps else 0
    m_max = max(1, min(longest, _SCAN_STEPS))
    # V_inf - R = sum over the sides of g (e - R), over g_tot, with R the
    # rest of the permanent conductances alone and g0 the loop's g_tot at
    # g == 0
    g0 = run.g0
    rest = run.num0 / g0  # resting_potential: every g_tot is positive
    # cumulative rate dt / C * sum_{i<=j} g_tot_i over a chunk's steps j:
    # rc g0 (j + 1) plus each side's g times rc (1 + d + ... + d**j)
    rc = dt / p.capacitance
    cum0 = (rc * g0)[:, None] * np.arange(1, m_max + 1, dtype=float)
    # each live side's d**j, rc (1 + d + ... + d**j) and e - R
    scans = [None if s.static
             else (*_powers(s.decay, m_max + 1, rc), (s.e - rest)[:, None])
             for s in sides]

    g = [np.zeros(n) for _ in sides]  # each side's synaptic conductance
    cursors = [(0, 0) for _ in sides]  # its event cursor and next boundary
    cap = n_steps
    k = 0
    while k < n_steps:
        for j, s in enumerate(sides):
            cursors[j] = _deliver(s.events, *cursors[j], k, g[j], n_steps)
        rate = float(np.max(rc * sum(g, g0)))  # no later step is faster
        m = min(*(due for _, due in cursors), n_steps) - k
        m = min(m, cap, m_max, int(_SCAN_SPAN / rate) if rate > 0.0 else m)
        # the loop's exact saturation test; only a step kept is updated
        totals, saturated = test(g, v)
        if saturated or m < 2:  # one step of the loop
            v = update(totals, saturated, v)
            for s, g_s in zip(sides, g):
                g_s *= s.decay
            traces[:, k + 1] = v[record_units]
            k += 1
            continue

        # steps k .. k + m - 1: g_tot, (V_inf - R) g_tot and the cumulative
        # rate, summed in the loop's order; the first live side starts each
        # sum and the second adds to it in place, as each n x m temporary
        # costs more than the arithmetic on it
        g_tot, dev, cum = g0[:, None], None, cum0[:, :m]
        for g_s, scan in zip(g, scans):
            if scan is None:
                continue
            power, prefix, de = scan
            gm = g_s[:, None] * power[:, :m]
            if dev is None:
                g_tot = gm + g_tot
                dev = np.multiply(gm, de, out=gm)
                cum = g_s[:, None] * prefix[:, :m]
                cum += cum0[:, :m]
            else:
                g_tot += gm
                dev += np.multiply(gm, de, out=gm)
                cum += g_s[:, None] * prefix[:, :m]
        # V[k+1+j] - R = (V[k] - R + sum_{i<=j} (1 - a_i) dev_i / A_i) A_j
        # with A_j = 1 / w_j = exp(-cum_j) the product of the propagators
        # a_i, and (1 - a_i) / A_i = w_i - w_{i-1}
        if dev is not None:
            w = np.exp(cum, out=cum)
            np.divide(dev, g_tot, out=dev)
            vs = g_tot  # its buffer holds V from here on
        else:
            w = np.exp(cum)
            dev, vs = 0.0 / g_tot, np.empty((n, m))
        np.subtract(w[:, 0], 1.0, out=vs[:, 0])
        np.subtract(w[:, 1:], w[:, :-1], out=vs[:, 1:])
        vs *= dev
        vs[:, 0] += v - rest
        np.cumsum(vs, axis=1, out=vs)
        vs /= w
        vs += rest[:, None]  # V at steps k + 1 .. k + m

        # keep the steps before the first j >= 1 whose test may fire,
        # testing only the steps j <= h before the horizon
        keep = m
        for s, g_s, scan, horizon in zip(sides, g, scans, horizons):
            h = 0 if not s.check else m - 1 if horizon is None \
                else _horizon(g_s, *horizon, m - 1)
            if h:
                g_now = s.g_base[:, None] if scan is None \
                    else g_s[:, None] * scan[0][:, 1:h + 1] + s.g_base[:, None]
                cur = np.abs(g_now * (s.e[:, None] - vs[:, :h]))
                hit = np.flatnonzero(np.any(cur > sat_limit[:, None], axis=0))
                if hit.size:
                    keep = min(keep, int(hit[0]) + 1)
        cap = 2 * keep if keep < m else max(cap, 2 * m)

        traces[:, k + 1:k + 1 + keep] = vs[:, :keep] if record_all \
            else vs[record_units, :keep]
        v = vs[:, keep - 1].copy()
        for g_s, scan in zip(g, scans):
            if scan is not None:
                g_s *= scan[0][:, keep]
        k += keep

    return _result(dt, n_steps, record_units, traces, [], [])
