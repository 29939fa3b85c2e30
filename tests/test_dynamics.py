import dataclasses
import hashlib

import numpy as np
import pytest

from waferforge import dynamics
from waferforge.dynamics import (
    EventQueue,
    SynapticMatrix,
    UnitParams,
    cannot_spike,
    integrate,
    integrate_scan,
)
from waferforge.psp import psp_peak_time

from psp_reference import psp_analytic, psp_peak_factor


def leak_params(n=1, e_leak=0.7, g_leak=1.2e-10, v_threshold=2.0, v_reset=0.5,
                tau_ref=0.0, **kw):
    return UnitParams.build(
        capacitance=2.16e-12, g_leak=g_leak, e_leak=e_leak,
        v_threshold=v_threshold, v_reset=v_reset, tau_ref=tau_ref,
        e_synx=kw.get("e_synx", 1.4), e_syni=kw.get("e_syni", 0.3),
        tau_synx=kw.get("tau_synx", 1.1e-3), tau_syni=kw.get("tau_syni", 1.1e-3),
        g_base_x=kw.get("g_base_x", 0.0), g_base_i=kw.get("g_base_i", 0.0),
        i_sat=kw.get("i_sat", np.inf), n=n)


def run(params, duration, dt=1e-4, **kw):
    kw.setdefault("events_x", EventQueue.empty())
    kw.setdefault("events_i", EventQueue.empty())
    return integrate(params, duration, dt, **kw)


def loop(params, duration, dt=1e-4, **kw):
    """The step loop alone, whichever solver ``integrate`` would pick: the
    bitwise reference of the other solvers."""
    return dynamics._loop(dynamics._preamble(params, duration, dt, **kw))


def spikes_of(res, unit):
    return res.spike_times[res.spike_units == unit]


def test_leak_relaxation_is_exact():
    # exponential Euler solves the pure leak equation exactly at any dt
    p = leak_params()
    res = run(p, 0.05, dt=1e-3, v_init=np.array([0.2]))
    tau = 2.16e-12 / 1.2e-10
    exact = 0.7 + (0.2 - 0.7) * np.exp(-res.t / tau)
    assert np.max(np.abs(res.v[0] - exact)) < 1e-13


def test_no_conductance_no_drift():
    p = leak_params(g_leak=0.0)
    res = run(p, 0.02, v_init=np.array([0.6321]))
    assert np.all(res.v[0] == 0.6321)


def test_isi_matches_closed_form():
    # suprathreshold leak: T = tau_ref + tau * ln((E-Vr)/(E-Vth))
    tau = 2.16e-12 / 1.2e-10  # 18 ms
    p = leak_params(e_leak=1.2, v_threshold=0.9, v_reset=0.5, tau_ref=0.0)
    dt = 1e-4
    res = run(p, 0.5, dt=dt)
    times = spikes_of(res, 0)
    isi = np.diff(times)
    analytic = tau * np.log((1.2 - 0.5) / (1.2 - 0.9))
    assert len(times) > 10
    assert abs(np.mean(isi) - analytic) < dt
    # release-boundary quantization cancels in the ISI: successive ISIs agree
    assert np.std(isi) < dt


def test_refractory_period_extends_isi():
    tau = 2.16e-12 / 1.2e-10
    analytic = tau * np.log((1.2 - 0.5) / (1.2 - 0.9))
    p0 = leak_params(e_leak=1.2, v_threshold=0.9, tau_ref=0.0)
    p2 = leak_params(e_leak=1.2, v_threshold=0.9, tau_ref=2e-3)
    dt = 1e-4
    isi0 = np.mean(np.diff(spikes_of(run(p0, 0.5, dt=dt), 0)))
    isi2 = np.mean(np.diff(spikes_of(run(p2, 0.5, dt=dt), 0)))
    assert abs((isi2 - isi0) - 2e-3) < dt
    assert abs(isi2 - (analytic + 2e-3)) < 2 * dt


def test_psp_convergence_first_order():
    # single excitatory kick vs analytic difference-of-exponentials PSP
    e_leak, e_synx = 0.7, 1.4
    g_l = 2.16e-12 / 19e-3
    tau_s = 1.1e-3
    g0 = 2.0e-12
    p = leak_params(e_leak=e_leak, g_leak=g_l, e_synx=e_synx, tau_synx=tau_s)
    tau_m = 19e-3
    h_lin = g0 * (e_synx - e_leak) / 2.16e-12 * (tau_s * tau_m / (tau_m - tau_s))
    h_lin *= psp_peak_factor(tau_m, tau_s)
    errs = []
    for dt in (1e-4, 5e-5, 2.5e-5):
        q = EventQueue.from_times(np.array([0.01]), np.array([0]),
                                  np.array([g0]), dt)
        res = run(p, 0.08, dt=dt, events_x=q, v_init=np.array([e_leak]))
        model = psp_analytic(res.t, 0.01 + dt, h_lin, tau_m, tau_s, e_leak)
        errs.append(np.max(np.abs(res.v[0] - model)))
    assert errs[0] / errs[1] > 1.8
    assert errs[1] / errs[2] > 1.8
    assert errs[2] < 1e-5  # < 10 uV at dt = 25 us for a 0.6 mV PSP


def test_psp_peak_factor_alpha_limit():
    # equal time constants degrade smoothly into the alpha function
    t = np.linspace(0, 0.05, 200)
    a = psp_analytic(t, 0.0, 1.0, 5e-3, 5e-3, 0.0)
    b = psp_analytic(t, 0.0, 1.0, 5e-3, 5e-3 * (1 + 1e-10), 0.0)
    assert np.max(np.abs(a - b)) < 1e-6
    at_peak = psp_analytic(np.array([5e-3]), 0.0, 1.0, 5e-3, 5e-3, 0.0)
    assert at_peak[0] == pytest.approx(1.0, abs=1e-9)  # h is the peak height
    tpk = psp_peak_time(19e-3, 1.1e-3)
    assert tpk == pytest.approx(np.log(19 / 1.1) / (1 / 1.1e-3 - 1 / 19e-3), rel=1e-9)
    assert 0 < psp_peak_factor(19e-3, 1.1e-3) < 1
    assert abs(psp_peak_factor(5e-3, 5e-3 * (1 + 1e-12))) < 1e-9  # vanishes at r=1


def test_event_delivery_strictly_after_spike():
    # an event exactly on a grid point acts on the following step
    dt = 1e-4
    q = EventQueue.from_times(np.array([10 * dt]), np.array([0]),
                              np.array([1e-9]), dt)
    assert q.boundary[0] == 11
    q2 = EventQueue.from_times(np.array([10.5 * dt]), np.array([0]),
                               np.array([1e-9]), dt)
    assert q2.boundary[0] == 11
    p = leak_params(g_leak=0.0)
    res = run(p, 0.002, dt=dt, events_x=q, v_init=np.array([0.7]))
    assert np.all(res.v[0][:12] == 0.7)  # untouched through boundary 11
    assert res.v[0][12] > 0.7


def test_synaptic_matrix_accumulate_matches_dense():
    rng = np.random.default_rng(42)
    n = 13
    pre = rng.integers(n, size=40)
    post = rng.integers(n, size=40)
    amount = rng.uniform(0, 1e-9, size=40)
    dense = np.zeros((n, n))
    np.add.at(dense, (pre, post), amount)
    m = SynapticMatrix.from_triplets(n, pre, post, amount)
    assert m.n_connections == 40
    sources = np.array([0, 3, 3, 7])  # repeated source fires twice this step
    out = np.zeros(n)
    m.accumulate(sources, out)
    assert np.allclose(out, dense[sources].sum(axis=0), rtol=1e-12)


def test_synaptic_matrix_rejects_negative():
    with pytest.raises(ValueError):
        SynapticMatrix.from_triplets(2, [0], [0], [-1e-12])


def test_synaptic_matrix_rejects_nan():
    with pytest.raises(ValueError):
        SynapticMatrix.from_triplets(2, [0, 1], [1, 0], [1e-12, np.nan])


def test_event_queue_rejects_nan_amounts():
    with pytest.raises(ValueError):
        EventQueue.from_times([0.001, 0.002], [0, 0], [1e-12, np.nan], 1e-4)


def test_event_queue_rejects_descending_boundaries():
    with pytest.raises(ValueError):
        EventQueue(np.array([3, 2]), np.array([0, 0]), np.array([1e-12, 1e-12]))
    # from_boundaries sorts, and an empty queue is ascending
    q = EventQueue.from_boundaries(np.array([3, 2]), np.array([0, 0]),
                                   np.array([1e-12, -1e-12]))
    assert np.array_equal(q.boundary, [2, 3])
    assert EventQueue.empty().boundary.shape == (0,)


def test_saturation_limits_charge_rate():
    # with the OTA pinned, the membrane charges linearly at i_sat/C
    i_sat = 5e-11
    cap = 2.16e-12
    p = leak_params(g_leak=0.0, i_sat=i_sat, e_synx=1.4)
    dt = 1e-4
    q = EventQueue.from_times(np.array([0.0]), np.array([0]),
                              np.array([1e-6]), dt)  # absurdly strong synapse
    res = run(p, 0.004, dt=dt, events_x=q, v_init=np.array([0.3]))
    v = res.v[0]
    rate = np.diff(v[2:20]) / dt
    assert np.allclose(rate, i_sat / cap, rtol=1e-6)
    # and never overshoots the excitatory reversal potential
    assert np.max(v) <= 1.4 + 1e-12


@pytest.mark.parametrize("g_base_i, recurrent_i, tested", [
    (0.0, False, "x"), (3e-11, False, "xi"), (0.0, True, "xi")])
def test_loop_tests_saturation_only_where_it_can_fire(monkeypatch, g_base_i,
                                                      recurrent_i, tested):
    # a side without events or recurrence whose permanent conductance
    # cannot saturate skips its test on every step
    p = leak_params(i_sat=5e-11, g_base_i=g_base_i)
    q = EventQueue.from_times(np.array([0.001]), np.array([0]),
                              np.array([1e-11]), 1e-4)  # never saturates
    kw = dict(events_x=q)
    if recurrent_i:
        kw["recurrent_i"] = SynapticMatrix.from_triplets(1, [0], [0], [1e-12])
    seen = set()
    real = dynamics._saturates

    def spy(g_side, e_side, *rest):
        seen.add("x" if e_side is p.e_synx else "i")
        return real(g_side, e_side, *rest)

    monkeypatch.setattr(dynamics, "_saturates", spy)
    run(p, 0.01, **kw)
    assert seen == set(tested)


def test_spike_records_are_sorted_and_interpolated():
    p = leak_params(n=2, e_leak=1.2, v_threshold=0.9)
    res = run(p, 0.1, dt=1e-4)
    assert np.all(np.diff(res.spike_times) >= 0)
    t0 = spikes_of(res, 0)[0]
    assert t0 % 1e-4 != 0.0  # sub-step threshold crossing time
    assert np.array_equal(spikes_of(res, 0), spikes_of(res, 1))  # identical units


@pytest.mark.parametrize("bad", [-1, 3])
def test_record_units_outside_the_run_are_refused(bad):
    # numpy would read unit 2 for -1 and label it -1; 3 would fail inside
    # the solver. Every solver refuses both, naming the unit
    p = leak_params(n=3)
    kw = dict(record_units=[0, bad], v_init=[0.1, 0.2, 0.3])
    psp = dict(events_x=_queue([0.002], [0], [3e-12]))
    assert dynamics._preamble(p, 0.01, 1e-4).constant
    assert not dynamics._preamble(p, 0.01, 1e-4, **psp).constant
    for solve, inputs in ((integrate, {}), (integrate, psp), (integrate_scan, psp)):
        with pytest.raises(ValueError, match=f"record unit {bad} "):
            solve(p, 0.01, **inputs, **kw)


def test_record_subset_of_units():
    p = leak_params(n=5)
    res = run(p, 0.01, record_units=[3, 1])
    assert res.v.shape[0] == 2
    assert np.array_equal(res.record_units, [3, 1])
    full = run(p, 0.01)
    assert np.array_equal(res.v[0], full.v[3])
    assert np.array_equal(res.v[1], full.v[1])


# ---- pinned traces ---------------------------------------------------------
# The cases cover static and live sides, signed zeros, saturation,
# refractoriness, recurrence and each trace-write mode. The digests cover
# the trace array and the spike raster; they were computed with the full
# per-step expression before ``integrate`` had any shortcut, so each
# shortcut it keeps must be bit-exact.

def _queue(times, units, amounts, dt=1e-4):
    return EventQueue.from_times(np.asarray(times, float),
                                 np.asarray(units), np.asarray(amounts, float), dt)


def _case_psp_x_saturates():
    # strong kicks saturate units 0-1, weak ones leave 2-3 linear; the
    # inhibitory side has no input and no permanent conductance
    p = leak_params(n=4, i_sat=5e-11)
    q = EventQueue.from_boundaries(
        np.array([-3, 40, 40, 40, 40, 200]), np.array([2, 0, 1, 2, 3, 1]),
        np.array([3e-12, 1e-6, 4e-9, 2e-12, 1e-12, 1e-6]))
    return p, dict(events_x=q, v_init=np.full(4, 0.7))


def _case_permanent_saturation():
    # no events, but permanent conductances: the saturation test still
    # depends on the membrane at every step
    p = leak_params(n=3, i_sat=5e-11, g_base_x=np.array([1e-9, 2e-11, 0.0]),
                    g_base_i=np.array([0.0, 3e-11, 1e-9]))
    return p, dict(v_init=np.array([0.3, 0.7, 1.1]))


def _case_inhibitory_only():
    p = leak_params(n=3, e_leak=np.array([0.7, 0.8, 0.9]))
    q = _queue([0.002, 0.002, 0.011, 0.0205], [0, 2, 1, 0],
               [5e-12, 2e-12, 8e-12, 3e-12])
    return p, dict(events_i=q)


def _case_spiking_refractory():
    # constant drive, finite saturation current, three refractory times
    p = leak_params(n=3, e_leak=2.0, v_threshold=0.9, i_sat=5e-11,
                    tau_ref=np.array([0.0, 2e-3, 5e-3]))
    return p, dict()


def _case_nonconductive():
    # unit 0 has no conductance at all and drifts on its leak term; unit 2
    # receives events
    p = UnitParams.build(3, capacitance=2.16e-12,
                         g_leak=np.array([0.0, 1.2e-10, 1.2e-10]),
                         g_leak_e=np.array([2e-13, 8.4e-11, 9e-11]),
                         v_threshold=2.0, v_reset=0.5, e_synx=1.4, e_syni=0.3,
                         tau_synx=1.1e-3, tau_syni=1.1e-3)
    return p, dict(events_x=_queue([0.005], [2], [4e-12]),
                   v_init=np.array([0.4, 0.6, 0.7]))


def _case_nonconductive_static():
    p, kw = _case_nonconductive()
    return p, dict(v_init=kw["v_init"])


def _case_recurrent():
    # units 0 and 1 fire; 0 excites 2 and inhibits 3, 1 excites 3
    p = leak_params(n=4, e_leak=np.array([2.0, 1.6, 0.7, 0.7]),
                    v_threshold=0.9, tau_ref=1e-3, i_sat=5e-11)
    rx = SynapticMatrix.from_triplets(4, [0, 1, 1], [2, 3, 3], [3e-12, 2e-12, 1e-12])
    ri = SynapticMatrix.from_triplets(4, [0], [3], [4e-12])
    return p, dict(recurrent_x=rx, recurrent_i=ri,
                   events_x=_queue([0.004], [3], [2e-12]))


def _case_psp_on_permanent():
    # events on top of permanent conductances on both sides
    p = leak_params(n=3, i_sat=5e-11, g_base_x=np.array([2e-11, 4e-11, 0.0]),
                    g_base_i=np.array([1e-11, 0.0, 3e-11]))
    return p, dict(events_x=_queue([0.002, 0.002, 0.012], [0, 2, 1],
                                   [3e-12, 5e-12, 2e-11]))


def _case_negative_amounts():
    # an unchecked queue can pull the conductance below zero
    p = leak_params(n=2)
    q = EventQueue.from_boundaries(np.array([30, 60]), np.array([0, 1]),
                                   np.array([-3e-10, 2e-12]))
    return p, dict(events_i=q, v_init=np.array([0.6, 0.7]))


def _case_signed_zero():
    # unit 0 has no conductance and a leak term of -0.0: its drift keeps
    # the sign of zero that num carries
    p = UnitParams.build(2, capacitance=2.16e-12, g_leak=np.array([0.0, 1.2e-10]),
                         g_leak_e=np.array([-0.0, 8.4e-11]), v_threshold=2.0,
                         v_reset=0.5, e_synx=np.array([-1.0, 1.4]), e_syni=0.3)
    return p, dict(events_x=_queue([0.004], [1], [3e-12]),
                   v_init=np.array([-0.0, 0.7]))


def _case_psp_i_saturates():
    # the excitatory side has no input; strong inhibitory kicks saturate
    p = leak_params(n=3, i_sat=5e-11)
    return p, dict(events_i=_queue([0.003, 0.003, 0.01], [0, 1, 2],
                                   [1e-6, 2e-12, 5e-9]))


def _case_negative_i_sat():
    # a negative saturation current counts even a zero conductance as
    # saturated: the membrane is held between the reversal potentials
    p = leak_params(n=2, e_leak=2.0, v_threshold=3.0,
                    i_sat=np.array([-1.0, 5e-11]))
    return p, dict()


def _case_negative_zero_conductance():
    # a negative kick with a zero decay factor leaves g at -0.0, which the
    # sum g + g_base turns into +0.0 and the drift shows (unit 0 on the
    # excitatory side, unit 1 on the inhibitory side)
    p = UnitParams.build(2, capacitance=2.16e-12, g_leak=0.0, g_leak_e=-0.0,
                         v_threshold=2.0, v_reset=0.5,
                         e_synx=np.array([0.0, -1.0]), e_syni=np.array([-1.0, 0.0]),
                         tau_synx=np.array([1e-9, 1.1e-3]),
                         tau_syni=np.array([1.1e-3, 1e-9]))
    kick = dict(boundary=np.array([0]), amounts=np.array([-1e-12]))
    return p, dict(
        events_x=EventQueue.from_boundaries(units=np.array([0]), **kick),
        events_i=EventQueue.from_boundaries(units=np.array([1]), **kick),
        v_init=np.array([-0.0, -0.0]))


def _case_record_subset():
    p, kw = _case_psp_x_saturates()
    return p, dict(kw, record_units=[3, 1, 3])


def _case_record_permuted():
    p, kw = _case_psp_x_saturates()
    return p, dict(kw, record_units=[1, 0, 3, 2])


def _case_record_none():
    p, kw = _case_spiking_refractory()
    return p, dict(kw, record_units=[])


def _case_tau_ref_not_finite():
    # an infinite or NaN refractory time holds the unit at reset for good
    p = leak_params(n=3, e_leak=2.0, v_threshold=0.9,
                    tau_ref=np.array([np.inf, np.nan, 1e-3]))
    return p, dict()


def _case_decay_not_finite():
    # a negative synaptic time constant overflows the decay factor, so the
    # excitatory conductance turns NaN although no event ever lands
    p = leak_params(n=2, tau_synx=-1e-7)
    return p, dict(events_i=_queue([0.003], [1], [2e-12]))


def _case_decay_nan_static():
    # the excitatory side has no input but a NaN time constant on unit 0:
    # its conductance turns NaN after the first step, so the side is not
    # static and unit 0's trace is NaN from the second step on
    p = leak_params(n=2, tau_synx=np.array([np.nan, 1.1e-3]))
    return p, dict(events_i=_queue([0.003], [1], [2e-12]))


PINNED_CASES = {
    "psp_x_saturates": (_case_psp_x_saturates,
        "080789e9f9b4bfdb9f65b3a8050e082635854ac69d905a1c9715122d8d8776ac"),
    "permanent_saturation": (_case_permanent_saturation,
        "87946469f632fe6c504dff00cb97140b7d30fea87f17475138e2658393bee4b2"),
    "inhibitory_only": (_case_inhibitory_only,
        "2647bf0e299b5351549f19b1b3df4a8d64b1179777c77527a7e23a4e8f39dab0"),
    "spiking_refractory": (_case_spiking_refractory,
        "80cfcd4037986f9b56b7354bc25ab248dd90f0de36726bf67f00b091d1d92bfa"),
    "nonconductive": (_case_nonconductive,
        "13bc01fa84cf6518b39a53ac99aad67066f3ee6b9581f6fbfed0759f084781c7"),
    "nonconductive_static": (_case_nonconductive_static,
        "01b42c5bb35153318dd908ac50613eae4ed82b2c4cfd6ab9f524ca76e02d778e"),
    "recurrent": (_case_recurrent,
        "c29df0c73b7e6854867233b1681b3223eb7b7266df905f72be09e54c8b409a83"),
    "psp_on_permanent": (_case_psp_on_permanent,
        "dfb7518c9ec25fe1f5b3ef63001829feaad3fbe253779e4bd19e51f46c30c12e"),
    "negative_amounts": (_case_negative_amounts,
        "753f0b144c6e7a9969788d65ab5bc92d85df2d4027d4a8d604c5a3cb30bc6cc8"),
    "signed_zero": (_case_signed_zero,
        "1da9ea1efcf258a0131f359f2fba19356eb756ccd8bf3a665c8023b2b7c94d8c"),
    "psp_i_saturates": (_case_psp_i_saturates,
        "c4e2c300df4a9732403c032b0e758630f81ef937e507c6ae80816a923900f8d5"),
    "negative_i_sat": (_case_negative_i_sat,
        "9fe7d790e2f981cdaa78c151243f752b03a4b776aa6417a817d2eb92e605c1c5"),
    "negative_zero_conductance": (_case_negative_zero_conductance,
        "eb32bfb95a9e6fce093500053becb769839571719bd73a4e7486293bf437b8ee"),
    "record_subset": (_case_record_subset,
        "f316467bc77939d373fae68861f695e5a4b5e0272cb3a824a630801ed6b00343"),
    "record_permuted": (_case_record_permuted,
        "f88fdfed434dad0a4488808e6656ae29a514408724e2d9b41407e6adbc70cb55"),
    "record_none": (_case_record_none,
        "dec97c78a1f2035d04e403c8fe4d215641660ec15ec14a9cbbf8a34f75f532e0"),
    "tau_ref_not_finite": (_case_tau_ref_not_finite,
        "7d16a9923d436fd2f76ff8a41cc1d0376b8950b83dc2e40e7591d946cecfbda8"),
    "decay_not_finite": (_case_decay_not_finite,
        "f5b627c38812ab9d7ce9b12689be0e754fd72f950342a4dc55ac2d7bd78816c3"),
    # computed with the loop's full per-step expression for its static side
    "decay_nan_static": (_case_decay_nan_static,
        "7bc8fb357a6ad5920887a7bb08bfc56265277ac7153634437661867023fc3feb"),
}

# the loop's bytes, recorded before integrate chose between solvers; the same
# run with an unlimited amplifier gives them too
NEGATIVE_INF_I_SAT_DIGEST = \
    "9a39023eb0e55072265804e0faef3cf49840f442aa0e8d1cc29ba189b35797cc"


def _trace_digest(res) -> str:
    h = hashlib.sha256()
    for a in (res.v, res.spike_units, res.spike_times):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pinned_traces(name):
    build, digest = PINNED_CASES[name]
    params, kw = build()
    for solve in (loop, run):  # the loop, and the solver integrate picks
        with np.errstate(invalid="ignore", over="ignore"):
            res = solve(params, 0.03, **kw)
        assert _trace_digest(res) == digest


def test_nan_decay_side_is_not_static():
    p, kw = _case_decay_nan_static()
    with np.errstate(invalid="ignore"):
        res = run(p, 0.03, **kw)
    assert np.all(np.isnan(res.v[0, 2:])) and not np.isnan(res.v[1]).any()


def _made_live(kw, n_steps=300):
    """``kw`` with a zero-amount event at the last boundary on each static
    side, None if no side is static."""
    live, made = dict(kw), False
    for side in ("x", "i"):
        q = kw.get("events_" + side, EventQueue.empty())
        if "recurrent_" + side in kw or np.any(q.boundary < n_steps):
            continue
        live["events_" + side] = EventQueue.from_boundaries(
            np.append(q.boundary, n_steps - 1), np.append(q.unit, 0),
            np.append(q.amount, 0.0))
        made = True
    return live if made else None


@pytest.mark.parametrize("name", sorted(
    name for name, (build, _) in PINNED_CASES.items() if _made_live(build()[1])))
def test_static_sides_match_the_same_run_made_live(name):
    # a zero-amount event makes a side live without changing its
    # conductance, so the loop takes its general step there; the shortcuts
    # of a static side must give the same bytes
    p, kw = PINNED_CASES[name][0]()
    with np.errstate(invalid="ignore", over="ignore"):
        _same_bits(loop(p, 0.03, **kw), loop(p, 0.03, **_made_live(kw)))


# ---- prefix scan -----------------------------------------------------------
# integrate_scan solves runs that cannot spike in whole-array chunks; it must
# agree with the step loop to rounding, far below the ADC's 0.44 mV step.

SCAN_TOL = 1e-12  # volts

# integrate_scan's own bytes, which SCAN_TOL cannot see: one digest of the
# scanned traces per side set of the randomized runs, and one per pinned
# case it scans
SCAN_RANDOM_DIGESTS = {
    "": "0720f3c7ff3d071fdc49c4ef417f43076a2d8d4307201b99a9c4b5d74c74e14c",
    "x": "7ba9d37a7ac600b624fb0777921f329bfc0831e3a61d9794a6be6cf2a28235dd",
    "i": "a3d76ad4dc93983786044c805e04d63f3b02b9f4adb94d54b6ab644826234f8e",
    "xi": "89beca93d59a50b7f22c881663126b0a9d6755b4c23d53076b6648016a305800",
}
SCAN_PINNED_DIGESTS = {
    "inhibitory_only":
        "e65633e3a379085dea38f6eb7e7cdc7b5a0cde2be86e8702636d7cea0a883330",
    "negative_i_sat":
        "9fe7d790e2f981cdaa78c151243f752b03a4b776aa6417a817d2eb92e605c1c5",
    "permanent_saturation":
        "87946469f632fe6c504dff00cb97140b7d30fea87f17475138e2658393bee4b2",
    "psp_i_saturates":
        "f325868a755b491708162a0510627035d879079acbd252285fb915f4ca4e8abb",
    "psp_on_permanent":
        "f8b4c712467215fe4ad5ca32f9d75b298d8034ac9e356f4609a51ef131aa814a",
    "psp_x_saturates":
        "084eec6fb6bb23a806c72d607ca9b58099da4b6d44fb7ce2d769478ef91e16ef",
    "record_permuted":
        "7a6e08be1128ffc0f5c2945337299949fbdea0e76f1f099158c93e51d383688c",
    "record_subset":
        "af4f9274e54ca0b76ee073ddaa94b487ee7b1dcaddf62f06420ccad8d76484df",
}


def _random_psp_run(rng, sides):
    n = int(rng.integers(1, 10))
    n_steps = int(rng.integers(50, 1000))
    p = leak_params(
        n=n, e_leak=rng.uniform(0.3, 1.0, n), g_leak=rng.uniform(2e-11, 3e-10, n),
        e_synx=rng.uniform(1.0, 1.5, n), e_syni=rng.uniform(0.1, 0.5, n),
        tau_synx=rng.uniform(3e-4, 1e-2, n), tau_syni=rng.uniform(3e-4, 1e-2, n),
        g_base_x=rng.choice([0.0, 1e-11, 6e-11], n),
        g_base_i=rng.choice([0.0, 3e-11], n),
        i_sat=rng.choice([np.inf, 5e-11, 1e-10]))
    kw = dict(v_init=rng.uniform(0.2, 1.2, n))
    for side in sides:
        k = int(rng.integers(1, 25))
        # a third are strong kicks that drive the amplifier into saturation
        amounts = np.where(rng.random(k) < 0.3, rng.uniform(1e-9, 1e-6, k),
                           rng.uniform(1e-13, 1e-11, k))
        kw["events_" + side] = EventQueue.from_boundaries(
            rng.integers(-2, n_steps + 5, k), rng.integers(0, n, k), amounts)
    return p, n_steps * 1e-4, kw


@pytest.mark.parametrize("sides", ["x", "i", "xi", ""])
def test_scan_matches_loop_randomized(sides):
    rng = np.random.default_rng(2024 + len(sides) + 7 * sides.count("i"))
    saturated = 0
    scanned = hashlib.sha256()
    for _ in range(16):
        p, duration, kw = _random_psp_run(rng, sides)
        loop = integrate(p, duration, **kw)
        scan = integrate_scan(p, duration, **kw)
        scanned.update(_trace_digest(scan).encode())
        assert np.max(np.abs(scan.v - loop.v)) <= SCAN_TOL
        assert loop.spike_units.shape == scan.spike_units.shape == (0,)
        assert loop.spike_times.shape == scan.spike_times.shape == (0,)
        assert scan.spike_units.dtype == loop.spike_units.dtype
        assert np.array_equal(scan.t, loop.t)
        free = dataclasses.replace(p, i_sat=np.full(p.n_units, np.inf))
        saturated += not np.array_equal(loop.v, integrate(free, duration, **kw).v)
    if sides:  # the saturation hand-over is exercised
        assert saturated >= 5
    assert scanned.hexdigest() == SCAN_RANDOM_DIGESTS[sides]


def test_scan_matches_pinned_cases():
    # every pinned case that provably cannot spike, with its record set
    scanned = set()
    for name, (build, _) in sorted(PINNED_CASES.items()):
        p, kw = build()
        n_steps = 300
        v0 = p.v_reset if kw.get("v_init") is None else kw["v_init"]
        if "recurrent_x" in kw or not cannot_spike(
                p, v0, 1e-4, n_steps, kw.get("events_x", EventQueue.empty()),
                kw.get("events_i", EventQueue.empty())):
            continue
        loop = run(p, 0.03, **kw)
        scan = integrate_scan(p, 0.03, **kw)
        assert np.max(np.abs(scan.v - loop.v)) <= SCAN_TOL
        assert np.array_equal(scan.record_units, loop.record_units)
        assert _trace_digest(scan) == SCAN_PINNED_DIGESTS[name]
        scanned.add(name)
    assert scanned == set(SCAN_PINNED_DIGESTS)


def _saturation_onset_static():
    # at rest the permanent excitatory current is just below i_sat; an
    # inhibitory kick pulls the membrane away from e_synx, so that side
    # saturates only from a few steps after the kick on, inside a chunk
    p = leak_params(n=2, e_leak=0.5, g_leak=1e-10, e_synx=1.4, e_syni=0.95,
                    g_base_x=1.2e-10, i_sat=5e-11)
    rest = (0.5e-10 + 1.2e-10 * 1.4) / 2.2e-10
    return p, dict(events_i=EventQueue.from_boundaries(
        np.array([50, 50, 170]), np.array([0, 1, 0]),
        np.array([1e-9, 2e-10, 6e-10])), v_init=np.full(2, rest)), 50


def _saturation_onset_live():
    # a slow excitatory kick lands while the membrane is near e_synx; the
    # leak pulls it away, so the kicked side saturates only once its current
    # has grown, inside a chunk, and stays saturated until g has decayed to
    # within 0.1 % of its room (i_sat over the side's largest |e - V|)
    p = leak_params(e_leak=0.0, g_leak=1e-9, e_synx=1.4, tau_synx=0.05,
                    i_sat=1e-12)
    return p, dict(events_x=EventQueue.from_boundaries(
        np.array([0]), np.array([0]), np.array([1.2e-12])),
        v_init=np.array([1.35])), 0


def _hands_over(case):
    p, kw, kick = case()
    loop = run(p, 0.03, **kw)
    free = run(dataclasses.replace(p, i_sat=np.full(p.n_units, np.inf)), 0.03, **kw)
    first = np.flatnonzero(loop.v[0] != free.v[0])[0]
    assert first > kick + 2  # the step after the kick's is not yet saturated
    scan = integrate_scan(p, 0.03, **kw)
    assert np.max(np.abs(scan.v - loop.v)) <= SCAN_TOL


def test_scan_hands_over_when_saturation_starts_after_the_event():
    _hands_over(_saturation_onset_static)


def test_scan_hands_over_when_the_kicked_side_starts_to_saturate():
    _hands_over(_saturation_onset_live)


@pytest.mark.parametrize("i_sat", [np.inf, 5e-11])
def test_scan_updates_only_the_steps_it_keeps(monkeypatch, i_sat):
    # kicks 100 steps apart on both sides; with a finite i_sat each one
    # saturates for a few tens of steps, and every step the scan hands over
    # is a saturated one, so the membrane update runs once per such step
    # (inside the saturated step) and never for a chunk it scans
    n = 3
    p = leak_params(n=n, i_sat=i_sat)
    steps = np.arange(20, 280, 100)
    kw = dict(v_init=np.full(n, 0.7))
    for side, amount in (("x", 1e-9), ("i", 2e-9)):
        kw["events_" + side] = EventQueue.from_boundaries(
            np.repeat(steps + (side == "i") * 50, n), np.tile(np.arange(n), steps.size),
            np.full(steps.size * n, amount))
    calls = {"_propagator": 0, "_saturated_step": 0}
    for name in calls:
        def spy(*a, _real=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _real(*a)
        monkeypatch.setattr(dynamics, name, spy)
    scan = integrate_scan(p, 0.03, **kw)
    assert calls["_propagator"] == calls["_saturated_step"]
    assert (calls["_saturated_step"] > 20) == (i_sat < np.inf)
    monkeypatch.undo()
    assert np.max(np.abs(scan.v - run(p, 0.03, **kw).v)) <= SCAN_TOL


def test_scan_horizon_bounds_every_later_step():
    # past the horizon every unit's decaying conductance is within its room;
    # one step earlier some unit's is not
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, m = int(rng.integers(1, 20)), int(rng.integers(1, 400))
        g = rng.uniform(0.0, 1e-9, n) * (rng.random(n) < 0.8)
        lam = -np.log(rng.uniform(0.5, 0.9999, n))
        room = rng.uniform(1e-12, 1e-10, n)
        h = dynamics._horizon(g, np.log(room), 1.0 / lam, m)
        assert 0 <= h <= m
        if h < m:  # at m every step of the chunk is tested
            later = np.arange(h + 1, m + 1)
            assert np.all(g[:, None] * np.exp(-lam[:, None] * later) <= room[:, None])
        if h > 0:
            assert np.any(g * np.exp(-lam * (h - 1)) > room * (1.0 - 1e-9))


def test_scan_horizon_changes_no_result(monkeypatch):
    # testing every scanned step for saturation keeps the same steps as
    # testing those before each chunk's horizon
    rng = np.random.default_rng(99)
    runs = [_random_psp_run(rng, sides) for sides in ("x", "i", "xi") * 6]
    fast = [integrate_scan(p, duration, **kw) for p, duration, kw in runs]
    monkeypatch.setattr(dynamics, "_horizon", lambda g, log_room, inv_lam, m: m)
    for (p, duration, kw), res in zip(runs, fast):
        _same_bits(res, integrate_scan(p, duration, **kw))


def test_scan_refuses_runs_that_may_spike():
    dt = 1e-4
    psp = _queue([0.002], [0], [3e-12])
    # the rest, a reversal or the start lies above threshold
    for p, v0 in ((leak_params(e_leak=1.2, v_threshold=0.9), 0.7),
                  (leak_params(e_synx=2.5), 0.7),
                  (leak_params(), 2.5)):
        assert not cannot_spike(p, np.array([v0]), dt, 300, psp,
                                EventQueue.empty())
        with pytest.raises(ValueError):
            integrate_scan(p, 0.03, events_x=psp, v_init=[v0])
    # a negative amount can pull a conductance below zero
    p, kw = _case_negative_amounts()
    assert not cannot_spike(p, kw["v_init"], dt, 300, EventQueue.empty(),
                            kw["events_i"])
    # without leak, the membrane may drift without bound
    p = leak_params(g_leak=0.0)
    assert not cannot_spike(p, np.array([0.7]), dt, 300, psp, EventQueue.empty())
    assert cannot_spike(leak_params(), np.array([0.7]), dt, 300, psp,
                        EventQueue.empty())


# ---- constant inputs -------------------------------------------------------
# integrate solves runs without events, recurrence or saturation one period
# at a time; it must equal the step loop bit for bit: traces, spike units
# and spike times. The loop's general branch is the reference.

def _same_bits(a, b):
    for name in ("v", "spike_units", "spike_times", "t", "record_units"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def _constant(p, duration, dt=1e-4, **kw) -> bool:
    """Whether ``integrate`` solves the run with constant inputs."""
    return dynamics._preamble(p, duration, dt, **kw).constant


def _constant_and_loop(p, duration, **kw):
    assert _constant(p, duration, **kw)
    ref = loop(p, duration, **kw)
    _same_bits(integrate(p, duration, **kw), ref)
    return ref


def _random_constant_run(rng):
    n = int(rng.integers(1, 12))
    dt = 1e-4
    base = rng.random() < 0.3
    p = leak_params(
        n=n, e_leak=rng.uniform(0.3, 2.0, n), g_leak=rng.uniform(2e-11, 5e-10, n),
        v_threshold=rng.uniform(0.6, 1.2, n), v_reset=rng.uniform(0.2, 1.0, n),
        tau_ref=np.where(rng.random(n) < 0.5, rng.integers(0, 30, n) * dt,
                         rng.uniform(0.0, 3e-3, n)),
        e_synx=rng.uniform(1.0, 1.5, n), e_syni=rng.uniform(0.1, 0.5, n),
        g_base_x=rng.choice([0.0, 3e-11], n) if base else 0.0,
        g_base_i=rng.choice([0.0, 2e-11], n) if base else 0.0,
        # with permanent conductances only an unlimited amplifier is static
        i_sat=np.inf if base else rng.choice([np.inf, 5e-11]))
    kw = dict(v_init=rng.uniform(0.2, 1.5, n))
    mode = rng.integers(3)
    if mode == 1:
        kw["record_units"] = rng.integers(0, n, int(rng.integers(1, 2 * n)))
    elif mode == 2:
        kw["record_units"] = []
    return p, int(rng.integers(1, 1500)) * dt, kw


def test_constant_inputs_match_loop_randomized():
    rng = np.random.default_rng(15)
    spikes = settled = 0
    for _ in range(40):
        p, duration, kw = _random_constant_run(rng)
        loop = _constant_and_loop(p, duration, **kw)
        spikes += loop.spike_units.shape[0]
        settled += loop.v.shape[0] > 0 and loop.v[0, -1] == loop.v[0, -2]
    assert spikes > 1000 and settled >= 5


def test_rasters_sort_as_lexsort_does(monkeypatch):
    # _result sorts by time, then puts runs of equal times in unit order; it
    # must give np.lexsort's bytes, on both solvers and with ties
    real, seen = dynamics._result, {"spikes": 0, "ties": 0}

    def spy(dt, n_steps, record_units, traces, unit_chunks, time_chunks):
        res = real(dt, n_steps, record_units, traces, unit_chunks, time_chunks)
        if unit_chunks:
            units, times = np.concatenate(unit_chunks), np.concatenate(time_chunks)
            order = np.lexsort((units, times))
            assert res.spike_units.tobytes() == units[order].tobytes()
            assert res.spike_times.tobytes() == times[order].tobytes()
            seen["spikes"] += units.size
            seen["ties"] += int(np.count_nonzero(np.diff(times[order]) == 0))
        return res

    monkeypatch.setattr(dynamics, "_result", spy)
    rng = np.random.default_rng(34)
    for _ in range(30):
        p, duration, kw = _random_constant_run(rng)
        # every unit twice over: each spike has a partner at the same time
        twice = dataclasses.replace(p, **{f.name: np.tile(getattr(p, f.name), 2)
                                          for f in dataclasses.fields(p)})
        kw2 = dict(kw, v_init=np.tile(kw["v_init"], 2))
        for params, args in ((p, kw), (twice, kw2)):
            integrate(params, duration, **args)
            loop(params, duration, **args)
    assert seen["spikes"] > 5000 and seen["ties"] > 1000


def test_constant_inputs_without_refractory_time():
    p = leak_params(n=3, e_leak=1.5, v_threshold=0.9,
                    g_leak=np.array([6e-11, 1.2e-10, 4e-10]))
    loop = _constant_and_loop(p, 0.3)
    assert np.all(np.bincount(loop.spike_units) >= 10)


def test_a_recurrent_matrix_without_connections_keeps_inputs_constant():
    p = leak_params(n=3, e_leak=1.5, v_threshold=0.9,
                    g_leak=np.array([6e-11, 1.2e-10, 4e-10]))
    empty = SynapticMatrix.from_triplets(3, [], [], [])
    assert empty.n_connections == 0
    ref = _constant_and_loop(p, 0.3)
    _same_bits(_constant_and_loop(p, 0.3, recurrent_x=empty, recurrent_i=empty), ref)


def test_unit_params_need_a_leak_reversal():
    with pytest.raises(ValueError, match="need e_leak or g_leak_e"):
        UnitParams.build(2, capacitance=2.16e-12, g_leak=1.2e-10)


def _clamp_lengths(trace, v_reset):
    """Lengths of the runs of v_reset after each spike of one trace."""
    at = np.concatenate([[False], trace == v_reset, [False]])
    edges = np.flatnonzero(np.diff(at.astype(int)))
    return edges[1::2] - edges[::2]


def test_constant_inputs_release_on_rounding():
    # refractory times within a few ulp of (multiple of dt) - offset, where
    # offset is the crossing's place in its step: t_s + tau_ref lands on a
    # step boundary up to rounding, which decides the release step
    dt = 1e-4
    probe = leak_params(e_leak=1.5, v_threshold=0.9, v_reset=0.5)
    first = integrate(probe, 0.05, v_init=[0.5])
    k1 = int(np.flatnonzero(first.v[0, 1:] == 0.5)[0])  # step of the spike
    offset = first.spike_times[0] - k1 * dt
    tau = np.array([7 * dt - offset])
    for _ in range(6):
        tau = np.concatenate([[np.nextafter(tau[0], -1.0)], tau,
                              [np.nextafter(tau[-1], 1.0)]])
    n = tau.shape[0]
    p = leak_params(n=n, e_leak=1.5, v_threshold=0.9, v_reset=0.5, tau_ref=tau)
    loop = _constant_and_loop(p, 0.3, v_init=np.full(n, 0.5))
    lengths = [set(_clamp_lengths(row[1:], 0.5)) for row in loop.v]
    assert np.all(np.bincount(loop.spike_units) > 10)
    # rounding moves the release step between the spikes of one unit
    assert all(s <= {7, 8} for s in lengths)
    assert any(s == {7, 8} for s in lengths)


def test_constant_inputs_trains_longer_than_a_block_of_cycles():
    # hundreds of spikes per unit, several blocks of guessed cycles; the
    # refractory times sit within a few ulp of a release-step boundary, so
    # a guess is wrong now and then and the chain resumes from there
    dt = 1e-4
    probe = leak_params(e_leak=1.5, v_threshold=0.9, v_reset=0.5)
    first = integrate(probe, 0.05, v_init=[0.5])
    k1 = int(np.flatnonzero(first.v[0, 1:] == 0.5)[0])
    offset = first.spike_times[0] - k1 * dt
    tau = 3 * dt - offset + np.array([-2e-19, 0.0, 2e-19, 1e-4])
    p = leak_params(n=4, e_leak=1.5, v_threshold=0.9, v_reset=0.5, tau_ref=tau)
    loop = _constant_and_loop(p, 2.5, v_init=np.full(4, 0.5))
    assert np.all(np.bincount(loop.spike_units) > 3 * dynamics._CYCLES)
    lengths = [set(_clamp_lengths(row[1:], 0.5)) for row in loop.v]
    assert any(len(s) > 1 for s in lengths)


def test_constant_inputs_settle_without_spiking():
    p = leak_params(n=2, e_leak=np.array([0.7, 0.8]), v_threshold=2.0)
    loop = _constant_and_loop(p, 0.8, v_init=np.array([0.2, 1.9]))
    assert loop.spike_units.shape == (0,)
    # both membranes reach a fixed point of the update well before the end
    for row in loop.v:
        last = np.flatnonzero(row != row[-1])[-1]
        assert 0 < last < row.shape[0] - 100


def test_constant_inputs_start_above_threshold():
    # the first step falls but stays above threshold: frac is 1
    p = leak_params(n=2, e_leak=0.5, v_threshold=1.0, tau_ref=1e-3,
                    g_leak=np.array([1.2e-10, 1e-11]))
    loop = _constant_and_loop(p, 0.01, v_init=np.array([2.0, 1.2]))
    assert loop.spike_times[0] == 1e-4 and list(loop.spike_units) == [0, 1]


def test_constant_inputs_cross_on_the_first_step_after_release():
    # v_reset sits just below threshold under a strong drive: every release
    # crosses at once, so after the first spike the trace never leaves reset
    p = leak_params(n=2, e_leak=3.0, g_leak=1e-9, v_threshold=0.9,
                    v_reset=0.89, tau_ref=np.array([0.0, 2e-3]))
    loop = _constant_and_loop(p, 0.05)
    for u in range(2):
        row = loop.v[u]
        assert np.all(row[1:] == 0.89)
    assert np.count_nonzero(loop.spike_units == 0) > 200


@pytest.mark.parametrize("record", [None, [3, 1, 3, 0], [2], []])
def test_constant_inputs_record_sets(record):
    p = leak_params(n=4, e_leak=np.array([0.7, 1.4, 1.8, 2.4]), v_threshold=0.9,
                    tau_ref=np.array([0.0, 1e-3, 2.5e-3, 4e-4]))
    _constant_and_loop(p, 0.2, record_units=record,
                       v_init=np.array([0.3, 0.95, 0.5, 0.6]))


def test_constant_inputs_stacked_runs_match_each_run_alone():
    rng = np.random.default_rng(7)
    runs = [_random_constant_run(rng) for _ in range(4)]
    n_steps = 900
    stacked = UnitParams(**{f.name: np.concatenate(
        [getattr(p, f.name) for p, _, _ in runs])
        for f in dataclasses.fields(UnitParams)})
    v_init = np.concatenate([kw["v_init"] for _, _, kw in runs])
    assert _constant(stacked, n_steps * 1e-4, v_init=v_init)
    both = integrate(stacked, n_steps * 1e-4, v_init=v_init)
    lo = 0
    for p, _, kw in runs:
        alone = _constant_and_loop(p, n_steps * 1e-4, v_init=kw["v_init"])
        hi = lo + p.n_units
        assert both.v[lo:hi].tobytes() == alone.v.tobytes()
        own = (both.spike_units >= lo) & (both.spike_units < hi)
        assert np.array_equal(both.spike_units[own] - lo, alone.spike_units)
        assert both.spike_times[own].tobytes() == alone.spike_times.tobytes()
        lo = hi
    assert both.spike_units.shape[0] > 100


def test_constant_inputs_match_pinned_cases():
    accepted = set()
    for name, (build, digest) in sorted(PINNED_CASES.items()):
        p, kw = build()
        with np.errstate(over="ignore"):
            if not _constant(p, 0.03, **kw):
                continue
        assert _trace_digest(integrate(p, 0.03, **kw)) == digest
        accepted.add(name)
    assert accepted == {"record_none", "spiking_refractory", "tau_ref_not_finite"}


def test_negative_infinite_i_sat_keeps_the_loop_bytes():
    # no finite i_sat: the loop tests no side for saturation, although a
    # limit of -inf would count every side saturated; so the run has
    # constant inputs, and integrate gives the bytes the loop gave before it
    # chose any other solver
    p = leak_params(n=3, e_leak=1.5, v_threshold=0.9, tau_ref=1e-3,
                    g_base_x=np.array([0.0, 2e-11, 0.0]),
                    g_base_i=np.array([0.0, 0.0, 1e-11]), i_sat=-np.inf)
    assert [s.check for s in dynamics._preamble(p, 0.03, 1e-4).sides] == [False, False]
    res = _constant_and_loop(p, 0.03)
    assert res.spike_units.shape[0] >= 6
    assert _trace_digest(res) == NEGATIVE_INF_I_SAT_DIGEST


def test_runs_without_constant_inputs_are_refused():
    dt, n_steps = 1e-4, 300
    p = leak_params(n=2, e_leak=1.5, v_threshold=0.9)
    assert _constant(p, n_steps * dt)
    # an event that lands before the end; one that lands after it is inert
    late = EventQueue.from_boundaries(np.array([n_steps]), np.array([0]),
                                      np.array([3e-12]))
    early = EventQueue.from_boundaries(np.array([n_steps - 1]), np.array([0]),
                                       np.array([3e-12]))
    assert _constant(p, n_steps * dt, events_x=late, events_i=late)
    _constant_and_loop(p, n_steps * dt, events_x=late)
    refused = [(p, dict(events_x=early)), (p, dict(events_i=early))]
    # a static side that can saturate: permanent conductance, finite i_sat,
    # or a negative i_sat
    refused += [(build()[0], {}) for build in (_case_permanent_saturation,
                                               _case_negative_i_sat)]
    # no conductance at all, or a decay factor that is not finite
    refused.append((_case_nonconductive_static()[0], {}))
    refused += [(leak_params(n=2, e_leak=1.5, v_threshold=0.9, **{tau: bad}), {})
                for tau in ("tau_synx", "tau_syni") for bad in (-1e-7, np.nan)]
    for params, kw in refused:
        with np.errstate(over="ignore"):
            assert not _constant(params, n_steps * dt, **kw)
