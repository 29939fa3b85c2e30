import warnings

import numpy as np
import pytest

from waferforge import fitting
from waferforge.fitting import (FitError, damped_gauss_newton, estimate_noise,
                                fit_linear, fit_psp, fit_psp_batch, fit_reciprocal,
                                fit_softplus, psp_model_batch)
from waferforge.psp import psp_analytic
from waferforge.wafer import softplus_tau


def test_psp_batch_model_matches_scalar_model():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 0.08, 300)
    for _ in range(25):
        p = (rng.uniform(0, 0.01), rng.uniform(-0.05, 0.05),
             rng.uniform(1e-3, 3e-2), rng.uniform(1e-4, 1e-2),
             rng.uniform(0.5, 1.0))
        assert np.allclose(psp_model_batch(t, [p])[0], psp_analytic(t, *p),
                           atol=1e-15)
    # alpha branch at equal time constants
    p = (0.01, 0.02, 5e-3, 5e-3, 0.7)
    assert np.allclose(psp_model_batch(t, [p])[0], psp_analytic(t, *p),
                       atol=1e-15)


def test_fit_psp_recovers_noiseless_parameters():
    t = np.linspace(0.0, 0.1, 600)
    t0, h, tau1, tau2, e, red = fit_psp(
        t, psp_analytic(t, 0.012, -0.03, 0.015, 0.004, 0.65))
    assert abs(t0 - 0.012) < 1e-8
    assert abs(h + 0.03) < 1e-8
    assert abs(tau1 - 0.015) / 0.015 < 1e-7
    assert abs(tau2 - 0.004) / 0.004 < 1e-7
    assert abs(e - 0.65) < 1e-9


def test_fit_psp_orders_time_constants():
    t = np.linspace(0.0, 0.1, 400)
    v = psp_analytic(t, 0.01, 0.02, 0.002, 0.012, 0.7)  # swapped on purpose
    _, _, tau1, tau2, _, _ = fit_psp(t, v)
    assert tau1 >= tau2
    assert abs(tau1 - 0.012) / 0.012 < 1e-6


def test_fit_psp_alpha_branch():
    t = np.linspace(0.0, 0.1, 500)
    v = psp_analytic(t, 0.01, 0.02, 0.006, 0.006, 0.7)
    _, h, tau1, tau2, _, _ = fit_psp(t, v)
    assert abs(h - 0.02) < 1e-7
    assert abs(tau1 - 0.006) / 0.006 < 1e-3
    assert abs(tau2 - 0.006) / 0.006 < 1e-3


def test_fit_psp_flat_trace_raises():
    t = np.linspace(0.0, 0.1, 200)
    rng = np.random.default_rng(3)
    with pytest.raises(FitError, match="flat"):
        fit_psp(t, 0.7 + rng.normal(0.0, 1e-3, t.shape))


def test_fit_psp_batch_flags_flat_rows():
    t = np.linspace(0.0, 0.1, 300)
    rng = np.random.default_rng(4)
    good = psp_analytic(t, 0.01, 0.02, 0.01, 0.002, 0.7)
    flat = 0.7 + rng.normal(0.0, 1e-3, t.shape)
    _, _, ok = fit_psp_batch(t, np.stack([good, flat]))
    assert ok.tolist() == [True, False]


def test_fit_psp_rejects_short_traces():
    with pytest.raises(ValueError, match="20 samples"):
        fit_psp(np.linspace(0, 1, 10), np.zeros(10))


def test_fit_linear_exact_and_batched():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, icpt, red = fit_linear(x, 2.0 * x + 1.0)
    assert (slope, icpt) == (2.0, 1.0) and red < 1e-12
    s, i, _ = fit_linear(x, np.stack([3.0 * x - 1.0, np.full(4, 2.0)]))
    assert np.allclose(s, [3.0, 0.0]) and np.allclose(i, [-1.0, 2.0])


def test_fit_reciprocal_recovers_refractory_law():
    tau = np.array([0.0, 5e-4, 1e-3, 3e-3, 6e-3, 1e-2])
    i = 1.0 / (0.45 + 220.0 * tau)
    c0, c1, red = fit_reciprocal(i, tau)
    assert abs(c0 - 0.45) < 1e-9
    assert abs(c1 - 220.0) / 220.0 < 1e-9


def test_fit_softplus_recovers_law():
    x = np.linspace(0.15, 1.0, 8)
    truth = np.array([[0.05, 0.5, 10.0, 0.003], [0.04, 0.55, 9.0, 0.002]])
    y = np.stack([softplus_tau(x, *c) for c in truth])
    coeffs, red, ok = fit_softplus(x, y)
    assert ok.all()
    assert np.abs(coeffs / truth - 1.0).max() < 1e-6


def test_fit_softplus_tolerates_noise():
    rng = np.random.default_rng(7)
    x = np.linspace(0.15, 1.0, 8)
    y = softplus_tau(x, 0.05, 0.5, 10.0, 0.003)
    yn = y[None, :] * (1.0 + 0.02 * rng.standard_normal((32, 8)))
    coeffs, _, ok = fit_softplus(x, yn, sigma=0.02 * y.mean())
    assert ok.all()
    med = np.median(coeffs, axis=0)
    assert np.abs(med / np.array([0.05, 0.5, 10.0, 0.003]) - 1.0).max() < 0.15


def test_psp_fit_agrees_with_scipy_least_squares():
    # independent optimizer on the same model and data
    from scipy.optimize import least_squares

    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 0.08, 768)
    v = psp_analytic(t, 0.01, 0.025, 0.0136, 0.0028, 0.72)
    v = v + rng.normal(0.0, 5e-4, t.shape)
    params, red, ok = fit_psp_batch(t, v[None, :])
    assert ok[0]

    ref = least_squares(
        lambda p: psp_analytic(t, *p) - v,
        x0=[0.008, 0.02, 0.02, 0.002, 0.7], method="lm").x
    if ref[2] < ref[3]:
        ref[[2, 3]] = ref[[3, 2]]
    assert np.allclose(params[0], ref, rtol=1e-4, atol=1e-7)


def test_softplus_fit_agrees_with_scipy_least_squares():
    from scipy.optimize import least_squares

    rng = np.random.default_rng(22)
    x = np.linspace(0.15, 1.0, 10)
    y = softplus_tau(x, 0.05, 0.5, 10.0, 0.003)
    y = y * (1.0 + 0.01 * rng.standard_normal(10))
    coeffs, _, ok = fit_softplus(x, y[None, :])
    assert ok[0]

    ref = least_squares(
        lambda p: softplus_tau(x, *p) - y,
        x0=[0.04, 0.45, 8.0, 0.002], method="lm").x
    assert np.allclose(coeffs[0], ref, rtol=1e-3)


def test_estimate_noise_tracks_white_noise():
    rng = np.random.default_rng(11)
    smooth = np.sin(np.linspace(0, 2, 4000))
    sig = estimate_noise(smooth + rng.normal(0, 2e-3, 4000))
    assert abs(sig[0] - 2e-3) / 2e-3 < 0.15


def _psp_traces():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 0.08, 300)
    truth = [(0.010, 0.020, 0.012, 0.002, 0.70), (0.012, -0.015, 0.008, 0.003, 0.65),
             (0.008, 0.030, 0.020, 0.001, 0.72), (0.011, 0.010, 0.005, 0.005, 0.68)]
    V = np.stack([psp_analytic(t, *p) for p in truth])
    return t, V + rng.normal(0.0, 5e-4, V.shape), 0.7 + rng.normal(0.0, 1e-3, t.size)


def _softplus_curves():
    rng = np.random.default_rng(6)
    x = np.linspace(0.15, 1.0, 8)
    truth = [(0.05, 0.5, 10.0, 0.003), (0.04, 0.55, 9.0, 0.002),
             (0.06, 0.45, 12.0, 0.004)]
    Y = np.stack([softplus_tau(x, *c) for c in truth])
    return x, Y * (1.0 + 0.02 * rng.standard_normal(Y.shape)), np.full(x.size, 0.003)


def _assert_rows_independent(fit, x, Y, flat):
    """Every row fits to the same bytes alone, permuted, and beside a flat
    and an all-NaN row."""
    n = len(Y)
    alone = [fit(x, Y[i:i + 1]) for i in range(n)]
    perm = np.random.default_rng(1).permutation(n)
    nan = np.full_like(flat, np.nan)
    for batch, at in ((Y[perm], np.argsort(perm)),
                      (np.vstack([flat, Y, nan]), np.arange(n) + 1)):
        out = fit(x, batch)
        for i in range(n):
            for got, ref in zip(out, alone[i]):
                assert got[at[i]].tobytes() == ref[0].tobytes()
    assert not fit(x, np.vstack([flat, nan]))[2].any()


def test_fit_psp_batch_rows_are_independent():
    t, V, flat = _psp_traces()
    _assert_rows_independent(fit_psp_batch, t, V, flat)


def test_fit_softplus_rows_are_independent():
    x, Y, flat = _softplus_curves()
    _assert_rows_independent(fit_softplus, x, Y, flat)


@pytest.mark.parametrize("name, data, fit", [
    ("psp_model_batch", _psp_traces, fit_psp_batch),
    ("softplus_model", _softplus_curves, fit_softplus)], ids=["psp", "softplus"])
def test_batch_does_no_more_model_work_than_single_fits(monkeypatch, name, data, fit):
    # converged and infeasible rows leave the working set, so a batch
    # evaluates exactly the rows its members would evaluate alone
    x, Y, flat = data()
    Y = np.vstack([Y, flat, np.full_like(flat, np.nan)])
    model = getattr(fitting, name)
    rows = []

    def counting(x, params):
        rows.append(np.atleast_2d(params).shape[0])
        return model(x, params)

    monkeypatch.setattr(fitting, name, counting)
    fit(x, Y)
    batch = sum(rows)
    rows.clear()
    for y in Y:
        fit(x, y[None, :])
    assert batch == sum(rows) > len(Y)


def test_infeasible_start_stays_at_p0_without_warnings():
    x = np.linspace(0.0, 1.0, 20)

    def line(P):  # infeasible (NaN) for a non-positive slope
        return np.where(P[:, :1] > 0.0, P[:, :1] * x + P[:, 1:], np.nan)

    p0 = np.array([[1.0, 0.0], [-1.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P, red, conv = damped_gauss_newton(line, p0, np.tile(2.0 * x + 1.0, (2, 1)),
                                           1e-3, [1.0, 1.0])
    assert conv.tolist() == [True, False]
    assert np.allclose(P[0], [2.0, 1.0])
    assert P[1].tobytes() == p0[1].tobytes() and red[1] == np.inf
