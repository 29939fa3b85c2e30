import tracemalloc
import warnings

import numpy as np
import pytest

from waferforge import fitting
from waferforge.fitting import (estimate_noise, fit_linear, fit_psp_batch,
                                fit_softplus, normal_matrix,
                                separable_gauss_newton, softplus_shape)
from waferforge.psp import ALPHA_SWITCH, psp_model_batch, psp_shape
from waferforge.wafer import softplus_tau

from psp_reference import psp_analytic

# the PSP onset every fit here is given: the stimulus time of the traces
ONSET = 0.010


def _fit_psp(t, V):
    return fit_psp_batch(t, V, ONSET)


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
    P, _, ok = fit_psp_batch(
        t, psp_analytic(t, 0.012, -0.03, 0.015, 0.004, 0.65)[None, :], 0.012)
    assert ok[0]
    t0, h, tau1, tau2, e = P[0]
    assert abs(t0 - 0.012) < 1e-8
    assert abs(h + 0.03) < 1e-8
    assert abs(tau1 - 0.015) / 0.015 < 1e-7
    assert abs(tau2 - 0.004) / 0.004 < 1e-7
    assert abs(e - 0.65) < 1e-9


def test_fit_psp_orders_time_constants():
    t = np.linspace(0.0, 0.1, 400)
    v = psp_analytic(t, 0.01, 0.02, 0.002, 0.012, 0.7)  # swapped on purpose
    P, _, ok = _fit_psp(t, v[None, :])
    assert ok[0]
    _, _, tau1, tau2, _ = P[0]
    assert tau1 >= tau2
    assert abs(tau1 - 0.012) / 0.012 < 1e-6


def test_fit_psp_alpha_branch():
    t = np.linspace(0.0, 0.1, 500)
    v = psp_analytic(t, 0.01, 0.02, 0.006, 0.006, 0.7)
    P, _, ok = _fit_psp(t, v[None, :])
    assert ok[0]
    _, h, tau1, tau2, _ = P[0]
    assert abs(h - 0.02) < 1e-7
    assert abs(tau1 - 0.006) / 0.006 < 1e-3
    assert abs(tau2 - 0.006) / 0.006 < 1e-3


def test_fit_psp_flat_trace_is_not_ok():
    t = np.linspace(0.0, 0.1, 200)
    rng = np.random.default_rng(3)
    _, _, ok = _fit_psp(t, 0.7 + rng.normal(0.0, 1e-3, (1, t.size)))
    assert not ok[0]


def test_fit_psp_batch_flags_flat_rows():
    t = np.linspace(0.0, 0.1, 300)
    rng = np.random.default_rng(4)
    good = psp_analytic(t, 0.01, 0.02, 0.01, 0.002, 0.7)
    flat = 0.7 + rng.normal(0.0, 1e-3, t.shape)
    _, _, ok = _fit_psp(t, np.stack([good, flat]))
    assert ok.tolist() == [True, False]


def test_fit_psp_rejects_short_traces():
    with pytest.raises(ValueError, match="20 samples"):
        _fit_psp(np.linspace(0, 1, 10), np.zeros((1, 10)))


def test_fit_linear_exact_and_batched():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, icpt, red = fit_linear(x, 2.0 * x + 1.0)
    assert (slope, icpt) == (2.0, 1.0) and red < 1e-12
    s, i, _ = fit_linear(x, np.stack([3.0 * x - 1.0, np.full(4, 2.0)]))
    assert np.allclose(s, [3.0, 0.0]) and np.allclose(i, [-1.0, 2.0])


def test_fit_linear_rows_are_exact_in_any_batch_and_layout():
    rng = np.random.default_rng(11)
    x = np.array([398.0, 512.0, 625.0, 739.0])
    # stored point-major, so .T is a strided (rows, points) view
    y = rng.normal(0.5, 0.2, (4, 64))
    per_row_x = (x[:, None] + rng.normal(0.0, 30.0, (4, 64))).T
    for xa in (x, per_row_x):
        batch = fit_linear(xa, y.T)
        dense = fit_linear(np.ascontiguousarray(xa), np.ascontiguousarray(y.T))
        for a, b in zip(batch, dense):
            assert a.tobytes() == b.tobytes()
        for i in range(64):
            alone = fit_linear(xa if xa.ndim == 1 else xa[i], y[:, i])
            assert alone == tuple(float(a[i]) for a in batch), i


def test_fit_linear_degenerate_x():
    x = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.0, 2.0, 4.0]])
    y = np.array([[1.0, 3.0, 5.0], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, icpt, _ = fit_linear(x, y)
    # only the row whose own x values are all equal loses its line
    assert np.isfinite(slope).tolist() == [True, False, True]
    assert (slope[0], icpt[0], slope[2], icpt[2]) == (2.0, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="identical"):
        fit_linear(np.ones(3), y)
    with pytest.raises(ValueError, match="at least two points"):
        fit_linear([1.0], [2.0])


def test_fit_softplus_recovers_law():
    x = np.linspace(0.15, 1.0, 8)
    truth = np.array([[0.05, 0.5, 10.0, 0.003], [0.04, 0.55, 9.0, 0.002]])
    y = np.stack([softplus_tau(x, *c) for c in truth])
    coeffs, red, ok = fit_softplus(x, y)
    assert ok.all()
    assert np.abs(coeffs / truth - 1.0).max() < 1e-6
    with pytest.raises(ValueError, match="at least five points"):
        fit_softplus(x[:4], y[:, :4])


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
    # independent optimizer on the same model, data and fixed onset
    from scipy.optimize import least_squares

    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 0.08, 768)
    v = psp_analytic(t, ONSET, 0.025, 0.0136, 0.0028, 0.72)
    v = v + rng.normal(0.0, 5e-4, t.shape)
    params, red, ok = _fit_psp(t, v[None, :])
    assert ok[0] and params[0, 0] == ONSET

    ref = least_squares(
        lambda p: psp_analytic(t, ONSET, *p) - v,
        x0=[0.02, 0.02, 0.002, 0.7], method="lm").x
    if ref[1] < ref[2]:
        ref[[1, 2]] = ref[[2, 1]]
    assert np.allclose(params[0, 1:], ref, rtol=1e-4, atol=1e-7)


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
    truth = [(0.020, 0.012, 0.002, 0.70), (-0.015, 0.008, 0.003, 0.65),
             (0.030, 0.020, 0.001, 0.72), (0.010, 0.005, 0.005, 0.68)]
    V = np.stack([psp_analytic(t, ONSET, *p) for p in truth])
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
    _assert_rows_independent(_fit_psp, t, V, flat)


def test_fit_softplus_rows_are_independent():
    x, Y, flat = _softplus_curves()
    _assert_rows_independent(fit_softplus, x, Y, flat)


@pytest.mark.parametrize("name, data, fit", [
    ("psp_shape", _psp_traces, _fit_psp),
    ("softplus_shape", _softplus_curves, fit_softplus)], ids=["psp", "softplus"])
def test_batch_does_no_more_model_work_than_single_fits(monkeypatch, name, data, fit):
    # converged and infeasible rows leave the working set, so a batch
    # evaluates exactly the rows its members would evaluate alone
    x, Y, flat = data()
    Y = np.vstack([Y, flat, np.full_like(flat, np.nan)])
    rows = []
    shape = getattr(fitting, name)

    def counted(*args):
        rows.append(np.atleast_2d(args[-3]).shape[0])
        return shape(*args)

    monkeypatch.setattr(fitting, name, counted)
    fit(x, Y)
    batch = sum(rows)
    rows.clear()
    for y in Y:
        fit(x, y[None, :])
    assert batch == sum(rows) > len(Y)


@pytest.mark.parametrize("max_iter", [None, 8])
def test_fit_psp_batch_refills_its_working_set(monkeypatch, max_iter):
    # more rows than the working set: rows enter as others leave, each with
    # its own damping and iteration count (a cap of 8 makes some rows leave
    # unconverged), and every row still gets the bytes it gets alone
    if max_iter is not None:
        monkeypatch.setattr(fitting, "GN_MAX_ITER", max_iter)
    t, V, flat = _psp_traces()
    rng = np.random.default_rng(8)
    base = np.median(V[:, :30], axis=1, keepdims=True)
    Y = np.vstack([base + (V - base) * rng.uniform(0.3, 1.5, (len(V), 1))
                   + rng.normal(0.0, 3e-4, V.shape) for _ in range(38)])
    nan = np.full_like(flat, np.nan)
    batch = np.vstack([flat, Y[:70], nan, Y[70:], flat, nan])
    assert len(Y) >= 150 and len(batch) > 2 * fitting.GN_WORKING_SET
    out = _fit_psp(t, batch)
    for i, y in enumerate(batch):
        for got, ref in zip(out, _fit_psp(t, y[None, :])):
            assert got[i].tobytes() == ref[0].tobytes()
    converged = int(out[2].sum())
    assert converged == len(Y) if max_iter is None else 0 < converged < len(Y)


@pytest.mark.parametrize("data, fit", [(_psp_traces, _fit_psp),
                                       (_softplus_curves, fit_softplus)],
                         ids=["psp", "softplus"])
def test_fits_do_not_depend_on_the_working_set_size(monkeypatch, data, fit):
    # working sets of 1, 7 and 64 rows over a batch longer than two of the
    # largest, with flat and all-NaN rows: the workspace's leading rows are
    # reused at every size as rows leave and pending rows refill the set
    x, Y, flat = data()
    rng = np.random.default_rng(9)
    base = np.median(Y, axis=1, keepdims=True)
    rows = np.vstack([base + (Y - base) * rng.uniform(0.5, 1.5, (len(Y), 1))
                      for _ in range(45)])
    nan = np.full_like(flat, np.nan)
    batch = np.vstack([flat, rows[:60], nan, rows[60:], flat, nan])
    assert len(batch) > 2 * 64
    out = {}
    for size in (1, 7, 64):
        monkeypatch.setattr(fitting, "GN_WORKING_SET", size)
        out[size] = fit(x, batch)
        assert [a.tobytes() for a in out[size]] == [a.tobytes() for a in out[1]]
    assert out[64][2].sum() > len(rows) // 2


def test_a_fit_holds_one_working_set_of_arrays():
    # the transient memory of a 256-row, 768-sample PSP fit is tracemalloc's
    # peak, its inputs allocated before tracing starts. The workspace holds
    # 5 arrays of (64, 768) floats, psp_shape's scratch among them: the
    # peak measured 5.66 of them (2.23 MB), against 14.36 (5.65 MB) when
    # every iteration allocated its own
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 0.08, 768)
    n = 256
    P = np.column_stack([rng.uniform(-0.03, 0.03, n), rng.uniform(0.004, 0.03, n),
                         rng.uniform(0.0005, 0.004, n), rng.uniform(0.6, 0.75, n)])
    V = np.stack([psp_analytic(t, ONSET, *p) for p in P]) \
        + rng.normal(0.0, 5e-4, (n, t.size))
    fit_psp_batch(t, V[:70], ONSET)  # first calls' one-off allocations
    tracemalloc.start()
    try:
        ok = fit_psp_batch(t, V, ONSET)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.sum() > 0.9 * n
    assert peak < 6.5 * 64 * t.size * 8


def _varpro_cost(t, y, sig, taus):
    """The engine's chi-square of one row at ``taus``, bit for bit."""
    g = psp_shape(t, ONSET, taus)[0]
    with np.errstate(all="ignore"):
        yr = y[None, :]
        gm, ym = g.mean(axis=1), yr.mean(axis=1)
        gc, yc = g - gm[:, None], yr - ym[:, None]
        a = np.einsum("nt,nt->n", gc, yc) / np.einsum("nt,nt->n", gc, gc)
        r = (a[:, None] * gc - yc) / sig[:, None]
        c = np.einsum("nt,nt->n", r, r)[0]
    return c if np.isfinite(c) else np.inf


def test_rejected_steps_reuse_the_jacobian(monkeypatch):
    # one shape call where a row enters and one per iteration, at the trial
    # point; an accepted point's shape becomes the linearisation (one normal
    # matrix per accepted step that keeps the row iterating), and a rejected
    # step re-evaluates nothing. A cap of 3 iterations makes rows leave
    # unconverged after exactly 4 calls.
    t, V, flat = _psp_traces()
    points, normals = [], []

    def shape(t, onset, taus, out, scratch):
        points.append(np.array(taus))
        return psp_shape(t, onset, taus, out, scratch)

    def normal(J):
        normals.append(J.shape[0])
        return normal_matrix(J)

    monkeypatch.setattr(fitting, "psp_shape", shape)
    monkeypatch.setattr(fitting, "normal_matrix", normal)
    rejected = 0
    for max_iter in (fitting.GN_MAX_ITER, 3):
        monkeypatch.setattr(fitting, "GN_MAX_ITER", max_iter)
        for i, y in enumerate(np.vstack([V, flat])):
            points.clear()
            normals.clear()
            _, _, ok = _fit_psp(t, y[None, :])
            assert all(p.shape == (1, 2) for p in points)
            assert len({p.tobytes() for p in points}) == len(points) <= 1 + max_iter
            # the flat row is never ok, converged or not
            assert ok[0] or i == len(V) or len(points) == 1 + max_iter
            sig = np.maximum(estimate_noise(y), fitting.NOISE_FLOOR)
            best, accepted = _varpro_cost(t, y, sig, points[0]), []
            for P in points[1:]:
                c = _varpro_cost(t, y, sig, P)
                accepted.append(c <= best)
                best = min(best, c)
            rejected += accepted.count(False)
            # every accepted step relinearises unless it ended the fit
            assert sum(normals) == 1 + sum(accepted) - accepted[-1]
    assert rejected > 0


def test_psp_shape_derivatives_match_model_differences():
    # closed-form df/dtau against central differences of psp_model_batch
    # (h = 1, e = 0) with steps of 1e-4 tau. Columns agree within 1e-4 of
    # their largest magnitude: ordinary rows within 1e-8, the near-alpha row
    # within 3e-7 and the (1e-9, 2e-3) row, whose fast derivative loses
    # digits to cancellation, within 2e-5.
    t = np.linspace(0.0, 0.07, 672)
    P = np.array([
        (0.010, 0.020, 0.012, 0.002, 0.70),
        (0.010, 0.020, 0.005, 0.005, 0.70),  # alpha
        (0.010, -0.02, 0.005, 0.005 * (1.0 + 0.5 * ALPHA_SWITCH), 0.70),  # alpha
        (0.010, 0.020, 0.005, 0.005 * (1.0 + 3.0 * ALPHA_SWITCH), 0.70),
        (0.010, 0.020, 0.005, 0.005 * (1.0 + 1e-3), 0.70),
        (0.010, 0.020, -0.005, 0.002, 0.70),  # tau <= 0
        (0.010, 0.020, 0.005, 0.0, 0.70),
        (0.010, 0.020, 1e-9, 0.002, 0.70),
        (0.010, 0.0, 0.012, 0.002, 0.70),  # h = 0
        (0.010, 0.0, 0.012, 0.002, 0.0),
        (0.010, -0.0, 0.012, 0.002, -0.0),  # signed zeros
        (-0.0, -0.0, 0.012, 0.002, -0.0),
        (0.060, 0.020, 0.012, 1e-5, 0.70),  # exponentials that overflowed before the onset
        (0.010, 0.020, 0.002, 0.012, 0.70),  # the fast constant first
    ])
    for p in P:
        f, df = psp_shape(t, p[0], p[None, 2:4])
        assert f.shape == (1, t.size) and df.shape == (1, 2, t.size)
        if not (p[2:4] > 0.0).all():
            assert np.isnan(f).all() and np.isnan(df).all()
            continue
        unit = np.array([p[0], 1.0, p[2], p[3], 0.0])
        assert np.array_equal(f, psp_model_batch(t, unit))
        assert not (f[0, t <= p[0]].any() or df[0, :, t <= p[0]].any())
        for j in range(2):
            d = 1e-4 * p[2 + j]
            hi, lo = unit.copy(), unit.copy()
            hi[2 + j] += d
            lo[2 + j] -= d
            ref = (psp_model_batch(t, hi) - psp_model_batch(t, lo))[0] / (2.0 * d)
            err = np.abs(df[0, j] - ref).max() / np.abs(ref).max()
            assert err < 1e-4, (p, j, err)


def test_softplus_shape_derivatives_match_law_differences():
    # within 1e-7 of each row's largest derivative (measured: at most 3e-9)
    x = np.linspace(0.15, 1.0, 8)
    theta = np.array([[0.5, 10.0], [0.45, 12.0], [0.9, 40.0], [0.1, 0.5]])
    g, dg = softplus_shape(x, theta)
    assert np.allclose(g, softplus_tau(x, 1.0, theta[:, :1], theta[:, 1:], 0.0),
                       rtol=1e-15, atol=0.0)
    for j in range(2):
        d = np.zeros_like(theta)
        d[:, j] = 1e-6 * theta[:, j]
        ref = (softplus_shape(x, theta + d)[0] - softplus_shape(x, theta - d)[0]) \
            / (2.0 * d[:, j:j + 1])
        err = np.abs(dg[:, j] - ref).max(axis=1) / np.abs(ref).max(axis=1)
        assert (err < 1e-7).all(), (j, err)


@pytest.mark.parametrize("n", [1, 2, 3, 64])
@pytest.mark.parametrize("T", [576, 672, 768])
def test_normal_matrix_equals_einsum(n, T):
    J = np.random.default_rng(n * T).normal(size=(n, 5, T))
    assert normal_matrix(J).tobytes() == np.einsum("nkt,nlt->nkl", J, J).tobytes()


def test_infeasible_start_stays_at_p0_without_warnings():
    x = np.linspace(0.0, 1.0, 20)

    def growth(theta, out, scratch):  # infeasible (NaN) for a non-positive rate
        rate = np.where(theta > 0.0, theta, np.nan)
        g = np.exp(rate * x)
        out[0][...], out[1][...] = g, (x * g)[:, None, :]

    p0 = np.array([[1.0], [-1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta, lin, red, conv = separable_gauss_newton(
            growth, p0, np.tile(2.0 * np.exp(0.5 * x) + 1.0, (2, 1)), 1e-3, [1.0])
    assert conv.tolist() == [True, False]
    assert np.allclose(theta[0], [0.5]) and np.allclose(lin[0], [2.0, 1.0])
    assert theta[1].tobytes() == p0[1].tobytes() and red[1] == np.inf
    assert np.isnan(lin[1]).all()


def test_a_singular_damped_step_falls_back_to_the_pseudo_inverse(monkeypatch):
    # two parameters that enter only through their sum: once the damping
    # has shrunk below rounding, the damped normal matrix is singular, and
    # the step comes from its pseudo-inverse; the fit still reaches the
    # optimum of the one-parameter model
    t = np.linspace(0.0, 1.0, 50)
    y = np.exp(-3.0 * t) + 0.5 * np.sin(7.0 * t)

    def summed(theta, out, scratch):
        g = np.exp(-t * (theta[:, :1] + theta[:, 1:2]))
        out[0][...], out[1][...] = g, (-t * g)[:, None, :]

    def single(theta, out, scratch):
        g = np.exp(-t * theta[:, :1])
        out[0][...], out[1][...] = g, (-t * g)[:, None, :]

    pinv, calls = np.linalg.pinv, []
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a) or pinv(a))
    theta, lin, red, conv = separable_gauss_newton(summed, np.array([[0.5, 0.5]]), y,
                                                   0.1, [1e-3, 1e-3])
    assert calls and conv.all()
    ref_theta, ref_lin, ref_red, _ = separable_gauss_newton(single, np.array([[1.0]]), y,
                                                            0.1, [1e-3])
    assert theta.sum() == pytest.approx(ref_theta[0, 0], rel=1e-5)
    assert lin == pytest.approx(ref_lin, rel=1e-5)
    # the same cost: the reduced chi-square divides by one degree of freedom less
    assert red[0] * (t.size - 4) == pytest.approx(ref_red[0] * (t.size - 3), rel=1e-9)
