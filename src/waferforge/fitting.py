"""Model fitting for calibration: closed-form lines plus a batched
damped Gauss-Newton engine for the nonlinear transfer laws.

Fit strategy per model family:

* straight lines (voltage-parameter transfer, reversal-potential
  extrapolation) are solved in closed form;
* the softplus laws and the PSP shape are fitted by Gauss-Newton with
  multiplicative (Levenberg) damping, numeric central-difference Jacobians
  and initial guesses read off trace landmarks (documented on each fit
  function). A model may supply its own central differences: the PSP's
  (``psp.psp_central_differences``) equal the generic per-column
  differences bit for bit but share what a step leaves unchanged. The
  normal matrix is summed over samples in sequential order, one einsum per
  column pair. Many traces are fitted at once: parameters, Jacobians and
  normal equations carry a leading batch axis, which keeps per-trace Python
  overhead off the hot path when a full HICANN is calibrated. At most
  ``GN_WORKING_SET`` rows iterate at once, so a fit of thousands of rows
  keeps its (rows, T, k) Jacobians small; converged rows and rows out of
  iterations leave, infeasible starts never enter, and pending rows refill
  the set in order. A rejected step leaves a row's point and residual as
  they were, so its gradient and normal matrix are kept and only rows that
  entered or moved get a new Jacobian (MINPACK's Levenberg-Marquardt does
  the same, More 1978). A row's result is the same alone or in any batch.

Unless an explicit noise level is passed, each trace's noise is estimated
from the median absolute first difference (white noise inflates successive
differences by sqrt(2) while the smooth signal contributes little at the
ADC sampling density), so reduced chi-square values stay meaningful on raw
readings without a separate noise measurement.
"""

from __future__ import annotations

import functools

import numpy as np

from .psp import (psp_central_differences, psp_model_batch, psp_peak_time,
                  smooth3)
from .wafer import softplus_tau

NOISE_FLOOR = 1e-12

# Gauss-Newton: iteration cap per row, relative step that counts as
# converged, the initial Levenberg damping, and the most rows iterated at once
GN_MAX_ITER = 80
GN_STEP_TOL = 1e-10
GN_LAM0 = 1e-3
GN_WORKING_SET = 64


def estimate_noise(y: np.ndarray) -> np.ndarray:
    """Robust per-trace noise sigma from first differences, shape (n,)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    mad = np.median(np.abs(np.diff(y, axis=1)), axis=1)
    return np.maximum(mad * 1.4826 / np.sqrt(2.0), NOISE_FLOOR)


# ---- closed-form fits --------------------------------------------------


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum of each row of ``a`` (n, m), its columns added in order."""
    return functools.reduce(np.add, a.T)


def fit_linear(x, y, sigma=None):
    """Least-squares line ``y = slope * x + intercept`` per trace.

    ``y`` has shape (m,) or (n, m), ``x`` (m,) or per row (n, m). Returns
    (slope, intercept, reduced chi-square), each scalar or shape (n,)
    matching ``y``. Each row sums its points in order, so it gets the same
    bytes alone, in any batch and in any memory layout. Equal values in a
    shared ``x`` raise; in a per-row ``x`` they make that slope non-finite.
    """
    x = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 1
    Y = np.atleast_2d(y_arr)
    m = Y.shape[1]
    if m < 2:
        raise ValueError("need at least two points for a line")
    if x.ndim == 1 and np.ptp(x) == 0.0:
        raise ValueError("x values are all identical")
    X = np.broadcast_to(x, Y.shape)
    xm = _row_sums(X) / m
    xc = X - xm[:, None]
    sig = estimate_noise(Y) if sigma is None else \
        np.broadcast_to(np.asarray(sigma, dtype=float), (Y.shape[0],))
    sig = np.maximum(sig, NOISE_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = _row_sums(Y * xc) / _row_sums(xc * xc)
        intercept = _row_sums(Y) / m - slope * xm
        resid = Y - slope[:, None] * X - intercept[:, None]
        red = _row_sums(resid * resid) / sig ** 2 / max(m - 2, 1)
    if scalar:
        return float(slope[0]), float(intercept[0]), float(red[0])
    return slope, intercept, red


# ---- batched damped Gauss-Newton ----------------------------------------


def central_differences(model):
    """Jacobian ``jac(P, dp)`` of shape (m, T, k) from central differences
    of ``model``: column j is ``(model(P + step) - model(P - step)) /
    (2 dp_j)`` with ``step`` holding ``dp[:, j]`` in column j."""
    def jac(P, dp):
        cols = []
        for j in range(P.shape[1]):
            step = np.zeros_like(P)
            step[:, j] = dp[:, j]
            with np.errstate(all="ignore"):
                cols.append((model(P + step) - model(P - step))
                            / (2.0 * dp[:, j])[:, None])
        return np.stack(cols, axis=2)
    return jac


def normal_matrix(J):
    """``J^T J`` per row, shape (m, k, k), summed over t in sequential order.

    Each upper-triangle entry is one two-operand einsum on strided column
    views, which adds the products in the same order as
    ``np.einsum("ntk,ntl->nkl", J, J)`` at a fraction of its cost.
    """
    m, _, k = J.shape
    H = np.empty((m, k, k))
    for a in range(k):
        for b in range(a, k):
            H[:, a, b] = H[:, b, a] = np.einsum("nt,nt->n", J[:, :, a], J[:, :, b])
    return H


def damped_gauss_newton(model, p0, y, sigma, pscale, jac=None):
    """Minimize ``sum(((model(P) - y) / sigma)**2)`` per batch row.

    ``model`` maps parameters (m, k) of any subset of rows to predictions
    (m, T); non-finite predictions mark a trial point as infeasible and the
    step is rejected. ``pscale`` (k,) or (n, k) gives the magnitude floor
    used for difference steps and the relative-step convergence test.
    ``jac(P, dp)`` gives the (m, T, k) Jacobian for difference steps ``dp``
    (m, k); by default :func:`central_differences` of ``model``.

    At most ``GN_WORKING_SET`` rows iterate at once. Rows enter in order,
    each with its start residual; a row with an infeasible start never
    enters, and a row leaves once converged or after ``GN_MAX_ITER`` of
    its own iterations. Each row keeps its damping, its residual and the
    gradient and undamped normal matrix of its last linearisation, which
    only a new point replaces. So each row gets the arithmetic it would get
    fitted alone. Returns ``(params, reduced chi-square, converged mask)``.
    """
    P = np.array(p0, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, k = P.shape
    T = y.shape[1]
    sig = np.maximum(np.broadcast_to(np.asarray(sigma, dtype=float), (n,)),
                     NOISE_FLOOR)
    scale = np.broadcast_to(np.asarray(pscale, dtype=float), (n, k))
    jac = central_differences(model) if jac is None else jac

    def chi2(Pc, rows):
        with np.errstate(all="ignore"):
            r = (model(Pc) - y[rows]) / sig[rows, None]
        c = np.einsum("nt,nt->n", r, r)
        return np.where(np.isfinite(c), c, np.inf), r

    def entering(idx, r):
        """Live-row state of rows that enter: index, residual, damping,
        iterations done, whether the point moved since the last Jacobian,
        and the gradient and undamped normal matrix of that Jacobian."""
        m = idx.size
        return (idx, r, np.full(m, GN_LAM0), np.zeros(m, dtype=np.intp),
                np.ones(m, dtype=bool), np.empty((m, k)), np.empty((m, k, k)))

    cost = np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)
    live = entering(np.empty(0, dtype=np.intp), np.empty((0, T)))
    pending = 0
    diag_idx = np.arange(k)
    while True:
        while live[0].size < GN_WORKING_SET and pending < n:
            new = np.arange(pending, min(n, pending + GN_WORKING_SET - live[0].size))
            pending += new.size
            cost[new], r = chi2(P[new], new)
            enter = np.isfinite(cost[new])
            live = tuple(np.concatenate(pair) for pair in
                         zip(live, entering(new[enter], r[enter])))
        rows, R, lam, done_iter, moved, g, H0 = live
        if rows.size == 0:
            break
        Pl, sl, cl = P[rows], scale[rows], cost[rows]
        # a rejected step leaves P, dp, R and sig as they were, and with
        # them the gradient and normal matrix
        if moved.any():
            fm = np.flatnonzero(moved)
            Pm = Pl[fm]
            J = jac(Pm, 1e-6 * np.maximum(np.abs(Pm), sl[fm]))
            J = np.where(np.isfinite(J), J, 0.0) / sig[rows[fm], None, None]
            g[fm] = np.einsum("ntk,nt->nk", J, R[fm])
            H0[fm] = normal_matrix(J)
        H = H0.copy()
        diag = H0[:, diag_idx, diag_idx]
        damp = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True) + 1e-300)
        H[:, diag_idx, diag_idx] += lam[:, None] * damp
        try:
            delta = np.linalg.solve(H, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = -(np.linalg.pinv(H) @ g[..., None])[..., 0]
        trial = Pl + delta
        trial_cost, trial_R = chi2(trial, rows)
        accept = trial_cost <= cl
        rel_step = np.max(np.abs(delta) / np.maximum(np.abs(Pl), sl), axis=1)
        # at the noise floor accepted steps stop paying: relative cost
        # improvements below ftol mean the parameters have settled
        done = accept & ((rel_step < GN_STEP_TOL) | (
            cl - trial_cost <= 1e-7 * np.maximum(trial_cost, 1e-300)))
        P[rows[accept]] = trial[accept]
        cost[rows[accept]] = trial_cost[accept]
        R[accept] = trial_R[accept]
        lam = np.where(accept, lam * 0.35, lam * 6.0)
        done_iter += 1
        converged[rows[done]] = True
        stay = ~done & (done_iter < GN_MAX_ITER)
        live = tuple(a[stay] for a in (rows, R, lam, done_iter, accept, g, H0))
    dof = max(T - k, 1)
    return P, cost / dof, converged


# ---- softplus law --------------------------------------------------------


def softplus_model(x, coeffs):
    """Batched ``tau(x) = a * softplus(c * (b - x)) / c + offset``."""
    x = np.asarray(x, dtype=float)
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
    a, b, c, off = (coeffs[:, j:j + 1] for j in range(4))
    return softplus_tau(x[None, :], a, b, c, off)


def fit_softplus(x, y, sigma=None):
    """Fit the softplus transfer law per trace.

    Initial guesses from landmarks: the steepest (left) end of the sorted
    sweep is on the linear asymptote ``a * (b - x) + offset``, so its slope
    gives ``a`` and its crossing with the floor ``offset = min(y)`` gives
    ``b``; the remaining curvature scale follows from the law's value at
    ``b`` being ``a * ln 2 / c + offset``.

    Returns (coeffs (n, 4), reduced chi-square (n,), ok (n,)).
    """
    x = np.asarray(x, dtype=float)
    order = np.argsort(x)
    x = x[order]
    Y = np.atleast_2d(np.asarray(y, dtype=float))[:, order]
    n, m = Y.shape
    if m < 5:
        raise ValueError("need at least five points for a softplus fit")
    sig = estimate_noise(Y) if sigma is None else \
        np.broadcast_to(np.asarray(sigma, dtype=float), (n,))

    off0 = Y.min(axis=1)
    slope = (Y[:, 1] - Y[:, 0]) / (x[1] - x[0])
    a0 = np.maximum(-slope, NOISE_FLOOR)
    b0 = x[0] + (Y[:, 0] - off0) / a0
    y_at_b = np.array([np.interp(b, x, Y[i]) for i, b in enumerate(b0)])
    c0 = a0 * np.log(2.0) / np.maximum(y_at_b - off0, NOISE_FLOOR)
    c0 = np.clip(c0, 0.1 / (x[-1] - x[0]), 1e3 / (x[-1] - x[0]))
    P0 = np.column_stack([a0, b0, c0, np.maximum(off0, NOISE_FLOOR)])
    pscale = np.column_stack([a0, np.full(n, x[-1] - x[0]), c0,
                              np.maximum(off0, a0 / c0)])
    P, red, conv = damped_gauss_newton(
        lambda Pc: softplus_model(x, Pc), P0, Y, sig, pscale)
    ok = conv & np.isfinite(P).all(axis=1) & (P[:, 0] > 0.0) & (P[:, 2] > 0.0)
    return P, red, ok


# ---- PSP shape -----------------------------------------------------------


def _tau2_from_peak_gap(tau1, gap):
    """Invert the onset-to-peak gap for tau2 in (0, tau1) by bisection."""
    gap = np.clip(gap, 1e-3 * tau1, 0.999 * tau1)
    lo = np.full_like(tau1, 1e-6) * tau1
    hi = 0.999999 * tau1
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        too_big = psp_peak_time(tau1, mid) > gap
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    return 0.5 * (lo + hi)


def _psp_start(t, V):
    """Landmark start of :func:`fit_psp_batch` for the rows of ``V``:
    ``(P0, pscale, sigma, flat)``."""
    n, T = V.shape
    sig = estimate_noise(V)

    base0 = np.median(V[:, :max(3, T // 10)], axis=1)
    d = V - base0[:, None]
    dsm = smooth3(d)
    k_peak = np.argmax(np.abs(dsm), axis=1)
    rows = np.arange(n)
    h0 = dsm[rows, k_peak]
    flat = np.abs(h0) < 4.0 * sig

    # onset: last sample before the peak still below a tenth of the height
    small = np.abs(dsm) < 0.1 * np.abs(h0)[:, None]
    before = np.arange(T)[None, :] < k_peak[:, None]
    onset_idx = np.where(small & before, np.arange(T)[None, :], -1).max(axis=1)
    t0_0 = t[np.maximum(onset_idx, 0)]

    # slow constant from the decay flank between 60% and 5% of the height;
    # the flank ends at the first crossing below 5%, otherwise the noise
    # floor after a fast PSP would swamp the regression and stretch the seed
    frac = np.abs(dsm) / np.maximum(np.abs(h0), NOISE_FLOOR)[:, None]
    after = np.arange(T)[None, :] > k_peak[:, None]
    below = after & (frac < 0.05)
    end = np.where(below.any(axis=1), np.argmax(below, axis=1), T)
    tail = after & (frac < 0.6) & (np.arange(T)[None, :] < end[:, None])
    cnt = tail.sum(axis=1)
    logd = np.where(tail, np.log(np.maximum(np.abs(d), NOISE_FLOOR)), 0.0)
    tx = np.where(tail, t[None, :], 0.0)
    mx = tx.sum(axis=1) / np.maximum(cnt, 1)
    my = logd.sum(axis=1) / np.maximum(cnt, 1)
    sxx = np.where(tail, (t[None, :] - mx[:, None]) ** 2, 0.0).sum(axis=1)
    sxy = np.where(tail, (t[None, :] - mx[:, None])
                   * (logd - my[:, None]), 0.0).sum(axis=1)
    with np.errstate(all="ignore"):
        tau1_0 = np.where((cnt >= 3) & (sxy < 0.0), -sxx / sxy,
                          (t[-1] - t[k_peak]) / 3.0)
    span = t[-1] - t[0]
    tau1_0 = np.clip(tau1_0, span / T, span)
    gap = np.maximum(t[k_peak] - t0_0, span / T)
    tau1_0 = np.maximum(tau1_0, 1.05 * gap)
    tau2_0 = _tau2_from_peak_gap(tau1_0, gap)

    P0 = np.column_stack([t0_0, h0, tau1_0, tau2_0, base0])
    pscale = np.column_stack([
        np.full(n, span / T), np.abs(h0) + 4.0 * sig, tau1_0, tau2_0,
        np.maximum(np.abs(base0), 4.0 * sig)])
    return P0, pscale, sig, flat


def fit_psp_batch(t, V):
    """Fit the PSP shape to many traces sharing one time grid.

    Initial guesses from landmarks: baseline = median of the leading tenth
    of the trace, height and peak position from the 3-sample-smoothed
    deviation, onset = last pre-peak sample below a tenth of the height,
    the slow time constant from a log-linear fit of the decay flank and the
    fast one by inverting the onset-to-peak gap. The landmarks are read in
    blocks of ``GN_WORKING_SET`` rows, which bounds their (rows, T)
    temporaries.

    Returns ``(params (n, 5), reduced chi-square (n,), ok (n,))`` with
    parameter columns (t0, h, tau1, tau2, e_leak), ``tau1 >= tau2`` (the
    membrane constant is typically the larger of the two). Rows whose
    deviation never clears four noise sigmas are flagged not-ok (flat
    trace) and left at their landmark guesses.
    """
    t = np.asarray(t, dtype=float)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, T = V.shape
    if T < 20 or t.shape[0] != T:
        raise ValueError("need at least 20 samples spanning the PSP")
    starts = [_psp_start(t, V[a:a + GN_WORKING_SET])  # one block if no rows
              for a in range(0, max(n, 1), GN_WORKING_SET)]
    P0, pscale, sig, flat = (np.concatenate(c) for c in zip(*starts))
    P, red, conv = damped_gauss_newton(
        lambda Pc: psp_model_batch(t, Pc), P0, V, sig, pscale,
        jac=lambda Pc, dp: psp_central_differences(t, Pc, dp))

    swap = P[:, 2] < P[:, 3]
    P[swap, 2], P[swap, 3] = P[swap, 3].copy(), P[swap, 2].copy()
    ok = ~flat & conv & np.isfinite(P).all(axis=1) \
        & (P[:, 2] > 0.0) & (P[:, 3] > 0.0)
    return P, red, ok
