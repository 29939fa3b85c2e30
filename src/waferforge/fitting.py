"""Model fitting for calibration: closed-form lines plus a batched
separable Gauss-Newton engine for the nonlinear transfer laws.

Fit strategy per model family:

* straight lines (voltage-parameter transfer, reversal-potential
  extrapolation) are solved in closed form;
* the softplus laws and the PSP shape are both "height x shape + offset":
  height and offset are solved per row by linear least squares for the
  current shape parameters, and only those iterate (variable projection),
  by Gauss-Newton with multiplicative (Levenberg) damping on closed-form
  shape derivatives, from initial guesses read off trace landmarks
  (documented on each fit function). The PSP onset is not fitted: the
  caller knows when it stimulated. The normal matrix is one einsum per
  column pair. Many traces are fitted at once: parameters, Jacobians and
  normal equations carry a leading batch axis, which keeps per-trace
  Python overhead off the hot path when a full HICANN is calibrated. At
  most ``GN_WORKING_SET`` rows iterate at once; converged rows and rows
  out of iterations leave, infeasible starts never enter, and pending rows
  refill the set in order. Each fit allocates one workspace, sized to the
  working set, and iterates in it: the centred data, basis and residual,
  and one (rows, k, T) array for the derivatives, then the Jacobian. The
  shape callbacks write into it and build their terms in its free rows, so
  an iteration allocates no (rows, T) array. A rejected step leaves a
  row's point and linearisation as they were, so each iteration evaluates
  the shape once, at the trial points. A row's result is the same alone or
  in any batch.

Unless an explicit noise level is passed, each trace's noise is estimated
from the median absolute first difference (white noise inflates successive
differences by sqrt(2) while the smooth signal contributes little at the
ADC sampling density), so reduced chi-square values stay meaningful on raw
readings without a separate noise measurement.
"""

from __future__ import annotations

import functools

import numpy as np

from .psp import psp_peak_time, psp_shape, smooth3

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
    dy = np.diff(y, axis=1)
    mad = np.median(np.abs(dy, out=dy), axis=1, overwrite_input=True)
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


# ---- separable damped Gauss-Newton ---------------------------------------


def normal_matrix(J):
    """``J J^T`` per row of a Jacobian ``J`` (m, k, T), shape (m, k, k).

    Each upper-triangle entry is one two-operand einsum on contiguous rows,
    which adds the products in the same order as
    ``np.einsum("nkt,nlt->nkl", J, J)`` at a fraction of its cost.
    """
    m, k, _ = J.shape
    H = np.empty((m, k, k))
    for a in range(k):
        for b in range(a, k):
            H[:, a, b] = H[:, b, a] = np.einsum("nt,nt->n", J[:, a], J[:, b])
    return H


def separable_gauss_newton(shape, theta0, y, sigma, pscale):
    """Minimize ``sum(((a * g(theta) + b - y) / sigma)**2)`` per batch row.

    ``shape(theta, out, scratch)`` writes, for nonlinear parameters
    ``theta`` (m, k) of any subset of rows, the basis function and its
    derivatives into ``out = (g (m, T), dg/dtheta (m, k, T))``, and may
    build its terms in ``scratch`` (2, m, T). For every theta the height
    ``a`` and offset ``b`` are the row's linear least-squares solution, so
    only theta iterates (variable projection, Golub & Pereyra 1973) on
    Kaufman's (1975) Jacobian ``J_j = (a / sigma) P dg/dtheta_j``, where
    ``P`` projects off ``span{1, g}``. A non-finite cost marks a trial
    point as infeasible and its step is rejected. ``pscale`` (k,) or (n, k)
    is the magnitude floor of the relative-step convergence test.

    At most ``GN_WORKING_SET`` rows iterate at once. Rows enter in order,
    each with its start point evaluated; a row with an infeasible start
    never enters, and a row leaves once converged or after ``GN_MAX_ITER``
    of its own iterations. Each iteration makes one ``shape`` call, at the
    trial points; an accepted point's basis, projection and derivatives
    become the row's linearisation, and a rejected step keeps the last one
    (MINPACK's Levenberg-Marquardt does the same, More 1978). So each row
    gets the arithmetic it would get fitted alone. All of it runs in one
    workspace allocated per call, with ``min(n, GN_WORKING_SET)`` rows of
    the centred data and the residual (the shape's scratch until then), the
    centred basis, and one (rows, k, T) array that holds the derivatives,
    then their centred form, then the Jacobian. Returns ``(theta, (a, b)
    (n, 2), reduced chi-square, converged mask)``.
    """
    theta = np.array(theta0, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, k = theta.shape
    T = y.shape[1]
    sig = np.maximum(np.broadcast_to(np.asarray(sigma, dtype=float), (n,)),
                     NOISE_FLOOR)
    scale = np.broadcast_to(np.asarray(pscale, dtype=float), (n, k))
    rows_max = min(n, GN_WORKING_SET)
    ws = np.empty((3, rows_max, T))
    yc_ws, r_ws, gc_ws = ws
    dg_ws = np.empty((rows_max, k, T))

    def evaluate(th, rows):
        """Cost, linear parameters, height and basis norm of ``rows`` at
        ``th``; leaves their centred basis, residual and derivatives in the
        workspace's leading rows."""
        m = rows.size
        gc, yc, r = gc_ws[:m], yc_ws[:m], r_ws[:m]
        shape(th, (gc, dg_ws[:m]), ws[:2, :m])
        np.take(y, rows, axis=0, out=yc, mode="clip")
        with np.errstate(all="ignore"):
            gm, ym = gc.mean(axis=1), yc.mean(axis=1)
            gc -= gm[:, None]
            yc -= ym[:, None]
            gg = np.einsum("nt,nt->n", gc, gc)
            a = np.einsum("nt,nt->n", gc, yc) / gg
            np.multiply(a[:, None], gc, out=r)
            r -= yc
            r /= sig[rows, None]
            c = np.einsum("nt,nt->n", r, r)
        lin = np.column_stack([a, ym - a * gm])
        return np.where(np.isfinite(c), c, np.inf), lin, a, gg

    def linearise(rows, keep, a, gg):
        """Gradient and undamped normal matrix of Kaufman's Jacobian at the
        last evaluated rows where ``keep`` holds."""
        idx = np.flatnonzero(keep)
        for dst, src in enumerate(idx):  # the kept rows move up, in order
            if dst != src:
                gc_ws[dst], r_ws[dst], dg_ws[dst] = gc_ws[src], r_ws[src], dg_ws[src]
        m = idx.size
        gc, r, J, tmp = gc_ws[:m], r_ws[:m], dg_ws[:m], yc_ws[:m]
        with np.errstate(all="ignore"):
            J -= J.mean(axis=2)[:, :, None]
            coef = np.einsum("nt,nkt->nk", gc, J) / gg[idx, None]
            weight = (a[idx] / sig[rows[idx]])[:, None]
            for j in range(k):
                J[:, j] -= np.multiply(coef[:, j, None], gc, out=tmp)
                J[:, j] *= weight
        np.copyto(J, 0.0, where=~np.isfinite(J))
        return np.einsum("nkt,nt->nk", J, r), normal_matrix(J)

    lin = np.full((n, 2), np.nan)
    cost = np.full(n, np.inf)
    converged = np.zeros(n, dtype=bool)
    # live rows: index, damping, iterations done, and the gradient and
    # undamped normal matrix of the last linearisation
    live = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0, dtype=np.intp),
            np.empty((0, k)), np.empty((0, k, k)))
    pending = 0
    diag_idx = np.arange(k)
    while True:
        while live[0].size < GN_WORKING_SET and pending < n:
            new = np.arange(pending, min(n, pending + GN_WORKING_SET - live[0].size))
            pending += new.size
            cost[new], lin[new], height, gg = evaluate(theta[new], new)
            enter = np.isfinite(cost[new])
            idx = new[enter]
            entering = (idx, np.full(idx.size, GN_LAM0), np.zeros(idx.size, dtype=np.intp),
                        *linearise(new, enter, height, gg))
            live = tuple(np.concatenate(pair) for pair in zip(live, entering))
        rows, lam, done_iter, g, H0 = live
        if rows.size == 0:
            break
        th, sl, cl = theta[rows], scale[rows], cost[rows]
        H = H0.copy()
        diag = H0[:, diag_idx, diag_idx]
        damp = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True) + 1e-300)
        H[:, diag_idx, diag_idx] += lam[:, None] * damp
        try:
            delta = np.linalg.solve(H, -g[..., None])[..., 0]
        except np.linalg.LinAlgError:
            delta = -(np.linalg.pinv(H) @ g[..., None])[..., 0]
        trial = th + delta
        trial_cost, trial_lin, height, gg = evaluate(trial, rows)
        accept = trial_cost <= cl
        rel_step = np.max(np.abs(delta) / np.maximum(np.abs(th), sl), axis=1)
        # at the noise floor accepted steps stop paying: relative cost
        # improvements below ftol mean the parameters have settled
        done = accept & ((rel_step < GN_STEP_TOL) | (
            cl - trial_cost <= 1e-7 * np.maximum(trial_cost, 1e-300)))
        theta[rows[accept]] = trial[accept]
        cost[rows[accept]] = trial_cost[accept]
        lin[rows[accept]] = trial_lin[accept]
        lam = np.where(accept, lam * 0.35, lam * 6.0)
        done_iter += 1
        converged[rows[done]] = True
        stay = ~done & (done_iter < GN_MAX_ITER)
        moved = accept & stay
        if moved.any():
            g[moved], H0[moved] = linearise(rows, moved, height, gg)
        live = tuple(a[stay] for a in (rows, lam, done_iter, g, H0))
    dof = max(T - k - 2, 1)
    return theta, lin, cost / dof, converged


# ---- softplus law --------------------------------------------------------


def softplus_shape(x, theta, out=None, scratch=None):
    """Basis ``softplus(c * (b - x)) / c`` of the softplus law for rows
    ``theta = (b, c)`` and its derivatives in b and c, shapes (m, T) and
    (m, 2, T), written into ``out = (g, dg)`` if given; one term is built
    in ``scratch[0]`` if given. The law is ``a`` times the basis plus
    ``offset``."""
    x = np.asarray(x, dtype=float)
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    b, c = theta[:, :1], theta[:, 1:2]
    m, T = theta.shape[0], x.size
    g, dg = (np.empty((m, T)), np.empty((m, 2, T))) if out is None else out
    logistic, dc = dg[:, 0], dg[:, 1]
    with np.errstate(all="ignore"):
        b_x = np.subtract(b, x[None, :], out=None if scratch is None else scratch[0])
        u = np.multiply(c, b_x, out=dc)
        sp = np.logaddexp(0.0, u, out=g)
        np.exp(np.subtract(u, sp, out=logistic), out=logistic)
        g /= c
        np.divide(np.subtract(np.multiply(logistic, b_x, out=dc), g, out=dc), c, out=dc)
    return g, dg


def fit_softplus(x, y, sigma=None):
    """Fit the softplus transfer law per trace.

    ``a`` and ``offset`` are linear, so :func:`separable_gauss_newton`
    iterates only ``b`` and ``c``. Initial guesses from landmarks: the
    steepest (left) end of the sorted sweep is on the linear asymptote
    ``a * (b - x) + offset``, so its slope gives ``a`` and its crossing
    with the floor ``offset = min(y)`` gives ``b``; the curvature scale
    follows from the law's value at ``b`` being ``a * ln 2 / c + offset``.

    Returns (coeffs (n, 4) = (a, b, c, offset), reduced chi-square (n,),
    ok (n,)).
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
    theta, lin, red, conv = separable_gauss_newton(
        functools.partial(softplus_shape, x), np.column_stack([b0, c0]), Y, sig,
        np.column_stack([np.full(n, x[-1] - x[0]), c0]))
    P = np.column_stack([lin[:, 0], theta, lin[:, 1]])
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


def _psp_start(t, V, onset):
    """Landmark start of :func:`fit_psp_batch` for the rows of ``V``:
    ``(taus0, sigma, flat)``; the start also scales the step test. The
    landmarks are read in blocks of ``GN_WORKING_SET`` rows, in three
    (rows, T) arrays allocated once, and the fast constants of all rows are
    then inverted at once."""
    n, T = V.shape
    work = np.empty((3, min(n, GN_WORKING_SET), T))
    tau1_0, gap, sig = np.empty((3, n))
    flat = np.empty(n, dtype=bool)
    for start in range(0, n, GN_WORKING_SET):
        blk = slice(start, start + GN_WORKING_SET)
        Vb = V[blk]
        m = Vb.shape[0]
        d, dsm, frac = work[:, :m]
        sig[blk] = estimate_noise(Vb)

        base0 = np.median(Vb[:, :max(3, T // 10)], axis=1)
        np.subtract(Vb, base0[:, None], out=d)
        smooth3(d, out=dsm)
        k_peak = np.argmax(np.abs(dsm, out=frac), axis=1)
        h0 = dsm[np.arange(m), k_peak]
        flat[blk] = np.abs(h0) < 4.0 * sig[blk]

        # slow constant from the decay flank between 60% and 5% of the
        # height; the flank ends at the first crossing below 5%, otherwise
        # the noise floor after a fast PSP would swamp the regression and
        # stretch the seed
        frac /= np.maximum(np.abs(h0), NOISE_FLOOR)[:, None]
        after = np.arange(T)[None, :] > k_peak[:, None]
        below = after & (frac < 0.05)
        end = np.where(below.any(axis=1), np.argmax(below, axis=1), T)
        tail = after & (frac < 0.6) & (np.arange(T)[None, :] < end[:, None])
        off, cnt = ~tail, tail.sum(axis=1)
        # the regression's terms, each zero off the flank, go into the
        # buffers that are free by then
        logd = np.log(np.maximum(np.abs(d, out=dsm), NOISE_FLOOR, out=dsm), out=dsm)
        np.copyto(logd, 0.0, where=off)
        tx = frac
        np.copyto(tx, t)
        np.copyto(tx, 0.0, where=off)
        mx = tx.sum(axis=1) / np.maximum(cnt, 1)
        my = logd.sum(axis=1) / np.maximum(cnt, 1)
        dt = np.subtract(t, mx[:, None], out=frac)
        sq = np.square(dt, out=d)
        np.copyto(sq, 0.0, where=off)
        sxx = sq.sum(axis=1)
        logd -= my[:, None]
        prod = np.multiply(dt, logd, out=dt)
        np.copyto(prod, 0.0, where=off)
        sxy = prod.sum(axis=1)
        with np.errstate(all="ignore"):
            tau1_0[blk] = np.where((cnt >= 3) & (sxy < 0.0), -sxx / sxy,
                                   (t[-1] - t[k_peak]) / 3.0)
        gap[blk] = t[k_peak] - onset
    span = t[-1] - t[0]
    tau1_0 = np.clip(tau1_0, span / T, span)
    gap = np.maximum(gap, span / T)
    tau1_0 = np.maximum(tau1_0, 1.05 * gap)
    taus0 = np.column_stack([tau1_0, _tau2_from_peak_gap(tau1_0, gap)])
    return taus0, sig, flat


def fit_psp_batch(t, V, onset):
    """Fit the PSP shape with its onset at ``onset`` to many traces sharing
    one time grid.

    Height and baseline are linear, so :func:`separable_gauss_newton`
    iterates only the two time constants. They start from landmarks:
    baseline = median of the leading tenth of the trace, height and peak
    position from the 3-sample-smoothed deviation, the slow time constant
    from a log-linear fit of the decay flank and the fast one by inverting
    the onset-to-peak gap. The landmarks are read in blocks of
    ``GN_WORKING_SET`` rows, which bounds their (rows, T) arrays.

    Returns ``(params (n, 5), reduced chi-square (n,), ok (n,))`` with
    parameter columns (t0 = onset, h, tau1, tau2, e_leak), ``tau1 >= tau2``
    (the membrane constant is typically the larger of the two). Rows whose
    deviation never clears four noise sigmas are fitted like the others
    and flagged not-ok (flat trace).
    """
    t = np.asarray(t, dtype=float)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n, T = V.shape
    if T < 20 or t.shape[0] != T:
        raise ValueError("need at least 20 samples spanning the PSP")
    taus0, sig, flat = _psp_start(t, V, onset)
    taus, lin, red, conv = separable_gauss_newton(
        functools.partial(psp_shape, t, onset), taus0, V, sig, taus0)

    taus.sort(axis=1)
    P = np.column_stack([np.full(n, float(onset)), lin[:, 0], taus[:, ::-1],
                         lin[:, 1]])
    ok = ~flat & conv & np.isfinite(P).all(axis=1) \
        & (P[:, 2] > 0.0) & (P[:, 3] > 0.0)
    return P, red, ok
