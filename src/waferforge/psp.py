"""Analytic post-synaptic-potential shape.

The membrane response to a single synaptic event is a difference of
exponentials in the two time constants (membrane and synaptic), normalized so
its peak equals the height parameter exactly; when the constants coincide the
shape degenerates to an alpha function peaking at ``t0 + tau``.

The onset is not a fit parameter: the calibration ops know when they
stimulate, and a free onset would make the fit objective kinked at every
sample time. ``psp_shape`` gives the fitting engine the shape and its
closed-form derivatives in the two time constants at a given onset;
``psp_model_batch`` adds height and baseline for the calibration ops.
"""

from __future__ import annotations

import numpy as np

# below this relative time-constant difference the difference-of-exponentials
# form is numerically degenerate and the alpha branch takes over
ALPHA_SWITCH = 1e-9


def is_alpha(tau1, tau2):
    """Where the two time constants are close enough for the alpha branch."""
    return np.abs(tau1 - tau2) <= ALPHA_SWITCH * np.maximum(np.abs(tau1),
                                                            np.abs(tau2))


def psp_peak_time(tau1, tau2):
    """Time after onset at which the PSP reaches its peak (batched)."""
    alpha = is_alpha(tau1, tau2)
    gap = tau1 * tau2 * np.log(tau1 / tau2) / np.where(alpha, 1.0, tau1 - tau2)
    return np.where(alpha, 0.5 * (tau1 + tau2), gap)[()]


def _shape(t, onset, taus, f, x, e_s):
    """Write :func:`psp_shape`'s ``f`` and the terms ``x`` and ``E(s)`` into
    the (m, T) arrays ``f``, ``x`` and ``e_s``; return the alpha-branch rows
    and the terms the derivatives reuse, ``(s, ts, tf, tp, E(tp), (x
    E)(tp))``."""
    ts, tf = taus.max(axis=1)[:, None], taus.min(axis=1)[:, None]
    s = np.maximum(np.asarray(t, dtype=float)[None, :] - onset, 0.0)
    with np.errstate(all="ignore"):
        tp = psp_peak_time(ts, tf)
        rate = 1.0 / tf - 1.0 / ts
        np.exp(np.divide(-s, ts, out=x), out=x)
        np.expm1(np.multiply(-rate, s, out=e_s), out=e_s)
        e_p = np.expm1(-rate * tp)
        xp = np.exp(-tp / ts) * e_p
        np.divide(np.multiply(x, e_s, out=f), xp, out=f)
        alpha = is_alpha(ts, tf)[:, 0]
        if alpha.any():
            u = (s if s.shape[0] == 1 else s[alpha]) / (0.5 * (ts[alpha] + tf[alpha]))
            f[alpha] = u * np.exp(1.0 - u)
    f[~(taus > 0.0).all(axis=1)] = np.nan
    return alpha, (s, ts, tf, tp, e_p, xp)


def psp_shape(t, onset, taus, out=None, scratch=None):
    """Peak-normalized PSP shape ``f`` (m, T) and its closed-form
    derivatives ``df[:, j] = df/dtau_j`` (m, 2, T) for rows ``taus`` (m, 2)
    and an ``onset``, scalar or (m, 1). With ``s = max(t - onset, 0)`` both
    are exactly zero up to the onset. ``out``, if given, is the pair ``(f,
    df)`` to write them into; the terms are built in ``df`` and in
    ``scratch``, two (m, T) arrays, allocated unless given.

    With ``x = exp(-s/ts)`` of the slower constant and ``E(s) = expm1(-(1/tf
    - 1/ts) s)``, ``f = x E(s) / (x E)(tp)`` at the peak time ``tp``, which
    keeps near-equal constants accurate. The peak normaliser's derivative
    follows from the envelope theorem, e.g. ``exp(-tp/ts) tp / ts**2``.
    Near-equal constants take the alpha branch ``f = u exp(1 - u)``, ``u =
    s / taubar``, where both derivatives are ``f (u - 1) / (2 taubar)``;
    rows with a non-positive constant are NaN.
    """
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    m, T = taus.shape[0], np.size(t)
    f, df = (np.empty((m, T)), np.empty((m, 2, T))) if out is None else out
    x, e_s = df[:, 0], df[:, 1]  # each becomes its derivative in place
    alpha, (s, ts, tf, tp, e_p, xp) = _shape(t, onset, taus, f, x, e_s)
    lead, term = np.empty((2, m, T)) if scratch is None else scratch
    swap = taus[:, 0] < taus[:, 1]
    with np.errstate(all="ignore"):
        # s - tp E(s) / E(tp) vanishes to first order in 1/tf - 1/ts; it is
        # formed once and shared by both derivatives
        np.multiply(tp, np.divide(e_s, e_p, out=lead), out=lead)
        np.subtract(s, lead, out=lead)
        np.multiply(e_s, np.subtract(tp, s, out=term), out=term)
        np.subtract(lead, term, out=term)
        np.divide(np.multiply(x, term, out=e_s), tf * tf * xp, out=e_s)
        np.divide(np.multiply(np.negative(x, out=x), lead, out=x), ts * ts * xp, out=x)
        df[swap] = df[swap, ::-1]
        if alpha.any():
            tbar = 0.5 * (ts[alpha] + tf[alpha])
            u = (s if s.shape[0] == 1 else s[alpha]) / tbar
            df[alpha] = (0.5 * f[alpha] * (u - 1.0) / tbar)[:, None, :]
    df[~(taus > 0.0).all(axis=1)] = np.nan
    return f, df


def psp_model_batch(t, params):
    """Batched peak-normalized PSP on one time grid, shape (n, T).

    ``params`` columns are (t0, h, tau1, tau2, e_leak); the shape is
    :func:`psp_shape`'s, so near-equal constants take the alpha branch and
    a non-positive constant makes its row NaN.
    """
    P = np.atleast_2d(np.asarray(params, dtype=float))
    f, x, e_s = np.empty((3, P.shape[0], np.size(t)))
    _shape(t, P[:, :1], P[:, 2:4], f, x, e_s)
    return P[:, 4:5] + P[:, 1:2] * f


def smooth3(v: np.ndarray, out=None) -> np.ndarray:
    """Three-sample running mean along the last axis, end samples kept,
    written into ``out`` (not ``v``) if given."""
    out = np.empty_like(v) if out is None else out
    out[..., 0], out[..., -1] = v[..., 0], v[..., -1]
    mid = np.add(v[..., :-2], v[..., 1:-1], out=out[..., 1:-1])
    mid += v[..., 2:]
    mid /= 3.0
    return out
