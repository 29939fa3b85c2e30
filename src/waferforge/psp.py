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


def _shape(t, onset, taus):
    """:func:`psp_shape`'s ``f``, its alpha-branch rows and the terms its
    derivatives reuse, ``(s, ts, tf, tp, x, E(s), E(tp), (x E)(tp))``."""
    ts, tf = taus.max(axis=1)[:, None], taus.min(axis=1)[:, None]
    s = np.maximum(np.asarray(t, dtype=float)[None, :] - onset, 0.0)
    with np.errstate(all="ignore"):
        tp = psp_peak_time(ts, tf)
        rate = 1.0 / tf - 1.0 / ts
        x, e_s = np.exp(-s / ts), np.expm1(-rate * s)
        e_p = np.expm1(-rate * tp)
        xp = np.exp(-tp / ts) * e_p
        f = x * e_s / xp
        alpha = is_alpha(ts, tf)[:, 0]
        if alpha.any():
            u = (s if s.shape[0] == 1 else s[alpha]) / (0.5 * (ts[alpha] + tf[alpha]))
            f[alpha] = u * np.exp(1.0 - u)
    f[~(taus > 0.0).all(axis=1)] = np.nan
    return f, alpha, (s, ts, tf, tp, x, e_s, e_p, xp)


def psp_shape(t, onset, taus):
    """Peak-normalized PSP shape ``f`` (m, T) and its closed-form
    derivatives ``df[:, j] = df/dtau_j`` (m, 2, T) for rows ``taus`` (m, 2)
    and an ``onset``, scalar or (m, 1). With ``s = max(t - onset, 0)`` both
    are exactly zero up to the onset.

    With ``x = exp(-s/ts)`` of the slower constant and ``E(s) = expm1(-(1/tf
    - 1/ts) s)``, ``f = x E(s) / (x E)(tp)`` at the peak time ``tp``, which
    keeps near-equal constants accurate. The peak normaliser's derivative
    follows from the envelope theorem, e.g. ``exp(-tp/ts) tp / ts**2``.
    Near-equal constants take the alpha branch ``f = u exp(1 - u)``, ``u =
    s / taubar``, where both derivatives are ``f (u - 1) / (2 taubar)``;
    rows with a non-positive constant are NaN.
    """
    taus = np.atleast_2d(np.asarray(taus, dtype=float))
    f, alpha, (s, ts, tf, tp, x, e_s, e_p, xp) = _shape(t, onset, taus)
    swap = taus[:, 0] < taus[:, 1]
    with np.errstate(all="ignore"):
        # s - tp E(s) / E(tp) vanishes to first order in 1/tf - 1/ts; it is
        # formed once and shared by both derivatives
        lead = s - tp * (e_s / e_p)
        df = np.stack([-x * lead / (ts * ts * xp),
                       x * (lead - e_s * (tp - s)) / (tf * tf * xp)], axis=1)
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
    return P[:, 4:5] + P[:, 1:2] * _shape(t, P[:, :1], P[:, 2:4])[0]


def smooth3(v: np.ndarray) -> np.ndarray:
    """Three-sample running mean along the last axis; end samples kept."""
    out = v.copy()
    out[..., 1:-1] = (v[..., :-2] + v[..., 1:-1] + v[..., 2:]) / 3.0
    return out
