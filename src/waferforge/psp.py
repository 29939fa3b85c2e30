"""Analytic post-synaptic-potential shape.

The membrane response to a single synaptic event is a difference of
exponentials in the two time constants (membrane and synaptic), normalized so
its peak equals the height parameter exactly; when the constants coincide the
shape degenerates to an alpha function peaking at ``t0 + tau``.
The fitting engine and the calibration ops share the batched forms here.
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


def peak_factor(tau1, tau2):
    """Batched signed peak of exp(-s/tau1) - exp(-s/tau2); NaN if equal."""
    r = tau2 / tau1
    log_r = np.log(r)
    return np.exp(r * log_r / (1.0 - r)) - np.exp(log_r / (1.0 - r))


def psp_peak_factor(tau1: float, tau2: float) -> float:
    """Scalar :func:`peak_factor` that rejects non-positive constants."""
    if tau2 / tau1 <= 0.0:
        raise ValueError("time constants must be positive")
    return float(peak_factor(tau1, tau2))


def psp_peak_time(tau1, tau2):
    """Time after onset at which the PSP reaches its peak (batched)."""
    alpha = is_alpha(tau1, tau2)
    gap = tau1 * tau2 * np.log(tau1 / tau2) / np.where(alpha, 1.0, tau1 - tau2)
    return np.where(alpha, 0.5 * (tau1 + tau2), gap)[()]


def _shape(s, tau1, tau2, x1, x2):
    """Peak-normalized shape from ``x1 = exp(-s/tau1)`` and
    ``x2 = exp(-s/tau2)``; rows whose constants nearly coincide take the
    alpha-function branch."""
    f = (x1 - x2) / peak_factor(tau1, tau2)
    alpha = is_alpha(tau1, tau2)[:, 0]
    if alpha.any():
        x = s[alpha] / (0.5 * (tau1[alpha] + tau2[alpha]))
        f[alpha] = x * np.exp(1.0 - x)
    return f


def _voltage(e, hf, active, tau1, tau2):
    """``e + h f`` on the active samples; NaN rows where a constant is not
    positive."""
    out = e + hf * active
    out[((tau1 <= 0.0) | (tau2 <= 0.0))[:, 0]] = np.nan
    return out


def psp_model_batch(t, params):
    """Batched peak-normalized PSP on one time grid, shape (n, T).

    ``params`` columns are (t0, h, tau1, tau2, e_leak); rows whose time
    constants nearly coincide use the alpha-function branch, and rows with
    a non-positive time constant are NaN.
    """
    t = np.asarray(t, dtype=float)
    P = np.atleast_2d(np.asarray(params, dtype=float))
    t0, h, tau1, tau2, e = (P[:, j:j + 1] for j in range(5))
    s = t[None, :] - t0
    with np.errstate(all="ignore"):
        f = _shape(s, tau1, tau2, np.exp(-s / tau1), np.exp(-s / tau2))
        return _voltage(e, h * f, s > 0.0, tau1, tau2)


def psp_central_differences(t, params, dp):
    """Central differences of :func:`psp_model_batch`, shape (n, T, 5).

    Column j is exactly ``(model(P + step_j) - model(P - step_j)) /
    (2 dp_j)`` with ``step_j`` holding ``dp[:, j]`` in column j, computed
    by the model's own expressions. Only what a step leaves unchanged is
    shared: the height and baseline steps reuse the shape at ``P``, a time
    constant step recomputes only its own exponential, and only the onset
    steps need both afresh (10 exponentials instead of 20).
    """
    t = np.asarray(t, dtype=float)
    P = np.atleast_2d(np.asarray(params, dtype=float))
    t0, h, tau1, tau2, e = (P[:, j:j + 1] for j in range(5))
    dp = np.asarray(dp, dtype=float)
    s = t[None, :] - t0
    ns = -s
    active = s > 0.0
    with np.errstate(all="ignore"):
        x1, x2 = np.exp(ns / tau1), np.exp(ns / tau2)
        f = _shape(s, tau1, tau2, x1, x2)
        hf = h * f

    def stepped(j, pj, ex):
        """The model with column j at ``pj`` and the baseline at ``ex``."""
        if j == 0:
            sx = t[None, :] - pj
            fx = _shape(sx, tau1, tau2, np.exp(-sx / tau1), np.exp(-sx / tau2))
            return _voltage(ex, h * fx, sx > 0.0, tau1, tau2)
        if j == 1:
            return _voltage(ex, pj * f, active, tau1, tau2)
        if j == 2:
            fx = _shape(s, pj, tau2, np.exp(ns / pj), x2)
            return _voltage(ex, h * fx, active, pj, tau2)
        if j == 3:
            fx = _shape(s, tau1, pj, x1, np.exp(ns / pj))
            return _voltage(ex, h * fx, active, tau1, pj)
        return _voltage(pj, hf, active, tau1, tau2)

    J = np.empty(s.shape + (5,))
    with np.errstate(all="ignore"):
        for j in range(5):
            pj, d = P[:, j:j + 1], dp[:, j:j + 1]
            # P + step adds +0.0 to the other columns, which turns -0.0
            # into +0.0; of those signs only the baseline's reaches the output
            J[:, :, j] = (stepped(j, pj + d, e + 0.0)
                          - stepped(j, pj - d, e)) / (2.0 * d)
    return J


def psp_analytic(t, t0: float, h: float, tau1: float, tau2: float,
                 e_leak: float = 0.0):
    """Membrane voltage of a single PSP with peak height exactly ``h``.

    ``tau1`` and ``tau2`` are interchangeable; for ``t < t0`` the baseline
    ``e_leak`` is returned. Works on scalars and arrays.
    """
    if tau1 <= 0.0 or tau2 <= 0.0:
        raise ValueError("time constants must be positive")
    t_arr = np.asarray(t, dtype=float)
    s = np.atleast_1d(t_arr) - t0
    out = np.full(s.shape, float(e_leak))
    active = s > 0.0
    if is_alpha(tau1, tau2):
        x = s[active] / (0.5 * (tau1 + tau2))
        out[active] = e_leak + h * x * np.exp(1.0 - x)
    else:
        f = np.exp(-s[active] / tau1) - np.exp(-s[active] / tau2)
        out[active] = e_leak + h * f / psp_peak_factor(tau1, tau2)
    return float(out[0]) if t_arr.ndim == 0 else out


def smooth3(v: np.ndarray) -> np.ndarray:
    """Three-sample running mean along the last axis; end samples kept."""
    out = v.copy()
    out[..., 1:-1] = (v[..., :-2] + v[..., 1:-1] + v[..., 2:]) / 3.0
    return out
