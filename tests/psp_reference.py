"""Closed-form single-PSP reference: the fitting tests compare the batched
shape of ``waferforge.psp`` against it, the integration tests the simulated
membrane. It shares only the alpha-branch test with the package."""

import numpy as np

from waferforge.psp import is_alpha


def psp_peak_factor(tau1: float, tau2: float) -> float:
    """Signed peak of exp(-s/tau1) - exp(-s/tau2); NaN if the constants are
    equal, ValueError if one is not positive."""
    r = tau2 / tau1
    if r <= 0.0:
        raise ValueError("time constants must be positive")
    log_r = np.log(r)
    return float(np.exp(r * log_r / (1.0 - r)) - np.exp(log_r / (1.0 - r)))


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
