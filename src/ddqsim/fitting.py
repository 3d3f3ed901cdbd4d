"""Levenberg-Marquardt least squares with closed-form or numeric Jacobians,
the package's line solve and its sample quantiles.

Small on purpose: every model in this package has a handful of parameters
and tens of data points. `lm_least_squares` is the one damped Gauss-Newton
loop (Marquardt, J. SIAM 11, 431, 1963) that every fit in the package runs.
A fit whose model has derivatives in closed form passes its Jacobian; any
other fit gets the central-difference one.

Residual functions are vectorized over trial points. ``fun(theta)`` gets the
p parameters along axis 0, either as a vector of shape (p,) or as a stack of
shape (p, k, 1) holding k points; elementwise code written for one vector,
``theta[0] * np.exp(-theta[1] * t) - y``, then returns one residual row per
point, shape (k, n). The central-difference Jacobian (relative step 1e-6,
floored at 1e-6 absolute) is therefore a single call of ``fun`` for all 2p
perturbed points, and stays directly checkable against finite differences
in tests.

The loop stops on the first of three rules: a damped step's size relative
to the parameters falls below 1e-9 (taken if it goes downhill, and ending
the fit either way, so a fit that starts at its minimum ends on one trial
instead of damping an uphill rounding-level step 40 times); an accepted
step lowers the cost by no more than 1e-10 of the new cost (the
stalled-cost stop of Madsen, Nielsen and Tingleff, Methods for Non-Linear
Least Squares Problems, 2004, sec. 3.2); or no damped step goes downhill
(a stationary point).

`quantiles` is NumPy's default ("linear") sample quantile, taken from one
sort: `np.quantile`, `np.percentile` and `np.median` import `numpy.ma` on
their first call in a process (about 1 MB and 10-20 ms).
"""

from __future__ import annotations

import math

import numpy as np

_MAX_ITER = 500
_STEP_TOL = 1e-9
_COST_TOL = 1e-10
_REL_STEP = 1e-6


def numeric_jacobian(fun, x) -> np.ndarray:
    """Central-difference Jacobian of a residual function at x, from one
    call of ``fun`` on the (p, 2p, 1) stack of points x +/- h_j e_j."""
    x = np.asarray(x, dtype=float)
    h = _REL_STEP * np.maximum(np.abs(x), 1.0)
    shifts = np.diag(h)
    points = np.concatenate([x + shifts, x - shifts])
    r = np.asarray(fun(points.T[..., None]), dtype=float)
    return (r[:x.size] - r[x.size:]).T / (2.0 * h)


def lm_least_squares(fun, x0, jacobian=None):
    """Minimize 0.5*||fun(x)||^2 by Levenberg-Marquardt damping.

    ``jacobian(x)``, when given, returns the (n, p) Jacobian of ``fun`` at
    x; otherwise it is taken by `numeric_jacobian`. Returns ``(x, info)``
    where info carries ``converged``, ``iterations``, ``cost`` and
    ``message``. Convergence is declared when a damped step is below
    ``_STEP_TOL`` relative to the new point (taken only if it does not go
    uphill), when an accepted step lowers the cost by at most
    ``_COST_TOL`` times the new cost, or when no damped step goes downhill;
    the loop gives up after ``_MAX_ITER`` iterations, and at
    once, unconverged, when the cost at ``x0`` is not finite. The cost
    never increases between accepted iterations; a singular damped system
    (`np.linalg.solve` raises LinAlgError) or a non-finite trial step
    counts as uphill and raises the damping tenfold.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(fun(x), dtype=float)
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    info = {"converged": False, "iterations": 0, "cost": cost,
            "message": "max iterations reached", "initial_cost": cost}
    if not math.isfinite(cost):
        return x, {**info, "message": "initial cost is not finite"}
    for it in range(1, _MAX_ITER + 1):
        info["iterations"] = it
        jac = (numeric_jacobian(fun, x) if jacobian is None
               else jacobian(x))
        neg_grad = -(jac.T @ r)
        hess = jac.T @ jac
        scaling = np.diag(np.maximum(hess.diagonal(), 1e-14))
        step = None
        for _ in range(40):
            try:
                step = np.linalg.solve(hess + lam * scaling, neg_grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                step = None
                continue
            x_new = x + step
            r_new = np.asarray(fun(x_new), dtype=float)
            cost_new = 0.5 * float(r_new @ r_new)
            downhill = math.isfinite(cost_new) and cost_new <= cost
            # NaN-propagating: a non-finite step is never below tolerance
            tiny = float((np.abs(step) / np.maximum(np.abs(x_new), 1.0)
                          ).max()) < _STEP_TOL
            if downhill or tiny:
                break
            lam *= 10.0
            step = None
        if step is None:
            # Fully damped and still uphill: we are at a stationary point.
            info["converged"] = True
            info["message"] = "no downhill step (stationary point)"
            break
        stalled = False
        if downhill:
            stalled = cost - cost_new <= _COST_TOL * cost_new
            x, r, cost = x_new, r_new, cost_new
            lam = max(lam / 3.0, 1e-14)
            info["cost"] = cost
        if tiny:
            info["converged"] = True
            info["message"] = "parameter step below tolerance"
            break
        if stalled:
            info["converged"] = True
            info["message"] = "cost change below tolerance"
            break
    return x, info


def line_fit(x, y):
    """Least-squares slope and offset of ``y`` against ``x``, for a 1-D
    ``y`` or for each row of a 2-D one, from elementwise sums with both
    ``x`` and ``y`` centred (no LAPACK call)."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean()
    y_mean = np.mean(y, axis=-1, keepdims=True)
    slope = ((y - y_mean) * xc).sum(axis=-1) / (xc * xc).sum()
    return slope, y_mean[..., 0] - slope * x.mean()


def quantiles(values, qs) -> np.ndarray:
    """Quantiles ``qs`` (in [0, 1]) of the finite 1-D ``values``, by NumPy's
    default "linear" method: value k + g of the sorted sample, for virtual
    index (n - 1) q = k + g, interpolated as NumPy's ``_lerp`` does
    (a + (b - a) g below g = 1/2, b - (b - a)(1 - g) from there). Equal to
    ``np.quantile(values, qs)`` bit for bit, except for the sign of a zero
    result where +0.0 and -0.0 tie (a sort and NumPy's partition may order
    them differently)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    last = len(ordered) - 1
    virtual = last * np.asarray(qs, dtype=float)
    # NumPy indexes from the end at or past the last value
    top = virtual >= last
    below = np.where(top, -1.0, np.floor(virtual))
    gamma = virtual - below
    i = below.astype(np.intp)
    a, b = ordered[i], ordered[np.where(top, -1, i + 1)]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)
