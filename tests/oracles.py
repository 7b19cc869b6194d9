"""Numerical oracles for the closed-form effective-loss inversions.

Each solves the same equation as ``twohop.estimator``'s closed forms by a
search that shares no algebra with them, so the tests can check one
against the other.
"""

import math

from twohop.estimator import EstimatorError


def _check_q_range(q: float, n: int, slack: float = 1e-9) -> float:
    """Validate q against [1/n, 1], absorbing float rounding at the endpoints."""
    lo = 1.0 / n
    if q < lo - slack * lo or q > 1.0 + slack:
        raise EstimatorError(f"q = {q} outside [1/{n}, 1]")
    return min(1.0, max(lo, q))


def oracle_invert_recurrent(q: float, n: int, tol: float = 1e-12) -> float:
    """Bisection solve of q = u^2 + (1-u)/n on [1/n, 1], independent of the closed form."""
    q = _check_q_range(q, n)

    def residual(u: float) -> float:
        return u * u + (1.0 - u) / n - q

    lo, hi = 1.0 / n, 1.0
    # residual is increasing in u on [1/n, 1]; bisect down to float resolution,
    # which leaves the residual far below tol even where the slope is flat
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    u = 0.5 * (lo + hi)
    if abs(residual(u)) > tol:
        raise EstimatorError(f"bisection failed to reach residual {tol} at q={q}")
    return u


def oracle_two_function_loss(q: float, n: int) -> tuple[float, float, float]:
    """Grid-plus-refinement search for the conservative hop split.

    Scans p1 over its feasible range (p2 = (q - (1-p1)/n)/p1 within
    [1/n, 1]) and refines around the feasible point of minimal joint
    probability, i.e. maximal summed loss. Returns (p1, p2, summed loss).
    """
    inv_n = 1.0 / n
    q = _check_q_range(q, n)
    feas_eps = 1e-9

    def p2_of(p1: float) -> float:
        return (q - (1.0 - p1) / n) / p1

    def summed_loss(p1: float) -> float | None:
        p2 = p2_of(p1)
        if p2 < inv_n - feas_eps or p2 > 1.0 + feas_eps:
            return None
        p2 = min(1.0, max(inv_n, p2))
        return -math.log(p1) - math.log(p2)

    lo, hi = inv_n, 1.0
    best_p1 = None
    grid = 64
    for _ in range(14):
        step = (hi - lo) / grid
        best_val = None
        best_idx = None
        for i in range(grid + 1):
            p1 = lo + i * step
            val = summed_loss(p1)
            if val is not None and (best_val is None or val > best_val):
                best_val, best_idx = val, i
        if best_idx is None:
            raise EstimatorError(f"no feasible hop split for q = {q}")
        best_p1 = lo + best_idx * step
        lo = max(inv_n, best_p1 - step)
        hi = min(1.0, best_p1 + step)
        if hi - lo < 1e-15:
            break
    p2 = min(1.0, max(inv_n, p2_of(best_p1)))
    return best_p1, p2, -math.log(best_p1) - math.log(p2)
