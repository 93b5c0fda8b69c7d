"""Mittag-Leffler function E_alpha(z) on the non-positive real axis.

E_alpha(z) = sum_k z^k / Gamma(alpha k + 1) interpolates between algebraic
relaxation and the exponential (alpha = 1); only 0 < alpha <= 1 and z <= 0
are supported, which is exactly the regime the fractional solver needs.

With x = -z >= 0, s^(alpha-1) / (s^alpha + x) is the Laplace transform of
E_alpha(-x t^alpha), so at t = 1

    E_alpha(-x) = 1/(2 pi i) int_C e^s s^(alpha-1) / (s^alpha + x) ds

along any contour C that leaves the branch cut (-inf, 0] on its left.  The
integral runs on the parabolic contour of Weideman & Trefethen (Math. Comp.
76, 2007)

    s(theta) = N (0.1309 - 0.1194 theta^2 + 0.25 i theta),  -pi < theta < pi,

by the trapezoid rule at N = 32 midpoint nodes, in float64 and vectorized
over x; conjugate symmetry halves the nodes.  The rule converges
geometrically in N, but its largest term grows like e^(0.1309 N), so more
nodes lose digits to round-off (48 nodes are worse than 32).  At N = 32 the
error is ~1e-14 absolute for every 0 < alpha < 1 and x >= 0.

Every evaluation also takes the N = 24 rule, whose error is ~2e-11, and
raises ArithmeticError when the two differ by more than 1e-10, the accuracy
contract.  Both rules come from one reciprocal 1/(s^alpha + x) over their
28 nodes, and s^alpha with the weights w s^alpha / s is kept per order
alpha, so that repeated calls at a few orders pay for the powers once.
alpha = 1 is the exponential; x = 0 gives exactly 1.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mittag_leffler", "ml_relaxation"]

NODES = 32
GUARD_NODES = 24
GUARD_TOL = 1e-10  # absolute; also the documented accuracy


def _half_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_j with theta_j > 0 and weights (2/n) e^s s'(theta): E = Im sum_j w_j F(s_j)."""
    theta = (np.arange(n // 2) + 0.5) * (2.0 * np.pi / n)
    s = n * (0.1309 - 0.1194 * theta**2 + 0.25j * theta)
    ds = n * (-2.0 * 0.1194 * theta + 0.25j)
    return s, (2.0 / n) * np.exp(s) * ds


_RULE = _half_rule(NODES)
_GUARD_RULE = _half_rule(GUARD_NODES)


# What _order_nodes returns, per order alpha and its type, and the
# (_RULE, _GUARD_RULE) it was built from.
_ORDER_NODES: dict[tuple[type, float], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_ORDER_NODES_RULES: list = [None, None]
ORDER_NODES_KEPT = 32


def _order_nodes(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s^alpha over the main rule's nodes, then the guard rule's, and each rule's weights w s^alpha / s.

    Kept per alpha, for at most ORDER_NODES_KEPT orders (the oldest goes
    first); all are dropped once ``_RULE`` or ``_GUARD_RULE`` is rebound.
    The type of alpha is part of the key: numpy takes s**0.5 as a square
    root for a Python float exponent only, a last-bit difference from the
    power of a numpy 0.5.
    """
    if _ORDER_NODES_RULES[0] is not _RULE or _ORDER_NODES_RULES[1] is not _GUARD_RULE:
        _ORDER_NODES.clear()
        _ORDER_NODES_RULES[:] = _RULE, _GUARD_RULE
    key = (type(alpha), alpha)
    nodes = _ORDER_NODES.get(key)
    if nodes is None:
        rules = (_RULE, _GUARD_RULE)
        sa = [s**alpha for s, _ in rules]
        nodes = (np.concatenate(sa), *(w * a / s for (s, w), a in zip(rules, sa)))
        for a in nodes:
            a.setflags(write=False)
        if len(_ORDER_NODES) >= ORDER_NODES_KEPT:
            del _ORDER_NODES[next(iter(_ORDER_NODES))]
        _ORDER_NODES[key] = nodes
    return nodes


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def _decay(alpha: float, x: np.ndarray) -> np.ndarray:
    """E_alpha(-x) elementwise for x >= 0 (no NaN) and a checked alpha."""
    if alpha == 1.0:
        return np.exp(-x)
    sa, weights, guard_weights = _order_nodes(alpha)
    inverse = 1.0 / (sa + x[..., None])
    main = len(weights)
    value = np.imag(inverse[..., :main] @ weights)
    gap = float(np.abs(value - np.imag(inverse[..., main:] @ guard_weights)).max(initial=0.0))
    if not gap <= GUARD_TOL:
        raise ArithmeticError(
            f"E_{alpha} contour rules with {NODES} and {GUARD_NODES} nodes differ by "
            f"{gap:.3g} > {GUARD_TOL:g}; evaluation is suspect"
        )
    return np.where(x == 0.0, 1.0, value)


def _as_result(value: np.ndarray):
    return float(value) if value.ndim == 0 else value


def mittag_leffler(alpha: float, z):
    """E_alpha(z) for 0 < alpha <= 1 and z <= 0, accurate to 1e-10 absolute.

    z may be a scalar (a float is returned) or an array (an array of the
    same shape is returned).  Raises ValueError for arguments outside that
    regime, and ArithmeticError if the convergence guard fails.
    """
    _check_alpha(alpha)
    z = np.asarray(z, dtype=float)
    if z.size and not z.max() <= 0.0:
        raise ValueError(f"only non-positive arguments are supported, got z={z[~(z <= 0.0)][0]}")
    return _as_result(_decay(alpha, -z))


def _check_nonnegative(a: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first entry of ``a`` that is negative or not finite.

    One pass of reductions: ``float`` of a 0-d array, else its min and max,
    which are NaN if an entry is; the entry is looked up only on failure.
    """
    if a.ndim == 0:
        ok = 0.0 <= float(a) < math.inf
    else:
        ok = not a.size or (a.min() >= 0.0 and a.max() < math.inf)
    if not ok:
        raise ValueError(f"{what} must be finite and non-negative, got {a[~(np.isfinite(a) & (a >= 0.0))][0]}")


def ml_relaxation(alpha: float, eps, t):
    """Temporal relaxation factor E_alpha(-eps t^alpha), broadcast over eps and t.

    Equals 1 at t = 0, stays 1 forever for the zero mode, and decays
    monotonically otherwise (algebraically for alpha < 1).  Scalar inputs
    give a float.
    """
    _check_alpha(alpha)
    eps = np.asarray(eps, dtype=float)
    t = np.asarray(t, dtype=float)
    _check_nonnegative(eps, "relaxation rate")
    _check_nonnegative(t, "time")
    return _as_result(_decay(alpha, eps * t**alpha))
