"""Uniform 1-D grids with Simpson quadrature and 4th-order finite differences.

Functions are carried as node samples on a fixed grid: one
``GridFunction`` holds one function or a stack of them, with the nodes
on the last axis.  Every grid function carries one support interval,
the half-open node range (a, z) where it can be trusted, shared by every
function of a stack.  A division trusts the run of nodes around the
peak of its denominator where the denominator clears the floor, and a
derivative trusts no node whose stencil reads a node outside the support.
Values outside the support are stored as 0, and sup-norm comparisons
skip those nodes.  This module alone decides how a support changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid1D",
    "GridFunction",
    "make_grid",
    "sample",
    "integrate",
    "cumulative_integral",
    "derivative",
    "log_derivative",
    "divide",
    "sup_norm",
    "sup_diff",
    "interior_sign_changes",
    "simpson_weights",
    "write_csv",
    "read_csv_columns",
]

# Relative threshold below which |f| is considered too small to divide by.
DEFAULT_FLOOR_FRACTION = 1e-12
# Relative amplitude below which interior_sign_changes does not count a sign
# change, and above which a node cut off a division's support means a zero inside.
SIGN_FLOOR_FRACTION = 1e-6


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform grid on [c1, c2] with an odd number of nodes.

    The odd node count makes the composite Simpson rule applicable as is;
    it is enforced at construction rather than silently adjusted.
    """

    c1: float
    c2: float
    n_points: int

    def __post_init__(self):
        if not -math.inf < self.c1 < self.c2 < math.inf:
            raise ValueError(f"grid [{self.c1}, {self.c2}] needs finite ends c1 < c2")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n_points}")
        if self.n_points % 2 == 0:
            raise ValueError(
                f"n_points must be odd for composite Simpson quadrature, got {self.n_points}"
            )
        if not 0.0 < self.h < math.inf:
            raise ValueError(
                f"grid [{self.c1}, {self.c2}] with {self.n_points} nodes has spacing {self.h}; need a finite h > 0"
            )

    @property
    def h(self) -> float:
        return (self.c2 - self.c1) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.c1, self.c2, self.n_points)

    @cached_property
    def simpson_weights(self) -> np.ndarray:
        """Composite Simpson weights (h/3)*[1,4,2,...,2,4,1], built once and read-only."""
        w = np.full(self.n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w = w * (self.h / 3.0)
        w.setflags(write=False)
        return w


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued samples of one function, or of a stack of functions, on a Grid1D.

    ``values`` has shape (..., N): the nodes lie on the last axis, and any
    leading axes index the functions of a stack.  Grid operations act
    along the last axis, so a stack behaves as its functions do one by
    one; ``integrate``, ``interior_sign_changes``, ``write_csv`` and the
    denominator of ``divide`` take one function and refuse a stack.
    ``support`` is the half-open node range (a, z) of reliable samples,
    one for the whole stack, the whole grid (0, N) unless given; the
    values outside it are always stored as 0, so that quadrature over an
    unreliable decaying tail stays harmless.
    """

    grid: Grid1D
    values: np.ndarray
    support: tuple[int, int] | None = None

    def __post_init__(self):
        self._settle(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, grid: Grid1D, values: np.ndarray, support: tuple[int, int] | None = None) -> "GridFunction":
        """A grid function that takes ``values`` over without a copy.

        For a float array that its caller has just built and holds no other
        reference to: it gets the same zeroing outside the support, the same
        finiteness check and the same read-only flag as a copy would.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "support", support)
        f._settle(np.asarray(values, dtype=float))
        return f

    def _settle(self, values: np.ndarray) -> None:
        """Check ``values`` against the grid and the support, zero them outside it, and keep them read-only."""
        n = self.grid.n_points
        if values.shape[-1:] != (n,):
            raise ValueError(f"values shape {values.shape} does not end in the grid's {n} nodes")
        a, z = (0, n) if self.support is None else self.support
        if not 0 <= a < z <= n:
            raise ValueError(f"function is unreliable on every node: support ({a}, {z}) of {n} nodes")
        values[..., :a] = values[..., z:] = 0.0
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite values in grid function")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", (a, z))

    # -- plain pointwise algebra; supports intersect -------------------------

    def _other(self, other) -> tuple[np.ndarray, tuple[int, int]]:
        """The values of ``other`` and the intersection of both supports."""
        if not isinstance(other, GridFunction):
            return np.asarray(other, dtype=float), self.support
        if other.grid is not self.grid and (
            other.grid.c1 != self.grid.c1
            or other.grid.c2 != self.grid.c2
            or other.grid.n_points != self.grid.n_points
        ):
            raise ValueError("grid functions live on different grids")
        (a, z), (oa, oz) = self.support, other.support
        return other.values, (max(a, oa), min(z, oz))

    def __add__(self, other):
        values, support = self._other(other)
        return GridFunction._adopt(self.grid, self.values + values, support)

    __radd__ = __add__

    def __sub__(self, other):
        values, support = self._other(other)
        return GridFunction._adopt(self.grid, self.values - values, support)

    def __mul__(self, other):
        values, support = self._other(other)
        return GridFunction._adopt(self.grid, self.values * values, support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GridFunction):
            return divide(self, other)
        return GridFunction._adopt(self.grid, self.values / float(other), self.support)

    def __rtruediv__(self, other):
        num = GridFunction._adopt(self.grid, np.full(self.grid.n_points, float(other)))
        return divide(num, self)

    def __neg__(self):
        return GridFunction._adopt(self.grid, -self.values, self.support)


def make_grid(c1: float, c2: float, n_points: int) -> Grid1D:
    """Build a uniform grid; rejects degenerate domains and even node counts."""
    return Grid1D(float(c1), float(c2), int(n_points))


def sample(grid: Grid1D, fn) -> GridFunction:
    """Sample a callable on the grid nodes."""
    return GridFunction(grid, np.asarray(fn(grid.x), dtype=float))


def simpson_weights(grid: Grid1D) -> np.ndarray:
    """Composite Simpson weights (h/3)*[1,4,2,...,2,4,1] of the grid (read-only)."""
    return grid.simpson_weights


def _one_function(f: GridFunction, name: str) -> np.ndarray:
    """The values of ``f``, refused with ValueError if it is a stack: ``name`` takes one function."""
    if f.values.ndim != 1:
        raise ValueError(f"{name} takes one function, got a stack of shape {f.values.shape}")
    return f.values


def integrate(f: GridFunction) -> float:
    """Composite-Simpson integral of one function over [c1, c2]; O(h^4) for smooth samples."""
    return float(simpson_weights(f.grid) @ _one_function(f, "integrate"))


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Running integral g(x_i) = int_{c1}^{x_i} f along the last axis, with g(c1) = 0.

    Even nodes carry exact composite-Simpson partial sums (so the last node
    agrees with :func:`integrate` to round-off); odd nodes add the quadratic
    half-panel (h/12)(5 f_{2j} + 8 f_{2j+1} - f_{2j+2}).  A stack gives the
    running integral of each of its functions.

    The result spans the whole grid: all in-package uses integrate functions
    whose tails outside the support are stored as 0 and genuinely negligible.
    """
    v, h = f.values, f.grid.h
    out = np.zeros_like(v)
    lo, mid, hi = v[..., 0:-2:2], v[..., 1:-1:2], v[..., 2::2]
    out[..., 2::2] = np.cumsum((h / 3.0) * (lo + 4.0 * mid + hi), axis=-1)
    out[..., 1::2] = out[..., 0:-2:2] + (h / 12.0) * (5.0 * lo + 8.0 * mid - hi)
    return GridFunction._adopt(f.grid, out)


# 4th-order one-sided stencils for the two boundary bands (divided by 12h).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])


def derivative(f: GridFunction) -> GridFunction:
    """4th-order first derivative along the last axis: centered 5-point stencil, one-sided at the edges.

    Every row of the stencil, the one-sided edge rows included, reads 5
    nodes, so a grid of fewer raises ValueError.  Each cut side of the
    support moves in by the stencil half-width 2; a side at the wall stays,
    as the one-sided rows read only reliable nodes there.  A stack gives
    each function's derivative, bit for bit except in the two left edge
    rows, whose 5-term sums BLAS orders differently for one row and a stack.
    """
    v, h, n = f.values, f.grid.h, f.grid.n_points
    if n < 5:
        raise ValueError(f"the 4th-order derivative stencil reads 5 nodes; got {n} samples")
    out = np.empty_like(v)
    out[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]) / (12.0 * h)
    out[..., 0] = v[..., :5] @ _EDGE0 / (12.0 * h)
    out[..., 1] = v[..., :5] @ _EDGE1 / (12.0 * h)
    out[..., -2] = -(v[..., :-6:-1] @ _EDGE1) / (12.0 * h)
    out[..., -1] = -(v[..., :-6:-1] @ _EDGE0) / (12.0 * h)
    a, z = f.support
    return GridFunction._adopt(f.grid, out, (a + 2 if a > 0 else 0, z - 2 if z < n else n))


def _peak_run(den: np.ndarray, support: tuple[int, int]) -> tuple[int, int]:
    """The run of nodes in ``support`` around the peak of |den| where den clears the floor.

    The floor is DEFAULT_FLOOR_FRACTION * max|den|, which suits
    denominators that decay from an O(1) peak, such as eigenstates: the
    run ends where den underflows in a decaying tail.  A node of
    ``support`` cut off the run that still holds |den| above
    SIGN_FLOOR_FRACTION * max|den| means that den has a zero inside, and
    raises ValueError, as does a den below the floor on every node of
    ``support``.
    """
    absv = np.abs(den)
    peak = absv.max()
    floor = DEFAULT_FLOOR_FRACTION * peak
    if floor == 0.0:
        raise ValueError("denominator vanishes on every node")
    a, z = support
    inner = absv[a:z]
    if z <= a or inner.max() < floor:
        raise ValueError("denominator below floor on every node")
    low = np.flatnonzero(inner < floor)
    i = low.searchsorted(inner.argmax())
    start, stop = (low[i - 1] + 1 if i > 0 else 0), (low[i] if i < len(low) else len(inner))
    cut = max(inner[:start].max(initial=0.0), inner[stop:].max(initial=0.0))
    if cut > SIGN_FLOOR_FRACTION * peak:
        raise ValueError(
            f"denominator has a zero inside: {cut / peak:.3g} of its peak lies beyond "
            f"the nodes {a + start}..{a + stop - 1} around the peak where it clears the floor"
        )
    return a + int(start), a + int(stop)


def _solve_per_node(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det a and the solution x of a x = b at every node, by one elimination.

    ``a`` is (n, n, N), row and column first and the node last, and ``b`` is
    (n, N).  Gaussian elimination with partial pivoting runs on all N nodes
    at once, looping over the n columns only; the product of the pivots,
    signed by the row swaps, is the det, and back substitution gives x,
    (n, N).  At n = 1, det is a and x is b / a.  A zero pivot heads an
    all-zero column: it divides as 1, so det is 0 there and x finite but
    meaningless, as at any node where det is tiny; callers cut those off.
    """
    a = np.array(a, dtype=float)
    x = np.array(b, dtype=float)
    n = len(x)
    det = np.ones(x.shape[1:])
    for k in range(n):
        offset = np.argmax(np.abs(a[k:, k]), axis=0)
        for r in range(k + 1, n):
            swap = offset == r - k
            if swap.any():
                a[k, k:], a[r, k:] = np.where(swap, a[r, k:], a[k, k:]), np.where(swap, a[k, k:], a[r, k:])
                x[k], x[r] = np.where(swap, x[r], x[k]), np.where(swap, x[k], x[r])
                np.negative(det, out=det, where=swap)
        det *= a[k, k]
        a[k, k, a[k, k] == 0.0] = 1.0
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= factors[:, None] * a[k, k + 1 :]
        x[k + 1 :] -= factors * x[k]
    for k in reversed(range(n)):
        x[k] -= np.einsum("jx,jx->x", a[k, k + 1 :], x[k + 1 :])
        x[k] /= a[k, k]
    return det, x


def divide(num: GridFunction, den: GridFunction) -> GridFunction:
    """Pointwise num/den on one grid, supported on the run of nodes around the peak of |den|.

    ``num`` is one function or a stack, each divided by the one function
    ``den``.  The run lies within both supports and ends where |den| falls
    below the floor (see ``_peak_run``).  Raises if ``den`` is a stack, if
    the operands live on different grids, if the denominator vanishes, if
    it is below the floor on every node of both supports, or if it has a
    zero inside them.
    """
    dv, support = num._other(den)
    if dv.ndim != 1:
        raise ValueError(f"denominator must be one function, got a stack of shape {dv.shape}")
    a, z = _peak_run(dv, support)
    out = np.zeros(num.values.shape)
    out[..., a:z] = num.values[..., a:z] / dv[a:z]
    return GridFunction._adopt(num.grid, out, (a, z))


def log_derivative(f: GridFunction) -> GridFunction:
    """(ln|f|)' = f'/f on the run of nodes around the peak of |f| where |f| clears the floor.

    Raises if |f| sits below that floor everywhere, or if f has a zero inside.
    """
    return divide(derivative(f), f)


def sup_norm(f: GridFunction, window: tuple[float, float] | None = None) -> float:
    """Max |f| over its support, optionally restricted to x in [a, b]; over every function of a stack."""
    a, z = f.support
    vals = f.values[..., a:z]
    if window is not None:
        x = f.grid.x[a:z]
        vals = vals[..., (x >= window[0]) & (x <= window[1])]
    if not vals.size:
        raise ValueError("no reliable nodes in requested window")
    return float(np.max(np.abs(vals)))


def sup_diff(f: GridFunction, g: GridFunction, window: tuple[float, float] | None = None) -> float:
    """Sup-norm distance between two grid functions, over the intersection of their supports."""
    return sup_norm(f - g, window)


def hold_edges(f: GridFunction) -> np.ndarray:
    """Values of f with the value at each end of its support held beyond it, function by function.

    Supports end only in decaying tails here, where the edge value is a
    harmless stand-in (for a confining potential or a drift alike).
    """
    a, z = f.support
    held = f.values.copy()
    held[..., :a], held[..., z:] = held[..., a, None], held[..., z - 1, None]
    return held


def interior_sign_changes(f: GridFunction) -> int:
    """Count sign changes of one function f across nodes with |f| above SIGN_FLOOR_FRACTION * max|f|.

    Tiny-amplitude wiggle (round-off around genuine zeros or in decaying
    tails) does not count as a node, nor does a node outside the support,
    where f is stored as 0.
    """
    v = _one_function(f, "interior_sign_changes")
    keep = np.abs(v) > SIGN_FLOOR_FRACTION * np.max(np.abs(v))
    signs = np.sign(v[keep])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def write_csv(path, columns: dict[str, GridFunction]) -> None:
    """Write named grid functions, one function each, as CSV: header row, x first, 17 significant digits."""
    if not columns:
        raise ValueError("no columns to write")
    first = next(iter(columns.values()))
    values = [_one_function(gf, f"write_csv column {name!r}") for name, gf in columns.items()]
    table = np.column_stack([first.grid.x] + values)
    # the bytes of np.savetxt(fmt="%.17g", delimiter=","), formatted by one % over the whole table
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["x", *columns]) + "\n" + (row * table.shape[0]) % tuple(table.ravel().tolist()))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_csv` (or any numeric CSV) as named columns.

    A first row that is not all numbers is the header; a headerless file's
    columns are named col0, col1, ...  At least one data row must follow,
    every data row must have one entry per name (text after a ``#`` is a
    comment), and every entry must be finite.
    """
    with open(path, encoding="utf-8") as fh:
        names = [n.strip() for n in fh.readline().strip().split(",")]
        try:
            [float(n) for n in names]
        except ValueError:
            pass
        else:
            fh.seek(0)
            names = [f"col{i}" for i in range(len(names))]
        rows = [row for row in (line.split("#", 1)[0] for line in fh) if row.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    for i, row in enumerate(rows, 1):
        width = row.count(",") + 1
        if width != len(names):
            raise ValueError(f"malformed CSV {path}: {width} columns, {len(names)} names in data row {i}")
    data = np.genfromtxt(rows, delimiter=",", ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: non-finite entries")
    return {name: data[:, i] for i, name in enumerate(names)}
