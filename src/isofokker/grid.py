"""Uniform 1-D grids with Simpson quadrature and 4th-order finite differences.

Functions are carried as node samples on a fixed grid.  A boolean
reliability mask travels with every sampled function: nodes where a
division or logarithmic derivative could not be trusted (e.g. near a
zero of the denominator) are flagged and their stored values zeroed,
and downstream sup-norm comparisons skip them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if not self.c1 < self.c2:
            raise ValueError(f"need c1 < c2, got [{self.c1}, {self.c2}]")
        if self.n_points < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n_points}")
        if self.n_points % 2 == 0:
            raise ValueError(
                f"n_points must be odd for composite Simpson quadrature, got {self.n_points}"
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
    """Real-valued samples of a function on a Grid1D.

    ``mask`` marks unreliable nodes (True = unreliable); masked entries of
    ``values`` are always stored as 0 so that quadrature over a masked
    decaying tail stays harmless.
    """

    grid: Grid1D
    values: np.ndarray
    mask: np.ndarray | None = field(default=None)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({self.grid.n_points},)"
            )
        mask = self.mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != values.shape:
                raise ValueError("mask shape does not match values")
            if mask.all():
                raise ValueError("function is unreliable on every node")
            if not mask.any():
                mask = None
            else:
                values = np.where(mask, 0.0, values)
                mask = mask.copy()
                mask.setflags(write=False)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite values in grid function")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    # -- plain pointwise algebra; masks propagate by union ------------------

    def _combined_mask(self, other) -> np.ndarray | None:
        om = other.mask if isinstance(other, GridFunction) else None
        if self.mask is None:
            return None if om is None else om.copy()
        if om is None:
            return self.mask.copy()
        return self.mask | om

    def _other_values(self, other) -> np.ndarray:
        if isinstance(other, GridFunction):
            if other.grid is not self.grid and (
                other.grid.c1 != self.grid.c1
                or other.grid.c2 != self.grid.c2
                or other.grid.n_points != self.grid.n_points
            ):
                raise ValueError("grid functions live on different grids")
            return other.values
        return np.asarray(other, dtype=float)

    def __add__(self, other):
        return GridFunction(self.grid, self.values + self._other_values(other), self._combined_mask(other))

    __radd__ = __add__

    def __sub__(self, other):
        return GridFunction(self.grid, self.values - self._other_values(other), self._combined_mask(other))

    def __rsub__(self, other):
        return GridFunction(self.grid, self._other_values(other) - self.values, self._combined_mask(other))

    def __mul__(self, other):
        return GridFunction(self.grid, self.values * self._other_values(other), self._combined_mask(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GridFunction):
            return divide(self, other)
        return GridFunction(self.grid, self.values / float(other), None if self.mask is None else self.mask.copy())

    def __rtruediv__(self, other):
        num = GridFunction(self.grid, np.full(self.grid.n_points, float(other)))
        return divide(num, self)

    def __neg__(self):
        return GridFunction(self.grid, -self.values, None if self.mask is None else self.mask.copy())

    @property
    def x(self) -> np.ndarray:
        return self.grid.x

    def unmasked(self) -> np.ndarray:
        """Boolean index of reliable nodes."""
        if self.mask is None:
            return np.ones(self.grid.n_points, dtype=bool)
        return ~self.mask


def make_grid(c1: float, c2: float, n_points: int) -> Grid1D:
    """Build a uniform grid; rejects degenerate domains and even node counts."""
    return Grid1D(float(c1), float(c2), int(n_points))


def sample(grid: Grid1D, fn) -> GridFunction:
    """Sample a callable on the grid nodes."""
    return GridFunction(grid, np.asarray(fn(grid.x), dtype=float))


def simpson_weights(grid: Grid1D) -> np.ndarray:
    """Composite Simpson weights (h/3)*[1,4,2,...,2,4,1] of the grid (read-only)."""
    return grid.simpson_weights


def integrate(f: GridFunction) -> float:
    """Composite-Simpson integral over [c1, c2]; O(h^4) for smooth samples."""
    return float(simpson_weights(f.grid) @ f.values)


def cumulative_integral(f: GridFunction) -> GridFunction:
    """Running integral g(x_i) = int_{c1}^{x_i} f, with g(c1) = 0.

    Even nodes carry exact composite-Simpson partial sums (so the last node
    agrees with :func:`integrate` to round-off); odd nodes add the quadratic
    half-panel (h/12)(5 f_{2j} + 8 f_{2j+1} - f_{2j+2}).

    The result carries no mask: all in-package uses integrate functions whose
    masked tails were zeroed and genuinely negligible.
    """
    return GridFunction(f.grid, _cumulative_simpson(f.values, f.grid.h))


def _cumulative_simpson(v: np.ndarray, h: float) -> np.ndarray:
    """The running integral of :func:`cumulative_integral` along the last axis of samples ``v``."""
    out = np.zeros_like(v)
    lo, mid, hi = v[..., 0:-2:2], v[..., 1:-1:2], v[..., 2::2]
    out[..., 2::2] = np.cumsum((h / 3.0) * (lo + 4.0 * mid + hi), axis=-1)
    out[..., 1::2] = out[..., 0:-2:2] + (h / 12.0) * (5.0 * lo + 8.0 * mid - hi)
    return out


# 4th-order one-sided stencils for the two boundary bands (divided by 12h).
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0])
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])


def _dilate_mask(mask: np.ndarray | None, n: int) -> np.ndarray | None:
    """Grow a mask by the differentiation stencil footprint."""
    if mask is None:
        return None
    out = mask.copy()
    for shift in (1, 2):
        out[shift:] |= mask[:-shift]
        out[:-shift] |= mask[shift:]
    # boundary rows consume the five outermost nodes outright
    if mask[:5].any():
        out[:2] = True
    if mask[-5:].any():
        out[-2:] = True
    return out


def _stencil(v: np.ndarray, h: float) -> np.ndarray:
    """The :func:`derivative` stencil along the last axis of samples ``v`` (one row or a stack)."""
    out = np.empty_like(v)
    out[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1] - v[..., 4:]) / (12.0 * h)
    out[..., 0] = v[..., :5] @ _EDGE0 / (12.0 * h)
    out[..., 1] = v[..., :5] @ _EDGE1 / (12.0 * h)
    out[..., -2] = -(v[..., :-6:-1] @ _EDGE1) / (12.0 * h)
    out[..., -1] = -(v[..., :-6:-1] @ _EDGE0) / (12.0 * h)
    return out


def derivative(f: GridFunction) -> GridFunction:
    """4th-order first derivative: centered 5-point stencil inside, one-sided at the edges."""
    return GridFunction(f.grid, _stencil(f.values, f.grid.h), _dilate_mask(f.mask, 2))


def divide(num: GridFunction, den: GridFunction) -> GridFunction:
    """Pointwise num/den, masking nodes where |den| < 1e-12 * max|den|.

    The floor suits denominators that decay from an O(1) peak, such as
    eigenstates.  Raises if the denominator vanishes or if every node is
    below the floor or masked.
    """
    dv = den.values
    floor = DEFAULT_FLOOR_FRACTION * np.max(np.abs(dv))
    if floor == 0.0:
        raise ValueError("denominator vanishes on every node")
    bad = np.abs(dv) < floor
    if num.mask is not None:
        bad = bad | num.mask
    if den.mask is not None:
        bad = bad | den.mask
    if bad.all():
        raise ValueError("denominator below floor on every node")
    out = np.where(bad, 0.0, num.values / np.where(bad, 1.0, dv))
    return GridFunction(num.grid, out, bad)


def log_derivative(f: GridFunction) -> GridFunction:
    """(ln|f|)' = f'/f with nodes where |f| < 1e-12 * max|f| masked out.

    Raises if |f| sits below that floor everywhere.
    """
    return divide(derivative(f), f)


def sup_norm(f: GridFunction, window: tuple[float, float] | None = None) -> float:
    """Max |f| over reliable nodes, optionally restricted to x in [a, b]."""
    keep = f.unmasked()
    if window is not None:
        x = f.grid.x
        keep = keep & (x >= window[0]) & (x <= window[1])
    if not keep.any():
        raise ValueError("no reliable nodes in requested window")
    return float(np.max(np.abs(f.values[keep])))


def sup_diff(f: GridFunction, g: GridFunction, window: tuple[float, float] | None = None) -> float:
    """Sup-norm distance between two grid functions, skipping masked nodes of either."""
    return sup_norm(f - g, window)


def fill_masked(f: GridFunction) -> np.ndarray:
    """Values of f with masked samples replaced by interpolation from reliable neighbors.

    Masked bands only occur in decaying tails here, where the nearest
    reliable value is a harmless stand-in (for a confining potential or a
    drift alike).
    """
    if f.mask is None:
        return f.values
    x = f.grid.x
    ok = ~f.mask
    return np.interp(x, x[ok], f.values[ok])


def interior_hole_fraction(bad: np.ndarray) -> float:
    """Fraction of interior nodes flagged bad, ignoring the wall-attached bands.

    Decaying states legitimately underflow the division floor in contiguous
    bands at the two walls; flagged nodes in the bulk are the actual sign of
    a degenerate construction.
    """
    bad = np.asarray(bad, dtype=bool)
    good = np.flatnonzero(~bad)
    if len(good) == 0:
        return 0.0
    holes = int(np.count_nonzero(bad[good[0] : good[-1] + 1]))
    return holes / max(len(bad) - 2, 1)


def interior_sign_changes(f: GridFunction, rel_floor: float = 1e-6) -> int:
    """Count sign changes of f across reliable nodes with |f| above rel_floor * max|f|.

    Tiny-amplitude wiggle (round-off around genuine zeros or in decaying
    tails) does not count as a node.
    """
    keep = f.unmasked() & (np.abs(f.values) > rel_floor * np.max(np.abs(f.values)))
    signs = np.sign(f.values[keep])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def write_csv(path, columns: dict[str, GridFunction]) -> None:
    """Write named grid functions as CSV: header row, x first, 17 significant digits."""
    if not columns:
        raise ValueError("no columns to write")
    first = next(iter(columns.values()))
    names = ["x"] + list(columns)
    arrays = [first.grid.x] + [gf.values for gf in columns.values()]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a CSV written by :func:`write_csv` (or any headered numeric CSV)."""
    with open(path) as fh:
        header = fh.readline().strip()
        names = [n.strip() for n in header.split(",")]
        try:
            [float(n) for n in names]
        except ValueError:
            data = np.genfromtxt(fh, delimiter=",")
        else:
            # headerless file: first row was data
            fh.seek(0)
            data = np.genfromtxt(fh, delimiter=",")
            names = [f"col{i}" for i in range(data.shape[1] if data.ndim > 1 else 1)]
    if data.ndim == 1:
        data = data.reshape(-1, len(names))
    if data.shape[1] != len(names):
        raise ValueError(f"malformed CSV {path}: {data.shape[1]} columns, {len(names)} names")
    return {name: data[:, i] for i, name in enumerate(names)}
