"""Grid and field value types plus the discrete calculus shared by every solver.

Cartesian fields live on uniform cell-centered grids over the box [-L, L]^n
(n = 1 or 2) and are treated as identically zero outside it.  Radial data live
on grids that are uniform in the transformed variable sigma = r^n / n, which is
the variable in which the radial mass function obeys a standard conservation
law.  All value types are immutable after construction; the operations here are
pure functions.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import gamma, inf, pi

import numpy as np

__all__ = [
    "ConfigError",
    "CartesianGrid",
    "DensityField",
    "RadialGrid",
    "RadialProfile",
    "MassFunction",
    "unit_ball_volume",
    "sphere_area",
    "total_mass",
    "lp_norm",
    "second_moment",
    "support_radius",
    "radial_average",
    "field_from_function",
    "write_grid_array",
    "read_grid_array",
    "write_grid_csv",
    "write_csv",
]


class ConfigError(ValueError):
    """Invalid solver or scenario configuration."""


def unit_ball_volume(n: int) -> float:
    """Volume omega_n of the unit ball in R^n."""
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def sphere_area(n: int) -> float:
    """Surface measure |S^{n-1}| of the unit sphere in R^n (2 for n=1)."""
    return n * unit_ball_volume(n)


def _normal(x: float) -> bool:
    """x is a positive, finite float of full precision (not subnormal)."""
    return sys.float_info.min <= x <= sys.float_info.max


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform cell-centered grid on the box [-half_width, half_width]^n.

    Cells per axis must be even and at least 8 so the box center sits on a
    cell face and coarse quadrature stays meaningful.  The cell side h and the cell
    volume h^n must be normal floats: a subnormal or zero volume turns every
    density-from-mass division into an overflow or a division by zero.
    """

    n: int
    half_width: float
    cells: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"Cartesian fields support n in {{1, 2}}, got n={self.n}")
        if self.cells < 8 or self.cells % 2 != 0:
            raise ValueError(f"cells must be even and >= 8, got {self.cells}")
        if not 0 < self.half_width < inf:
            raise ValueError("half_width must be positive and finite")
        try:
            normal = _normal(self.h) and _normal(self.cell_volume)
        except OverflowError:  # h**n beyond the float range
            normal = False
        if not normal:
            raise ConfigError(
                f"half_width {self.half_width} over {self.cells} cells: the cell side and the cell "
                "volume must be positive normal floats"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.cells

    @property
    def shape(self) -> tuple:
        return (self.cells,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.h**self.n

    def axis_centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return -self.half_width + (np.arange(self.cells) + 0.5) * self.h

    def centers(self) -> tuple:
        """Tuple of cell-center coordinate arrays, one per axis, "ij" indexed."""
        x = self.axis_centers()
        if self.n == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def radius(self) -> np.ndarray:
        """Distance of each cell center from the origin."""
        r2 = _squared_radius(self, (0.0,) * self.n)
        return np.sqrt(r2, out=r2)


def _squared_radius(grid: CartesianGrid, center) -> np.ndarray:
    """|x - center|^2 at each cell center, the outer sum of the axes' squared offsets:
    one grid-sized array, where a point array of the cell centers takes n of them
    before any arithmetic.  Its entries are the bits of the squared norm of each
    point's offset, so a radial closed form evaluated on it (or on its square root)
    matches the same form evaluated on the points."""
    x = grid.axis_centers()
    sq = [(x - c) ** 2 for c in center]
    return sq[0] if grid.n == 1 else np.add.outer(*sq)


def _frozen_array(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != tuple(shape):
        raise ValueError(f"values have shape {arr.shape}, expected {tuple(shape)}")
    if not np.isfinite(arr).all():
        raise ValueError("values contain non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DensityField:
    """Nonnegative cell-averaged density on a Cartesian grid (mass/volume)."""

    grid: CartesianGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, self.grid.shape)
        if arr.min() < 0.0:
            raise ValueError(f"density values must be nonnegative (min {arr.min():.3e})")
        object.__setattr__(self, "values", arr)


def _field_view(grid: CartesianGrid, values: np.ndarray) -> DensityField:
    """A DensityField on a read-only view of `values`, without the copy and the scans of
    the constructor: for a float array of the grid's shape that is finite and
    nonnegative by construction and that nothing writes into again, such as a
    solver step's result."""
    view = values.view()
    view.flags.writeable = False
    field = object.__new__(DensityField)
    object.__setattr__(field, "grid", grid)
    object.__setattr__(field, "values", view)
    return field


@dataclass(frozen=True)
class RadialGrid:
    """Radial grid with nodes uniform in sigma = r^n / n, starting at sigma = 0."""

    n: int
    r_max: float
    nodes: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.nodes < 16:
            raise ValueError(f"need at least 16 nodes, got {self.nodes}")
        if not 0 < self.r_max < inf:
            raise ValueError("r_max must be positive and finite")
        try:
            d_sigma = self.r_max**self.n / self.n / (self.nodes - 1)
        except OverflowError:  # r_max**n beyond the float range
            d_sigma = inf
        # a derivative in sigma (np.gradient) divides by a spacing times the sum of two, about
        # 2 d_sigma^2: a normal 4 d_sigma^2 keeps it a normal float with room for rounding
        if not _normal(4.0 * d_sigma * d_sigma):
            raise ValueError(
                f"r_max {self.r_max} over {self.nodes} nodes: the node spacing d_sigma in sigma = r^n / n "
                "must make 4 d_sigma^2 a positive normal float"
            )

    @cached_property
    def sigma(self) -> np.ndarray:
        s = np.linspace(0.0, self.r_max**self.n / self.n, self.nodes)
        s.flags.writeable = False
        return s

    @cached_property
    def r(self) -> np.ndarray:
        r = (self.n * self.sigma) ** (1.0 / self.n)
        r.flags.writeable = False
        return r

    @property
    def d_sigma(self) -> float:
        return float(self.sigma[1] - self.sigma[0])


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Nonnegative radial density u(r_j) on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, (self.grid.nodes,))
        if arr.min() < 0.0:
            raise ValueError(f"radial density must be nonnegative (min {arr.min():.3e})")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class MassFunction:
    """Cumulative radial mass M(sigma_j) = int_0^r s^{n-1} u ds, per unit sphere measure.

    Multiply by sphere_area(n) to convert to full mass.  Must start at 0 and be
    nondecreasing; the final node value is the total (it is also the supremum).
    """

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, (self.grid.nodes,))
        scale = 1.0 + abs(float(arr[-1]))
        if abs(arr[0]) > 1e-12 * scale:
            raise ValueError(f"M(0) must vanish, got {arr[0]:.3e}")
        if np.min(np.diff(arr)) < -1e-12 * scale:
            raise ValueError("mass function must be nondecreasing")
        object.__setattr__(self, "values", arr)

    @property
    def total(self) -> float:
        """Total mass per unit sphere measure."""
        return float(self.values[-1])

    def full_mass(self) -> float:
        return sphere_area(self.grid.n) * self.total


# ---------------------------------------------------------------------------
# quadrature-style reductions


def total_mass(field: DensityField) -> float:
    """h^n * sum of cell values."""
    return field.grid.cell_volume * float(field.values.sum())


def lp_norm(field: DensityField, p) -> float:
    """Discrete L^p norm with cell-volume weights; p = inf gives the max cell value."""
    if p == np.inf:
        return float(field.values.max()) if field.values.size else 0.0
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((field.grid.cell_volume * (field.values**p).sum()) ** (1.0 / p))


def second_moment(field: DensityField) -> float:
    """h^n * sum of u_i |x_i|^2."""
    r = field.grid.radius()
    return field.grid.cell_volume * float((field.values * r * r).sum())


SUPPORT_FLOOR = 0.01  # support_radius counts cells above this fraction of the peak


def support_radius(field: DensityField) -> float:
    """Largest distance from the origin to a cell holding more than
    SUPPORT_FLOOR * max(u); 0 for an identically zero field."""
    peak = float(field.values.max())
    if peak == 0.0:
        return 0.0
    mask = field.values > SUPPORT_FLOOR * peak
    return float(field.grid.radius()[mask].max())


def field_from_function(grid: CartesianGrid, fn) -> DensityField:
    """Sample fn(points) at cell centers; points arrive with shape (..., n).

    The point array alone is n grid-sized arrays.  A field that depends only on the
    distance from one point is cheaper, with the same bits, as its radial form on the
    squared radii of `_squared_radius` (as the scenarios build their closed forms).
    """
    pts = np.stack(grid.centers(), axis=-1)
    return DensityField(grid, np.asarray(fn(pts), dtype=float))


def radial_average(field: DensityField, rgrid: RadialGrid) -> RadialProfile:
    """Bin-average a (approximately radial) field onto a radial grid.

    Cells are assigned to the radial node whose half-open annulus [midpoint to
    previous node, midpoint to next node) contains their center radius; each
    node value is the plain average of its cells (cells have equal volume, so
    this is the volume-weighted mean and preserves mass to O(h)).  Empty bins
    are filled by linear interpolation from their populated neighbors.
    """
    if rgrid.r_max > field.grid.half_width:
        raise ValueError(
            f"radial grid reaches r={rgrid.r_max} beyond the box half-width {field.grid.half_width:.6g}"
        )
    nodes_r = rgrid.r
    # the last bin closes at r_max itself; the cells past it fall in one more bin, which
    # is dropped, so no masked copy of the cells is taken and each bin sums its cells
    # in the same order
    edges = np.concatenate([[0.0], 0.5 * (nodes_r[1:] + nodes_r[:-1]), [np.nextafter(nodes_r[-1], inf)]])
    idx = np.searchsorted(edges, field.grid.radius().reshape(-1), side="right")
    idx -= 1
    sums = np.bincount(idx, weights=field.values.reshape(-1), minlength=rgrid.nodes + 1)[: rgrid.nodes]
    counts = np.bincount(idx, minlength=rgrid.nodes + 1)[: rgrid.nodes]
    out = np.zeros(rgrid.nodes)
    filled = counts > 0
    out[filled] = sums[filled] / counts[filled]
    if not filled.all():
        if not filled.any():
            raise ValueError("no grid cells fall inside the radial grid")
        out[~filled] = np.interp(nodes_r[~filled], nodes_r[filled], out[filled])
    return RadialProfile(rgrid, np.maximum(out, 0.0))


# ---------------------------------------------------------------------------
# serialization

_HEADER = struct.Struct("<qqd")  # n, cells, half_width


def write_grid_array(grid: CartesianGrid, values: np.ndarray, path) -> None:
    """Flat binary layout: int64 n, int64 cells, float64 half_width, then row-major float64 values."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    if arr.shape != grid.shape:
        raise ValueError("array shape does not match grid")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(grid.n, grid.cells, grid.half_width))
        f.write(arr.tobytes())


def read_grid_array(path):
    """Inverse of write_grid_array; returns (grid, values)."""
    with open(path, "rb") as f:
        n, cells, half_width = _HEADER.unpack(f.read(_HEADER.size))
        grid = CartesianGrid(int(n), float(half_width), int(cells))
        data = np.frombuffer(f.read(), dtype="<f8").reshape(grid.shape)
    return grid, data.copy()


def write_grid_csv(grid: CartesianGrid, columns: dict, path) -> None:
    """CSV with cell-center coordinate columns followed by one column per named array.

    Row order is row-major over the grid.  Floats are written with round-trip
    precision (see write_csv) so identical data produces byte-identical files.
    Each axis coordinate is formatted once, and a grid line (fixed x in 2-d,
    the whole axis in 1-d) is one line of _write_csv_lines.
    """
    x = grid.axis_centers()
    header = (["x"] if grid.n == 1 else ["x", "y"]) + list(columns.keys())
    arrays = [np.asarray(v).reshape(-1, grid.cells) for v in columns.values()]
    tails = _row_tails([x], len(arrays))
    leads = [""] if grid.n == 1 else [text + "," for text in _g17_texts(x)]
    _write_csv_lines(path, header, ((lead, tails, [a[i] for a in arrays]) for i, lead in enumerate(leads)))


def _g17_texts(values) -> list:
    """The %.17g text of each value."""
    return list(map("%.17g".__mod__, np.asarray(values, dtype=float).tolist()))


def _row_tails(coords, n_values: int) -> list:
    """One row end per node: the node's coordinate texts, each formatted once,
    then a %.17g slot per value and the newline."""
    slots = ",%.17g" * n_values + "\n"
    return [",".join(texts) + slots for texts in zip(*map(_g17_texts, coords))]


def _write_csv_lines(path, header, lines) -> None:
    """CSV from lines of rows that share text: each line is (lead, tails, columns),
    its rows lead + tail for each of the tails (see _row_tails), whose %.17g slots
    take the columns' values in row order.  One %-format per line formats only
    the values; the fixed text is %.17g text too, so the bytes are write_csv's.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for lead, tails, columns in lines:
            values = tuple(chain.from_iterable(zip(*(c.tolist() for c in columns))))
            f.write((lead + lead.join(tails)) % values)


def write_csv(path, header, rows) -> None:
    """CSV with a header line; numbers are written as .17g and None as an empty cell."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join("" if v is None else format(v, ".17g") for v in row) + "\n")
