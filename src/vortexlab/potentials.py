"""Nonlocal operators: scalar potentials p = (-Lap)^{-s} u, their face velocities
and the interaction energy.

All Cartesian convolutions are free-space: fields are compactly supported in
the box (or in the block of it that is passed), the kernel is tabulated on
that block's doubled grid, and the product is taken with zero padding (no
periodic images; Hockney-Eastwood).  One scalar kernel serves every (n, s):

    G(z) = -C (|z|^a - 1) / a,  a = 2s - n,  C(n,s) = 2 Gamma(n/2+1-s) / (4^s pi^{n/2} Gamma(s)),

with its limit -C ln|z| at n = 2s (-ln|z|/(2 pi) at (2, 1)).  It is C |z|^{2s-n}/(n-2s)
(the Riesz kernel for n > 2s, -|z|/2 at (1, 1)) less the constant C/(n-2s), which
would cancel every digit of the potential's differences as s -> n/2; the pairing
`_pairing` adds it back where n > 2s.  The singular cell of G takes the analytic
cell average.  Every velocity is the face gradient xi = -(p[i+1] - p[i]) / h of
p = G_h * u: the field step's and the dissipation record's alike.  No face array is
block-shaped.  This module owns the one strip scheme: every sweep over a block's cells
or faces, the step's transport and CFL bound and the record's dissipation, runs in the
row blocks of `_row_blocks`, consecutive whole rows of about STRIP_CELLS cells, and
takes each row block's faces from the solved potential into strip buffers
(`_face_strips`).

The interaction energy is the pairing P(u) = h^n sum u G_h u, less P(r) for a
reference r of equal mass: for the symmetric G_h of Carrillo, Chertock and Huang
(2015), P(u) - P(r) = h^n sum (u - r) G_h (u + r), and the constant G_h leaves out
cancels.  So one solve of p = G_h u gives both P(u) and the face velocities: a
full-diagnostics record solves its output's potential once, and the next step takes
that potential for its first stage (`diagnostics._output_record`) while it is still
the last solve in its table's buffer (`_is_latest_solve`).

Every convolution takes its spectrum and buffer from `_kernel_table`, one cached
entry keyed by block shape.  G is radial, so on the doubled grid it is even along
every axis and its spectrum is real and even: the table keeps the real half rows
of it, and the irfft writes into the padded buffer's free half.  A table is built
from row blocks of the kernel, with no doubled-grid kernel array, and its singular
cell takes a fixed Gauss-Legendre table, so no run imports numpy.polynomial.  Field
steps and diagnostics records both run on the support window of `_support_window`, so
a compact run never tabulates the whole box.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gamma, pi, prod

import numpy as np

from .grids import CartesianGrid, ConfigError, DensityField

__all__ = [
    "velocity_constant",
    "potential_values",
    "energy",
]

WINDOW_HALO = 4  # cells past supp u reached by one step: a cell per stage, so solver.STAGES
WINDOW_QUANTUM = 16  # support window sides are multiples of this many cells (fewer kernel builds)
STRIP_CELLS = 16384  # `_row_blocks` holds about this many cells: 128 KiB per temporary


def _check_exponent(s: float) -> float:
    s = float(s)
    if not sys.float_info.min <= s <= 1.0:  # gamma(s) overflows for subnormal s
        raise ConfigError(f"exponent s must lie in (0, 1] and not be subnormal, got {s}")
    return s


def velocity_constant(n: int, s: float) -> float:
    """C(n,s) above; equals 1/|S^{n-1}| at s = 1."""
    return 2.0 * gamma(n / 2.0 + 1.0 - s) / (4.0**s * pi ** (n / 2.0) * gamma(s))


# The 64-point Gauss-Legendre rule on [-1, 1], the half at positive nodes, ascending, as
# numpy.polynomial.legendre.leggauss(64) gives it.  leggauss symmetrizes its rule, so the
# other half is these nodes negated and the same weights, bit for bit.  A table and not
# the routine: numpy.polynomial and its eigenvalue solve cost every field run memory.
_GAUSS_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GAUSS_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)


def _gauss_legendre() -> tuple:
    """The 64-point Gauss-Legendre nodes, ascending, and their weights."""
    nodes, weights = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    return np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))


def _angular_integral(f) -> float:
    """Integrate f(theta) over [0, pi/4] with 64-point Gauss-Legendre."""
    nodes, weights = _gauss_legendre()
    theta = 0.125 * pi * (nodes + 1.0)
    return float(0.125 * pi * np.sum(weights * f(theta)))


def _box_cox(x, a: float, out=None):
    """(x^a - 1) / a without cancellation as a -> 0, and its limit ln x at a = 0."""
    y = np.log(x, out=out)
    if a == 0.0:
        return y
    y = np.expm1(np.multiply(a, y, out=out), out=out)
    return np.divide(y, a, out=out)


def _singular_cell(n: int, h: float, s: float) -> float:
    """G averaged over the cell [-h/2, h/2]^n containing the origin: -C(n, s) times the
    average of _box_cox(|z|, a), a = 2s - n.  That average divides by a + n = 2s, taken
    as 2s and not as (2s - n) + n, which rounds to zero for tiny s.  As s -> 0, C(n, s)
    ~ s and the average ~ 1/s leave the float range while G tends to the identity's
    1/h^n, so for 2s < 1 the 1/(2s) goes onto C(n, s) first."""
    a = 2.0 * s - n
    cv = velocity_constant(n, s)
    if n == 1:
        part, cell = _box_cox(h / 2.0, a) - 1.0, 1.0
    else:
        rho = lambda th: (h / 2.0) / np.cos(th)
        # int_0^rho box_cox(r, a) r dr = rho^2 (2 box_cox(rho, a) - 1) / (2 (a + 2))
        part = 8.0 * _angular_integral(lambda th: rho(th) ** 2 * (2.0 * _box_cox(rho(th), a) - 1.0))
        cell = 2.0 * h**2
    if 2.0 * s >= 1.0:
        return -cv * (part / (cell * (2.0 * s)))
    return -(cv / (2.0 * s)) * (part / cell)


def _offsets(cells: int, h: float) -> np.ndarray:
    m = np.arange(2 * cells)
    return np.where(m < cells, m, m - 2 * cells) * h


def _kernel(grid: CartesianGrid, s: float, shape: tuple, rows: slice = slice(None)) -> np.ndarray:
    """G at the cell-center offsets on the doubled grid of a `shape` block, or on its
    rows `rows`, the singular cell averaged.  The offsets m h and (m - 2 cells) h are
    the same length for the indices m and 2 cells - m, so the kernel is even along every
    axis, bit for bit."""
    n, h, a = grid.n, grid.h, 2.0 * s - grid.n
    cv = velocity_constant(n, s)
    z = [_offsets(cells, h) for cells in shape]
    z[0] = z[0][rows]
    kern = np.abs(z[0]) if n == 1 else np.hypot(z[0][:, None], z[1][None, :])
    with np.errstate(divide="ignore"):
        _box_cox(kern, a, out=kern)
    kern *= -cv
    if not rows.start:
        kern[(0,) * n] = _singular_cell(n, h, s)
    return kern


class _KernelTable:
    """The kernel's spectrum on the doubled grid of one block shape, and the padded
    complex buffer every convolution of that shape works in.  The table is cached, so
    the steps of a run reuse its buffer instead of faulting in fresh block-sized
    transform arrays on every call.  `latest` is the potential of the last solve in that
    buffer (`_potential_view`), which the next solve overwrites.

    The kernel is even along every axis (`_kernel`), so its spectrum is real and even.
    `spectrum` keeps rows 0..R of the real part of its rfftn, R the block's leading
    side (the whole rfft for n = 1), as float64: rows R+1..2R-1 are rows R-1..1
    mirrored.  That is a quarter of the complex spectrum's bytes.  The transform is
    taken in the padded buffer, in the order of np.fft.rfftn and so with its bits: the
    kernel is tabulated in row blocks (`_row_blocks`) whose rfft each fills its rows of
    the buffer, then one fft along the leading axis runs in place.  No doubled-grid
    kernel array is built."""

    def __init__(self, grid: CartesianGrid, s: float, shape: tuple):
        self.padded = np.empty((*(2 * cells for cells in shape[:-1]), shape[-1] + 1), dtype=complex)
        if grid.n == 1:
            np.fft.rfft(_kernel(grid, s, shape), out=self.padded)
        else:
            width, ranges = _row_blocks((2 * shape[0], 2 * shape[1]))
            for start, stop in ranges:
                rows = slice(start // width, stop // width)
                np.fft.rfft(_kernel(grid, s, shape, rows), axis=-1, out=self.padded[rows])
            np.fft.fft(self.padded, axis=0, out=self.padded)
        self.spectrum = self.padded[: shape[0] + 1].real.copy()
        self.latest = None

    def release(self) -> None:
        """Drop the arrays, so a table of another shape can be built in their place."""
        del self.padded, self.spectrum, self.latest


_BUILT = []  # the table held by the `_kernel_table` cache


@lru_cache(maxsize=1)
def _kernel_table(grid: CartesianGrid, s: float, shape: tuple) -> _KernelTable:
    # one entry: a run's window only grows and a record's window is mostly the step's.
    # A miss frees the cached table's arrays before it tabulates, so a rebuild for a
    # grown window never holds two tables at once.
    for table in _BUILT:
        table.release()
    try:
        _BUILT[:] = [_KernelTable(grid, s, shape)]
    except BaseException:
        _BUILT.clear()
        _kernel_table.cache_clear()  # the cached entry is released: drop it
        raise
    return _BUILT[0]


def _bounding_box(vals: np.ndarray):
    """Slices of the smallest block holding every cell of `vals` != 0 (a NaN counts);
    None when vals vanish."""
    positive = vals != 0.0
    if not positive.any():
        return None
    box = []
    for axis in range(vals.ndim):
        hit = np.flatnonzero(positive.any(axis=tuple(k for k in range(vals.ndim) if k != axis)))
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def _support_window(vals: np.ndarray, *boxes):
    """Slices of the block holding u != 0 and the cells of every box in `boxes` (slices
    of the same block, such as a reference bump's), plus WINDOW_HALO cells on each
    side, each side rounded up to a multiple of WINDOW_QUANTUM cells and kept inside
    the box; None when there are no such cells.  A NaN counts as support, so a step
    still fails on it."""
    boxes = [box for box in (_bounding_box(vals), *boxes) if box is not None]
    if not boxes:
        return None
    window = []
    for axis, cells in enumerate(vals.shape):
        lo = min(box[axis].start for box in boxes) - WINDOW_HALO
        hi = max(box[axis].stop for box in boxes) + WINDOW_HALO
        size = min(-(-(hi - lo) // WINDOW_QUANTUM) * WINDOW_QUANTUM, cells)
        start = min(max(lo - (size - (hi - lo)) // 2, 0), cells - size)
        window.append(slice(start, start + size))
    return tuple(window)


def _convolve(values: np.ndarray, table: _KernelTable, scale: float) -> np.ndarray:
    """scale * (kernel * values) on the block of `values`, from the free-space product
    on that block's doubled grid, as a view of the table's buffer that the next call of
    this shape overwrites.

    The transforms are rfftn/irfftn of the zero-padded block taken one axis at a time,
    and pruned: the forward rfft zero-pads only the block's own rows, and the inverse
    irfft runs only on the rows that survive the crop.  Each line sees the same
    transform as in the unpruned product, so the bits are the same.

    A call works in the table's padded buffer: the rfft writes the block's rows into
    it, the padding rows are zeroed, and the fft along the leading axis, the product
    with the kernel's real, even spectrum (rows 0..R as stored, rows R+1..2R-1 its
    mirror) and the inverse fft all run in place.  The irfft of rows 0..R-1 writes into
    the buffer's free half, rows R..2R-1, and the crop is scaled in place.  For n = 1
    the block is a single line, and its irfft output is allocated per call.
    """
    rows = values.shape[0]
    cols = 2 * values.shape[-1]
    fval, spectrum = table.padded, table.spectrum
    if values.ndim == 1:
        np.fft.rfft(values, n=cols, out=fval)
        np.multiply(fval, spectrum, out=fval)
        crop = np.fft.irfft(fval, n=cols)[:rows]
        crop *= scale
        return crop
    np.fft.rfft(values, n=cols, axis=-1, out=fval[:rows])
    fval[rows:] = 0.0
    np.fft.fft(fval, axis=0, out=fval)
    np.multiply(fval[: rows + 1], spectrum, out=fval[: rows + 1])
    np.multiply(fval[rows + 1:], spectrum[rows - 1:0:-1], out=fval[rows + 1:])
    np.fft.ifft(fval, axis=0, out=fval)
    real = fval[rows:].view(float).reshape(-1)[: rows * cols].reshape(rows, cols)
    np.fft.irfft(fval[:rows], n=cols, axis=-1, out=real)
    crop = real[:, : values.shape[1]]
    crop *= scale
    return crop


def potential_values(grid: CartesianGrid, values: np.ndarray, s: float) -> np.ndarray:
    """Scalar potential p = G_h * u of cell values on `grid` or on a block W of its
    cells, for every (n, s): h^n times the sum of G (module docstring) over cell-center
    offsets, with the singular cell averaged.  G is the kernel of (-Lap)^{-s} up to
    a constant, so only differences of p, such as the face velocities, and pairings
    with zero-mass data carry meaning on their own; for n > 2s, p plus C/(n-2s) times
    the mass is the Riesz potential.

    W is convolved with zero padding on its own doubled grid 2W, with the kernel at
    the same offsets as the whole-box solve: every offset between two cells of W is
    below W's side, so no periodic image enters.  When the values vanish outside W
    the result is the whole-box potential restricted to W; only the FFT size differs,
    so only rounding differs.  The kernel's real, even spectrum comes from the
    one-entry `_kernel_table` of W's shape, and the convolution runs in that table's
    padded buffer (`_convolve`); the result is a fresh C-contiguous copy that no later
    call touches.
    """
    return _potential_view(grid, values, s).copy()


def _potential_view(grid: CartesianGrid, values: np.ndarray, s: float) -> np.ndarray:
    """`potential_values` as a view of its table's buffer, valid until the next solve of
    the block's shape (`_is_latest_solve`)."""
    s = _check_exponent(s)
    table = _kernel_table(grid, s, values.shape)
    table.latest = _convolve(values, table, grid.cell_volume)
    return table.latest


def _is_latest_solve(p) -> bool:
    """Whether the potential view p of `_potential_view` still holds its solve: no later
    solve has written into its table's buffer, and no other table has replaced it."""
    return p is not None and bool(_BUILT) and _BUILT[0].latest is p


def _row_blocks(shape: tuple) -> tuple:
    """(width, ranges) of a block of `shape`: the cells of one row, which is the leading
    axis's stride in cells of its C-contiguous layout (1 for n = 1), and the flat (start,
    stop) cell ranges of consecutive whole rows, each about STRIP_CELLS cells (at least
    one row).  Every sweep over a block's cells or faces runs one range at a time: the
    transport and the CFL bound (`solver._advance`, `solver._stable_dt`), the
    dissipation (`diagnostics._entropy_terms`) and the kernel's tabulation
    (`_KernelTable`), so no temporary is block-sized."""
    rows = shape[0]
    width = prod(shape[1:])
    step = max(1, STRIP_CELLS // width)
    return width, [(a * width, min(a + step, rows) * width) for a in range(0, rows, step)]


def _face_strips(grid: CartesianGrid, p: np.ndarray):
    """The face velocities xi = -(p[i+1] - p[i]) / h of a solved potential p, the
    transport velocity v = -grad p at the faces between neighbouring cells, row block by
    row block (`_row_blocks`).  p is read where it is, in its table's buffer, and the
    faces go into one strip buffer per sweep, which the next row block overwrites, so no
    face array is block-sized.

    Yields, for each row block, its flat cell range (start, stop) and one flat array per
    axis, cell-shaped: entry c is the face after cell c along the axis, and the entry
    past each line's end is zero (-0.0).  The array of the axis of stride d cells (d is
    the row's width along axis 0 and 1 along axis 1) starts d cells before the block, so
    its d + stop - start entries hold the two faces of each of the block's cells along
    that axis, entries c - d and c; the d entries before the block's first row hold its
    line ends (along axis 1) or are zero (along axis 0, before the first row)."""
    width, ranges = _row_blocks(p.shape)
    last = p.shape[0] - 1
    strips = np.empty(grid.n * (ranges[0][1] + width))  # each block's strips, end to end
    for start, stop in ranges:
        r0, r1 = start // width, stop // width
        size = stop - start + width
        xi = strips[:size]
        face = xi.reshape(r1 - r0 + 1, *p.shape[1:])  # the faces after rows r0 - 1 .. r1 - 1
        lo, hi = max(r0 - 1, 0), min(r1, last)
        if r0 == 0:
            face[0] = 0.0
        np.subtract(p[lo + 1 : hi + 1], p[lo:hi], out=face[lo - r0 + 1 : hi - r0 + 1])
        if r1 > last:
            face[-1] = 0.0
        faces = [xi]
        if grid.n == 2:
            xi = strips[size : size + stop - start + 1]
            face = xi[1:].reshape(r1 - r0, width)
            xi[0] = 0.0
            np.subtract(p[r0:r1, 1:], p[r0:r1, :-1], out=face[:, :-1])
            face[:, -1] = 0.0
            faces.append(xi)
            size += xi.size
        strips[:size] /= -grid.h
        yield start, stop, faces


# ---------------------------------------------------------------------------
# interaction energy


def _check_equal_mass(mass_u: float, mass_ref: float) -> None:
    """A reference must carry the field's mass to 1e-8 relative."""
    if abs(mass_u - mass_ref) > 1e-8 * max(abs(mass_u), 1e-300):
        raise ValueError(f"reference mass {mass_ref:.12g} does not match field mass {mass_u:.12g}")


def _pairing(grid: CartesianGrid, vals: np.ndarray, p: np.ndarray) -> float:
    """P(u) = h^n sum u p of the cell values `vals` of u and their potential p = G_h u,
    both on a block holding every cell of u."""
    return grid.cell_volume * float((vals * p).sum())


def energy(u: DensityField, s: float = 1.0, reference: DensityField | None = None) -> float:
    """Interaction energy P(u) = h^n sum u G_h u of the discrete G_h = (-Lap)^{-s} (the
    Riesz kernel where n > 2s), minus P(r) for a reference r, which must have equal
    mass and is required where the kernel does not decay (n <= 2s); the difference is
    then the renormalized int |grad G(u - r)|^2 + 2 int r G(u - r).  For the symmetric
    G_h, P(u) - P(r) = h^n sum (u - r) G_h (u + r).  Each pairing (`_pairing`) is solved
    on the support window of u and r together, which holds every cell of either: no
    other cell enters, so the window changes only rounding, and the two solves share
    one kernel table.  Where n > 2s the Riesz kernel's constant C/(n-2s), left out of
    G_h, adds C/(n-2s) (m_u - m_r)(m_u + m_r): added once to the difference, not to
    each pairing, it cancels no digits as s -> n/2.
    """
    s = _check_exponent(s)
    grid = u.grid
    cv = grid.cell_volume
    sum_u = float(u.values.sum())
    if reference is None:
        if grid.n <= 2.0 * s:
            raise ValueError(f"energy for n={grid.n}, s={s} needs an equal-mass reference density")
        sum_ref, window = 0.0, _support_window(u.values)
    else:
        sum_ref = float(reference.values.sum())
        _check_equal_mass(cv * sum_u, cv * sum_ref)
        window = _support_window(u.values, _bounding_box(reference.values))
    if window is None:
        return 0.0

    def pair(field: DensityField) -> float:
        block = field.values[window]
        return _pairing(grid, block, _potential_view(grid, block, s))

    pairing = pair(u) if reference is None else pair(u) - pair(reference)
    if grid.n > 2.0 * s:
        masses = (sum_u - sum_ref) * (sum_u + sum_ref)
        pairing += velocity_constant(grid.n, s) / (grid.n - 2.0 * s) * cv**2 * masses
    return pairing
