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
p = G_h * u (`_face_velocities`): the field step's and the dissipation record's alike.
Each axis's faces are stored in an array of the block's shape, entry c the face after
cell c and the entry past each line's end zero.  This module also owns the one strip
scheme: every sweep over a block's cells or faces, the step's transport and CFL bound
and the record's dissipation, runs in the row blocks of `_row_blocks`, consecutive
whole rows of about STRIP_CELLS cells.

The interaction energy is the pairing P(u) = h^n sum u G_h u, less P(r) for a
reference r of equal mass: for the symmetric G_h of Carrillo, Chertock and Huang
(2015), P(u) - P(r) = h^n sum (u - r) G_h (u + r), and the constant G_h leaves out
cancels.  So one solve of
p = G_h u gives both P(u) and the face velocities: a full-diagnostics record solves
its output's potential once, and the next step takes that solve's faces for its
first stage (`diagnostics._output_record`).

Every convolution takes its spectrum and buffer from `_kernel_table`, one cached
entry keyed by block shape.  G is radial, so on the doubled grid it is even along
every axis and its spectrum is real and even: the table keeps the real half rows
of it, and the irfft writes into the padded buffer's free half.  Field steps and
diagnostics records both run on the support window of `_support_window`, so a
compact run never tabulates the whole box.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gamma, pi

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


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple:
    """The 64-point Gauss-Legendre nodes and weights, tabulated on first use: importing
    numpy.polynomial costs every process that never tabulates a kernel."""
    return np.polynomial.legendre.leggauss(64)


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


def _kernel(grid: CartesianGrid, s: float, shape: tuple) -> np.ndarray:
    """G at the cell-center offsets on the doubled grid of a `shape` block, the singular
    cell averaged.  The offsets m h and (m - 2 cells) h are the same length for the
    indices m and 2 cells - m, so the kernel is even along every axis, bit for bit."""
    n, h, a = grid.n, grid.h, 2.0 * s - grid.n
    cv = velocity_constant(n, s)
    z = [_offsets(cells, h) for cells in shape]
    kern = np.abs(z[0]) if n == 1 else np.hypot(z[0][:, None], z[1][None, :])
    with np.errstate(divide="ignore"):
        _box_cox(kern, a, out=kern)
    kern *= -cv
    kern[(0,) * n] = _singular_cell(n, h, s)
    return kern


class _KernelTable:
    """The kernel's spectrum on the doubled grid of one block shape, and the padded
    complex buffer every convolution of that shape works in.  The table is cached, so
    the steps of a run reuse its buffer instead of faulting in fresh block-sized
    transform arrays on every call.

    The kernel is even along every axis (`_kernel`), so its spectrum is real and even.
    `spectrum` keeps rows 0..R of the real part of its rfftn, R the block's leading
    side (the whole rfft for n = 1), as float64: rows R+1..2R-1 are rows R-1..1
    mirrored.  That is a quarter of the complex spectrum's bytes.  The transform is
    taken in the padded buffer."""

    def __init__(self, grid: CartesianGrid, s: float, shape: tuple):
        self.padded = np.empty((*(2 * cells for cells in shape[:-1]), shape[-1] + 1), dtype=complex)
        np.fft.rfftn(_kernel(grid, s, shape), axes=range(grid.n), out=self.padded)
        self.spectrum = self.padded[: shape[0] + 1].real.copy()

    def release(self) -> None:
        """Drop the arrays, so a table of another shape can be built in their place."""
        del self.padded, self.spectrum


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
    the block's shape."""
    s = _check_exponent(s)
    return _convolve(values, _kernel_table(grid, s, values.shape), grid.cell_volume)


def _row_blocks(block: np.ndarray) -> tuple:
    """(width, ranges) of a block: the cells of one row, which is the leading axis's
    stride in cells of its C-contiguous layout (1 for n = 1), and the flat (start,
    stop) cell ranges of consecutive whole rows, each about STRIP_CELLS cells (at least
    one row).  Every sweep over a block's cells or faces runs one range at a time: the
    transport and the CFL bound (`solver._advance`, `solver._stable_dt`) and the
    dissipation (`diagnostics._entropy_terms`), so no temporary is block-sized."""
    rows = block.shape[0]
    width = block.size // rows
    step = max(1, STRIP_CELLS // width)
    return width, [(a * width, min(a + step, rows) * width) for a in range(0, rows, step)]


def _face_velocities(grid: CartesianGrid, vals: np.ndarray, s: float, out=None) -> list:
    """Face velocities xi = -(p[i+1] - p[i]) / h of p = G_h * vals: the transport
    velocity v = -grad p at the faces between neighbouring cells, stored cell-shaped
    (`_potential_faces`).  They are written into the arrays of `out` when it is given."""
    return _potential_faces(grid, _potential_view(grid, vals, s), out)


def _potential_faces(grid: CartesianGrid, p: np.ndarray, out=None) -> list:
    """`_face_velocities` of a solved potential p, which is read and not copied out of
    its table's buffer.  One C-contiguous array of the block's shape per axis: entry c
    is the face after cell c along that axis, and the entry past each line's end is
    zero (-0.0), so a sweep over the faces runs on flat row blocks (`_row_blocks`).
    Each axis's differences are taken on views with that axis first (`swapaxes`, the
    `np.moveaxis` view for n <= 2 without its argument checks)."""
    faces = []
    for axis in range(grid.n):
        xi = np.empty(p.shape) if out is None else out[axis]
        lines, face = p.swapaxes(axis, 0), xi.swapaxes(axis, 0)
        np.subtract(lines[1:], lines[:-1], out=face[:-1])
        face[-1] = 0.0
        xi /= -grid.h
        faces.append(xi)
    return faces


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
