import tracemalloc
from unittest import mock

import numpy as np
import pytest
from math import pi

from scipy.integrate import dblquad, quad
from hypothesis import given, settings, strategies as st
from vortexlab.burgers import mass_transform, radial_speed_values
from vortexlab.diagnostics import mollified_reference
from vortexlab import potentials
from vortexlab.grids import (
    CartesianGrid,
    DensityField,
    RadialGrid,
    radial_average,
    total_mass,
)
from vortexlab.potentials import (
    _angular_integral,
    _box_cox,
    _convolve,
    _face_strips,
    _gauss_legendre,
    _kernel,
    _kernel_table,
    _potential_view,
    _row_blocks,
    _singular_cell,
    energy,
    potential_values,
    velocity_constant,
)
from test_solver import interior_faces, potential_faces, strip_faces


def face_velocities(grid, vals, s):
    """The face velocities between neighbouring cells, one compact array per axis."""
    return interior_faces(potential_faces(grid, vals, s))


def disk_field(N=128, L=2.0, R=1.0, height=1.0):
    g = CartesianGrid(2, L, N)
    return DensityField(g, height * (g.radius() <= R).astype(float))


def gradient_form_energy(u, ref):
    """Renormalized planar energy int |grad w|^2 + 2 int r w with w = G(u - r), from
    whole-box convolutions, |grad w|^2 summed over the faces: an independent evaluation
    of what `energy` computes as the difference <u,Gu> - <r,Gr> on the support window."""
    g = u.grid
    diff = u.values - ref.values
    grad_sq = sum(float((xi * xi).sum()) for xi in face_velocities(g, diff, 1.0))
    w = potential_values(g, diff, 1.0)
    return g.cell_volume * grad_sq + 2.0 * g.cell_volume * float((ref.values * w).sum())


def brute_force_faces(u, s=1.0):
    """Face velocities of the direct O(cells^2) sum p = h^n sum_j G(x_i - x_j) u_j, the
    singular cell averaged: the oracle for the FFT convolution."""
    g = u.grid
    pts = np.stack([c.ravel() for c in g.centers()], axis=1)
    a, c = 2.0 * s - g.n, velocity_constant(g.n, s)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    np.fill_diagonal(d, 1.0)
    kern = -c * np.log(d) if a == 0 else -c * (d**a - 1.0) / a
    np.fill_diagonal(kern, _singular_cell(g.n, g.h, s))
    p = g.cell_volume * (kern @ u.values.ravel()).reshape(g.shape)
    return [np.diff(p, axis=axis) / -g.h for axis in range(g.n)]


def face_centers(grid, axis):
    """Coordinate along `axis` of the faces between neighbouring cells."""
    x = grid.axis_centers()
    return 0.5 * (x[:-1] + x[1:])


def cell_speed(grid, vals, s=1.0):
    """|v| at the cell centers, each component the mean of the cell's two faces along
    its axis (the one face in an end cell)."""
    sq = 0.0
    for axis, xi in enumerate(face_velocities(grid, vals, s)):
        lines = np.moveaxis(xi, axis, 0)
        ends = np.concatenate([lines[:1], lines, lines[-1:]])
        sq = sq + np.moveaxis(0.5 * (ends[:-1] + ends[1:]), 0, axis) ** 2
    return np.sqrt(sq)


class TestVelocity:
    # the velocity every step and record uses: the face gradient of p = G_h * u
    def test_zero_field(self):
        g = CartesianGrid(2, 1.0, 16)
        for xi in face_velocities(g, np.zeros(g.shape), 1.0):
            np.testing.assert_array_equal(xi, 0.0)

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (5, 7)])
    def test_cell_shaped_storage(self, shape):
        # entry c of an axis's array is the face after cell c along that axis, and the
        # entry past each line's end is zero; each row block's strip of an axis starts
        # one stride d before the block, with the faces of the d cells before it (zero
        # before the first row), in row blocks of one row, of a few rows and of all rows
        g = CartesianGrid(2, 1.0, 16)
        vals = np.random.default_rng(3).random(shape)
        p = potential_values(g, vals, 1.0)
        for strip in (1, 9, 10**6):
            with mock.patch.object(potentials, "STRIP_CELLS", strip):
                faces = strip_faces(g, p)
                for start, stop, strips in _face_strips(g, p):
                    for xi, cells, d in zip(strips, faces, (shape[1], 1)):
                        assert xi.size == d + stop - start and xi.flags.c_contiguous
                        assert np.array_equal(xi[:d], cells.reshape(-1)[start - d : start] if start else np.zeros(d))
            for axis, (xi, inner) in enumerate(zip(faces, interior_faces(faces))):
                assert xi.shape == shape
                assert inner.tobytes() == (np.diff(p, axis=axis) / -g.h).tobytes()
                assert not np.take(xi, -1, axis=axis).any()

    def test_matches_brute_force_s1(self):
        u = disk_field(N=32)
        fast = face_velocities(u.grid, u.values, 1.0)
        slow = brute_force_faces(u, 1.0)
        for a, b in zip(fast, slow):
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("s", [0.4, 0.7])
    def test_matches_brute_force_fractional(self, s):
        g = CartesianGrid(2, 1.0, 32)
        u = DensityField(g, np.exp(-g.radius() ** 2 * 6))
        fast = face_velocities(g, u.values, s)
        slow = brute_force_faces(u, s)
        for a, b in zip(fast, slow):
            assert np.abs(a - b).max() < 1e-12

    def test_disk_interior_speed(self):
        # uniform unit disk in the plane: outward speed r/n inside
        u = disk_field(N=256)
        speed = cell_speed(u.grid, u.values)
        rr = u.grid.radius()
        mask = np.abs(rr - 0.5) < 0.02
        assert speed[mask].mean() == pytest.approx(0.25, abs=3 * u.grid.h)

    def test_disk_exterior_speed(self):
        # outside: R^n/(n r^{n-1}) times the height
        u = disk_field(N=256)
        speed = cell_speed(u.grid, u.values)
        rr = u.grid.radius()
        mask = np.abs(rr - 1.5) < 0.02
        assert speed[mask].mean() == pytest.approx(0.5 / 1.5, abs=3 * u.grid.h)

    def test_velocity_points_outward(self):
        # every face velocity points away from the disk's center along its axis
        u = disk_field(N=64)
        for axis, xi in enumerate(face_velocities(u.grid, u.values, 1.0)):
            shape = [1, 1]
            shape[axis] = -1
            assert (face_centers(u.grid, axis).reshape(shape) * xi).min() >= -1e-12

    def test_linearity(self):
        rng = np.random.default_rng(8)
        g = CartesianGrid(2, 1.0, 32)
        u1, u2 = rng.random(g.shape), rng.random(g.shape)
        a, b = 1.7, 0.3
        vab = face_velocities(g, a * u1 + b * u2, 1.0)
        v1 = face_velocities(g, u1, 1.0)
        v2 = face_velocities(g, u2, 1.0)
        for k in range(2):
            np.testing.assert_allclose(vab[k], a * v1[k] + b * v2[k], atol=1e-12)

    def test_one_dimensional_interval(self):
        # even interval [-R, R] of height 1: v(x) = x inside, R sign(x) outside
        g = CartesianGrid(1, 3.0, 512)
        x = g.axis_centers()
        (v,) = face_velocities(g, (np.abs(x) <= 1.0).astype(float), 1.0)
        xf = face_centers(g, 0)
        inside = np.abs(xf) < 0.9
        outside = np.abs(xf) > 1.1
        assert np.abs(v[inside] - xf[inside]).max() < 2 * g.h
        assert np.abs(v[outside] - np.sign(xf[outside])).max() < 2 * g.h

    def test_radial_consistency_with_mass_function(self):
        # Cartesian radial speed equals M(r)/r^{n-1} from the binned mass
        u = disk_field(N=256, R=1.0)
        rg = RadialGrid(2, 1.8, 48)
        speed_prof = radial_average(DensityField(u.grid, cell_speed(u.grid, u.values)), rg)
        m = mass_transform(radial_average(u, rg))
        expected = radial_speed_values(m)
        keep = rg.r > 0.2  # binned speeds near the origin average over few cells
        assert np.abs(speed_prof.values[keep] - expected[keep]).max() < 4 * u.grid.h

    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.sampled_from([32, 40, 48, 56, 64]),
        rings=st.lists(
            st.tuples(st.floats(0.2, 1.0), st.floats(0.1, 0.4), st.floats(0.2, 2.0)),
            min_size=1, max_size=3,
        ),
    )
    def test_radial_consistency_property(self, cells, rings):
        # |v|(r) = M(r)/r^{n-1} for any radial density, not only the pinned disk
        g = CartesianGrid(2, 2.0, cells)
        r = g.radius()
        u = DensityField(g, sum(a * np.exp(-((r - c) ** 2) / (2 * w**2)) for c, w, a in rings))
        speed = cell_speed(g, u.values)
        rg = RadialGrid(2, 1.8, 24)
        speed_prof = radial_average(DensityField(g, speed), rg)
        expected = radial_speed_values(mass_transform(radial_average(u, rg)))
        keep = rg.r > 0.2
        err = np.abs(speed_prof.values[keep] - expected[keep]).max()
        assert err <= 4 * g.h * speed.max()

    def test_rejects_bad_exponent(self):
        u = disk_field(N=32)
        with pytest.raises(ValueError):
            _potential_view(u.grid, u.values, 0.0)
        with pytest.raises(ValueError):
            _potential_view(u.grid, u.values, 1.2)
        with pytest.raises(ValueError, match="subnormal"):
            _potential_view(u.grid, u.values, 5e-324)


class TestVelocitySymmetry:
    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.sampled_from([16, 20, 24, 28, 32]),
        s=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transpose_and_reflection(self, cells, s, seed):
        # the kernel is even and the grid is centered, so the face velocities commute
        # with the axis swap, and each axis flip reverses and negates that axis's faces
        g = CartesianGrid(2, 1.0, cells)
        vals = np.random.default_rng(seed).random(g.shape)
        vx, vy = face_velocities(g, vals, s)
        tol = 1e-12 * max(np.abs(vx).max(), np.abs(vy).max())
        tx, ty = face_velocities(g, vals.T, s)
        assert np.abs(tx - vy.T).max() <= tol
        assert np.abs(ty - vx.T).max() <= tol
        for k in range(2):
            flipped = face_velocities(g, np.flip(vals, k), s)
            for j, comp in enumerate((vx, vy)):
                sign = -1.0 if j == k else 1.0
                assert np.abs(flipped[j] - sign * np.flip(comp, k)).max() <= tol


def full_spectrum(spectrum, rows):
    """The kernel's whole rfftn spectrum from the stored rows 0..R (R = `rows`, the
    block's leading side) of its real part: rows R+1..2R-1 are rows R-1..1 mirrored."""
    if spectrum.ndim == 1:
        return spectrum
    return np.concatenate([spectrum, spectrum[rows - 1:0:-1]])


def reference_convolve(values, spectrum, scale):
    """The free-space product with the block zero-padded in an explicit doubled-grid
    array and unpruned rfftn/irfftn, which `_convolve` must reproduce bit for bit."""
    block = tuple(slice(0, cells) for cells in values.shape)
    axes = range(values.ndim)
    spectrum = full_spectrum(spectrum, values.shape[0])
    padded = np.zeros(tuple(2 * cells for cells in values.shape))
    padded[block] = values
    fval = np.fft.rfftn(padded, axes=axes)
    return scale * np.fft.irfftn(fval * spectrum, s=padded.shape, axes=axes)[block]


class TestPrunedConvolution:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        cells=st.integers(4, 24).map(lambda k: 2 * k),
        s=st.floats(0.3, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_explicit_padding(self, n, cells, s, seed, data):
        # a random block shape (odd, non-square) and the whole box, each in the
        # buffers of its own table
        g = CartesianGrid(n, 1.0, cells)
        rng = np.random.default_rng(seed)
        shape = tuple(data.draw(st.integers(1, cells)) for _ in range(n))
        for block in (shape, g.shape):
            table = _kernel_table(g, s, block)
            vals = rng.normal(size=block) * (rng.random(block) < 0.7)
            got = _convolve(vals, table, g.cell_volume)
            assert got.shape == block
            assert np.array_equal(got, reference_convolve(vals, table.spectrum, g.cell_volume))


class TestPotentialBuffers:
    @pytest.mark.parametrize("n", [1, 2])
    def test_results_outlive_the_shared_buffers(self, n):
        # every call of one block shape works in its table's buffers, so a result must
        # be a fresh C-contiguous array that a second call leaves unchanged
        g = CartesianGrid(n, 1.0, 64)
        rng = np.random.default_rng(5)
        first = potential_values(g, rng.random(g.shape), 1.0)
        assert first.flags.c_contiguous and first.base is None
        kept = first.copy()
        second = potential_values(g, rng.random(g.shape), 1.0)
        assert not np.array_equal(second, kept)
        assert np.array_equal(first, kept)


class TestRealSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        cells=st.integers(4, 24).map(lambda k: 2 * k),
        half_width=st.floats(0.5, 4.0),
        s=st.floats(np.finfo(float).tiny, 1.0),
        data=st.data(),
    )
    def test_stored_half_of_even_kernel(self, n, cells, half_width, s, data):
        # the kernel is even along each axis, so its spectrum is real and even: the table
        # keeps rows 0..R of the real part, and what it drops is rounding.  s reaches the
        # smallest normal float, where the singular cell's 1/(2s) must not overflow
        g = CartesianGrid(n, half_width, cells)
        shape = tuple(data.draw(st.integers(1, cells)) for _ in range(n))
        kern = _kernel(g, s, shape)
        for axis in range(n):
            assert np.array_equal(kern, np.roll(np.flip(kern, axis), 1, axis=axis))
        full = np.fft.rfftn(kern, axes=range(n))
        rows = shape[0]
        stored = _kernel_table(g, s, shape).spectrum
        assert np.array_equal(stored, full.real[: rows + 1])
        scale = 1e-14 * np.abs(full).max()
        assert np.abs(full.imag).max() <= scale
        assert np.abs(full.real - full_spectrum(stored, rows)).max() <= scale

    @pytest.mark.parametrize("cells", [8, 64, 384])
    @pytest.mark.parametrize("s", [1.0, 0.7, 0.3])
    @pytest.mark.parametrize("strip", [1, 100, None])
    def test_row_block_build_is_the_rfftn(self, cells, s, strip):
        # the table tabulates its kernel in row blocks of the doubled grid, each rfft into
        # its rows of the padded buffer, then one fft along the leading axis: the order
        # np.fft.rfftn takes, so the spectrum has the bits of the rfftn of the whole
        # doubled-grid kernel, for one-row blocks, ragged blocks and the default strip
        g = CartesianGrid(2, 2.0, cells)
        if strip is None and cells == 384:
            assert len(_row_blocks((768, 768))[1]) > 1
        full = np.fft.rfftn(_kernel(g, s, g.shape))
        with mock.patch.object(potentials, "STRIP_CELLS", strip or potentials.STRIP_CELLS):
            _kernel_table.cache_clear()
            table = _kernel_table(g, s, g.shape)
        assert np.array_equal(table.spectrum, full.real[: cells + 1])
        assert table.padded[: cells + 1].tobytes() == full[: cells + 1].tobytes()

    def test_gauss_legendre_table_is_leggauss(self):
        # the fixed 64-point rule is numpy's leggauss(64) to within 2 ulp, whatever
        # LAPACK computed the latter; each half mirrors the other bit for bit
        nodes, weights = _gauss_legendre()
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
        for got, want in ((nodes, ref_nodes), (weights, ref_weights)):
            assert got.shape == (64,)
            assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_exponent_kernel_is_the_identity(self, n):
        # (-Lap)^{-s} tends to the identity as s -> 0: the singular cell carries the
        # whole unit weight 1/h^n and every other cell's value vanishes with s
        g = CartesianGrid(n, 0.5, 48)
        kern = _kernel(g, np.finfo(float).tiny, g.shape)
        assert kern[(0,) * n] * g.cell_volume == pytest.approx(1.0, rel=1e-3)
        assert np.abs(kern).sum() * g.cell_volume == pytest.approx(1.0, rel=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2]), h=st.floats(1e-3, 1.0), s=st.floats(0.5, 1.0))
    def test_singular_cell_keeps_its_bits_from_one_half(self, n, h, s):
        # for 2s >= 1, (2s - n) + n is 2s exactly (Sterbenz), so dividing by 2s keeps
        # the bits of the form that divided by a + n
        a, cv = 2.0 * s - n, velocity_constant(n, s)
        if n == 1:
            average = (_box_cox(h / 2.0, a) - 1.0) / (1.0 + a)
        else:
            rho = lambda th: (h / 2.0) / np.cos(th)
            integral = 8.0 * _angular_integral(lambda th: rho(th) ** 2 * (2.0 * _box_cox(rho(th), a) - 1.0))
            average = integral / (2.0 * (a + 2.0) * h**2)
        assert _singular_cell(n, h, s) == -cv * average


class TestKernelCache:
    def test_rebuild_releases_previous_table(self):
        # a miss frees the cached table's arrays before tabulating, so building a second
        # table of the same size peaks as high as building the first did, not higher by
        # the first table's arrays
        g = CartesianGrid(2, 2.0, 96)
        _kernel_table.cache_clear()  # so the first call builds
        tracemalloc.start()
        try:
            old = _kernel_table(g, 1.0, g.shape)
            held = old.padded.nbytes + old.spectrum.nbytes
            first = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            _kernel_table(g, 0.5, g.shape)
            second = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not hasattr(old, "padded") and not hasattr(old, "spectrum")
        assert second < first + held / 2

    def test_failed_build_keeps_cache_usable(self):
        # an empty block fails to tabulate after the cached table was released; the
        # cache must not hand that released table out again
        g = CartesianGrid(1, 1.0, 32)
        vals = np.ones(8)
        before = potential_values(g, vals, 1.0)
        with pytest.raises(IndexError):
            potential_values(g, np.ones(0), 1.0)
        assert np.array_equal(potential_values(g, vals, 1.0), before)

    def test_misses_count_builds(self):
        g = CartesianGrid(1, 1.0, 32)
        _kernel_table.cache_clear()
        for shape in ((8,), (8,), (16,), (8,)):
            potential_values(g, np.ones(shape), 1.0)
        assert _kernel_table.cache_info().misses == 3


class TestScalarPotential:
    @pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9])
    def test_interval_potential_matches_quadrature(self, s):
        # n = 1 with 1/2 <= s < 1, where the kernel grows: the log at s = 1/2 and a
        # power above.  p = G_h * u against the quadrature of int G(x - y) u(y) dy; the
        # cell-sampled kernel converges at order 2s
        c, a = velocity_constant(1, s), 2.0 * s - 1.0
        kern = (lambda z: -c * np.log(abs(z))) if a == 0 else (lambda z: -c * (abs(z) ** a - 1.0) / a)
        bump = lambda y: np.maximum(1.0 - y**2, 0.0) ** 2
        errors = []
        for cells in (64, 128):
            g = CartesianGrid(1, 2.0, cells)
            x = g.axis_centers()
            want = np.array([
                quad(lambda y: kern(xi - y) * bump(y), -1.0, 1.0, points=[xi] if abs(xi) < 1 else None, limit=200)[0]
                for xi in x
            ])
            errors.append(np.abs(potential_values(g, bump(x), s) - want).max() / np.abs(want).max())
        assert errors[-1] <= 4e-3
        assert np.log2(errors[0] / errors[1]) >= 2.0 * s - 0.2

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.95])
    def test_riesz_energy_matches_pair_sum(self, s):
        # for n > 2s the energy is the Riesz kernel's C |z|^{2s-n} / (n-2s), constant
        # included: a direct pair sum with the self cell averaged by quadrature
        g = CartesianGrid(2, 1.0, 12)
        vals = np.random.default_rng(0).random(g.shape)
        a, h = 2.0 * s - 2.0, g.h
        self_avg = 4.0 * dblquad(lambda y, x: np.hypot(x, y) ** a, 0, h / 2, 0, h / 2, epsabs=0, epsrel=1e-12)[0] / h**2
        pts = np.stack([c.ravel() for c in g.centers()], axis=1)
        d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        np.fill_diagonal(d, 1.0)
        kern = d**a
        np.fill_diagonal(kern, self_avg)
        w = vals.ravel() * g.cell_volume
        want = velocity_constant(2, s) / (2.0 - 2.0 * s) * float(w @ kern @ w)
        assert energy(DensityField(g, vals), s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_differences_continuous_at_n_equal_2s(self, n):
        # next to n = 2s the kernel's differences keep their digits: an exponent one
        # rounding step below n/2 gives the differences of the logarithmic kernel
        g = CartesianGrid(n, 1.0, 32)
        vals = np.exp(-8.0 * g.radius() ** 2)
        at = potential_values(g, vals, n / 2.0)
        for s in (np.nextafter(n / 2.0, 0.0), n / 2.0 - 1e-9):
            near = potential_values(g, vals, s)
            for axis in range(n):
                want = np.diff(at, axis=axis)
                assert np.abs(np.diff(near, axis=axis) - want).max() <= 1e-7 * np.abs(want).max()


class TestWindowedVelocity:
    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.integers(8, 32).map(lambda k: 2 * k),
        s=st.floats(0.3, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_block_solve_matches_whole_box(self, cells, s, seed, data):
        # values vanish outside the block W, and the solve on W's own doubled grid
        # uses the kernel at the same offsets as the whole-box solve
        g = CartesianGrid(2, 1.0, cells)
        window = []
        for _ in range(g.n):
            lo = data.draw(st.integers(0, cells - 1))
            window.append(slice(lo, data.draw(st.integers(lo + 1, cells))))
        window = tuple(window)
        vals = np.zeros(g.shape)
        vals[window] = np.random.default_rng(seed).random(vals[window].shape)
        whole = potential_values(g, vals, s)
        cases = [(whole[window], potential_values(g, vals[window], s), 1e-12 * np.abs(whole).max())]
        # and so do its face velocities, on the faces between cells of W
        whole = face_velocities(g, vals, s)
        tol = 1e-12 * max(np.abs(xi).max() for xi in whole)
        for axis, (w, b) in enumerate(zip(whole, face_velocities(g, vals[window], s))):
            faces = tuple(slice(cut.start, cut.stop - 1) if k == axis else cut for k, cut in enumerate(window))
            cases.append((w[faces], b, tol))
        for w, b, tol in cases:
            assert b.shape == w.shape
            assert np.abs(w - b).max(initial=0.0) <= tol  # a one-cell side has no faces


class TestEnergy:
    def test_fractional_energy_scaling(self):
        g = CartesianGrid(2, 1.0, 48)
        vals = np.exp(-g.radius() ** 2 * 8)
        base = energy(DensityField(g, vals), 0.5)
        scaled = energy(DensityField(g, 2.0 * vals), 0.5)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)
        assert base > 0

    def test_planar_energy_vanishes_at_reference(self):
        u = disk_field(N=64)
        assert energy(u, 1.0, reference=u) == pytest.approx(0.0, abs=1e-12)

    def test_planar_energy_requires_reference(self):
        u = disk_field(N=64)
        with pytest.raises(ValueError):
            energy(u, 1.0)

    def test_planar_energy_rejects_mass_mismatch(self):
        u = disk_field(N=64)
        ref = DensityField(u.grid, 0.5 * u.values)
        with pytest.raises(ValueError):
            energy(u, 1.0, reference=ref)

    def test_planar_energy_positive_for_rearrangement(self):
        # same mass, different shape: renormalized interaction energy differs from 0
        g = CartesianGrid(2, 2.0, 64)
        r = g.radius()
        u = DensityField(g, (r <= 0.5).astype(float))
        wide = (r <= 1.0).astype(float)
        ref = DensityField(g, wide * (total_mass(u) / (wide.sum() * g.cell_volume)))
        e = energy(u, 1.0, reference=ref)
        assert e > 0  # concentrating mass raises the interaction energy

    @pytest.mark.parametrize(
        "profile",
        [lambda r: (r <= 1.0) * 1.0, lambda r: 2.0 * np.exp(-2.0 * pi * r**2)],
        ids=["disk", "gaussian"],
    )
    def test_planar_energy_matches_gradient_form(self, profile):
        # <u,Gu> - <r,Gr> and int |grad w|^2 + 2 int r w agree in the continuum; the
        # discrete forms differ by O(h^2)
        gaps = []
        for cells in (64, 128, 256):
            g = CartesianGrid(2, 4.0, cells)
            u = DensityField(g, profile(g.radius()))
            mass = total_mass(u)
            ref = mollified_reference(g, mass)
            gaps.append(abs(energy(u, 1.0, reference=ref) - gradient_form_energy(u, ref)) / mass**2)
        orders = np.log2(np.array(gaps[:-1]) / gaps[1:])
        assert orders.min() >= 1.8


class TestVelocitySupBound:
    def test_sup_velocity_bound(self):
        # ||v||_inf <= C M^{1/n} B^{(n-1)/n}; C calibrated once on this grid family
        rng = np.random.default_rng(77)
        g = CartesianGrid(2, 2.0, 64)
        C = 0.40  # frozen from a pilot sweep; sharp radial value is 1/(2 sqrt(pi)) ~ 0.282
        for _ in range(10):
            vals = rng.random(g.shape) * (g.radius() <= rng.uniform(0.5, 1.8))
            u = DensityField(g, vals)
            m, b = total_mass(u), float(vals.max())
            if m == 0:
                continue
            vmax = cell_speed(g, vals).max()
            assert vmax <= C * m**0.5 * b**0.5
