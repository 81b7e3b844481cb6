import numpy as np
import pytest
from math import inf, nan, pi, sqrt

from hypothesis import given, settings, strategies as st
from vortexlab.grids import (
    CSV_BATCH_ROWS,
    CartesianGrid,
    ConfigError,
    DensityField,
    MassFunction,
    RadialGrid,
    field_from_function,
    lp_norm,
    radial_average,
    read_grid_array,
    second_moment,
    sphere_area,
    total_mass,
    unit_ball_volume,
    write_csv,
    write_grid_array,
    write_grid_csv,
)


def disk_field(N=256, L=2.0, R=1.0, height=1.0):
    g = CartesianGrid(2, L, N)
    return DensityField(g, height * (g.radius() <= R).astype(float))


class TestGridValidation:
    def test_dimension_restricted(self):
        with pytest.raises(ValueError):
            CartesianGrid(3, 1.0, 16)

    def test_cells_even_and_minimum(self):
        with pytest.raises(ValueError):
            CartesianGrid(2, 1.0, 15)
        with pytest.raises(ValueError):
            CartesianGrid(2, 1.0, 6)

    def test_cell_size(self):
        g = CartesianGrid(2, 4.0, 256)
        assert g.h == pytest.approx(8.0 / 256)
        assert g.cell_volume == pytest.approx(g.h**2)

    @pytest.mark.parametrize("n, half_width", [
        (2, 2.2e-300),  # h is normal, h^2 underflows to zero
        (2, 1e-160),  # h^2 is subnormal
        (1, 1e-320),  # h is subnormal
        (2, 1e200),  # h^2 overflows
        (1, 1.7e308),  # 2 half_width overflows
    ])
    def test_cell_side_and_volume_must_be_normal(self, n, half_width):
        with pytest.raises(ConfigError, match="positive normal floats"):
            CartesianGrid(n, half_width, 64)

    def test_density_must_be_nonnegative(self):
        g = CartesianGrid(1, 1.0, 16)
        with pytest.raises(ValueError):
            DensityField(g, -np.ones(16))

    def test_values_are_frozen(self):
        g = CartesianGrid(1, 1.0, 16)
        u = DensityField(g, np.ones(16))
        with pytest.raises(ValueError):
            u.values[0] = 2.0

    def test_radial_grid_nodes(self):
        rg = RadialGrid(2, 3.0, 64)
        assert rg.sigma[0] == 0.0
        assert np.all(np.diff(rg.sigma) > 0)
        np.testing.assert_allclose(rg.r, np.sqrt(2 * rg.sigma))
        with pytest.raises(ValueError):
            RadialGrid(2, 3.0, 8)

    def test_mass_function_invariants(self):
        rg = RadialGrid(2, 3.0, 32)
        with pytest.raises(ValueError):
            MassFunction(rg, np.linspace(1.0, 0.0, 32))
        with pytest.raises(ValueError):
            MassFunction(rg, np.full(32, 0.5))

    def test_mass_function_tolerates_round_off_only(self):
        # the one monotonicity rule a finite-volume step meets: a dip under
        # 1e-12 (1 + |M_end|) is round-off, a larger one is rejected
        rg = RadialGrid(2, 3.0, 32)
        vals = np.linspace(0.0, 4.0, 32)
        tol = 1e-12 * (1.0 + vals[-1])
        vals[10] = vals[9] - 0.5 * tol
        MassFunction(rg, vals)
        vals[10] = vals[9] - 2.0 * tol
        with pytest.raises(ValueError, match="nondecreasing"):
            MassFunction(rg, vals)


class TestReductions:
    def test_zero_field(self):
        g = CartesianGrid(2, 1.0, 32)
        z = DensityField(g, np.zeros(g.shape))
        assert total_mass(z) == 0.0
        assert lp_norm(z, 2) == 0.0
        assert lp_norm(z, np.inf) == 0.0
        assert second_moment(z) == 0.0

    def test_disk_mass_is_area(self):
        u = disk_field(N=256)
        assert total_mass(u) == pytest.approx(pi, abs=4 * u.grid.h)

    def test_disk_norms(self):
        u = disk_field(N=256)
        assert lp_norm(u, np.inf) == 1.0
        assert lp_norm(u, 2) == pytest.approx(sqrt(pi), abs=4 * u.grid.h)

    def test_lp_rejects_small_p(self):
        u = disk_field(N=64)
        with pytest.raises(ValueError):
            lp_norm(u, 0.5)

    def test_disk_second_moment(self):
        # int_0^R r^2 2 pi r dr = pi R^4 / 2
        u = disk_field(N=256, R=1.0)
        assert second_moment(u) == pytest.approx(pi / 2, rel=0.02)

    def test_parallel_axis_identity(self):
        # the disk moved by whole cells d: its second moment about the origin gains M |d|^2
        u = disk_field(N=128)
        d = np.array([8, -16]) * u.grid.h
        shifted = DensityField(u.grid, np.roll(u.values, (8, -16), axis=(0, 1)))
        assert second_moment(shifted) == pytest.approx(second_moment(u) + total_mass(u) * d @ d, rel=1e-12)

    def test_homogeneity_degree_one(self):
        rng = np.random.default_rng(7)
        g = CartesianGrid(2, 1.0, 32)
        vals = rng.random(g.shape)
        u = DensityField(g, vals)
        lam = 3.7
        ul = DensityField(g, lam * vals)
        assert total_mass(ul) == pytest.approx(lam * total_mass(u), rel=1e-12)
        assert second_moment(ul) == pytest.approx(lam * second_moment(u), rel=1e-12)
        for p in (1, 2, 5, np.inf):
            assert lp_norm(ul, p) == pytest.approx(lam * lp_norm(u, p), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        cells=st.sampled_from([8, 16, 64]),
        half_width=st.floats(1e-3, 1e3),
        scale=st.sampled_from([1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300]),
        zeros=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_l1_norm_is_the_mass_bit_for_bit(self, n, cells, half_width, scale, zeros, seed):
        # a diagnostics record stores its mass as its L1 norm, so for a nonnegative
        # field the two reductions must agree in every bit
        rng = np.random.default_rng(seed)
        g = CartesianGrid(n, half_width, cells)
        vals = scale * rng.random(g.shape)
        vals[rng.random(g.shape) < zeros] = 0.0
        u = DensityField(g, vals)
        assert lp_norm(u, 1).hex() == total_mass(u).hex()

    def test_disk_mass_first_order_convergence(self):
        errs, hs = [], []
        for N in (64, 128, 256):
            u = disk_field(N=N)
            errs.append(abs(total_mass(u) - pi))
            hs.append(u.grid.h)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 0.8 <= slope <= 1.2


class TestRadialAverage:
    def test_constant_field(self):
        g = CartesianGrid(2, 2.0, 128)
        u = DensityField(g, np.full(g.shape, 3.0))
        prof = radial_average(u, RadialGrid(2, 1.8, 32))
        np.testing.assert_allclose(prof.values, 3.0, rtol=1e-12)

    def test_patch_field(self):
        u = disk_field(N=256, R=1.0, height=2.0)
        prof = radial_average(u, RadialGrid(2, 1.8, 64))
        h = u.grid.h
        inside = prof.grid.r < 1.0 - 2 * h
        outside = prof.grid.r > 1.0 + 2 * h
        np.testing.assert_allclose(prof.values[inside], 2.0, rtol=1e-12)
        np.testing.assert_allclose(prof.values[outside], 0.0, atol=1e-12)

    def test_mass_preserved(self):
        g = CartesianGrid(2, 2.0, 256)
        u = DensityField(g, np.exp(-g.radius() ** 2 * 4))
        rg = RadialGrid(2, 1.9, 96)
        prof = radial_average(u, rg)
        prof_mass = sphere_area(2) * np.trapezoid(prof.values, rg.sigma)
        assert prof_mass == pytest.approx(total_mass(u), rel=2 * g.h)

    def test_profile_matches_exact_l1(self):
        # the bin averages at the nodes against exp(-2 r^2), in the radial L1 norm
        g = CartesianGrid(2, 2.0, 256)
        u = DensityField(g, np.exp(-g.radius() ** 2 * 2))
        rg = RadialGrid(2, 1.9, 128)
        prof = radial_average(u, rg)
        err = sphere_area(2) * np.trapezoid(np.abs(prof.values - np.exp(-2 * rg.r**2)), rg.sigma)
        assert err <= 5 * g.h * total_mass(u)

    def test_rejects_radial_grid_beyond_box(self):
        u = disk_field(N=64, L=2.0)
        with pytest.raises(ValueError):
            radial_average(u, RadialGrid(2, 2.5, 32))


class TestGeometryConstants:
    def test_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(pi)
        assert unit_ball_volume(3) == pytest.approx(4 * pi / 3)
        assert sphere_area(2) == pytest.approx(2 * pi)


class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        g = CartesianGrid(2, 1.5, 32)
        rng = np.random.default_rng(0)
        vals = rng.random(g.shape)
        path = tmp_path / "field.bin"
        write_grid_array(g, vals, path)
        g2, vals2 = read_grid_array(path)
        assert g2 == g
        np.testing.assert_array_equal(vals2, vals)

    def test_binary_header_layout(self, tmp_path):
        g = CartesianGrid(1, 2.0, 16)
        path = tmp_path / "field.bin"
        write_grid_array(g, np.arange(16.0), path)
        raw = path.read_bytes()
        assert len(raw) == 24 + 16 * 8
        assert int.from_bytes(raw[0:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 16

    def test_csv_columns(self, tmp_path):
        g = CartesianGrid(2, 1.0, 8)
        path = tmp_path / "field.csv"
        write_grid_csv(g, {"u": np.ones(g.shape)}, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,u"
        assert len(lines) == 1 + 64

    def test_field_from_function(self):
        g = CartesianGrid(2, 1.0, 32)
        u = field_from_function(g, lambda p: np.exp(-(p**2).sum(axis=-1)))
        assert u.values.shape == g.shape
        assert u.values.max() <= 1.0


class TestSignedArraySerialization:
    def test_velocity_component_round_trip(self, tmp_path):
        # the binary format carries signed values (velocity components), not
        # just densities
        g = CartesianGrid(2, 1.0, 16)
        rng = np.random.default_rng(9)
        vals = rng.standard_normal(g.shape)
        path = tmp_path / "vx.bin"
        write_grid_array(g, vals, path)
        g2, back = read_grid_array(path)
        assert g2 == g
        np.testing.assert_array_equal(back, vals)

    def test_multi_column_csv(self, tmp_path):
        g = CartesianGrid(1, 1.0, 8)
        path = tmp_path / "vel.csv"
        write_grid_csv(g, {"vx": np.arange(8.0), "u": np.ones(8)}, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,vx,u"
        assert len(lines) == 9


def reference_write_csv(path, header, rows):
    """The per-value writer that `write_csv` batches; its bytes are the contract."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join("" if v is None else format(v, ".17g") for v in row) + "\n")


SPECIAL_VALUES = [nan, inf, -inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308]
cell_values = st.one_of(
    st.none(),
    st.sampled_from(SPECIAL_VALUES),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**40), 2**40).map(np.int64),
)


class TestBatchedCsv:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(st.lists(cell_values, max_size=6), max_size=40),
        repeat=st.sampled_from([1, CSV_BATCH_ROWS // 3 + 1]),
    )
    def test_rows_match_per_value_writer(self, tmp_path_factory, rows, repeat):
        # ragged rows, None cells and every special float; the repeat crosses batches
        rows = rows * repeat
        base = tmp_path_factory.mktemp("csv")
        write_csv(base / "got.csv", ["a", "b"], iter(rows))
        reference_write_csv(base / "want.csv", ["a", "b"], rows)
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        cells=st.integers(4, 80).map(lambda k: 2 * k),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(st.sampled_from(SPECIAL_VALUES), max_size=12),
        width=st.integers(0, 3),
    )
    def test_grid_matches_per_value_writer(self, tmp_path_factory, n, cells, seed, specials, width):
        # values over every binade down to the subnormals, specials at random cells;
        # 0 to 3 value columns
        g = CartesianGrid(n, 1.0, cells)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=g.shape) * 10.0 ** rng.integers(-325, 300, size=g.shape)
        flat = u.reshape(-1)
        flat[rng.integers(0, flat.size, size=len(specials))] = specials
        columns = dict(list(zip("uwv", [u, -u, u[::-1]]))[:width])
        base = tmp_path_factory.mktemp("grid")
        write_grid_csv(g, columns, base / "got.csv")
        cols = [c.ravel() for c in g.centers()] + [v.ravel() for v in columns.values()]
        header = ["x"] if n == 1 else ["x", "y"]
        reference_write_csv(base / "want.csv", header + list(columns), zip(*cols))
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()

