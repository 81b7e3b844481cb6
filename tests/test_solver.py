import tracemalloc
from unittest import mock

import numpy as np
import pytest
from math import inf, nan, pi

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vortexlab.closed_forms import PatchSpec, patch_density
from vortexlab.diagnostics import _output_record, equilibrium_radius, mollified_reference
from vortexlab.grids import (
    CartesianGrid,
    DensityField,
    RadialGrid,
    field_from_function,
    second_moment,
    support_radius,
    total_mass,
)
from vortexlab import potentials, scenarios, solver
from vortexlab.potentials import WINDOW_HALO, _row_blocks, potential_values
from vortexlab.solver import (
    STAGES,
    ConfigError,
    NumericalError,
    SolverConfig,
    _advance,
    _face_velocities,
    _ssp_update,
    _stable_dt,
    _step,
    _support_window,
    required_half_width,
    run,
    sweep_s,
)


def patch_field(grid, t=0.0, radius=1.0, tau=1.0):
    spec = PatchSpec(2, radius=radius, tau=tau)
    return field_from_function(grid, lambda p: patch_density(spec, p, t))


def reference_mc_slope(u):
    dm = u[1:-1] - u[:-2]
    dp = u[2:] - u[1:-1]
    cen = 0.5 * (dm + dp)
    lim = np.where(
        dm * dp > 0,
        np.sign(cen) * np.minimum(np.abs(cen), 2.0 * np.minimum(np.abs(dm), np.abs(dp))),
        0.0,
    )
    out = np.zeros_like(u)
    out[1:-1] = lim
    return out


def reference_flux(vals, face, axis):
    """Upwind flux of the MC reconstruction of `vals` through the faces along `axis`,
    with the face axis moved to the front."""
    v_face = np.moveaxis(face, axis, 0)
    u = np.moveaxis(vals, axis, 0)
    slope = reference_mc_slope(u)
    left = u[:-1] + 0.5 * slope[:-1]
    right = u[1:] - 0.5 * slope[1:]
    return np.maximum(v_face, 0.0) * left + np.minimum(v_face, 0.0) * right


def reference_advance(grid, vals, faces, dt):
    """MC transport written on `np.moveaxis` views, the formulation `_advance` must
    reproduce bit for bit."""
    h = grid.h
    new = vals.copy()
    for axis in range(grid.n):
        out = np.moveaxis(new, axis, 0)
        flux = reference_flux(vals, faces[axis], axis)
        out[:-1] -= (dt / h) * flux
        out[1:] += (dt / h) * flux
    return new


def face_shapes(shape):
    """Shapes of the face arrays of a block: one entry fewer along each face's axis."""
    return [tuple(c - (k == axis) for k, c in enumerate(shape)) for axis in range(len(shape))]


def cell_faces(faces):
    """The cell-shaped storage of the compact face arrays `faces` that `_advance` and
    `_stable_dt` take: each axis's faces, then a zero past each line's end."""
    return [np.pad(xi, [(0, int(k == axis)) for k in range(xi.ndim)]) for axis, xi in enumerate(faces)]


def interior_faces(faces):
    """The faces between neighbouring cells of cell-shaped face arrays, as views: each
    axis's array without its last line."""
    return [xi[(slice(None),) * axis + (slice(None, -1),)] for axis, xi in enumerate(faces)]


def reference_stable_dt(grid, faces, cfl):
    """The CFL bound of `_stable_dt` from the compact faces, axis by axis: each cell's
    speed along an axis is the larger |face| of its two, with a zero face past each
    end of the block."""
    speed = 0.0
    for axis, xi in enumerate(faces):
        mag = np.abs(np.moveaxis(xi, axis, 0))
        ends = np.zeros((1, *mag.shape[1:]))
        padded = np.concatenate([ends, mag, ends])
        speed = speed + np.moveaxis(np.maximum(padded[:-1], padded[1:]), 0, axis)
    top = float(speed.max())
    return cfl * (grid.h / top) if top > 0 else inf


def rough_field(rng, shape):
    """Random values with zero plateaus, flat runs and cells near 1e-300."""
    vals = rng.random(shape)
    vals[rng.random(shape) < 0.3] = 0.0
    vals[rng.random(shape) < 0.2] = 0.5
    tiny = rng.random(shape) < 0.15
    vals[tiny] = 1e-300 * rng.random(int(tiny.sum()))
    return vals


class TestConfig:
    def test_validation(self):
        # the horizon is the last output time, so a negative one is a negative output time;
        # outputs past or short of a scenario's t_end are the scenario layer's to reject
        with pytest.raises(ConfigError, match="output_times"):
            SolverConfig(output_times=(-1.0,))
        with pytest.raises(ConfigError, match="strictly increasing"):
            SolverConfig(output_times=(1.0, 0.5))  # no time list is sorted for you
        with pytest.raises(ConfigError, match="cfl"):
            SolverConfig(output_times=(1.0,), cfl=0.0)
        with pytest.raises(ConfigError, match="s must"):
            SolverConfig(output_times=(1.0,), s=1.5)
        with pytest.raises(ConfigError, match="subnormal"):
            SolverConfig(output_times=(1.0,), s=5e-324)
        with pytest.raises(ConfigError, match="output_times must hold .* finite"):
            SolverConfig(output_times=(0.5, float("nan"), 1.0))

    def test_horizon_is_the_last_output_time(self):
        assert SolverConfig(output_times=[0.5, 1.0]).t_end == 1.0

    @pytest.mark.parametrize("outs", [(0.5, 0.5, 1.0), (0.5, 0.5 * (1 + 1e-13), 1.0), (1.0, 1.0)],
                             ids=["repeat", "repeat-within-the-time-guard", "repeated-horizon"])
    def test_repeated_output_times_rejected(self, outs):
        # each repeat used to become a second record at the same t
        with pytest.raises(ConfigError, match="repeat"):
            SolverConfig(output_times=outs)

    @pytest.mark.parametrize("value", [inf, -inf, nan])
    @pytest.mark.parametrize("build, match", [
        (lambda x: SolverConfig(output_times=(x,)), "output_times must hold .* finite"),
        (lambda x: CartesianGrid(2, x, 16), "positive and finite"),
        (lambda x: RadialGrid(2, x, 16), "positive and finite"),
    ], ids=["t_end", "half_width", "r_max"])
    def test_non_finite_sizes_rejected(self, build, match, value):
        # an infinite horizon or box would run to its first output and report inf,
        # or give an infinite cell or a nan node spacing
        with pytest.raises(ValueError, match=match):
            build(value)


class TestStep:
    # run() clamps each step to the next output time, so an output time below the
    # stable step gives exactly one step of that size
    def test_tiny_horizon_is_stepped_to(self):
        # the guard is relative to the output time, so a horizon below an absolute
        # tolerance still gets its one step
        u0 = patch_field(CartesianGrid(2, 2.0, 32), radius=0.5)
        traj = run(SolverConfig(output_times=(5e-13,)), u0)
        assert traj.steps == 1
        assert [r.t for r in traj.records] == [0.0, 5e-13]
        assert not np.array_equal(traj.last.values, u0.values)

    def test_single_cell_mass_preserved(self):
        g = CartesianGrid(2, 2.0, 32)
        vals = np.zeros(g.shape)
        vals[16, 16] = 5.0
        u = DensityField(g, vals)
        cfg = SolverConfig(output_times=(1e-4,))
        traj = run(cfg, u)
        assert traj.steps == 1
        assert total_mass(traj.last) == pytest.approx(total_mass(u), rel=1e-14)

    def test_mass_conserved(self):
        g = CartesianGrid(2, 4.0, 64)
        u = patch_field(g)
        cfg = SolverConfig(output_times=(1e-3,))
        traj = run(cfg, u)
        assert traj.steps == 1
        assert total_mass(traj.last) == pytest.approx(total_mass(u), rel=1e-13)

    def test_positivity(self):
        rng = np.random.default_rng(4)
        g = CartesianGrid(2, 4.0, 64)
        u = DensityField(g, rng.random(g.shape) * (g.radius() <= 2.0))
        cfg = SolverConfig(output_times=(0.5,))  # one step of rough data spans about t = 0.1
        traj = run(cfg, u)
        assert traj.steps > 1
        assert traj.last.values.min() >= 0.0
        assert traj.clipped_mass <= 1e-12 * total_mass(u)  # run() clips, so check nothing was clipped


class TestSupportRadius:
    def test_zero_field(self):
        g = CartesianGrid(2, 2.0, 32)
        assert support_radius(DensityField(g, np.zeros(g.shape))) == 0.0

    def test_exact_patch(self):
        # patch R=1, tau=1 evaluated at t=3 has support radius 2
        g = CartesianGrid(2, 4.0, 256)
        u = patch_field(g, t=3.0)
        assert support_radius(u) == pytest.approx(2.0, abs=1.5 * g.h)


class TestBoxSizing:
    def test_bounded_data_rule(self):
        g = CartesianGrid(2, 4.0, 128)
        u = patch_field(g)  # R0=1, peak 1
        # min(1*(1+T)^{1/2}, 1 + (2*0.5*T)^{1/2}) / 0.9
        assert required_half_width(u, 3.0) == pytest.approx(2.0 / 0.9, rel=0.05)

    def test_run_rejects_small_box(self):
        g = CartesianGrid(2, 2.0, 64)
        u = patch_field(g)
        cfg = SolverConfig(output_times=(8.0,))
        with pytest.raises(ConfigError, match="support growth bound"):
            run(cfg, u)


class TestRun:
    @pytest.mark.parametrize("diagnostics", ["basic", "full"])
    def test_zero_initial_data_rejected(self, diagnostics):
        # every record and check is measured against the initial mass or 1/max u0
        g = CartesianGrid(2, 2.0, 32)
        cfg = SolverConfig(output_times=(0.25, 0.5), diagnostics=diagnostics)
        with pytest.raises(ConfigError, match="positive mass"):
            run(cfg, DensityField(g, np.zeros(g.shape)))

    def test_full_diagnostics_need_unit_exponent(self):
        # entropy, dissipation and the patch distance are the s = 1 functionals,
        # so a fractional run leaves them empty, as it leaves the energy
        g = CartesianGrid(2, 4.0, 64)
        u0 = field_from_function(g, lambda p: np.exp(-(p**2).sum(axis=-1) / 0.5))
        cfg = SolverConfig(output_times=(0.1, 0.2), s=0.7, diagnostics="full")
        traj = run(cfg, u0)
        for rec in traj.records:
            assert rec.energy is None and rec.entropy is None
            assert rec.dissipation is None and rec.w2_to_patch is None

    def test_patch_run_invariants(self):
        g = CartesianGrid(2, 4.0, 128)
        u0 = patch_field(g)
        cfg = SolverConfig(output_times=(0.5, 1.0))
        traj = run(cfg, u0)
        assert traj.mass_drift() <= 1e-12
        assert traj.max_bound_ratio() <= 1.05
        assert [rec.t for rec in traj.records] == pytest.approx([0.0, 0.5, 1.0])
        assert traj.clipped_mass <= 1e-10
        assert not traj.warnings

    def test_l_infinity_decay_tracked(self):
        g = CartesianGrid(2, 4.0, 128)
        u0 = patch_field(g)
        cfg = SolverConfig(output_times=(1.0,))
        traj = run(cfg, u0)
        # patch height at t=1 is 1/2
        assert traj.records[-1].linf_norm == pytest.approx(0.5, abs=0.03)

    def test_gaussian_mass_drift_tiny(self):
        g = CartesianGrid(2, 2.56, 128)
        w2 = 1.0 / (4 * pi)
        u0 = field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * w2)))
        cfg = SolverConfig(output_times=(1.0,))
        traj = run(cfg, u0)
        assert traj.mass_drift() <= 1e-9

    def test_full_diagnostics_build_one_kernel_table(self):
        # steps and records of a compact patch share one support window, so the
        # one-entry cache tabulates a single table (of the window, not the box)
        from vortexlab.potentials import _kernel_table

        g = CartesianGrid(2, 4.0, 64)  # the patch and its halo stay inside a 32-cell window
        cfg = SolverConfig(output_times=(0.1, 0.2, 0.3), diagnostics="full")
        _kernel_table.cache_clear()
        traj = run(cfg, patch_field(g))
        assert all(rec.entropy is not None for rec in traj.records)
        assert _kernel_table.cache_info().misses == 1

    def test_compact_run_builds_no_whole_box_kernel(self, monkeypatch):
        # every step and every full diagnostics record runs on a support window,
        # so a run of a compact patch never tabulates a table of the box's shape
        from vortexlab import potentials

        shapes = []
        table = potentials._kernel_table

        def recording_table(grid, s, shape):
            shapes.append(shape)
            return table(grid, s, shape)

        monkeypatch.setattr(potentials, "_kernel_table", recording_table)
        g = CartesianGrid(2, 4.0, 64)
        for diagnostics in ("basic", "full"):
            cfg = SolverConfig(output_times=(0.1, 0.3), diagnostics=diagnostics)
            traj = run(cfg, patch_field(g))
            assert traj.steps > 1
        assert shapes and g.shape not in shapes

    def test_at_output_sees_t0_and_every_output_after_its_record(self, monkeypatch):
        # the hook gets u0 itself at t = 0 and each output's field once its record is
        # made; the trajectory keeps the last field, and each record's mass is its field's
        records = []
        output_record = solver._output_record

        def recording(*args):
            records.append(output_record(*args))
            return records[-1]

        monkeypatch.setattr(solver, "_output_record", recording)
        g = CartesianGrid(2, 4.0, 64)
        u0 = patch_field(g)
        cfg = SolverConfig(output_times=(0.1, 0.2, 0.3))
        seen = []
        traj = run(cfg, u0, at_output=lambda t, u: seen.append((t, u, len(records))))
        assert [t for t, _, _ in seen] == [rec.t for rec in traj.records]
        assert seen[0][1] is u0
        assert [k for _, _, k in seen] == [1, 2, 3, 4]
        assert np.array_equal(traj.last.values, seen[-1][1].values)
        assert [rec.mass for rec in traj.records] == [total_mass(u) for _, u, _ in seen]

    @pytest.mark.parametrize("kind", ["patch", "gaussian"])
    def test_output_fields_are_read_only_views_of_the_step(self, kind):
        # each output's field wraps the step's array without a copy, and so does the
        # trajectory's last field; the next step writes a new array, so each hook field
        # keeps its values, and no one can write into them
        u0 = TestSharedOutputSolve.field(kind)
        cfg = SolverConfig(output_times=(0.1, 0.2, 0.3))
        seen = []
        traj = run(cfg, u0, at_output=lambda t, u: seen.append((u, u.values.copy())))
        last = seen[-1][0]
        assert np.shares_memory(traj.last.values, last.values) and not traj.last.values.flags.writeable
        for u, values in seen[1:]:
            assert not u.values.flags.writeable
            assert u.values.tobytes() == values.tobytes()
            with pytest.raises(ValueError):
                u.values[0] = 1.0
        assert not any(np.shares_memory(u.values, v.values) for (u, _), (v, _) in zip(seen[1:], seen[2:]))

    def test_summary_fields(self):
        g = CartesianGrid(2, 4.0, 64)
        cfg = SolverConfig(output_times=(0.5,))
        traj = run(cfg, patch_field(g))
        s = traj.summary()
        for key in ("steps", "mass_drift_relative", "clipped_mass", "max_sup_bound_ratio", "warnings"):
            assert key in s


class TestSharedOutputSolve:
    # a full record solves G_h u once: its P(u), its dissipation and the next step's
    # first-stage faces all come from that solve
    @staticmethod
    def field(kind):
        if kind == "patch":  # compact and centred: steps and records run on a window
            return patch_field(CartesianGrid(2, 4.0, 64))
        if kind == "gaussian":  # the tails fill the box, so the window is the box
            g = CartesianGrid(2, 2.56, 96)
            return field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) * 2 * pi))
        g = CartesianGrid(2, 4.0, 64)  # a compact blob away from the reference bumps' centre
        return field_from_function(
            g, lambda p: np.maximum(1.0 - ((p - [0.7, -0.4]) ** 2).sum(axis=-1) / 0.36, 0.0) ** 2
        )

    @pytest.mark.parametrize("kind", ["patch", "gaussian", "blob"])
    def test_full_records_leave_the_steps_unchanged(self, kind):
        u0 = self.field(kind)
        basic, full = (run(SolverConfig(output_times=(0.1, 0.2, 0.3), diagnostics=level), u0)
                       for level in ("basic", "full"))
        assert full.records[-1].dissipation is not None
        assert full.last.values.tobytes() == basic.last.values.tobytes()
        assert (full.steps, full.stage_redos) == (basic.steps, basic.stage_redos)

    def test_solves_per_full_run(self, monkeypatch):
        # 4 per step, 1 per record for its bump, 1 for the energy's bump and 1 for the
        # last record's own potential; every other record's is its next step's
        from vortexlab import diagnostics, potentials

        calls = []
        view = potentials._potential_view

        def counting(*args):
            calls.append(args[1].shape)
            return view(*args)

        monkeypatch.setattr(potentials, "_potential_view", counting)
        monkeypatch.setattr(diagnostics, "_potential_view", counting)
        g = CartesianGrid(2, 2.56, 192)
        u0 = field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) * 2 * pi))
        traj = run(SolverConfig(output_times=(0.25, 0.5), diagnostics="full"), u0)
        assert len(calls) == STAGES * traj.steps + len(traj.records) + 2
        assert set(calls) == {g.shape}

    # the dissipation is summed in row blocks: one row each (1), three rows of the
    # 32-cell windows and one of the 96-cell Gaussian box (96), blocks whose last holds
    # only the window's last row (480 on the Gaussian, 992 on the 32-row windows), and
    # one block (10**6)
    @pytest.mark.parametrize("strip", [1, 96, 480, 992, 10**6])
    @pytest.mark.parametrize("kind", ["patch", "gaussian", "blob"])
    def test_record_matches_the_difference_form(self, kind, strip):
        # energy, entropy and dissipation against h^2 sum (u - r) G_h (u + r) and the
        # face sum, each solved on the whole box
        u = self.field(kind)
        g, t, mass = u.grid, 0.3, total_mass(u)
        a = (1.0 + t) ** 0.5
        cv = g.cell_volume
        with mock.patch.object(potentials, "STRIP_CELLS", strip):
            rec, faces = _output_record(u, t, 1.0, mass, True)

        def renormalized(ref):
            return cv * float(((u.values - ref) * potential_values(g, u.values + ref, 1.0)).sum())

        energy = renormalized(mollified_reference(g, mass).values)
        bump = mollified_reference(g, mass, radius=a * equilibrium_radius(mass, 2)).values
        entropy = 0.5 * renormalized(bump) + second_moment(u) / (4.0 * (1.0 + t))
        x = g.axis_centers()
        face_x = 0.5 * (x[:-1] + x[1:])
        dissipation = 0.0
        for axis, xi in enumerate(interior_faces(_face_velocities(g, u.values, 1.0))):
            lines, xi = np.moveaxis(u.values, axis, -1), np.moveaxis(xi, axis, -1)
            face_u = 0.5 * (lines[..., :-1] + lines[..., 1:])
            dissipation += cv * float((face_u * (a * xi - face_x / (2.0 * a)) ** 2).sum())
        assert rec.energy == pytest.approx(energy, rel=1e-12)
        assert rec.entropy == pytest.approx(entropy, rel=1e-12)
        assert rec.dissipation == pytest.approx(dissipation, rel=1e-12)
        # the faces the record hands on are the step's own, bit for bit
        window = _support_window(u.values)
        for got, want in zip(faces, _face_velocities(g, u.values[window], 1.0)):
            assert got.tobytes() == want.tobytes()


class TestRunProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        half_width=st.floats(1.0, 4.0),
        cfl=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mass_positivity_and_clip_ledger(self, half_width, cfl, seed):
        g = CartesianGrid(2, half_width, 16)
        rng = np.random.default_rng(seed)
        u0 = DensityField(g, rng.random(g.shape) * (g.radius() <= half_width / 4))
        cfg = SolverConfig(output_times=(0.1,), cfl=cfl)
        fields = []
        traj = run(cfg, u0, at_output=lambda t, u: fields.append(u))
        assert traj.mass_drift() <= 1e-12
        assert min(float(f.values.min()) for f in fields) >= 0.0
        assert traj.clipped_mass <= 1e-12 * total_mass(u0)

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(0.3, 1.0),
        cfl=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_window_step_matches_whole_box_step(self, s, cfl, seed, data):
        # each of the STAGES stages moves density at most one cell, so the window's
        # halo of STAGES cells and their MC slopes stay zero through the step, no flux
        # crosses the window's faces, and the step on the window is the whole-box step
        g = CartesianGrid(2, 2.0, 48)
        block = []
        for _ in range(g.n):
            lo = data.draw(st.integers(0, g.cells - 1))
            block.append(slice(lo, data.draw(st.integers(lo + 1, min(lo + 20, g.cells)))))
        vals = np.zeros(g.shape)
        vals[tuple(block)] = np.random.default_rng(seed).random(vals[tuple(block)].shape)
        for cut, side in zip(_support_window(vals), block):
            assert cut.start <= max(side.start - STAGES, 0) and cut.stop >= min(side.stop + STAGES, g.cells)
        cfg = SolverConfig(output_times=(1.0,), s=s, cfl=cfl)
        dt, new, clipped, _ = _step(g, vals, 1.0, cfg)
        whole_dt, whole, whole_clipped, _ = _ssp_update(g, vals, 1.0, cfg)
        assert dt == pytest.approx(whole_dt, rel=1e-12)
        assert np.abs(new - whole).max() <= 1e-13 * vals.max()
        assert clipped == pytest.approx(whole_clipped, abs=1e-13 * vals.max())

    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.sampled_from([24, 32]),
        half_width=st.floats(1.0, 4.0),
        cfl=st.floats(0.05, 0.5),
        both_walls=st.booleans(),
        high=st.booleans(),
        transpose=st.booleans(),
        gap=st.integers(2, 3),
        width=st.integers(1, 8),
        across=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wall_window_keeps_mass_positivity_and_clip_ledger(
        self, cells, half_width, cfl, both_walls, high, transpose, gap, width, across, seed
    ):
        # a rectangle a few cells from one wall, or spanning the box between two,
        # so the support window is shifted against or clipped by the box walls
        g = CartesianGrid(2, half_width, cells)
        if both_walls:
            along = (gap, cells - gap)
        elif high:
            along = (cells - gap - width, cells - gap)
        else:
            along = (gap, gap + width)
        mid = cells // 2 - across // 2
        bounds = [along, (mid, mid + across)]
        if transpose:
            bounds.reverse()
        block = tuple(slice(lo, hi) for lo, hi in bounds)
        vals = np.zeros(g.shape)
        vals[block] = np.random.default_rng(seed).random(vals[block].shape)
        assert any(w.start == 0 or w.stop == cells for w in _support_window(vals))
        u0 = DensityField(g, vals)
        cfg = SolverConfig(output_times=(0.1,), cfl=cfl)
        fields = []
        traj = run(cfg, u0, at_output=lambda t, u: fields.append(u))
        assert traj.mass_drift() <= 1e-12
        assert min(float(f.values.min()) for f in fields) >= 0.0
        assert traj.clipped_mass <= 1e-12 * total_mass(u0)

    @settings(max_examples=25, deadline=None)
    @given(cfl=st.floats(0.05, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_support_grows_at_most_one_cell_per_stage(self, cfl, seed):
        # the MC stencil reaches one cell past supp u per stage, so the bounding box
        # of u > 0 grows by at most STAGES cells per step on each side, which is the
        # support window's halo
        g = CartesianGrid(2, 4.0, 32)
        rng = np.random.default_rng(seed)
        lo = rng.integers(10, 15, size=2)
        hi = lo + rng.integers(1, 8, size=2)
        vals = np.zeros(g.shape)
        vals[lo[0]:hi[0], lo[1]:hi[1]] = rng.random((hi - lo).tolist())
        cfg = SolverConfig(output_times=(0.5,), cfl=cfl)

        def bbox(u):
            idx = np.nonzero(u > 0.0)
            return np.array([i.min() for i in idx]), np.array([i.max() for i in idx])

        for _ in range(3):
            new = _step(g, vals, cfg.t_end, cfg)[1]
            (lo0, hi0), (lo1, hi1) = bbox(vals), bbox(new)
            assert (lo0 - lo1).max() <= STAGES and (hi1 - hi0).max() <= STAGES
            vals = new


class TestTransport:
    @staticmethod
    def check_against_reference(n, shape, seed, dt, nan, strip):
        # swept in row blocks of a few cells, so a block spans several; a NaN cell
        # spreads exactly as far as in the reference: the limiter's zero branch keeps
        # the slopes next to it zero.  Subnormal cells catch a scaling by two folded into
        # another, which is exact only in the normal range; -0 cells and the signs of
        # every zero must match too, and so must a step into a stage register's old values
        g = CartesianGrid(n, 1.0, 32)
        rng = np.random.default_rng(seed)
        vals = rough_field(rng, shape)
        sub = rng.random(shape) < 0.15
        vals[sub] = rng.integers(1, 2**52, size=int(sub.sum())) * 5e-324
        vals[rng.random(shape) < 0.05] = -0.0
        if nan:
            vals[tuple(rng.integers(cells) for cells in shape)] = np.nan
        faces = [rng.normal(size=face) * (rng.random(face) < 0.8) for face in face_shapes(shape)]
        with np.errstate(invalid="ignore"), mock.patch.object(potentials, "STRIP_CELLS", strip):
            if strip < vals.size and shape[0] > 1:  # the patched constant is the one read
                assert len(_row_blocks(vals)[1]) > 1
            got, want = _advance(g, vals, cell_faces(faces), dt), reference_advance(g, vals, faces, dt)
            into = _advance(g, vals, cell_faces(faces), dt, out=np.full(shape, 7.0))
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(into, got, equal_nan=True) and np.array_equal(np.signbit(into), np.signbit(got))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        dt=st.floats(1e-6, 0.05),
        nan=st.booleans(),
        strip=st.integers(1, 64),
        data=st.data(),
    )
    def test_matches_moveaxis_formulation(self, n, seed, dt, nan, strip, data):
        shape = tuple(data.draw(st.integers(1, 40)) for _ in range(n))
        self.check_against_reference(n, shape, seed, dt, nan, strip)

    # one-row strips, blocks of fewer rows than axis 0's two-row halo, 1 x N and N x 1
    # blocks, and lines of one to three cells along either axis
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (3,), (40,), (1, 1), (1, 17), (17, 1), (2, 9), (3, 9), (5, 2), (6, 3), (9, 40)]
    )
    @pytest.mark.parametrize("strip", [1, 9, 40, 10**6])
    @pytest.mark.parametrize("nan", [False, True])
    def test_edge_blocks_match_moveaxis_formulation(self, shape, strip, nan):
        for seed in range(4):
            self.check_against_reference(len(shape), shape, seed, 0.03, nan, strip)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        nan=st.booleans(),
        strip=st.integers(1, 64),
        data=st.data(),
    )
    def test_stable_dt_matches_per_axis_reference(self, n, seed, nan, strip, data):
        # the same bound, bit for bit, in row blocks of any size; zero faces, zero
        # blocks (no bound) and a NaN face (no bound either, so the step fails later)
        g = CartesianGrid(n, 1.0, 32)
        shape = tuple(data.draw(st.integers(1, 40)) for _ in range(n))
        rng = np.random.default_rng(seed)
        faces = [rng.normal(size=face) * (rng.random(face) < 0.7) for face in face_shapes(shape)]
        if nan and faces[-1].size:
            faces[-1].reshape(-1)[rng.integers(faces[-1].size)] = np.nan
        with mock.patch.object(potentials, "STRIP_CELLS", strip):
            got = _stable_dt(g, cell_faces(faces), 0.45)
        assert got == reference_stable_dt(g, faces, 0.45)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_transpose(self, seed, data):
        # each axis sweep is the other's transpose bit for bit; with both components
        # nonzero the two sweeps add into a cell in the other order, so that case
        # agrees to rounding only
        g = CartesianGrid(2, 1.0, 32)
        shape = (data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40)))
        rng = np.random.default_rng(seed)
        vals = rough_field(rng, shape)
        vx, vy = (rng.normal(size=face) for face in face_shapes(shape))
        advance = lambda vals, faces: _advance(g, vals, cell_faces(faces), 0.01)
        for faces in ((vx, np.zeros_like(vy)), (np.zeros_like(vx), vy)):
            swapped = (faces[1].T, faces[0].T)
            assert np.array_equal(advance(vals.T, swapped), advance(vals, faces).T)
        both = advance(vals, (vx, vy))
        assert np.abs(advance(vals.T, (vy.T, vx.T)) - both.T).max() <= 1e-15 * max(1.0, np.abs(both).max())

    def test_nan_cell_raises(self):
        g = CartesianGrid(2, 2.0, 32)
        vals = np.zeros(g.shape)
        vals[12:20, 12:20] = 1.0
        vals[15, 16] = np.nan
        cfg = SolverConfig(output_times=(0.1,))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            _step(g, vals, 0.1, cfg)


class TestAllocationBudget:
    # numpy reports its buffers to tracemalloc, so these peaks are deterministic;
    # the bounds are in units of the block's own bytes
    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_velocity_solve_and_transport(self):
        # the solve is one potential, left in its table's buffer, and its differences
        # onto the faces; the transport's temporaries are strips of about STRIP_CELLS cells
        g = CartesianGrid(2, 4.0, 384)
        vals = np.exp(-g.radius() ** 2)
        faces = _face_velocities(g, vals, 1.0)  # builds and caches the kernel table
        solve = self.peak_bytes(lambda: _face_velocities(g, vals, 1.0))
        advance = self.peak_bytes(lambda: _advance(g, vals, faces, 1e-3))
        assert solve <= 2.5 * vals.nbytes
        assert advance <= 2 * vals.nbytes

    def test_step_and_its_cfl_bound(self):
        # the cell speeds are summed and reduced row block by row block, so the bound
        # takes no block-sized array; each later stage's face velocities take the first
        # stage's arrays
        g = CartesianGrid(2, 4.0, 384)
        vals = np.exp(-g.radius() ** 2)
        faces = _face_velocities(g, vals, 1.0)
        cfg = SolverConfig(output_times=(1.0,))
        assert self.peak_bytes(lambda: _stable_dt(g, faces, cfg.cfl)) <= 2 * vals.nbytes
        assert self.peak_bytes(lambda: _stable_dt(g, faces, cfg.cfl)) <= vals.nbytes
        assert self.peak_bytes(lambda: _step(g, vals, 1e-3, cfg)) <= 5 * vals.nbytes

    def test_full_diagnostics_record(self):
        # every solve stays in the table's buffer; each reference bump is built on its
        # disk's box and its window-shaped block is gone before G_h u is solved, and the
        # dissipation reads the faces that the record returns without copying them
        g = CartesianGrid(2, 4.0, 384)
        u = DensityField(g, np.exp(-g.radius() ** 2))
        mass = total_mass(u)
        record = lambda: _output_record(u, 0.1, 1.0, mass, True)
        record()  # builds and caches the kernel table
        assert self.peak_bytes(record) <= 4 * u.values.nbytes

    def test_full_diagnostics_run(self):
        # a whole run: the last output's field, one kernel table with its buffer, the
        # steps and the full diagnostics records
        g = CartesianGrid(2, 2.56, 192)
        width_sq = 1.0 / (4 * pi)
        u0 = field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq)))
        cfg = SolverConfig(output_times=(0.25, 0.5), diagnostics="full")
        assert self.peak_bytes(lambda: run(cfg, u0)) <= 18 * u0.values.nbytes

    def test_run_peak_does_not_grow_with_its_outputs(self):
        # a run holds no field of an earlier output, so a whole-box run with sixteen
        # outputs peaks where the same run with two does
        g = CartesianGrid(2, 2.56, 192)
        width_sq = 1.0 / (4 * pi)
        u0 = field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq)))

        def outputs(count):
            times = tuple(0.5 * k / count for k in range(1, count + 1))
            return SolverConfig(output_times=times, diagnostics="full")

        two, sixteen = outputs(2), outputs(16)
        run(two, u0)  # builds and caches the kernel table
        assert _support_window(u0.values) == (slice(0, 192),) * 2
        peak_two = self.peak_bytes(lambda: run(two, u0))
        peak_sixteen = self.peak_bytes(lambda: run(sixteen, u0))
        assert peak_sixteen <= peak_two + 0.5 * u0.values.nbytes

    @pytest.mark.parametrize("name", ["asymptotics", "vortex-patch", "non-comparison",
                                      "dirac-fundamental"])
    def test_closed_form_fields(self, name, tmp_path):
        # a closed-form field is its radial form on one squared-radius array, with no point
        # array: a builder's initial data is copied once more by DensityField, and the Dirac
        # run's comparison at an output takes its exact field and one difference
        scenario = scenarios.REGISTRY[name]
        params = {**scenario.defaults, "cells": 384}
        build = lambda: scenario.build(params)
        if name == "dirac-fundamental":
            inputs = build()
            u = DensityField(inputs["u0"].grid, np.full(inputs["u0"].grid.shape, 0.5))

            def run(cfg, u0, at_output):  # the run's output hook, on one field at t = 1
                raise StopIteration(self.peak_bytes(lambda: at_output(1.0, u)))

            with mock.patch.object(solver, "run", run), pytest.raises(StopIteration) as stop:
                scenario.runner(params, tmp_path, **inputs)
            peak = stop.value.value
        else:
            build()
            peak = self.peak_bytes(build)
        assert peak <= 3.5 * 384**2 * 8


class TestSweep:
    def test_single_member_distance_zero(self):
        g = CartesianGrid(2, 4.0, 64)
        cfg = SolverConfig(output_times=(0.25,))
        rep = sweep_s(cfg, patch_field(g), [1.0])
        assert rep.distances == [0.0]
        assert rep.nonincreasing

    def test_requires_unit_exponent(self):
        g = CartesianGrid(2, 4.0, 64)
        cfg = SolverConfig(output_times=(0.25,))
        with pytest.raises(ConfigError):
            sweep_s(cfg, patch_field(g), [0.5, 0.8])

    def test_rejects_repeated_exponent(self):
        g = CartesianGrid(2, 4.0, 32)
        cfg = SolverConfig(output_times=(0.1,))
        with pytest.raises(ConfigError, match="none repeated"):
            sweep_s(cfg, patch_field(g), [0.85, 1.0, 0.85])

    def test_failing_member_keeps_partial_report(self):
        g = CartesianGrid(2, 4.0, 32)
        cfg = SolverConfig(output_times=(0.1,))
        rep = sweep_s(cfg, patch_field(g), [0.0, 1.0])  # s = 0 is rejected by replace
        assert rep.partial
        assert set(rep.errors) == {0.0} and "ConfigError" in rep.errors[0.0]
        assert rep.distances == [None, 0.0]

    def test_distances_nonincreasing_in_s(self):
        g = CartesianGrid(2, 4.0, 96)
        cfg = SolverConfig(output_times=(0.5,))
        rep = sweep_s(cfg, patch_field(g), [0.7, 0.85, 1.0])
        assert rep.nonincreasing
        assert rep.distances[0] > rep.distances[1] > 0.0
        assert not rep.partial


class TestOneDimension:
    def test_interval_run_conserves_and_decays(self):
        # n=1: even interval data; the mass transform needs no symmetry assumption
        g = CartesianGrid(1, 4.0, 256)
        x = g.axis_centers()
        u0 = DensityField(g, (np.abs(x) <= 1.0).astype(float))
        cfg = SolverConfig(output_times=(0.5, 1.0))
        traj = run(cfg, u0)
        assert traj.mass_drift() <= 1e-12
        assert traj.max_bound_ratio() <= 1.05
        # outside the support the s = 1 face speed is M/2 at every stage, so a stage's
        # CFL limit is u^n's up to rounding and the step stands
        assert traj.stage_redos == 0
        # interval patch: height 1/(t+1), support |x| <= (1+t)
        assert traj.records[-1].linf_norm == pytest.approx(0.5, abs=0.03)
        assert support_radius(traj.last) == pytest.approx(2.0, abs=0.1)


class TestEnergyDissipationIdentity:
    def test_energy_decay_rate_matches_velocity_integral(self):
        # away from t=0 the discrete energy decay rate tracks -2 int u |grad p|^2, summed
        # over the faces with u averaged to each face
        g = CartesianGrid(2, 2.56, 128)
        width_sq = 1.0 / (4 * pi)
        u0 = field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq)))
        cfg = SolverConfig(
            output_times=(0.5, 0.75, 1.0, 1.25, 1.5, 2.0),
            cfl=0.45, diagnostics="full",
        )
        fields = []
        traj = run(cfg, u0, at_output=lambda t, u: fields.append(u))
        recs = traj.records
        for k in range(2, len(recs) - 1):
            rate = (recs[k + 1].energy - recs[k - 1].energy) / (recs[k + 1].t - recs[k - 1].t)
            u = fields[k].values
            flux = 0.0
            for axis, xi in enumerate(interior_faces(_face_velocities(g, u, 1.0))):
                lines, xi = np.moveaxis(u, axis, -1), np.moveaxis(xi, axis, -1)
                flux += float((0.5 * (lines[..., :-1] + lines[..., 1:]) * xi**2).sum())
            target = -2.0 * g.cell_volume * flux
            assert rate == pytest.approx(target, rel=0.10)


class TestOrderOfAccuracy:
    # the observed orders of the scheme on a 64/128/256 ladder: a first-order
    # (zero-slope) reconstruction gives about 0.5 and 1.0 and fails both bounds
    LADDER = (64, 128, 256)

    @staticmethod
    def orders(errors):
        return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]

    def test_patch_l1_order(self):
        # expanding patch R0 = 1, tau = 1 to t = 3: a contact discontinuity, where a
        # second-order scheme converges at about 2/3
        spec = PatchSpec(2, radius=1.0, tau=1.0)
        errors = []
        for cells in self.LADDER:
            g = CartesianGrid(2, 4.0, cells)
            traj = run(SolverConfig(output_times=(3.0,)), patch_field(g))
            exact = patch_field(g, t=3.0)
            diff = np.abs(traj.last.values - exact.values).sum()
            errors.append(g.cell_volume * float(diff) / spec.full_mass())
        assert min(self.orders(errors)) >= 0.6, (errors, self.orders(errors))

    def test_virial_line_order(self):
        # smooth Gaussian data: deviation of the second moment from the exact virial
        # line m2(0) + t M^2 / (2 pi) at outputs 1, 2, 3
        errors = []
        for cells in self.LADDER:
            g = CartesianGrid(2, 2.56, cells)
            width_sq = 1.0 / (4 * pi)
            u0 = field_from_function(g, lambda p: 2.0 * np.exp(-(p**2).sum(axis=-1) / (2 * width_sq)))
            traj = run(SolverConfig(output_times=(1.0, 2.0, 3.0)), u0)
            mass = total_mass(u0)
            m2 = traj.records[0].second_moment
            errors.append(max(abs(r.second_moment - (m2 + r.t * mass**2 / (2 * pi))) / m2
                              for r in traj.records))
        assert min(self.orders(errors)) >= 1.5, (errors, self.orders(errors))


class TestDiscreteEnergyLaw:
    # E_h = 1/2 h^n sum u p, p = G_h * u, with face velocities xi = -(p[i+1] - p[i]) / h.
    # Summation by parts gives h^n sum p L(u) = -h^n sum_faces xi F for the transport
    # operator L(u) = -div_h F, and xi F = xi+^2 u_L + xi-^2 u_R >= 0 because the MC
    # face values u_L, u_R lie between neighbouring cell values, so they are >= 0
    @staticmethod
    def field(n, seed, data):
        g = CartesianGrid(n, 1.0, 24)
        shape = tuple(data.draw(st.integers(2, 24 - 2 * WINDOW_HALO)) for _ in range(n))
        return g, rough_field(np.random.default_rng(seed), shape)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2]), s=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_summation_by_parts(self, n, s, seed, data):
        g, vals = self.field(n, seed, data)
        p = potential_values(g, vals, s)
        faces = _face_velocities(g, vals, s)
        rate = _advance(g, vals, faces, 1.0) - vals  # L(u) at dt = 1
        work = [
            np.moveaxis(xi, axis, 0) * reference_flux(vals, xi, axis) for axis, xi in enumerate(interior_faces(faces))
        ]
        lhs = float((p * rate).sum())
        rhs = -sum(float(w.sum()) for w in work)
        # rounding of both sums: the potential's offset multiplies the cancellation in L(u)
        tol = 1e-12 * (sum(float(np.abs(w).sum()) for w in work) + np.abs(p).max() * (np.abs(rate) + vals).sum())
        assert abs(lhs - rhs) <= tol
        assert lhs <= tol

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        s=st.floats(0.3, 1.0),
        cfl=st.floats(0.05, 0.45),
        rim=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_ssp_step_energy_rise_bound(self, n, s, cfl, rim, seed, data):
        # E_h is the quadratic form 1/2 <u, A u> of the symmetric A = h^n G_h, and the
        # SSPRK(m, 2) step (m = STAGES) is u + dt/m (L_0 + ... + L_{m-1}), with L_k = L(u_k)
        # at the stages u_0 = u, u_{k+1} = u_k + tau L_k, tau = dt/(m - 1).  Writing
        # <L_k, A u> = <L_k, A u_k> - tau sum_{j<k} <L_k, A L_j> and expanding the form exactly,
        #     E_h(u_new) - E_h(u) = dt/m sum_k h^n sum L_k p(u_k)
        #                           + dt^2 / (2 m^2 (m - 1)) sum_{j<k} Q(L_j - L_k),
        # with Q(d) = h^n sum d (G_h * d); at m = 2 the last term is the two-stage step's
        # dt^2/8 Q(L_0 - L_1).  Every first-order term is <= 0 by summation by parts, so
        # the energy rises by at most the second-order term, which vanishes as the L_k
        # differ by O(dt) for smooth data.  Summation by parts needs u_k >= 0: below cfl
        # 1/2 each stage keeps that inside its own CFL bound, which the step checks, so
        # this holds with the zero rim of WINDOW_HALO cells that `_step` gives a block
        # and without it, where the data reaches the block's edge and a stage can outrun
        # the bound of u's faces.
        g, vals = self.field(n, seed, data)
        if rim:
            vals = np.pad(vals, WINDOW_HALO)
        cv = g.cell_volume
        energy = lambda v: 0.5 * cv * float((v * potential_values(g, v, s)).sum())
        cfg = SolverConfig(output_times=(1.0,), s=s, cfl=cfl)
        dt, new, clipped, _ = _ssp_update(g, vals, 1.0, cfg)  # 1.0 as run() clamps a step to the output time
        tau = dt / (STAGES - 1)
        stages, rates = [vals], []
        for _ in range(STAGES):
            u = stages[-1]
            rates.append((_advance(g, u, _face_velocities(g, u, s), tau) - u) / tau)
            stages.append(u + tau * rates[-1])
        assert clipped == 0.0 and min(u.min() for u in stages) >= 0.0
        q = lambda d: cv * float((d * potential_values(g, d, s)).sum())
        pairs = sum(q(rates[j] - rates[k]) for k in range(STAGES) for j in range(k))
        rise_bound = dt**2 / (2 * STAGES**2 * (STAGES - 1)) * pairs
        offset = max(np.abs(potential_values(g, v, s)).max() for v in (vals, new))
        tol = 1e-12 * cv * offset * vals.sum()
        assert energy(new) - energy(vals) <= rise_bound + tol


class TestStagePositivity:
    # every stage of a step is a forward-Euler step inside the CFL bound of its own
    # faces, so a block whose data reaches its edge (no zero rim, as `_step` gives one
    # only away from the box wall) keeps u >= 0 and the clip takes nothing

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.floats(0.3, 1.0),
        cfl=st.floats(0.05, 0.45),
        vals=st.integers(1, 2).flatmap(lambda n: arrays(
            float, array_shapes(min_dims=n, max_dims=n, min_side=1, max_side=20),
            elements=st.floats(0.0, 1.0))),
    )
    @example(s=0.375, cfl=0.25, vals=np.array([0.732, 0.710]))
    def test_rimless_block_step_clips_nothing(self, s, cfl, vals):
        g = CartesianGrid(vals.ndim, 1.0, 24)  # h = 1/12
        cfg = SolverConfig(output_times=(1.0,), s=s, cfl=cfl)
        _, new, clipped, _ = _ssp_update(g, vals, 1.0, cfg)
        assert clipped == 0.0
        assert new.min() >= 0.0

    def test_stage_over_its_bound_redoes_the_step(self):
        # this block's first stage overshoots to about [0.55, 0.89], whose faces are
        # far faster than u's: the step is redone from u at the stage's bound
        g = CartesianGrid(1, 1.0, 24)
        vals = np.array([0.732, 0.710])
        cfg = SolverConfig(output_times=(1.0,), s=0.375, cfl=0.25)
        faces = _face_velocities(g, vals, cfg.s)
        dt, new, clipped, redos = _ssp_update(g, vals, 1.0, cfg)
        assert redos >= 1
        assert dt < (STAGES - 1) * _stable_dt(g, faces, cfg.cfl)
        assert clipped == 0.0 and new.min() >= 0.0
        assert new.sum() == pytest.approx(vals.sum(), rel=1e-14)
        # the redo starts from u's own faces again: it is the step at its final dt, and
        # so is a step handed u's faces (as a full record hands them)
        for handed in (None, faces):
            again = _ssp_update(g, vals, dt, cfg, handed)
            assert (again[0], again[1].tobytes(), again[3]) == (dt, new.tobytes(), 0)

    def test_run_counts_redos(self, monkeypatch):
        # the trajectory adds up the redos of its steps and reports them
        ssp_update = solver._ssp_update
        monkeypatch.setattr(solver, "_ssp_update", lambda *args: (*ssp_update(*args)[:3], 2))
        g = CartesianGrid(2, 4.0, 32)
        traj = run(SolverConfig(output_times=(0.2,)), patch_field(g))
        assert traj.stage_redos == 2 * traj.steps > 0
        assert traj.summary()["stage_redos"] == traj.stage_redos

    def test_window_halo_is_one_cell_per_stage(self):
        assert WINDOW_HALO == STAGES
