import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_grids import reference_write_csv

import vortexlab
from vortexlab import scenarios
from vortexlab.cli import main
from vortexlab.closed_forms import PatchSpec, TwoPatchSpec, patch_density, two_patch_state
from vortexlab.grids import CartesianGrid, field_from_function, read_grid_array, total_mass
from vortexlab.scenarios import (
    COUPLING_SLACK,
    MONOTONE_SLACK,
    ORDERING_SLACK,
    REGISTRY,
    ScenarioSpec,
    _at_least,
    _entropy_scale,
    _monotone_checks,
    catalog,
    list_scenarios,
    run_scenario,
    validate_config,
)


SMALL_PATCH = {"cells": 64, "t_end": 0.5, "output_times": [0.25, 0.5]}


class TestRegistry:
    def test_nine_scenarios(self):
        assert len(REGISTRY) == 9
        assert len(list_scenarios()) == 9

    def test_catalog_is_json_ready(self):
        entries = catalog()
        text = json.dumps(entries)
        assert all({"name", "section", "summary", "defaults"} <= set(e) for e in entries)
        assert "vortex-patch" in text

    def test_section_six_subset(self):
        names = {sc.name for sc in list_scenarios(section=6)}
        assert names == {"two-patch", "non-comparison", "barenblatt-limit", "vortex-patch"}


class TestValidateConfig:
    def test_default_configs_validate(self):
        for name, sc in REGISTRY.items():
            assert validate_config({"scenario": name, "params": {}}) == []
            assert validate_config({"scenario": name, "params": dict(sc.defaults)}) == []

    def test_unknown_scenario(self):
        errs = validate_config({"scenario": "nope"})
        assert errs and "unknown scenario" in errs[0]

    def test_unknown_parameter_located(self):
        errs = validate_config({"scenario": "vortex-patch", "params": {"shape": 3}})
        assert errs == ["params.shape: unknown parameter"]

    def test_type_mismatch_located(self):
        errs = validate_config({"scenario": "vortex-patch", "params": {"cells": "many"}})
        assert errs and errs[0].startswith("params.cells")

    def test_float_for_int_rejected(self):
        # a float cell count used to reach the grid builder and raise a TypeError
        errs = validate_config({"scenario": "vortex-patch", "params": {"cells": 64.0}})
        assert errs == ["params.cells: expected int, got float"]
        errs = validate_config({"scenario": "two-patch", "params": {"fv_nodes": [256, 512.0]}})
        assert errs == ["params: fv_nodes entries must be integers"]
        assert validate_config({"scenario": "vortex-patch", "params": {"radius": 1}}) == []

    def test_box_too_small_names_the_rule(self):
        errs = validate_config(
            {"scenario": "vortex-patch", "params": {"half_width": 1.5, "cells": 64}}
        )
        assert errs and "support growth bound" in errs[0]

    def test_bad_cfl_rejected(self):
        errs = validate_config({"scenario": "vortex-patch", "params": {"cfl": -0.5}})
        assert errs and "cfl" in errs[0]

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": "vortex-patch",,}')
        errs = validate_config(path)
        assert errs and errs[0].startswith("json: line")

    def test_dirac_box_too_small_names_the_rule(self):
        errs = validate_config(
            {"scenario": "dirac-fundamental", "params": {"half_width": 1.5, "cells": 64}}
        )
        assert errs and "support growth bound" in errs[0]

    def test_dirac_mass_below_its_resolution_names_the_mass(self):
        errs = validate_config({"scenario": "dirac-fundamental", "params": {"cells": 32, "mass": 1e-300}})
        assert len(errs) == 1 and "mass 1e-300" in errs[0] and "cells in radius" in errs[0]

    def test_unknown_transport_rejected(self, tmp_path):
        cfg = {"scenario": "asymptotics", "params": {"transport": "upstream"}}
        errs = validate_config(cfg)
        assert errs and "transport" in errs[0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", str(path)]) == 2

    def test_output_times_window(self, tmp_path):
        errs = validate_config(
            {"scenario": "vortex-patch", "params": {"output_times": [5.0], "t_end": 3.0}}
        )
        assert errs and "output_times" in errs[0]
        errs = validate_config({"scenario": "vortex-patch", "params": {"output_times": [None]}})
        assert errs and errs[0].startswith("params:")
        errs = validate_config(
            {"scenario": "vortex-patch", "params": {"output_times": [0.5, float("nan"), 3.0]}}
        )
        assert errs and "output_times must be finite" in errs[0]
        # a run stopping before t_end would be compared with the closed form at t_end
        path = tmp_path / "short.json"
        path.write_text(json.dumps(
            {"scenario": "vortex-patch", "params": {"cells": 64, "t_end": 1.0, "output_times": [0.5]}}
        ))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["s-sweep", "non-comparison"])
    def test_bad_t_end_is_named_t_end(self, tmp_path, capsys, name, t_end):
        # these scenarios have no output_times: their one output time is t_end
        cfg = {"scenario": name, "params": {"t_end": t_end}}
        errs = validate_config(cfg)
        assert len(errs) == 1 and "t_end must be" in errs[0] and "output_times" not in errs[0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "t_end must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg", [
        {"scenario": "vortex-patch", "params": {**SMALL_PATCH, "radius": float("nan")}},
        {"scenario": "vortex-patch", "params": {**SMALL_PATCH, "output_times": [0.25, float("nan"), 0.5]}},
        {"scenario": "dirac-fundamental", "params": {"half_width": 1.5, "cells": 64}},
        {"scenario": "vortex-patch", "params": {**SMALL_PATCH, "cfl": 1.5}},
        {"scenario": "wasserstein-oracle", "params": {"r_max": float("nan")}},
        {"scenario": "asymptotics", "params": {"radial_times": [1.0, float("nan"), 5.0]}},
        {"scenario": "two-patch", "params": {"fv_time": float("nan")}},
        {"scenario": "barenblatt-limit", "params": {"r_max": float("nan")}},
        {"scenario": "wasserstein-oracle", "params": {"pairs": 2.5}},
        {"scenario": "two-patch", "params": {"fv_nodes": [256.5, 512]}},
        {"scenario": "wasserstein-oracle", "params": {"r_max": -1.0}},
        {"scenario": "wasserstein-oracle", "params": {"nodes": 1}},
        {"scenario": "barenblatt-limit", "params": {"mass": -1.0}},
        {"scenario": "barenblatt-limit", "params": {"s_values": [0.6, 1.2]}},
        {"scenario": "two-patch", "params": {"fv_time": -1.0}},
        {"scenario": "two-patch", "params": {"r1": 2.5}},
        {"scenario": "two-patch", "params": {"sigma_max": -1.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_nodes": 4}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_times": [50.0, 1.0]}},
        {"scenario": "radial-vs-field", "params": {"cells": 32, "radial_nodes": 4}},
        {"scenario": "two-patch", "params": {"fv_nodes": []}},
        {"scenario": "two-patch", "params": {"check_times": []}},
        {"scenario": "barenblatt-limit", "params": {"s_values": []}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_times": []}},
        {"scenario": "barenblatt-limit", "params": {"s_values": [0.9]}},
        {"scenario": "s-sweep", "params": {"cells": 32, "s_values": [1.0]}},
        {"scenario": "wasserstein-oracle", "params": {"pairs": 0}},
        {"scenario": "wasserstein-oracle", "params": {"triples": 0}},
        {"scenario": "two-patch", "params": {"fv_nodes": [256]}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_times": [5.0]}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_times": [1.0, 1.0, 5.0]}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_times": [0.0, 5.0]}},
        {"scenario": "wasserstein-oracle", "params": {"atoms": 0}},
        {"scenario": "s-sweep", "params": {"cells": 32, "s_values": [0.85, 1.0, 1.2]}},
        {"scenario": "non-comparison", "params": {"cells": 32, "small_radius": -0.1}},
        {"scenario": "dirac-fundamental", "params": {"cells": 32, "mass": 0.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "peak": 0.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_width_sq": 0.0}},
        {"scenario": "barenblatt-limit", "params": {"r_max": -1.0}},
        {"scenario": "barenblatt-limit", "params": {"radial_points": 1}},
        {"scenario": "dirac-fundamental", "params": {"cells": 32, "mass": -1.0}},
        {"scenario": "barenblatt-limit", "params": {"s_values": [0.6, 0.6]}},
        {"scenario": "s-sweep", "params": {"cells": 32, "s_values": [0.85, 0.85, 1.0]}},
        {"scenario": "s-sweep", "params": {"cells": 32, "s_values": [5e-324, 1.0]}},
        {"scenario": "vortex-patch", "params": {"cells": 32, "radius": 0.001}},
        {"scenario": "radial-vs-field", "params": {"cells": 32, "radius": 0.001}},
        {"scenario": "s-sweep", "params": {"cells": 32, "radius": 0.001}},
        {"scenario": "non-comparison", "params": {"cells": 32, "small_radius": 0.001}},
        {"scenario": "asymptotics", "params": {"cells": 32, "mass": 1e-300}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_mass": 0.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_nodes": 16}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_r_max": 1.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_width_sq": 2.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_width_sq": 20.0}},
        {"scenario": "asymptotics",
         "params": {"cells": 32, "radial_times": [1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 120.0]}},
        {"scenario": "two-patch", "params": {"check_times": [1.0, 10.0]}},
        {"scenario": "dirac-fundamental", "params": {"cells": 64, "cfl": 0.45}},
        {"scenario": "asymptotics", "params": {"cells": 32, "rate_tol": 1e-3}},
        {"scenario": "two-patch", "params": {"check_times": [3.0, 1.0]}},
        {"scenario": "two-patch", "params": {"check_times": [1.0, 1.0]}},
        {"scenario": "asymptotics",
         "params": {"cells": 64, "output_times": [0.25, 0.5, 0.5, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]}},
        {"scenario": "vortex-patch", "params": {"cells": 32, "output_times": [3.0, 1.0, 2.0]}},
        {"scenario": "vortex-patch", "params": {"cells": 32, "t_end": 1.0, "output_times": [0.5]}},
        {"scenario": "dirac-fundamental", "params": {"cells": 64, "half_width": 2.2e-300}},
        {"scenario": "dirac-fundamental", "params": {"cells": 64, "half_width": 1e-320}},
        {"scenario": "asymptotics", "params": {"cells": 32, "mass": 0.0}},
        {"scenario": "asymptotics", "params": {"cells": 32, "mass": 1e-320}},
        {"scenario": "dirac-fundamental", "params": {"cells": 32, "mass": 1e-300}},
        {"scenario": "two-patch", "params": {"r1": 5e-324}},
        {"scenario": "asymptotics", "params": {"radial_r_max": 5e-324, "cells": 64}},
        {"scenario": "two-patch", "params": {"c1": 2.2e-300}},
        {"scenario": "two-patch", "params": {"sigma_max": 1e300}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_width_sq": 1e-320}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_width_sq": 1e-308}},
        {"scenario": "asymptotics", "params": {"cells": 32, "radial_mass": 1e300, "radial_width_sq": 1e-10}},
    ], ids=["nan-radius", "nan-output-time", "dirac-box-too-small", "cfl-violation",
            "oracle-nan-r-max", "asymptotics-nan-radial-time", "two-patch-nan-fv-time",
            "barenblatt-nan-r-max", "oracle-float-pairs", "two-patch-float-fv-nodes",
            "oracle-negative-r-max", "oracle-one-node", "barenblatt-negative-mass",
            "barenblatt-s-above-one", "two-patch-negative-fv-time", "two-patch-unordered-radii",
            "two-patch-negative-sigma-max", "asymptotics-few-radial-nodes",
            "asymptotics-decreasing-radial-times", "radial-vs-field-few-radial-nodes",
            "two-patch-empty-fv-nodes", "two-patch-empty-check-times", "barenblatt-empty-s-values",
            "asymptotics-empty-radial-times", "barenblatt-one-exponent", "s-sweep-one-exponent",
            "oracle-zero-pairs", "oracle-zero-triples", "two-patch-one-fv-grid",
            "asymptotics-one-radial-time", "asymptotics-repeated-radial-time",
            "asymptotics-zero-radial-time", "oracle-zero-atoms", "s-sweep-s-above-one",
            "non-comparison-negative-small-radius", "dirac-zero-mass", "asymptotics-zero-peak",
            "asymptotics-zero-radial-width-sq", "barenblatt-negative-r-max",
            "barenblatt-one-radial-point", "dirac-negative-mass", "barenblatt-repeated-s-values",
            "s-sweep-repeated-s-values", "s-sweep-subnormal-s", "vortex-patch-massless-patch",
            "radial-vs-field-massless-patch", "s-sweep-massless-patch",
            "non-comparison-massless-small-patch", "asymptotics-massless-gaussian",
            "asymptotics-zero-radial-mass", "asymptotics-coarse-radial-grid-leaks",
            "asymptotics-short-radial-grid-leaks", "asymptotics-wide-gaussian-leaks",
            "asymptotics-wider-gaussian-leaks", "asymptotics-late-radial-time-leaks",
            "two-patch-late-check-time-leaks", "field-scenario-cfl", "asymptotics-rate-tol",
            "two-patch-unsorted-check-times", "two-patch-repeated-check-times",
            "asymptotics-repeated-output-times", "vortex-patch-unsorted-output-times",
            "vortex-patch-output-times-short-of-t-end", "dirac-cell-volume-underflows",
            "dirac-subnormal-half-width", "asymptotics-zero-mass", "asymptotics-subnormal-mass",
            "dirac-mass-below-its-resolution", "two-patch-annulus-height-underflows",
            "asymptotics-radial-spacing-underflows", "two-patch-nothing-moves-by-fv-time",
            "two-patch-radial-spacing-squared-overflows", "asymptotics-subnormal-radial-width-sq",
            "asymptotics-radial-exponent-overflows", "asymptotics-radial-height-overflows"])
    def test_bad_config_run_exits_2_without_report(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(out)]) == 2
            assert not list(out.rglob("report.json"))
            assert main(["validate", str(path)]) == 2
        # a bad value is rejected by a rule, not by an accident of arithmetic such as
        # a complex square root cast back to float or a numpy division by zero
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestRadialFields:
    # every closed-form field the scenarios build on the squared radii has the bits of the
    # same closed form evaluated on the point array of the cell centers
    @settings(max_examples=60, deadline=None)
    @given(cells=st.integers(4, 48).map(lambda k: 2 * k), half_width=st.floats(0.5, 8.0),
           center=st.one_of(st.just("half-cell"), st.tuples(*[st.floats(-3.0, 3.0)] * 2)),
           radius=st.floats(0.05, 3.0), tau=st.floats(0.0, 4.0), t=st.floats(1e-3, 5.0),
           r1=st.floats(0.1, 2.0), gaps=st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
           peak=st.floats(0.1, 10.0), width_sq=st.floats(1e-3, 4.0))
    def test_radial_fields_are_the_point_fields(self, cells, half_width, center, radius, tau, t,
                                               r1, gaps, peak, width_sq):
        g = CartesianGrid(2, half_width, cells)
        if center == "half-cell":  # the live cell of dirac-fundamental
            center = (g.h / 2, g.h / 2)

        def points(fn):
            return field_from_function(g, fn).values

        patch = PatchSpec(2, radius=radius, tau=tau)
        off = PatchSpec(2, radius=radius, tau=tau, center=center)
        assert np.array_equal(scenarios._patch_values(g, patch, t),
                              points(lambda p: patch_density(patch, p, t)))
        assert np.array_equal(scenarios._patch_values(g, off, t),
                              points(lambda p: patch_density(off, p, t)))
        # the same as the origin-centred patch at the points shifted by the centre
        assert np.array_equal(scenarios._patch_values(g, off, t),
                              points(lambda p: patch_density(patch, p - np.array(center), t)))
        two = TwoPatchSpec(2, 1.0, r1, r1 + gaps[0], r1 + gaps[0] + gaps[1])
        density = vortexlab.closed_forms.two_patch_density_radial
        for when in (0.0, t):
            assert np.array_equal(
                scenarios._radial_values(g, lambda r: density(two, r, when), (0.0, 0.0)),
                points(lambda p: two_patch_state(two, np.linalg.norm(p, axis=-1), when).density))
        assert np.array_equal(scenarios._gaussian_values(g, peak, width_sq),
                              points(lambda p: peak * np.exp(-(p**2).sum(axis=-1) / (2.0 * width_sq))))
        for n in (1, 2):
            grid = CartesianGrid(n, half_width, cells)
            x = grid.axis_centers()
            before = np.sqrt(x**2 if n == 1 else np.add.outer(x**2, x**2))
            points_norm = np.linalg.norm(np.stack(grid.centers(), axis=-1), axis=-1)
            assert np.array_equal(grid.radius(), before) and np.array_equal(grid.radius(), points_norm)


class TestRunScenario:
    def test_wasserstein_oracle_passes(self, tmp_path):
        spec = ScenarioSpec("wasserstein-oracle", outdir=str(tmp_path), seed=3)
        result = run_scenario(spec)
        assert result.passed
        assert (tmp_path / "wasserstein-oracle" / "report.json").exists()
        report = json.loads((tmp_path / "wasserstein-oracle" / "report.json").read_text())
        assert report["passed"] is True
        assert all("claim" in c and "measured" in c for c in report["checks"])

    def test_swapped_partners_fail_the_certificate(self, tmp_path, monkeypatch):
        # a coupling that swaps two partners is not optimal, and its dual slack says so
        certify = scenarios.diagnostics.coupling_certificate

        def swapped(a, b):
            b = b.copy()
            mid = len(b) // 2
            b[[mid, mid + 1]] = b[[mid + 1, mid]]
            return certify(a, b)

        monkeypatch.setattr(scenarios.diagnostics, "coupling_certificate", swapped)
        result = run_scenario(ScenarioSpec("wasserstein-oracle", outdir=str(tmp_path)))
        checks = {c.name: c for c in result.checks}
        assert checks["coupling-certified"].measured < float(COUPLING_SLACK)
        assert not checks["coupling-certified"].passed and not result.passed

    def test_two_patch_passes(self, tmp_path):
        result = run_scenario(ScenarioSpec("two-patch", outdir=str(tmp_path)))
        assert result.passed
        csv_path = tmp_path / "two-patch" / "two_patch_trajectory.csv"
        assert csv_path.read_text().startswith("t,sigma,r,M,u,v")

    def test_barenblatt_limit_passes(self, tmp_path):
        result = run_scenario(ScenarioSpec("barenblatt-limit", outdir=str(tmp_path)))
        assert result.passed

    def test_barenblatt_limit_sorts_exponents(self, tmp_path):
        # the check claims a decrease as s -> 1, so the exponents are taken in increasing
        # order whatever order the config lists them in
        spec = ScenarioSpec("barenblatt-limit", params={"s_values": [0.9, 0.6]}, outdir=str(tmp_path))
        assert run_scenario(spec).passed
        rows = (tmp_path / "barenblatt-limit" / "barenblatt_distances.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["s", "0.59999999999999998", "0.90000000000000002"]

    @pytest.mark.parametrize("name, params, files", [
        ("wasserstein-oracle", {}, ["oracle_pairs.csv"]),
        ("vortex-patch", SMALL_PATCH, ["diagnostics.csv", "final_field.csv"]),
    ], ids=["wasserstein-oracle", "vortex-patch"])
    def test_deterministic_csv_outputs(self, tmp_path, name, params, files):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(ScenarioSpec(name, params=params, outdir=str(a), seed=11))
        run_scenario(ScenarioSpec(name, params=params, outdir=str(b), seed=11))
        for f in files:
            assert (a / name / f).read_bytes() == (b / name / f).read_bytes()

    def test_field_csv_is_the_binary_field_rendered(self, tmp_path):
        run_scenario(ScenarioSpec("vortex-patch", params=SMALL_PATCH, outdir=str(tmp_path)))
        out = tmp_path / "vortex-patch"
        grid, values = read_grid_array(out / "final_field.bin")
        reference_write_csv(out / "want.csv", ["x", "y", "u"],
                            zip(*(c.ravel() for c in grid.centers()), values.ravel()))
        assert (out / "final_field.csv").read_bytes() == (out / "want.csv").read_bytes()

    def test_vortex_patch_run_summary(self, tmp_path):
        result = run_scenario(ScenarioSpec("vortex-patch", params=SMALL_PATCH, outdir=str(tmp_path)))
        summary = json.loads((tmp_path / "vortex-patch" / "run_summary.json").read_text())
        assert set(summary) == {
            "t_end", "s", "cfl", "steps", "wall_time_s", "mass_drift_relative",
            "clipped_mass", "stage_redos", "max_sup_bound_ratio", "warnings",
        }
        assert "l1-error" in {c.name for c in result.checks}

    def test_seed_changes_random_suite(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(ScenarioSpec("wasserstein-oracle", outdir=str(a), seed=1))
        run_scenario(ScenarioSpec("wasserstein-oracle", outdir=str(b), seed=2))
        fa = (a / "wasserstein-oracle" / "oracle_pairs.csv").read_bytes()
        fb = (b / "wasserstein-oracle" / "oracle_pairs.csv").read_bytes()
        assert fa != fb

    def test_run_builds_once(self, tmp_path, monkeypatch):
        scenario = REGISTRY["vortex-patch"]
        calls = []

        def counting_build(params):
            calls.append(params)
            return scenario.build(params)

        monkeypatch.setitem(REGISTRY, "vortex-patch", dataclasses.replace(scenario, build=counting_build))
        run_scenario(ScenarioSpec("vortex-patch", params=SMALL_PATCH, outdir=str(tmp_path)))
        assert len(calls) == 1

    def test_invalid_override_raises_before_outputs(self, tmp_path):
        from vortexlab.solver import ConfigError

        with pytest.raises(ConfigError):
            run_scenario(ScenarioSpec("vortex-patch", params={"bogus": 1}, outdir=str(tmp_path)))
        assert not (tmp_path / "vortex-patch").exists()


# every scenario at a size that runs in about a second
SMALL = {
    "vortex-patch": SMALL_PATCH,
    "two-patch": {"fv_nodes": [64, 128]},
    "non-comparison": {"cells": 128, "t_end": 0.5},
    "s-sweep": {"cells": 64, "t_end": 0.25, "s_values": [0.85, 1.0]},
    "barenblatt-limit": {"radial_points": 64},
    "asymptotics": {"cells": 64, "t_end": 1.0, "output_times": [0.25, 0.5, 0.75, 1.0],
                    "radial_nodes": 512, "radial_times": [1.0, 2.0, 5.0, 10.0]},
    # the patch spans 40.7 cells in radius at t = 0.5, above the scenario's DIRAC_MIN_CELLS
    "dirac-fundamental": {"cells": 144, "half_width": 1.25, "t_end": 1.0, "output_times": [0.5, 1.0]},
    "radial-vs-field": {**SMALL_PATCH, "radial_nodes": 48},
    "wasserstein-oracle": {"pairs": 3, "triples": 2},
}


class TestCheckBounds:
    def test_every_scenario_is_covered(self):
        assert set(SMALL) == set(REGISTRY)

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_numeric_tolerance_is_the_bound_compared(self, tmp_path, name):
        # a check whose tolerance reads as a number passes exactly when it measures at
        # most that number, and one whose tolerance reads `>= x` exactly when it measures
        # at least x, so the report's text and the verdict cannot drift apart
        checks = run_scenario(ScenarioSpec(name, params=SMALL[name], outdir=str(tmp_path))).checks
        numeric = 0
        for check in checks:
            at_least = check.tolerance.startswith(">= ")
            try:
                bound = float(check.tolerance[3:] if at_least else check.tolerance)
            except ValueError:
                continue
            numeric += 1
            verdict = check.measured >= bound if at_least else check.measured <= bound
            assert check.passed == verdict, check.line()
        assert numeric or name == "barenblatt-limit"

    def test_monotone_rise_inside_the_rounding_gap_passes(self):
        # at vortex-patch's defaults the slack is 7.9078e-4 and the report writes 7.91e-04;
        # a rise between the two is within the tolerance as written, so it passes
        scenario = REGISTRY["vortex-patch"]
        mass = total_mass(scenario.build(dict(scenario.defaults))["u0"])
        slack = MONOTONE_SLACK * _entropy_scale(mass)
        text = f"{slack:.2e}"
        assert (text, slack < float(text)) == ("7.91e-04", True)
        rise = 0.5 * (slack + float(text))
        records = [SimpleNamespace(entropy=value, energy=value) for value in (0.0, rise)]
        checks = _monotone_checks(records, mass, "entropy", "energy")
        assert [(c.measured, c.tolerance, c.passed) for c in checks] == [(rise, text, True)] * 2
        records[1].entropy = np.nextafter(float(text), 1.0)
        assert not _monotone_checks(records, mass, "entropy", "energy")[0].passed

    def test_ordering_slack_is_written_and_compared(self, tmp_path):
        # non-comparison's orderings allow rounding below zero, and say how much
        checks = run_scenario(ScenarioSpec("non-comparison", params=SMALL["non-comparison"],
                                           outdir=str(tmp_path))).checks
        tolerances = {c.name: c.tolerance for c in checks}
        assert tolerances["initial-ordering"] == tolerances["grid-ordering"] == ">= -1e-12"
        slack = float(ORDERING_SLACK)
        assert _at_least("ordering", "", slack, ORDERING_SLACK).passed
        assert not _at_least("ordering", "", np.nextafter(slack, -1.0), ORDERING_SLACK).passed


class TestCli:
    def test_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert out.count("(section") == 9

    def test_list_json(self, capsys):
        assert main(["list", "--json", "--section", "4"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == ["wasserstein-oracle"]

    def test_unknown_scenario_exit_two(self, tmp_path, capsys):
        code = main(["run", "not-a-scenario", "--out", str(tmp_path)])
        assert code == 2
        assert not any(tmp_path.iterdir())

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "barenblatt-limit", "params": {"mass": 2.0}}))
        assert main(["validate", str(cfg)]) == 0

    def test_validate_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "vortex-patch", "params": {"cells": -4}}))
        assert main(["validate", str(cfg)]) == 2

    def test_run_from_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "wasserstein-oracle",
            "params": {"pairs": 3, "triples": 2},
        }))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"]) == 0
        report = json.loads((tmp_path / "out" / "wasserstein-oracle" / "report.json").read_text())
        assert report["params"]["pairs"] == 3

    def test_usage_error_exit_two(self):
        assert main(["frobnicate"]) == 2

    def test_rerun_into_the_working_directory(self, tmp_path, monkeypatch, capsys):
        # the first run leaves the directory ./two-patch, which must not be taken for
        # a config file named like the scenario
        monkeypatch.chdir(tmp_path)
        assert main(["run", "two-patch", "--out", "."]) == 0
        assert (tmp_path / "two-patch").is_dir()
        assert main(["run", "two-patch", "--out", "."]) == 0

    def test_removed_jobs_option_exit_two(self, tmp_path):
        assert main(["run", "s-sweep", "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "s-sweep").exists()

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only (pyproject.toml's `test` extra): no library
        # module imports it, so neither import nor validation loads it
        code = (
            "import sys, vortexlab.cli; from vortexlab.scenarios import REGISTRY, validate_params; "
            "assert all(validate_params(name, {}) == [] for name in REGISTRY); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vortexlab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_oracle_runs_without_scipy(self, tmp_path):
        # wasserstein-oracle certifies its optimal coupling with numpy alone; with
        # scipy blocked, importing it would raise ModuleNotFoundError
        code = (
            "import sys; sys.modules['scipy'] = None; from vortexlab.cli import main; "
            f"sys.exit(main(['run', 'wasserstein-oracle', '--out', {str(tmp_path)!r}]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vortexlab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-2000:]

    def test_import_and_validate_load_no_numpy_polynomial(self, tmp_path):
        # the Gauss-Legendre rule of the singular kernel cell is a fixed table, so neither
        # the import, nor `cli validate` of each default config, nor a field run that
        # tabulates kernels loads numpy.polynomial
        paths = []
        for name in REGISTRY:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"scenario": name, "params": {}}))
            paths.append(str(path))
        polynomial = "sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial'])"
        code = (
            "import sys; from vortexlab.cli import main; "
            f"codes = [main(['validate', path]) for path in {paths!r}]; "
            f"print('validate', codes, {polynomial}); "
            f"code = main(['run', 'vortex-patch', '--out', {str(tmp_path / 'out')!r}]); "
            f"print('run', code, {polynomial})"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vortexlab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        assert f"validate {[0] * len(paths)} []" in lines
        assert lines[-1] == "run 0 []"

    def test_run_without_draws_loads_no_numpy_random(self, tmp_path):
        # only the wasserstein-oracle runner draws, so only it seeds a generator;
        # numpy.random and what it imports cost a run start-up time and memory
        code = (
            "import sys; from vortexlab.cli import main; "
            f"code = main(['run', 'two-patch', '--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vortexlab.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 []"


class TestSweepScenario:
    def test_sweep_scenario_passes(self, tmp_path):
        spec = ScenarioSpec(
            "s-sweep",
            params={"cells": 64, "t_end": 0.25, "s_values": [0.85, 1.0]},
            outdir=str(tmp_path),
        )
        result = run_scenario(spec)
        assert result.passed
        csv_text = (tmp_path / "s-sweep" / "sweep_distances.csv").read_text()
        assert csv_text.startswith("s,l1_distance_to_s1")
