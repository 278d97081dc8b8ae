from functools import partial

import numpy as np
import pytest

from dcinv.scenarios import (MAX_COUNT, DikeGeometry, ScenarioSpec, add_noise, build_case1,
                             build_case2, paint_model)


def connected_components(mask: np.ndarray) -> int:
    """4-connectivity flood fill, independent of any library."""
    mask = mask.copy()
    count = 0
    nz, nx = mask.shape
    for i in range(nz):
        for j in range(nx):
            if not mask[i, j]:
                continue
            count += 1
            stack = [(i, j)]
            mask[i, j] = False
            while stack:
                a, b = stack.pop()
                for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    na, nb = a + da, b + db
                    if 0 <= na < nz and 0 <= nb < nx and mask[na, nb]:
                        mask[na, nb] = False
                        stack.append((na, nb))
    return count


class TestCase1:
    def test_exactly_three_conductivities(self):
        spec, model = build_case1(45.0)
        values = np.unique(model)
        assert np.allclose(sorted(values),
                           sorted([np.log(0.01), np.log(0.02), np.log(0.1)]))

    def test_vertical_dike_columns_identical(self):
        spec, model = build_case1(90.0)
        mesh = spec.mesh()
        grid = model.reshape(mesh.shape)
        dike = grid == np.log(0.1)
        rows = np.flatnonzero(dike.any(axis=1))
        cols = dike[rows[0]]
        for r in rows[1:]:
            assert np.array_equal(dike[r], cols)

    def test_dike_area_matches_geometry(self):
        """Painted cell area tracks width x axis length within 10% at any dip."""
        for dip in (30.0, 45.0, 60.0):
            spec, model = build_case1(dip)
            mesh = spec.mesh()
            count = int((model == np.log(0.1)).sum())
            dk = spec.dike
            axis_len = (dk.depth_bottom - dk.depth_top) / np.sin(np.radians(dip))
            expected_cells = dk.width * axis_len / (spec.dx * spec.dz)
            assert abs(count - expected_cells) / expected_cells < 0.10

    def test_desk_scale_preset(self):
        spec, model = build_case1(45.0, scale="desk")
        mesh = spec.mesh()
        assert mesh.nx == 64 and mesh.nz == 19
        assert spec.survey().n_data == 21

    @pytest.mark.parametrize("build", [build_case1, build_case2])
    def test_an_unknown_scale_is_a_key_error(self, build):
        """The CLI offers only full and desk; another scale fails on lookup."""
        with pytest.raises(KeyError, match="huge"):
            build(scale="huge")

    def test_invalid_dip(self):
        with pytest.raises(ValueError):
            build_case1(0.0)
        with pytest.raises(ValueError):
            build_case1(120.0)


class TestCase2:
    def test_variant_a_two_connected_regions(self):
        spec, model = build_case2(two_cylinders=False)
        mesh = spec.mesh()
        anomaly = (model == np.log(0.1)).reshape(mesh.shape)
        assert connected_components(anomaly) == 2

    def test_variant_b_two_disjoint_cylinders(self):
        spec, model = build_case2(two_cylinders=True)
        mesh = spec.mesh()
        anomaly = (model == np.log(0.1)).reshape(mesh.shape)
        assert connected_components(anomaly) == 2
        assert spec.dike is None

    def test_no_near_surface_layer(self):
        spec, model = build_case2()
        assert np.log(0.02) not in np.unique(model)

    def test_cylinder_cell_count_matches_area(self):
        """Painted cells approximate pi r^2 / (dx dz) within 15% for r = 5 cells."""
        spec = ScenarioSpec(name="one-cylinder", cylinders=((0.0, 60.0, 25.0),))
        model = paint_model(spec)
        count = int((model == np.log(0.1)).sum())
        expected = np.pi * 25.0 ** 2 / (5.0 * 5.0)
        assert abs(count - expected) / expected < 0.15

    def test_geometry_outside_core_rejected(self):
        with pytest.raises(ValueError):
            paint_model(ScenarioSpec(name="bad", cylinders=((0.0, 150.0, 25.0),)))
        with pytest.raises(ValueError):
            paint_model(ScenarioSpec(
                name="bad2",
                dike=DikeGeometry(x_top=480.0, depth_top=20.0, depth_bottom=120.0,
                                  width=25.0, dip_degrees=30.0)))


class TestAddNoise:
    def test_zero_noise_identity(self):
        d = np.array([1.0, -2.0, 3.0])
        noisy, std = add_noise(d, 0.0, seed=0)
        assert np.array_equal(noisy, d)
        assert np.all(std == 0.0)

    def test_sample_std_tracks_five_percent(self):
        """Std over many replicates of one datum is within 3% of 0.05|d|."""
        d = np.array([4.0])
        reps = np.array([add_noise(d, 0.05, seed=s)[0][0] for s in range(10_000)])
        assert abs(reps.std() - 0.2) / 0.2 < 0.03

    def test_seed_reproducible(self):
        d = np.linspace(1.0, 5.0, 7)
        a, _ = add_noise(d, 0.05, seed=42)
        b, _ = add_noise(d, 0.05, seed=42)
        assert np.array_equal(a, b)

    def test_returned_std_is_generating_std(self):
        d = np.array([2.0, -4.0])
        _, std = add_noise(d, 0.05, seed=1)
        assert np.allclose(std, [0.1, 0.2])

    @pytest.mark.parametrize("rel", [-0.01, float("nan")])
    def test_negative_or_nan_level_rejected(self, rel):
        with pytest.raises(ValueError, match="noise"):
            add_noise(np.ones(3), rel, seed=0)
        with pytest.raises(ValueError, match="noise_rel"):
            ScenarioSpec(name="bad", noise_rel=rel)


class TestSpecRoundTrip:
    def test_to_from_dict(self):
        spec, _ = build_case2(two_cylinders=False, scale="desk")
        back = ScenarioSpec(**spec.to_dict())
        assert back == spec


_DIKE = dict(x_top=0.0, depth_top=20.0, depth_bottom=120.0, width=25.0, dip_degrees=45.0)


@pytest.mark.parametrize("changes", [
    dict(n_core_x=0), dict(dx=np.nan), dict(dz=np.inf), dict(pad_factor=np.nan),
    dict(n_pad=-1), dict(line_length=np.nan), dict(line_length=np.inf),
    dict(line_length=2000.0), dict(station_spacing=np.nan), dict(max_receivers=0),
    dict(background_sigma=np.nan), dict(target_sigma=-1.0), dict(layer_sigma=np.inf),
    dict(layer_thickness=np.nan), dict(layer_thickness=-5.0), dict(noise_seed=-1),
    dict(noise_rel=np.inf), dict(cylinders=((1.0, 2.0),)),
    dict(cylinders=((0.0, np.nan, 10.0),)), dict(cylinders=((0.0, 60.0, -10.0),)),
    dict(dike={**_DIKE, "x_top": np.nan})])
def test_spec_rejects_what_its_run_would(changes):
    """A spec runs the mesh, survey and geometry checks when it is built, so a
    stored run fails before it writes anything; NaN fails every check."""
    if "dike" in changes:
        changes = {"dike": DikeGeometry(**changes["dike"])}
    with pytest.raises(ValueError):
        ScenarioSpec(name="bad", **changes)


def test_a_survey_of_half_a_million_data_is_refused_before_it_is_built():
    """1,000 stations with no receiver cap ask for 497,503 data on 32,448
    cells; the spec counts them in closed form and refuses them at once."""
    with pytest.raises(ValueError, match=r"max_receivers must make at most 100000 data, "
                                         r"got 497503$"):
        ScenarioSpec(name="wide", n_core_x=1000, line_length=4995.0, station_spacing=5.0,
                     max_receivers=10**9)


@pytest.mark.parametrize("n_stations, max_receivers, n_data", [
    (449, 10**9, 99_681), (450, 10**9, 100_128), (1003, 105, 99_540), (1003, 106, 100_435)])
def test_data_count_is_exact_on_each_side_of_the_bound(n_stations, max_receivers, n_data):
    """Both branches of the count (a cap above and below the receiver slots),
    each just under and just over the bound: a spec is refused exactly when
    its survey would hold more than MAX_COUNT data."""
    make = partial(ScenarioSpec, name="edge", n_core_x=n_stations + 1,
                   line_length=5.0 * (n_stations - 1), station_spacing=5.0,
                   max_receivers=max_receivers)
    if n_data <= MAX_COUNT:
        assert make().survey().n_data == n_data
    else:
        with pytest.raises(ValueError, match=f"got {n_data}$"):
            make()


@pytest.mark.parametrize("field", ["depth_bottom", "width"])
def test_dike_rejects_nan(field):
    with pytest.raises(ValueError, match="dike|width must be in"):
        DikeGeometry(**{**_DIKE, field: np.nan})
