"""Surface and volume mesh construction, orientation, and partitioning."""

import numpy as np
import pytest

from bdie import geometry as geo


@pytest.fixture(scope="module")
def sphere3():
    return geo.build_icosphere(3)


@pytest.mark.parametrize("level,n_v,n_t", [(0, 12, 20), (1, 42, 80), (2, 162, 320), (3, 642, 1280)])
def test_icosphere_counts(level, n_v, n_t):
    m = geo.build_icosphere(level)
    assert m.n_vertices == n_v
    assert m.n_triangles == n_t


def test_icosphere_vertices_on_unit_sphere(sphere3):
    r = np.linalg.norm(sphere3.vertices, axis=1)
    assert np.allclose(r, 1.0, atol=1e-14)


def test_normals_unit_and_inward(sphere3):
    n = np.linalg.norm(sphere3.normals, axis=1)
    assert np.allclose(n, 1.0, atol=1e-12)
    # Normals point out of the exterior domain, i.e. toward the origin.
    assert np.all(np.einsum("ij,ij->i", sphere3.normals, sphere3.centroids) < 0)


@pytest.mark.parametrize("level,tol", [(2, 0.02), (3, 0.005)])
def test_total_area_approaches_sphere(level, tol):
    m = geo.build_icosphere(level)
    assert abs(m.areas.sum() - 4 * np.pi) / (4 * np.pi) < tol


def test_area_error_halves_under_refinement():
    errs = [abs(geo.build_icosphere(l).areas.sum() - 4 * np.pi) for l in (2, 3)]
    assert errs[1] <= 0.5 * errs[0]


def test_validate_passes_on_built_mesh(sphere3):
    geo.partition_boundary(sphere3).validate()


def test_level_out_of_range():
    with pytest.raises(ValueError):
        geo.build_icosphere(-1)
    with pytest.raises(ValueError):
        geo.build_icosphere(geo.MAX_SUBDIVISION_LEVEL + 1)


def test_orientation_check_interior_probe(sphere3):
    val = geo.orientation_check(sphere3, (0.1, -0.2, 0.05))
    assert abs(val - 1.0) < 0.01


def test_orientation_check_exterior_probe(sphere3):
    # Probe outside the surface sees zero solid angle.
    assert abs(geo.orientation_check(sphere3, (0.0, 0.0, 3.0))) < 0.01


def test_default_partition_balances_area(sphere3):
    m = geo.partition_boundary(sphere3)
    a_d = m.areas[m.part_label == geo.PART_DIRICHLET].sum()
    assert abs(a_d - 2 * np.pi) / (2 * np.pi) < 0.02
    assert np.all(m.centroids[m.part_label == geo.PART_DIRICHLET][:, 2] < 0)


def test_vertex_classes_cover_and_match_incidence(sphere3):
    m = geo.partition_boundary(sphere3)
    assert set(np.unique(m.vertex_class)) == {"D", "N", "I"}
    # An interface vertex touches triangles of both labels.
    i_verts = m.vertices_with_class(geo.VERTEX_INTERFACE)
    v = i_verts[0]
    touching = m.part_label[np.any(m.triangles == v, axis=1)]
    assert set(touching) == {"D", "N"}


def test_empty_partition_raises(sphere3):
    with pytest.raises(geo.PartitionError):
        geo.partition_boundary(sphere3, rule=lambda c: np.zeros(len(c), dtype=bool))


def test_custom_halfspace_rule(sphere3):
    m = geo.partition_boundary(sphere3, rule=geo.halfspace_rule((1.0, 0.0, 0.0), 0.0))
    assert np.all(m.centroids[m.part_label == "D"][:, 0] < 0)


def test_off_round_trip(tmp_path, sphere3):
    path = tmp_path / "mesh.off"
    geo.write_off(sphere3, path)
    back = geo.read_off(path)
    assert np.array_equal(back.triangles, sphere3.triangles)
    assert np.allclose(back.vertices, sphere3.vertices, atol=0, rtol=0)


def test_read_off_rejects_non_off(tmp_path):
    # Each raises its own message: unchecked, an empty file and a short
    # face list raise IndexError, a short vertex list and a negative count
    # numpy's shape errors, a face index of -1 wraps to the last vertex and
    # one of n_v fails later in SurfaceMesh.
    good = tmp_path / "good.off"
    geo.write_off(geo.build_icosphere(0), good)
    lines = good.read_text().splitlines()
    header, verts, faces = lines[:2], lines[2:14], lines[14:]
    bad_inputs = {
        "PLY\n0 0 0\n": "not an OFF file",
        "": "not an OFF file",
        "OFF\n-1 0 0\n": "non-negative",
        "\n".join(header + verts + faces[:-1]): "face list is shorter",
        "\n".join(header + verts[:-1]): "vertex list is shorter",
        "\n".join(header + verts + ["3 0 1 -1"] + faces[1:]): "index -1 is outside",
        "\n".join(header + verts + ["3 0 1 12"] + faces[1:]): "index 12 is outside",
    }
    p = tmp_path / "bad.off"
    for text, message in bad_inputs.items():
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            geo.read_off(p)


def test_solid_angle_octant():
    corners = np.eye(3)[None]
    assert np.allclose(geo.spherical_triangle_solid_angle(corners), np.pi / 2, rtol=1e-13)


def test_radial_breakpoints_geometric():
    b = geo.radial_breakpoints(1.0, 4.0, 5, 1.3)
    assert b[0] == 1.0 and b[-1] == 4.0
    w = np.diff(b)
    assert np.allclose(w[1:] / w[:-1], 1.3, rtol=1e-10)
    assert np.all(w > 0)


def test_radial_breakpoints_uniform():
    b = geo.radial_breakpoints(1.0, 2.0, 4, 1.0)
    assert np.allclose(np.diff(b), 0.25)


@pytest.fixture(scope="module")
def shell():
    return geo.build_shell_mesh(outer_radius=4.0, n_radial=8, angular_level=2)


class TestVolumeMesh:
    def test_cell_count(self, shell):
        assert shell.n_cells == 8 * 320

    def test_volumes_tile_shell_exactly(self, shell):
        exact = 4 * np.pi / 3 * (4.0**3 - 1.0**3)
        assert abs(shell.volumes.sum() - exact) / exact < 1e-12

    def test_node_weights_sum_to_cell_volume(self, shell):
        assert np.allclose(shell.node_weights.sum(axis=1), shell.volumes, rtol=1e-12)

    def test_nodes_inside_radial_extent(self, shell):
        r = np.linalg.norm(shell.all_nodes(), axis=1)
        assert r.min() > 1.0 and r.max() < 4.0

    def test_centers_at_radial_midpoints(self, shell):
        r = np.linalg.norm(shell.centers, axis=1)
        mids = 0.5 * (shell.radial_breaks[:-1] + shell.radial_breaks[1:])
        assert np.allclose(np.sort(np.unique(r.round(12))), np.sort(mids.round(12)))

    def test_breaks_run_from_the_unit_sphere_at_the_grading(self, shell):
        b = shell.radial_breaks
        assert b[0] == geo.INNER_RADIUS and b[-1] == pytest.approx(4.0, rel=1e-14)
        assert np.allclose(np.diff(b)[1:] / np.diff(b)[:-1], geo.GRADING, rtol=1e-12)
        assert np.array_equal(b, geo.radial_breakpoints(geo.INNER_RADIUS, 4.0, 8, geo.GRADING))

    def test_invalid_extent(self):
        for outer in (geo.INNER_RADIUS, 0.5):
            with pytest.raises(ValueError, match="outer_radius"):
                geo.build_shell_mesh(outer_radius=outer)

    def test_node_spacing_positive(self, shell):
        assert np.all(shell.node_spacing() > 0)
