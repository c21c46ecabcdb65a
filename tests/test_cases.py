"""Manufactured case catalog and the paired refinement-level meshes."""

import numpy as np
import pytest

from bdie import cases
from bdie import coefficients as co
from bdie import geometry as geo

FOUR_PI = 4.0 * np.pi


def test_point_source_case_constant_coefficient_has_no_source():
    case = cases.point_source_case(co.constant_coefficient())
    assert case.f is None


def test_point_source_case_variable_coefficient_source_value():
    field = co.gaussian_coefficient()
    case = cases.point_source_case(field)
    pts = np.array([[0.0, 0.0, 2.0], [1.5, 0.0, 0.0]])
    expected = np.einsum("ij,ij->i", field.grad_a(pts),
                         case.exact.grad_u(pts))
    assert np.allclose(case.f(pts), expected, rtol=1e-14)


def test_point_source_neumann_sign_convention_on_sphere():
    # On the unit sphere the inward normal is -x, so a du/dn = +1/(4 pi)
    # for u = 1/(4 pi |x|) with a == 1.
    case = cases.point_source_case(co.constant_coefficient())
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                    [np.sqrt(0.5), 0.0, np.sqrt(0.5)]])
    assert np.allclose(case.neumann(pts), 1.0 / FOUR_PI, rtol=1e-14)
    assert np.allclose(case.dirichlet(pts), 1.0 / FOUR_PI, rtol=1e-14)


def test_constant_one_case_data():
    case = cases.constant_one_case(co.gaussian_coefficient())
    pts = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(case.dirichlet(pts), np.ones(2))
    assert np.array_equal(case.neumann(pts), np.zeros(2))
    assert case.f is None


def test_zero_case_everything_vanishes():
    case = cases.zero_case(co.gaussian_coefficient())
    pts = np.array([[0.0, 0.0, 1.0]])
    assert case.dirichlet(pts) == 0.0
    assert case.neumann(pts) == 0.0
    assert case.exact.u(np.array([[2.0, 0.0, 0.0]])) == 0.0


def test_case_lookup_names_unknown_case():
    with pytest.raises(ValueError, match="pancake"):
        cases.case_by_name("pancake", co.constant_coefficient())


@pytest.mark.parametrize("name", sorted(cases.CASES))
def test_case_lookup_returns_named_case(name):
    case = cases.case_by_name(name, co.constant_coefficient())
    assert case.name == name
    # u_inf is the exact field's limit at infinity
    far = case.exact.u(np.array([[0.0, 0.0, 1e7]]))[0]
    assert case.u_inf == pytest.approx(far, abs=1e-6)


@pytest.mark.parametrize("level,n_tri,n_cells", [(1, 80, 80), (2, 320, 480)])
def test_level_meshes_refine_in_lockstep(level, n_tri, n_cells):
    surf, vol = cases.level_meshes(level)
    assert surf.n_triangles == n_tri
    assert vol.n_cells == n_cells
    assert surf.part_label.size == n_tri


def test_level_meshes_shell_overrides():
    surf, vol = cases.level_meshes(1, truncation_radius=3.0, n_radial=3,
                                   angular_level=1)
    assert surf.n_triangles == 80
    assert vol.n_cells == 3 * 80
    outer = np.linalg.norm(vol.all_nodes(), axis=1).max()
    assert 2.5 < outer < 3.0


def test_level_meshes_reject_unknown_level():
    with pytest.raises(ValueError, match="level"):
        cases.level_meshes(7)


@pytest.mark.parametrize("name", sorted(cases.PARTITION_RULES))
def test_partition_rules_split_the_sphere(name):
    surf, _ = cases.level_meshes(1, partition=name)
    n_d = surf.triangles_with_label(geo.PART_DIRICHLET).size
    n_n = surf.triangles_with_label(geo.PART_NEUMANN).size
    assert n_d > 0 and n_n > 0
    assert n_d + n_n == surf.n_triangles


def test_probe_points_lie_in_the_truncated_shell():
    radii = np.linalg.norm(cases.PROBE_POINTS, axis=1)
    assert np.all(radii > geo.INNER_RADIUS)
    assert np.all(radii < cases.TRUNCATION_RADIUS)
