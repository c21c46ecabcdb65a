"""Laplace-kernel layer and volume potentials against sphere oracles.

The unit-sphere closed forms used throughout: the single layer of the unit
density equals 1/max(1, |y|); the double layer of the unit density is 1 in
the open unit ball, 0 outside, and 1/2 in the principal-value sense on the
surface (with normals pointing toward the origin).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdie import geometry as geo
from bdie import laplace as lp

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def sphere3():
    return geo.build_icosphere(3)


@pytest.fixture(scope="module")
def ones3(sphere3):
    return lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL,
                              np.ones(sphere3.n_triangles))


def north_pole_index(mesh):
    return int(np.argmin(np.linalg.norm(mesh.vertices - np.array([0.0, 0.0, 1.0]), axis=1)))


# --- kernels -----------------------------------------------------------------

def test_fundamental_solution_values():
    x = np.array([1.0, 0.0, 0.0])
    assert lp.fundamental_solution(x, np.zeros(3)) == pytest.approx(-1.0 / FOUR_PI)
    assert lp.fundamental_solution(2 * x, np.zeros(3)) == pytest.approx(-0.0397887, rel=1e-5)


@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_fundamental_solution_symmetry(vals):
    x = np.array(vals[:3])
    y = np.array(vals[3:])
    if np.linalg.norm(x - y) < 1e-6:
        return
    assert lp.fundamental_solution(x, y) == lp.fundamental_solution(y, x)


def test_grad_antisymmetry_and_magnitude():
    x = np.array([0.3, -0.2, 0.9])
    y = np.array([1.0, 0.5, -0.1])
    gx = lp.grad_fundamental_solution(x, y)
    gy = lp.grad_fundamental_solution(y, x)
    assert np.allclose(gx, -gy, atol=0, rtol=0)
    r = np.linalg.norm(x - y)
    assert np.linalg.norm(gx) == pytest.approx(1.0 / (FOUR_PI * r**2), rel=1e-12)


def test_grad_matches_finite_differences():
    x = np.array([0.4, 0.1, -0.3])
    y = np.array([-0.5, 0.8, 0.2])
    h = 1e-5
    g = lp.grad_fundamental_solution(x, y)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (lp.fundamental_solution(x + e, y) - lp.fundamental_solution(x - e, y)) / (2 * h)
        assert abs(g[i] - fd) < 1e-6


# --- single layer ------------------------------------------------------------

def test_single_layer_sphere_off_surface(sphere3, ones3):
    pts = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    vals = lp.single_layer(sphere3, ones3, pts)
    exact = 1.0 / np.array([1.5, 2.0, 3.0])
    assert np.all(np.abs(vals - exact) / exact < 0.02)


def test_single_layer_direct_value_on_surface(sphere3, ones3):
    cv = lp.Collocation.vertices(sphere3, [north_pole_index(sphere3)])
    val = lp.single_layer_direct(sphere3, ones3, cv)[0]
    assert abs(val - 1.0) < 0.02


def test_single_layer_error_halves_under_refinement():
    errs = []
    for level in (2, 3):
        m = geo.build_icosphere(level)
        d = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, np.ones(m.n_triangles))
        pts = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
        vals = lp.single_layer(m, d, pts)
        cv = lp.Collocation.vertices(m, [north_pole_index(m)])
        direct = lp.single_layer_direct(m, d, cv)
        exact = 1.0 / np.array([1.5, 2.0, 3.0])
        errs.append(max(np.max(np.abs(vals - exact) / exact), abs(direct[0] - 1.0)))
    assert errs[1] <= 0.5 * errs[0]


def test_single_layer_zero_density(sphere3):
    zero = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, np.zeros(sphere3.n_triangles))
    assert np.all(lp.single_layer(sphere3, zero, np.array([[2.0, 0.0, 0.0]])) == 0.0)


def test_single_layer_linearity(sphere3):
    rng = np.random.default_rng(5)
    r1 = rng.normal(size=sphere3.n_triangles)
    r2 = rng.normal(size=sphere3.n_triangles)
    pts = np.array([[1.7, 0.2, 0.4]])
    mk = lambda c: lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, c)
    combo = lp.single_layer(sphere3, mk(2.0 * r1 - 3.0 * r2), pts)
    parts = 2.0 * lp.single_layer(sphere3, mk(r1), pts) - 3.0 * lp.single_layer(sphere3, mk(r2), pts)
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-15)


# --- double layer ------------------------------------------------------------

def test_double_layer_exterior_probe(sphere3, ones3):
    vals = lp.double_layer(sphere3, ones3, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    assert np.all(np.abs(vals) < 0.01)


def test_double_layer_interior_probe(sphere3, ones3):
    vals = lp.double_layer(sphere3, ones3, np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]))
    assert np.all(np.abs(vals - 1.0) < 0.01)


def test_double_layer_direct_value(sphere3, ones3):
    cc = lp.Collocation.centroids(sphere3)
    dv = lp.double_layer_direct(sphere3, ones3, cc)
    assert np.all(np.abs(dv - 0.5) < 0.02 * 0.5)


def test_double_layer_direct_error_decreases_with_level():
    devs = []
    for level in (1, 2, 3):
        m = geo.build_icosphere(level)
        d = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, np.ones(m.n_triangles))
        dv = lp.double_layer_direct(m, d, lp.Collocation.centroids(m))
        devs.append(np.abs(dv - 0.5).max())
    assert devs[2] < devs[1] < devs[0]


def test_double_layer_zero_density(sphere3):
    zero = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, np.zeros(sphere3.n_triangles))
    assert np.all(lp.double_layer(sphere3, zero, np.array([[0.0, 0.0, 0.0]])) == 0.0)


def test_jump_relation_refinement():
    # Exterior limit at a fixed physical offset vs -rho/2 + direct value;
    # the mismatch must shrink as the mesh refines.
    res = []
    for level in (1, 2, 3):
        m = geo.build_icosphere(level)
        rho = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL, 1.0 + m.vertices[:, 2])
        sel = np.arange(0, m.n_vertices, 7)
        cc = lp.Collocation.vertices(m, sel)
        dv = lp.double_layer_direct(m, rho, cc)
        pts = cc.points - 0.05 * (-m.vertices[sel])
        wext = lp.double_layer(m, rho, pts)
        rho_at = 1.0 + m.vertices[sel, 2]
        res.append(np.abs(wext - (-0.5 * rho_at + dv)).max())
    assert res[2] < res[1] < res[0]


def test_vertex_linear_density_matches_callable(sphere3):
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL, sphere3.vertices[:, 2].copy())
    target = np.array([[0.0, 0.0, 0.0]])
    w_vl = lp.double_layer(sphere3, vl, target)
    w_fn = lp.double_layer(sphere3, lambda nodes: nodes[..., 2], target)
    assert np.allclose(w_vl, w_fn, atol=1e-12)


# --- matrices ----------------------------------------------------------------

def test_single_layer_matrix_matches_value(sphere3):
    rng = np.random.default_rng(7)
    coef = rng.normal(size=sphere3.n_triangles)
    dd = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, coef.copy())
    cc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 97))
    val = lp.single_layer(sphere3, dd, cc)
    mat = lp.single_layer_matrix(sphere3, lp.SPACE_TRIANGLE, cc)
    assert mat.shape == (cc.n, sphere3.n_triangles)
    assert np.abs(mat @ coef - val).max() < 1e-12


def test_double_layer_matrix_matches_value(sphere3):
    rng = np.random.default_rng(8)
    coef = rng.normal(size=sphere3.n_vertices)
    dd = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL, coef.copy())
    cv = lp.Collocation.vertices(sphere3, np.arange(0, sphere3.n_vertices, 53))
    val = lp.double_layer(sphere3, dd, cv)
    mat = lp.double_layer_matrix(sphere3, lp.SPACE_VERTEX, cv)
    assert np.abs(mat @ coef - val).max() < 1e-12


def test_matrix_workers_bit_identical(sphere3):
    cc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 59))
    m1 = lp.single_layer_matrix(sphere3, lp.SPACE_TRIANGLE, cc, workers=1)
    m4 = lp.single_layer_matrix(sphere3, lp.SPACE_TRIANGLE, cc, workers=4)
    assert np.array_equal(m1, m4)


# --- newton potential ---------------------------------------------------------

@pytest.fixture(scope="module")
def shell12():
    return geo.build_shell_mesh(inner_radius=1.0, outer_radius=2.0,
                                n_radial=8, angular_level=2)


def test_newton_shell_oracle(shell12):
    f = lp.DomainDensity(np.ones(shell12.n_cells))
    val = lp.newton_potential(shell12, f, np.array([[0.0, 0.0, 0.0]]))[0]
    # -int_1^2 r^2/r dr = -(4-1)/2
    assert abs(val - (-1.5)) / 1.5 < 0.01


def test_newton_zero_and_linearity(shell12):
    t = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    zero = lp.newton_potential(shell12, lp.DomainDensity(np.zeros(shell12.n_cells)), t)
    assert np.all(zero == 0.0)
    one = lp.newton_potential(shell12, lp.DomainDensity(np.ones(shell12.n_cells)), t)
    two = lp.newton_potential(shell12, lp.DomainDensity(2.0 * np.ones(shell12.n_cells)), t)
    assert np.allclose(two, 2.0 * one, rtol=1e-14)


def test_newton_matrix_matches_value(shell12):
    rng = np.random.default_rng(9)
    f = rng.normal(size=shell12.n_cells)
    targets = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 2.5]])
    val = lp.newton_potential(shell12, lp.DomainDensity(f.copy()), targets)
    mat = lp.newton_potential_matrix(shell12, targets)
    assert np.abs(mat @ f - val).max() < 1e-12


def test_newton_exclusion_ball_applies_inside(shell12):
    # A target on a quadrature node would blow up without the exclusion ball.
    node = shell12.all_nodes()[1234]
    val = lp.newton_potential(shell12, lp.DomainDensity(np.ones(shell12.n_cells)), node[None])
    assert np.isfinite(val[0])


# --- normal derivative probe ---------------------------------------------------

def test_normal_derivative_of_single_layer(sphere3, ones3):
    idx = north_pole_index(sphere3)
    pole = sphere3.vertices[idx]
    nrm = -pole  # stored convention: normal toward the origin
    pot = lambda pts: lp.single_layer(sphere3, ones3, pts)
    val = lp.normal_derivative(pot, pole, nrm, offset=0.01)
    # d/dn of 1/r with n = -r_hat is +1 on the unit sphere.
    assert abs(val - 1.0) < 0.03


def test_normal_derivative_constant_field():
    pot = lambda pts: np.ones(len(pts))
    assert lp.normal_derivative(pot, np.array([0.0, 0.0, 1.0]),
                                np.array([0.0, 0.0, -1.0]), 0.05) == 0.0


def test_normal_derivative_linear_field_exact():
    pot = lambda pts: pts[:, 2]
    val = lp.normal_derivative(pot, np.array([0.0, 0.0, 1.0]),
                               np.array([0.0, 0.0, -1.0]), 0.05)
    assert abs(val - (-1.0)) < 1e-6


def test_normal_derivative_rejects_tiny_offset():
    with pytest.raises(ValueError):
        lp.normal_derivative(lambda p: np.zeros(len(p)),
                             np.zeros(3), np.array([0.0, 0.0, 1.0]), 1e-18)


def test_continuity_of_single_layer(sphere3, ones3):
    # Exterior values at offsets 0.1h, 0.05h, 0.025h extrapolate to the
    # direct value within 2%.
    idx = north_pole_index(sphere3)
    pole = sphere3.vertices[idx]
    h = sphere3.max_edge
    direct = lp.single_layer_direct(sphere3, ones3, lp.Collocation.vertices(sphere3, [idx]))[0]
    offs = [0.1 * h, 0.05 * h, 0.025 * h]
    vals = [lp.single_layer(sphere3, ones3, (pole * (1.0 + o))[None])[0] for o in offs]
    extrap = 2.0 * vals[2] - vals[1]
    assert abs(extrap - direct) / direct < 0.02


# --- density and collocation plumbing ------------------------------------------

def test_density_validation(sphere3):
    part = geo.partition_boundary(sphere3)
    with pytest.raises(ValueError):
        lp.BoundaryDensity("nope", lp.SUPPORT_ALL, np.ones(3))
    with pytest.raises(ValueError):
        lp.BoundaryDensity(lp.SPACE_TRIANGLE, "xx", np.ones(3))
    short = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, np.ones(5))
    with pytest.raises(ValueError):
        short.validate_support(part)
    bad = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_D, np.ones(part.n_triangles))
    with pytest.raises(ValueError):
        bad.validate_support(part)
    ok_vals = np.where(part.part_label == "D", 1.0, 0.0)
    lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_D, ok_vals).validate_support(part)


def test_direct_value_requires_registration(sphere3, ones3):
    free = lp.Collocation.free(np.array([[2.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        lp.single_layer_direct(sphere3, ones3, free)


def test_free_target_on_a_panel_is_refused(sphere3, ones3):
    # A centroid passed as a free point would get the near rule on its own
    # panel; only the registered centroid gets the Duffy rule.
    registered = lp.Collocation.centroids(sphere3, [5])
    assert np.isfinite(lp.single_layer(sphere3, ones3, registered)).all()
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp.single_layer(sphere3, ones3, registered.points)
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp.double_layer_matrix(sphere3, lp.SPACE_VERTEX, registered.points)


def test_collocation_index_must_match_its_point(sphere3, ones3):
    wrong = lp.Collocation(sphere3.centroids[[5]], [lp.KIND_CENTROID], np.array([3]))
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp.single_layer(sphere3, ones3, wrong)
    vertex = lp.Collocation(sphere3.vertices[[7]], [lp.KIND_VERTEX], np.array([8]))
    with pytest.raises(ValueError, match="not one of its registered panels"):
        lp.double_layer(sphere3, ones3, vertex)


def test_collocation_concat(sphere3):
    a = lp.Collocation.centroids(sphere3, [0, 1])
    b = lp.Collocation.vertices(sphere3, [5])
    c = lp.Collocation.concat([a, b])
    assert c.n == 3
    assert c.kinds == [lp.KIND_CENTROID, lp.KIND_CENTROID, lp.KIND_VERTEX]
