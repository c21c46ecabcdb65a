"""Variable-coefficient operators built by rescaling the Laplace core.

Frozen reference values come from closed-form sphere and radial-shell
oracles evaluated with the built-in Gaussian coefficient a(x) = 1 + e^{-|x|^2}
(on the unit sphere a = 1 + e^{-1} and dn ln a = 2e^{-1}/(1+e^{-1}) with the
normal pointing toward the origin).
"""

import warnings

import numpy as np
import pytest

from bdie import coefficients as co
from bdie import geometry as geo
from bdie import laplace as lp
from bdie import parametrix as px

FOUR_PI = 4.0 * np.pi
DN_LN_A_SPHERE = 2.0 * np.exp(-1.0) / (1.0 + np.exp(-1.0))


@pytest.fixture(scope="module")
def unit_field():
    return co.constant_coefficient()


@pytest.fixture(scope="module")
def two_field():
    return co.constant_coefficient(2.0)


@pytest.fixture(scope="module")
def gauss_field():
    return co.gaussian_coefficient()


@pytest.fixture(scope="module")
def sphere3():
    return geo.build_icosphere(3)


@pytest.fixture(scope="module")
def ones_tc(sphere3):
    return lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL,
                              np.ones(sphere3.n_triangles))


@pytest.fixture(scope="module")
def ones_vl(sphere3):
    return lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                              np.ones(sphere3.n_vertices))


@pytest.fixture(scope="module")
def shell12():
    return geo.build_shell_mesh(inner_radius=1.0, outer_radius=2.0,
                                n_radial=6, angular_level=2)


@pytest.fixture(scope="module")
def shell14():
    return geo.build_shell_mesh(inner_radius=1.0, outer_radius=4.0,
                                n_radial=8, angular_level=2)


# --- kernels -----------------------------------------------------------------

def test_scaled_kernel_divides_by_coefficient_at_source(two_field):
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([1.0, 0.0, 2.0])
    assert px.kernel_P(two_field, x, y) == pytest.approx(-1.0 / (16.0 * np.pi), rel=1e-12)


def test_scaled_kernel_gaussian_surface_source(gauss_field):
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([1.0, 0.0, 2.0])
    expected = -1.0 / (8.0 * np.pi * (1.0 + np.exp(-1.0)))
    assert px.kernel_P(gauss_field, x, y) == pytest.approx(expected, rel=1e-12)


def test_scaled_kernel_reduces_for_unit_coefficient(unit_field):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    y = np.array([0.0, 0.0, 3.0])
    assert np.array_equal(px.kernel_P(unit_field, x, y),
                          lp.fundamental_solution(x, y))


def test_remainder_kernel_vanishes_for_constant(two_field):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    y = np.array([0.0, 0.0, 3.0])
    assert np.array_equal(px.kernel_R(two_field, x, y), np.zeros(4))


def test_remainder_kernel_matches_operator_applied_to_scaled_kernel(gauss_field):
    # div(a grad_x P(x, y)) away from the diagonal, via central differences
    x = np.array([1.2, 0.3, 0.5])
    y = np.array([0.0, 0.0, 3.0])
    h = 1e-4
    eye = np.eye(3)

    def P(pts):
        return px.kernel_P(gauss_field, pts, y)

    lap = sum((P(x + h * eye[i]) - 2.0 * P(x) + P(x - h * eye[i])) / h**2
              for i in range(3))
    grad = np.array([(P(x + h * eye[i]) - P(x - h * eye[i])) / (2.0 * h)
                     for i in range(3)])
    a = gauss_field.eval_a(x)
    grad_a = a * gauss_field.eval_grad_ln_a(x)
    fd = a * lap + grad_a @ grad
    assert px.kernel_R(gauss_field, x, y) == pytest.approx(fd, rel=1e-5)


def test_remainder_kernel_decays_with_source_radius(gauss_field):
    y = np.array([0.0, 0.0, 5.0])
    near = px.kernel_R(gauss_field, np.array([1.2, 0.0, 0.0]), y)
    far = px.kernel_R(gauss_field, np.array([3.5, 0.0, 0.0]), y)
    assert abs(far) < 1e-3 * abs(near)


# --- rescaled single layer ---------------------------------------------------

def test_single_layer_unit_coefficient_bitwise(sphere3, unit_field):
    rng = np.random.default_rng(21)
    dens = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL,
                              rng.normal(size=sphere3.n_triangles))
    targets = np.array([[0.0, 0.0, 2.0], [1.5, 0.2, -0.3]])
    assert np.array_equal(px.op_V(sphere3, unit_field, dens, targets),
                          lp.single_layer(sphere3, dens, targets))


def test_single_layer_constant_two_value(sphere3, two_field, ones_tc):
    target = np.array([[2.0, 0.0, 0.0]])
    val = px.op_V(sphere3, two_field, ones_tc, target)[0]
    assert val == pytest.approx(0.25, rel=1e-2)


def test_single_layer_matches_direct_kernel_quadrature(sphere3, gauss_field, ones_tc):
    targets = np.array([[0.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
    rel = px.op_V(sphere3, gauss_field, ones_tc, targets)
    ker = px.op_V_by_kernel(sphere3, gauss_field, ones_tc, targets)
    assert np.abs(rel - ker).max() <= 1e-10


def test_direct_single_layer_near_one_on_surface(sphere3, unit_field, ones_tc):
    cent = lp.Collocation.centroids(sphere3, np.arange(sphere3.n_triangles))
    vals = px.dv_V(sphere3, unit_field, ones_tc, cent, workers=2)
    assert np.abs(vals - 1.0).max() < 0.02
    verts = lp.Collocation.vertices(sphere3, np.arange(sphere3.n_vertices))
    vals = px.dv_V(sphere3, unit_field, ones_tc, verts, workers=2)
    assert np.abs(vals - 1.0).max() < 0.02


def test_direct_single_layer_halves_for_constant_two(sphere3, unit_field,
                                                     two_field, ones_tc):
    cent = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 37))
    one = px.dv_V(sphere3, unit_field, ones_tc, cent)
    two = px.dv_V(sphere3, two_field, ones_tc, cent)
    assert np.abs(two - 0.5 * one).max() <= 1e-12


# --- rescaled double layer ---------------------------------------------------

def test_double_layer_unit_coefficient_bitwise(sphere3, unit_field):
    rng = np.random.default_rng(22)
    dens = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                              rng.normal(size=sphere3.n_vertices))
    targets = np.array([[0.0, 0.0, 2.0], [0.3, 0.1, 0.2]])
    assert np.array_equal(px.op_W(sphere3, unit_field, dens, targets),
                          lp.double_layer(sphere3, dens, targets))


def test_double_layer_gaussian_axis_value(sphere3, gauss_field, ones_vl):
    # exterior Laplace double layer of 1 vanishes, leaving the single layer
    # of dn ln a, which is constant on the sphere: value -0.53788/3
    target = np.array([[3.0, 0.0, 0.0]])
    val = px.op_W(sphere3, gauss_field, ones_vl, target)[0]
    assert val == pytest.approx(-DN_LN_A_SPHERE / 3.0, rel=2e-2)


def test_double_layer_density_linearity(sphere3, gauss_field, ones_vl):
    target = np.array([[0.0, 0.0, 2.5]])
    scaled = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                                1.7 * ones_vl.values)
    a = px.op_W(sphere3, gauss_field, scaled, target)[0]
    b = px.op_W(sphere3, gauss_field, ones_vl, target)[0]
    assert a == pytest.approx(1.7 * b, rel=1e-12)


def test_direct_double_layer_half_on_surface(sphere3, unit_field, ones_vl):
    cent = lp.Collocation.centroids(sphere3, np.arange(sphere3.n_triangles))
    vals = px.dv_W(sphere3, unit_field, ones_vl, cent, workers=2)
    assert np.abs(vals - 0.5).max() < 0.01


# --- rescaled Newton potential -----------------------------------------------

def test_newton_unit_coefficient_bitwise(shell12, unit_field):
    rng = np.random.default_rng(23)
    dens = lp.DomainDensity(rng.normal(size=shell12.n_cells))
    targets = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.array_equal(px.op_P(shell12, unit_field, dens, targets),
                          lp.newton_potential(shell12, dens, targets))


def test_newton_of_coefficient_itself(shell12, gauss_field):
    # f = a makes the rescaled density one; radial closed form gives -3/2
    f = lp.DomainDensity(gauss_field.eval_a(shell12.centers))
    val = px.op_P(shell12, gauss_field, f, np.zeros((1, 3)))[0]
    assert val == pytest.approx(-1.5, rel=1e-2)


def test_newton_zero_density(shell12, gauss_field):
    f = lp.DomainDensity(np.zeros(shell12.n_cells))
    assert np.array_equal(px.op_P(shell12, gauss_field, f, np.zeros((1, 3))),
                          np.zeros(1))


def test_newton_matches_direct_kernel_quadrature(shell12, gauss_field):
    rng = np.random.default_rng(24)
    f = lp.DomainDensity(rng.normal(size=shell12.n_cells))
    targets = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    rel = px.op_P(shell12, gauss_field, f, targets)
    ker = px.op_P_by_kernel(shell12, gauss_field, f, targets)
    assert np.abs(rel - ker).max() <= 1e-10


# --- remainder operator ------------------------------------------------------

def test_remainder_vanishes_for_constant(shell14, two_field):
    rng = np.random.default_rng(25)
    u = lp.DomainDensity(rng.normal(size=shell14.n_cells))
    targets = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(px.op_R(shell14, two_field, u, targets), np.zeros(2))


def test_remainder_divergence_form_agreement(shell14, gauss_field):
    # smooth density, targets at least 0.5 away from the support edge
    u = lp.DomainDensity(1.0 / np.linalg.norm(shell14.centers, axis=1))
    targets = np.array([[0.0, 0.0, 0.4], [5.0, 0.0, 0.0], [0.0, 4.8, 0.0]])
    kern = px.op_R(shell14, gauss_field, u, targets)
    dual = px.op_R_divergence_form(shell14, gauss_field, u, targets)
    rel = np.abs(kern - dual) / np.abs(dual)
    assert rel.max() <= 1e-3


def test_remainder_constant_density_self_convergence(shell14, gauss_field):
    target = np.array([[0.0, 0.0, 2.0]])
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    coarse = px.op_R(shell14, gauss_field, u, target)[0]
    fine_mesh = geo.build_shell_mesh(inner_radius=1.0, outer_radius=4.0,
                                     n_radial=8, angular_level=2,
                                     radial_order=4, triangle_order=6)
    u_fine = lp.DomainDensity(np.ones(fine_mesh.n_cells))
    fine = px.op_R(fine_mesh, gauss_field, u_fine, target)[0]
    assert coarse == pytest.approx(fine, rel=3e-2)


def test_remainder_density_linearity(shell14, gauss_field):
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    scaled = lp.DomainDensity(1.7 * u.values)
    target = np.array([[0.0, 0.0, 2.0]])
    a = px.op_R(shell14, gauss_field, scaled, target)[0]
    b = px.op_R(shell14, gauss_field, u, target)[0]
    assert a == pytest.approx(1.7 * b, rel=1e-12)


@pytest.mark.parametrize("where", ["centers", "boundary"])
def test_remainder_values_match_matrix(shell14, gauss_field, sphere3, where):
    rng = np.random.default_rng(26)
    v = rng.normal(size=shell14.n_cells)
    targets = (shell14.centers if where == "centers"
               else lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 5)))
    values = px.op_R(shell14, gauss_field, lp.DomainDensity(v), targets)
    matrix = px.op_R_matrix(shell14, gauss_field, targets)
    assert np.abs(values - matrix @ v).max() <= 1e-12 * np.abs(values).max()


def test_volume_values_on_a_node_are_finite(shell14, gauss_field, monkeypatch):
    # The exclusion ball drops the node under the target; its kernel value
    # (1/0) must neither leak into the sum, nor into the other rows of its
    # block of targets, nor warn.
    node = shell14.all_nodes()[1234][None]
    cell = 1234 // shell14.n_nodes_per_cell
    block = np.concatenate([shell14.centers[cell:cell + 1], node,
                            shell14.centers[cell + 1:cell + 2]])
    monkeypatch.setattr(lp, "VOLUME_BLOCK_PAIRS", 3 * shell14.all_weights().size)
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    ops = [lambda t: px.op_R(shell14, gauss_field, u, t),
           lambda t: px.op_R_matrix(shell14, gauss_field, t),
           lambda t: lp.newton_potential(shell14, u, t),
           lambda t: lp.newton_potential_matrix(shell14, t)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        on_node = [op(node) for op in ops]
        in_block = [op(block) for op in ops]
    assert all(np.isfinite(v).all() for v in on_node + in_block)
    # The free rows match their one-target results to rounding: the BLAS
    # product of the value path may sum a 3-row block in another order.
    for op, rows in zip(ops, in_block):
        for row, alone in ((rows[0], op(block[:1])[0]), (rows[2], op(block[2:])[0])):
            assert np.abs(row - alone).max() <= 1e-14 * np.abs(alone).max()


def _volume_reference(volmesh, field, kind, targets, node_density=None):
    """A plain loop over targets: the exclusion-ball volume integral of the
    Newton or remainder kernel, as values of a node density or, without one,
    as per-cell rows."""
    nodes, wts = volmesh.all_nodes(), volmesh.all_weights()
    excl = lp.exclusion_radii(volmesh)
    cells = np.repeat(np.arange(volmesh.n_cells), volmesh.n_nodes_per_cell)
    rows = []
    for t in targets:
        keep = np.linalg.norm(nodes - t, axis=1) > excl
        x = nodes[keep]
        k = lp.fundamental_solution(x, t) if kind == "newton" else px.kernel_R(field, x, t)
        if node_density is None:
            rows.append(np.bincount(cells[keep], wts[keep] * k, minlength=volmesh.n_cells))
        else:
            rows.append(np.sum(wts[keep] * node_density[keep] * k))
    return np.array(rows)


@pytest.mark.parametrize("where", ["centers", "boundary"])
@pytest.mark.parametrize("output", ["values", "matrix"])
@pytest.mark.parametrize("kind", ["newton", "remainder"])
def test_volume_engine_matches_per_target_reference(shell14, gauss_field, sphere3,
                                                    monkeypatch, kind, output, where):
    # Blocks of three targets: the 20 centres and 16 centroids end in a
    # partial block; most centroids have volume nodes inside their balls.
    monkeypatch.setattr(lp, "VOLUME_BLOCK_PAIRS", 3 * shell14.all_weights().size + 1)
    targets = shell14.centers[::128] if where == "centers" else sphere3.centroids[::80]
    v = np.random.default_rng(6).normal(size=shell14.n_cells)
    u = lp.DomainDensity(v)
    got = {
        ("newton", "values"): lambda: lp.newton_potential(shell14, u, targets),
        ("newton", "matrix"): lambda: lp.newton_potential_matrix(shell14, targets),
        ("remainder", "values"): lambda: px.op_R(shell14, gauss_field, u, targets),
        ("remainder", "matrix"): lambda: px.op_R_matrix(shell14, gauss_field, targets),
    }[kind, output]()
    node_density = np.repeat(v, shell14.n_nodes_per_cell) if output == "values" else None
    want = _volume_reference(shell14, gauss_field, kind, targets, node_density)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_remainder_far_target_rows_decay(shell14, gauss_field):
    """Far-target rows of R decay like 1/|y|, with a known constant.

    R(x, y) = -[lap ln a P_lap + grad ln a . grad_x P_lap] decays fast in
    the source x but only like 1/|y| in the target, because the integral
    of lap ln a over |x| > 1 is 4 pi dn ln a|_S, not zero.  The row sums
    obey a closed law: R1 = -W1 (the third identity for u == 1), and with
    the exterior Laplace double layer of 1 vanishing, -W1 is the single
    layer of the constant dn ln a, which is DN_LN_A_SPHERE / |y| for
    |y| > 1.  A wrong sign, scale or rate of R breaks the law.
    """
    matrix = px.op_R_matrix(shell14, gauss_field, shell14.centers, workers=4)
    radii = np.linalg.norm(shell14.centers, axis=1)
    far = radii >= 3.0
    assert far.any()
    # |y| (R1)(y) = dn ln a on the unit sphere, for every target |y| > 1
    law = radii[far] * matrix[far].sum(axis=1)
    assert np.abs(law / DN_LN_A_SPHERE - 1.0).max() <= 1e-3


# --- offset diagnostics ------------------------------------------------------

def test_adjoint_offset_extrapolation_stable(sphere3, unit_field, ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 40))
    h = sphere3.diameters.max()
    v = {c: px.op_Wprime_offset(sphere3, unit_field, ones_tc, colloc, offset=c * h)
         for c in (0.2, 0.1, 0.05)}
    e1 = 2.0 * v[0.1] - v[0.2]
    e2 = 2.0 * v[0.05] - v[0.1]
    assert np.abs(e1 - 1.0).max() < 0.05
    assert np.abs(e1 - e2).max() < 0.05


def test_adjoint_offset_constant_two_equals_unit(sphere3, unit_field, two_field,
                                                 ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 40))
    one = px.op_Wprime_offset(sphere3, unit_field, ones_tc, colloc, offset=0.05)
    two = px.op_Wprime_offset(sphere3, two_field, ones_tc, colloc, offset=0.05)
    assert np.abs(two - one).max() <= 1e-14


def test_adjoint_offset_zero_density(sphere3, gauss_field):
    zero = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL,
                              np.zeros(sphere3.n_triangles))
    colloc = lp.Collocation.centroids(sphere3, np.array([0, 5]))
    vals = px.op_Wprime_offset(sphere3, gauss_field, zero, colloc, offset=0.1)
    assert np.array_equal(vals, np.zeros(2))


def test_adjoint_offset_requires_positive_offset(sphere3, unit_field, ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.array([0]))
    with pytest.raises(ValueError):
        px.op_Wprime_offset(sphere3, unit_field, ones_tc, colloc, offset=0.0)


def test_hypersingular_offset_zero_density(sphere3, gauss_field):
    zero = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                              np.zeros(sphere3.n_vertices))
    colloc = lp.Collocation.centroids(sphere3, np.array([0, 5]))
    vals = px.op_Lhat_offset(sphere3, gauss_field, zero, colloc, offset=0.1)
    assert np.array_equal(vals, np.zeros(2))


def test_hypersingular_reduces_for_unit_coefficient(sphere3, unit_field):
    phi = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                             1.0 + sphere3.vertices[:, 2])
    idx = np.arange(0, sphere3.n_triangles, 160)
    colloc = lp.Collocation.centroids(sphere3, idx)
    vals = px.op_Lhat_offset(sphere3, unit_field, phi, colloc, offset=0.1)
    ref = np.array([lp.normal_derivative(
        lambda t: lp.double_layer(sphere3, phi, t),
        colloc.points[i], sphere3.normals[tri], offset=0.1)
        for i, tri in enumerate(idx)])
    assert np.abs(vals - ref).max() <= 1e-14


def test_hypersingular_constants_extrapolate_small(sphere3, unit_field, ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 40))
    v = {d: px.op_Lhat_offset(sphere3, unit_field, ones_tc, colloc, offset=d)
         for d in (0.2, 0.1, 0.05)}
    extrap = (8.0 * v[0.05] - 6.0 * v[0.1] + v[0.2]) / 3.0
    assert np.abs(extrap).max() < 0.05


def _wprime_per_target(mesh, field, density, colloc, offset):
    # One engine call per target with its own normal-projected kernel.
    normals = px._target_normals(mesh, colloc)
    dens = lp._make_dens(mesh, density, px._inv_a(field))
    out = np.zeros(colloc.n)
    for i, (y, n_y) in enumerate(zip(colloc.points, normals)):
        kern = lambda nodes, panel_normals, ys, n_y=n_y: np.einsum(
            "j,...j->...", n_y, nodes - ys) / (
            FOUR_PI * np.linalg.norm(nodes - ys, axis=-1) ** 3)
        point = lp.Collocation.free((y - offset * n_y)[None])
        value = lp._surface_rows(mesh, point, [lp._Term(kern, dens, "duffy")])[0][0]
        out[i] = field.eval_a(y[None])[0] * value
    return out


def _lhat_per_target(mesh, field, density, colloc, offset):
    # Two-point stencils of the public layers, one target at a time.
    normals = px._target_normals(mesh, colloc)
    a_y = field.eval_a(colloc.points)
    out = np.zeros(colloc.n)
    for i in range(colloc.n):
        pot_w = lambda pts: lp.double_layer(mesh, density, pts)
        pot_v = lambda pts: lp.single_layer(mesh, density, pts, factor=px._dn_ln_a(field))
        out[i] = a_y[i] * (lp.normal_derivative(pot_w, colloc.points[i], normals[i], offset)
                           - lp.normal_derivative(pot_v, colloc.points[i], normals[i], offset))
    return out


@pytest.mark.parametrize("offset", [0.02, 0.1])
def test_offset_diagnostics_match_per_target_loop(sphere3, gauss_field, offset):
    """Both diagnostics evaluate all their offset points in one surface pass;
    a target's value does not depend on the others beyond rounding."""
    colloc = lp.Collocation.concat([
        lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 97)),
        lp.Collocation.vertices(sphere3, np.arange(0, sphere3.n_vertices, 61)),
    ])
    tc = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL,
                            1.0 + 0.5 * sphere3.centroids[:, 0])
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                            np.cos(2.0 * sphere3.vertices[:, 2]))
    for got, want in (
            (px.op_Wprime_offset(sphere3, gauss_field, tc, colloc, offset),
             _wprime_per_target(sphere3, gauss_field, tc, colloc, offset)),
            (px.op_Lhat_offset(sphere3, gauss_field, vl, colloc, offset),
             _lhat_per_target(sphere3, gauss_field, vl, colloc, offset))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- resource caps -----------------------------------------------------------

def test_caps_reject_oversized_counts():
    px.check_dense_caps(n_triangles=px.MAX_DENSE_TRIANGLES,
                        n_cells=px.MAX_DENSE_CELLS)
    with pytest.raises(px.ResourceLimitError):
        px.check_dense_caps(n_triangles=px.MAX_DENSE_TRIANGLES + 1)
    with pytest.raises(px.ResourceLimitError):
        px.check_dense_caps(n_cells=px.MAX_DENSE_CELLS + 1)


def test_surface_matrix_cap(gauss_field):
    big = geo.build_icosphere(4)
    target = np.zeros((1, 3))
    with pytest.raises(px.ResourceLimitError):
        px.op_V_matrix(big, gauss_field, lp.SPACE_TRIANGLE, target)
    with pytest.raises(px.ResourceLimitError):
        px.op_W_matrix(big, gauss_field, lp.SPACE_VERTEX, target)


def test_volume_matrix_cap(gauss_field):
    big = geo.build_shell_mesh(inner_radius=1.0, outer_radius=4.0,
                               n_radial=13, angular_level=2)
    target = np.zeros((1, 3))
    with pytest.raises(px.ResourceLimitError):
        px.op_R_matrix(big, gauss_field, target)
    with pytest.raises(px.ResourceLimitError):
        px.op_P_matrix(big, gauss_field, target)


# --- unit-coefficient reduction sweep ----------------------------------------

def test_unit_coefficient_reduction_sweep(sphere3, shell12, unit_field):
    rng = np.random.default_rng(30)
    tc = lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL,
                            rng.normal(size=sphere3.n_triangles))
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL,
                            rng.normal(size=sphere3.n_vertices))
    f = lp.DomainDensity(rng.normal(size=shell12.n_cells))
    targets = np.array([[0.0, 0.0, 2.0], [2.5, 0.4, -0.1]])
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 51))

    pairs = [
        (px.op_V(sphere3, unit_field, tc, targets),
         lp.single_layer(sphere3, tc, targets)),
        (px.op_W(sphere3, unit_field, vl, targets),
         lp.double_layer(sphere3, vl, targets)),
        (px.dv_V(sphere3, unit_field, tc, colloc),
         lp.single_layer_direct(sphere3, tc, colloc)),
        (px.dv_W(sphere3, unit_field, vl, colloc),
         lp.double_layer_direct(sphere3, vl, colloc)),
        (px.op_P(shell12, unit_field, f, targets),
         lp.newton_potential(shell12, f, targets)),
        (px.op_R(shell12, unit_field, f, targets), np.zeros(2)),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12
